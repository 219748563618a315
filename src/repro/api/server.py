"""``repro serve --tcp``: the concurrent tuning server over asyncio.

The stdio frontend (:mod:`repro.api.serve`) serves exactly one client; this
module serves N of them over TCP with the *same* newline-delimited JSON
protocol -- a request line ``{"id": ..., "op": ..., "params": {...}}``
answers with ``{"id": ..., "ok": ..., "op": ..., "result"/"error": ...}``
-- so a client written against the pipe keeps working against a socket.

What changes is the state model:

* **one session per ``session_id``**, not per process.  A request may carry
  a top-level ``"session_id"``; requests without one share a per-connection
  default, so a plain pipelined client gets a private session and a client
  that names its session can reconnect to warm state after a dropped
  connection.
* **one shared read-only tier** (:class:`~repro.api.tier.SharedCacheTier`)
  under every session: plan caches, compiled workload arenas and what-if
  answers are built once process-wide and adopted by later sessions (their
  ``recommend`` reports ``caches_shared`` instead of ``caches_built``).
* **per-session serialization, cross-session concurrency**: each session's
  requests run one at a time (an :class:`asyncio.Lock` guards it) on a
  thread pool, so CPU-bound recommends from different tenants overlap
  without any session seeing concurrent mutation of its own state.

Lifecycle: the server answers until EOF on the connection, a ``shutdown``
request, or SIGTERM/SIGINT on the process.  In every case in-flight and
already-received requests are *drained* -- answered in order -- before the
connection is closed with one final unsolicited acknowledgement line::

    {"id": null, "ok": true, "op": "shutdown",
     "result": {"reason": "eof" | "shutdown" | "signal", "drained": N}}

Two server-level operations exist next to the session operations:
``server_stats`` (tier statistics, session and connection counts) and
``shutdown`` (closes the issuing connection after draining it).
"""

from __future__ import annotations

import asyncio
import contextvars
import itertools
import json
import logging
import os
import signal
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Optional, Set, Tuple

from repro.advisor.advisor import AdvisorOptions
from repro.api.serve import ServeFrontend
from repro.api.tier import SharedCacheTier
from repro.obs.instruments import (
    SERVE_CONNECTIONS,
    SERVE_INFLIGHT,
    SERVE_REQUESTS,
    SERVE_SECONDS,
)
from repro.obs.trace import get_tracer
from repro.util.errors import AdvisorError
from repro.util.timing import timed

#: Queue items are ("line", decoded_request) or ("end", reason).
_QueueItem = Tuple[str, str]

#: Ops accepted as metric label values; anything else (typos, probes from
#: arbitrary clients) is folded into ``unknown`` so label cardinality stays
#: bounded no matter what reaches the socket.
_KNOWN_OPS = frozenset(
    name[len("_op_"):] for name in dir(ServeFrontend) if name.startswith("_op_")
) | {"server_stats"}


def _op_label(op: object) -> str:
    return op if isinstance(op, str) and op in _KNOWN_OPS else "unknown"


class TuningServer:
    """An asyncio TCP server multiplexing tuning sessions over a shared tier.

    ``port=0`` binds an ephemeral port (the bound port is published on
    :attr:`port` after :meth:`start`).  ``workers`` bounds the thread pool
    the CPU-bound session work runs on; sessions are serialized
    individually, so ``workers`` is the cross-session parallelism cap.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        default_catalog: str = "star",
        seed: int = 7,
        options: Optional[AdvisorOptions] = None,
        shared_tier: Optional[SharedCacheTier] = None,
        workers: Optional[int] = None,
        access_log: bool = False,
    ) -> None:
        self.host = host
        self.port = port
        self._default_catalog = default_catalog
        self._seed = seed
        self._options = options or AdvisorOptions()
        #: The process-wide shared read-only cache tier under every session.
        self.shared_tier = shared_tier or SharedCacheTier()
        self._workers = workers or min(32, (os.cpu_count() or 1) * 4)
        #: ``--access-log``: one structured line per request (session_id,
        #: op, status, duration_ms, trace_id) through the ``repro.access``
        #: logger.  Requests also get root spans then, so the logged
        #: trace_id correlates with any ``--trace-out`` sink.
        self._access_log = access_log
        self._access_logger = logging.getLogger("repro.access")
        if access_log and not self._access_logger.handlers:
            handler = logging.StreamHandler(sys.stderr)
            handler.setFormatter(logging.Formatter("%(message)s"))
            self._access_logger.addHandler(handler)
            self._access_logger.setLevel(logging.INFO)
        self._executor: Optional[ThreadPoolExecutor] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopping: Optional[asyncio.Event] = None
        self._frontends: Dict[str, ServeFrontend] = {}
        self._locks: Dict[str, asyncio.Lock] = {}
        self._connection_tasks: Set[asyncio.Task] = set()
        self._connection_ids = itertools.count(1)
        self._connections_active = 0
        self._requests_served = 0
        self._started_at = time.monotonic()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "TuningServer":
        """Bind and start accepting connections; resolves the bound port."""
        self._stopping = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=self._workers, thread_name_prefix="repro-serve"
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        """Stop accepting, drain every live connection, release the pool."""
        if self._stopping is not None:
            self._stopping.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._connection_tasks:
            await asyncio.gather(*tuple(self._connection_tasks), return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=False)
            self._executor = None

    async def run(
        self, announce: Optional[Callable[[Dict[str, Any]], None]] = None
    ) -> None:
        """Serve until SIGTERM/SIGINT (the blocking CLI entry point).

        ``announce`` receives one ``{"event": "serving", "host", "port",
        "pid"}`` object once the socket is bound, so wrappers (the CI load
        job, the benchmark harness) can parse the ephemeral port.
        """
        await self.start()
        assert self._stopping is not None
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self._stopping.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # platform without signal handlers (or nested loop)
        if announce is not None:
            announce(
                {"event": "serving", "host": self.host, "port": self.port,
                 "pid": os.getpid()}
            )
        await self._stopping.wait()
        await self.stop()

    # -- introspection -----------------------------------------------------

    @property
    def session_count(self) -> int:
        """Sessions alive: every named one, plus the open anonymous connections'."""
        return len(self._frontends)

    @property
    def connections_active(self) -> int:
        """Connections currently open."""
        return self._connections_active

    @property
    def requests_served(self) -> int:
        """Requests answered (excluding the final drain acknowledgements)."""
        return self._requests_served

    # -- connection handling -----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connection_tasks.add(task)
        self._connections_active += 1
        SERVE_CONNECTIONS.inc()
        default_session = f"conn-{next(self._connection_ids)}"
        queue: asyncio.Queue = asyncio.Queue()
        pump = asyncio.create_task(self._pump_lines(reader, queue))
        stop_watch = asyncio.create_task(self._push_end_on_stop(queue))
        drained = 0
        try:
            reason = None
            while reason is None:
                kind, value = await queue.get()
                if kind == "end":
                    reason = value
                    break
                if kind == "refused":  # a line the pump could not read
                    SERVE_REQUESTS.labels(op="unknown", status="error").inc()
                    response, close = value, False
                else:
                    response, close = await self._process(value, default_session)
                writer.write(response.encode("utf-8") + b"\n")
                await writer.drain()
                if close:
                    reason = "shutdown"
            pump.cancel()
            # Drain: everything the client already sent is answered, in
            # order, before the final acknowledgement -- a shutdown racing
            # a recommend never swallows the recommend's response.
            while not queue.empty():
                kind, value = queue.get_nowait()
                if kind != "line":
                    continue
                response, _ = await self._process(value, default_session)
                writer.write(response.encode("utf-8") + b"\n")
                drained += 1
            ack = {
                "id": None,
                "ok": True,
                "op": "shutdown",
                "result": {"reason": reason, "drained": drained},
            }
            writer.write(json.dumps(ack).encode("utf-8") + b"\n")
            await writer.drain()
        except (ConnectionError, BrokenPipeError):  # pragma: no cover
            pass  # client vanished mid-write; nothing left to answer
        finally:
            pump.cancel()
            stop_watch.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):  # pragma: no cover
                pass
            self._connections_active -= 1
            SERVE_CONNECTIONS.dec()
            # The connection-default session dies with its connection (nobody
            # can name it again); named sessions stay for reconnects.
            self._locks.pop(default_session, None)
            frontend = self._frontends.pop(default_session, None)
            if frontend is not None:
                frontend.close()
            if task is not None:
                self._connection_tasks.discard(task)

    @staticmethod
    async def _pump_lines(reader: asyncio.StreamReader, queue: asyncio.Queue) -> None:
        """Feed request lines into the queue; an ``end`` marker on EOF.

        A line longer than the stream's buffer limit makes ``readline``
        raise ``ValueError`` after dropping part of it, so the stream cannot
        be resynchronised: the request is refused with a well-formed error
        and this connection (only) ends.
        """
        reason = "eof"
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                text = line.decode("utf-8", "replace").strip()
                if text:
                    await queue.put(("line", text))
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except ValueError as error:
            reason = "request line too long"
            await queue.put(("refused", json.dumps(ServeFrontend._error_response(
                None, None, AdvisorError(f"{reason}: {error}")
            ))))
        await queue.put(("end", reason))

    async def _push_end_on_stop(self, queue: asyncio.Queue) -> None:
        """Inject an ``end`` marker when the process is told to stop."""
        assert self._stopping is not None
        await self._stopping.wait()
        await queue.put(("end", "signal"))

    # -- request processing ------------------------------------------------

    def _frontend_for(self, session_id: str) -> ServeFrontend:
        """The (lazily created) dispatcher owning ``session_id``'s state."""
        frontend = self._frontends.get(session_id)
        if frontend is None:
            frontend = ServeFrontend(
                default_catalog=self._default_catalog,
                seed=self._seed,
                options=self._options,
                shared_tier=self.shared_tier,
            )
            self._frontends[session_id] = frontend
            self._locks[session_id] = asyncio.Lock()
        return frontend

    async def _process(self, line: str, default_session: str) -> Tuple[str, bool]:
        """One request line in, one response line out; flags close-after.

        Wraps the dispatch with the serving instruments: per-op request
        counter and latency histogram, the in-flight gauge, and -- with
        ``access_log`` -- a per-request root span plus one structured log
        line carrying its trace id.
        """
        SERVE_INFLIGHT.inc()
        tracer = get_tracer()
        try:
            with tracer.span("serve.request", root=self._access_log) as span, timed() as timer:
                text, close, op, ok, session_id = await self._dispatch(
                    line, default_session
                )
                span.set(op=op, ok=ok, session_id=session_id)
        finally:
            SERVE_INFLIGHT.dec()
        status = "ok" if ok else "error"
        SERVE_REQUESTS.labels(op=op, status=status).inc()
        SERVE_SECONDS.labels(op=op).observe(timer.seconds)
        if self._access_log:
            self._access_logger.info(json.dumps({
                "session_id": session_id,
                "op": op,
                "status": status,
                "duration_ms": round(timer.seconds * 1000.0, 3),
                "trace_id": span.trace_id,
            }, sort_keys=True))
        return text, close

    async def _dispatch(
        self, line: str, default_session: str
    ) -> Tuple[str, bool, str, bool, str]:
        """Decode and answer one request.

        Returns ``(response_text, close_after, op_label, ok, session_id)``
        -- the last three feed the metrics/access-log wrapper above.
        """
        try:
            payload = json.loads(line)
        except ValueError as error:
            return json.dumps(ServeFrontend._error_response(
                None, None, AdvisorError(f"request is not valid JSON: {error}")
            )), False, "unknown", False, default_session
        if not isinstance(payload, dict):
            return json.dumps(ServeFrontend._error_response(
                None, None,
                AdvisorError("a request must be a JSON object with an 'op' field"),
            )), False, "unknown", False, default_session
        session_id = str(payload.get("session_id") or default_session)
        op = payload.get("op")
        if op == "server_stats":
            response = {
                "id": payload.get("id"),
                "ok": True,
                "op": "server_stats",
                "result": self.server_stats(),
                "session_id": session_id,
            }
            return json.dumps(response), False, "server_stats", True, session_id
        frontend = self._frontend_for(session_id)
        lock = self._locks[session_id]
        loop = asyncio.get_running_loop()
        # The executor does not propagate contextvars, so the handler runs
        # inside a copy of this coroutine's context -- spans opened on the
        # worker thread parent under the request span opened above.
        context = contextvars.copy_context()
        # Per-session serialization: a session's requests never overlap, so
        # the TuningSession underneath stays effectively single-threaded;
        # different sessions run truly concurrently on the pool.
        async with lock:
            response = await loop.run_in_executor(
                self._executor, context.run, frontend.handle, payload
            )
        self._requests_served += 1
        response["session_id"] = session_id
        close = bool(op == "shutdown" and response.get("ok"))
        return json.dumps(response), close, _op_label(op), bool(response.get("ok")), session_id

    def server_stats(self) -> Dict[str, Any]:
        """The ``server_stats`` operation: process-wide counters + tier."""
        return {
            "sessions": self.session_count,
            "connections_active": self._connections_active,
            "requests_served": self._requests_served,
            "workers": self._workers,
            "uptime_seconds": time.monotonic() - self._started_at,
            "tier": self.shared_tier.statistics_dict(),
            # One entry per catalog-session under each session_id: recommend
            # and re-tune liveness (monotonic timestamps, watch flag).
            "session_detail": {
                session_id: frontend.session_overview()
                for session_id, frontend in self._frontends.items()
            },
        }


class TuningClient:
    """A minimal asyncio NDJSON client for :class:`TuningServer`.

    Used by the test suite, the concurrency benchmark and the examples; it
    is also a reference for writing clients in other stacks (one JSON
    object per line, responses echo the request ``id``).
    """

    def __init__(
        self, host: str, port: int, *, session_id: Optional[str] = None
    ) -> None:
        self.host = host
        self.port = port
        self.session_id = session_id
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._ids = itertools.count(1)

    async def __aenter__(self) -> "TuningClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(self.host, self.port)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, BrokenPipeError):  # pragma: no cover
                pass
            self._writer = None
            self._reader = None

    async def send(self, op: str, params: Optional[Dict[str, Any]] = None,
                   **extra: Any) -> int:
        """Write one request line (pipelining-friendly); returns its id."""
        assert self._writer is not None, "client is not connected"
        request_id = next(self._ids)
        payload: Dict[str, Any] = {"id": request_id, "op": op}
        if params:
            payload["params"] = params
        if self.session_id is not None:
            payload["session_id"] = self.session_id
        payload.update(extra)
        self._writer.write(json.dumps(payload).encode("utf-8") + b"\n")
        await self._writer.drain()
        return request_id

    async def receive(self) -> Dict[str, Any]:
        """Read one response line (raises ``EOFError`` on close)."""
        assert self._reader is not None, "client is not connected"
        line = await self._reader.readline()
        if not line:
            raise EOFError("server closed the connection")
        return json.loads(line)

    async def call(self, op: str, params: Optional[Dict[str, Any]] = None,
                   **extra: Any) -> Dict[str, Any]:
        """One request, one response (the non-pipelined convenience path)."""
        await self.send(op, params, **extra)
        return await self.receive()
