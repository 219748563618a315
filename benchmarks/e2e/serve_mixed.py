"""``serve_mixed``: two tenants against one ``repro serve --tcp`` process.

The server is a subprocess (``python -m repro serve --tcp 127.0.0.1:0
--catalog star --candidate-policy per_query``); set-up starts it, warms the
shared tier with one ``recommend`` (ten builds) and lets each tenant adopt
the tier with a first ``recommend``.  Two ``TuningClient`` connections with
private ``session_id``s then play a fixed 20-request schedule, closed loop
and in step: both send request *k* of the schedule at the same moment and
wait for both answers before request *k+1*, so what each request contends
with is the same in every round (free-running, the two passes drift apart
and the median ``evaluate`` flips between "alone" and "behind the other
tenant's recommend": +-12 % from run to run).  One round is one pass of the
schedule on both connections (40 requests):

* 8 ``evaluate`` (**read**), 4 ``what_if`` (rotating over 8 index sets taken
  from the warm response), 2 ``workload``, 1 ``stats``, 1 ``ping``.
* 1 ``add_queries`` -- three literal variants of one never-seen 5-table
  query, sent with ``compress`` so they fold into one statement -- and
  1 ``remove_queries``: the writes.
* ``recommend`` right after the add: one build plus the promotion of the
  new cache into the tier.  **build**
* ``recommend`` after the remove: a tenant re-tune that builds nothing.  **tune**

This is the only workload where the TCP server, the request dispatcher, the
shared tier, JSON encoding and cross-session locking carry the time.  Reads
and writes share the tier, so what a promotion costs the *other* tenant's
reads shows here.  A traced run hosts ``TuningServer`` in the driver's own
event loop instead, so the layers under the socket are visible to the span
recorder.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

import checks
from harness import ALLOWED_CORES, OpLog, child_env, percentile
from inputs import SHAPE_SEED, Inputs

from repro.advisor.advisor import AdvisorOptions
from repro.api.server import TuningClient, TuningServer
from repro.api.session import TuningSession

ROLES = {
    "build": ("recommend_grown",),
    "tune": ("recommend",),
    # The pooled median of all five read operations sits exactly between the
    # eight cheap ones and the eight evaluates of a pass, on the edge of two
    # modes; the dominant read alone has a median that repeats.
    "read": ("evaluate",),
}
READS = ("evaluate", "what_if", "workload", "stats", "ping")
WRITES = ("add_queries", "remove_queries")
TENANTS = 2
SCHEDULE = (
    "ping", "workload", "evaluate", "what_if", "evaluate", "stats",
    "add_queries", "recommend_grown", "evaluate", "what_if", "evaluate",
    "remove_queries", "recommend", "evaluate", "what_if", "evaluate",
    "workload", "evaluate", "what_if", "evaluate",
)
MAX_CANDIDATES = 120


class _Pass:
    """One tenant's position in one pass of the schedule."""

    def __init__(self, sequence: int) -> None:
        self.sequence = sequence
        self.evaluates = self.what_ifs = 0
        self.added: List[str] = []


class Workload:
    def __init__(self, inputs: Inputs, engine: Optional[str] = None,
                 traced: bool = False) -> None:
        self.inputs = inputs
        self.in_process = traced
        self.loop = asyncio.new_event_loop()
        self.process: Optional[subprocess.Popen] = None
        self.server: Optional[TuningServer] = None
        self.clients: List[TuningClient] = []
        self.index_sets: List[list] = []
        self.picks: List[dict] = []
        self.budget = AdvisorOptions().space_budget_bytes
        self.passes = [0] * TENANTS

    # -- set-up ------------------------------------------------------------

    def set_up(self) -> None:
        host, port = self._start_server()
        self.loop.run_until_complete(self._connect(host, port))

    def _start_server(self) -> "tuple[str, int]":
        if self.in_process:
            self.server = TuningServer(
                "127.0.0.1", 0, default_catalog="star", seed=SHAPE_SEED,
                options=AdvisorOptions(
                    max_candidates=MAX_CANDIDATES, candidate_policy="per_query"),
            )
            self.loop.run_until_complete(self.server.start())
            return self.server.host, self.server.port
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--tcp", "127.0.0.1:0",
             "--catalog", "star", "--seed", str(SHAPE_SEED),
             "--max-candidates", str(MAX_CANDIDATES),
             "--candidate-policy", "per_query"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=child_env(), text=True,
        )
        # The server gets the second core to itself (see harness.pin_cpu).
        if len(ALLOWED_CORES) >= 2:
            os.sched_setaffinity(self.process.pid, {ALLOWED_CORES[1]})
        announce = json.loads(self.process.stdout.readline())
        return announce["host"], int(announce["port"])

    async def _connect(self, host: str, port: int) -> None:
        async with TuningClient(host, port, session_id="warm") as warm:
            response = await warm.call("recommend")
        result = response["result"]
        self.picks = result["selected_indexes"]
        self.warm_outcome = checks.outcome(result)
        self.warm_built = result["session"]["caches_built"]
        subsets = self.inputs.index_sets(self.picks, 8, "serve.what_if")
        self.index_sets = subsets
        self.clients = []
        for tenant in range(TENANTS):
            client = TuningClient(host, port, session_id=f"tenant-{tenant}")
            await client.connect()
            await client.call("recommend")
            self.clients.append(client)
        self.passes = [0] * TENANTS

    def tear_down(self) -> None:
        self.loop.run_until_complete(self._disconnect())
        if self.server is not None:
            self.loop.run_until_complete(self.server.stop())
            self.server = None
        if self.process is not None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
            self.process.stdout.close()
            self.process = None

    async def _disconnect(self) -> None:
        for client in self.clients:
            await client.close()
        self.clients = []

    # -- one round ---------------------------------------------------------

    def round(self, log: OpLog, number: int) -> None:
        async def both_tenants() -> None:
            passes = [_Pass(self.passes[tenant]) for tenant in range(TENANTS)]
            for slot in SCHEDULE:
                await asyncio.gather(*(
                    self._request(log, tenant, passes[tenant], slot)
                    for tenant in range(TENANTS)))

        self.loop.run_until_complete(both_tenants())
        self.passes = [sequence + 1 for sequence in self.passes]

    async def _request(self, log: OpLog, tenant: int, state: "_Pass", slot: str) -> None:
        client = self.clients[tenant]
        op, params = slot, None
        if slot == "evaluate":
            size = 1 + state.evaluates % len(self.picks)
            state.evaluates += 1
            params = {"indexes": self.picks[:size]}
        elif slot == "what_if":
            params = {"indexes": self.index_sets[
                (state.sequence * 4 + state.what_ifs) % len(self.index_sets)]}
            state.what_ifs += 1
        elif slot == "add_queries":
            params = {"compress": True, "queries": self._never_seen(tenant, state.sequence)}
        elif slot == "remove_queries":
            params = {"names": state.added}
        elif slot == "recommend_grown":
            op = "recommend"
        started = time.perf_counter()
        try:
            response = await client.call(op, params)
        except (OSError, EOFError, ValueError) as error:
            log.record(slot, (time.perf_counter() - started) * 1000.0)
            log.expect(False, f"{slot}: {type(error).__name__}: {error}")
            return
        ended = time.perf_counter()
        log.record(slot, (ended - started) * 1000.0)
        request_id = response.get("id")
        if log.spans is not None:
            log.spans.add_closed("api.server.call", started, ended,
                                 f"{client.session_id}#{request_id}")
            log.counters["api.serve.response_bytes"] += len(json.dumps(response))
        log.expect(response.get("ok") is True, f"{slot}: {response.get('error')}")
        log.expect(
            isinstance(request_id, int) and response.get("session_id") == client.session_id,
            f"{slot}: the response does not echo its request",
        )
        if not response.get("ok"):
            return
        result = response["result"]
        if slot == "add_queries":
            state.added = list(result["added"])
            log.expect(len(state.added) == 1,
                       f"add_queries folded into {len(state.added)} statements")
            log.counters["serve.add_queries"] += 1
            log.counters["serve.compress_ratio"] += result["compression"]["ratio"]
        elif slot == "remove_queries":
            state.added = []
        elif op == "recommend":
            grown = slot == "recommend_grown"
            checks.recommend(log, slot, result, self.budget,
                             built=1 if grown else 0, optimizer_calls=3 if grown else 0)
            log.counters["api.tier.tenant_builds"] += result["session"]["caches_built"]
            if not grown:
                log.same("serve.recommend", checks.outcome(result))
        elif slot == "evaluate" and not state.added:
            log.same(f"serve.evaluate.{len(params['indexes'])}", result["total_cost"])

    def _never_seen(self, tenant: int, sequence: int) -> List[dict]:
        """Three literal variants of one never-seen query (one template)."""
        base = 10 * (sequence * TENANTS + tenant)
        return [
            {"sql": self.inputs.never_seen(base + variant, "fresh").to_sql()}
            for variant in range(3)
        ]

    # -- after the measurement ---------------------------------------------

    def verify(self, log: OpLog, expected: Optional[dict]) -> None:
        log.verify(self.warm_built == 10, f"the warm recommend built {self.warm_built} caches")
        log.verify(
            log.counters["api.tier.tenant_builds"] == log.counters["serve.add_queries"],
            f"{log.counters['api.tier.tenant_builds']} tenant builds for "
            f"{log.counters['serve.add_queries']} add_queries requests",
        )
        # One front door must answer what the library answers in process.
        options = AdvisorOptions(max_candidates=MAX_CANDIDATES, candidate_policy="per_query")
        local = TuningSession(
            self.inputs.catalog, self.inputs.star.queries(10), options=options
        ).recommend().to_dict()
        for label, outcome in (("warm", self.warm_outcome),
                               ("tenant", log.first("serve.recommend"))):
            log.verify(
                outcome is not None and outcome["picks"] == checks.outcome(local)["picks"]
                and checks.close(outcome["cost_after"], local["workload_cost_after"]),
                f"the {label} recommend over TCP differs from the in-process one",
            )

    # -- traced run only ---------------------------------------------------

    def layer_extras(self, log: OpLog, recorder, spans) -> Dict[str, float]:
        rounds = max(1, log.rounds)
        stats = self.loop.run_until_complete(self.clients[0].call("server_stats"))
        tier = stats["result"]["tier"]
        handled = spans.by_request("api.serve.handle")
        transport = [
            (span[3] - span[2]) * 1000.0 - handled[span[6]]
            for span in spans.named("api.server.call") if span[6] in handled
        ]
        reads = log.pooled(*READS)
        return {
            "api.server.transport_ms_p50": percentile(transport, 0.5),
            "api.server.read_ms_p90": percentile(reads, 0.9),
            "api.server.read_ms_p99": percentile(reads, 0.99),
            "api.server.write_ms_p50": log.p50(*WRITES),
            "api.server.recommend_ms_p50": log.p50("recommend"),
            "api.serve.response_bytes":
                log.counters["api.serve.response_bytes"] / (rounds * TENANTS * len(SCHEDULE)),
            "api.tier.cache_hits": float(tier["cache_hits"]),
            "api.tier.cache_promotions": float(tier["cache_promotions"]),
            "api.tier.arena_hits": float(tier["arena_hits"]),
            "api.tier.arena_promotions": float(tier["arena_promotions"]),
            "workloads.compress_ratio":
                log.counters["serve.compress_ratio"] / max(1, log.counters["serve.add_queries"]),
        }
