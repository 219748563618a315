"""Statement sources: where the online daemon's statements come from.

The wire format is one statement per line -- either a JSON object with an
``"sql"`` field (the shape :func:`repro.workloads.trace.emit_trace`
produces, extra fields like ``"phase"``/``"template"`` are ignored) or bare
SQL text.  Lines that parse as neither are *malformed*: they are counted
and skipped, never raised -- a live feed with one bad line must not kill a
daemon that has been warm for a week.

Two sources share the tiny polling contract (``poll()`` returns the parsed
statements that arrived since the last call):

* :class:`MemoryStatementSource` -- an in-process queue for tests and the
  serve ops (``watch_stats`` can push statements straight into it),
* :class:`FileTailSource` -- ``tail -f`` for NDJSON logs: remembers its
  byte offset, reads only appended data, survives the file not existing
  yet and detects truncation (log rotation) by re-reading from the start.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import List, Optional, Union

from repro.obs.instruments import ONLINE_MALFORMED, ONLINE_STATEMENTS
from repro.query.ast import Statement
from repro.query.parser import parse_statement
from repro.util.errors import QueryError


@dataclass
class StreamStatistics:
    """Line accounting of one source (cumulative).

    ``statements_parsed`` and ``malformed_lines`` are bumped together with
    the process-wide ``repro_online_statements_total`` and
    ``repro_online_malformed_total`` families, by the source alone.
    """

    lines_seen: int = 0
    statements_parsed: int = 0
    malformed_lines: int = 0


class StatementSource:
    """Base class: line intake, parsing and malformed-line accounting."""

    def __init__(self) -> None:
        self.statistics = StreamStatistics()

    def poll(self) -> List[Statement]:
        """The statements that arrived since the last poll (never raises)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any held resources (idempotent)."""

    # -- shared parsing ----------------------------------------------------

    def _parse_line(self, line: str) -> Optional[Statement]:
        """One feed line to a statement, or ``None`` (counted) if malformed."""
        text = line.strip()
        if not text:
            return None
        self.statistics.lines_seen += 1
        sql = text
        name = "statement"
        if text.startswith("{"):
            try:
                payload = json.loads(text)
            except ValueError:
                self._malformed()
                return None
            if not isinstance(payload, dict) or not isinstance(payload.get("sql"), str):
                self._malformed()
                return None
            sql = payload["sql"]
            name = str(payload.get("template") or payload.get("name") or name)
        try:
            statement = parse_statement(sql, name=name)
        except QueryError:
            self._malformed()
            return None
        self._accepted()
        return statement

    def _accepted(self) -> None:
        self.statistics.statements_parsed += 1
        ONLINE_STATEMENTS.inc()

    def _malformed(self) -> None:
        self.statistics.malformed_lines += 1
        ONLINE_MALFORMED.inc()


class MemoryStatementSource(StatementSource):
    """An in-memory source: feed lines (or parsed statements) in, poll out."""

    def __init__(self) -> None:
        super().__init__()
        self._pending: List[Statement] = []

    def feed(self, items: Union[str, List]) -> int:
        """Queue feed lines (a string with newlines, or a list of lines /
        already-parsed statements); returns how many statements were queued.
        """
        if isinstance(items, str):
            items = items.splitlines()
        queued = 0
        for item in items:
            if isinstance(item, str):
                statement = self._parse_line(item)
                if statement is None:
                    continue
            else:
                statement = item
                self.statistics.lines_seen += 1
                self._accepted()
            self._pending.append(statement)
            queued += 1
        return queued

    def poll(self) -> List[Statement]:
        drained, self._pending = self._pending, []
        return drained


class FileTailSource(StatementSource):
    """Follow an NDJSON statement log the way ``tail -f`` does.

    ``start_at_end=True`` skips whatever the file already contains (watch
    only *new* traffic); the default replays the existing content first.
    Partial trailing lines (a writer mid-append) stay buffered until their
    newline arrives.  Nothing here raises on I/O trouble: a missing file
    yields no statements, a shrunken file (rotation) resets the offset.
    """

    def __init__(self, path: str, start_at_end: bool = False) -> None:
        super().__init__()
        self.path = path
        self._offset = 0
        self._buffer = ""
        if start_at_end:
            try:
                self._offset = os.path.getsize(path)
            except OSError:
                self._offset = 0

    def poll(self) -> List[Statement]:
        try:
            size = os.path.getsize(self.path)
        except OSError:
            return []
        if size < self._offset:
            # The file shrank: rotated or truncated.  Start over; the
            # half-line buffered from the old incarnation is meaningless.
            self._offset = 0
            self._buffer = ""
        if size == self._offset:
            return []
        try:
            with open(self.path, "r", encoding="utf-8", errors="replace") as handle:
                handle.seek(self._offset)
                chunk = handle.read()
                self._offset = handle.tell()
        except OSError:
            return []
        self._buffer += chunk
        statements: List[Statement] = []
        while "\n" in self._buffer:
            line, self._buffer = self._buffer.split("\n", 1)
            statement = self._parse_line(line)
            if statement is not None:
                statements.append(statement)
        return statements
