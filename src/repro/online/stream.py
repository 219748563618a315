"""Statement sources: where the online daemon's statements come from.

The wire format is one statement per line -- either a JSON object with an
``"sql"`` field (the shape :func:`repro.workloads.trace.emit_trace`
produces, extra fields like ``"phase"``/``"template"`` are ignored) or bare
SQL text.  Lines that parse as neither are *malformed*: they are counted
and skipped, never raised -- a live feed with one bad line must not kill a
daemon that has been warm for a week.

A feed is a few statement shapes executed many times, so a source parses
a line only when it has not seen the line's *lexical key* before: the SQL
text with each number literal replaced by :data:`KEY_MARKER` (one
``re.sub``).  Each source keeps a table of keys learned from lines that
parsed, mapping key to template fingerprint; a line whose key is known is
accepted without parsing.  The table is sound by construction:

* a replaced literal is a whole number token of the tokenizer (its sign
  aside) -- never digits inside a name, after a qualified name's dot, in
  a fraction or in an exponent -- so two texts with equal keys tokenize
  alike but for their number values,
* the only check that depends on a literal's value is DML ``VALUES``/
  ``SET`` finiteness, and a replaced literal is finite by its shape (at
  most 200 integer digits, at most a two-digit exponent); any other
  literal stays in the key as written,
* a line holding the marker itself takes the full parse,

so a line the parser would reject is never accepted through the table.
The table holds at most :data:`MAX_LEXICAL_KEYS` keys and is cleared when
full.

Two sources share the tiny polling contract: ``poll()`` returns the
:class:`Arrival` of each statement accepted since the last call -- its
template fingerprint, plus the parsed statement or the text to parse it
from when the sliding window needs a representative:

* :class:`MemoryStatementSource` -- an in-process queue for tests and the
  serve ops (``watch_stats`` can push statements straight into it),
* :class:`FileTailSource` -- ``tail -f`` for NDJSON logs: remembers its
  byte offset, reads only appended data, survives the file not existing
  yet and detects truncation (log rotation) by re-reading from the start.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.obs.instruments import ONLINE_MALFORMED, ONLINE_STATEMENTS
from repro.query.ast import Statement
from repro.query.parser import parse_statement
from repro.util.errors import QueryError
from repro.util.fingerprint import template_fingerprint

#: What a lexical key puts where a number literal stood.  The tokenizer
#: rejects the character, so no statement that parses contains it.
KEY_MARKER = "#"

#: Lexical keys one source remembers before it starts over.
MAX_LEXICAL_KEYS = 4096

#: A number literal the key replaces (see the module docstring).  It
#: starts with ``\d`` so the regex engine can skip straight to digits.
_LITERAL = re.compile(
    r"""
    \d (?<![\w.]\d) (?<![eE][+-]\d)       # first digit, not inside a token
    \d{0,199} (?:\.\d+)? (?:[eE][+-]?\d{1,2})?
    (?![\d.eE])                            # ...and the token ends here
    """,
    re.VERBOSE,
)


def lexical_key(sql: str) -> str:
    """``sql`` with each number literal replaced by :data:`KEY_MARKER`."""
    return _LITERAL.sub(KEY_MARKER, sql)


class Arrival:
    """One accepted statement execution, as the sliding window folds it.

    ``fingerprint`` is the statement's template fingerprint.  The
    statement itself is parsed from ``sql`` only when :attr:`statement`
    is first read -- which the window does only for a template it does
    not currently hold.
    """

    __slots__ = ("fingerprint", "sql", "name", "_statement")

    def __init__(
        self,
        fingerprint: str,
        sql: Optional[str],
        name: str,
        statement: Optional[Statement] = None,
    ) -> None:
        self.fingerprint = fingerprint
        self.sql = sql
        self.name = name
        self._statement = statement

    @classmethod
    def of(cls, statement: Statement) -> "Arrival":
        """The arrival of an already-parsed statement."""
        return cls(template_fingerprint(statement), None, statement.name, statement)

    @property
    def statement(self) -> Statement:
        """The statement, parsed from ``sql`` on first read."""
        if self._statement is None:
            self._statement = parse_statement(self.sql, name=self.name)
        return self._statement


@dataclass
class StreamStatistics:
    """Line accounting of one source (cumulative).

    ``statements_parsed`` counts accepted statements (parsed, or known by
    their lexical key) and ``malformed_lines`` rejected ones; both are
    bumped together with the process-wide ``repro_online_statements_total``
    and ``repro_online_malformed_total`` families, by the source alone.
    """

    lines_seen: int = 0
    statements_parsed: int = 0
    malformed_lines: int = 0


class StatementSource:
    """Base class: line intake, lexical keys and malformed-line accounting."""

    def __init__(self) -> None:
        self.statistics = StreamStatistics()
        #: Lexical key -> template fingerprint, learned from parsed lines.
        self._keys: Dict[str, str] = {}

    def poll(self) -> List[Arrival]:
        """The arrivals since the last poll (never raises)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any held resources (idempotent)."""

    # -- shared intake -----------------------------------------------------

    def _arrival(self, line: str) -> Optional[Arrival]:
        """One feed line to an arrival, or ``None`` (counted) if malformed."""
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
        key = lexical_key(sql)
        fingerprint = self._keys.get(key)
        if fingerprint is not None and KEY_MARKER not in sql:
            self._accepted()
            return Arrival(fingerprint, sql, name)
        try:
            statement = parse_statement(sql, name=name)
        except QueryError:
            self._malformed()
            return None
        self._accepted()
        arrival = Arrival.of(statement)
        if len(self._keys) >= MAX_LEXICAL_KEYS:
            self._keys.clear()
        self._keys[key] = arrival.fingerprint
        return arrival

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
        self._pending: List[Arrival] = []

    def feed(self, items: Union[str, List]) -> int:
        """Queue feed lines (a string with newlines, or a list of lines /
        already-parsed statements); returns how many statements were queued.
        """
        if isinstance(items, str):
            items = items.splitlines()
        queued = 0
        for item in items:
            if isinstance(item, str):
                arrival = self._arrival(item)
                if arrival is None:
                    continue
            else:
                arrival = Arrival.of(item)
                self.statistics.lines_seen += 1
                self._accepted()
            self._pending.append(arrival)
            queued += 1
        return queued

    def poll(self) -> List[Arrival]:
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

    def poll(self) -> List[Arrival]:
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
        # One cut at the last newline: the complete lines before it are
        # split once, the partial line after it stays buffered.
        complete, newline, self._buffer = (self._buffer + chunk).rpartition("\n")
        if not newline:
            return []
        arrivals: List[Arrival] = []
        for line in complete.split("\n"):
            arrival = self._arrival(line)
            if arrival is not None:
                arrivals.append(arrival)
        return arrivals
