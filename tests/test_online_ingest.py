"""The online ingest fast path: a statement shape is parsed once.

A source folds a line whose lexical key (number literals replaced by a
marker) it has learned from a parsed line, without parsing it.  These
tests pin that the fold changes nothing but the work:

* **the key law** -- equal lexical keys imply equal template
  fingerprints, and a source's verdict on any line (accepted with this
  fingerprint, or malformed) is the parser's verdict on it, whatever the
  source has learned before;
* **adversarial twins** -- a malformed line whose well-formed twin has
  been learned is still counted malformed and never reaches the window;
* **byte identity** -- feeding raw lines gives the tuner the same
  decisions and the same window workload as feeding the same statements
  pre-parsed;
* **counted work** -- the parser runs once per distinct key plus once per
  template (re)entering the window, counted, not timed.
"""

from __future__ import annotations

import json
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import build_small_catalog
from repro.advisor import AdvisorOptions
from repro.api.session import TuningSession
from repro.online import (
    FileTailSource,
    MemoryStatementSource,
    OnlineTuner,
    OnlineTunerConfig,
    SlidingWindow,
)
from repro.online import stream
from repro.online.stream import KEY_MARKER, lexical_key
from repro.query.parser import parse_statement
from repro.query.templates import templatize
from repro.util.errors import QueryError
from repro.util.fingerprint import template_fingerprint
from repro.workloads import StarSchemaWorkload
from repro.workloads.trace import TracePhase, emit_trace
from test_property_parser import dml_statements, select_queries

_settings = settings(max_examples=120, suppress_health_check=[HealthCheck.too_slow],
                     deadline=None)

_statements = st.one_of(select_queries(), dml_statements())

#: Re-drawn literals: any finite float the renderers may print.
_values = st.one_of(
    st.integers(min_value=-(10**19), max_value=10**19).map(float),
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
)

#: Literal *texts* in the tokenizer's number syntax (``query/parser.py``):
#: overflowing exponents, 400-digit runs and non-ASCII digits included.
_literal_texts = st.one_of(
    st.from_regex(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?", fullmatch=True),
    st.sampled_from(["1e999", "0e999", "1.5e308", "1e99", "1e-300", "2.5E-05",
                     "9" * 400, "1" + "0" * 308, "9" * 200 + "e99"]),
)

#: Single-character edits biased toward the literal syntax.
_edit_chars = st.sampled_from(list("0123456789.-+eE# _x(),=<>"))


def _verdict(sql):
    """What the parser says: the template fingerprint, or ``None``."""
    try:
        return template_fingerprint(parse_statement(sql))
    except QueryError:
        return None


def _fed(source, sql):
    """The fingerprint ``source`` accepts ``sql`` under, or ``None``."""
    malformed = source.statistics.malformed_lines
    if not source.feed([sql]):
        assert source.statistics.malformed_lines == malformed + 1
        return None
    [arrival] = source.poll()
    # The on-demand parse agrees with the fingerprint the source gave.
    assert template_fingerprint(arrival.statement) == arrival.fingerprint
    return arrival.fingerprint


def _with_literals(sql, texts):
    """``sql`` with its key literals replaced by ``texts`` (cycled)."""
    pieces = lexical_key(sql).split(KEY_MARKER)
    out = [pieces[0]]
    for position, piece in enumerate(pieces[1:]):
        out.append(texts[position % len(texts)])
        out.append(piece)
    return "".join(out)


class TestKeyLaw:
    @_settings
    @given(_statements, st.data())
    def test_equal_keys_imply_equal_fingerprints(self, statement, data):
        template, params = templatize(statement)
        redrawn = template.instantiate(
            [data.draw(_values) for _ in params], name=statement.name
        )
        first, second = statement.to_sql(), redrawn.to_sql()
        if lexical_key(first) == lexical_key(second):
            assert template_fingerprint(parse_statement(first)) == (
                template_fingerprint(parse_statement(second))
            )

    @_settings
    @given(_statements, st.lists(_literal_texts, min_size=1, max_size=4))
    def test_relettered_literals_get_the_parsers_verdict(self, statement, texts):
        twin = statement.to_sql()
        source = MemoryStatementSource()
        assert _fed(source, twin) == _verdict(twin)
        variant = _with_literals(twin, texts)
        assert _fed(source, variant) == _verdict(variant)

    @_settings
    @given(
        _statements,
        st.lists(st.tuples(st.integers(min_value=0), st.sampled_from("rid"), _edit_chars),
                 min_size=1, max_size=3),
    )
    def test_edited_lines_get_the_parsers_verdict(self, statement, edits):
        twin = statement.to_sql()
        source = MemoryStatementSource()
        _fed(source, twin)
        text = twin
        for position, kind, char in edits:
            position %= max(1, len(text))
            if kind == "r":
                text = text[:position] + char + text[position + 1:]
            elif kind == "i":
                text = text[:position] + char + text[position:]
            else:
                text = text[:position] + text[position + 1:]
        assert _fed(source, text) == _verdict(text)


SELECT = "SELECT customers.c_age FROM customers WHERE customers.c_age > 30"
NEGATIVE = "SELECT customers.c_age FROM customers WHERE customers.c_age > -30"
INSERT = "INSERT INTO customers (c_age, c_region) VALUES (30, 1)"
UPDATE = "UPDATE customers SET c_age = 5 WHERE customers.c_region = 1"
EXPONENT = "INSERT INTO customers (c_age, c_region) VALUES (1e5, 1)"
#: A keyword directly followed by a non-ASCII digit: the number token
#: starts there, so the digits after its exponent sign are not a literal.
UNICODE = ("SELECT customers.c_age FROM customers "
           "WHERE customers.c_age BETWEEN 1 AND\u0663e+5")


class TestAdversarialTwins:
    """A rejected line stays rejected after its well-formed twin is learned."""

    @pytest.mark.parametrize("twin, line", [
        # a literal swapped for the key marker
        (SELECT, SELECT.replace("30", KEY_MARKER)),
        (INSERT, INSERT.replace("30", KEY_MARKER)),
        # a literal that is not finite in DML VALUES or SET
        (INSERT, INSERT.replace("30", "1e999")),
        (INSERT, INSERT.replace("30", "-1e999")),
        (INSERT, INSERT.replace("30", "9" * 400)),
        (EXPONENT, EXPONENT.replace("1e5", "1e999")),
        (UPDATE, UPDATE.replace("5", "1e999")),
        (UPDATE, UPDATE.replace("5", "-1E+400")),
        # ...whose finite twin has the same digits around the changed ones
        (INSERT.replace("30", "0e999"), INSERT.replace("30", "1e999")),
        (INSERT.replace("30", "1" * 300 + ".5"), INSERT.replace("30", "1" * 300 + ".5e99")),
        # digits spliced into an identifier
        (SELECT, SELECT.replace("customers.c_age >", "customers.9c_age >")),
        (SELECT, SELECT.replace("SELECT ", "SELECT9 ")),
        (SELECT, SELECT.replace("FROM customers", "FROM 9customers")),
        (INSERT, INSERT.replace("(c_age", "(30c_age")),
        # a moved minus sign
        (NEGATIVE, NEGATIVE.replace("-30", "30-")),
        (NEGATIVE, NEGATIVE.replace("-30", "- 30")),
        (NEGATIVE, NEGATIVE.replace("-30", "3-0")),
        (NEGATIVE, NEGATIVE.replace("-30", "--30")),
        (INSERT, INSERT.replace("VALUES (30", "VALUES -(30")),
        (EXPONENT, EXPONENT.replace("1e5", "1-e5")),
        # a literal-looking tail of an exponent
        (UNICODE, UNICODE + ".5"),
    ])
    def test_rejected_after_the_twin_is_learned(self, twin, line):
        source = MemoryStatementSource()
        window = SlidingWindow(100)
        assert source.feed([twin]) == 1
        window.extend(source.poll())
        before = window.template_counts()
        assert _verdict(line) is None  # the line really is malformed
        assert source.feed([line]) == 0
        assert source.statistics.malformed_lines == 1
        window.extend(source.poll())
        assert window.template_counts() == before

    def test_a_finite_relettering_is_still_folded(self):
        source = MemoryStatementSource()
        source.feed([INSERT, INSERT.replace("30", "2.5e3"), EXPONENT])
        arrivals = source.poll()
        assert source.statistics.malformed_lines == 0
        assert len({arrival.fingerprint for arrival in arrivals}) == 1


def _two_phase_lines():
    """The e2e benchmark's trace shape: reads vs 8 DML + 2 reads, 64 variants."""
    star = StarSchemaWorkload(7)
    reads = tuple(star.queries(10))
    updates = tuple(star.dml_statements()) + reads[:2]
    phases = [
        TracePhase("analytics", reads, skew=0.0),
        TracePhase("updates", updates, skew=0.0, parameter_variants=64,
                   parameter_skew=0.0),
    ]
    return star.catalog(), emit_trace(phases + phases, 2400, seed=7007), 150, 0.5, 0.2


def _churn_lines():
    """Heavy literal churn, negative literals among them (two keys a template)."""
    pool = [
        parse_statement(NEGATIVE, name="neg"),
        parse_statement("SELECT products.p_price FROM products "
                        "WHERE products.p_price BETWEEN 10 AND 50", name="range"),
    ]
    write = [parse_statement(INSERT, name="ins"), parse_statement(UPDATE, name="upd")]
    phases = [
        TracePhase("hot", tuple(pool), skew=1.5, parameter_variants=64,
                   parameter_skew=1.1),
        TracePhase("write", tuple(write + pool[:1]), skew=0.5, parameter_variants=64),
    ]
    return build_small_catalog(), emit_trace(phases + phases, 480, seed=11), 40, 0.3, 0.1


def _run(catalog, feed, window, high, low, batch=50):
    session = TuningSession(
        catalog, [], options=AdvisorOptions(candidate_policy="per_query", max_candidates=30)
    )
    tuner = OnlineTuner(session, MemoryStatementSource(), OnlineTunerConfig(
        window_statements=window, drift_high_water=high, drift_low_water=low))
    decisions, workloads = [], []
    for start in range(0, len(feed), batch):
        tuner.source.feed(feed[start:start + batch])
        decisions += [
            (d.kind, d.verdict, d.added_indexes, d.dropped_indexes,
             d.workload_cost_before, d.workload_cost_after, d.caches_built)
            for d in tuner.poll()
        ]
        statements, weights = tuner.window.workload()
        workloads.append(([(s.name, s.to_sql()) for s in statements], weights))
    return tuner, decisions, workloads


class TestByteIdentity:
    @pytest.mark.parametrize("trace", [_two_phase_lines, _churn_lines])
    def test_raw_lines_and_parsed_statements_tune_alike(self, trace):
        catalog, lines, window, high, low = trace()
        parsed = []
        for line in lines:
            payload = json.loads(line)
            parsed.append(parse_statement(payload["sql"], name=payload["template"]))
        raw_tuner, raw_decisions, raw_workloads = _run(catalog, lines, window, high, low)
        _, parsed_decisions, parsed_workloads = _run(catalog, parsed, window, high, low)
        assert [d[0] for d in raw_decisions].count("drift") >= 2  # phases did change
        assert raw_decisions == parsed_decisions
        assert raw_workloads == parsed_workloads
        assert raw_tuner.source.statistics.statements_parsed == len(lines)
        assert raw_tuner.source.statistics.malformed_lines == 0


class TestCountedWork:
    def test_parses_once_per_key_plus_once_per_reentry(self, monkeypatch):
        _, lines, window_size, _, _ = _two_phase_lines()
        lines = (lines + lines)[:3000]
        calls = []
        real = stream.parse_statement

        def counting(sql, name="statement"):
            calls.append(sql)
            return real(sql, name=name)

        monkeypatch.setattr(stream, "parse_statement", counting)
        source = MemoryStatementSource()
        window = SlidingWindow(window_size)
        reentries = 0
        for start in range(0, len(lines), 50):
            source.feed(lines[start:start + 50])
            for arrival in source.poll():
                reentries += arrival.fingerprint not in window.template_counts()
                window.append(arrival)
        keys = {lexical_key(json.loads(line)["sql"]) for line in lines}
        assert source.statistics.statements_parsed == 3000
        assert len(calls) <= len(keys) + reentries
        assert len(calls) < 3000 // 10  # the point: a shape is parsed once


class TestFileTailSplitting:
    def test_partial_trailing_line_of_a_chunk_stays_buffered(self, tmp_path):
        path = tmp_path / "feed.ndjson"
        path.write_text(f"{SELECT}\n{INSERT}\n{SELECT[:25]}")
        source = FileTailSource(str(path))
        assert len(source.poll()) == 2
        with path.open("a") as handle:
            handle.write(SELECT[25:] + "\n")
        [arrival] = source.poll()
        assert arrival.statement.to_sql() == parse_statement(SELECT).to_sql()

    def test_rotation_resets_the_offset_and_drops_the_partial_line(self, tmp_path):
        path = tmp_path / "feed.ndjson"
        path.write_text(f"{SELECT}\n{SELECT}\n{INSERT[:10]}")
        source = FileTailSource(str(path))
        assert len(source.poll()) == 2
        path.write_text(INSERT + "\n")  # rotated: the file shrank
        [arrival] = source.poll()
        assert arrival.statement.to_sql() == parse_statement(INSERT).to_sql()

    def test_a_large_chunk_splits_in_linear_time(self, tmp_path, monkeypatch):
        path = tmp_path / "feed.ndjson"
        line = json.dumps({"template": "ins", "sql": INSERT})  # a realistic width
        path.write_text((line + "\n") * 100_000)
        lines = []
        monkeypatch.setattr(FileTailSource, "_arrival", lambda self, line: lines.append(line))
        source = FileTailSource(str(path))
        started = time.perf_counter()
        source.poll()
        assert time.perf_counter() - started < 2.0
        assert len(lines) == 100_000
