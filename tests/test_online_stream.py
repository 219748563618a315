"""Tests for the online statement sources (repro.online.stream)."""

from __future__ import annotations

import json

from repro.online import FileTailSource, MemoryStatementSource
from repro.query.ast import DmlStatement, Query
from repro.query.parser import parse_statement
from repro.util.fingerprint import template_fingerprint

SELECT = "SELECT customers.c_age FROM customers WHERE customers.c_age > 30"
INSERT = "INSERT INTO customers (c_age, c_region) VALUES (30, 1)"
SELECT_SQL = parse_statement(SELECT).to_sql()  # the parse -> to_sql normal form


class TestMemorySource:
    def test_feeds_bare_sql_and_json_lines(self):
        source = MemoryStatementSource()
        queued = source.feed([
            SELECT,
            json.dumps({"template": "ins", "sql": INSERT, "phase": "write"}),
        ])
        assert queued == 2
        statements = [arrival.statement for arrival in source.poll()]
        assert isinstance(statements[0], Query)
        assert isinstance(statements[1], DmlStatement)
        assert statements[1].name == "ins"
        assert source.poll() == []  # drained

    def test_feed_accepts_a_newline_joined_string(self):
        source = MemoryStatementSource()
        assert source.feed(f"{SELECT}\n\n{INSERT}\n") == 2
        assert len(source.poll()) == 2

    def test_malformed_lines_are_counted_not_raised(self):
        source = MemoryStatementSource()
        queued = source.feed([
            "THIS IS NOT SQL AT ALL !!!",
            '{"sql": 42}',          # sql is not a string
            '{"no_sql_key": true}',
            "{broken json",
            SELECT,
        ])
        assert queued == 1
        assert source.statistics.malformed_lines == 4
        assert source.statistics.statements_parsed == 1
        assert source.statistics.lines_seen == 5

    def test_feed_accepts_parsed_statements(self):
        source = MemoryStatementSource()
        probe = MemoryStatementSource()
        probe.feed([SELECT])
        statement = probe.poll()[0].statement
        assert source.feed([statement]) == 1
        [arrival] = source.poll()
        assert arrival.statement is statement
        assert arrival.fingerprint == template_fingerprint(statement)


class TestFileTailSource:
    def test_missing_file_yields_nothing(self, tmp_path):
        source = FileTailSource(str(tmp_path / "absent.ndjson"))
        assert source.poll() == []

    def test_tails_appended_lines_only_once(self, tmp_path):
        path = tmp_path / "feed.ndjson"
        path.write_text(SELECT + "\n")
        source = FileTailSource(str(path))
        assert [a.statement.to_sql() for a in source.poll()] == [SELECT_SQL]
        assert source.poll() == []
        with path.open("a") as handle:
            handle.write(INSERT + "\n")
        appended = source.poll()
        assert len(appended) == 1
        assert isinstance(appended[0].statement, DmlStatement)

    def test_start_at_end_skips_existing_content(self, tmp_path):
        path = tmp_path / "feed.ndjson"
        path.write_text(SELECT + "\n" + SELECT + "\n")
        source = FileTailSource(str(path), start_at_end=True)
        assert source.poll() == []
        with path.open("a") as handle:
            handle.write(INSERT + "\n")
        assert len(source.poll()) == 1

    def test_partial_line_buffers_until_newline(self, tmp_path):
        path = tmp_path / "feed.ndjson"
        source = FileTailSource(str(path))
        path.write_text(SELECT[:20])  # a writer mid-append
        assert source.poll() == []
        with path.open("a") as handle:
            handle.write(SELECT[20:] + "\n")
        assert [a.statement.to_sql() for a in source.poll()] == [SELECT_SQL]

    def test_truncation_resets_the_offset(self, tmp_path):
        path = tmp_path / "feed.ndjson"
        path.write_text(SELECT + "\n" + SELECT + "\n")
        source = FileTailSource(str(path))
        assert len(source.poll()) == 2
        path.write_text(INSERT + "\n")  # rotation: file shrank
        arrivals = source.poll()
        assert len(arrivals) == 1
        assert isinstance(arrivals[0].statement, DmlStatement)
