"""Tests for the command-line interface."""

import io
import json
from unittest import mock

import pytest

from repro.advisor.candidates import DEFAULT_MAX_CANDIDATES
from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_explain_defaults(self):
        args = build_parser().parse_args(["explain"])
        assert args.catalog == "star"
        assert args.command == "explain"

    def test_recommend_options(self):
        args = build_parser().parse_args(
            ["recommend", "--catalog", "tpch", "--budget-gb", "2", "--cost-model", "inum"]
        )
        assert args.budget_gb == 2.0
        assert args.cost_model == "inum"
        assert args.cache_dir is None

    def test_cache_workload_options(self):
        args = build_parser().parse_args(
            ["cache-workload", "--catalog", "star",
             "--cache-dir", ".inum-cache", "--builder", "inum"]
        )
        assert args.command == "cache-workload"
        assert args.cache_dir == ".inum-cache"
        assert args.builder == "inum"

    @pytest.mark.parametrize("argv", [
        ["recommend"], ["cache-workload"], ["serve"], ["watch", "--follow", "feed.ndjson"],
    ])
    def test_no_subcommand_accepts_jobs(self, argv, capsys):
        # Caches are built in one serial pass; there is no pool to size.
        build_parser().parse_args(argv)
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv + ["--jobs", "2"])
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err

    def test_recommend_and_cache_workload_share_max_candidates_default(self):
        # One shared constant on purpose: the cache store fingerprints caches
        # by candidate set, so differing defaults would give the two commands
        # disjoint persistent cache keys.
        recommend = build_parser().parse_args(["recommend"])
        workload = build_parser().parse_args(["cache-workload"])
        assert recommend.max_candidates == DEFAULT_MAX_CANDIDATES
        assert workload.max_candidates == DEFAULT_MAX_CANDIDATES

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "--catalog", "tpch"])
        assert args.command == "serve"
        assert args.catalog == "tpch"
        assert args.max_candidates == DEFAULT_MAX_CANDIDATES
        assert args.candidate_policy == "workload"


class TestExplain:
    def test_explain_sql_on_tpch(self, capsys):
        code = main([
            "explain", "--catalog", "tpch", "--sql",
            "SELECT nation.n_name FROM nation, region "
            "WHERE nation.n_regionkey = region.r_regionkey ORDER BY nation.n_name",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "estimated cost" in out
        assert "Scan" in out

    def test_explain_builtin_query_number(self, capsys):
        code = main(["explain", "--catalog", "star", "--query-number", "1"])
        assert code == 0
        assert "Q1" in capsys.readouterr().out

    def test_explain_disable_nestloop(self, capsys):
        code = main([
            "explain", "--catalog", "tpch", "--query-number", "2", "--disable-nestloop",
        ])
        assert code == 0
        assert "Nestloop" not in capsys.readouterr().out

    def test_invalid_sql_reports_error(self, capsys):
        code = main(["explain", "--catalog", "tpch", "--sql", "SELECT FROM nowhere"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_negative_candidate_cap_is_a_one_line_error(self, capsys):
        code = main(["recommend", "--catalog", "tpch", "--max-candidates", "-3"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error: invalid tuning limits: max_candidates must be an integer >= 1 "
            "or None, got -3"
        ]


class TestRecommend:
    def test_recommend_on_star_subset(self, capsys):
        code = main([
            "recommend", "--catalog", "star", "--query-number", "2",
            "--budget-gb", "1", "--max-candidates", "20",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "indexes selected" in out
        assert "Per-query estimated cost" in out

    def test_recommend_compress_folds_literal_variants(self, tmp_path, capsys):
        """--compress folds a trace file's literal variants into one template.

        The summary reports the fold and the per-query table shows the
        fingerprint-named representative, not the raw statements.
        """
        sql = "SELECT fact.fact_m1 FROM fact WHERE fact.fact_m1 > {}"
        trace = tmp_path / "trace.sql"
        trace.write_text(f"{sql.format('10.0')};\n{sql.format('20.0')}\n")
        code = main([
            "recommend", "--catalog", "star", "--compress",
            "--sql-file", str(trace),
            "--budget-gb", "1", "--max-candidates", "10",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "workload compression  : 2 statements -> 1 templates" in out
        assert "(2.0x, approximate)" in out
        assert "tpl_" in out

    def test_recommend_compress_is_a_no_op_on_unique_templates(self, capsys):
        code = main([
            "recommend", "--catalog", "star", "--query-number", "2",
            "--compress", "--budget-gb", "1", "--max-candidates", "20",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "workload compression  : 1 statements -> 1 templates" in out
        assert "(1.0x, exact)" in out


class TestCache:
    def test_cache_stats_pinum(self, capsys):
        code = main(["cache", "--catalog", "star", "--query-number", "2", "--builder", "pinum"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Plan-cache construction (pinum)" in out

    def test_cache_save_round_trip(self, tmp_path, capsys):
        prefix = tmp_path / "demo"
        code = main([
            "cache", "--catalog", "star", "--query-number", "1",
            "--builder", "pinum", "--save", str(prefix),
        ])
        assert code == 0
        saved = list(tmp_path.glob("demo.Q1.json"))
        assert len(saved) == 1
        payload = json.loads(saved[0].read_text())
        assert payload["query_name"] == "Q1"

    def test_cache_workload_cold_and_warm(self, tmp_path, capsys):
        cache_dir = tmp_path / "store"
        argv = ["cache-workload", "--catalog", "tpch", "--cache-dir", str(cache_dir)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "Workload cache construction (pinum)" in cold
        assert "2 built, 0 from store" in cold
        # The second run must answer entirely from the persistent store.
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "0 built, 2 from store" in warm
        assert "optimizer calls : 0" in warm

    def test_cache_workload_store_is_shared_with_recommend(self, tmp_path, capsys):
        """With one --cache-dir and the shared default --max-candidates, the
        caches built by cache-workload are reused verbatim by recommend."""
        cache_dir = str(tmp_path / "store")
        assert main(["cache-workload", "--catalog", "tpch", "--cache-dir", cache_dir]) == 0
        warmup = capsys.readouterr().out
        assert "2 built, 0 from store" in warmup
        assert main(["recommend", "--catalog", "tpch", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "cache preparation : 0 optimizer calls" in out
        assert "indexes selected" in out

    def test_sql_file_input(self, tmp_path, capsys):
        sql_file = tmp_path / "workload.sql"
        sql_file.write_text(
            "SELECT customer.c_custkey FROM customer, orders "
            "WHERE customer.c_custkey = orders.o_custkey ORDER BY customer.c_custkey;\n"
            "SELECT orders.o_totalprice FROM orders WHERE orders.o_totalprice < 1000"
        )
        code = main(["cache", "--catalog", "tpch", "--sql-file", str(sql_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "file_q1" in out and "file_q2" in out


class TestServe:
    def test_serve_answers_requests_over_stdin(self, capsys):
        stdin = io.StringIO(
            '{"id": 1, "op": "ping"}\n'
            '{"id": 2, "op": "workload"}\n'
            '{"id": 3, "op": "shutdown"}\n'
        )
        with mock.patch("sys.stdin", stdin):
            code = main(["serve", "--catalog", "tpch", "--max-candidates", "20"])
        assert code == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if line]
        assert len(lines) == 3
        responses = [json.loads(line) for line in lines]
        assert all(response["ok"] for response in responses)
        assert responses[1]["result"]["queries"]


class TestObservabilityCli:
    def test_metrics_prometheus_to_stdout(self, capsys):
        assert main(["metrics"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_serve_requests_total counter" in out
        assert "# TYPE repro_whatif_seconds histogram" in out

    def test_metrics_json_format(self, capsys):
        assert main(["metrics", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == "json"
        names = {family["name"] for family in payload["families"]}
        assert "repro_recommend_seconds" in names

    def test_recommend_trace_out_writes_ndjson(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.ndjson"
        code = main([
            "recommend", "--catalog", "tpch", "--max-candidates", "20",
            "--trace-out", str(trace_path),
        ])
        assert code == 0
        assert f"spans appended to {trace_path}" in capsys.readouterr().out
        rows = [json.loads(line) for line in trace_path.read_text().splitlines()]
        names = {row["name"] for row in rows}
        assert {"session.recommend", "recommend.build", "recommend.select",
                "recommend.evaluate"} <= names
        roots = [row for row in rows if row["parent_id"] is None]
        assert [root["name"] for root in roots] == ["session.recommend"]
        assert len({row["trace_id"] for row in rows}) == 1

    def test_access_log_requires_tcp(self, capsys):
        code = main(["serve", "--catalog", "tpch", "--access-log"])
        assert code == 2
        assert "--access-log requires the --tcp transport" in capsys.readouterr().err

    def test_trace_out_and_access_log_parse(self):
        args = build_parser().parse_args(
            ["watch", "--follow", "feed.ndjson", "--trace-out", "spans.ndjson"]
        )
        assert args.trace_out == "spans.ndjson"
        args = build_parser().parse_args(
            ["serve", "--tcp", "127.0.0.1:0", "--access-log"]
        )
        assert args.access_log is True
        assert build_parser().parse_args(["recommend"]).trace_out is None
