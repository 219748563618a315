"""Tests for the newline-delimited-JSON serve frontend."""

import io
import json

import pytest

from repro.advisor import AdvisorOptions
from repro.api.serve import ServeFrontend
from repro.util.errors import AdvisorError
from repro.util.units import megabytes


@pytest.fixture
def frontend():
    """A frontend over the (fast) TPC-H-like catalog with a small budget."""
    return ServeFrontend(
        default_catalog="tpch",
        options=AdvisorOptions(space_budget_bytes=megabytes(512), max_candidates=20),
    )


class TestDispatch:
    def test_ping(self, frontend):
        response = frontend.handle({"id": 1, "op": "ping"})
        assert response == {"id": 1, "ok": True, "op": "ping",
                            "result": {"pong": True, "sessions": 0}}

    def test_sessions_are_created_lazily_and_kept(self, frontend):
        assert frontend.session_count == 0
        frontend.handle({"op": "workload"})
        assert frontend.session_count == 1
        frontend.handle({"op": "workload"})
        assert frontend.session_count == 1

    def test_workload_starts_with_builtin_queries(self, frontend):
        response = frontend.handle({"id": 2, "op": "workload"})
        assert response["ok"] is True
        names = [query["name"] for query in response["result"]["queries"]]
        assert names == ["tpch_q5_like", "tpch_small_join"]

    def test_recommend_and_warm_rerun(self, frontend):
        first = frontend.handle({"id": 3, "op": "recommend"})
        assert first["ok"] is True
        assert first["result"]["selected_indexes"]
        assert first["result"]["session"]["caches_built"] == 2
        second = frontend.handle({"id": 4, "op": "recommend"})
        assert second["result"]["session"]["caches_built"] == 0
        assert second["result"]["session"]["caches_reused"] == 2
        assert second["result"]["selected_indexes"] == first["result"]["selected_indexes"]

    def test_add_remove_queries_and_stats(self, frontend):
        added = frontend.handle({"op": "add_queries", "params": {"queries": [
            {"sql": "SELECT orders.o_totalprice FROM orders "
                    "WHERE orders.o_totalprice < 500 ORDER BY orders.o_totalprice",
             "name": "cheap_orders"},
        ]}})
        assert added["ok"] is True
        assert added["result"] == {"added": ["cheap_orders"], "workload_size": 3}
        removed = frontend.handle({"op": "remove_queries", "params": {"names": ["cheap_orders"]}})
        assert removed["result"]["workload_size"] == 2
        stats = frontend.handle({"op": "stats"})
        assert stats["ok"] is True
        assert stats["result"]["recommend_calls"] == 0

    def test_evaluate_and_what_if(self, frontend):
        frontend.handle({"op": "recommend"})
        index = {"table": "orders", "columns": ["o_orderdate", "o_custkey"]}
        evaluated = frontend.handle({"op": "evaluate", "params": {"indexes": [index]}})
        assert evaluated["ok"] is True
        assert evaluated["result"]["total_cost"] > 0
        what_if = frontend.handle({"op": "what_if", "params": {"indexes": [index]}})
        assert what_if["ok"] is True
        assert what_if["result"]["total_cost"] > 0

    def test_explain(self, frontend):
        response = frontend.handle({"op": "explain", "params": {"query": "tpch_small_join"}})
        assert response["ok"] is True
        assert "Scan" in response["result"]["plan"]

    def test_set_budget(self, frontend):
        response = frontend.handle(
            {"op": "set_budget", "params": {"space_budget_bytes": megabytes(64)}}
        )
        assert response["ok"] is True
        workload = frontend.handle({"op": "workload"})
        assert workload["result"]["space_budget_bytes"] == megabytes(64)


    def test_set_budget_rejects_a_boolean(self, frontend):
        before = frontend.handle({"op": "workload"})["result"]["space_budget_bytes"]
        response = frontend.handle(
            {"op": "set_budget", "params": {"space_budget_bytes": True}}
        )
        assert response["ok"] is False
        assert "space_budget_bytes must be > 0, got True" in response["error"]["message"]
        after = frontend.handle({"op": "workload"})["result"]["space_budget_bytes"]
        assert after == before

    def test_remove_queries_rejects_a_repeated_name(self, frontend):
        response = frontend.handle(
            {"op": "remove_queries",
             "params": {"names": ["tpch_small_join", "tpch_small_join"]}}
        )
        assert response["ok"] is False
        assert "named twice" in response["error"]["message"]
        names = [q["name"] for q in frontend.handle({"op": "workload"})["result"]["queries"]]
        assert names == ["tpch_q5_like", "tpch_small_join"]


class TestErrors:
    def test_unknown_operation(self, frontend):
        response = frontend.handle({"id": 9, "op": "bogus"})
        assert response["ok"] is False
        assert response["id"] == 9
        assert "unknown operation" in response["error"]["message"]

    def test_missing_op(self, frontend):
        response = frontend.handle({"id": 1})
        assert response["ok"] is False

    def test_malformed_json_line(self, frontend):
        response = json.loads(frontend.handle_line("this is not json"))
        assert response["ok"] is False
        assert response["id"] is None
        assert "not valid JSON" in response["error"]["message"]

    def test_non_object_request(self, frontend):
        response = json.loads(frontend.handle_line("[1, 2, 3]"))
        assert response["ok"] is False

    def test_domain_error_becomes_response_not_crash(self, frontend):
        response = frontend.handle({"op": "explain", "params": {"query": "missing"}})
        assert response["ok"] is False
        assert response["error"]["type"] == "AdvisorError"

    @pytest.mark.parametrize("op", ["evaluate", "what_if"])
    @pytest.mark.parametrize("index, message", [
        ({"table": "nosuch", "columns": ["x"]}, "unknown table 'nosuch'"),
        ({"table": "orders", "columns": ["nosuch"]}, "has no column 'nosuch'"),
    ])
    def test_unknown_index_fails_closed(self, frontend, op, index, message):
        """Neither op prices a configuration it cannot resolve against the catalog."""
        valid = {"table": "orders", "columns": ["o_totalprice"]}
        response = frontend.handle(
            {"id": 7, "op": op, "params": {"indexes": [valid, index]}}
        )
        assert set(response) == {"id", "ok", "op", "error"}
        assert (response["id"], response["ok"], response["op"]) == (7, False, op)
        assert response["error"]["type"] == "CatalogError"
        assert message in response["error"]["message"]
        # The session is not poisoned: the valid index alone still prices.
        again = frontend.handle({"id": 8, "op": op, "params": {"indexes": [valid]}})
        assert again["ok"] is True

    def test_unknown_catalog_rejected(self):
        with pytest.raises(AdvisorError, match="unknown catalog"):
            ServeFrontend(default_catalog="oracle")
        frontend = ServeFrontend(default_catalog="tpch")
        response = frontend.handle({"op": "workload", "catalog": "oracle"})
        assert response["ok"] is False

    def test_bad_recommend_parameter_listed(self, frontend):
        response = frontend.handle({"op": "recommend", "params": {"budget": 5}})
        assert response["ok"] is False
        assert "unknown recommend parameters: budget" in response["error"]["message"]

    def test_ill_typed_params_become_error_responses(self, frontend):
        """Type errors from deep inside the library must not kill the loop."""
        response = frontend.handle(
            {"id": 1, "op": "recommend", "params": {"max_candidates": "abc"}}
        )
        assert response["ok"] is False
        assert response["id"] == 1
        # The frontend still answers afterwards.
        assert frontend.handle({"id": 2, "op": "ping"})["ok"] is True

    def test_add_queries_compress_folds_duplicates(self, frontend):
        """``"compress": true`` folds the batch by template before adding.

        Three literal variants of one shape enter the session as a single
        fingerprint-named representative whose weight sums the entries'
        (one carries an explicit weight of 2.0), and the response surfaces
        the compression stats clients just paid for.
        """
        variants = [
            {"sql": "SELECT orders.o_totalprice FROM orders "
                    f"WHERE orders.o_totalprice < {bound}",
             "name": f"v{bound}"}
            for bound in (100, 200, 300)
        ]
        variants[0]["weight"] = 2.0
        response = frontend.handle(
            {"op": "add_queries", "params": {"queries": variants, "compress": True}}
        )
        assert response["ok"] is True
        result = response["result"]
        assert len(result["added"]) == 1
        assert result["added"][0].startswith("tpl_")
        assert result["workload_size"] == 3  # 2 builtin + 1 representative
        assert result["compression"] == {
            "statements": 3, "templates": 1, "ratio": 3.0,
            "total_weight": 4.0, "lossless": False,
        }

    def test_recommend_compress_reports_compression(self, frontend):
        """A compressed recommend returns its fold stats in the response."""
        response = frontend.handle(
            {"id": 9, "op": "recommend", "params": {"compress": True}}
        )
        assert response["ok"] is True
        assert response["result"]["compression"] == {
            "statements": 2, "templates": 2, "ratio": 1.0,
            "total_weight": 2.0, "lossless": True,
        }
        # An uncompressed recommend keeps reporting null, not stale stats.
        plain = frontend.handle({"id": 10, "op": "recommend"})
        assert plain["result"]["compression"] is None

    def test_ill_typed_compress_is_an_error_response(self, frontend):
        for op, params in (
            ("add_queries", {"queries": [{"sql": "SELECT orders.o_totalprice "
                                                 "FROM orders"}],
                             "compress": "yes"}),
            ("recommend", {"compress": 1}),
        ):
            response = frontend.handle({"id": 1, "op": op, "params": params})
            assert response["ok"] is False
            assert "'compress' must be a boolean" in response["error"]["message"]
        assert frontend.handle({"id": 2, "op": "ping"})["ok"] is True

    def test_auto_names_skip_gaps_left_by_removals(self, frontend):
        sql = "SELECT orders.o_totalprice FROM orders ORDER BY orders.o_totalprice"
        first = frontend.handle({"op": "add_queries", "params": {"queries": [
            {"sql": sql}, {"sql": sql},
        ]}})
        assert first["result"]["added"] == ["q3", "q4"]
        frontend.handle({"op": "remove_queries", "params": {"names": ["q3"]}})
        second = frontend.handle({"op": "add_queries", "params": {"queries": [{"sql": sql}]}})
        assert second["ok"] is True
        assert second["result"]["added"] == ["q5"]


class TestServeLoop:
    def test_three_requests_three_responses(self, frontend):
        stdin = io.StringIO(
            '{"id": 1, "op": "ping"}\n'
            "\n"
            '{"id": 2, "op": "workload"}\n'
            '{"id": 3, "op": "explain", "params": {"query": "tpch_small_join"}}\n'
        )
        stdout = io.StringIO()
        assert frontend.serve(stdin, stdout) == 0
        lines = [line for line in stdout.getvalue().splitlines() if line]
        assert len(lines) == 3
        responses = [json.loads(line) for line in lines]
        assert [response["id"] for response in responses] == [1, 2, 3]
        assert all(response["ok"] for response in responses)

    def test_shutdown_stops_the_loop(self, frontend):
        stdin = io.StringIO(
            '{"id": 1, "op": "shutdown"}\n'
            '{"id": 2, "op": "ping"}\n'
        )
        stdout = io.StringIO()
        frontend.serve(stdin, stdout)
        lines = [line for line in stdout.getvalue().splitlines() if line]
        assert len(lines) == 1
        assert json.loads(lines[0])["result"]["shutting_down"] is True
