"""End-to-end observability: traced recommends, serve metrics, access log."""

from __future__ import annotations

import asyncio
import json
import logging

import pytest

from repro.advisor import AdvisorOptions
from repro.api.requests import RecommendRequest
from repro.api.serve import ServeFrontend
from repro.api.session import TuningSession
from repro.api.server import TuningClient, TuningServer
from repro.obs.instruments import SERVE_REQUESTS
from repro.util.errors import AdvisorError
from repro.util.units import megabytes

from conftest import build_join_query, build_simple_query


def _options(**overrides) -> AdvisorOptions:
    return AdvisorOptions(
        space_budget_bytes=megabytes(512), max_candidates=20, **overrides
    )


def _span_names(span: dict) -> list:
    names = [span["name"]]
    for child in span.get("children", []):
        names.extend(_span_names(child))
    return names


class TestTracedRecommend:
    def test_trace_decomposes_into_build_evaluate_select(self, small_catalog):
        session = TuningSession(
            small_catalog, [build_join_query(), build_simple_query()],
            options=_options(),
        )
        response = session.recommend(RecommendRequest(trace=True))
        trace = response.trace
        assert trace is not None
        assert trace["name"] == "session.recommend"
        assert trace["parent_id"] is None
        children = [child["name"] for child in trace["children"]]
        assert children == [
            "recommend.build",
            "recommend.evaluate",
            "recommend.select",
            "recommend.evaluate",
        ]
        phases = [
            child["attributes"].get("phase")
            for child in trace["children"]
            if child["name"] == "recommend.evaluate"
        ]
        assert phases == ["baseline", "selected"]
        # The children account for (almost) all of the root's wall time.
        accounted = sum(child["duration_ms"] for child in trace["children"])
        assert accounted <= trace["duration_ms"]
        assert accounted >= 0.5 * trace["duration_ms"]
        # One consistent trace id across the whole tree.
        assert len(_span_names(trace)) >= 5

    def test_untraced_recommend_has_no_trace(self, small_catalog):
        session = TuningSession(
            small_catalog, [build_simple_query()], options=_options()
        )
        response = session.recommend()
        assert response.trace is None
        assert "trace" not in response.to_dict()

    def test_trace_survives_the_wire_format(self, small_catalog):
        session = TuningSession(
            small_catalog, [build_simple_query()], options=_options()
        )
        response = session.recommend(RecommendRequest(trace=True))
        payload = json.loads(json.dumps(response.to_dict()))
        assert payload["trace"]["name"] == "session.recommend"

    def test_trace_request_field_validated(self):
        with pytest.raises(AdvisorError):
            RecommendRequest.from_dict({"trace": "yes"})
        assert RecommendRequest.from_dict({"trace": True}).trace is True
        assert RecommendRequest.from_dict({}).trace is False


class TestServeMetricsOp:
    @pytest.fixture
    def frontend(self):
        return ServeFrontend(default_catalog="tpch", options=_options())

    def test_prometheus_format_default(self, frontend):
        response = frontend.handle({"id": 1, "op": "metrics"})
        assert response["ok"] is True
        exposition = response["result"]["exposition"]
        assert response["result"]["format"] == "prometheus"
        # The stack's instrument families are all declared.
        for family in (
            "repro_whatif_calls_total",
            "repro_build_seconds",
            "repro_serve_requests_total",
            "repro_online_poll_seconds",
        ):
            assert f"# TYPE {family}" in exposition

    def test_json_format(self, frontend):
        response = frontend.handle(
            {"id": 1, "op": "metrics", "params": {"format": "json"}}
        )
        assert response["ok"] is True
        names = {f["name"] for f in response["result"]["families"]}
        assert "repro_recommend_seconds" in names

    def test_unknown_format_rejected(self, frontend):
        response = frontend.handle(
            {"id": 1, "op": "metrics", "params": {"format": "xml"}}
        )
        assert response["ok"] is False
        assert "unknown metrics format" in response["error"]["message"]

    def test_recommend_moves_the_counters(self, frontend):
        def value(exposition: str, needle: str) -> float:
            # Summed over label children (one per selector).
            return sum(
                float(line.rsplit(" ", 1)[1])
                for line in exposition.splitlines() if line.startswith(needle)
            )

        before = frontend.handle({"op": "metrics"})["result"]["exposition"]
        assert frontend.handle({"op": "recommend"})["ok"] is True
        after = frontend.handle({"op": "metrics"})["result"]["exposition"]
        needle = "repro_recommend_seconds_count"
        assert value(after, needle) == value(before, needle) + 1


class TestServerObservability:
    def _run(self, work, **server_kwargs):
        async def boot():
            server = TuningServer(default_catalog="tpch", **server_kwargs)
            await server.start()
            try:
                return await work(server)
            finally:
                await server.stop()

        return asyncio.run(boot())

    def test_request_metrics_recorded_per_op(self):
        async def work(server):
            async with TuningClient("127.0.0.1", server.port) as client:
                await client.call("ping")
                return await client.call("metrics")

        pings_before = SERVE_REQUESTS.labels(op="ping", status="ok").value
        response = self._run(work)
        assert response["ok"] is True
        assert SERVE_REQUESTS.labels(op="ping", status="ok").value == (
            pings_before + 1
        )
        # The scraped exposition includes the ping that just happened.
        assert "repro_serve_requests_total" in response["result"]["exposition"]

    def test_unknown_ops_fold_into_one_label(self):
        """Client-supplied op strings must not mint unbounded label values."""
        async def work(server):
            async with TuningClient("127.0.0.1", server.port) as client:
                for index in range(3):
                    await client.call(f"no_such_op_{index}")
                return True

        unknown_before = SERVE_REQUESTS.labels(op="unknown", status="error").value
        assert self._run(work) is True
        assert SERVE_REQUESTS.labels(op="unknown", status="error").value == (
            unknown_before + 3
        )

    def test_access_log_emits_structured_lines(self, caplog):
        async def work(server):
            async with TuningClient("127.0.0.1", server.port) as client:
                await client.call("ping")
                return True

        with caplog.at_level(logging.INFO, logger="repro.access"):
            assert self._run(work, access_log=True) is True
        lines = [
            json.loads(record.getMessage())
            for record in caplog.records
            if record.name == "repro.access"
        ]
        ping = next(line for line in lines if line["op"] == "ping")
        assert ping["status"] == "ok"
        assert ping["duration_ms"] >= 0.0
        assert ping["session_id"].startswith("conn-")
        # --access-log turns on per-request root spans, so the logged
        # trace id is a real one, not a placeholder.
        assert len(ping["trace_id"]) == 32

    def test_without_access_log_no_lines_and_no_spans(self, caplog):
        async def work(server):
            async with TuningClient("127.0.0.1", server.port) as client:
                await client.call("ping")
                return True

        with caplog.at_level(logging.INFO, logger="repro.access"):
            assert self._run(work) is True
        assert not [r for r in caplog.records if r.name == "repro.access"]


class TestWatchStatsSurface:
    def test_watch_stats_reports_malformed_and_poll_timings(self):
        frontend = ServeFrontend(default_catalog="tpch", options=_options())
        start = frontend.handle({"op": "watch_start", "params": {
            "window_statements": 50,
        }})
        assert start["ok"] is True, start.get("error")
        stats = frontend.handle({"op": "watch_stats", "params": {
            "statements": ["SELECT region.r_name FROM region", "%%% not sql"],
        }})
        assert stats["ok"] is True, stats.get("error")
        statistics = stats["result"]["statistics"]
        assert statistics["statements_ingested"] == 1
        assert statistics["malformed_lines"] == 1
        assert statistics["poll_count"] == 1
        assert statistics["poll_seconds_total"] > 0.0
        assert statistics["last_poll_seconds"] is not None

        # server_stats' per-session overview carries the same numbers.
        overview = frontend.session_overview()
        watching = next(entry for entry in overview if entry["watching"])
        assert watching["watch"]["malformed_lines"] == 1
        assert watching["watch"]["poll_count"] == 1
        assert watching["watch"]["last_poll_seconds"] is not None
        frontend.handle({"op": "watch_stop"})
