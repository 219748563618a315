"""Each recommend, poll, re-tune, stream line and store load is counted once.

The count lives at the statement where the event happens, and every other
surface reads it:

* a recommend and an online poll are counted by their latency histogram's
  ``_count`` (``repro_recommend_seconds``, ``repro_online_poll_seconds``);
  ``SessionStatistics.recommend_calls`` and ``OnlineTuner.poll_count`` are
  the per-object views of the same events;
* a re-tune is recorded by its :class:`~repro.online.OnlineTuner` alone
  (``retunes_*``, ``last_retune_at``, ``repro_online_retunes_total``), and
  the serve ``stats`` op reads the attached watcher;
* a stream line is counted by the statement source that parses it, in its
  ``StreamStatistics`` and the ``repro_online_statements_total`` /
  ``repro_online_malformed_total`` families together;
* a store load or save is a session's ``caches_from_store`` /
  ``caches_built``; a :class:`~repro.inum.serialization.CacheStore` counts
  only what nobody else knows, its ``stale_rejections``.

The serve ``stats`` op and each ``server_stats`` overview entry are one
projection of a session, so they agree on every key they share.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.advisor import AdvisorOptions, CandidateGenerator
from repro.api import RecommendRequest, TuningSession
from repro.api.serve import ServeFrontend
from repro.cli import main
from repro.obs.instruments import (
    ONLINE_MALFORMED,
    ONLINE_POLL_SECONDS,
    ONLINE_RETUNES,
    ONLINE_STATEMENTS,
    RECOMMEND_SECONDS,
)
from repro.online import MemoryStatementSource, OnlineTuner, OnlineTunerConfig
from repro.query.parser import parse_statement
from repro.util.units import megabytes
from repro.workloads import builtin_workload
from repro.workloads.tpch_like import TpchLikeWorkload

from tests.conftest import build_small_catalog

A = "SELECT customers.c_age FROM customers WHERE customers.c_age > 30"
B = "SELECT products.p_price FROM products WHERE products.p_price < 50"
C = "SELECT customers.c_region FROM customers WHERE customers.c_region = 3"

MALFORMED = ["%%% not sql", "{not json", '{"no_sql": 1}']


def _recommends_observed() -> int:
    """``repro_recommend_seconds_count`` summed over selectors."""
    return sum(child.count for _, child in RECOMMEND_SECONDS.series())


def _polls_observed() -> int:
    return dict(ONLINE_POLL_SECONDS.series())[()].count


def _retunes_observed(*outcomes: str) -> float:
    return sum(ONLINE_RETUNES.labels(outcome=outcome).value for outcome in outcomes)


def _small_options() -> AdvisorOptions:
    return AdvisorOptions(space_budget_bytes=megabytes(512), max_candidates=20)


class TestRecommends:
    def test_the_latency_histogram_counts_every_recommend(self):
        session = TuningSession(
            *builtin_workload("tpch", 7), options=_small_options()
        )
        observed, calls = _recommends_observed(), session.statistics.recommend_calls
        selectors = ["lazy", "exhaustive", "lazy"]
        for selector in selectors:
            session.recommend(RecommendRequest(selector=selector))
        assert _recommends_observed() - observed == len(selectors)
        assert session.statistics.recommend_calls - calls == len(selectors)


class TestOnlineTuner:
    @pytest.mark.parametrize("horizon, outcome", [(10_000, "applied"), (1, "rejected")])
    def test_polls_lines_and_retunes_move_by_the_tuner_and_source_counts(
        self, horizon, outcome
    ):
        session = TuningSession(
            build_small_catalog(),
            [],
            options=AdvisorOptions(candidate_policy="per_query", max_candidates=12),
        )
        source = MemoryStatementSource()
        tuner = OnlineTuner(session, source, OnlineTunerConfig(
            window_statements=10,
            drift_high_water=0.35,
            drift_low_water=0.15,
            horizon_statements=horizon,
        ))
        polls = _polls_observed()
        statements = ONLINE_STATEMENTS.value
        malformed = ONLINE_MALFORMED.value
        accepted = _retunes_observed("applied", "unchanged")
        rejected = _retunes_observed("rejected")

        # Phase one (bootstrap), then a phase change; parsed statements and
        # feed lines, malformed ones among them; and an idle poll.
        source.feed([parse_statement(A)] * 5 + [parse_statement(B)] * 5)
        tuner.poll()
        source.feed([C] * 20 + MALFORMED)
        tuner.poll()
        tuner.poll()
        source.feed([parse_statement(C)] * 20 + MALFORMED[:1])
        decisions = tuner.poll()

        kinds = [decision.verdict for decision in tuner.decisions]
        assert kinds[0] == "bootstrap" and outcome in kinds
        assert decisions == [] or all(d.kind == "drift" for d in decisions)
        assert tuner.poll_count == 4
        assert _polls_observed() - polls == tuner.poll_count
        assert source.statistics.statements_parsed == 50
        assert source.statistics.malformed_lines == 4
        assert ONLINE_STATEMENTS.value - statements == source.statistics.statements_parsed
        assert ONLINE_MALFORMED.value - malformed == source.statistics.malformed_lines
        assert tuner.retunes_triggered >= 1
        assert _retunes_observed("applied", "unchanged") - accepted == tuner.retunes_accepted
        assert _retunes_observed("rejected") - rejected == tuner.retunes_rejected
        assert tuner.last_retune_at is not None
        assert tuner.last_retune_at >= session.last_recommend_at


class TestServeProjection:
    @staticmethod
    def _ok(response):
        assert response["ok"] is True, response.get("error")
        return response["result"]

    def _agree(self, frontend):
        """``stats`` and the session's overview entry, checked key by key."""
        stats = self._ok(frontend.handle({"op": "stats"}))
        (entry,) = frontend.session_overview()
        assert set(entry) == set(stats) | {"catalog", "seed", "age_seconds", "watching"}
        assert {key: entry[key] for key in stats} == stats
        assert entry["watching"] is (stats["watch"] is not None)
        return stats

    def test_stats_and_overview_agree_before_during_and_after_a_watch(self):
        frontend = ServeFrontend(default_catalog="tpch", options=_small_options())
        before = self._agree(frontend)
        assert (before["retunes_accepted"], before["retunes_rejected"]) == (0, 0)
        assert before["last_retune_at"] is None and before["watch"] is None

        self._ok(frontend.handle({"op": "watch_start", "params": {
            "window_statements": 120, "drift_high_water": 0.3, "drift_low_water": 0.1,
        }}))
        lines = TpchLikeWorkload(seed=7).trace(480, seed=11, phases=("read", "write"))
        for start in range(0, len(lines), 120):
            watched = self._ok(frontend.handle({"op": "watch_stats", "params": {
                "statements": lines[start:start + 120] + ["%%% not sql"],
            }}))
        during = self._agree(frontend)
        # The re-tune numbers are the watcher's own, not a copy.
        statistics = watched["statistics"]
        assert during["watch"] == statistics
        assert during["retunes_accepted"] == statistics["retunes_accepted"]
        assert during["retunes_rejected"] == statistics["retunes_rejected"]
        assert statistics["retunes_triggered"] == 1
        assert statistics["malformed_lines"] == 4
        assert during["last_retune_at"] is not None

        self._ok(frontend.handle({"op": "watch_stop"}))
        after = self._agree(frontend)
        assert (after["retunes_accepted"], after["retunes_rejected"]) == (0, 0)
        assert after["last_retune_at"] is None and after["watch"] is None
        assert after["recommend_calls"] == during["recommend_calls"] >= 2


class TestStoreLoads:
    @pytest.mark.parametrize("catalog", ["star", "tpch"])
    def test_a_second_session_loads_what_the_first_built(self, tmp_path, catalog):
        options = dataclasses.replace(_small_options(), cache_dir=str(tmp_path))
        first = TuningSession(*builtin_workload(catalog, 7), options=options)
        first.recommend()
        second = TuningSession(*builtin_workload(catalog, 7), options=options)
        second.recommend()
        assert first.statistics.caches_built > 0
        assert second.statistics.caches_from_store == first.statistics.caches_built
        assert second.statistics.caches_built == 0
        assert second.optimizer.call_count == 0
        assert first.store.stale_rejections == second.store.stale_rejections == 0

    def test_another_candidate_set_is_one_stale_rejection(self, tmp_path):
        options = dataclasses.replace(_small_options(), cache_dir=str(tmp_path))
        catalog, queries = builtin_workload("tpch", 7)
        query = queries[0]
        candidates = CandidateGenerator(catalog).for_query(query)
        assert len(candidates) >= 2
        TuningSession(catalog, options=options).build_query_cache(query, candidates=candidates)

        second = TuningSession(catalog, options=options)
        second.build_query_cache(query, candidates=candidates[:-1])
        assert second.store.stale_rejections == 1
        assert second.statistics.caches_built == 1
        assert second.statistics.caches_from_store == 0

    def test_cache_workload_reports_the_session_saves(self, tmp_path, capsys):
        arguments = ["cache-workload", "--catalog", "tpch", "--cache-dir", str(tmp_path)]
        assert main(arguments) == 0
        cold = capsys.readouterr().out
        assert main(arguments) == 0
        warm = capsys.readouterr().out
        assert "(2 built, 0 from store" in cold and "2 saved this run)" in cold
        assert "(0 built, 2 from store" in warm and "0 saved this run)" in warm
