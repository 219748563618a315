"""Tests for workload-scale cache construction through the one lookup chain.

Every cache a session hands out comes from ``PlanCachePool.acquire``:
identical SQL earlier in the call, the session pool, the shared tier, the
persistent store, then a fresh build.  These tests drive it through
``TuningSession.build_workload_caches`` (the ``repro cache-workload`` path).
"""

import dataclasses

import pytest

from repro.advisor import AdvisorOptions, CandidateGenerator
from repro.api.session import TuningSession
from repro.api.tier import SharedCacheTier
from repro.obs.instruments import SESSION_CACHES
from repro.query import QueryBuilder
from repro.util.errors import ReproError

from conftest import build_join_query, build_simple_query, build_small_catalog

SOURCES = ("reused", "shared", "from_store", "built", "deduplicated")


@pytest.fixture
def workload():
    return [build_join_query("wq_join"), build_simple_query("wq_scan")]


@pytest.fixture
def candidates(small_catalog, workload):
    return CandidateGenerator(small_catalog).for_workload(workload)


def _build(session, candidates, builder="pinum", **kwargs):
    return session.build_workload_caches(builder, candidates=candidates, **kwargs)


class TestSerialBuild:
    def test_builds_every_query(self, small_catalog, workload, candidates):
        result = _build(TuningSession(small_catalog, workload), candidates)
        assert set(result.caches) == {"wq_join", "wq_scan"}
        for query in workload:
            cache = result.cache_for(query)
            cache.validate()
        report = result.report
        assert report.queries_total == 2
        assert report.queries_built == 2
        assert report.optimizer_calls > 0
        assert report.wall_seconds > 0

    def test_inum_builder_reports_memoization_hits(self, small_catalog, workload, candidates):
        result = _build(TuningSession(small_catalog, workload), candidates, "inum")
        assert result.report.whatif_cache_hits > 0
        assert result.report.whatif_hit_rate > 0

    def test_call_cache_can_be_disabled(self, small_catalog, workload, candidates):
        result = _build(
            TuningSession(small_catalog, workload), candidates, "inum", use_call_cache=False
        )
        assert result.report.whatif_cache_hits == 0

    def test_identical_sql_built_once(self, small_catalog, candidates):
        query = build_join_query("wq_join")
        twin = dataclasses.replace(query, name="wq_join_again")
        result = _build(TuningSession(small_catalog, [query, twin]), candidates)
        report = result.report
        assert report.queries_built == 1
        assert report.queries_deduplicated == 1
        outcome = report.outcome_for("wq_join_again")
        assert outcome.source == "deduplicated"
        assert outcome.deduped_from == "wq_join"
        assert result.caches["wq_join_again"].query.name == "wq_join_again"
        assert result.caches["wq_join_again"].entry_count == result.caches["wq_join"].entry_count

    def test_empty_workload_rejected(self, small_catalog):
        with pytest.raises(ReproError):
            TuningSession(small_catalog).build_workload_caches()

    def test_unknown_query_lookup_rejected(self, small_catalog, workload, candidates):
        result = _build(TuningSession(small_catalog, workload), candidates)
        with pytest.raises(ReproError):
            result.cache_for(build_join_query("never_built"))


class TestOptions:
    def test_unknown_builder_rejected(self, small_catalog, workload):
        with pytest.raises(ReproError, match="unknown cache builder 'bogus'"):
            TuningSession(small_catalog, workload).build_workload_caches("bogus")


class TestStoreIntegration:
    def _session(self, tmp_path, workload):
        return TuningSession(
            build_small_catalog(), workload, options=AdvisorOptions(cache_dir=str(tmp_path))
        )

    def test_second_build_loads_from_store(self, tmp_path, workload, candidates):
        cold_session = self._session(tmp_path, workload)
        cold = _build(cold_session, candidates)
        assert cold.report.queries_built == 2
        assert cold_session.store.stored_count() == 2

        warm = _build(self._session(tmp_path, workload), candidates)
        assert warm.report.queries_from_store == 2
        assert warm.report.queries_built == 0
        assert warm.report.optimizer_calls == 0
        for query in workload:
            assert warm.caches[query.name].entry_count == cold.caches[query.name].entry_count

    def test_changed_candidates_rebuild(self, tmp_path, workload, candidates):
        _build(self._session(tmp_path, workload), candidates)
        shrunk = _build(self._session(tmp_path, workload), candidates[:-1])
        assert shrunk.report.queries_built > 0


def _scan(name, table, column, bound):
    return (
        QueryBuilder(name)
        .select(f"{table}.{column}")
        .from_tables(table)
        .where(f"{table}.{column}", "<=", bound)
        .build()
    )


class TestOneChain:
    def test_one_call_meets_every_source(self, tmp_path):
        """Pool, tier, store, a fresh build and an identical-SQL twin, in
        statement order, counted the same way by the report, the session
        statistics and the ``repro_session_caches_total`` family."""
        pooled = build_simple_query("q_pool")
        tiered = _scan("q_tier", "customers", "c_id", 500)
        stored = _scan("q_store", "products", "p_category", 40)
        new = build_join_query("q_new")
        twin = dataclasses.replace(new, name="q_twin")
        statements = [pooled, tiered, stored, new, twin]
        pool = CandidateGenerator(build_small_catalog()).for_workload(statements)
        on_disk = AdvisorOptions(cache_dir=str(tmp_path))
        tier = SharedCacheTier()

        def fill(session):
            session.build_workload_caches(candidates=pool, max_candidates=None)
            return session

        fill(TuningSession(build_small_catalog(), [stored], options=on_disk))
        fill(TuningSession(build_small_catalog(), [tiered], shared_tier=tier))
        session = fill(TuningSession(
            build_small_catalog(), [pooled], options=on_disk, shared_tier=tier
        ))
        session.add_queries([tiered, stored, new, twin])

        fields_before = {s: getattr(session.statistics, f"caches_{s}") for s in SOURCES}
        metric_before = {s: SESSION_CACHES.labels(source=s).value for s in SOURCES}
        calls_before = session.optimizer.call_count
        result = session.build_workload_caches(candidates=pool, max_candidates=None)
        report = result.report

        assert [(o.query_name, o.source) for o in report.outcomes] == [
            ("q_pool", "reused"), ("q_tier", "shared"), ("q_store", "from_store"),
            ("q_new", "built"), ("q_twin", "deduplicated"),
        ]
        assert report.outcome_for("q_twin").deduped_from == "q_new"
        assert {name: cache.query.name for name, cache in result.caches.items()} == {
            statement.name: statement.name for statement in statements
        }
        for source in SOURCES:
            field_delta = getattr(session.statistics, f"caches_{source}") - fields_before[source]
            metric_delta = SESSION_CACHES.labels(source=source).value - metric_before[source]
            assert field_delta == report.count(source) == metric_delta, source
        assert session.optimizer.call_count - calls_before == 3 * report.count("built")
