"""Tests for the workload-scale cache builder."""

import dataclasses

import pytest

from repro.advisor import CandidateGenerator
from repro.inum import (
    CacheStore,
    WorkloadBuilderOptions,
    WorkloadCacheBuilder,
)
from repro.util.errors import ReproError

from conftest import build_join_query, build_simple_query


@pytest.fixture
def workload():
    return [build_join_query("wq_join"), build_simple_query("wq_scan")]


@pytest.fixture
def candidates(small_catalog, workload):
    return CandidateGenerator(small_catalog).for_workload(workload)


class TestSerialBuild:
    def test_builds_every_query(self, small_catalog, workload, candidates):
        result = WorkloadCacheBuilder(small_catalog).build(workload, candidates)
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
        options = WorkloadBuilderOptions(builder="inum")
        result = WorkloadCacheBuilder(small_catalog, options).build(workload, candidates)
        assert result.report.whatif_cache_hits > 0
        assert result.report.whatif_hit_rate > 0

    def test_call_cache_can_be_disabled(self, small_catalog, workload, candidates):
        options = WorkloadBuilderOptions(builder="inum", use_call_cache=False)
        result = WorkloadCacheBuilder(small_catalog, options).build(workload, candidates)
        assert result.report.whatif_cache_hits == 0

    def test_identical_sql_built_once(self, small_catalog, candidates):
        query = build_join_query("wq_join")
        twin = dataclasses.replace(query, name="wq_join_again")
        result = WorkloadCacheBuilder(small_catalog).build([query, twin], candidates)
        report = result.report
        assert report.queries_built == 1
        assert report.queries_deduplicated == 1
        outcome = report.outcome_for("wq_join_again")
        assert outcome.source == "deduplicated"
        assert outcome.deduped_from == "wq_join"
        assert result.caches["wq_join_again"].entry_count == result.caches["wq_join"].entry_count

    def test_empty_workload_rejected(self, small_catalog):
        with pytest.raises(ReproError):
            WorkloadCacheBuilder(small_catalog).build([])

    def test_unknown_query_lookup_rejected(self, small_catalog, workload, candidates):
        result = WorkloadCacheBuilder(small_catalog).build(workload, candidates)
        with pytest.raises(ReproError):
            result.cache_for(build_join_query("never_built"))


class TestOptions:
    def test_unknown_builder_rejected(self):
        with pytest.raises(ReproError):
            WorkloadBuilderOptions(builder="bogus")

    def test_catalog_or_optimizer_required(self):
        with pytest.raises(ReproError, match="needs a catalog or an optimizer"):
            WorkloadCacheBuilder()


class TestStoreIntegration:
    def test_second_build_loads_from_store(self, tmp_path, small_catalog, workload, candidates):
        store = CacheStore(tmp_path, small_catalog)
        builder = WorkloadCacheBuilder(small_catalog, store=store)
        cold = builder.build(workload, candidates)
        assert cold.report.queries_built == 2
        assert store.stored_count() == 2

        warm = builder.build(workload, candidates)
        assert warm.report.queries_from_store == 2
        assert warm.report.queries_built == 0
        assert warm.report.optimizer_calls == 0
        for query in workload:
            assert warm.caches[query.name].entry_count == cold.caches[query.name].entry_count

    def test_changed_candidates_rebuild(self, tmp_path, small_catalog, workload, candidates):
        store = CacheStore(tmp_path, small_catalog)
        builder = WorkloadCacheBuilder(small_catalog, store=store)
        builder.build(workload, candidates)
        shrunk = builder.build(workload, candidates[:-1])
        assert shrunk.report.queries_built > 0
