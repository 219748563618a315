"""Tests for the classic INUM cache builder."""

from repro.catalog.index import Index
from repro.inum import InumBuilderOptions, InumCacheBuilder
from repro.inum.combinations import (
    candidate_probe_indexes,
    covering_configuration,
    covering_indexes_for,
)
from repro.optimizer import Optimizer
from repro.optimizer.interesting_orders import InterestingOrderCombination, combination_count


class TestCoveringIndexes:
    def test_one_index_per_non_empty_order(self, join_query):
        ioc = InterestingOrderCombination(
            {"sales": "s_customer", "customers": "c_id", "products": None}
        )
        indexes = covering_indexes_for(join_query, ioc)
        assert len(indexes) == 2
        assert all(index.hypothetical for index in indexes)
        config = covering_configuration(join_query, ioc)
        assert config.covers(ioc)

    def test_include_referenced_columns_builds_covering_indexes(self, join_query):
        ioc = InterestingOrderCombination({"sales": "s_customer"})
        [index] = covering_indexes_for(join_query, ioc, include_referenced_columns=True)
        assert index.columns[0] == "s_customer"
        assert set(join_query.columns_of("sales")) <= set(index.columns)

    def test_candidate_probe_indexes_cover_referenced_columns(self, join_query):
        candidates = candidate_probe_indexes(join_query)
        assert all(len(index.columns) == 1 for index in candidates)
        led_columns = {(index.table, index.leading_column) for index in candidates}
        for table in join_query.tables:
            for column in join_query.columns_of(table):
                assert (table, column) in led_columns


class TestPlanCachePhase:
    def test_one_call_per_combination_without_nlj(self, small_catalog, join_query):
        optimizer = Optimizer(small_catalog)
        builder = InumCacheBuilder(optimizer, InumBuilderOptions(include_nestloop_plans=False))
        cache = builder.build_plan_cache(join_query)
        assert cache.build_stats.optimizer_calls_plans == combination_count(join_query)
        assert cache.build_stats.combinations_enumerated == combination_count(join_query)
        assert optimizer.call_count == combination_count(join_query)

    def test_nlj_option_doubles_calls(self, small_catalog, join_query):
        optimizer = Optimizer(small_catalog)
        builder = InumCacheBuilder(optimizer, InumBuilderOptions(include_nestloop_plans=True))
        cache = builder.build_plan_cache(join_query)
        assert cache.build_stats.optimizer_calls_plans == 2 * combination_count(join_query)

    def test_entries_far_fewer_than_calls(self, small_catalog, join_query):
        """Section IV's redundancy: most per-IOC calls return duplicate plans."""
        optimizer = Optimizer(small_catalog)
        builder = InumCacheBuilder(optimizer, InumBuilderOptions(include_nestloop_plans=False))
        cache = builder.build_plan_cache(join_query)
        assert cache.entry_count < cache.build_stats.optimizer_calls_plans
        assert cache.unique_plan_count() <= cache.entry_count


class TestAccessCostPhase:
    def test_one_call_per_candidate_plus_heap_call(self, small_catalog, join_query):
        optimizer = Optimizer(small_catalog)
        builder = InumCacheBuilder(optimizer, InumBuilderOptions(include_nestloop_plans=False))
        cache = builder.build_plan_cache(join_query)
        candidates = [Index("sales", ["s_customer"]), Index("customers", ["c_id"])]
        calls_before = optimizer.call_count
        builder.collect_access_costs(join_query, cache, candidates)
        assert cache.build_stats.optimizer_calls_access_costs == len(candidates) + 1
        assert optimizer.call_count - calls_before == len(candidates) + 1

    def test_heap_costs_recorded_for_every_table(self, small_catalog, join_query):
        optimizer = Optimizer(small_catalog)
        cache = InumCacheBuilder(optimizer).build_cache(join_query)
        for table in join_query.tables:
            assert cache.access_costs.has_heap(table)

    def test_candidate_costs_recorded(self, small_catalog, join_query):
        optimizer = Optimizer(small_catalog)
        candidates = [Index("sales", ["s_customer"]), Index("customers", ["c_region"])]
        cache = InumCacheBuilder(optimizer).build_cache(join_query, candidates)
        for candidate in candidates:
            assert cache.access_costs.for_index(candidate) is not None

    def test_candidates_on_other_tables_skipped(self, small_catalog, join_query, simple_query):
        optimizer = Optimizer(small_catalog)
        builder = InumCacheBuilder(optimizer)
        cache = builder.build_plan_cache(simple_query)
        calls_before = optimizer.call_count
        builder.collect_access_costs(
            simple_query, cache, [Index("customers", ["c_region"])]
        )
        # Only the heap call happens: the candidate's table is not in the query.
        assert optimizer.call_count - calls_before == 1


class TestFullBuild:
    def test_build_cache_is_valid(self, small_catalog, join_query):
        cache = InumCacheBuilder(Optimizer(small_catalog)).build_cache(join_query)
        cache.validate()
        assert cache.entry_count >= 1
        assert cache.build_stats.seconds_total > 0
