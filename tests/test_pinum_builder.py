"""Tests for the PINUM cache builder: one (or two) calls fill the whole cache."""

import pytest

from repro.catalog.index import Index
from repro.inum import AtomicConfiguration, InumCacheBuilder, InumCostModel
from repro.optimizer import Optimizer, OptimizerHooks, WhatIfCallCache
from repro.optimizer.interesting_orders import combination_count
from repro.optimizer.joinplanner import JoinPlanner
from repro.pinum import PinumBuilderOptions, PinumCacheBuilder
from repro.pinum.cache_builder import probing_index_set
from repro.util.errors import PlanningError, ReproError
from repro.workloads import builtin_workload


@pytest.fixture
def candidates():
    return [
        Index("sales", ["s_customer"]),
        Index("sales", ["s_customer", "s_amount", "s_product"]),
        Index("customers", ["c_id"]),
        Index("customers", ["c_region", "c_id"]),
        Index("products", ["p_id"]),
        Index("products", ["p_category", "p_id", "p_price"]),
    ]


class TestProbingIndexSet:
    def test_one_index_per_interesting_order(self, join_query):
        indexes = probing_index_set(join_query)
        assert all(len(index.columns) == 1 for index in indexes)
        tables = {index.table for index in indexes}
        assert tables <= set(join_query.tables)
        # sales has two join columns, customers has a join + group column.
        assert len([i for i in indexes if i.table == "sales"]) == 2
        assert len([i for i in indexes if i.table == "customers"]) == 2


class TestCallCounts:
    def test_plan_cache_uses_two_calls_by_default(self, small_catalog, join_query):
        optimizer = Optimizer(small_catalog)
        cache = PinumCacheBuilder(optimizer).build_plan_cache(join_query)
        assert cache.build_stats.optimizer_calls_plans == 2
        assert optimizer.call_count == 2

    def test_nestloop_calls_zero(self, small_catalog, join_query):
        optimizer = Optimizer(small_catalog)
        builder = PinumCacheBuilder(optimizer, PinumBuilderOptions(nestloop_calls=0))
        cache = builder.build_plan_cache(join_query)
        assert cache.build_stats.optimizer_calls_plans == 1

    @pytest.mark.parametrize("calls", [-1, 2, 3, True, 1.0, None])
    def test_nestloop_calls_other_than_zero_or_one_rejected(self, calls):
        with pytest.raises(ReproError, match="nestloop_calls"):
            PinumBuilderOptions(nestloop_calls=calls)

    def test_full_build_uses_three_calls(self, small_catalog, join_query, candidates):
        optimizer = Optimizer(small_catalog)
        cache = PinumCacheBuilder(optimizer).build_cache(join_query, candidates)
        assert cache.build_stats.optimizer_calls_total == 3

    def test_access_cost_call_runs_no_join_dp_but_counts(
        self, monkeypatch, small_catalog, join_query, candidates
    ):
        plans = []
        original = JoinPlanner.plan

        def counting_plan(self, *arguments, **keywords):
            plans.append(arguments[0].name)
            return original(self, *arguments, **keywords)

        monkeypatch.setattr(JoinPlanner, "plan", counting_plan)
        optimizer = Optimizer(small_catalog)
        call_cache = WhatIfCallCache(optimizer)
        cache = PinumCacheBuilder(optimizer, call_cache=call_cache).build_cache(
            join_query, candidates
        )
        assert len(plans) == 2  # the two plan-harvesting calls only
        assert optimizer.call_count == 3
        assert call_cache.statistics.hits == 0
        assert cache.build_stats.optimizer_calls_access_costs == 1
        assert cache.build_stats.optimizer_calls_total == 3
        assert len(cache.access_costs) > 0

    def test_a_stopped_call_has_no_plan(self, small_catalog, join_query):
        result = Optimizer(small_catalog).optimize(
            join_query, hooks=OptimizerHooks(keep_all_access_paths=True, access_paths_only=True)
        )
        assert result.plan is None and result.ioc_plans == {}
        assert {path.table for path in result.access_paths} == set(join_query.tables)
        with pytest.raises(PlanningError):
            result.cost

    def test_access_cost_collection_optional(self, small_catalog, join_query):
        optimizer = Optimizer(small_catalog)
        builder = PinumCacheBuilder(
            optimizer, PinumBuilderOptions(collect_access_costs=False, nestloop_calls=0)
        )
        with pytest.raises(Exception):
            builder.build_cache(join_query)  # validation fails without heap costs

    def test_orders_of_magnitude_fewer_calls_than_inum(self, small_catalog, join_query, candidates):
        """The paper's headline: PINUM needs a constant number of calls."""
        optimizer = Optimizer(small_catalog)
        pinum_cache = PinumCacheBuilder(optimizer).build_cache(join_query, candidates)
        inum_cache = InumCacheBuilder(optimizer).build_cache(join_query, candidates)
        assert (
            pinum_cache.build_stats.optimizer_calls_total
            < inum_cache.build_stats.optimizer_calls_total / 5
        )
        assert inum_cache.build_stats.optimizer_calls_plans >= combination_count(join_query)


class TestCombinationsEnumerated:
    """Both builders report the query's IOC count, not how many plans the
    harvest kept (PINUM's subsumption pruning keeps far fewer)."""

    @pytest.mark.parametrize("builder", [PinumCacheBuilder, InumCacheBuilder])
    @pytest.mark.parametrize("catalog_name, query_name, combinations", [
        ("tpch", "tpch_small_join", 12),
        ("star", "Q2", 18),
    ])
    def test_the_query_ioc_count(self, builder, catalog_name, query_name, combinations):
        catalog, queries = builtin_workload(catalog_name, seed=7)
        query = next(query for query in queries if query.name == query_name)
        cache = builder(Optimizer(catalog)).build_cache(query)
        assert cache.build_stats.combinations_enumerated == combinations
        assert combination_count(query) == combinations


class TestCacheContents:
    def test_cache_validates(self, small_catalog, join_query, candidates):
        cache = PinumCacheBuilder(Optimizer(small_catalog)).build_cache(join_query, candidates)
        cache.validate()
        assert cache.entry_count >= 1

    def test_all_candidate_access_costs_collected(self, small_catalog, join_query, candidates):
        cache = PinumCacheBuilder(Optimizer(small_catalog)).build_cache(join_query, candidates)
        for candidate in candidates:
            assert cache.access_costs.for_index(candidate) is not None

    def test_empty_order_entry_always_present(self, small_catalog, join_query, candidates):
        cache = PinumCacheBuilder(Optimizer(small_catalog)).build_cache(join_query, candidates)
        assert any(entry.ioc.order_count == 0 for entry in cache.entries)

    def test_subsumption_pruning_shrinks_cache(self, small_catalog, join_query, candidates):
        pruned = PinumCacheBuilder(
            Optimizer(small_catalog), PinumBuilderOptions(subsumption_pruning=True)
        ).build_cache(join_query, candidates)
        unpruned = PinumCacheBuilder(
            Optimizer(small_catalog), PinumBuilderOptions(subsumption_pruning=False)
        ).build_cache(join_query, candidates)
        assert pruned.entry_count <= unpruned.entry_count

    def test_nestloop_variants_cached(self, small_catalog, join_query, candidates):
        cache = PinumCacheBuilder(Optimizer(small_catalog)).build_cache(join_query, candidates)
        sources = {entry.source for entry in cache.entries}
        assert sources == {"pinum"}
        # At least one entry may use nested loops (selective probe available);
        # if none does, the estimation still works, so just sanity-check types.
        assert all(isinstance(entry.uses_nestloop, bool) for entry in cache.entries)


class TestEquivalenceWithInum:
    def test_same_estimates_as_inum_cache(self, small_catalog, join_query, candidates):
        """PINUM fills the same cache, so estimates must agree closely."""
        optimizer = Optimizer(small_catalog)
        pinum_model = InumCostModel(
            PinumCacheBuilder(optimizer).build_cache(join_query, candidates)
        )
        inum_model = InumCostModel(
            InumCacheBuilder(optimizer).build_cache(join_query, candidates)
        )
        configurations = [
            AtomicConfiguration([]),
            AtomicConfiguration([candidates[0], candidates[2]]),
            AtomicConfiguration([candidates[1], candidates[3], candidates[5]]),
        ]
        for configuration in configurations:
            assert pinum_model.estimate(configuration) == pytest.approx(
                inum_model.estimate(configuration), rel=0.1
            )

    def test_build_bookkeeping_exposed(self, small_catalog, join_query, candidates):
        cache = PinumCacheBuilder(Optimizer(small_catalog)).build_cache(join_query, candidates)
        assert cache.build_stats.optimizer_calls_total == 3
        assert cache.build_stats.seconds_total > 0
