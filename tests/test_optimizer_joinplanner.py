"""Tests for the DP join planner, its keep-all-IOC mode and subsumption pruning."""

import pytest

from conftest import build_wide_star_query
from repro.advisor.candidates import CandidateGenerator
from repro.catalog.index import Index
from repro.inum.cache import normalized_ioc
from repro.optimizer import Optimizer
from repro.optimizer.access_paths import AccessPathCollector
from repro.optimizer.cost_model import CostModel
from repro.optimizer.hooks import OptimizerHooks
from repro.optimizer.interesting_orders import enumerate_combinations, interesting_orders_by_table
from repro.optimizer.joinplanner import JoinPlanner, prune_subsumed_plans
from repro.optimizer.plan import PlanNode
from repro.optimizer.selectivity import SelectivityEstimator
from repro.pinum import PinumCacheBuilder
from repro.query import QueryBuilder
from repro.util.errors import PlanningError
from repro.workloads import StarSchemaWorkload


def make_planner(catalog, enable_nestloop=True):
    selectivity = SelectivityEstimator(catalog)
    return (
        JoinPlanner(CostModel(), selectivity, enable_nestloop),
        AccessPathCollector(catalog, CostModel(), selectivity),
    )


class TestBasicPlanning:
    def test_single_table_query(self, small_catalog, simple_query):
        planner, collector = make_planner(small_catalog)
        result = planner.plan(simple_query, collector.collect(simple_query)[0])
        assert result.candidates
        assert result.candidates[0].tables == frozenset({"sales"})

    def test_join_query_covers_all_tables(self, small_catalog, join_query):
        planner, collector = make_planner(small_catalog)
        result = planner.plan(join_query, collector.collect(join_query)[0])
        best = min(result.candidates, key=lambda p: p.total_cost)
        assert best.tables == frozenset(join_query.tables)

    def test_missing_access_paths_rejected(self, small_catalog, join_query):
        planner, _ = make_planner(small_catalog)
        with pytest.raises(PlanningError):
            planner.plan(join_query, {})

    def test_disconnected_graph_rejected(self, small_catalog):
        query = (
            QueryBuilder("disconnected")
            .select("sales.s_amount", "products.p_price")
            .from_tables("sales", "products")
            .build()
        )
        planner, collector = make_planner(small_catalog)
        with pytest.raises(PlanningError):
            planner.plan(query, collector.collect(query)[0])

    def test_costs_are_positive_and_finite(self, small_catalog, join_query):
        planner, collector = make_planner(small_catalog)
        result = planner.plan(join_query, collector.collect(join_query)[0])
        for plan in result.candidates:
            assert plan.total_cost > 0
            assert plan.total_cost < float("inf")


class TestJoinMethods:
    def test_nestloop_disabled_removes_nested_loops(self, small_catalog, join_query):
        small_catalog.add_index(Index("customers", ["c_id"]))
        small_catalog.add_index(Index("products", ["p_id"]))
        planner, collector = make_planner(small_catalog, enable_nestloop=False)
        result = planner.plan(join_query, collector.collect(join_query)[0])
        assert all(not plan.uses_nested_loop for plan in result.candidates)

    def test_nestloop_used_when_beneficial(self, small_catalog):
        """A selective outer and an index on the inner join column favour NLJ."""
        small_catalog.add_index(Index("sales", ["s_customer"]))
        query = (
            QueryBuilder("selective")
            .select("sales.s_amount")
            .join("sales.s_customer", "customers.c_id")
            .where_between("customers.c_age", 1, 50)
            .build()
        )
        planner, collector = make_planner(small_catalog, enable_nestloop=True)
        result = planner.plan(query, collector.collect(query)[0])
        best = min(result.candidates, key=lambda p: p.total_cost)
        assert best.uses_nested_loop

    def test_enabling_nestloop_never_hurts(self, small_catalog, join_query):
        small_catalog.add_index(Index("sales", ["s_customer"]))
        planner_on, collector = make_planner(small_catalog, enable_nestloop=True)
        planner_off, _ = make_planner(small_catalog, enable_nestloop=False)
        paths = collector.collect(join_query)[0]
        best_on = min(p.total_cost for p in planner_on.plan(join_query, paths).candidates)
        best_off = min(p.total_cost for p in planner_off.plan(join_query, paths).candidates)
        assert best_on <= best_off + 1e-6


class TestKeepAllIocPlans:
    def _hooked(self, subsumption=False):
        return OptimizerHooks(keep_all_ioc_plans=True, subsumption_pruning=subsumption)

    def test_ioc_plans_populated(self, small_catalog, join_query):
        small_catalog.add_index(Index("sales", ["s_customer"]))
        small_catalog.add_index(Index("customers", ["c_id"]))
        planner, collector = make_planner(small_catalog)
        result = planner.plan(join_query, collector.collect(join_query)[0], self._hooked())
        assert len(result.ioc_plans) > 1
        # The empty combination (all sequential scans) must always be present.
        empty = [ioc for ioc in result.ioc_plans if ioc.order_count == 0]
        assert empty

    def test_ioc_plans_are_subset_of_enumeration(self, small_catalog, join_query):
        small_catalog.add_index(Index("sales", ["s_customer"]))
        small_catalog.add_index(Index("customers", ["c_id"]))
        small_catalog.add_index(Index("customers", ["c_region"]))
        planner, collector = make_planner(small_catalog)
        result = planner.plan(join_query, collector.collect(join_query)[0], self._hooked())
        valid = set(enumerate_combinations(join_query))
        assert set(result.ioc_plans) <= valid

    def test_each_ioc_plan_requires_its_ioc(self, small_catalog, join_query):
        small_catalog.add_index(Index("sales", ["s_customer"]))
        small_catalog.add_index(Index("customers", ["c_id"]))
        planner, collector = make_planner(small_catalog)
        result = planner.plan(join_query, collector.collect(join_query)[0], self._hooked())
        orders = interesting_orders_by_table(join_query)
        for ioc, plan in result.ioc_plans.items():
            assert normalized_ioc(plan, orders) == ioc

    def test_uninteresting_leaf_orders_are_keyed_as_no_order(self, small_catalog, join_query):
        # p_category is only filtered on: an index on it provides an order no
        # merge join or grouping can use, so a plan reading it competes under
        # the IOC of a plan reading products unordered.
        small_catalog.add_index(Index("products", ["p_category"]))
        small_catalog.add_index(Index("sales", ["s_customer"]))
        planner, collector = make_planner(small_catalog)
        result = planner.plan(join_query, collector.collect(join_query)[0], self._hooked())
        orders = interesting_orders_by_table(join_query)
        assert set(result.ioc_plans) <= set(enumerate_combinations(join_query))
        for ioc, plan in result.ioc_plans.items():
            assert normalized_ioc(plan, orders) == ioc

    def test_best_plan_unchanged_by_hook(self, small_catalog, join_query):
        """Keeping extra plans must not change which plan is cheapest."""
        small_catalog.add_index(Index("sales", ["s_customer"]))
        small_catalog.add_index(Index("customers", ["c_id"]))
        planner, collector = make_planner(small_catalog)
        paths = collector.collect(join_query)[0]
        plain_best = min(p.total_cost for p in planner.plan(join_query, paths).candidates)
        hooked_best = min(
            p.total_cost for p in planner.plan(join_query, paths, self._hooked()).candidates
        )
        assert hooked_best == pytest.approx(plain_best, rel=1e-9)

    def test_subsumption_pruning_reduces_plan_count(self, small_catalog, join_query):
        small_catalog.add_index(Index("sales", ["s_customer"]))
        small_catalog.add_index(Index("customers", ["c_id"]))
        small_catalog.add_index(Index("customers", ["c_region"]))
        small_catalog.add_index(Index("products", ["p_id"]))
        planner, collector = make_planner(small_catalog)
        paths = collector.collect(join_query)[0]
        unpruned = planner.plan(join_query, paths, self._hooked(subsumption=False))
        pruned = planner.plan(join_query, paths, self._hooked(subsumption=True))
        assert len(pruned.ioc_plans) <= len(unpruned.ioc_plans)


class TestSubsumptionRule:
    def test_prunes_more_expensive_superset(self, small_catalog, join_query):
        small_catalog.add_index(Index("sales", ["s_customer"]))
        planner, collector = make_planner(small_catalog)
        hooks = OptimizerHooks(keep_all_ioc_plans=True, subsumption_pruning=False)
        result = planner.plan(join_query, collector.collect(join_query)[0], hooks)
        pruned = prune_subsumed_plans(result.ioc_plans)
        # Check the rule directly: no surviving plan is dominated.
        for ioc_b, plan_b in pruned.items():
            for ioc_a, plan_a in pruned.items():
                if ioc_a is ioc_b:
                    continue
                assert not (
                    ioc_a.is_subset_of(ioc_b) and plan_a.total_cost < plan_b.total_cost
                )

    def test_empty_ioc_never_pruned(self, small_catalog, join_query):
        small_catalog.add_index(Index("sales", ["s_customer"]))
        small_catalog.add_index(Index("customers", ["c_id"]))
        planner, collector = make_planner(small_catalog)
        hooks = OptimizerHooks(keep_all_ioc_plans=True, subsumption_pruning=True)
        result = planner.plan(join_query, collector.collect(join_query)[0], hooks)
        assert any(ioc.order_count == 0 for ioc in result.ioc_plans)


class TestWorkCounters:
    def test_seven_table_pinum_build_builds_few_plan_nodes(self, monkeypatch):
        """The join DP builds plan nodes for what it returns, not per join.

        Counts work, not wall time: plan nodes constructed during the PINUM
        build of the seven-table star join, its cache entries and its
        counted optimizer calls.
        """
        catalog = StarSchemaWorkload(seed=0).catalog()
        query = build_wide_star_query(6)
        candidates = CandidateGenerator(catalog).for_query(query)
        optimizer = Optimizer(catalog)
        built = []
        construct = PlanNode.__init__

        def counting_init(node, *args, **kwargs):
            built.append(None)
            construct(node, *args, **kwargs)

        monkeypatch.setattr(PlanNode, "__init__", counting_init)
        cache = PinumCacheBuilder(optimizer).build_cache(query, candidates)
        assert cache.entry_count == 243
        assert optimizer.call_count == 3
        assert len(built) <= 10_000
