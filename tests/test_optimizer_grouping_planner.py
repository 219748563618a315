"""Tests for the grouping planner: aggregation strategies and ordering."""

import pytest

from repro.catalog.index import Index
from repro.optimizer import Optimizer
from repro.optimizer.plan import Operator
from repro.query import QueryBuilder


class TestAggregation:
    def test_group_by_query_gets_aggregate_node(self, optimizer, join_query):
        plan = optimizer.optimize(join_query).plan
        assert any(node.op is Operator.AGGREGATE for node in plan.walk())

    def test_scalar_aggregate_produces_single_row(self, small_catalog):
        query = (
            QueryBuilder("total")
            .aggregate("sum", "sales.s_amount")
            .from_tables("sales")
            .build()
        )
        plan = Optimizer(small_catalog).optimize(query).plan
        root = plan
        assert root.op is Operator.AGGREGATE
        assert root.rows == 1.0
        assert root.strategy == "plain"

    def test_group_count_not_exceeding_input(self, optimizer, join_query):
        plan = optimizer.optimize(join_query).plan
        aggregate = next(node for node in plan.walk() if node.op is Operator.AGGREGATE)
        assert aggregate.rows <= aggregate.children[0].rows


class TestOrdering:
    def test_order_by_adds_sort_when_needed(self, small_catalog, simple_query):
        plan = Optimizer(small_catalog).optimize(simple_query).plan
        assert plan.op is Operator.SORT

    def test_order_by_satisfied_by_index_skips_sort(self, small_catalog):
        """An index providing the requested order removes the top-level sort."""
        small_catalog.add_index(Index("sales", ["s_customer", "s_amount", "s_quantity"]))
        query = (
            QueryBuilder("ordered")
            .select("sales.s_amount", "sales.s_quantity")
            .from_tables("sales")
            .order_by("sales.s_customer")
            .build()
        )
        plan = Optimizer(small_catalog).optimize(query).plan
        assert plan.op is not Operator.SORT

    def test_sorted_plan_costs_no_more_than_unsorted_plus_sort(self, small_catalog):
        query = (
            QueryBuilder("ordered")
            .select("sales.s_amount")
            .from_tables("sales")
            .order_by("sales.s_customer")
            .build()
        )
        unindexed_cost = Optimizer(small_catalog).optimize(query).cost
        small_catalog.add_index(Index("sales", ["s_customer", "s_amount"]))
        indexed_cost = Optimizer(small_catalog).optimize(query).cost
        assert indexed_cost <= unindexed_cost


class TestChooseBest:
    def test_choose_best_requires_candidates(self, small_catalog, join_query):
        from repro.optimizer.cost_model import CostModel
        from repro.optimizer.grouping_planner import GroupingPlanner
        from repro.optimizer.selectivity import SelectivityEstimator
        from repro.util.errors import PlanningError

        planner = GroupingPlanner(CostModel(), SelectivityEstimator(small_catalog))
        with pytest.raises(PlanningError):
            planner.choose_best(join_query, [])

    def test_finalize_all_preserves_count(self, small_catalog, join_query):
        from repro.optimizer.access_paths import AccessPathCollector
        from repro.optimizer.cost_model import CostModel
        from repro.optimizer.grouping_planner import GroupingPlanner
        from repro.optimizer.joinplanner import JoinPlanner
        from repro.optimizer.selectivity import SelectivityEstimator

        selectivity = SelectivityEstimator(small_catalog)
        collector = AccessPathCollector(small_catalog, CostModel(), selectivity)
        join_planner = JoinPlanner(CostModel(), selectivity)
        grouping = GroupingPlanner(CostModel(), selectivity)
        candidates = join_planner.plan(join_query, collector.collect(join_query)[0]).candidates
        finalized = grouping.finalize_all(join_query, candidates)
        assert len(finalized) == len(candidates)
