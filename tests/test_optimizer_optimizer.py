"""Tests for the top-level optimizer: call accounting, options and hooks."""

import pytest

from repro.catalog.index import Index
from repro.optimizer import Optimizer, OptimizerHooks, OptimizerOptions
from repro.optimizer.cost_model import CostParameters
from repro.query import QueryBuilder
from repro.util.errors import QueryError


class TestOptimize:
    def test_returns_plan_and_cost(self, optimizer, join_query):
        result = optimizer.optimize(join_query)
        assert result.cost == result.plan.total_cost
        assert result.plan.tables == frozenset(join_query.tables)

    def test_invalid_query_raises(self, optimizer):
        bad = QueryBuilder("bad").select("ghost.x").from_tables("ghost").build()
        with pytest.raises(QueryError):
            optimizer.optimize(bad)

    def test_indexes_reduce_or_preserve_cost(self, small_catalog, join_query):
        optimizer = Optimizer(small_catalog)
        before = optimizer.optimize(join_query).cost
        small_catalog.add_index(Index("sales", ["s_customer"]))
        small_catalog.add_index(Index("products", ["p_category", "p_id", "p_price"]))
        after = optimizer.optimize(join_query).cost
        assert after <= before

    def test_cost_helper_matches_optimize(self, optimizer, join_query):
        assert optimizer.cost(join_query) == pytest.approx(optimizer.optimize(join_query).cost)


class TestCallAccounting:
    def test_every_call_counted(self, optimizer, join_query, simple_query):
        optimizer.optimize(join_query)
        optimizer.optimize(simple_query)
        optimizer.optimize(join_query)
        assert optimizer.call_count == 3


class TestOptions:
    def test_enable_nestloop_option(self, small_catalog, join_query):
        small_catalog.add_index(Index("customers", ["c_id"]))
        no_nlj = Optimizer(small_catalog, OptimizerOptions(enable_nestloop=False))
        result = no_nlj.optimize(join_query)
        assert not result.plan.uses_nested_loop

    def test_per_call_override_beats_option(self, small_catalog, join_query):
        small_catalog.add_index(Index("customers", ["c_id"]))
        optimizer = Optimizer(small_catalog, OptimizerOptions(enable_nestloop=True))
        result = optimizer.optimize(join_query, enable_nestloop=False)
        assert not result.plan.uses_nested_loop

    def test_custom_cost_parameters_change_costs(self, small_catalog, join_query):
        default = Optimizer(small_catalog).optimize(join_query).cost
        pricey_io = Optimizer(
            small_catalog,
            OptimizerOptions(cost_parameters=CostParameters(seq_page_cost=10.0)),
        ).optimize(join_query).cost
        assert pricey_io > default


class TestHooks:
    def test_hook_outputs_exposed_in_result(self, small_catalog, join_query):
        small_catalog.add_index(Index("sales", ["s_customer"]))
        small_catalog.add_index(Index("customers", ["c_id"]))
        optimizer = Optimizer(small_catalog)
        hooks = OptimizerHooks(keep_all_access_paths=True, keep_all_ioc_plans=True)
        result = optimizer.optimize(join_query, hooks=hooks)
        assert result.ioc_plans
        assert result.access_paths
        # The final plans include grouping, so they cost at least as much as
        # the bare join plans and cover all tables.
        for plan in result.ioc_plans.values():
            assert plan.tables == frozenset(join_query.tables)

    def test_hooks_reset_between_calls(self, small_catalog, join_query, simple_query):
        """One hooks value reused across calls: each result exports only its own query."""
        small_catalog.add_index(Index("sales", ["s_customer"]))
        optimizer = Optimizer(small_catalog)
        hooks = OptimizerHooks(keep_all_access_paths=True, keep_all_ioc_plans=True)
        first = optimizer.optimize(join_query, hooks=hooks)
        second = optimizer.optimize(simple_query, hooks=hooks)
        assert {p.table for p in first.access_paths} == set(join_query.tables)
        assert all(p.table == "sales" for p in second.access_paths)
        assert len(second.access_paths) < len(first.access_paths)
        # The second call did not touch what the first one returned.
        assert {p.table for p in first.access_paths} == set(join_query.tables)

    def test_disabled_hooks_export_nothing(self, optimizer, join_query):
        result = optimizer.optimize(join_query, hooks=OptimizerHooks.disabled())
        assert result.ioc_plans == {}
        assert result.access_paths == []

    def test_best_plan_cost_same_with_and_without_hooks(self, small_catalog, join_query):
        small_catalog.add_index(Index("sales", ["s_customer"]))
        small_catalog.add_index(Index("customers", ["c_id"]))
        optimizer = Optimizer(small_catalog)
        plain = optimizer.optimize(join_query).cost
        hooks = OptimizerHooks(keep_all_access_paths=True, keep_all_ioc_plans=True)
        hooked = optimizer.optimize(join_query, hooks=hooks).cost
        assert hooked == pytest.approx(plain, rel=1e-9)
