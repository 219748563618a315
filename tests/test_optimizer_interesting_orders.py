"""Tests for interesting orders and interesting-order combinations."""

import pytest

from repro.optimizer.interesting_orders import (
    InterestingOrderCombination,
    combination_count,
    enumerate_combinations,
    interesting_orders_by_table,
    interesting_orders_for,
)
from repro.query import QueryBuilder
from repro.util.errors import PlanningError
from repro.workloads.tpch_like import tpch_q5_like_query


class TestInterestingOrdersFor:
    def test_join_columns_are_interesting(self, join_query):
        assert "s_customer" in interesting_orders_for(join_query, "sales")
        assert "c_id" in interesting_orders_for(join_query, "customers")

    def test_group_and_order_columns_are_interesting(self, join_query):
        orders = interesting_orders_for(join_query, "customers")
        assert "c_region" in orders

    def test_selected_only_columns_are_not_interesting(self, join_query):
        assert "s_amount" not in interesting_orders_for(join_query, "sales")

    def test_unknown_table_rejected(self, join_query):
        with pytest.raises(PlanningError):
            interesting_orders_for(join_query, "ghost")

    def test_by_table_covers_all_tables(self, join_query):
        by_table = interesting_orders_by_table(join_query)
        assert set(by_table) == set(join_query.tables)


class TestCombination:
    def test_order_lookup(self):
        ioc = InterestingOrderCombination({"a": "x", "b": None})
        assert ioc.order_for("a") == "x"
        assert ioc.order_for("b") is None
        with pytest.raises(PlanningError):
            ioc.order_for("c")

    def test_equality_is_order_insensitive(self):
        assert InterestingOrderCombination({"a": "x", "b": None}) == InterestingOrderCombination(
            {"b": None, "a": "x"}
        )

    def test_hashable(self):
        a = InterestingOrderCombination({"a": "x"})
        b = InterestingOrderCombination({"a": "x"})
        assert len({a, b}) == 1

    def test_non_empty_orders(self):
        ioc = InterestingOrderCombination({"a": "x", "b": None, "c": "y"})
        assert ioc.non_empty_orders == frozenset({("a", "x"), ("c", "y")})
        assert ioc.order_count == 2

    def test_subset_relation(self):
        small = InterestingOrderCombination({"a": "x", "b": None})
        large = InterestingOrderCombination({"a": "x", "b": "y"})
        assert small.is_subset_of(large)
        assert not large.is_subset_of(small)
        assert small.is_subset_of(small)

    def test_restricted_to(self):
        ioc = InterestingOrderCombination({"a": "x", "b": "y"})
        restricted = ioc.restricted_to(["a"])
        assert restricted.as_dict() == {"a": "x"}
        with pytest.raises(PlanningError):
            ioc.restricted_to([])

    def test_empty_rejected(self):
        with pytest.raises(PlanningError):
            InterestingOrderCombination({})


class TestEnumeration:
    def test_count_formula(self, join_query):
        combinations = enumerate_combinations(join_query)
        assert len(combinations) == combination_count(join_query)
        assert len(set(combinations)) == len(combinations)

    def test_single_table_no_orders(self, small_catalog):
        query = QueryBuilder("q").select("sales.s_amount").from_tables("sales").build()
        combinations = enumerate_combinations(query)
        assert len(combinations) == 1
        assert combinations[0].order_for("sales") is None

    def test_paper_example_648(self):
        """Section IV: the TPC-H query 5 shape yields 648 combinations."""
        query = tpch_q5_like_query()
        assert combination_count(query) == 648
        assert len(enumerate_combinations(query)) == 648

    def test_every_combination_has_all_tables(self, join_query):
        for ioc in enumerate_combinations(join_query):
            assert set(ioc.tables) == set(join_query.tables)
