"""Tests for plan nodes, their leaves and the INUM cost decomposition."""

import pytest

from repro.catalog.index import Index
from repro.optimizer.plan import (
    AccessPath,
    Operator,
    PlanSummary,
    aggregate,
    join,
    scan,
    sort,
)
from repro.query.ast import ColumnRef, JoinPredicate
from repro.util.errors import PlanningError


def make_seq_path(table="sales", cost=100.0, rows=1000.0):
    return AccessPath(table=table, method="seqscan", cost=cost, rows=rows, covering=True)


def make_index_path(table="customers", column="c_id", cost=40.0, rows=500.0, rescan=2.0):
    index = Index(table, [column])
    return AccessPath(
        table=table, method="indexscan", cost=cost, rows=rows, index=index,
        provided_order=column, rescan_cost=rescan, rows_per_probe=1.0,
    )


def customer_join():
    return JoinPredicate(ColumnRef("sales", "s_customer"), ColumnRef("customers", "c_id"))


class TestAccessPath:
    def test_invalid_method_rejected(self):
        with pytest.raises(PlanningError):
            AccessPath(table="t", method="bitmap", cost=1, rows=1)

    def test_index_scan_requires_index(self):
        with pytest.raises(PlanningError):
            AccessPath(table="t", method="indexscan", cost=1, rows=1)

    def test_negative_cost_rejected(self):
        with pytest.raises(PlanningError):
            AccessPath(table="t", method="seqscan", cost=-1, rows=1)

    def test_supports_probe(self):
        assert make_index_path().supports_probe
        assert not make_seq_path().supports_probe

    def test_describe_mentions_method(self):
        assert "SeqScan" in make_seq_path().describe()
        assert "IndexScan" in make_index_path().describe()


class TestScanNode:
    def test_scan_cost_and_order(self):
        node = scan(make_index_path())
        assert node.op is Operator.SCAN
        assert node.total_cost == 40.0
        assert ColumnRef("customers", "c_id") in node.output_order

    def test_seq_scan_has_no_order(self):
        assert scan(make_seq_path()).output_order == frozenset()

    def test_parameterized_scan_cost(self):
        node = scan(make_index_path(rescan=2.0), multiplier=100.0, parameterized=True)
        assert node.total_cost == pytest.approx(200.0)
        (leaf,) = node.leaves
        assert leaf.parameterized
        assert node.access_cost() == pytest.approx(200.0)

    def test_parameterized_requires_rescan_cost(self):
        with pytest.raises(PlanningError):
            scan(make_seq_path(), multiplier=10, parameterized=True)

    def test_tables(self):
        assert scan(make_seq_path()).tables == frozenset({"sales"})


class TestJoinNodes:
    def test_hash_join_structure(self):
        outer = scan(make_seq_path())
        inner = scan(make_index_path())
        node = join(Operator.HASHJOIN, outer, inner, [customer_join()], 500.0, 2000.0)
        assert node.tables == frozenset({"sales", "customers"})
        assert node.leaves == (outer, inner)
        assert node.predicates == (customer_join(),)
        assert not node.uses_nested_loop

    def test_nested_loop_detected(self):
        outer = scan(make_seq_path())
        inner = scan(make_index_path(), multiplier=outer.rows, parameterized=True)
        node = join(Operator.NESTLOOP, outer, inner, [customer_join()], 800.0, 2000.0)
        assert node.uses_nested_loop
        # The bit is fixed at construction and inherited by every ancestor.
        assert sort(node, (ColumnRef("sales", "s_amount"),), 900.0).uses_nested_loop

    def test_internal_cost_decomposition_exact(self):
        """total == internal + sum(leaf contributions) for every operator mix."""
        outer = scan(make_seq_path(cost=100.0))
        inner = scan(make_index_path(cost=40.0))
        node = join(Operator.HASHJOIN, outer, inner, [customer_join()], 500.0, 2000.0)
        assert node.internal_cost() + node.access_cost() == pytest.approx(node.total_cost)
        assert node.access_cost() == pytest.approx(140.0)

    def test_internal_cost_with_parameterized_inner(self):
        outer = scan(make_seq_path(cost=100.0, rows=50.0))
        inner = scan(make_index_path(rescan=2.0), multiplier=50.0, parameterized=True)
        node = join(Operator.NESTLOOP, outer, inner, [customer_join()], 230.0, 500.0)
        assert node.access_cost() == pytest.approx(100.0 + 50.0 * 2.0)
        assert node.internal_cost() == pytest.approx(30.0)

    def test_join_needs_a_join_operator_and_a_predicate(self):
        outer, inner = scan(make_seq_path()), scan(make_index_path())
        with pytest.raises(PlanningError):
            join(Operator.SORT, outer, inner, [customer_join()], 1.0, 1.0)
        with pytest.raises(PlanningError):
            join(Operator.HASHJOIN, outer, inner, [], 1.0, 1.0)
        with pytest.raises(PlanningError):  # a nested loop probes its inner
            join(Operator.NESTLOOP, outer, inner, [customer_join()], 1.0, 1.0)

    def test_explain_lists_every_predicate(self):
        second = JoinPredicate(ColumnRef("sales", "s_region"), ColumnRef("customers", "c_region"))
        outer, inner = scan(make_seq_path()), scan(make_index_path())
        single = join(Operator.HASHJOIN, outer, inner, [customer_join()], 500.0, 10.0)
        double = join(Operator.HASHJOIN, outer, inner, [customer_join(), second], 500.0, 10.0)
        assert single.explain().splitlines()[0] == (
            "Hashjoin on sales.s_customer = customers.c_id (cost=500.00 rows=10)"
        )
        assert double.explain().splitlines()[0] == (
            "Hashjoin on sales.s_customer = customers.c_id "
            "AND sales.s_region = customers.c_region (cost=500.00 rows=10)"
        )


class TestOtherNodes:
    def test_sort_node_sets_output_order(self):
        child = scan(make_seq_path())
        node = sort(child, (ColumnRef("sales", "s_amount"),), 300.0)
        assert ColumnRef("sales", "s_amount") in node.output_order
        assert node.rows == child.rows

    def test_aggregate_node_strategies(self):
        child = scan(make_seq_path())
        hashed = aggregate(child, "hashed", (ColumnRef("sales", "s_customer"),), 200.0, 10.0)
        assert hashed.output_order == frozenset()
        with pytest.raises(PlanningError):
            aggregate(child, "magic", (), 200.0, 10.0)

    def test_explain_contains_all_nodes(self):
        child = scan(make_seq_path())
        node = sort(child, (ColumnRef("sales", "s_amount"),), 300.0)
        text = node.explain()
        assert "Sort" in text and "SeqScan" in text

    def test_negative_cost_rejected(self):
        with pytest.raises(PlanningError):
            sort(scan(make_seq_path()), (), -1.0)

    def test_nodes_are_immutable(self):
        node = scan(make_seq_path())
        with pytest.raises(AttributeError):
            node.total_cost = 0.0
        with pytest.raises(AttributeError):
            node.extra = 1
        with pytest.raises(AttributeError):
            del node.rows
        assert not hasattr(node, "__dict__")


class TestLeafSlot:
    def test_parameterized_slot_without_rescan_cost_rejected(self):
        """A leaf is a scan node, so a parameterized leaf that could not be
        charged per probe is refused when it is built, not when it is costed."""
        with pytest.raises(PlanningError):
            scan(make_seq_path(), multiplier=10, parameterized=True)

    def test_scan_is_its_own_leaf_and_leaves_are_shared(self):
        outer = scan(make_seq_path())
        inner = scan(make_index_path())
        assert outer.leaves == (outer,)
        node = join(Operator.MERGEJOIN, outer, inner, [customer_join()], 400.0, 1000.0)
        on_top = aggregate(node, "plain", (), 410.0, 1.0)
        assert on_top.leaves is node.leaves


class TestPlanSummary:
    def test_identical_structure_same_key(self):
        plan_a = join(
            Operator.HASHJOIN, scan(make_seq_path()), scan(make_index_path()),
            [customer_join()], 500, 100,
        )
        plan_b = join(
            Operator.HASHJOIN, scan(make_seq_path(cost=999)), scan(make_index_path(cost=1)),
            [customer_join()], 123, 100,
        )
        assert PlanSummary.of(plan_a).structural_key() == PlanSummary.of(plan_b).structural_key()

    def test_different_structure_different_key(self):
        leaves = (scan(make_seq_path()), scan(make_index_path()))
        hash_plan = join(Operator.HASHJOIN, *leaves, [customer_join()], 500, 100)
        merge_plan = join(Operator.MERGEJOIN, *leaves, [customer_join()], 500, 100)
        assert PlanSummary.of(hash_plan).structural_key() != PlanSummary.of(merge_plan).structural_key()
        assert PlanSummary.of(merge_plan).operators == ("mergejoin",)
