"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations


import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.catalog.statistics import Histogram
from repro.inum.atomic_config import AtomicConfiguration
from repro.catalog.index import Index
from repro.optimizer.cost_model import CostModel
from repro.optimizer.interesting_orders import InterestingOrderCombination
from repro.optimizer.joinplanner import prune_subsumed_plans, unsubsumed
from repro.optimizer.plan import AccessPath, Operator, join, scan
from repro.query.ast import ColumnRef, JoinPredicate
from repro.storage import pages

_settings = settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None)


# ---------------------------------------------------------------------------
# Storage layout arithmetic
# ---------------------------------------------------------------------------


class TestPageArithmeticProperties:
    @_settings
    @given(width=st.integers(min_value=0, max_value=10_000),
           alignment=st.sampled_from([1, 2, 4, 8]))
    def test_alignment_properties(self, width, alignment):
        aligned = pages.align_to(width, alignment)
        assert aligned >= width
        assert aligned % alignment == 0
        assert aligned - width < alignment

    @_settings
    @given(rows=st.integers(min_value=0, max_value=10_000_000),
           width=st.integers(min_value=8, max_value=2_000))
    def test_heap_pages_monotone_in_rows(self, rows, width):
        assert pages.heap_pages(rows + 1000, width) >= pages.heap_pages(rows, width)
        assert pages.heap_pages(rows, width) >= 1

    @_settings
    @given(rows=st.integers(min_value=1, max_value=10_000_000),
           width=st.integers(min_value=8, max_value=500))
    def test_internal_pages_never_dominate(self, rows, width):
        leaves = pages.btree_leaf_pages(rows, width)
        internal = pages.btree_internal_pages(leaves, width)
        assert internal <= leaves


# ---------------------------------------------------------------------------
# Histograms
# ---------------------------------------------------------------------------


class TestHistogramProperties:
    @_settings
    @given(
        low=st.integers(min_value=0, max_value=1000),
        span=st.integers(min_value=0, max_value=100_000),
        rows=st.integers(min_value=1, max_value=1_000_000),
        probe=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    )
    def test_selectivity_below_is_bounded_and_monotone(self, low, span, rows, probe):
        histogram = Histogram.uniform(low, low + span, rows)
        value = histogram.selectivity_below(probe)
        assert 0.0 <= value <= 1.0
        assert histogram.selectivity_below(probe + 10) >= value - 1e-9

    @_settings
    @given(
        values=st.lists(st.integers(min_value=-10_000, max_value=10_000), min_size=1, max_size=200),
    )
    def test_from_values_total_and_full_range(self, values):
        histogram = Histogram.from_values(values)
        assert histogram.total == len(values)
        assert histogram.selectivity_between(min(values), max(values)) == pytest.approx(1.0, abs=1e-6)

    @_settings
    @given(
        low=st.integers(min_value=0, max_value=100),
        span=st.integers(min_value=1, max_value=10_000),
        rows=st.integers(min_value=1, max_value=100_000),
        a=st.floats(min_value=0, max_value=1),
        b=st.floats(min_value=0, max_value=1),
    )
    def test_range_selectivity_additive(self, low, span, rows, a, b):
        """sel[lo, m] + sel(m, hi] ~ sel[lo, hi] for any split point."""
        histogram = Histogram.uniform(low, low + span, rows)
        lo, hi = low, low + span
        split = lo + (hi - lo) * min(a, b)
        left = histogram.selectivity_between(lo, split)
        whole = histogram.selectivity_between(lo, hi)
        assert left <= whole + 1e-9


# ---------------------------------------------------------------------------
# Interesting-order combinations and atomic configurations
# ---------------------------------------------------------------------------


_tables = ["t1", "t2", "t3", "t4"]
_orders = ["a", "b", None]


def ioc_strategy():
    return st.fixed_dictionaries({t: st.sampled_from(_orders) for t in _tables}).map(
        InterestingOrderCombination
    )


class TestIocProperties:
    @_settings
    @given(ioc=ioc_strategy())
    def test_subset_reflexive(self, ioc):
        assert ioc.is_subset_of(ioc)

    @_settings
    @given(a=ioc_strategy(), b=ioc_strategy(), c=ioc_strategy())
    def test_subset_transitive(self, a, b, c):
        if a.is_subset_of(b) and b.is_subset_of(c):
            assert a.is_subset_of(c)

    @_settings
    @given(a=ioc_strategy(), b=ioc_strategy())
    def test_equality_consistent_with_hash(self, a, b):
        if a == b:
            assert hash(a) == hash(b)

    @_settings
    @given(ioc=ioc_strategy())
    def test_covering_configuration_covers(self, ioc):
        indexes = [Index(table, [order]) for table, order in ioc.non_empty_orders]
        assert AtomicConfiguration(indexes).covers(ioc)

    @_settings
    @given(ioc=ioc_strategy())
    def test_empty_configuration_covers_only_empty(self, ioc):
        empty = AtomicConfiguration([])
        assert empty.covers(ioc) == (ioc.order_count == 0)


# ---------------------------------------------------------------------------
# Cost model
# ---------------------------------------------------------------------------


class TestCostModelProperties:
    @_settings
    @given(
        pages_=st.integers(min_value=1, max_value=1_000_000),
        rows=st.floats(min_value=1, max_value=1e8),
        sel_a=st.floats(min_value=0.0, max_value=1.0),
        sel_b=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_index_scan_monotone_in_selectivity(self, pages_, rows, sel_a, sel_b):
        model = CostModel()
        low, high = sorted([sel_a, sel_b])
        cheap = model.index_scan(pages_ // 10 + 1, pages_, rows, low)
        pricey = model.index_scan(pages_ // 10 + 1, pages_, rows, high)
        assert cheap <= pricey + 1e-6

    @_settings
    @given(
        rows_a=st.floats(min_value=1, max_value=1e7),
        rows_b=st.floats(min_value=1, max_value=1e7),
        width=st.integers(min_value=8, max_value=512),
    )
    def test_sort_monotone_in_rows(self, rows_a, rows_b, width):
        model = CostModel()
        low, high = sorted([rows_a, rows_b])
        assert model.sort(0.0, low, width) <= model.sort(0.0, high, width) + 1e-6

    @_settings
    @given(costs=st.lists(st.floats(min_value=0, max_value=1e6), min_size=2, max_size=2),
           rows=st.floats(min_value=1, max_value=1e6))
    def test_joins_cost_at_least_inputs(self, costs, rows):
        model = CostModel()
        outer_cost, inner_cost = costs
        assert model.hash_join(outer_cost, inner_cost, rows, rows, rows) >= outer_cost + inner_cost
        assert model.merge_join(outer_cost, inner_cost, rows, rows, rows) >= outer_cost + inner_cost


# ---------------------------------------------------------------------------
# Plan decomposition and subsumption pruning
# ---------------------------------------------------------------------------


def _plan_with_costs(seq_cost: float, idx_cost: float, join_cost_extra: float):
    outer = scan(AccessPath(table="t1", method="seqscan", cost=seq_cost, rows=100, covering=True))
    inner = scan(
        AccessPath(
            table="t2", method="indexscan", cost=idx_cost, rows=100,
            index=Index("t2", ["a"]), provided_order="a",
        )
    )
    predicate = JoinPredicate(ColumnRef("t1", "x"), ColumnRef("t2", "a"))
    total = seq_cost + idx_cost + join_cost_extra
    return join(Operator.HASHJOIN, outer, inner, [predicate], total, 100)


class TestPlanProperties:
    @_settings
    @given(
        seq_cost=st.floats(min_value=0, max_value=1e6),
        idx_cost=st.floats(min_value=0, max_value=1e6),
        extra=st.floats(min_value=0, max_value=1e6),
    )
    def test_internal_plus_access_equals_total(self, seq_cost, idx_cost, extra):
        plan = _plan_with_costs(seq_cost, idx_cost, extra)
        assert plan.internal_cost() + plan.access_cost() == pytest.approx(plan.total_cost, rel=1e-9, abs=1e-6)

    @_settings
    @given(data=st.data())
    def test_pruning_keeps_cheapest_and_empty_ioc(self, data):
        """Pruned sets always retain a plan at least as cheap as every pruned one."""
        n = data.draw(st.integers(min_value=1, max_value=6))
        plans = {}
        for i in range(n):
            order = data.draw(st.sampled_from(["a", "b", None]), label=f"order{i}")
            cost = data.draw(st.floats(min_value=1, max_value=1e6), label=f"cost{i}")
            outer = scan(AccessPath(table="t1", method="seqscan", cost=cost / 2, rows=10, covering=True))
            inner_path = (
                AccessPath(table="t2", method="seqscan", cost=cost / 2, rows=10, covering=True)
                if order is None
                else AccessPath(table="t2", method="indexscan", cost=cost / 2, rows=10,
                                index=Index("t2", [order]), provided_order=order)
            )
            inner = scan(inner_path)
            predicate = JoinPredicate(ColumnRef("t1", "x"), ColumnRef("t2", order or "y"))
            plan = join(Operator.HASHJOIN, outer, inner, [predicate], cost, 10)
            ioc = InterestingOrderCombination({"t1": None, "t2": order})
            incumbent = plans.get(ioc)
            if incumbent is None or plan.total_cost < incumbent.total_cost:
                plans[ioc] = plan
        pruned = prune_subsumed_plans(plans)
        assert pruned  # never empties the set
        cheapest_overall = min(p.total_cost for p in plans.values())
        assert min(p.total_cost for p in pruned.values()) == pytest.approx(cheapest_overall)
        # Every surviving plan is not subsumed by another survivor.
        for ioc_b, plan_b in pruned.items():
            for ioc_a, plan_a in pruned.items():
                if ioc_a is ioc_b:
                    continue
                assert not (ioc_a.is_subset_of(ioc_b) and plan_a.total_cost < plan_b.total_cost)

    @settings(max_examples=300, deadline=None)
    @given(
        cheapest=st.dictionaries(
            st.integers(min_value=0, max_value=255),
            # Few distinct costs, so ties are common.
            st.sampled_from([1.0, 2.0, 2.5, 3.0, 7.0, 1e6]),
            max_size=48,
        )
    )
    # Mask 0 (no order) is the only cheaper submask of 3, found by submask
    # enumeration because four masks are cheaper.
    @example(cheapest={0: 1.0, 8: 1.0, 16: 1.0, 32: 1.0, 3: 2.0})
    def test_unsubsumed_equals_the_quadratic_definition(self, cheapest):
        """A mask survives iff no other mask that is its subset costs strictly less."""
        expected = {
            mask for mask, cost in cheapest.items()
            if not any(
                other != mask and other & ~mask == 0 and other_cost < cost
                for other, other_cost in cheapest.items()
            )
        }
        assert unsubsumed(cheapest) == expected
