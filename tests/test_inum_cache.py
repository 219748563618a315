"""Tests for the shared plan-cache data structure."""

import pytest

from repro.catalog.index import Index
from repro.inum.cache import CacheEntry, InumCache
from repro.optimizer import Optimizer
from repro.optimizer.interesting_orders import (
    InterestingOrderCombination,
    interesting_orders_by_table,
)
from repro.optimizer.plan import AccessPath
from repro.util.errors import PlanningError


def entry_from_best_plan(optimizer, query, nestloop=False):
    orders = interesting_orders_by_table(query)
    plan = optimizer.optimize(query, enable_nestloop=nestloop).plan
    return CacheEntry.from_plan(plan, orders, source="test")


class TestCacheEntry:
    def test_from_plan_slots_cover_all_tables(self, optimizer, join_query):
        entry = entry_from_best_plan(optimizer, join_query)
        assert {slot.table for slot in entry.slots} == set(join_query.tables)
        assert entry.internal_cost >= 0

    def test_from_plan_normalizes_uninteresting_orders(self, small_catalog, join_query):
        """A covering index on a non-interesting column maps to the empty order."""
        small_catalog.add_index(Index("products", ["p_category", "p_id", "p_price"]))
        optimizer = Optimizer(small_catalog)
        entry = entry_from_best_plan(optimizer, join_query)
        # p_category is a filter column, not an interesting order, so the
        # cached slot must not require it.
        assert entry.ioc.order_for("products") is None

    def test_nestloop_flag_recorded(self, small_catalog, join_query):
        small_catalog.add_index(Index("customers", ["c_id"]))
        small_catalog.add_index(Index("products", ["p_id"]))
        optimizer = Optimizer(small_catalog)
        plan = optimizer.optimize(join_query, enable_nestloop=True).plan
        entry = CacheEntry.from_plan(plan, interesting_orders_by_table(join_query), source="test")
        assert entry.uses_nestloop == plan.uses_nested_loop


class TestInumCache:
    def test_add_entry_deduplicates_by_ioc_and_nestloop(self, optimizer, join_query):
        cache = InumCache(join_query)
        entry = entry_from_best_plan(optimizer, join_query)
        cache.add_entry(entry)
        cache.add_entry(entry)
        assert cache.entry_count == 1
        assert cache.combination_count == 1

    def test_add_entry_keeps_cheaper_duplicate(self, optimizer, join_query):
        cache = InumCache(join_query)
        entry = entry_from_best_plan(optimizer, join_query)
        cheaper = CacheEntry(
            ioc=entry.ioc,
            internal_cost=entry.internal_cost / 2,
            slots=entry.slots,
            uses_nestloop=entry.uses_nestloop,
            source="test",
            summary=entry.summary,
        )
        cache.add_entry(entry)
        cache.add_entry(cheaper)
        assert cache.entry_count == 1
        assert cache.entries[0].internal_cost == cheaper.internal_cost

    def test_replacement_keeps_position_and_detached_copies_share_the_index(self, join_query):
        def entry(order, cost, nestloop=False):
            ioc = InterestingOrderCombination({"sales": order, "customers": None})
            return CacheEntry(ioc=ioc, internal_cost=cost, slots=(), uses_nestloop=nestloop)

        cache = InumCache(join_query)
        for added in (entry(None, 5.0), entry("s_customer", 7.0), entry(None, 6.0, True)):
            cache.add_entry(added)
        cache.add_entry(entry(None, 9.0))  # dearer duplicate: ignored
        cache.add_entry(entry(None, 4.0))  # cheaper duplicate: replaced in place
        assert [(e.ioc.order_for("sales"), e.internal_cost) for e in cache.entries] == [
            (None, 4.0), ("s_customer", 7.0), (None, 6.0),
        ]
        assert cache.entry_for(entry(None, 0.0).ioc) is cache.entries[0]
        clone = cache.detached_copy()
        clone.add_entry(entry("s_customer", 3.0))
        assert clone.entry_count == cache.entry_count == 3
        assert cache.entries[1].internal_cost == 3.0

    def test_nestloop_variant_coexists(self, small_catalog, join_query):
        small_catalog.add_index(Index("customers", ["c_id"]))
        small_catalog.add_index(Index("products", ["p_id"]))
        optimizer = Optimizer(small_catalog)
        cache = InumCache(join_query)
        plain = entry_from_best_plan(optimizer, join_query, nestloop=False)
        nlj = entry_from_best_plan(optimizer, join_query, nestloop=True)
        cache.add_entry(plain)
        cache.add_entry(nlj)
        if plain.ioc == nlj.ioc and nlj.uses_nestloop:
            assert cache.entry_count == 2
            # The canonical per-IOC entry prefers the nested-loop-free plan.
            assert not cache.entry_for(plain.ioc).uses_nestloop

    def test_validate_requires_entries_and_heap_costs(self, optimizer, join_query):
        cache = InumCache(join_query)
        with pytest.raises(PlanningError):
            cache.validate()
        cache.add_entry(entry_from_best_plan(optimizer, join_query))
        with pytest.raises(PlanningError):
            cache.validate()  # heap access costs still missing
        for table in join_query.tables:
            cache.access_costs.add_path(
                AccessPath(table=table, method="seqscan", cost=10.0, rows=10.0, covering=True)
            )
        cache.validate()

    def test_unique_plan_count(self, optimizer, join_query):
        cache = InumCache(join_query)
        cache.add_entry(entry_from_best_plan(optimizer, join_query))
        assert cache.unique_plan_count() == 1

    def test_build_stats_totals(self, join_query):
        cache = InumCache(join_query)
        cache.build_stats.optimizer_calls_plans = 10
        cache.build_stats.optimizer_calls_access_costs = 5
        cache.build_stats.seconds_plans = 1.0
        cache.build_stats.seconds_access_costs = 0.5
        assert cache.build_stats.optimizer_calls_total == 15
        assert cache.build_stats.seconds_total == pytest.approx(1.5)
