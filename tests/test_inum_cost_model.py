"""Tests for the cache-based cost model (INUM estimation arithmetic)."""

import pytest

from repro.catalog.index import Index
from repro.inum import AtomicConfiguration, InumCacheBuilder, InumCostModel
from repro.optimizer import Optimizer
from repro.optimizer.whatif import WhatIfOptimizer


@pytest.fixture
def candidates():
    return [
        Index("sales", ["s_customer"]),
        Index("sales", ["s_product"]),
        Index("sales", ["s_customer", "s_amount", "s_product"]),
        Index("customers", ["c_id"]),
        Index("customers", ["c_region", "c_id"]),
        Index("products", ["p_id"]),
        Index("products", ["p_category", "p_id", "p_price"]),
    ]


@pytest.fixture
def cost_model(small_catalog, join_query, candidates):
    cache = InumCacheBuilder(Optimizer(small_catalog)).build_cache(join_query, candidates)
    return InumCostModel(cache)


class TestEstimation:
    def test_empty_configuration_matches_optimizer(self, small_catalog, join_query, cost_model):
        actual = WhatIfOptimizer(Optimizer(small_catalog)).cost_with_configuration(join_query, [])
        assert cost_model.estimate_empty() == pytest.approx(actual, rel=0.01)

    def test_estimation_requires_no_optimizer_calls(self, small_catalog, join_query, candidates):
        optimizer = Optimizer(small_catalog)
        cache = InumCacheBuilder(optimizer).build_cache(join_query, candidates)
        model = InumCostModel(cache)
        calls_before = optimizer.call_count
        model.estimate(AtomicConfiguration([candidates[0], candidates[3]]))
        model.estimate_empty()
        assert optimizer.call_count == calls_before

    def test_estimates_track_optimizer_for_atomic_configs(
        self, small_catalog, join_query, candidates, cost_model
    ):
        whatif = WhatIfOptimizer(Optimizer(small_catalog))
        configurations = [
            AtomicConfiguration([]),
            AtomicConfiguration([candidates[0]]),
            AtomicConfiguration([candidates[2], candidates[3]]),
            AtomicConfiguration([candidates[2], candidates[4], candidates[6]]),
        ]
        for configuration in configurations:
            actual = whatif.cost_with_configuration(join_query, configuration.indexes)
            estimate = cost_model.estimate(configuration)
            assert estimate == pytest.approx(actual, rel=0.15)

    def test_better_configuration_never_estimated_worse(self, candidates, cost_model):
        weak = AtomicConfiguration([candidates[0]])
        strong = AtomicConfiguration([candidates[2], candidates[4], candidates[6]])
        assert cost_model.estimate(strong) <= cost_model.estimate(weak) * 1.05

    def test_estimate_detail_reports_breakdown(self, candidates, cost_model, join_query):
        detail = cost_model.estimate_detail(AtomicConfiguration([candidates[0]]))
        assert set(detail.access_breakdown) == set(join_query.tables)
        assert detail.cost == pytest.approx(
            detail.entry.internal_cost + sum(detail.access_breakdown.values())
        )

    def test_unknown_index_falls_back_to_heap(self, cost_model):
        stranger = Index("sales", ["s_quantity", "s_amount"])
        estimate = cost_model.estimate(AtomicConfiguration([stranger]))
        assert estimate >= cost_model.estimate_empty() * 0.5


class TestIndexSetEstimation:
    def test_multiple_indexes_per_table_allowed(self, candidates, cost_model):
        cost = cost_model.estimate_with_indexes(candidates)
        assert cost <= cost_model.estimate_empty()

    def test_monotone_in_index_set(self, candidates, cost_model):
        """Adding indexes can only help (the model picks the per-slot minimum)."""
        subset_cost = cost_model.estimate_with_indexes(candidates[:2])
        full_cost = cost_model.estimate_with_indexes(candidates)
        assert full_cost <= subset_cost + 1e-9

    def test_empty_index_set_matches_estimate_empty(self, cost_model):
        assert cost_model.estimate_with_indexes([]) == pytest.approx(cost_model.estimate_empty())
