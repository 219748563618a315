"""Tests for the greedy selection loop and the benefit oracles."""

import pytest

from repro.advisor.benefit import (
    CacheBackedWorkloadCostModel,
    OptimizerWorkloadCostModel,
)
from repro.advisor.candidates import CandidateGenerator
from repro.advisor.greedy import GreedySelector
from repro.optimizer import Optimizer
from repro.util.errors import AdvisorError
from repro.util.units import megabytes


@pytest.fixture
def workload(join_query, simple_query):
    return [join_query, simple_query]


@pytest.fixture
def candidates(small_catalog, workload):
    return CandidateGenerator(small_catalog).for_workload(workload)


class TestWorkloadCostModels:
    def test_optimizer_model_matches_whatif(self, small_catalog, workload):
        optimizer = Optimizer(small_catalog)
        model = OptimizerWorkloadCostModel(optimizer, workload)
        empty = model.workload_cost([])
        assert empty == pytest.approx(sum(model.per_query_costs([]).values()))
        assert model.preparation_optimizer_calls == 0

    def test_cache_model_requires_known_mode(self, small_catalog, workload, candidates):
        with pytest.raises(AdvisorError):
            CacheBackedWorkloadCostModel.build(
                Optimizer(small_catalog), workload, candidates, mode="bogus"
            )

    def test_cache_model_answers_without_optimizer(self, small_catalog, workload, candidates):
        optimizer = Optimizer(small_catalog)
        model = CacheBackedWorkloadCostModel.build(optimizer, workload, candidates, mode="pinum")
        calls_before = optimizer.call_count
        model.workload_cost(candidates[:3])
        assert optimizer.call_count == calls_before
        assert model.preparation_optimizer_calls > 0

    def test_pinum_cache_model_tracks_optimizer_model(self, small_catalog, workload, candidates):
        optimizer = Optimizer(small_catalog)
        cache_model = CacheBackedWorkloadCostModel.build(
            optimizer, workload, candidates, mode="pinum"
        )
        optimizer_model = OptimizerWorkloadCostModel(optimizer, workload)
        subset = candidates[:5]
        assert cache_model.workload_cost(subset) == pytest.approx(
            optimizer_model.workload_cost(subset), rel=0.2
        )

    def test_empty_workload_rejected(self, small_catalog):
        with pytest.raises(AdvisorError):
            OptimizerWorkloadCostModel(Optimizer(small_catalog), [])


class TestGreedySelector:
    def _model(self, small_catalog, workload, candidates):
        return CacheBackedWorkloadCostModel.build(
            Optimizer(small_catalog), workload, candidates, mode="pinum"
        )

    def test_selection_reduces_cost_monotonically(self, small_catalog, workload, candidates):
        model = self._model(small_catalog, workload, candidates)
        selector = GreedySelector(small_catalog, model, megabytes(512))
        steps = selector.select(candidates)
        assert steps
        for step in steps:
            assert step.workload_cost_after <= step.workload_cost_before
            assert step.benefit >= 0

    def test_budget_respected(self, small_catalog, workload, candidates):
        model = self._model(small_catalog, workload, candidates)
        budget = megabytes(64)
        selector = GreedySelector(small_catalog, model, budget)
        steps = selector.select(candidates)
        if steps:
            assert steps[-1].cumulative_size_bytes <= budget
            total = sum(small_catalog.index_size_bytes(step.chosen) for step in steps)
            assert total <= budget

    def test_tiny_budget_selects_nothing_oversized(self, small_catalog, workload, candidates):
        model = self._model(small_catalog, workload, candidates)
        selector = GreedySelector(small_catalog, model, space_budget_bytes=1024)
        steps = selector.select(candidates)
        assert steps == []

    def test_invalid_budget_rejected(self, small_catalog, workload, candidates):
        model = self._model(small_catalog, workload, candidates)
        with pytest.raises(AdvisorError):
            GreedySelector(small_catalog, model, 0)

    def test_no_duplicate_picks(self, small_catalog, workload, candidates):
        model = self._model(small_catalog, workload, candidates)
        selector = GreedySelector(small_catalog, model, megabytes(512))
        steps = selector.select(candidates)
        keys = [step.chosen.key for step in steps]
        assert len(keys) == len(set(keys))
