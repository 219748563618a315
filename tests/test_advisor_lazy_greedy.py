"""Tests for the lazy (CELF) greedy selector and the incremental evaluator."""

import pytest

from repro.advisor import AdvisorOptions, IndexAdvisor
from repro.advisor.benefit import (
    CacheBackedWorkloadCostModel,
    IncrementalWorkloadEvaluator,
    OptimizerWorkloadCostModel,
)
from repro.advisor.candidates import CandidateGenerator
from repro.advisor.greedy import GreedySelector
from repro.advisor.lazy_greedy import LazyGreedySelector
from repro.catalog.index import Index
from repro.optimizer import Optimizer
from repro.util.errors import AdvisorError
from repro.util.units import megabytes


@pytest.fixture
def workload(join_query, simple_query):
    return [join_query, simple_query]


@pytest.fixture
def candidates(small_catalog, workload):
    return CandidateGenerator(small_catalog).for_workload(workload)


@pytest.fixture
def model(small_catalog, workload, candidates):
    return CacheBackedWorkloadCostModel.build(
        Optimizer(small_catalog), workload, candidates, mode="pinum"
    )


def _step_keys(steps):
    return [
        (step.chosen.key, step.workload_cost_before, step.workload_cost_after,
         step.cumulative_size_bytes)
        for step in steps
    ]


class TestLazyMatchesExhaustive:
    @pytest.mark.parametrize("budget_mb", [8, 64, 512])
    def test_identical_selection_steps(self, small_catalog, model, candidates, budget_mb):
        budget = megabytes(budget_mb)
        exhaustive = GreedySelector(small_catalog, model, budget).select(candidates)
        lazy = LazyGreedySelector(small_catalog, model, budget).select(candidates)
        assert _step_keys(lazy) == _step_keys(exhaustive)

    def test_incremental_matches_full_reevaluation(self, small_catalog, model, candidates):
        budget = megabytes(512)
        full = GreedySelector(small_catalog, model, budget, incremental=False).select(candidates)
        delta = GreedySelector(small_catalog, model, budget, incremental=True).select(candidates)
        assert _step_keys(delta) == _step_keys(full)

    def test_engines_agree_on_selection(self, small_catalog, model, candidates):
        # Engines may permute picks whose benefits are *exactly* tied (the
        # vectorized sums can land a tie one ulp apart), so the selected
        # sets are compared, not the sequences.
        budget = megabytes(512)
        picks = {}
        for engine in ("scalar", "python", "auto"):
            model.select_engine(engine)
            steps = LazyGreedySelector(small_catalog, model, budget).select(candidates)
            picks[engine] = {step.chosen.key for step in steps}
        assert picks["scalar"] == picks["python"] == picks["auto"]

    def test_matches_with_optimizer_cost_model(self, small_catalog, workload, candidates):
        model = OptimizerWorkloadCostModel(Optimizer(small_catalog), workload)
        budget = megabytes(512)
        subset = candidates[:10]
        exhaustive = GreedySelector(small_catalog, model, budget).select(subset)
        lazy = LazyGreedySelector(small_catalog, model, budget).select(subset)
        assert _step_keys(lazy) == _step_keys(exhaustive)

    def test_duplicate_candidates_collapse(self, small_catalog, model, candidates):
        budget = megabytes(512)
        doubled = list(candidates) + list(candidates)
        exhaustive = GreedySelector(small_catalog, model, budget).select(doubled)
        lazy = LazyGreedySelector(small_catalog, model, budget).select(doubled)
        assert _step_keys(lazy) == _step_keys(exhaustive)


class TestLazyEfficiency:
    def test_fewer_evaluations_than_exhaustive(self, small_catalog, model, candidates):
        budget = megabytes(512)
        exhaustive = GreedySelector(small_catalog, model, budget)
        exhaustive.select(candidates)
        lazy = LazyGreedySelector(small_catalog, model, budget)
        lazy.select(candidates)
        assert (
            lazy.statistics.candidate_evaluations
            <= exhaustive.statistics.candidate_evaluations
        )
        assert lazy.statistics.seconds >= 0.0
        assert lazy.statistics.query_evaluations > 0

    def test_oversized_candidates_pruned_permanently(self, small_catalog, model, candidates):
        selector = LazyGreedySelector(small_catalog, model, space_budget_bytes=1024)
        assert selector.select(candidates) == []
        assert selector.statistics.pruned_for_space == len(
            {candidate.key for candidate in candidates}
        )
        assert selector.statistics.candidate_evaluations == 0

    def test_exhaustive_prunes_oversized_once(self, small_catalog, model, candidates):
        selector = GreedySelector(small_catalog, model, space_budget_bytes=1024)
        assert selector.select(candidates) == []
        # Every candidate is pruned exactly once (first iteration), not per
        # iteration as the pre-pruning loop did.
        assert selector.statistics.pruned_for_space == len(candidates)
        assert selector.statistics.candidate_evaluations == 0

    def test_invalid_budget_rejected(self, small_catalog, model):
        with pytest.raises(AdvisorError):
            LazyGreedySelector(small_catalog, model, 0)


class TestIncrementalEvaluator:
    def test_delta_total_matches_workload_cost(self, model, candidates):
        evaluator = IncrementalWorkloadEvaluator(model)
        assert evaluator.total == model.workload_cost([])
        candidate = candidates[0]
        assert evaluator.cost_with([], candidate) == model.workload_cost([candidate])

    def test_commit_advances_the_baseline(self, model, candidates):
        evaluator = IncrementalWorkloadEvaluator(model)
        first = candidates[0]
        cost_with_first = evaluator.cost_with([], first)
        evaluator.commit([first], first)
        assert evaluator.total == cost_with_first
        assert evaluator.per_query_costs() == model.per_query_costs([first])

    def test_irrelevant_table_costs_the_current_total(self, model):
        stranger = Index("nowhere", ["nothing"])
        evaluator = IncrementalWorkloadEvaluator(model)
        assert evaluator.cost_with([], stranger) == pytest.approx(evaluator.total, rel=1e-12)
        # The oracle's delta path re-evaluates only queries reading the
        # candidate's table: here, none.
        model.select_engine("scalar")
        evaluator = IncrementalWorkloadEvaluator(model)
        before = model.query_evaluations
        assert evaluator.cost_with([], stranger) == evaluator.total
        assert model.query_evaluations == before

    def test_frontier_scores_what_cost_with_scores(self, model, candidates):
        for engine in ("auto", "scalar"):
            model.select_engine(engine)
            evaluator = IncrementalWorkloadEvaluator(model)
            assert evaluator.frontier([], []) == []
            batch = evaluator.frontier(candidates[:1], candidates[1:4])
            single = [evaluator.cost_with(candidates[:1], c) for c in candidates[1:4]]
            assert batch == pytest.approx(single, rel=1e-12)
            # Any candidate scored since the last commit commits for free.
            before = model.query_evaluations
            evaluator.commit(candidates[:1] + [candidates[2]], candidates[2])
            assert model.query_evaluations == before
            assert evaluator.total == pytest.approx(batch[1], rel=1e-12)


class TestAdvisorSelectorOption:
    def test_lazy_and_exhaustive_recommendations_match(self, small_catalog, workload):
        results = {}
        for selector in ("lazy", "exhaustive"):
            advisor = IndexAdvisor(
                small_catalog,
                Optimizer(small_catalog),
                AdvisorOptions(space_budget_bytes=megabytes(512), selector=selector),
            )
            results[selector] = advisor.recommend(workload)
        lazy, exhaustive = results["lazy"], results["exhaustive"]
        assert [i.key for i in lazy.selected_indexes] == [
            i.key for i in exhaustive.selected_indexes
        ]
        assert lazy.workload_cost_after == exhaustive.workload_cost_after
        assert (
            lazy.selection_candidate_evaluations
            <= exhaustive.selection_candidate_evaluations
        )

    def test_selection_stats_reported(self, small_catalog, workload):
        advisor = IndexAdvisor(
            small_catalog,
            Optimizer(small_catalog),
            AdvisorOptions(space_budget_bytes=megabytes(512)),
        )
        result = advisor.recommend(workload)
        assert result.selector == "lazy"
        assert result.engine in ("numpy", "python")
        assert result.selection_seconds >= 0.0
        assert result.selection_candidate_evaluations > 0
        assert result.selection_query_evaluations > 0
        assert "selection phase" in result.summary()

    def test_unknown_selector_rejected(self, small_catalog):
        with pytest.raises(AdvisorError):
            IndexAdvisor(
                small_catalog,
                Optimizer(small_catalog),
                AdvisorOptions(selector="random"),
            )

    def test_scalar_engine_option_accepted(self, small_catalog, workload):
        advisor = IndexAdvisor(
            small_catalog,
            Optimizer(small_catalog),
            AdvisorOptions(space_budget_bytes=megabytes(512), engine="scalar"),
        )
        result = advisor.recommend(workload)
        assert result.selected_indexes

    def test_unknown_engine_rejected_before_cache_build(self, small_catalog):
        with pytest.raises(AdvisorError):
            IndexAdvisor(
                small_catalog,
                Optimizer(small_catalog),
                AdvisorOptions(space_budget_bytes=megabytes(512), engine="gpu"),
            )
