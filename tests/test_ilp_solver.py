"""Tests for the branch-and-bound BIP solver: exactness, anytime behaviour.

The ground truth is :func:`solve_by_enumeration` -- on every instance small
enough to enumerate, branch and bound must return exactly the optimal
objective and prove it (gap 0).  On any instance, interrupting the solver
must still return a selection no worse than the lazy-greedy warm start,
with an honestly reported gap.
"""

from __future__ import annotations

import random

import pytest

from repro.advisor import CandidateGenerator
from repro.advisor.benefit import CacheBackedWorkloadCostModel
from repro.advisor.ilp.formulation import build_formulation
from repro.advisor.ilp.solver import (
    BranchAndBoundSolver,
    IlpSolverOptions,
    solve_by_enumeration,
)
from repro.advisor.lazy_greedy import LazyGreedySelector
from repro.optimizer import Optimizer
from repro.util.errors import AdvisorError
from repro.util.units import gigabytes


def _instance(star_workload, rng, query_count=5, candidate_count=12, mixed=False):
    catalog = star_workload.catalog()
    if mixed:
        workload = star_workload.mixed(read_fraction=0.6)
        statements = workload.statements
        weights = workload.weights
        reads = [s for s in statements if not s.is_dml]
    else:
        statements = rng.sample(star_workload.queries(), query_count)
        weights = None
        reads = statements
    pool = CandidateGenerator(catalog).for_workload(reads)
    candidates = rng.sample(pool, min(candidate_count, len(pool)))
    model = CacheBackedWorkloadCostModel.build(
        Optimizer(catalog), statements, candidates, weights=weights
    )
    budget = gigabytes(rng.choice([1, 2, 3, 5]))
    formulation = build_formulation(model, catalog, candidates, budget)
    warm_steps = LazyGreedySelector(catalog, model, budget).select(candidates)
    warm = formulation.selection_of([step.chosen for step in warm_steps])
    return formulation, warm


class TestExactness:
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_matches_enumeration_read_only(self, star_workload, seed):
        rng = random.Random(seed)
        formulation, warm = _instance(star_workload, rng)
        truth = solve_by_enumeration(formulation)
        solution = BranchAndBoundSolver(formulation).solve(warm, "lazy-greedy")
        assert solution.objective == pytest.approx(truth.objective, rel=1e-9)
        assert solution.proved_optimal
        assert solution.optimality_gap == 0.0
        assert formulation.fits(solution.selection)

    @pytest.mark.parametrize("seed", [5, 19])
    def test_matches_enumeration_mixed(self, star_workload, seed):
        rng = random.Random(seed)
        formulation, warm = _instance(star_workload, rng, mixed=True, candidate_count=10)
        truth = solve_by_enumeration(formulation)
        solution = BranchAndBoundSolver(formulation).solve(warm, "lazy-greedy")
        assert solution.objective == pytest.approx(truth.objective, rel=1e-9)
        assert solution.proved_optimal
        assert formulation.fits(solution.selection)

    def test_never_worse_than_warm_start(self, star_workload):
        rng = random.Random(41)
        for _ in range(3):
            formulation, warm = _instance(star_workload, rng, candidate_count=16)
            solution = BranchAndBoundSolver(
                formulation, IlpSolverOptions(time_limit=2.0)
            ).solve(warm, "lazy-greedy")
            assert solution.objective <= formulation.cost(warm) + 1e-9

    def test_empty_candidate_set(self, star_workload):
        catalog = star_workload.catalog()
        queries = star_workload.queries()[:2]
        model = CacheBackedWorkloadCostModel.build(Optimizer(catalog), queries, [])
        formulation = build_formulation(model, catalog, [], gigabytes(1))
        solution = BranchAndBoundSolver(formulation).solve(0, "lazy-greedy")
        assert solution.selection == 0
        assert solution.proved_optimal
        assert solution.objective == pytest.approx(
            model.weighted_total(model.per_query_costs([])), rel=1e-9
        )


class TestAnytime:
    def test_zero_time_limit_returns_warm_start_with_valid_gap(self, star_workload):
        rng = random.Random(13)
        formulation, warm = _instance(star_workload, rng, candidate_count=20)
        solution = BranchAndBoundSolver(
            formulation, IlpSolverOptions(time_limit=0.0)
        ).solve(warm, "lazy-greedy")
        # Nothing explored: the warm incumbent (or the root dive, if it beat
        # it for free) comes back, and the gap derives from the root bound.
        assert solution.objective <= formulation.cost(warm) + 1e-9
        assert 0.0 <= solution.optimality_gap <= 1.0
        assert solution.best_bound <= solution.objective + 1e-9
        assert solution.status in ("time_limit", "optimal")

    def test_node_limit_reports_gap(self, star_workload):
        rng = random.Random(37)
        formulation, warm = _instance(star_workload, rng, candidate_count=20)
        solution = BranchAndBoundSolver(
            formulation, IlpSolverOptions(max_nodes=1)
        ).solve(warm, "lazy-greedy")
        assert solution.status in ("node_limit", "optimal")
        assert 0.0 <= solution.optimality_gap <= 1.0

    # Seeds chosen so the 10% run actually settles on a sub-optimal
    # selection (exercising the proof-floor accounting, not just the happy
    # path where the warm start was optimal anyway).
    @pytest.mark.parametrize("seed", [0, 10, 20])
    def test_relaxed_gap_stops_early_but_stays_honest(self, star_workload, seed):
        rng = random.Random(seed)
        formulation, warm = _instance(star_workload, rng, candidate_count=16)
        exact = BranchAndBoundSolver(formulation).solve(warm, "lazy-greedy")
        relaxed = BranchAndBoundSolver(
            formulation, IlpSolverOptions(gap=0.10)
        ).solve(warm, "lazy-greedy")
        assert relaxed.nodes_explored <= exact.nodes_explored
        # The proven gap guarantees the relaxed answer is within 10 % of the
        # true optimum.
        assert relaxed.objective <= exact.objective * 1.10 + 1e-9
        assert relaxed.optimality_gap <= 0.10 + 1e-12
        # The reported proof must *cover* the true distance to the optimum:
        # nodes discarded against the gap-relaxed threshold still count
        # toward the proof floor, so a gap-limited run may never claim
        # "proved optimal" while sitting above the true optimum.
        if relaxed.objective > exact.objective * (1 + 1e-9):
            true_gap = (relaxed.objective - exact.objective) / relaxed.objective
            assert relaxed.optimality_gap >= true_gap - 1e-12
            assert not relaxed.proved_optimal
        assert relaxed.best_bound <= exact.objective * (1 + 1e-9)


class TestValidation:
    def test_solver_options_validate(self):
        with pytest.raises(AdvisorError, match="ilp_gap"):
            IlpSolverOptions(gap=-0.1)
        with pytest.raises(AdvisorError, match="ilp_gap"):
            IlpSolverOptions(gap=float("inf"))
        with pytest.raises(AdvisorError, match="ilp_time_limit"):
            IlpSolverOptions(time_limit=-1.0)
        with pytest.raises(AdvisorError, match="node limit"):
            IlpSolverOptions(max_nodes=0)
        assert IlpSolverOptions(time_limit=None).time_limit is None

    def test_overweight_warm_start_rejected(self, star_workload):
        rng = random.Random(3)
        formulation, _ = _instance(star_workload, rng)
        too_big = (1 << formulation.candidate_count) - 1
        if formulation.fits(too_big):
            pytest.skip("every candidate fits this budget draw")
        with pytest.raises(AdvisorError, match="space budget"):
            BranchAndBoundSolver(formulation).solve(too_big)

    def test_enumeration_refuses_large_instances(self, star_workload):
        catalog = star_workload.catalog()
        queries = star_workload.queries()[:3]
        candidates = CandidateGenerator(catalog).for_workload(queries)[:30]
        model = CacheBackedWorkloadCostModel.build(Optimizer(catalog), queries, candidates)
        formulation = build_formulation(model, catalog, candidates, gigabytes(5))
        with pytest.raises(AdvisorError, match="enumeration"):
            solve_by_enumeration(formulation)
