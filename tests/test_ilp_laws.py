"""Laws of the ILP selector, checked as a property over random candidate sets.

On a small star pool whose caches are built once, every random nested pair
of candidate subsets must satisfy three laws:

* branch and bound returns the enumerated optimum (and proves it),
* it is never worse than the lazy-greedy selection it starts from, and
* the optimum does not increase when the candidate set grows -- a larger
  set only adds choices.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.advisor import CandidateGenerator
from repro.advisor.benefit import CacheBackedWorkloadCostModel
from repro.advisor.ilp.formulation import build_formulation
from repro.advisor.ilp.solver import BranchAndBoundSolver, solve_by_enumeration
from repro.advisor.lazy_greedy import LazyGreedySelector
from repro.optimizer import Optimizer
from repro.util.units import gigabytes

POOL_SIZE = 12


@pytest.fixture(scope="module")
def star_pool(star_workload):
    catalog = star_workload.catalog()
    queries = star_workload.queries()[:5]
    pool = CandidateGenerator(catalog).for_workload(queries)[:POOL_SIZE]
    model = CacheBackedWorkloadCostModel.build(Optimizer(catalog), queries, pool)
    return catalog, pool, model


@st.composite
def nested_subsets(draw):
    order = draw(st.permutations(range(POOL_SIZE)))
    small = draw(st.integers(min_value=0, max_value=POOL_SIZE - 1))
    large = draw(st.integers(min_value=small + 1, max_value=POOL_SIZE))
    budget = gigabytes(draw(st.sampled_from([1, 2, 3, 5])))
    return order[:small], order[:large], budget


@settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(case=nested_subsets())
def test_branch_and_bound_obeys_the_ilp_laws(star_pool, case):
    catalog, pool, model = star_pool
    small, large, budget = case
    objectives = []
    for positions in (small, large):
        candidates = [pool[position] for position in positions]
        formulation = build_formulation(model, catalog, candidates, budget)
        warm_steps = LazyGreedySelector(catalog, model, budget).select(candidates)
        warm = formulation.selection_of([step.chosen for step in warm_steps])
        solution = BranchAndBoundSolver(formulation).solve(warm, "lazy-greedy")
        truth = solve_by_enumeration(formulation)
        assert solution.proved_optimal
        assert solution.objective == pytest.approx(truth.objective, rel=1e-9)
        assert solution.objective <= formulation.cost(warm) + 1e-9
        objectives.append(solution.objective)
    assert objectives[1] <= objectives[0] * (1 + 1e-9)
