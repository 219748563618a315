"""Tests for the ILP formulation layer: the BIP posed over the workload arena.

The formulation's arithmetic must agree with the cost models the greedy
selectors use -- for any integral selection, ``formulation.cost(bits)``
equals the weighted workload cost the advisor would report for the same
index set.  The arena's bound terms backing the solver's relaxation must be
*sound* on both backends: no candidate set may ever gain a query more than
its ``slack + sum(caps)``.
"""

from __future__ import annotations

import random

import pytest

from repro.advisor import CandidateGenerator
from repro.advisor.benefit import CacheBackedWorkloadCostModel, OptimizerWorkloadCostModel
from repro.advisor.ilp.formulation import build_formulation
from repro.inum.arena import compile_arena
from repro.inum.compiled import numpy_available
from repro.optimizer import Optimizer
from repro.util.errors import AdvisorError
from repro.util.units import gigabytes

BUDGET = gigabytes(5)

#: Both arena backends when numpy is installed, the pure-Python one otherwise.
_BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])


def _star_model(star_workload, query_count=5, candidate_count=25, weights=None,
                statements=None):
    catalog = star_workload.catalog()
    queries = statements if statements is not None else star_workload.queries()[:query_count]
    reads = [q for q in queries if not q.is_dml]
    candidates = CandidateGenerator(catalog).for_workload(reads)[:candidate_count]
    model = CacheBackedWorkloadCostModel.build(
        Optimizer(catalog), queries, candidates, weights=weights
    )
    return catalog, queries, candidates, model


class TestFormulationCost:
    def test_matches_cost_model_on_random_selections(self, star_workload):
        catalog, queries, candidates, model = _star_model(star_workload)
        formulation = build_formulation(model, catalog, candidates, BUDGET)
        rng = random.Random(17)
        for _ in range(8):
            picks = rng.sample(candidates, rng.randint(0, 8))
            bits = formulation.selection_of(picks)
            expected = model.weighted_total(model.per_query_costs(picks))
            assert formulation.cost(bits) == pytest.approx(expected, rel=1e-9)

    def test_matches_weighted_mixed_workload(self, star_workload):
        mixed = star_workload.mixed(read_fraction=0.6)
        catalog = star_workload.catalog()
        _, _, candidates, model = _star_model(
            star_workload, statements=mixed.statements, weights=mixed.weights,
            candidate_count=20,
        )
        formulation = build_formulation(model, catalog, candidates, BUDGET)
        rng = random.Random(5)
        for _ in range(6):
            picks = rng.sample(candidates, rng.randint(0, 6))
            bits = formulation.selection_of(picks)
            expected = model.weighted_total(model.per_query_costs(picks))
            assert formulation.cost(bits) == pytest.approx(expected, rel=1e-9)

    def test_statement_costs_are_per_execution(self, star_workload):
        mixed = star_workload.mixed(read_fraction=0.6)
        catalog = star_workload.catalog()
        _, _, candidates, model = _star_model(
            star_workload, statements=mixed.statements, weights=mixed.weights,
            candidate_count=10,
        )
        formulation = build_formulation(model, catalog, candidates, BUDGET)
        # The formulation prices on the model's own arena.
        assert formulation.arena is model.arena
        per_execution = model.per_query_costs([])
        expected = sum(
            model.weight_of(name) * per_execution[name]
            for name in formulation.arena.query_names
        )
        assert formulation.cost(0) == pytest.approx(expected, rel=1e-9)

    def test_scalar_oracle_model_gets_an_arena(self, star_workload):
        catalog, queries, candidates, model = _star_model(star_workload, query_count=3)
        model.select_engine("scalar")
        assert model.arena is None
        formulation = build_formulation(model, catalog, candidates, BUDGET)
        assert formulation.arena.query_names == [query.name for query in queries]
        picks = candidates[:5]
        assert formulation.cost(formulation.selection_of(picks)) == pytest.approx(
            model.workload_cost(picks), rel=1e-9
        )

    def test_duplicate_candidates_collapse(self, star_workload):
        catalog, queries, candidates, model = _star_model(star_workload, query_count=3)
        doubled = list(candidates) + list(candidates)
        formulation = build_formulation(model, catalog, doubled, BUDGET)
        assert formulation.candidate_count == len(candidates)
        bits = formulation.selection_of(candidates[:3])
        assert [index.key for index in formulation.selected(bits)] == [
            index.key for index in candidates[:3]
        ]

    def test_rejects_cache_free_cost_model(self, star_workload):
        catalog = star_workload.catalog()
        queries = star_workload.queries()[:2]
        model = OptimizerWorkloadCostModel(Optimizer(catalog), queries)
        with pytest.raises(AdvisorError, match="cache-backed cost model"):
            build_formulation(model, catalog, [], BUDGET)

    def test_rejects_non_positive_budget(self, star_workload):
        catalog, queries, candidates, model = _star_model(star_workload, query_count=2)
        with pytest.raises(AdvisorError, match="space_budget_bytes"):
            build_formulation(model, catalog, candidates, 0)


class TestBipAccounting:
    def test_knapsack_helpers(self, star_workload):
        catalog, queries, candidates, model = _star_model(star_workload, query_count=3)
        formulation = build_formulation(model, catalog, candidates, BUDGET)
        bits = formulation.selection_of(candidates[:4])
        expected = sum(catalog.index_size_bytes(index) for index in candidates[:4])
        assert formulation.total_size(bits) == expected
        assert formulation.fits(0)


def _columns(arena, indexes):
    columns = (arena.column_for(index) for index in indexes)
    return [column for column in columns if column is not None]


def _unit(arena, query):
    """Weights that pick one query's terms out of the weighted totals."""
    return [1.0 if position == query else 0.0 for position in range(arena.query_count)]


def _check_soundness(arena, candidates):
    rng = random.Random(23)
    for _ in range(25):
        base = rng.sample(candidates, rng.randint(0, 4))
        extra = [c for c in rng.sample(candidates, rng.randint(1, 8)) if c not in base]
        extra_columns = _columns(arena, extra)
        for query in range(arena.query_count):
            weights = _unit(arena, query)
            terms = arena.bound_terms(_columns(arena, base), extra_columns, weights)
            caps = dict(zip(extra_columns, terms.caps))
            # Sets between base and base + extra, the extremes included.
            for added in (extra, rng.sample(extra, rng.randint(0, len(extra))), []):
                read = arena.bound_terms(_columns(arena, base + added), [], weights).read_fixed
                benefit = terms.read_fixed - read
                cap_sum = sum(caps.get(arena.column_for(index), 0.0) for index in added)
                assert benefit <= terms.slack + cap_sum + 1e-6 * max(1.0, abs(benefit))
                if added is extra:
                    assert terms.read_everything == pytest.approx(read, rel=1e-12)


class TestCapSoundness:
    def test_benefit_never_exceeds_slack_plus_caps(self, star_workload):
        """The relaxation inequality behind every branch-and-bound prune."""
        catalog, queries, candidates, model = _star_model(
            star_workload, query_count=6, candidate_count=30
        )
        for backend in _BACKENDS:
            _check_soundness(compile_arena(queries, model.caches, backend=backend), candidates)

    @pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
    def test_backends_agree(self, star_workload):
        catalog, queries, candidates, model = _star_model(
            star_workload, query_count=6, candidate_count=30
        )
        arenas = [compile_arena(queries, model.caches, backend=b) for b in ("python", "numpy")]
        rng = random.Random(31)
        for _ in range(10):
            base = rng.sample(candidates, rng.randint(0, 5))
            free = [c for c in rng.sample(candidates, rng.randint(0, 12)) if c not in base]
            weights = [rng.uniform(0.0, 5.0) for _ in queries]
            python_terms, numpy_terms = (
                arena.bound_terms(_columns(arena, base), _columns(arena, free), weights)
                for arena in arenas
            )
            for have, want in zip(numpy_terms[:3], python_terms[:3]):
                assert have == pytest.approx(want, rel=1e-9, abs=1e-9)
            assert numpy_terms.caps == pytest.approx(python_terms.caps, rel=1e-9, abs=1e-9)

    def test_monotone_read_costs(self, star_workload):
        catalog, queries, candidates, model = _star_model(star_workload, query_count=4)
        for backend in _BACKENDS:
            arena = compile_arena(queries, model.caches, backend=backend)
            rng = random.Random(7)
            for _ in range(10):
                small = rng.sample(candidates, 3)
                large = small + rng.sample(candidates, 5)
                for query in range(arena.query_count):
                    terms = arena.bound_terms(
                        _columns(arena, small), _columns(arena, large), _unit(arena, query)
                    )
                    assert terms.read_everything <= terms.read_fixed + 1e-12
