"""Tests for the ILP formulation layer: BIP compilation over INUM caches.

The formulation's arithmetic must agree with the cost models the greedy
selectors use -- for any integral selection, ``formulation.cost(bits)``
equals the weighted workload cost the advisor would report for the same
index set.  The benefit caps backing the solver's relaxation must be
*sound*: no candidate set may ever gain more than ``slack + sum(caps)``.
"""

from __future__ import annotations

import random

import pytest

from repro.advisor import CandidateGenerator
from repro.advisor.benefit import CacheBackedWorkloadCostModel, OptimizerWorkloadCostModel
from repro.advisor.ilp.formulation import build_formulation, iterate_bits
from repro.optimizer import Optimizer
from repro.util.errors import AdvisorError
from repro.util.units import gigabytes

BUDGET = gigabytes(5)


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
        catalog, queries, candidates, model = _star_model(star_workload, query_count=3)
        formulation = build_formulation(model, catalog, candidates, BUDGET)
        per_statement = formulation.statement_costs(0)
        baseline = model.per_query_costs([])
        for query in queries:
            assert per_statement[query.name] == pytest.approx(
                baseline[query.name], rel=1e-9
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
    def test_statistics_describe_the_explicit_program(self, star_workload):
        catalog, queries, candidates, model = _star_model(star_workload)
        formulation = build_formulation(model, catalog, candidates, BUDGET)
        stats = formulation.statistics
        assert stats.statements == len(queries)
        assert stats.candidates == len(candidates)
        assert stats.index_variables == len(candidates)
        # One y per cached plan entry of every statement.
        assert stats.plan_variables == sum(
            len(program.entry_internal) for program in formulation.programs
        )
        # z variables exist and each contributes at least its class-served
        # row, so the constraint count dominates the statement count.
        assert stats.assignment_variables > stats.plan_variables
        assert stats.constraints > stats.statements
        assert stats.variables == (
            stats.index_variables + stats.plan_variables + stats.assignment_variables
        )

    def test_knapsack_helpers(self, star_workload):
        catalog, queries, candidates, model = _star_model(star_workload, query_count=3)
        formulation = build_formulation(model, catalog, candidates, BUDGET)
        bits = formulation.selection_of(candidates[:4])
        expected = sum(catalog.index_size_bytes(index) for index in candidates[:4])
        assert formulation.total_size(bits) == expected
        assert formulation.fits(0)


class TestCapSoundness:
    def test_benefit_never_exceeds_slack_plus_caps(self, star_workload):
        """The relaxation inequality behind every branch-and-bound prune."""
        catalog, queries, candidates, model = _star_model(
            star_workload, query_count=6, candidate_count=30
        )
        formulation = build_formulation(model, catalog, candidates, BUDGET)
        rng = random.Random(23)
        positions = range(formulation.candidate_count)
        for _ in range(25):
            base = sum(1 << p for p in rng.sample(positions, rng.randint(0, 4)))
            extra = sum(
                1 << p
                for p in rng.sample(positions, rng.randint(1, 8))
                if not (base >> p) & 1
            )
            if not extra:
                continue
            for program in formulation.programs:
                base_mask = program.active_mask(base)
                all_mask = program.active_mask(base | extra)
                benefit = program.read_cost_for_mask(base_mask) - program.read_cost_for_mask(
                    all_mask
                )
                caps = program.caps(base_mask)
                slack = program.slack(base_mask, all_mask)
                cap_sum = sum(
                    caps[program.column_of_candidate[p]]
                    for p in iterate_bits(extra)
                    if p in program.column_of_candidate
                )
                assert benefit <= slack + cap_sum + 1e-6 * max(1.0, abs(benefit))

    def test_monotone_read_costs(self, star_workload):
        catalog, queries, candidates, model = _star_model(star_workload, query_count=4)
        formulation = build_formulation(model, catalog, candidates, BUDGET)
        rng = random.Random(7)
        for _ in range(10):
            small = formulation.selection_of(rng.sample(candidates, 3))
            large = small | formulation.selection_of(rng.sample(candidates, 5))
            for program in formulation.programs:
                assert (
                    program.read_cost_for_mask(program.active_mask(large))
                    <= program.read_cost_for_mask(program.active_mask(small)) + 1e-12
                )
