"""Recommendation quality: lazy-greedy vs the ILP solver, and its gap/time curve.

PR 2 made the greedy search fast; this benchmark measures what the CoPhy-
style BIP solver buys on top: *quality with a proof*.  On the fig-7-style
star workload the solver

* never returns a configuration worse than lazy-greedy (its warm start),
* at 120 candidates finds a configuration well below greedy's -- the greedy
  pick sequence is provably sub-optimal under the 5 GB knapsack -- and
* reports a proven optimality gap at every time limit, shrinking to 0 when
  the search completes.

Two tables are printed: benefit vs lazy-greedy at growing candidate counts,
and the anytime gap/objective trajectory at increasing time limits.  Quick
mode (CI) asserts the ILP benefit is never below greedy's and that the
final proven gap stays within 5 %; the full run proves optimality outright.

Run with:  pytest benchmarks/bench_ilp_quality.py --benchmark-only -s
"""

from __future__ import annotations

import time

from repro.advisor import CandidateGenerator
from repro.advisor.benefit import CacheBackedWorkloadCostModel
from repro.advisor.ilp.formulation import build_formulation
from repro.advisor.ilp.solver import BranchAndBoundSolver, IlpSolverOptions
from repro.advisor.lazy_greedy import LazyGreedySelector
from repro.bench.harness import ExperimentTable
from repro.optimizer import Optimizer
from repro.util.units import gigabytes

from benchmarks.conftest import bench_query_count

#: Candidate-set sizes the quality comparison runs at (the fig-7 scale and
#: the CLI's DEFAULT_MAX_CANDIDATES).
CANDIDATE_COUNTS = (60, 120)
#: The paper's space budget (5 GB against a 10 GB database).
BUDGET = gigabytes(5)
#: Anytime trajectory: wall-clock limits the solver is interrupted at.
TIME_LIMITS = (0.05, 0.5, 2.0, 30.0)
#: Proven-gap ceiling asserted in every mode.
MAX_FINAL_GAP = 0.05


def _run_quality_comparison(star_workload):
    catalog = star_workload.catalog()
    queries = star_workload.queries()[: bench_query_count()]
    pool = CandidateGenerator(catalog).for_workload(queries)
    counts = sorted({min(count, len(pool)) for count in CANDIDATE_COUNTS})

    quality_rows = []
    anytime_rows = []
    for count in counts:
        candidates = pool[:count]
        model = CacheBackedWorkloadCostModel.build(
            Optimizer(catalog), queries, candidates, mode="pinum"
        )
        baseline = model.weighted_total(model.per_query_costs([]))

        started = time.perf_counter()
        lazy_steps = LazyGreedySelector(catalog, model, BUDGET).select(candidates)
        lazy_seconds = time.perf_counter() - started
        lazy_cost = (
            lazy_steps[-1].workload_cost_after if lazy_steps else baseline
        )

        formulation = build_formulation(model, catalog, candidates, BUDGET)
        warm = formulation.selection_of([step.chosen for step in lazy_steps])

        # Anytime trajectory (fresh solver per limit, same warm start).
        for limit in TIME_LIMITS:
            solution = BranchAndBoundSolver(
                formulation, IlpSolverOptions(time_limit=limit)
            ).solve(warm, "lazy-greedy")
            anytime_rows.append(
                {
                    "candidates": count,
                    "time_limit": limit,
                    "objective": solution.objective,
                    "gap": solution.optimality_gap,
                    "nodes": solution.nodes_explored,
                    "status": solution.status,
                }
            )
            if solution.proved_optimal:
                break

        started = time.perf_counter()
        solution = BranchAndBoundSolver(
            formulation, IlpSolverOptions(time_limit=60.0)
        ).solve(warm, "lazy-greedy")
        ilp_seconds = time.perf_counter() - started

        assert solution.objective <= lazy_cost * (1 + 1e-9), (
            f"ILP returned a worse configuration than lazy-greedy at {count} candidates"
        )
        assert solution.optimality_gap <= MAX_FINAL_GAP, (
            f"proven gap {solution.optimality_gap:.3f} exceeds {MAX_FINAL_GAP:.0%} "
            f"at {count} candidates"
        )

        quality_rows.append(
            {
                "candidates": count,
                "baseline": baseline,
                "lazy_cost": lazy_cost,
                "ilp_cost": solution.objective,
                "lazy_benefit": baseline - lazy_cost,
                "ilp_benefit": baseline - solution.objective,
                "improvement_pct": (
                    0.0
                    if lazy_cost <= solution.objective
                    else 100.0 * (lazy_cost - solution.objective) / lazy_cost
                ),
                "gap": solution.optimality_gap,
                "nodes": solution.nodes_explored,
                "incumbent_source": solution.incumbent_source,
                "lazy_seconds": lazy_seconds,
                "ilp_seconds": ilp_seconds,
            }
        )
    return quality_rows, anytime_rows, len(queries)


def test_ilp_quality_vs_greedy(benchmark, star_workload):
    """ILP benefit >= lazy-greedy's, with the optimality gap proven."""
    quality_rows, anytime_rows, query_count = benchmark.pedantic(
        _run_quality_comparison, args=(star_workload,), rounds=1, iterations=1
    )

    table = ExperimentTable(
        f"Selection quality: lazy greedy vs ILP (budget 5 GB, {query_count} queries)",
        ["candidates", "lazy benefit", "ilp benefit", "ilp vs lazy", "proven gap",
         "nodes", "lazy (s)", "ilp (s)"],
    )
    for row in quality_rows:
        table.add_row(
            row["candidates"], row["lazy_benefit"], row["ilp_benefit"],
            f"+{row['improvement_pct']:.1f}%",
            f"{row['gap'] * 100.0:.2f}%", row["nodes"],
            f"{row['lazy_seconds']:.2f}", f"{row['ilp_seconds']:.2f}",
        )
    table.print()

    curve = ExperimentTable(
        "Anytime behaviour: proven gap vs time limit",
        ["candidates", "time limit (s)", "objective", "proven gap", "nodes", "status"],
    )
    for row in anytime_rows:
        curve.add_row(
            row["candidates"], row["time_limit"], row["objective"],
            f"{row['gap'] * 100.0:.2f}%", row["nodes"], row["status"],
        )
    curve.print()

    benchmark.extra_info["ilp_quality"] = quality_rows
    benchmark.extra_info["ilp_anytime"] = anytime_rows

    assert quality_rows
    for row in quality_rows:
        # The warm start makes "never worse" structural; the gap assertion
        # ran inside the comparison.  On the full ten-query workload the
        # solver must additionally *beat* greedy at the CLI's default
        # candidate count -- the quality headroom this subsystem exists for.
        assert row["ilp_benefit"] >= row["lazy_benefit"] - 1e-6
    if query_count >= 8:
        largest = quality_rows[-1]
        assert largest["gap"] == 0.0, "full fig-7 run must prove optimality"
        assert largest["ilp_benefit"] > largest["lazy_benefit"], (
            "ILP should strictly beat lazy-greedy at the default candidate count"
        )
