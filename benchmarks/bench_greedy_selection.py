"""Selection-phase performance: the seed's scalar loop vs the kernel's two selectors.

PR 1 made cache *construction* workload-scale, which moved the advisor's
dominant cost into the greedy selection loop: the seed implementation
re-evaluates every remaining candidate against the whole workload in every
iteration, walking every cached plan entry and slot in Python.  This
benchmark measures the selection phase alone (caches are built once, outside
the timed region) on the fig-7-style star workload at growing candidate
counts, comparing

* the seed path -- ``GreedySelector(incremental=False)`` over the scalar
  oracle's per-slot walk (``engine="scalar"``), kept as the frozen
  reference every ratio is normalized by, against
* ``lazy`` on the kernel -- ``LazyGreedySelector`` (CELF) over the workload
  arena (numpy when installed, pure Python otherwise): one batched frontier
  call for the first round, one-candidate re-scores afterwards, and
* ``exhaustive`` on the kernel -- ``GreedySelector`` over the same arena:
  the whole remaining frontier re-scored in one batched rank-1 masked-min
  per round,

and asserts all three produce the same index selections, with lazy at least
5x faster than the seed once the candidate set reaches 60 entries and the
exhaustive scan on the kernel at least 5x faster at the 120-candidate fig-7
scale (2.5x / 2x in quick mode).  Compiling the arena is inside both timed
regions.

The selections are compared as sets: the star schema's dimensions are
symmetric, so distinct candidates can carry *mathematically identical*
benefits, and the numpy backend's reassociated sums may land such an exact
tie one ulp apart from the scalar walk, permuting the order of the tied
picks.  On this read-only workload diminishing returns hold, so the lazy and
exhaustive loops agree (they legitimately differ on the mixed read/write
workload, see :mod:`repro.advisor.lazy_greedy`); here all paths must pick
the same indexes, the same number of steps and the same final workload cost.

Run with:  pytest benchmarks/bench_greedy_selection.py --benchmark-only -s
"""

from __future__ import annotations

import time

from repro.advisor import CandidateGenerator
from repro.advisor.benefit import CacheBackedWorkloadCostModel
from repro.advisor.greedy import GreedySelector
from repro.advisor.lazy_greedy import LazyGreedySelector
from repro.bench.harness import ExperimentTable
from repro.optimizer import Optimizer
from repro.util.units import gigabytes

from benchmarks.conftest import bench_query_count

#: Candidate-set sizes the selection loops are timed at.  The acceptance
#: threshold applies from 60 candidates up.
CANDIDATE_COUNTS = (20, 60, 120)
#: The paper's space budget (5 GB against a 10 GB database).
BUDGET = gigabytes(5)


def _required_speedup() -> float:
    """Speedup floor at >= 60 candidates.

    Delta evaluation's edge grows with the number of queries a candidate
    does *not* touch, so the 5x acceptance threshold applies to the full
    ten-query fig-7 workload; CI quick mode (REPRO_BENCH_QUERIES=4) asserts
    a softer floor.
    """
    return 5.0 if bench_query_count() >= 8 else 2.5


def _required_exhaustive_speedup() -> float:
    """Floor for the exhaustive scan on the kernel vs the seed, largest count.

    Batching a whole frontier per round needs the fig-7 scale (120
    candidates, ten queries) to dominate, so quick mode asserts a soft floor.
    """
    return 5.0 if bench_query_count() >= 8 else 2.0


def _run_selection_comparison(star_workload):
    catalog = star_workload.catalog()
    queries = star_workload.queries()[: bench_query_count()]
    candidates = CandidateGenerator(catalog).for_workload(queries)
    counts = sorted({min(count, len(candidates)) for count in CANDIDATE_COUNTS})

    # One cache build (excluded from all timings) serves every path: the
    # model is flipped between the scalar oracle and the kernel.
    model = CacheBackedWorkloadCostModel.build(
        Optimizer(catalog), queries, candidates[: max(counts)], mode="pinum", engine="scalar"
    )

    rows = []
    for count in counts:
        subset = candidates[:count]

        model.select_engine("scalar")
        seed_selector = GreedySelector(catalog, model, BUDGET, incremental=False)
        started = time.perf_counter()
        seed_steps = seed_selector.select(subset)
        seed_seconds = time.perf_counter() - started

        # The kernel: arena compilation plus selection, both timed.
        started = time.perf_counter()
        model.select_engine("auto")
        lazy_selector = LazyGreedySelector(catalog, model, BUDGET)
        lazy_steps = lazy_selector.select(subset)
        lazy_seconds = time.perf_counter() - started
        backend = model.engine_backend

        started = time.perf_counter()
        model.select_engine("auto")  # a cold model compiles a fresh arena
        exhaustive_selector = GreedySelector(catalog, model, BUDGET)
        exhaustive_steps = exhaustive_selector.select(subset)
        exhaustive_seconds = time.perf_counter() - started

        seed_keys = {step.chosen.key for step in seed_steps}
        for label, steps in (("lazy", lazy_steps), ("exhaustive", exhaustive_steps)):
            assert {step.chosen.key for step in steps} == seed_keys and len(steps) == len(
                seed_steps
            ), f"{label} selection on the kernel diverged from the seed path at {count} candidates"
            if seed_steps:
                seed_final = seed_steps[-1].workload_cost_after
                final = steps[-1].workload_cost_after
                assert abs(seed_final - final) <= 1e-9 * max(1.0, abs(seed_final)), (
                    f"{label} final workload cost diverged at {count} candidates"
                )

        rows.append(
            {
                "candidates": count,
                "picked": len(seed_steps),
                "seed_seconds": seed_seconds,
                "lazy_seconds": lazy_seconds,
                "exhaustive_seconds": exhaustive_seconds,
                "speedup": seed_seconds / max(lazy_seconds, 1e-9),
                "exhaustive_speedup": seed_seconds / max(exhaustive_seconds, 1e-9),
                "seed_evaluations": seed_selector.statistics.candidate_evaluations,
                "lazy_evaluations": lazy_selector.statistics.candidate_evaluations,
                "exhaustive_evaluations": exhaustive_selector.statistics.candidate_evaluations,
                "engine": backend,
            }
        )

    table = ExperimentTable(
        "Selection phase: exhaustive scalar (seed) vs lazy and exhaustive on the "
        f"{backend} arena (budget 5 GB, {len(queries)} queries)",
        ["candidates", "picked", "seed (ms)", "lazy (ms)", "exhaustive (ms)",
         "lazy speedup", "exhaustive speedup"],
    )
    for row in rows:
        table.add_row(
            row["candidates"], row["picked"],
            row["seed_seconds"] * 1000.0, row["lazy_seconds"] * 1000.0,
            row["exhaustive_seconds"] * 1000.0,
            f"{row['speedup']:.1f}x", f"{row['exhaustive_speedup']:.1f}x",
        )
    return table, rows


def test_selection_phase_speedup(benchmark, star_workload):
    """Both selectors on the kernel match the seed picks at >= 5x the speed."""
    table, rows = benchmark.pedantic(
        _run_selection_comparison, args=(star_workload,), rounds=1, iterations=1
    )
    table.print()
    # Selection-phase numbers land in BENCH_ci.json via pytest-benchmark.
    benchmark.extra_info["selection_phase"] = rows
    assert rows
    for row in rows:
        assert row["lazy_evaluations"] <= row["seed_evaluations"]
    large = [row for row in rows if row["candidates"] >= 60]
    assert large, "the workload produced fewer than 60 candidate indexes"
    required = _required_speedup()
    for row in large:
        assert row["speedup"] >= required, (
            f"selection speedup {row['speedup']:.1f}x at {row['candidates']} candidates "
            f"is below the required {required}x"
        )
    # The exhaustive floor applies at the largest (fig-7 default, 120) count
    # only: below that a round has too little frontier to amortize a batch.
    largest = rows[-1]
    required = _required_exhaustive_speedup()
    assert largest["exhaustive_speedup"] >= required, (
        f"exhaustive-on-kernel speedup {largest['exhaustive_speedup']:.1f}x vs the "
        f"seed at {largest['candidates']} candidates is below the required {required}x"
    )
