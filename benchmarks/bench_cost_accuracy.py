"""E3 -- Section VI-C: accuracy of the cache-based (PINUM) cost model.

The paper generates 1000 random atomic configurations per workload query and
compares PINUM's cache-based estimate against the optimizer's what-if answer:
six of ten queries show <1 % error, three about 4 %, one about 9 %.

The number of configurations per query defaults to 60 here (override with
``REPRO_BENCH_CONFIGS=1000`` to match the paper exactly; each configuration
costs one optimizer call for the ground truth).

Run with:  pytest benchmarks/bench_cost_accuracy.py --benchmark-only -s
"""

from __future__ import annotations

from repro.bench.harness import ExperimentTable, relative_error
from repro.inum import AtomicConfiguration, InumCostModel
from repro.optimizer import Optimizer
from repro.optimizer.whatif import WhatIfOptimizer
from repro.pinum import PinumCacheBuilder
from repro.util.rng import DeterministicRNG

from benchmarks.conftest import bench_config_count


def _random_atomic_configuration(rng, candidates_by_table):
    chosen = []
    for indexes in candidates_by_table.values():
        if rng.random() < 0.7:
            chosen.append(rng.choice(indexes))
    return AtomicConfiguration(chosen)


def _run_cost_accuracy(star_catalog, star_queries, candidate_generator) -> ExperimentTable:
    optimizer = Optimizer(star_catalog)
    whatif = WhatIfOptimizer(optimizer)
    rng = DeterministicRNG(41)
    configurations_per_query = bench_config_count()

    table = ExperimentTable(
        "E3: cache-based cost-model accuracy "
        f"({configurations_per_query} random atomic configurations per query)",
        ["query", "tables", "avg error", "max error"],
    )
    summary_errors = []
    for query in star_queries:
        candidates = candidate_generator.for_query(query)
        cache = PinumCacheBuilder(optimizer).build_cache(query, candidates)
        model = InumCostModel(cache)
        by_table = {}
        for candidate in candidates:
            by_table.setdefault(candidate.table, []).append(candidate)
        errors = []
        for _ in range(configurations_per_query):
            configuration = _random_atomic_configuration(rng, by_table)
            actual = whatif.cost_with_configuration(query, configuration.indexes)
            errors.append(relative_error(model.estimate(configuration), actual))
        average = 100 * sum(errors) / len(errors)
        summary_errors.append(average)
        table.add_row(query.name, query.table_count, f"{average:.2f}%", f"{100 * max(errors):.2f}%")

    below_1 = sum(1 for value in summary_errors if value < 1.0)
    table.add_row("queries with <1% avg error", "", f"{below_1}/{len(summary_errors)}", "")
    table.add_row("paper", "", "6/10 below 1%, 3 near 4%, 1 near 9%", "")
    return table


def test_cost_estimation_accuracy(benchmark, star_catalog, star_queries, candidate_generator):
    """Most queries must have low single-digit average error, like the paper."""
    table = benchmark.pedantic(
        _run_cost_accuracy,
        args=(star_catalog, star_queries, candidate_generator),
        rounds=1,
        iterations=1,
    )
    table.print()
    per_query_rows = [row for row in table.rows if row[0].startswith("Q")]
    averages = [float(row[2].rstrip("%")) for row in per_query_rows]
    assert all(value < 15.0 for value in averages)
    assert sum(1 for value in averages if value < 2.0) >= len(averages) // 2
