#!/usr/bin/env python3
"""INUM vs PINUM on one query: calls, time and cost-model accuracy.

This is the paper's core comparison in miniature.  For a star-schema query it
builds the plan cache the classic way (one optimizer call per interesting-
order combination plus one per candidate index) and the PINUM way (two calls
for the plans, one for every access cost), then checks both caches against
the optimizer on random atomic configurations.

Run with:  python examples/cache_construction_comparison.py [--query 4]
"""

import argparse

from repro.advisor import CandidateGenerator
from repro.bench.harness import ExperimentTable, relative_error
from repro.inum import AtomicConfiguration, InumCacheBuilder, InumCostModel
from repro.optimizer import Optimizer
from repro.optimizer.interesting_orders import combination_count
from repro.optimizer.whatif import WhatIfOptimizer
from repro.pinum import PinumCacheBuilder
from repro.util.rng import DeterministicRNG
from repro.util.timing import timed
from repro.workloads import StarSchemaWorkload


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--query", type=int, default=4, help="workload query number (1-10)")
    parser.add_argument("--configurations", type=int, default=30,
                        help="random atomic configurations for the accuracy check")
    args = parser.parse_args()

    workload = StarSchemaWorkload(seed=7)
    catalog = workload.catalog()
    query = workload.queries()[args.query - 1]
    candidates = CandidateGenerator(catalog).for_query(query)
    optimizer = Optimizer(catalog)

    print(f"query {query.name}: {query.table_count} tables, "
          f"{combination_count(query)} interesting-order combinations, "
          f"{len(candidates)} candidate indexes\n")

    with timed() as pinum_timer:
        pinum_cache = PinumCacheBuilder(optimizer).build_cache(query, candidates)
    with timed() as inum_timer:
        inum_cache = InumCacheBuilder(optimizer).build_cache(query, candidates)

    table = ExperimentTable(
        "Cache construction",
        ["builder", "optimizer calls", "wall-clock (ms)", "cached plans", "unique plans"],
    )
    table.add_row("INUM", inum_cache.build_stats.optimizer_calls_total,
                  inum_timer.seconds * 1000.0, inum_cache.entry_count, inum_cache.unique_plan_count())
    table.add_row("PINUM", pinum_cache.build_stats.optimizer_calls_total,
                  pinum_timer.seconds * 1000.0, pinum_cache.entry_count, pinum_cache.unique_plan_count())
    table.print()
    print(f"speedup: {inum_timer.seconds / max(pinum_timer.seconds, 1e-9):.1f}x wall-clock, "
          f"{inum_cache.build_stats.optimizer_calls_total / pinum_cache.build_stats.optimizer_calls_total:.1f}x fewer calls\n")

    # Accuracy of both cost models against the optimizer.
    whatif = WhatIfOptimizer(optimizer)
    pinum_model = InumCostModel(pinum_cache)
    inum_model = InumCostModel(inum_cache)
    rng = DeterministicRNG(23)
    per_table = {}
    for candidate in candidates:
        per_table.setdefault(candidate.table, []).append(candidate)

    errors = {"INUM": [], "PINUM": []}
    for _ in range(args.configurations):
        chosen = [rng.choice(indexes) for indexes in per_table.values() if rng.random() < 0.7]
        configuration = AtomicConfiguration(chosen)
        actual = whatif.cost_with_configuration(query, configuration.indexes)
        errors["INUM"].append(relative_error(inum_model.estimate(configuration), actual))
        errors["PINUM"].append(relative_error(pinum_model.estimate(configuration), actual))

    accuracy = ExperimentTable(
        f"Cost-model accuracy over {args.configurations} random atomic configurations",
        ["cost model", "average error", "maximum error"],
    )
    for name, values in errors.items():
        accuracy.add_row(name, f"{100 * sum(values) / len(values):.2f}%", f"{100 * max(values):.2f}%")
    accuracy.print()


if __name__ == "__main__":
    main()
