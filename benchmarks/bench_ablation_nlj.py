"""A2 -- Ablation: how many extra optimizer calls for nested-loop plans?

Section V-D: nested-loop joins are attractive at low access costs, so the
same interesting-order combination can have several optimal plans; INUM (and
PINUM) therefore cache NLJ variants obtained from extra optimizer calls --
"typically, only two calls to the optimizer at the extreme access costs are
sufficient to achieve reasonable accuracy".  This ablation measures the
cache-based cost model's error with 0 and 1 nested-loop harvesting calls.

Run with:  pytest benchmarks/bench_ablation_nlj.py --benchmark-only -s
"""

from __future__ import annotations

from repro.bench.harness import ExperimentTable, relative_error
from repro.inum import AtomicConfiguration, InumCostModel
from repro.optimizer import Optimizer
from repro.optimizer.whatif import WhatIfOptimizer
from repro.pinum import PinumBuilderOptions, PinumCacheBuilder
from repro.util.rng import DeterministicRNG

CONFIGURATIONS_PER_QUERY = 25


def _run_nlj_ablation(star_catalog, star_queries, candidate_generator):
    optimizer = Optimizer(star_catalog)
    whatif = WhatIfOptimizer(optimizer)
    rng = DeterministicRNG(67)
    table = ExperimentTable(
        "A2: cost-model error vs number of nested-loop harvesting calls",
        ["query", "NLJ calls", "plan-cache calls", "avg error", "max error"],
    )
    queries = [q for q in star_queries if q.table_count >= 3][:3] or star_queries[:3]
    for query in queries:
        candidates = candidate_generator.for_query(query)
        by_table = {}
        for candidate in candidates:
            by_table.setdefault(candidate.table, []).append(candidate)
        probes = []
        for _ in range(CONFIGURATIONS_PER_QUERY):
            chosen = [rng.choice(indexes) for indexes in by_table.values() if rng.random() < 0.7]
            probes.append(AtomicConfiguration(chosen))
        actuals = [whatif.cost_with_configuration(query, p.indexes) for p in probes]

        for nlj_calls in (0, 1):
            cache = PinumCacheBuilder(
                optimizer, PinumBuilderOptions(nestloop_calls=nlj_calls)
            ).build_cache(query, candidates)
            model = InumCostModel(cache)
            errors = [
                relative_error(model.estimate(probe), actual)
                for probe, actual in zip(probes, actuals)
            ]
            table.add_row(
                query.name, nlj_calls, cache.build_stats.optimizer_calls_plans,
                f"{100 * sum(errors) / len(errors):.2f}%", f"{100 * max(errors):.2f}%",
            )
    return table


def test_ablation_nestloop_calls(benchmark, star_catalog, star_queries, candidate_generator):
    """Harvesting NLJ plans must not hurt accuracy (and usually helps a lot)."""
    table = benchmark.pedantic(
        _run_nlj_ablation,
        args=(star_catalog, star_queries, candidate_generator),
        rounds=1,
        iterations=1,
    )
    table.print()
    for zero_row, one_row in zip(table.rows[0::2], table.rows[1::2]):
        error_without = float(zero_row[3].rstrip("%"))
        error_with = float(one_row[3].rstrip("%"))
        assert error_with <= error_without + 1.0
