"""A1 -- Ablation: the Section V-D subsumption pruning rule.

PINUM's single hooked call asks the join planner to keep one plan per
interesting-order combination; without pruning the DP state (and the exported
cache) would grow with the full combination count, which is exactly the
"potentially significant overhead" the paper says the pruning condition
removes.  This ablation builds the PINUM cache with and without the rule and
reports build time, cache size and whether estimates change.

Run with:  pytest benchmarks/bench_ablation_pruning.py --benchmark-only -s
"""

from __future__ import annotations

from repro.bench.harness import ExperimentTable, relative_error
from repro.inum import AtomicConfiguration, InumCostModel
from repro.optimizer import Optimizer
from repro.pinum import PinumBuilderOptions, PinumCacheBuilder
from repro.util.rng import DeterministicRNG


def _run_pruning_ablation(star_catalog, star_queries, candidate_generator):
    optimizer = Optimizer(star_catalog)
    rng = DeterministicRNG(53)
    table = ExperimentTable(
        "A1: subsumption pruning on/off (PINUM cache build)",
        ["query", "pruning", "build (ms)", "cached plans", "estimate drift vs pruned"],
    )
    # The widest queries show the effect best.
    interesting = [q for q in star_queries if q.table_count >= 4][:3] or star_queries[:3]
    for query in interesting:
        candidates = candidate_generator.for_query(query)
        by_table = {}
        for candidate in candidates:
            by_table.setdefault(candidate.table, []).append(candidate)
        probes = []
        for _ in range(10):
            chosen = [rng.choice(indexes) for indexes in by_table.values() if rng.random() < 0.7]
            probes.append(AtomicConfiguration(chosen))

        results = {}
        for pruning in (True, False):
            cache = PinumCacheBuilder(
                optimizer, PinumBuilderOptions(subsumption_pruning=pruning)
            ).build_cache(query, candidates)
            results[pruning] = (cache, InumCostModel(cache))

        pruned_cache, pruned_model = results[True]
        unpruned_cache, unpruned_model = results[False]
        drifts = [
            relative_error(unpruned_model.estimate(p), pruned_model.estimate(p)) for p in probes
        ]
        for pruning in (True, False):
            cache, _ = results[pruning]
            table.add_row(
                query.name, "on" if pruning else "off",
                cache.build_stats.seconds_plans * 1000, cache.entry_count,
                "baseline" if pruning else f"{100 * max(drifts):.2f}% max",
            )
    return table


def test_ablation_subsumption_pruning(benchmark, star_catalog, star_queries, candidate_generator):
    """Pruning must shrink the cache without materially changing estimates."""
    table = benchmark.pedantic(
        _run_pruning_ablation,
        args=(star_catalog, star_queries, candidate_generator),
        rounds=1,
        iterations=1,
    )
    table.print()
    rows = table.rows
    for on_row, off_row in zip(rows[0::2], rows[1::2]):
        assert int(on_row[3]) <= int(off_row[3])
