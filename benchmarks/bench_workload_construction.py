"""E-WS -- workload-scale cache construction: memoization and persistence.

A session acquires every query's plan cache through one lookup chain and
saves work two ways; this benchmark measures both on the star-schema
workload with two sessions over one ``cache_dir``:

1. **memoization** -- the first session's what-if call cache answers
   repeated probe configurations from memory, so its cold build reports a
   non-zero hit rate, and
2. **persistence** -- the second session, over an unchanged catalog, loads
   every cache from the on-disk store and spends zero optimizer calls.

Run with:  pytest benchmarks/bench_workload_construction.py --benchmark-only -s
"""

from __future__ import annotations

from repro.advisor import AdvisorOptions
from repro.api.session import TuningSession
from repro.bench.harness import ExperimentTable


def test_memoization_and_store_speedup(benchmark, tmp_path, star_catalog, star_queries,
                                       candidate_generator):
    """The what-if layer hits during a cold build; the store removes rebuilds."""
    candidates = candidate_generator.for_workload(star_queries)
    options = AdvisorOptions(cache_dir=str(tmp_path / "inum-cache"))

    def _build():
        session = TuningSession(star_catalog, star_queries, options=options)
        return session.build_workload_caches(
            "inum", candidates=candidates, max_candidates=None
        )

    def _cold_then_warm():
        return _build(), _build()

    cold, warm = benchmark.pedantic(_cold_then_warm, rounds=1, iterations=1)

    table = ExperimentTable(
        "E-WS: memoized cold build vs persistent warm build",
        ["arm", "wall (s)", "optimizer calls", "what-if hit rate", "from store"],
    )
    table.add_row("cold", cold.report.wall_seconds, cold.report.optimizer_calls,
                  f"{cold.report.whatif_hit_rate * 100.0:.1f}%", cold.report.queries_from_store)
    table.add_row("warm", warm.report.wall_seconds, warm.report.optimizer_calls,
                  f"{warm.report.whatif_hit_rate * 100.0:.1f}%", warm.report.queries_from_store)
    table.print()

    # The memoizing what-if layer must see repeated probes in a full build.
    assert cold.report.whatif_cache_hits > 0
    assert cold.report.whatif_hit_rate > 0.0
    # The warm build must be pure deserialization.
    assert warm.report.queries_from_store == len(star_queries)
    assert warm.report.optimizer_calls == 0
    assert warm.report.wall_seconds * 10 < cold.report.wall_seconds
    for query in star_queries:
        assert warm.caches[query.name].entry_count == cold.caches[query.name].entry_count
