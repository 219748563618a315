"""W1 -- Cache all plans at every join width.

The paper's plan cache comes from one hooked optimizer call, which stays
cheap only while the join planner's per-IOC state stays small (Section V-D).
This benchmark builds the PINUM cache of one query family at growing join
width -- the star fact table joined to ``dim01`` .. ``dimNN``, each dimension
filtered on ``a2`` between 100 and 5000 and selecting ``a1``, plus
``fact_m1``, ordered by ``dim01_a1`` (catalog seed 0, every candidate the
generator proposes) -- and reports per width:

* the build's wall-clock milliseconds,
* the cache entries it produced and the counted optimizer calls (always 3),
* the plan nodes constructed during the build (the join DP's work counter).

Widths run from 2 to 9 tables; quick mode (``REPRO_BENCH_QUERIES`` below its
default of 10) stops at 7.

Run with:  pytest benchmarks/bench_join_width.py --benchmark-only -s
"""

from __future__ import annotations

from repro.advisor import CandidateGenerator
from repro.bench.harness import ExperimentTable
from repro.optimizer import Optimizer
from repro.optimizer.plan import PlanNode
from repro.pinum import PinumCacheBuilder
from repro.query import QueryBuilder
from repro.util.timing import timed
from repro.workloads import StarSchemaWorkload

from benchmarks.conftest import bench_query_count


def wide_star_query(dims: int):
    """The fact table joined to ``dims`` first-level dimensions."""
    builder = QueryBuilder(f"wide{dims + 1}").select("fact.fact_m1")
    for number in range(1, dims + 1):
        dim = f"dim{number:02d}"
        builder.select(f"{dim}.{dim}_a1")
        builder.join(f"fact.fact_{dim}_id", f"{dim}.{dim}_id")
        builder.where_between(f"{dim}.{dim}_a2", 100, 5000)
    return builder.order_by("dim01.dim01_a1").build()


def _run_width_experiment(monkeypatch):
    catalog = StarSchemaWorkload(seed=0).catalog()
    generator = CandidateGenerator(catalog)
    built = []
    construct = PlanNode.__init__

    def counting_init(node, *args, **kwargs):
        built.append(None)
        construct(node, *args, **kwargs)

    monkeypatch.setattr(PlanNode, "__init__", counting_init)
    widest = 9 if bench_query_count() >= 10 else 7
    rows = []
    for tables in range(2, widest + 1):
        query = wide_star_query(tables - 1)
        candidates = generator.for_query(query)
        optimizer = Optimizer(catalog)
        built.clear()
        with timed() as timer:
            cache = PinumCacheBuilder(optimizer).build_cache(query, candidates)
        rows.append({
            "tables": tables,
            "build_ms": timer.seconds * 1000,
            "cache_entries": cache.entry_count,
            "nodes_built": len(built),
            "optimizer_calls": optimizer.call_count,
        })
    monkeypatch.undo()

    table = ExperimentTable(
        "W1: PINUM cache build by join width (star fact + k dimensions)",
        ["tables", "build (ms)", "cache entries", "nodes built", "optimizer calls"],
    )
    for row in rows:
        table.add_row(
            row["tables"], row["build_ms"], row["cache_entries"], row["nodes_built"],
            row["optimizer_calls"],
        )
    return table, rows


def test_join_width(benchmark, monkeypatch):
    """One hooked call fills the cache at every width; the cache grows with it."""
    table, rows = benchmark.pedantic(
        _run_width_experiment, args=(monkeypatch,), rounds=1, iterations=1
    )
    table.print()
    benchmark.extra_info["join_width"] = rows
    assert all(row["optimizer_calls"] == 3 for row in rows)
    entries = [row["cache_entries"] for row in rows]
    assert entries == sorted(entries)
    assert next(row for row in rows if row["tables"] == 7)["cache_entries"] == 243
