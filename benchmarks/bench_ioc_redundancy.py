"""E1 -- Section IV's motivation: 648 optimizer calls, only ~64 unique plans.

The paper observes that filling the INUM cache for TPC-H query 5 takes one
optimizer call per interesting-order combination (648), yet only about 10 %
of the returned plans are distinct; the rest of the calls are redundant.
This benchmark reproduces the observation on the TPC-H-like six-way join:

* enumerate the interesting-order combinations (must be 648),
* build the cache the classic INUM way, counting calls and distinct plans,
* build the same cache with PINUM's single hooked call.

Run with:  pytest benchmarks/bench_ioc_redundancy.py --benchmark-only -s
"""

from __future__ import annotations

from repro.bench.harness import ExperimentTable
from repro.inum import InumBuilderOptions, InumCacheBuilder
from repro.optimizer import Optimizer
from repro.optimizer.interesting_orders import combination_count
from repro.pinum import PinumBuilderOptions, PinumCacheBuilder
from repro.util.timing import timed
from repro.workloads.tpch_like import tpch_q5_like_query


def _run_redundancy_experiment(tpch_catalog) -> ExperimentTable:
    query = tpch_q5_like_query()
    combinations = combination_count(query)

    inum_optimizer = Optimizer(tpch_catalog)
    # Covering probe indexes make index access paths worth choosing, which is
    # what produces the paper's "64 distinct plans" variety across the calls.
    inum_builder = InumCacheBuilder(
        inum_optimizer,
        InumBuilderOptions(include_nestloop_plans=False, covering_probe_indexes=True),
    )
    with timed() as inum_timer:
        inum_cache = inum_builder.build_plan_cache(query)

    pinum_optimizer = Optimizer(tpch_catalog)
    pinum_builder = PinumCacheBuilder(
        pinum_optimizer, PinumBuilderOptions(nestloop_calls=0, collect_access_costs=False)
    )
    with timed() as pinum_timer:
        pinum_cache = pinum_builder.build_plan_cache(query)

    table = ExperimentTable(
        "E1: interesting-order-combination redundancy (TPC-H-like query 5)",
        ["approach", "IOCs", "optimizer calls", "unique plans", "redundant calls",
         "wall-clock (s)"],
    )
    inum_unique = inum_cache.unique_plan_count()
    table.add_row(
        "INUM (one call per IOC)", combinations,
        inum_cache.build_stats.optimizer_calls_plans, inum_unique,
        f"{100.0 * (1 - inum_unique / max(1, inum_cache.build_stats.optimizer_calls_plans)):.0f}%",
        inum_timer.seconds,
    )
    table.add_row(
        "PINUM (single hooked call)", combinations,
        pinum_cache.build_stats.optimizer_calls_plans, pinum_cache.unique_plan_count(),
        "0%", pinum_timer.seconds,
    )
    return table


def test_ioc_redundancy(benchmark, tpch_catalog):
    """Paper claim: ~90 % of the per-IOC optimizer calls are redundant."""
    table = benchmark.pedantic(
        _run_redundancy_experiment, args=(tpch_catalog,), rounds=1, iterations=1
    )
    table.print()
    combinations = int(table.rows[0][1])
    inum_calls = int(table.rows[0][2])
    inum_unique = int(table.rows[0][3])
    pinum_calls = int(table.rows[1][2])
    assert combinations == 648
    assert inum_calls == combinations
    assert pinum_calls == 1
    # The redundancy shape: far fewer unique plans than optimizer calls.
    assert inum_unique < combinations * 0.5
