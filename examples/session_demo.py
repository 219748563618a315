#!/usr/bin/env python3
"""TuningSession end-to-end: create -> recommend -> add a query -> re-tune.

The one-shot ``IndexAdvisor`` rebuilds its world per call; a
:class:`~repro.api.session.TuningSession` keeps the expensive state -- plan
caches, the memoizing what-if layer, compiled workload arenas -- warm for
its whole lifetime, so repeated and *incremental* tuning requests only pay
for what actually changed:

1. create a session over the TPC-H-like catalog with the ``"per_query"``
   candidate policy (each query's cache depends on that query alone),
2. ``recommend()`` -- the cold call builds every per-query cache,
3. ``recommend()`` again -- zero cache builds, selection re-runs warm,
4. ``add_queries()`` one new query and re-tune -- exactly one new cache is
   built, everything else is reused,
5. shrink the budget with ``set_budget()`` -- still zero builds,
6. price an index set (``evaluate``) and double-check it against the real
   optimizer (``what_if``), and
7. replay the same flow over TCP: boot the concurrent
   :class:`~repro.api.server.TuningServer` in-process and drive two named
   sessions through sockets -- the second tenant's ``recommend`` performs
   zero cache builds because both sessions hang under one shared read-only
   cache tier.

Run with:  python examples/session_demo.py
"""

import asyncio

from repro.advisor import AdvisorOptions
from repro.api.requests import EvaluateRequest, WhatIfRequest
from repro.api.session import TuningSession
from repro.query import parse_query
from repro.util.units import format_bytes, gigabytes, megabytes
from repro.workloads.tpch_like import (
    build_tpch_like_catalog,
    tpch_q5_like_query,
    tpch_small_join_query,
)


def show(title: str, response) -> None:
    result = response.result
    print(f"\n=== {title} ===")
    print(f"caches: {response.caches_built} built, {response.caches_from_store} from store, "
          f"{response.caches_reused} reused in session")
    print(f"cost  : {result.workload_cost_before:,.1f} -> {result.workload_cost_after:,.1f} "
          f"({result.improvement_fraction * 100.0:.1f}% improvement)")
    for index in result.selected_indexes:
        print(f"  - {index.table}({', '.join(index.columns)})  "
              f"[{format_bytes(result.total_index_bytes)} total]")


def main() -> None:
    # 1. One session, configured once.  The per_query candidate policy makes
    #    workload mutations incremental: a query's cache never depends on its
    #    neighbours.
    session = TuningSession(
        build_tpch_like_catalog(),
        [tpch_q5_like_query(), tpch_small_join_query()],
        options=AdvisorOptions(
            space_budget_bytes=gigabytes(1),
            candidate_policy="per_query",
        ),
    )

    # 2. Cold: every per-query plan cache is built (the one-time cost).
    show("cold recommend (builds all caches)", session.recommend())

    # 3. Warm: same request, zero optimizer work -- selection only.
    show("warm recommend (no builds)", session.recommend())

    # 4. Incremental re-tune: one new query -> exactly one new cache.
    session.add_queries([parse_query(
        """
        SELECT orders.o_totalprice
        FROM orders
        WHERE orders.o_totalprice < 500
        ORDER BY orders.o_totalprice
        """,
        name="cheap_orders",
    )])
    show("re-tune after add_queries (one new cache)", session.recommend())

    # 5. Budget changes never rebuild caches -- selection just re-runs.
    session.set_budget(megabytes(256))
    show("re-tune after set_budget(256 MiB) (no builds)", session.recommend())

    # 6. Price an index set from the warm caches, then ask the real
    #    optimizer the same question (memoized in the session's call cache).
    chosen = session.recommend().result.selected_indexes
    cached = session.evaluate(EvaluateRequest(indexes=chosen))
    exact = session.what_if(WhatIfRequest(indexes=chosen))
    print("\n=== evaluate (cache arithmetic) vs what_if (optimizer) ===")
    print(f"cache estimate : {cached.total_cost:,.1f}")
    print(f"optimizer says : {exact.total_cost:,.1f} ({exact.optimizer_calls} calls)")

    stats = session.statistics
    print(f"\nsession totals : {stats.recommend_calls} recommends, "
          f"{stats.caches_built} caches built, {stats.caches_reused} reused")

    # 7. The same service over TCP: N concurrent tenants, one shared tier.
    asyncio.run(tcp_demo())


async def tcp_demo() -> None:
    from repro.api.server import TuningClient, TuningServer

    server = TuningServer(default_catalog="tpch")
    await server.start()  # port 0 -> an ephemeral port
    print(f"\n=== TCP serve on 127.0.0.1:{server.port} (shared tier) ===")
    try:
        async with TuningClient("127.0.0.1", server.port,
                                session_id="tenant-a") as client:
            response = await client.call("recommend")
            counters = response["result"]["session"]
            print(f"tenant-a recommend: {counters['caches_built']} built, "
                  f"{counters['caches_shared']} from shared tier")

        # A different session over the same catalog: every cache is adopted
        # from the shared tier -- zero builds, selection only.
        async with TuningClient("127.0.0.1", server.port,
                                session_id="tenant-b") as client:
            response = await client.call("recommend")
            counters = response["result"]["session"]
            print(f"tenant-b recommend: {counters['caches_built']} built, "
                  f"{counters['caches_shared']} from shared tier")
            assert counters["caches_built"] == 0

            stats = (await client.call("server_stats"))["result"]
            tier = stats["tier"]
            print(f"server: {stats['sessions']} sessions, tier holds "
                  f"{tier['caches_published']} caches / "
                  f"{tier['arenas_published']} arenas "
                  f"({tier['cache_hits']} shared hits)")
    finally:
        await server.stop()


if __name__ == "__main__":
    main()
