#!/usr/bin/env python3
"""Quickstart: optimize a query, ask what-if questions, build a PINUM cache.

Walks through the library's core objects on a TPC-H-like catalog:

1. build a catalog (tables + statistics, no data needed),
2. write a query with the builder or the SQL parser,
3. run the PostgreSQL-style optimizer and print the plan,
4. ask a what-if question (what if this index existed?),
5. build the plan cache with PINUM -- one/two optimizer calls -- and answer
   many configuration questions with pure arithmetic.

Run with:  python examples/quickstart.py
"""

from repro.catalog import Index
from repro.inum import AtomicConfiguration, InumCostModel
from repro.optimizer import Optimizer
from repro.optimizer.whatif import WhatIfOptimizer
from repro.pinum import PinumCacheBuilder
from repro.query import parse_query
from repro.workloads.tpch_like import build_tpch_like_catalog


def main() -> None:
    # 1. A catalog is schema + statistics; the optimizer never reads data.
    catalog = build_tpch_like_catalog(scale_factor=0.1)
    print(f"catalog: {catalog}")

    # 2. Queries can be written as SQL text (or with repro.query.QueryBuilder).
    query = parse_query(
        """
        SELECT customer.c_custkey, orders.o_totalprice
        FROM customer, orders, lineitem
        WHERE customer.c_custkey = orders.o_custkey
          AND orders.o_orderkey = lineitem.l_orderkey
          AND orders.o_orderdate BETWEEN 3000 AND 3090
        ORDER BY customer.c_custkey
        """,
        name="quickstart",
    )

    # 3. Optimize and inspect the plan.
    optimizer = Optimizer(catalog)
    result = optimizer.optimize(query)
    print("\n=== optimal plan without any indexes ===")
    print(result.plan.explain())
    print(f"estimated cost: {result.cost:,.1f}")

    # 4. What-if question: how much would a covering index on orders led by
    #    the filtered o_orderdate column help?
    whatif = WhatIfOptimizer(optimizer)
    candidate = Index("orders", ["o_orderdate", "o_custkey", "o_totalprice", "o_orderkey"])
    cost_with_index = whatif.cost_with_configuration(query, [candidate])
    print("\n=== what-if: covering index on orders(o_orderdate, ...) ===")
    print(f"cost without index : {result.cost:,.1f}")
    print(f"cost with index    : {cost_with_index:,.1f}")

    # 5. PINUM: fill the whole plan cache with two optimizer calls, then
    #    evaluate as many configurations as you like without the optimizer.
    candidates = [
        candidate,
        Index("orders", ["o_orderkey"]),
        Index("customer", ["c_custkey"]),
        Index("lineitem", ["l_orderkey", "l_extendedprice"]),
    ]
    calls_before = optimizer.call_count
    cache = PinumCacheBuilder(optimizer).build_cache(query, candidates)
    model = InumCostModel(cache)
    print("\n=== PINUM cache ===")
    print(f"optimizer calls to build the cache : {cache.build_stats.optimizer_calls_total}")
    print(f"cached plans                       : {cache.entry_count}")

    configurations = [
        AtomicConfiguration([]),
        AtomicConfiguration([candidates[2]]),
        AtomicConfiguration([candidates[0], candidates[2]]),
        AtomicConfiguration([candidates[0], candidates[2], candidates[3]]),
    ]
    print("\nconfiguration costs estimated from the cache (no optimizer calls):")
    for configuration in configurations:
        estimate = model.estimate(configuration)
        print(f"  {configuration!r:70s} -> {estimate:,.1f}")
    answering = optimizer.call_count - calls_before - cache.build_stats.optimizer_calls_total
    print(f"\noptimizer calls spent answering them: {answering}")


if __name__ == "__main__":
    main()
