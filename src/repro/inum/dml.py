"""Plan caches for DML statements: shadow read phase plus maintenance columns.

A write statement's cost under an index configuration decomposes as::

    cost = read phase (locate the affected rows)   -- benefits from indexes
         + heap writes                             -- index-independent
         + per-index maintenance                   -- *charged* per index

The read phase of UPDATE/DELETE is exactly a single-table SELECT (the
statement's :meth:`~repro.query.ast.DmlStatement.shadow_query`), so its
plan cache is built by the ordinary INUM/PINUM builders and evaluated by the
ordinary engines -- the whole caching economy (store persistence, process
pools, identical-SQL dedup, memoized what-if probes) applies to writes
unchanged.  The other two terms are computed from catalog statistics by the
:mod:`repro.optimizer.maintenance` model and attached to the cache as its
``maintenance`` profile, which every evaluation engine adds on top of the
read estimate.

INSERT (and the unfiltered DELETE, which reads unconditionally) has no
index-assisted read phase; it gets a *synthetic* cache -- one empty-order
entry, a zero-cost heap column -- so the rest of the stack needs no special
cases: every workload statement owns a cache, every cache compiles.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.catalog.catalog import Catalog
from repro.catalog.index import Index
from repro.inum.access_costs import AccessCostInfo
from repro.inum.cache import CacheEntry, InumCache
from repro.optimizer.interesting_orders import InterestingOrderCombination
from repro.optimizer.maintenance import profile_for
from repro.query.ast import DmlStatement


def synthetic_statement_cache(statement: DmlStatement, catalog: Catalog) -> InumCache:
    """A cache for a statement with no index-assisted read phase (INSERT).

    One empty-order entry with zero internal cost and no leaf slots, plus a
    zero-cost heap column so :meth:`InumCache.validate` passes: the read
    estimate is always 0 and the statement's whole cost comes from its
    maintenance profile.
    """
    cache = InumCache(statement)
    cache.add_entry(
        CacheEntry(
            ioc=InterestingOrderCombination({statement.table: None}),
            internal_cost=0.0,
            slots=(),
            source="dml",
        )
    )
    cache.access_costs.add(
        AccessCostInfo(
            table=statement.table,
            index_key=None,
            full_cost=0.0,
            probe_cost=None,
            provided_order=None,
            covering=False,
            rows=0.0,
        )
    )
    return cache


def build_statement_cache(
    statement: DmlStatement,
    candidates: Optional[Sequence[Index]],
    catalog: Catalog,
    build_shadow,
    whatif: Optional[object] = None,
) -> InumCache:
    """Build one DML statement's cache with maintenance columns attached.

    ``build_shadow`` is a callable ``(shadow_query, candidates) ->
    InumCache`` -- typically the bound ``build_cache`` of an INUM or PINUM
    builder -- invoked only for statements with a read phase.  The returned
    cache is re-attached to the *statement* (so pools, stores and reports
    key it by the statement's own SQL, which also distinguishes an UPDATE
    from a DELETE sharing the same shadow).
    """
    shadow = statement.shadow_query()
    if shadow is None:
        cache = synthetic_statement_cache(statement, catalog)
    else:
        relevant = None if candidates is None else [
            index for index in candidates if index.table == statement.table
        ]
        cache = build_shadow(shadow, relevant)
        cache.query = statement
    cache.maintenance = profile_for(statement, candidates or [], catalog, whatif)
    return cache
