"""The plan cache shared by INUM and PINUM.

A cache holds, for one query:

* one :class:`CacheEntry` per interesting-order combination -- the plan's
  internal (join + aggregation) cost plus a description of its leaf slots
  (which table is read, which order the access path must provide and how
  often the leaf is executed), and
* an :class:`~repro.inum.access_costs.AccessCostTable` with the data-access
  costs of every candidate index and of the bare heaps.

Both INUM and PINUM produce exactly this structure; they only differ in how
many optimizer calls it takes to fill it, which is what
:class:`CacheBuildStatistics` records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.inum.access_costs import AccessCostTable
from repro.optimizer.interesting_orders import InterestingOrderCombination
from repro.optimizer.maintenance import MaintenanceProfile
from repro.optimizer.plan import PlanNode, PlanSummary
from repro.query.ast import Query
from repro.util.errors import PlanningError


def normalized_ioc(
    plan: PlanNode, orders_by_table: Dict[str, List[str]]
) -> InterestingOrderCombination:
    """The plan's leaf-order combination restricted to *interesting* orders.

    A leaf may provide an order on a column that is not interesting for the
    query (e.g. a covering index chosen purely to avoid heap fetches); such an
    order can never be exploited by a merge join or the grouping planner, so
    for cache-keying purposes it is equivalent to the empty order Phi.
    """
    orders: Dict[str, Optional[str]] = {}
    for leaf in plan.leaves:
        table, provided = leaf.path.table, leaf.path.provided_order
        if provided is not None and provided not in orders_by_table.get(table, []):
            provided = None
        orders[table] = provided
    return InterestingOrderCombination(orders)


@dataclass(frozen=True)
class CachedSlot:
    """One leaf of a cached plan, described symbolically.

    ``required_order`` is the interesting order the slot's access path must
    provide (``None`` = any access works).  ``multiplier`` and
    ``parameterized`` describe nested-loop inners, which are probed once per
    outer row instead of scanned once.
    """

    table: str
    required_order: Optional[str]
    multiplier: float = 1.0
    parameterized: bool = False


@dataclass
class CacheEntry:
    """One cached plan: its internal cost plus symbolic leaf slots."""

    ioc: InterestingOrderCombination
    internal_cost: float
    slots: Tuple[CachedSlot, ...]
    uses_nestloop: bool = False
    source: str = "inum"
    summary: Optional[PlanSummary] = None

    @classmethod
    def from_plan(
        cls,
        plan: PlanNode,
        orders_by_table: Dict[str, List[str]],
        source: str,
    ) -> "CacheEntry":
        """Digest an optimizer plan into a cache entry.

        The entry is keyed by the plan's *normalized* interesting-order
        combination (orders the leaves provide, restricted to orders that are
        interesting for the query), and each leaf slot requires exactly the
        order its access path provided.  Plans produced by different probing
        configurations but with identical structure therefore collapse onto
        the same entry -- the redundancy Section IV quantifies.
        """
        ioc = normalized_ioc(plan, orders_by_table)
        return cls(
            ioc=ioc,
            internal_cost=plan.internal_cost(),
            slots=tuple(
                CachedSlot(
                    table=leaf.path.table,
                    required_order=ioc.order_for(leaf.path.table),
                    multiplier=leaf.multiplier,
                    parameterized=leaf.parameterized,
                )
                for leaf in plan.leaves
            ),
            uses_nestloop=plan.uses_nested_loop,
            source=source,
            summary=PlanSummary.of(plan),
        )


@dataclass
class CacheBuildStatistics:
    """What building one query's cache cost: what the cache cannot tell itself.

    ``optimizer_calls_*`` are the *actual* optimizer invocations of each
    phase: the change in ``Optimizer.call_count`` across it.  When the
    builder routes its probes through a memoizing
    :class:`~repro.optimizer.whatif.WhatIfCallCache`, probes answered from
    memory are ``whatif_cache_hits`` (probes minus calls).
    ``combinations_enumerated`` is the query's interesting-order combination
    count, whichever builder ran.  Entry and unique-plan counts are the
    cache's own (``entry_count``, ``unique_plan_count()``).
    """

    optimizer_calls_plans: int = 0
    optimizer_calls_access_costs: int = 0
    seconds_plans: float = 0.0
    seconds_access_costs: float = 0.0
    combinations_enumerated: int = 0
    whatif_cache_hits: int = 0

    @property
    def optimizer_calls_total(self) -> int:
        """All optimizer calls spent building this cache."""
        return self.optimizer_calls_plans + self.optimizer_calls_access_costs

    @property
    def seconds_total(self) -> float:
        """All wall-clock seconds spent building this cache."""
        return self.seconds_plans + self.seconds_access_costs


class InumCache:
    """The per-statement plan cache.

    ``query`` is usually a SELECT :class:`~repro.query.ast.Query`; for a DML
    statement it is the statement itself (the entries then describe the
    statement's *shadow* read phase) and ``maintenance`` carries the
    per-candidate-index maintenance-cost columns the evaluation engines add
    on top of the read estimate.  Pure-read caches keep ``maintenance`` as
    ``None`` and behave exactly as before.
    """

    def __init__(self, query: Query) -> None:
        self.query = query
        self.entries: List[CacheEntry] = []
        self.access_costs = AccessCostTable()
        self.build_stats = CacheBuildStatistics()
        #: Per-index write costs for DML statements (None for read caches).
        self.maintenance: Optional[MaintenanceProfile] = None
        self._by_ioc: Dict[InterestingOrderCombination, CacheEntry] = {}
        #: ``(ioc, uses_nestloop) -> position in entries``.
        self._positions: Dict[Tuple[InterestingOrderCombination, bool], int] = {}

    # -- population -------------------------------------------------------------

    def add_entry(self, entry: CacheEntry) -> None:
        """Add a cached plan.

        Per interesting-order combination the cache keeps at most one plan
        without nested loops and one with (the NLJ variant becomes optimal at
        low access costs, see Section V-D); re-adding a cheaper plan for the
        same (IOC, NLJ-usage) pair replaces the existing one.  The canonical
        per-IOC entry (used by :meth:`entry_for`) prefers the NLJ-free plan.
        """
        key = (entry.ioc, entry.uses_nestloop)
        position = self._positions.get(key)
        if position is not None:
            existing = self.entries[position]
            if entry.internal_cost < existing.internal_cost:
                self.entries[position] = entry
                if self._by_ioc.get(entry.ioc) is existing:
                    self._by_ioc[entry.ioc] = entry
            return
        self._positions[key] = len(self.entries)
        self.entries.append(entry)
        incumbent = self._by_ioc.get(entry.ioc)
        if incumbent is None or (incumbent.uses_nestloop and not entry.uses_nestloop):
            self._by_ioc[entry.ioc] = entry

    def entry_for(self, ioc: InterestingOrderCombination) -> Optional[CacheEntry]:
        """The canonical entry cached for ``ioc`` (if any)."""
        return self._by_ioc.get(ioc)

    def detached_copy(self) -> "InumCache":
        """A shallow copy sharing this cache's immutable build artifacts.

        Entries, access costs and build statistics are shared by reference
        (they never change after a build); the copy can take its *own*
        ``maintenance`` profile without touching the original.  Sessions
        detach DML caches this way before applying their pool-specific
        maintenance, so a pooled (possibly tier-shared) object stays
        pristine for every other request and tenant.
        """
        clone = InumCache(self.query)
        clone.entries = self.entries
        clone.access_costs = self.access_costs
        clone.build_stats = self.build_stats
        clone.maintenance = self.maintenance
        clone._by_ioc = self._by_ioc
        clone._positions = self._positions
        return clone

    # -- inspection ---------------------------------------------------------------

    @property
    def entry_count(self) -> int:
        """Number of cached plans (including nested-loop variants)."""
        return len(self.entries)

    @property
    def combination_count(self) -> int:
        """Number of distinct IOCs that have at least one entry."""
        return len(self._by_ioc)

    def unique_plan_count(self) -> int:
        """Number of structurally distinct plans in the cache.

        Section IV's observation: for TPC-H query 5, 648 optimizer calls
        produce only 64 unique plans -- 90 % of the calls were redundant.
        """
        keys = set()
        for entry in self.entries:
            if entry.summary is not None:
                keys.add(entry.summary.structural_key())
        return len(keys)

    def validate(self) -> None:
        """Sanity-check the cache before it is used for estimation."""
        if not self.entries:
            raise PlanningError(f"cache for query {self.query.name!r} is empty")
        for table in self.query.tables:
            if not self.access_costs.has_heap(table):
                raise PlanningError(
                    f"cache for query {self.query.name!r} has no heap access cost "
                    f"for table {table!r}"
                )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"InumCache({self.query.name!r}, entries={self.entry_count}, "
            f"access_costs={len(self.access_costs)})"
        )
