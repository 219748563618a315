"""Index-maintenance costs: what a write statement pays per recommended index.

The advisor's read side answers "how much does this index save?"; this
module answers the other half of update-aware tuning: "how much does every
INSERT/UPDATE/DELETE pay to keep it current?".  Costs are expressed in the
same abstract units as :mod:`repro.optimizer.cost_model` (one sequential
page read = 1.0), derived from the catalog's statistics alone -- row counts,
key widths, B-tree fanout -- so a *hypothetical* index's maintenance is
priced without building anything, exactly like its read benefit.

Model, per statement and per affected index:

* the affected row count comes from the statement itself (INSERT VALUES
  rows) or from the WHERE clause's selectivity against the table statistics
  (UPDATE/DELETE),
* each affected row descends the B-tree -- ``height`` internal pages (from
  the index's leaf-page count and the fanout its key width allows),
  discounted because internal pages are hot in any real buffer pool -- and
  dirties one leaf page,
* INSERTs additionally pay an amortized page-split share of ``1 /
  entries_per_leaf`` (write amplification: wide keys mean fewer entries per
  leaf and therefore more splits per row), and UPDATEs pay the descent twice
  (the old entry is killed, the new one inserted).

An UPDATE only maintains indexes containing one of its SET columns (the
HOT-update fast path); INSERT and DELETE maintain every index on the table.
The statement's *heap* cost (``base_cost``) is index-set independent and
therefore never changes which index wins, but keeping it in the estimate
makes reported workload costs comparable across write fractions.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.catalog.catalog import Catalog
from repro.catalog.index import Index
from repro.catalog.statistics import TableStatistics
from repro.optimizer.cost_model import CostParameters
from repro.optimizer.selectivity import SelectivityEstimator
from repro.query.ast import DmlKind, DmlStatement
from repro.storage import pages
from repro.util.errors import AdvisorError

#: Fraction of a descent's internal-page reads actually paid: internal pages
#: are a tiny, hot part of the tree, so most descents find them cached.
INTERNAL_PAGE_HIT_FACTOR = 0.25

#: Pages written when a leaf splits (the new right sibling plus the parent).
SPLIT_COST_PAGES = 2.0

#: The structural identity of one index, as used by plan caches.
IndexKey = Tuple[str, Tuple[str, ...]]


@dataclass
class MaintenanceProfile:
    """Per-statement maintenance costs over a fixed candidate set.

    ``base_cost`` is the index-independent heap cost of one execution;
    ``per_index`` maps each candidate's structural key to the extra cost the
    statement pays per execution while that index exists.  Indexes absent
    from ``per_index`` contribute nothing -- the same treatment the read
    side gives access costs that were never collected.
    """

    statement: str
    base_cost: float = 0.0
    per_index: Dict[IndexKey, float] = field(default_factory=dict)

    def cost_for(self, indexes: Sequence[Index]) -> float:
        """Per-execution maintenance cost under ``indexes``."""
        return self.base_cost + sum(
            self.per_index.get(index.key, 0.0) for index in indexes
        )

    def digest(self) -> str:
        """A stable short identity for arena pooling (order-independent)."""
        hasher = hashlib.sha256()
        for part in [self.statement, repr(self.base_cost)] + [
            f"{key[0]}:{','.join(key[1])}:{self.per_index[key]!r}"
            for key in sorted(self.per_index)
        ]:
            hasher.update(part.encode("utf-8"))
            hasher.update(b"\x00")
        return hasher.hexdigest()[:16]

    def to_dict(self) -> Dict:
        """JSON form (for :mod:`repro.inum.serialization`)."""
        return {
            "statement": self.statement,
            "base_cost": self.base_cost,
            "per_index": [
                [table, list(columns), cost]
                for (table, columns), cost in sorted(self.per_index.items())
            ],
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "MaintenanceProfile":
        return cls(
            statement=str(payload.get("statement", "")),
            base_cost=float(payload.get("base_cost", 0.0)),
            per_index={
                (entry[0], tuple(entry[1])): float(entry[2])
                for entry in payload.get("per_index", [])
            },
        )


class MaintenanceCostModel:
    """Prices index maintenance for DML statements from catalog statistics."""

    def __init__(self, catalog: Catalog, params: Optional[CostParameters] = None) -> None:
        self._catalog = catalog
        self._params = params or CostParameters()
        self._selectivity = SelectivityEstimator(catalog)

    # -- row estimation ----------------------------------------------------

    def rows_affected(self, statement: DmlStatement) -> float:
        """Estimated number of rows the statement writes per execution."""
        hint = statement.rows_hint
        if hint is not None:
            return float(hint)
        stats = self._statistics(statement.table)
        selectivity = 1.0
        for predicate in statement.filters:
            selectivity *= self._selectivity.predicate_selectivity(predicate)
        return stats.row_count * max(0.0, min(1.0, selectivity))

    # -- per-index maintenance ---------------------------------------------

    def index_maintenance_cost(self, statement: DmlStatement, index: Index) -> float:
        """Extra cost per execution of ``statement`` while ``index`` exists."""
        if index.table != statement.table:
            return 0.0
        if not statement.affects_index_columns(index.columns):
            return 0.0
        rows = self.rows_affected(statement)
        if rows <= 0.0:
            return 0.0
        return rows * self._per_row_cost(statement.kind, index)

    def _per_row_cost(self, kind: DmlKind, index: Index) -> float:
        p = self._params
        stats = self._statistics(index.table)
        tuple_width = index.tuple_width(stats)
        leaf_pages = index.leaf_pages(stats)
        entries_per_leaf = max(1, _leaf_usable_bytes() // tuple_width)
        height = _btree_height(leaf_pages, self._fanout(index, stats))

        descent = height * p.random_page_cost * INTERNAL_PAGE_HIT_FACTOR
        leaf_touch = p.random_page_cost + p.cpu_index_tuple_cost
        split = SPLIT_COST_PAGES * p.random_page_cost / entries_per_leaf

        if kind is DmlKind.INSERT:
            return descent + leaf_touch + split
        if kind is DmlKind.DELETE:
            # Dead entries are marked in place; no split can happen.
            return descent + leaf_touch
        # UPDATE: the old entry is killed and the new one inserted.
        return 2.0 * (descent + leaf_touch) + split

    def _fanout(self, index: Index, stats: TableStatistics) -> int:
        key_width = sum(width for width, _ in stats.table.column_widths(index.columns))
        downlink = (
            pages.INDEX_TUPLE_HEADER_BYTES
            + pages.ITEM_POINTER_BYTES
            + pages.align_to(key_width, 8)
        )
        usable = int(
            (pages.PAGE_SIZE - pages.PAGE_HEADER_BYTES) * pages.BTREE_INTERNAL_FILL_FACTOR
        )
        return max(2, usable // downlink)

    # -- statement-level costs ---------------------------------------------

    def base_cost(self, statement: DmlStatement) -> float:
        """Index-independent heap cost of one execution."""
        p = self._params
        rows = self.rows_affected(statement)
        if rows <= 0.0:
            return 0.0
        stats = self._statistics(statement.table)
        per_page = pages.tuples_per_heap_page(stats.tuple_width())
        if statement.kind is DmlKind.INSERT:
            # Appends fill pages densely; the page write amortizes.
            io = math.ceil(rows / per_page) * p.seq_page_cost
        else:
            # Scattered rows dirty up to one page each (never more pages
            # than the heap has); the read side already paid the fetch.
            io = min(rows, float(max(1, stats.heap_pages))) * p.seq_page_cost
        return io + rows * p.cpu_tuple_cost

    def profile(
        self, statement: DmlStatement, candidates: Sequence[Index]
    ) -> MaintenanceProfile:
        """The statement's :class:`MaintenanceProfile` over ``candidates``."""
        per_index: Dict[IndexKey, float] = {}
        for index in candidates:
            cost = self.index_maintenance_cost(statement, index)
            if cost > 0.0:
                per_index[index.key] = cost
        return MaintenanceProfile(
            statement=statement.name,
            base_cost=self.base_cost(statement),
            per_index=per_index,
        )

    # -- internals ---------------------------------------------------------

    def _statistics(self, table: str) -> TableStatistics:
        if not self._catalog.has_table(table):
            raise AdvisorError(f"maintenance model: unknown table {table!r}")
        return self._catalog.statistics(table)


def _leaf_usable_bytes() -> int:
    return int((pages.PAGE_SIZE - pages.PAGE_HEADER_BYTES) * pages.BTREE_LEAF_FILL_FACTOR)


def _btree_height(leaf_pages: int, fanout: int) -> int:
    """Number of internal levels above ``leaf_pages`` leaves."""
    height = 0
    level = leaf_pages
    while level > 1:
        level = math.ceil(level / fanout)
        height += 1
    return height


def index_build_cost(
    catalog: Catalog, index: Index, params: Optional[CostParameters] = None
) -> float:
    """One-time cost of materializing ``index``, in the model's page units.

    ``CREATE INDEX`` pays three phases, all priced from the catalog's
    statistics (no data access, like everything else in this module):

    * a full heap scan collecting the keys (``heap_pages`` sequential reads
      plus one tuple-forming CPU charge per row),
    * an external sort of the entries (``cpu_operator_cost`` per comparison,
      ``rows * log2(rows)`` comparisons), and
    * a sequential write of the leaf level (sorted input packs leaves
      densely, so internal pages are a rounding error).

    The online daemon's index-transition costing weighs this one-time
    charge against a recommendation's projected benefit over its horizon,
    so a marginal drift signal cannot thrash billion-row indexes.
    """
    p = params or CostParameters()
    if not catalog.has_table(index.table):
        raise AdvisorError(f"index build cost: unknown table {index.table!r}")
    stats = catalog.statistics(index.table)
    rows = float(stats.row_count)
    if rows <= 0.0:
        return 0.0
    scan = stats.heap_pages * p.seq_page_cost + rows * p.cpu_tuple_cost
    sort = p.cpu_operator_cost * rows * math.log2(max(2.0, rows))
    write = index.leaf_pages(stats) * p.seq_page_cost + rows * p.cpu_index_tuple_cost
    return scan + sort + write


def profile_for(
    statement: DmlStatement,
    candidates: Sequence[Index],
    catalog: Catalog,
    whatif: Optional[object] = None,
) -> MaintenanceProfile:
    """One statement's profile over the candidates on its table.

    The single canonical construction path: cache builders, the session's
    per-request pipeline and ad-hoc callers all come through here.
    ``whatif`` may be a :class:`~repro.optimizer.whatif.WhatIfCallCache`, in
    which case every probe -- per-index and base cost alike -- is memoized
    and counted there (the statement is fingerprinted once for all of
    them); without one a fresh :class:`MaintenanceCostModel` answers.
    """
    relevant: List[Index] = [
        index for index in candidates if index.table == statement.table
    ]
    if whatif is None:
        return MaintenanceCostModel(catalog).profile(statement, relevant)
    costs = whatif.maintenance_costs(statement, relevant)
    return MaintenanceProfile(
        statement=statement.name,
        base_cost=whatif.statement_base_cost(statement),
        per_index={
            index.key: cost for index, cost in zip(relevant, costs) if cost > 0.0
        },
    )


def build_profiles(
    catalog: Catalog,
    statements: Sequence[DmlStatement],
    candidates: Sequence[Index],
    whatif: Optional[object] = None,
) -> Dict[str, MaintenanceProfile]:
    """:func:`profile_for` over a whole workload's DML statements."""
    return {
        statement.name: profile_for(statement, candidates, catalog, whatif)
        for statement in statements
    }
