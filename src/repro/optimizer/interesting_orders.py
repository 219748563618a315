"""Interesting orders and interesting-order combinations (IOCs).

Following the paper's definitions (Section II):

* an *interesting order* of a table is a column of that table appearing in a
  join, group-by or order-by clause -- producing rows in that order can make
  downstream merge joins or grouping cheaper;
* an *interesting-order combination* picks at most one interesting order per
  table of the query (the empty order, written Phi in the paper and ``None``
  here, is always allowed);
* an index *covers* an interesting order iff the order column is the index's
  first column, and an atomic configuration covers an IOC iff each non-empty
  order is covered by the configuration's index on that table.

IOCs are the key of the INUM/PINUM plan cache: INUM issues one optimizer call
per IOC, PINUM harvests a plan per IOC from a single call.
:class:`InterestingOrderCombination` is the cache-boundary form of an IOC:
the key of cache entries, of serialized caches and of the per-IOC plans an
optimizer call exports.  Inside one call the join planner numbers the
query's interesting orders and works on bitmasks instead
(:mod:`repro.optimizer.joinplanner`).
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.query.ast import Query
from repro.util.errors import PlanningError


def interesting_orders_for(query: Query, table: str) -> List[str]:
    """The interesting-order columns of ``table`` in ``query``.

    Columns are returned in first-appearance order: join columns first, then
    group-by, then order-by columns (duplicates removed).
    """
    if table not in query.tables:
        raise PlanningError(f"table {table!r} is not part of query {query.name!r}")
    orders: List[str] = []
    for column in query.join_columns_of(table):
        if column not in orders:
            orders.append(column)
    for column in query.group_by_columns_of(table):
        if column not in orders:
            orders.append(column)
    for column in query.order_by_columns_of(table):
        if column not in orders:
            orders.append(column)
    return orders


def interesting_orders_by_table(query: Query) -> Dict[str, List[str]]:
    """Interesting orders of every table in the query."""
    return {table: interesting_orders_for(query, table) for table in query.tables}


class InterestingOrderCombination:
    """An immutable mapping ``table -> interesting order column or None``."""

    __slots__ = ("_items",)

    def __init__(self, orders: Dict[str, Optional[str]]) -> None:
        if not orders:
            raise PlanningError("an interesting-order combination needs at least one table")
        self._items: Tuple[Tuple[str, Optional[str]], ...] = tuple(
            sorted(orders.items(), key=lambda item: item[0])
        )

    # -- accessors -----------------------------------------------------------

    @property
    def tables(self) -> Tuple[str, ...]:
        """Tables the combination covers, sorted by name."""
        return tuple(table for table, _ in self._items)

    def order_for(self, table: str) -> Optional[str]:
        """The interesting order required of ``table`` (``None`` = no order)."""
        for name, order in self._items:
            if name == table:
                return order
        raise PlanningError(f"combination {self} does not include table {table!r}")

    def as_dict(self) -> Dict[str, Optional[str]]:
        """A plain-dict copy of the mapping."""
        return dict(self._items)

    @property
    def non_empty_orders(self) -> FrozenSet[Tuple[str, str]]:
        """The ``(table, column)`` pairs with a real (non-Phi) order."""
        return frozenset((table, order) for table, order in self._items if order is not None)

    @property
    def order_count(self) -> int:
        """How many tables have a non-empty order requirement."""
        return len(self.non_empty_orders)

    # -- relations -------------------------------------------------------------

    def is_subset_of(self, other: "InterestingOrderCombination") -> bool:
        """Whether every non-empty order of ``self`` also appears in ``other``.

        This is the subset relation of the paper's Section V-D pruning rule.
        """
        return self.non_empty_orders <= other.non_empty_orders

    def restricted_to(self, tables: Iterable[str]) -> "InterestingOrderCombination":
        """The combination restricted to a subset of tables."""
        subset = {table: order for table, order in self._items if table in set(tables)}
        if not subset:
            raise PlanningError("cannot restrict a combination to zero tables")
        return InterestingOrderCombination(subset)

    # -- dunder ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InterestingOrderCombination):
            return NotImplemented
        return self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        rendered = ", ".join(
            f"{table}:{order if order is not None else 'Phi'}" for table, order in self._items
        )
        return f"IOC({rendered})"


def enumerate_combinations(
    query: Query,
    orders_by_table: Optional[Dict[str, Sequence[str]]] = None,
) -> List[InterestingOrderCombination]:
    """Enumerate every interesting-order combination of ``query``.

    The count is the product over tables of ``len(orders) + 1`` (the ``+ 1``
    being the empty order Phi) -- 648 for the paper's TPC-H query 5 example.
    """
    if orders_by_table is None:
        orders_by_table = {t: interesting_orders_for(query, t) for t in query.tables}
    tables = list(query.tables)
    per_table_choices: List[List[Optional[str]]] = []
    for table in tables:
        choices: List[Optional[str]] = [None]
        choices.extend(orders_by_table.get(table, []))
        per_table_choices.append(choices)
    combinations: List[InterestingOrderCombination] = []
    for picks in itertools.product(*per_table_choices):
        combinations.append(InterestingOrderCombination(dict(zip(tables, picks))))
    return combinations


def combination_count(
    query: Query,
    orders_by_table: Optional[Dict[str, Sequence[str]]] = None,
) -> int:
    """Number of IOCs without materializing them (for reporting)."""
    if orders_by_table is None:
        orders_by_table = interesting_orders_by_table(query)
    count = 1
    for table in query.tables:
        count *= len(orders_by_table.get(table, ())) + 1
    return count
