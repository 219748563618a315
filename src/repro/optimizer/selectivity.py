"""Selectivity and cardinality estimation.

The estimator turns predicates into selectivities using the catalog's column
statistics (NDV for equalities, histograms for ranges) and combines them with
independence assumptions, the same simplifications a textbook System-R style
optimizer makes.  Join selectivity uses the classic ``1 / max(ndv_l, ndv_r)``
formula.  All estimates are clamped so downstream cost formulas never see
negative or zero cardinalities where that would be meaningless.

Products over a set of tables multiply in the query's table order, never in
set-iteration order: a float product's last bit depends on its order, and set
order follows the process's hash seed.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional

from repro.catalog.catalog import Catalog
from repro.query.ast import Comparison, JoinPredicate, Predicate, Query
from repro.util.errors import PlanningError


class SelectivityEstimator:
    """Estimate predicate selectivities and intermediate result sizes.

    The per-table filtered row count and row width are memoised for one
    query at a time: the join planner asks for them thousands of times per
    call, and neither can change while the catalog and the query stay the
    same.  The optimizer builds one estimator per call, so no entry outlives
    the call; a different query object clears the memo.
    """

    def __init__(self, catalog: Catalog) -> None:
        self._catalog = catalog
        self._memo_query: Optional[Query] = None
        self._rows: Dict[str, float] = {}
        self._widths: Dict[str, int] = {}

    def _memo_for(self, query: Query) -> None:
        if query is not self._memo_query:
            self._memo_query = query
            self._rows = {}
            self._widths = {}

    # -- single-table predicates ---------------------------------------------

    def predicate_selectivity(self, predicate: Predicate) -> float:
        """Selectivity of one single-table predicate in ``(0, 1]``."""
        stats = self._catalog.statistics(predicate.table)
        column = stats.column(predicate.column.column)
        if predicate.op is Comparison.EQ:
            selectivity = column.equality_selectivity()
        elif predicate.op is Comparison.NE:
            selectivity = 1.0 - column.equality_selectivity()
        elif predicate.op is Comparison.BETWEEN:
            selectivity = column.range_selectivity(predicate.value, predicate.value2)
        elif predicate.op in (Comparison.LT, Comparison.LE):
            selectivity = column.range_selectivity(None, predicate.value)
        elif predicate.op in (Comparison.GT, Comparison.GE):
            selectivity = column.range_selectivity(predicate.value, None)
        else:  # pragma: no cover - the enum is exhaustive
            raise PlanningError(f"unsupported comparison {predicate.op!r}")
        return _clamp_selectivity(selectivity)

    def table_selectivity(self, query: Query, table: str) -> float:
        """Combined selectivity of every filter on ``table`` (independence)."""
        selectivity = 1.0
        for predicate in query.filters_on(table):
            selectivity *= self.predicate_selectivity(predicate)
        return _clamp_selectivity(selectivity)

    def table_rows(self, query: Query, table: str) -> float:
        """Estimated rows of ``table`` surviving the query's filters."""
        self._memo_for(query)
        rows = self._rows.get(table)
        if rows is None:
            stats = self._catalog.statistics(table)
            rows = self._rows[table] = max(
                1.0, stats.row_count * self.table_selectivity(query, table)
            )
        return rows

    # -- joins ----------------------------------------------------------------

    def join_selectivity(self, join: JoinPredicate) -> float:
        """Selectivity of an equi-join predicate: ``1 / max(ndv_left, ndv_right)``."""
        left_stats = self._catalog.statistics(join.left.table)
        right_stats = self._catalog.statistics(join.right.table)
        ndv_left = left_stats.distinct_values(join.left.column)
        ndv_right = right_stats.distinct_values(join.right.column)
        largest = max(ndv_left, ndv_right, 1.0)
        return _clamp_selectivity(1.0 / largest)

    def join_result_rows(self, query: Query, tables: FrozenSet[str]) -> float:
        """Estimated cardinality of joining the subset ``tables``.

        The estimate is the product of filtered base-table cardinalities
        multiplied by the selectivity of every join predicate internal to the
        subset -- the standard System-R formula.
        """
        rows = 1.0
        for table in query.tables:
            if table in tables:
                rows *= self.table_rows(query, table)
        for join in query.joins:
            if join.tables <= tables:
                rows *= self.join_selectivity(join)
        return max(1.0, rows)

    # -- aggregation -----------------------------------------------------------

    def group_count(self, query: Query, input_rows: float) -> float:
        """Estimated number of groups produced by the GROUP BY clause."""
        if not query.group_by:
            return 1.0
        distinct_product = 1.0
        for ref in query.group_by:
            stats = self._catalog.statistics(ref.table)
            distinct_product *= stats.distinct_values(ref.column)
        # Cap by input cardinality: you cannot have more groups than rows.
        return max(1.0, min(distinct_product, input_rows))

    # -- widths -----------------------------------------------------------------

    def output_row_width(self, query: Query, tables: Iterable[str]) -> int:
        """Approximate width in bytes of a joined row over ``tables``."""
        self._memo_for(query)
        widths = self._widths
        width = 0
        for table in tables:
            table_width = widths.get(table)
            if table_width is None:
                stats = self._catalog.statistics(table)
                columns = query.columns_of(table) or [stats.table.columns[0].name]
                table_width = widths[table] = stats.tuple_width(columns)
            width += table_width
        return max(8, width)


def _clamp_selectivity(value: float) -> float:
    """Keep selectivities inside ``[1e-9, 1.0]``."""
    return min(1.0, max(1e-9, value))
