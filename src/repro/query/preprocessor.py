"""Query preprocessing: semantic validation and normalisation.

This is the "Query Preprocessor" box of the PostgreSQL architecture in the
paper's Figure 2.  It checks the query against the catalog (tables, columns),
verifies the join graph is connected (our DP join planner does not plan
cartesian products), removes duplicate predicates and canonicalises the table
order, producing a query object the rest of the pipeline can trust.
"""

from __future__ import annotations

from typing import List, Set

from repro.catalog.catalog import Catalog
from repro.query.ast import JoinPredicate, Predicate, Query
from repro.util.errors import QueryError


class QueryPreprocessor:
    """Validate and normalise statements against a catalog."""

    def __init__(self, catalog: Catalog) -> None:
        self._catalog = catalog

    def preprocess(self, query: Query) -> Query:
        """Return a validated, normalised copy of ``query``.

        Raises :class:`QueryError` if the query references unknown tables or
        columns, or if its join graph is disconnected.
        """
        self._check_tables_and_columns(query)
        self._check_join_graph_connected(query)
        filters = self._dedupe_filters(query.filters)
        joins = self._dedupe_joins(query.joins)
        return Query(
            name=query.name,
            tables=tuple(sorted(query.tables)),
            select_columns=query.select_columns,
            aggregates=query.aggregates,
            filters=tuple(filters),
            joins=tuple(joins),
            group_by=query.group_by,
            order_by=query.order_by,
        )

    # -- validation ---------------------------------------------------------

    def _check_tables_and_columns(self, query: Query) -> None:
        for table_name in query.tables:
            if not self._catalog.has_table(table_name):
                raise QueryError(f"query {query.name!r}: unknown table {table_name!r}")
        for ref in query.referenced_columns():
            table = self._catalog.table(ref.table)
            if not table.has_column(ref.column):
                raise QueryError(
                    f"query {query.name!r}: table {ref.table!r} has no column {ref.column!r}"
                )

    def _check_join_graph_connected(self, query: Query) -> None:
        if query.table_count <= 1:
            return
        adjacency = {table: set() for table in query.tables}
        for join in query.joins:
            left, right = tuple(join.tables)
            adjacency[left].add(right)
            adjacency[right].add(left)
        visited: Set[str] = set()
        frontier = [query.tables[0]]
        while frontier:
            current = frontier.pop()
            if current in visited:
                continue
            visited.add(current)
            frontier.extend(adjacency[current] - visited)
        unreachable = set(query.tables) - visited
        if unreachable:
            raise QueryError(
                f"query {query.name!r}: tables {sorted(unreachable)} are not connected "
                "to the rest of the join graph (cartesian products are unsupported)"
            )

    # -- normalisation --------------------------------------------------------

    @staticmethod
    def _dedupe_filters(filters: tuple) -> List[Predicate]:
        seen = set()
        result: List[Predicate] = []
        for predicate in filters:
            key = (predicate.column, predicate.op, predicate.value, predicate.value2)
            if key not in seen:
                seen.add(key)
                result.append(predicate)
        return result

    @staticmethod
    def _dedupe_joins(joins: tuple) -> List[JoinPredicate]:
        seen = set()
        result: List[JoinPredicate] = []
        for join in joins:
            key = frozenset({(join.left.table, join.left.column),
                             (join.right.table, join.right.column)})
            if key not in seen:
                seen.add(key)
                result.append(join)
        return result
