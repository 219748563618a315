"""The Access Path Collector (Figure 2, third stage).

For every table in the query the collector enumerates the ways of reading it:
a sequential scan plus one index scan per visible index.  PostgreSQL keeps
only the cheapest path per interesting order ("If two indexes cover the same
interesting order, then this component filters out the access path with the
higher cost"); PINUM's ``keep_all_access_paths`` hook additionally exports
*every* path so a single optimizer call reveals the access cost of an entire
candidate-index set (Section V-C).

The visible index set is an argument of each call, not catalog state:
``None`` means the catalog's materialized indexes, anything else is the
(what-if) configuration being probed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.catalog.catalog import Catalog
from repro.catalog.index import Index
from repro.optimizer.cost_model import CostModel
from repro.optimizer.hooks import OptimizerHooks
from repro.optimizer.plan import AccessPath
from repro.optimizer.selectivity import SelectivityEstimator
from repro.query.ast import Query


class AccessPathCollector:
    """Builds the per-table access paths the join planner chooses from."""

    def __init__(
        self,
        catalog: Catalog,
        cost_model: CostModel,
        selectivity: SelectivityEstimator,
    ) -> None:
        self._catalog = catalog
        self._cost_model = cost_model
        self._selectivity = selectivity

    # -- public API ------------------------------------------------------------

    def collect(
        self,
        query: Query,
        indexes: Optional[Sequence[Index]] = None,
        hooks: Optional[OptimizerHooks] = None,
    ) -> Tuple[Dict[str, List[AccessPath]], List[AccessPath]]:
        """Access paths per table, filtered the way PostgreSQL would, plus exports.

        ``indexes`` is the visible index set: ``None`` means the catalog's
        materialized indexes; a given set is the only one visible, and each
        of its indexes is validated against the catalog.  The second item
        is the *unfiltered* path list when ``hooks.keep_all_access_paths``
        is set (the PINUM export) and empty otherwise; the filtered set is
        what the join planner plans with either way, so enabling the hook
        does not change plan choices.
        """
        hooks = hooks or OptimizerHooks.disabled()
        visible = self._visible(indexes)
        result: Dict[str, List[AccessPath]] = {}
        exported: List[AccessPath] = []
        for table in query.tables:
            paths = self._paths_for_table(query, table, visible)
            if hooks.keep_all_access_paths:
                exported.extend(paths)
            result[table] = self._filter_paths(paths)
        return result, exported

    def _visible(self, indexes: Optional[Sequence[Index]]) -> List[Index]:
        """The index set one call plans with (one index per name, last wins)."""
        if indexes is None:
            return self._catalog.all_indexes()
        for index in indexes:
            self._catalog.validate_index(index)
        return list({index.name: index for index in indexes}.values())

    # -- path generation ----------------------------------------------------------

    def _paths_for_table(
        self, query: Query, table: str, visible: List[Index]
    ) -> List[AccessPath]:
        stats = self._catalog.statistics(table)
        filters = query.filters_on(table)
        output_selectivity = self._selectivity.table_selectivity(query, table)
        output_rows = max(1.0, stats.row_count * output_selectivity)
        referenced_columns = query.columns_of(table)
        join_columns = set(query.join_columns_of(table))

        paths: List[AccessPath] = [
            AccessPath(
                table=table,
                method="seqscan",
                cost=self._cost_model.seq_scan(stats.heap_pages, stats.row_count, len(filters)),
                rows=output_rows,
                provided_order=None,
                covering=True,
                selectivity=output_selectivity,
            )
        ]

        for index in visible:
            if index.table != table:
                continue
            paths.append(
                self._index_path(
                    query=query,
                    table=table,
                    index=index,
                    output_rows=output_rows,
                    output_selectivity=output_selectivity,
                    referenced_columns=referenced_columns,
                    join_columns=join_columns,
                )
            )
        return paths

    def _index_path(
        self,
        query: Query,
        table: str,
        index: Index,
        output_rows: float,
        output_selectivity: float,
        referenced_columns: List[str],
        join_columns: set,
    ) -> AccessPath:
        stats = self._catalog.statistics(table)
        filters = query.filters_on(table)
        leading = index.leading_column

        # Predicates on the leading column bound the index range actually read.
        leading_selectivity = 1.0
        leading_clauses = 0
        for predicate in filters:
            if predicate.column.column == leading:
                leading_selectivity *= self._selectivity.predicate_selectivity(predicate)
                leading_clauses += 1
        other_clauses = len(filters) - leading_clauses

        covering = index.covers_columns(referenced_columns)
        column_stats = stats.column(leading)
        # What-if indexes report only their leaf pages as the index size; a
        # materialized index also counts internal B-tree pages, which is the
        # (small) cost discrepancy the Section VI-B experiment measures.
        index_pages = index.size_in_pages(stats)
        cost = self._cost_model.index_scan(
            leaf_pages=index_pages,
            heap_pages=stats.heap_pages,
            table_rows=stats.row_count,
            selectivity=leading_selectivity,
            correlation=column_stats.correlation,
            covering=covering,
            filter_clauses=other_clauses,
        )

        rescan_cost = None
        rows_per_probe = 0.0
        if leading in join_columns:
            ndv = stats.distinct_values(leading)
            rows_per_probe = max(1.0, (stats.row_count / max(1.0, ndv)) * output_selectivity)
            rescan_cost = self._cost_model.index_probe(
                leaf_pages=index_pages,
                table_rows=stats.row_count,
                rows_per_probe=rows_per_probe,
                covering=covering,
            )

        return AccessPath(
            table=table,
            method="indexscan",
            cost=cost,
            rows=output_rows,
            index=index,
            provided_order=leading,
            covering=covering,
            rescan_cost=rescan_cost,
            rows_per_probe=rows_per_probe,
            selectivity=output_selectivity,
        )

    # -- PostgreSQL-style filtering -------------------------------------------------

    @staticmethod
    def _filter_paths(paths: List[AccessPath]) -> List[AccessPath]:
        """Keep the cheapest path per (provided order, covering) combination.

        This mirrors the stock collector: the best access path for each
        interesting order survives, everything else is discarded before the
        join planner runs.
        """
        best: Dict[tuple, AccessPath] = {}
        for path in paths:
            key = (path.provided_order, path.covering)
            incumbent = best.get(key)
            if incumbent is None or path.cost < incumbent.cost:
                best[key] = path
        # Stable, deterministic order: cheapest first.
        return sorted(best.values(), key=lambda p: (p.cost, p.method, p.provided_order or ""))
