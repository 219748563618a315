"""The plan interpreter: runs optimizer plan trees against loaded data.

Every operator charges its page and row usage to an
:class:`~repro.executor.stats.ExecutionStatistics`; the per-operator logic is
intentionally straightforward (materializing intermediate results as Python
lists) because the experiments execute scaled-down data -- correctness and
faithful I/O accounting matter, raw throughput does not.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.executor.predicates import apply_predicates, qualified, qualify_row
from repro.executor.stats import ExecutionResult, ExecutionStatistics
from repro.optimizer.plan import Operator, PlanNode
from repro.query.ast import AggregateFunction, ColumnRef, Comparison, JoinPredicate, Query
from repro.storage.datagen import Database
from repro.util.errors import ExecutionError

Row = Dict[str, object]


class PlanExecutor:
    """Executes one query's plan against a :class:`Database`."""

    def __init__(self, database: Database, query: Query) -> None:
        self._database = database
        self._query = query

    # -- public API ------------------------------------------------------------

    def execute(self, plan: PlanNode) -> ExecutionResult:
        """Run ``plan`` and return its rows plus resource accounting."""
        stats = ExecutionStatistics()
        rows = self._run(plan, stats)
        rows = self._final_projection(plan, rows)
        stats.rows_emitted = len(rows)
        return ExecutionResult(rows=rows, stats=stats)

    # -- dispatch -----------------------------------------------------------------

    def _run(self, node: PlanNode, stats: ExecutionStatistics) -> List[Row]:
        # One handler per operator; the table closes the class body.
        return self._HANDLERS[node.op](self, node, stats)

    # -- scans ---------------------------------------------------------------------

    def _run_scan(self, node: PlanNode, stats: ExecutionStatistics) -> List[Row]:
        if node.parameterized:
            raise ExecutionError("parameterized scans are only valid as nested-loop inners")
        path = node.path
        relation = self._database.relation(path.table)
        filters = self._query.filters_on(path.table)

        if path.method == "seqscan":
            stats.charge_sequential(relation.heap_pages)
            stats.charge_rows(relation.row_count)
            rows = [qualify_row(path.table, raw) for raw in relation.scan()]
            return apply_predicates(filters, rows)

        assert path.index is not None
        index_data = self._database.build_index(path.index)
        leading = path.index.leading_column
        low, high = self._leading_bounds(filters, leading)
        positions = index_data.positions_range(low, high)
        fraction = len(positions) / max(1, index_data.entry_count)
        stats.charge_random(1.0)  # B-tree descent
        stats.charge_sequential(index_data.leaf_pages * fraction)
        stats.charge_rows(len(positions))
        stats.index_probes += 1

        if not path.covering:
            # Non-covering index scans pay one (random) heap fetch per match.
            stats.charge_random(len(positions))
        fetched = relation.fetch(positions)
        rows = [qualify_row(path.table, raw) for raw in fetched]
        rows = apply_predicates(filters, rows)
        # An index scan emits rows ordered by the leading column.
        rows.sort(key=lambda row: _sort_key(row.get(qualified(path.table, leading))))
        return rows

    @staticmethod
    def _leading_bounds(filters, leading: str) -> Tuple[Optional[object], Optional[object]]:
        """Range bounds implied by predicates on the index's leading column."""
        low: Optional[object] = None
        high: Optional[object] = None
        for predicate in filters:
            if predicate.column.column != leading:
                continue
            if predicate.op is Comparison.EQ:
                low, high = predicate.value, predicate.value
            elif predicate.op is Comparison.BETWEEN:
                low, high = predicate.value, predicate.value2
            elif predicate.op in (Comparison.GT, Comparison.GE):
                low = predicate.value if low is None else max(low, predicate.value)
            elif predicate.op in (Comparison.LT, Comparison.LE):
                high = predicate.value if high is None else min(high, predicate.value)
        return low, high

    # -- sort -----------------------------------------------------------------------

    def _run_sort(self, node: PlanNode, stats: ExecutionStatistics) -> List[Row]:
        rows = self._run(node.children[0], stats)
        stats.charge_rows(len(rows))
        keys = [qualified(ref.table, ref.column) for ref in node.columns]
        return sorted(rows, key=lambda row: tuple(_sort_key(row.get(k)) for k in keys))

    # -- joins ---------------------------------------------------------------------

    def _run_symmetric_join(self, node: PlanNode, stats: ExecutionStatistics) -> List[Row]:
        """Hash and merge joins both reduce to an equality match on the key
        predicate, with the node's other predicates applied as a residual."""
        outer, inner = node.children
        outer_rows = self._run(outer, stats)
        inner_rows = self._run(inner, stats)
        stats.charge_rows(len(outer_rows) + len(inner_rows))

        outer_key, inner_key = self._join_keys(node)
        residual = node.predicates[1:]
        table: Dict[object, List[Row]] = {}
        for row in inner_rows:
            table.setdefault(row.get(inner_key), []).append(row)
        joined: List[Row] = []
        for row in outer_rows:
            for match in table.get(row.get(outer_key), []):
                combined = dict(row)
                combined.update(match)
                if _satisfies(combined, residual):
                    joined.append(combined)
        if node.op is Operator.MERGEJOIN:
            joined.sort(key=lambda row: _sort_key(row.get(outer_key)))
        return joined

    def _run_nested_loop(self, node: PlanNode, stats: ExecutionStatistics) -> List[Row]:
        outer, inner = node.children  # the inner is a parameterized index scan
        outer_rows = self._run(outer, stats)

        index_data = self._database.build_index(inner.path.index)
        relation = self._database.relation(inner.path.table)
        inner_filters = self._query.filters_on(inner.path.table)
        outer_key, _ = self._join_keys(node)
        residual = node.predicates[1:]

        joined: List[Row] = []
        for row in outer_rows:
            value = row.get(outer_key)
            positions = index_data.positions_equal(value)
            stats.index_probes += 1
            stats.charge_random(2.0)  # B-tree descent per probe
            if not inner.path.covering:
                stats.charge_random(len(positions))
            stats.charge_rows(len(positions))
            matches = [qualify_row(inner.path.table, raw) for raw in relation.fetch(positions)]
            for match in apply_predicates(inner_filters, matches):
                combined = dict(row)
                combined.update(match)
                if _satisfies(combined, residual):
                    joined.append(combined)
        return joined

    def _join_keys(self, node: PlanNode) -> Tuple[str, str]:
        """Qualified row keys of the key predicate's outer and inner sides."""
        outer_tables = node.children[0].tables
        left, right = node.predicates[0].left, node.predicates[0].right
        if left.table in outer_tables:
            outer_ref, inner_ref = left, right
        else:
            outer_ref, inner_ref = right, left
        return (
            qualified(outer_ref.table, outer_ref.column),
            qualified(inner_ref.table, inner_ref.column),
        )

    # -- aggregation ------------------------------------------------------------------

    def _run_aggregate(self, node: PlanNode, stats: ExecutionStatistics) -> List[Row]:
        rows = self._run(node.children[0], stats)
        stats.charge_rows(len(rows))
        group_keys = [qualified(ref.table, ref.column) for ref in node.columns]

        groups: Dict[Tuple, List[Row]] = {}
        for row in rows:
            key = tuple(row.get(k) for k in group_keys)
            groups.setdefault(key, []).append(row)
        if not groups and not group_keys:
            groups[()] = []

        results: List[Row] = []
        for key, members in sorted(groups.items(), key=lambda item: tuple(map(_sort_key, item[0]))):
            out: Row = {k: v for k, v in zip(group_keys, key)}
            for aggregate in self._query.aggregates:
                out[str(aggregate)] = _evaluate_aggregate(aggregate.func, aggregate.column, members)
            results.append(out)
        return results

    # -- projection ---------------------------------------------------------------------

    def _final_projection(self, plan: PlanNode, rows: List[Row]) -> List[Row]:
        """Project the root's rows onto the query's select list."""
        if any(node.op is Operator.AGGREGATE for node in plan.walk()):
            return rows
        wanted = [qualified(ref.table, ref.column) for ref in self._query.select_columns]
        if not wanted:
            return rows
        projected = []
        for row in rows:
            projected.append({key: row.get(key) for key in wanted})
        return projected

    _HANDLERS = {
        Operator.SCAN: _run_scan,
        Operator.SORT: _run_sort,
        Operator.HASHJOIN: _run_symmetric_join,
        Operator.MERGEJOIN: _run_symmetric_join,
        Operator.NESTLOOP: _run_nested_loop,
        Operator.AGGREGATE: _run_aggregate,
    }


def _satisfies(row: Row, predicates: Sequence[JoinPredicate]) -> bool:
    """Whether ``row`` meets every equi-join predicate in ``predicates``."""
    return all(
        row.get(qualified(p.left.table, p.left.column))
        == row.get(qualified(p.right.table, p.right.column))
        for p in predicates
    )


def _evaluate_aggregate(
    func: AggregateFunction, column: Optional[ColumnRef], rows: List[Row]
) -> object:
    """Compute one aggregate over the rows of a group."""
    if func is AggregateFunction.COUNT and column is None:
        return len(rows)
    assert column is not None
    key = qualified(column.table, column.column)
    values = [row[key] for row in rows if row.get(key) is not None]
    if func is AggregateFunction.COUNT:
        return len(values)
    if not values:
        return None
    if func is AggregateFunction.SUM:
        return sum(values)
    if func is AggregateFunction.AVG:
        return sum(values) / len(values)
    if func is AggregateFunction.MIN:
        return min(values)
    if func is AggregateFunction.MAX:
        return max(values)
    raise ExecutionError(f"unsupported aggregate {func!r}")  # pragma: no cover


def _sort_key(value: object) -> Tuple[int, object]:
    """Total order over possibly-None, possibly-mixed-type values."""
    if value is None:
        return (0, 0)
    if isinstance(value, (int, float)):
        return (1, value)
    return (2, str(value))
