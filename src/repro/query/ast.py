"""Abstract syntax for the supported statement class.

PINUM's implementation "does not address queries containing complex
sub-queries, inheritance, and outer joins" (Section VI-A); the supported
read class is select-project-join queries with conjunctive single-table
predicates, equi-joins, group-by, aggregates and order-by.  That is exactly
the class :class:`Query` models.  Everything is immutable so queries can be
used as dictionary keys by the plan caches.

Update-aware tuning additionally models the write side of a workload:
:class:`DmlStatement` covers single-table INSERT ... VALUES, UPDATE ... SET
and DELETE statements with the same conjunctive predicate class.  A DML
statement exposes the subset of the :class:`Query` surface the tuning stack
relies on (``name``, ``tables``, ``to_sql()``, ``filters_on``), so workloads
may freely mix the two; :data:`Statement` is the union type.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import FrozenSet, List, Optional, Tuple, Union

from repro.util.errors import QueryError


@dataclass(frozen=True, order=True)
class ColumnRef:
    """A fully qualified column reference ``table.column``."""

    table: str
    column: str

    def __post_init__(self) -> None:
        if not self.table or not self.column:
            raise QueryError("column references must have both a table and a column")

    def __str__(self) -> str:
        return f"{self.table}.{self.column}"


class Comparison(enum.Enum):
    """Comparison operators supported in single-table predicates."""

    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    BETWEEN = "between"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Comparison.{self.name}"


@dataclass(frozen=True)
class Predicate:
    """A single-table predicate ``column <op> value`` (or BETWEEN value/value2)."""

    column: ColumnRef
    op: Comparison
    value: float
    value2: Optional[float] = None

    def __post_init__(self) -> None:
        if self.op is Comparison.BETWEEN and self.value2 is None:
            raise QueryError("BETWEEN predicates need both bounds")
        if self.op is not Comparison.BETWEEN and self.value2 is not None:
            raise QueryError(f"{self.op.value!r} predicates take a single value")

    @property
    def table(self) -> str:
        """The table this predicate restricts."""
        return self.column.table

    def __str__(self) -> str:
        if self.op is Comparison.BETWEEN:
            return f"{self.column} BETWEEN {self.value} AND {self.value2}"
        return f"{self.column} {self.op.value} {self.value}"


@dataclass(frozen=True)
class JoinPredicate:
    """An equi-join predicate ``left = right`` between two tables."""

    left: ColumnRef
    right: ColumnRef

    def __post_init__(self) -> None:
        if self.left.table == self.right.table:
            raise QueryError(
                f"join predicate must reference two different tables, got {self.left.table!r}"
            )

    @property
    def tables(self) -> FrozenSet[str]:
        """The two tables the predicate connects."""
        return frozenset({self.left.table, self.right.table})

    def column_for(self, table: str) -> ColumnRef:
        """The side of the predicate belonging to ``table``."""
        if self.left.table == table:
            return self.left
        if self.right.table == table:
            return self.right
        raise QueryError(f"join predicate {self} does not involve table {table!r}")

    def other(self, table: str) -> ColumnRef:
        """The side of the predicate *not* belonging to ``table``."""
        if self.left.table == table:
            return self.right
        if self.right.table == table:
            return self.left
        raise QueryError(f"join predicate {self} does not involve table {table!r}")

    def __str__(self) -> str:
        return f"{self.left} = {self.right}"


class AggregateFunction(enum.Enum):
    """Supported aggregate functions."""

    COUNT = "count"
    SUM = "sum"
    AVG = "avg"
    MIN = "min"
    MAX = "max"


@dataclass(frozen=True)
class Aggregate:
    """An aggregate expression in the select list (``COUNT(*)`` has no column)."""

    func: AggregateFunction
    column: Optional[ColumnRef] = None

    def __post_init__(self) -> None:
        if self.func is not AggregateFunction.COUNT and self.column is None:
            raise QueryError(f"{self.func.value} requires a column argument")

    def __str__(self) -> str:
        arg = "*" if self.column is None else str(self.column)
        return f"{self.func.value}({arg})"


@dataclass(frozen=True)
class OrderByItem:
    """One entry of the ORDER BY clause."""

    column: ColumnRef
    descending: bool = False

    def __str__(self) -> str:
        return f"{self.column} {'DESC' if self.descending else 'ASC'}"


@dataclass(frozen=True)
class Query:
    """An immutable select-project-join query.

    ``tables`` is the FROM list; ``joins`` are equi-join predicates between
    those tables; ``filters`` are conjunctive single-table predicates.
    """

    #: Class-level marker so mixed workloads can be partitioned without
    #: isinstance checks sprinkled everywhere.
    is_dml = False

    name: str
    tables: Tuple[str, ...]
    select_columns: Tuple[ColumnRef, ...] = ()
    aggregates: Tuple[Aggregate, ...] = ()
    filters: Tuple[Predicate, ...] = ()
    joins: Tuple[JoinPredicate, ...] = ()
    group_by: Tuple[ColumnRef, ...] = ()
    order_by: Tuple[OrderByItem, ...] = ()

    def __post_init__(self) -> None:
        if not self.tables:
            raise QueryError(f"query {self.name!r} must reference at least one table")
        if len(set(self.tables)) != len(self.tables):
            raise QueryError(f"query {self.name!r} lists a table twice (self-joins unsupported)")
        if not self.select_columns and not self.aggregates:
            raise QueryError(f"query {self.name!r} selects nothing")
        table_set = set(self.tables)
        for ref in self.referenced_columns():
            if ref.table not in table_set:
                raise QueryError(
                    f"query {self.name!r} references {ref} but {ref.table!r} is not in FROM"
                )

    # -- column bookkeeping -------------------------------------------------

    def referenced_columns(self) -> List[ColumnRef]:
        """Every column reference appearing anywhere in the query."""
        refs: List[ColumnRef] = list(self.select_columns)
        refs.extend(agg.column for agg in self.aggregates if agg.column is not None)
        refs.extend(pred.column for pred in self.filters)
        for join in self.joins:
            refs.extend((join.left, join.right))
        refs.extend(self.group_by)
        refs.extend(item.column for item in self.order_by)
        return refs

    def columns_of(self, table: str) -> List[str]:
        """Distinct column names of ``table`` referenced by the query."""
        seen: List[str] = []
        for ref in self.referenced_columns():
            if ref.table == table and ref.column not in seen:
                seen.append(ref.column)
        return seen

    def filters_on(self, table: str) -> List[Predicate]:
        """Single-table predicates restricting ``table``."""
        return [pred for pred in self.filters if pred.table == table]

    def joins_involving(self, table: str) -> List[JoinPredicate]:
        """Join predicates with ``table`` on either side."""
        return [join for join in self.joins if table in join.tables]

    def join_columns_of(self, table: str) -> List[str]:
        """Columns of ``table`` used in join predicates (in appearance order)."""
        columns: List[str] = []
        for join in self.joins_involving(table):
            column = join.column_for(table).column
            if column not in columns:
                columns.append(column)
        return columns

    def order_by_columns_of(self, table: str) -> List[str]:
        """Columns of ``table`` used in the ORDER BY clause."""
        return [item.column.column for item in self.order_by if item.column.table == table]

    def group_by_columns_of(self, table: str) -> List[str]:
        """Columns of ``table`` used in the GROUP BY clause."""
        return [ref.column for ref in self.group_by if ref.table == table]

    @property
    def has_aggregation(self) -> bool:
        """Whether the query has aggregates or a GROUP BY clause."""
        return bool(self.aggregates) or bool(self.group_by)

    @property
    def table_count(self) -> int:
        """Number of tables in the FROM clause."""
        return len(self.tables)

    def to_sql(self) -> str:
        """Render the query as SQL text (round-trips through the parser)."""
        select_items = [str(ref) for ref in self.select_columns]
        select_items.extend(str(agg) for agg in self.aggregates)
        sql = [f"SELECT {', '.join(select_items)}"]
        sql.append(f"FROM {', '.join(self.tables)}")
        conditions = [str(join) for join in self.joins] + [str(pred) for pred in self.filters]
        if conditions:
            sql.append("WHERE " + " AND ".join(conditions))
        if self.group_by:
            sql.append("GROUP BY " + ", ".join(str(ref) for ref in self.group_by))
        if self.order_by:
            sql.append("ORDER BY " + ", ".join(str(item) for item in self.order_by))
        return "\n".join(sql)

    def renamed(self, name: str) -> "Query":
        """This query under another name (identical semantics).

        Template folding (:mod:`repro.online.window`) gives every distinct
        SQL shape a fingerprint-stable name, so session caches keyed by
        semantics survive arbitrary renames.
        """
        if name == self.name:
            return self
        return replace(self, name=name)

    def __str__(self) -> str:
        return f"Query({self.name}: {len(self.tables)} tables)"


class DmlKind(enum.Enum):
    """The three supported write-statement kinds."""

    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DmlKind.{self.name}"


def _format_number(value: float) -> str:
    """Render a numeric literal so it round-trips through the parser."""
    return str(float(value))


@dataclass(frozen=True)
class DmlStatement:
    """An immutable single-table INSERT / UPDATE / DELETE statement.

    ``columns`` are the written columns: the INSERT target list or the
    UPDATE SET targets (empty for DELETE).  ``values`` holds the INSERT rows
    (one tuple per VALUES group); ``set_values`` the UPDATE assignments,
    aligned with ``columns``.  ``filters`` is the conjunctive WHERE clause of
    UPDATE/DELETE, restricted to the target table -- DML statements never
    join.
    """

    is_dml = True

    name: str
    kind: DmlKind
    table: str
    columns: Tuple[str, ...] = ()
    values: Tuple[Tuple[float, ...], ...] = ()
    set_values: Tuple[float, ...] = ()
    filters: Tuple[Predicate, ...] = ()

    def __post_init__(self) -> None:
        if not self.table:
            raise QueryError(f"statement {self.name!r} must name a target table")
        if len(set(self.columns)) != len(self.columns):
            raise QueryError(
                f"statement {self.name!r} lists a target column twice: {self.columns}"
            )
        if self.kind is DmlKind.INSERT:
            if not self.columns:
                raise QueryError(f"INSERT {self.name!r} needs a column list")
            if not self.values:
                raise QueryError(f"INSERT {self.name!r} needs at least one VALUES row")
            for row in self.values:
                if len(row) != len(self.columns):
                    raise QueryError(
                        f"INSERT {self.name!r}: VALUES row has {len(row)} values "
                        f"for {len(self.columns)} columns"
                    )
            if self.filters:
                raise QueryError(f"INSERT {self.name!r} cannot have a WHERE clause")
            if self.set_values:
                raise QueryError(f"INSERT {self.name!r} cannot have SET assignments")
        elif self.kind is DmlKind.UPDATE:
            if not self.columns:
                raise QueryError(f"UPDATE {self.name!r} needs at least one SET assignment")
            if len(self.set_values) != len(self.columns):
                raise QueryError(
                    f"UPDATE {self.name!r}: {len(self.columns)} SET columns "
                    f"but {len(self.set_values)} values"
                )
            if self.values:
                raise QueryError(f"UPDATE {self.name!r} cannot have VALUES rows")
        else:  # DELETE
            if self.columns or self.values or self.set_values:
                raise QueryError(f"DELETE {self.name!r} cannot write columns")
        for predicate in self.filters:
            if predicate.table != self.table:
                raise QueryError(
                    f"statement {self.name!r} targets {self.table!r} but filters "
                    f"{predicate.table!r} (DML statements cannot join)"
                )
        for row in self.values:
            for value in row:
                if not math.isfinite(value):
                    raise QueryError(
                        f"statement {self.name!r}: VALUES must be finite, got {value!r}"
                    )
        for value in self.set_values:
            if not math.isfinite(value):
                raise QueryError(
                    f"statement {self.name!r}: SET values must be finite, got {value!r}"
                )

    # -- Query-compatible surface ------------------------------------------

    @property
    def tables(self) -> Tuple[str, ...]:
        """The single target table (Query-shaped, for workload plumbing)."""
        return (self.table,)

    @property
    def table_count(self) -> int:
        """Always 1: DML statements are single-table."""
        return 1

    def referenced_columns(self) -> List[ColumnRef]:
        """Every column the statement reads or writes, in appearance order."""
        refs = [ColumnRef(self.table, column) for column in self.columns]
        refs.extend(predicate.column for predicate in self.filters)
        return refs

    def columns_of(self, table: str) -> List[str]:
        """Distinct column names of ``table`` the statement touches."""
        seen: List[str] = []
        for ref in self.referenced_columns():
            if ref.table == table and ref.column not in seen:
                seen.append(ref.column)
        return seen

    def filters_on(self, table: str) -> List[Predicate]:
        """Predicates restricting ``table`` (empty unless it is the target)."""
        return [pred for pred in self.filters if pred.table == table]

    # -- write-side semantics ----------------------------------------------

    def affects_index_columns(self, index_columns: Tuple[str, ...]) -> bool:
        """Whether the statement must maintain an index over ``index_columns``.

        INSERT and DELETE add or remove whole rows, so every index on the
        table needs an entry written or reclaimed; an UPDATE only touches
        indexes containing one of its SET targets (everything else keeps its
        entries byte-identical, PostgreSQL's HOT-update fast path).
        """
        if self.kind is not DmlKind.UPDATE:
            return True
        return any(column in index_columns for column in self.columns)

    @property
    def rows_hint(self) -> Optional[int]:
        """Literal row count when the statement states one (INSERT VALUES)."""
        if self.kind is DmlKind.INSERT:
            return len(self.values)
        return None

    def shadow_query(self) -> Optional[Query]:
        """The SELECT equivalent of the statement's *read* phase.

        UPDATE and DELETE must first locate the affected rows -- exactly the
        work a ``SELECT <referenced columns> FROM <table> WHERE <filters>``
        performs, so that query's plan cache prices the read side (and its
        benefit from candidate indexes).  INSERT has no read phase and
        statements referencing no columns at all (an unfiltered DELETE) scan
        the heap unconditionally; both return ``None`` and are priced by the
        maintenance model alone.
        """
        if self.kind is DmlKind.INSERT:
            return None
        referenced = self.columns_of(self.table)
        if not referenced:
            return None
        return Query(
            name=self.name,
            tables=(self.table,),
            select_columns=tuple(ColumnRef(self.table, column) for column in referenced),
            filters=self.filters,
        )

    def to_sql(self) -> str:
        """Render as SQL text (round-trips through ``parse_statement``)."""
        if self.kind is DmlKind.INSERT:
            rows = ", ".join(
                "(" + ", ".join(_format_number(value) for value in row) + ")"
                for row in self.values
            )
            return (
                f"INSERT INTO {self.table} ({', '.join(self.columns)})\n"
                f"VALUES {rows}"
            )
        if self.kind is DmlKind.UPDATE:
            assignments = ", ".join(
                f"{self.table}.{column} = {_format_number(value)}"
                for column, value in zip(self.columns, self.set_values)
            )
            sql = [f"UPDATE {self.table}", f"SET {assignments}"]
        else:
            sql = [f"DELETE FROM {self.table}"]
        if self.filters:
            sql.append("WHERE " + " AND ".join(str(pred) for pred in self.filters))
        return "\n".join(sql)

    def renamed(self, name: str) -> "DmlStatement":
        """This statement under another name (identical semantics)."""
        if name == self.name:
            return self
        return replace(self, name=name)

    def __str__(self) -> str:
        return f"DmlStatement({self.name}: {self.kind.value} {self.table})"


#: A workload statement: a read query or a write statement.
Statement = Union[Query, DmlStatement]
