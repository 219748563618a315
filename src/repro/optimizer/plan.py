"""Plan trees: access paths, one operator node and the INUM cost decomposition.

A plan is a tree of immutable :class:`PlanNode` objects.  Every node has an
:class:`Operator`, children, a total cost, a row estimate and an output
order; the other fields belong to the operator, whose constructor sets them:

* ``scan`` (:func:`scan`): ``path``, ``multiplier`` and ``parameterized``;
* ``sort`` (:func:`sort`): ``columns``, the sort keys;
* ``hashjoin``, ``mergejoin``, ``nestloop`` (:func:`join`): ``predicates``,
  every predicate connecting the two inputs.  The first is the key the
  operator matches on; the executor applies the rest as a residual filter;
* ``aggregate`` (:func:`aggregate`): ``strategy`` and ``columns``, the
  grouping keys.

Because neither a node nor its children can change, what consumers need about
a subtree is fixed once, when the node is built: :attr:`PlanNode.leaves` (the
scan nodes below it in depth-first child order -- a scan is its own leaf and
carries the table, access path and execution count INUM and PINUM read),
``uses_nested_loop`` (whether a nested-loop join is at or below it) and
``predicates``.  ``tables``, :meth:`PlanNode.access_cost` and
:meth:`PlanNode.internal_cost` are loops over ``leaves``.

The *internal cost* is the total cost minus the leaf access costs.  INUM's
observation 1 (Section II) is that for plans containing only hash and merge
joins it is independent of how the leaf data is accessed, so the total cost
of the same plan under a different index configuration is ``internal + sum of
new access costs``.  Nested-loop joins break the "accessed once" assumption:
their inner side is re-probed once per outer row, so a parameterized leaf
contributes its multiplier times the path's per-probe cost and the
decomposition stays exact (the cache can re-cost NLJ plans, the part of INUM
that needs extra optimizer calls).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Sequence, Tuple

from repro.catalog.index import Index
from repro.query.ast import ColumnRef, JoinPredicate
from repro.util.errors import PlanningError


@dataclass(frozen=True)
class AccessPath:
    """One way of reading one table.

    ``cost`` is the cost of a single full execution of the path (reading all
    qualifying rows); ``rescan_cost`` is the cost of one parameterized probe
    when the path is an index scan usable as the inner side of a nested-loop
    join on its leading column (``None`` otherwise).
    """

    table: str
    method: str  # "seqscan" or "indexscan"
    cost: float
    rows: float
    index: Optional[Index] = None
    provided_order: Optional[str] = None
    covering: bool = False
    rescan_cost: Optional[float] = None
    rows_per_probe: float = 0.0
    selectivity: float = 1.0

    def __post_init__(self) -> None:
        if self.method not in ("seqscan", "indexscan"):
            raise PlanningError(f"unknown access method {self.method!r}")
        if self.method == "indexscan" and self.index is None:
            raise PlanningError("index scans must reference an index")
        if self.cost < 0 or self.rows < 0:
            raise PlanningError("access path cost and rows must be non-negative")

    @property
    def supports_probe(self) -> bool:
        """Whether the path can serve as a parameterized nested-loop inner."""
        return self.rescan_cost is not None

    def describe(self) -> str:
        """One-line human-readable description."""
        if self.method == "seqscan":
            return f"SeqScan({self.table}) cost={self.cost:.2f} rows={self.rows:.0f}"
        assert self.index is not None
        order = f" order={self.provided_order}" if self.provided_order else ""
        return (
            f"IndexScan({self.table} using {self.index.name}) "
            f"cost={self.cost:.2f} rows={self.rows:.0f}{order}"
        )


class Operator(enum.Enum):
    """What a plan node does; the values are the names serialized caches use."""

    SCAN = "scan"
    SORT = "sort"
    HASHJOIN = "hashjoin"
    MERGEJOIN = "mergejoin"
    NESTLOOP = "nestloop"
    AGGREGATE = "aggregate"


JOIN_OPERATORS = frozenset({Operator.HASHJOIN, Operator.MERGEJOIN, Operator.NESTLOOP})


class PlanNode:
    """One immutable plan operator; build it with :func:`scan`, :func:`sort`,
    :func:`join` or :func:`aggregate`.

    ``output_order`` is the set of (equivalent) columns the output is sorted
    on, empty when the order is unspecified.  Fields that do not belong to the
    node's operator hold their defaults (``None``, ``()``, ``1.0``, ``False``).
    """

    __slots__ = (
        "op",
        "children",
        "total_cost",
        "rows",
        "output_order",
        "uses_nested_loop",
        "predicates",
        "path",
        "multiplier",
        "parameterized",
        "columns",
        "strategy",
        "_leaves",
    )

    def __init__(
        self,
        op: Operator,
        children: Tuple["PlanNode", ...],
        total_cost: float,
        rows: float,
        output_order: FrozenSet[ColumnRef] = frozenset(),
        *,
        predicates: Tuple[JoinPredicate, ...] = (),
        path: Optional[AccessPath] = None,
        multiplier: float = 1.0,
        parameterized: bool = False,
        columns: Tuple[ColumnRef, ...] = (),
        strategy: Optional[str] = None,
    ) -> None:
        if total_cost < 0:
            raise PlanningError(f"{op.value} node has negative cost {total_cost}")
        if rows < 0:
            raise PlanningError(f"{op.value} node has negative row estimate {rows}")
        init = object.__setattr__
        init(self, "op", op)
        init(self, "children", children)
        init(self, "total_cost", float(total_cost))
        init(self, "rows", float(rows))
        init(self, "output_order", frozenset(output_order))
        init(self, "predicates", predicates)
        init(self, "path", path)
        init(self, "multiplier", multiplier)
        init(self, "parameterized", parameterized)
        init(self, "columns", columns)
        init(self, "strategy", strategy)
        # A unary node shares its child's leaf tuple; a scan stores none (its
        # leaf is itself, and storing ``(self,)`` would make a reference cycle).
        init(self, "_leaves", children[0].leaves if len(children) == 1 else tuple(
            leaf for child in children for leaf in child.leaves
        ))
        init(self, "uses_nested_loop", op is Operator.NESTLOOP or any(
            child.uses_nested_loop for child in children
        ))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"plan nodes are immutable (cannot set {name!r})")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"plan nodes are immutable (cannot delete {name!r})")

    # -- structure -------------------------------------------------------------

    @property
    def leaves(self) -> Tuple["PlanNode", ...]:
        """The scan nodes under this node, in depth-first child order."""
        return self._leaves or (self,)

    @property
    def tables(self) -> FrozenSet[str]:
        """Every base table appearing under this node."""
        return frozenset(leaf.path.table for leaf in self.leaves)

    def walk(self) -> List["PlanNode"]:
        """Pre-order traversal of the plan tree."""
        nodes: List["PlanNode"] = [self]
        for child in self.children:
            nodes.extend(child.walk())
        return nodes

    # -- INUM decomposition ------------------------------------------------------

    def access_cost(self) -> float:
        """Sum of the leaf access-cost contributions."""
        return sum(
            leaf.multiplier * leaf.path.rescan_cost if leaf.parameterized else leaf.path.cost
            for leaf in self.leaves
        )

    def internal_cost(self) -> float:
        """Join/sort/aggregation cost independent of the leaf access paths."""
        return max(0.0, self.total_cost - self.access_cost())

    # -- rendering -----------------------------------------------------------------

    def _label(self) -> str:
        op = self.op
        if op is Operator.SCAN:
            suffix = " (parameterized)" if self.parameterized else ""
            return f"{self.path.describe()}{suffix}"
        estimate = f"(cost={self.total_cost:.2f} rows={self.rows:.0f})"
        if op is Operator.SORT:
            columns = ", ".join(str(c) for c in self.columns)
            return f"Sort [{columns}] {estimate}"
        if op is Operator.AGGREGATE:
            columns = ", ".join(str(c) for c in self.columns) or "*"
            return f"Aggregate[{self.strategy}] by [{columns}] {estimate}"
        on = " AND ".join(str(predicate) for predicate in self.predicates)
        return f"{op.value.title()} on {on} {estimate}"

    def explain(self, indent: int = 0) -> str:
        """EXPLAIN-style indented textual rendering of the plan."""
        lines = ["  " * indent + self._label()]
        for child in self.children:
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<PlanNode {self.op.value} cost={self.total_cost:.2f} rows={self.rows:.0f}>"


def scan(path: AccessPath, multiplier: float = 1.0, parameterized: bool = False) -> PlanNode:
    """A leaf reading ``path``; a parameterized leaf is a nested-loop inner
    probed ``multiplier`` times (once per outer row)."""
    if parameterized and path.rescan_cost is None:
        raise PlanningError("cannot parameterize a path without a rescan cost")
    order = (
        frozenset({ColumnRef(path.table, path.provided_order)})
        if path.provided_order is not None
        else frozenset()
    )
    return PlanNode(
        Operator.SCAN,
        (),
        multiplier * path.rescan_cost if parameterized else path.cost,
        path.rows_per_probe if parameterized else path.rows,
        order,
        path=path,
        multiplier=multiplier,
        parameterized=parameterized,
    )


def sort(child: PlanNode, columns: Sequence[ColumnRef], total_cost: float) -> PlanNode:
    """Explicit sort of ``child`` on ``columns``."""
    columns = tuple(columns)
    return PlanNode(
        Operator.SORT, (child,), total_cost, child.rows, frozenset(columns), columns=columns
    )


def join(
    op: Operator,
    outer: PlanNode,
    inner: PlanNode,
    predicates: Sequence[JoinPredicate],
    total_cost: float,
    rows: float,
    output_order: FrozenSet[ColumnRef] = frozenset(),
) -> PlanNode:
    """A binary join applying every predicate in ``predicates``; the first is
    the key the operator matches on (hash/merge key, nested-loop probe).  A
    nested loop's inner is a parameterized index scan probed on that key."""
    if op not in JOIN_OPERATORS:
        raise PlanningError(f"{op.value} is not a join operator")
    if not predicates:
        raise PlanningError("a join needs at least one predicate")
    if op is Operator.NESTLOOP and (not inner.parameterized or inner.path.index is None):
        raise PlanningError("a nested loop's inner must be a parameterized index scan")
    return PlanNode(
        op, (outer, inner), total_cost, rows, output_order, predicates=tuple(predicates)
    )


def aggregate(
    child: PlanNode,
    strategy: str,
    group_columns: Sequence[ColumnRef],
    total_cost: float,
    rows: float,
) -> PlanNode:
    """Grouping/aggregation over ``child`` ('hashed', 'sorted' or 'plain')."""
    if strategy not in ("hashed", "sorted", "plain"):
        raise PlanningError(f"unknown aggregation strategy {strategy!r}")
    group_columns = tuple(group_columns)
    order = child.output_order if strategy == "sorted" else frozenset(group_columns)
    if strategy == "hashed":
        order = frozenset()
    return PlanNode(
        Operator.AGGREGATE, (child,), total_cost, rows, order,
        columns=group_columns, strategy=strategy,
    )


@dataclass
class PlanSummary:
    """A compact, comparison-friendly digest of a plan's structure.

    Two optimizer calls that produce structurally identical plans (same join
    order, join methods and access paths) yield equal summaries; Section IV's
    "648 optimizer calls but only 64 unique plans" observation is measured by
    collecting these summaries into a set.
    """

    operators: Tuple[str, ...]
    leaves: Tuple[Tuple[str, str, Optional[str]], ...]
    internal_cost: float = field(compare=False, default=0.0)

    @classmethod
    def of(cls, plan: PlanNode) -> "PlanSummary":
        operators = tuple(node.op.value for node in plan.walk() if node.op is not Operator.SCAN)
        leaves = tuple(
            (leaf.path.table, leaf.path.method,
             leaf.path.index.name if leaf.path.index else None)
            for leaf in sorted(plan.leaves, key=lambda leaf: leaf.path.table)
        )
        return cls(operators=operators, leaves=leaves, internal_cost=plan.internal_cost())

    def structural_key(self) -> Tuple:
        """Hashable key ignoring costs (used to count unique plans)."""
        return (self.operators, self.leaves)
