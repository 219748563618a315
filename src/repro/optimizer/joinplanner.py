"""The dynamic-programming Join Planner (Figure 2, fourth stage).

Given one query and the access paths collected for its tables, the planner
runs a System-R / PostgreSQL style bottom-up dynamic program over left-deep
join trees: level 1 holds the access paths of the individual tables, each
subsequent level joins one more table onto every plan of the previous level,
and only non-dominated plans per dynamic-programming state survive.

The state key is what distinguishes stock behaviour from PINUM behaviour:

* **Stock mode** keeps the cheapest plan per *output order* and discards any
  plan dominated by a cheaper plan with equal-or-stronger output order.  This
  is exactly why intermediate per-IOC plans are "collected during join
  optimization, only to be discarded at the final optimization level"
  (Section IV).
* **PINUM mode** (``hooks.keep_all_ioc_plans``) additionally keys the state
  by the interesting-order combination the plan's leaves provide, so the top
  level retains the best plan for every IOC.  The optional subsumption rule
  of Section V-D then removes IOCs that can never win: if plan A requires a
  subset of plan B's orders and is cheaper, B is dropped.

Most candidate joins lose to the incumbent of their state, so the planner
prices a candidate -- cost, output order and, in PINUM mode, its IOC (the
outer plan's IOC, read from its state key, plus the inner leaf's order) --
and builds its nodes only once it has won.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.optimizer.cost_model import CostModel
from repro.optimizer.hooks import OptimizerHooks
from repro.optimizer.interesting_orders import (
    InterestingOrderCombination,
    interesting_orders_by_table,
)
from repro.optimizer.plan import AccessPath, Operator, PlanNode, join, scan, sort
from repro.optimizer.selectivity import SelectivityEstimator
from repro.query.ast import ColumnRef, JoinPredicate, Query
from repro.util.errors import PlanningError


@dataclass
class JoinPlannerResult:
    """Plans the join planner hands to the grouping planner."""

    #: Candidate top-level join plans (one per surviving DP state).
    candidates: List[PlanNode] = field(default_factory=list)
    #: Best join plan per interesting-order combination (PINUM mode only).
    ioc_plans: Dict[InterestingOrderCombination, PlanNode] = field(default_factory=dict)


class JoinPlanner:
    """Bottom-up DP join-order and join-method selection."""

    def __init__(
        self,
        cost_model: CostModel,
        selectivity: SelectivityEstimator,
        enable_nestloop: bool = True,
    ) -> None:
        self._cost_model = cost_model
        self._selectivity = selectivity
        self._enable_nestloop = enable_nestloop

    # -- public API -------------------------------------------------------------

    def plan(
        self,
        query: Query,
        access_paths: Dict[str, List[AccessPath]],
        hooks: Optional[OptimizerHooks] = None,
    ) -> JoinPlannerResult:
        """Run the DP and return the surviving top-level plans."""
        hooks = hooks or OptimizerHooks.disabled()
        keep_all = hooks.keep_all_ioc_plans
        orders_by_table = interesting_orders_by_table(query)

        # One scan node per access path: it is the level-1 plan and the inner
        # side of every join onto its table (nodes are immutable, so sharing
        # them between plans is safe).
        scans: Dict[str, List[PlanNode]] = {}
        states: Dict[FrozenSet[str], Dict[Tuple, PlanNode]] = {}
        for table in query.tables:
            paths = access_paths.get(table)
            if not paths:
                raise PlanningError(f"no access paths collected for table {table!r}")
            scans[table] = [scan(path) for path in paths]
            state: Dict[Tuple, PlanNode] = {}
            for leaf in scans[table]:
                ioc = normalized_ioc(leaf, orders_by_table) if keep_all else None
                key = _state_key(ioc, leaf.output_order)
                if _admits(state, key, leaf.total_cost, leaf.output_order, keep_all):
                    _insert(state, key, leaf, keep_all)
            states[frozenset({table})] = state

        # Left-deep DP: each level joins one more table onto the previous level.
        for level in range(1, query.table_count):
            next_states: Dict[FrozenSet[str], Dict[Tuple, PlanNode]] = {}
            for subset, state in states.items():
                if len(subset) != level:
                    continue
                for table in query.tables:
                    if table in subset:
                        continue
                    join_predicates = self._connecting_predicates(query, subset, table)
                    if not join_predicates:
                        continue
                    self._join_onto(
                        next_states.setdefault(subset | {table}, {}),
                        query,
                        subset,
                        state,
                        scans[table],
                        join_predicates,
                        orders_by_table.get(table, []),
                        keep_all,
                    )
            if keep_all and hooks.subsumption_pruning:
                # The paper's Section V-D point: applying the subsumption rule
                # *inside* the join planner keeps the per-IOC state small, so
                # the single hooked call stays cheap.
                for subset, state in next_states.items():
                    next_states[subset] = self._prune_state_subsumed(state)
            # Keep completed smaller subsets (they are no longer extended) out of
            # the working set to bound memory, but retain level-`level+1` states.
            states = {s: st for s, st in states.items() if len(s) != level}
            states.update(next_states)

        full = frozenset(query.tables)
        final_state = states.get(full)
        if not final_state:
            raise PlanningError(
                f"join planner produced no plan for query {query.name!r}; "
                "is the join graph connected?"
            )

        result = JoinPlannerResult(candidates=list(final_state.values()))
        if keep_all:
            result.ioc_plans = self._collapse_per_ioc(final_state)
            if hooks.subsumption_pruning:
                result.ioc_plans = prune_subsumed_plans(result.ioc_plans)
        return result

    # -- DP bookkeeping ------------------------------------------------------------

    def _prune_state_subsumed(self, state: Dict[Tuple, PlanNode]) -> Dict[Tuple, PlanNode]:
        """Apply the Section V-D rule to one DP state (keep-all mode only).

        Within each interesting-order combination only plans that are not
        dominated by a cheaper plan with an equal-or-stronger output order
        survive; across combinations, a combination whose cheapest plan is
        beaten by a cheaper plan requiring a *subset* of its orders is
        dropped entirely.
        """
        # Group the state's plans by the IOC of their leaves (the key's first part).
        by_ioc: Dict[InterestingOrderCombination, List[Tuple[Tuple, PlanNode]]] = {}
        for key, plan in state.items():
            by_ioc.setdefault(key[0], []).append((key, plan))

        cheapest: Dict[InterestingOrderCombination, float] = {
            ioc: min(plan.total_cost for _, plan in plans) for ioc, plans in by_ioc.items()
        }
        # ``is_subset_of`` compares these sets; derive each once, not per pair.
        orders = {ioc: ioc.non_empty_orders for ioc in by_ioc}
        pruned: Dict[Tuple, PlanNode] = {}
        for ioc, plans in by_ioc.items():
            bound, required = cheapest[ioc], orders[ioc]
            subsumed = any(
                cost < bound and orders[other] <= required
                for other, cost in cheapest.items()
                if other is not ioc
            )
            if subsumed:
                continue
            for key, plan in plans:
                dominated = any(
                    other_plan is not plan
                    and other_plan.output_order >= plan.output_order
                    and (
                        other_plan.total_cost < plan.total_cost
                        or (
                            other_plan.total_cost == plan.total_cost
                            and other_plan.output_order > plan.output_order
                        )
                    )
                    for _, other_plan in plans
                )
                if not dominated:
                    pruned[key] = plan
        return pruned

    def _collapse_per_ioc(
        self, state: Dict[Tuple, PlanNode]
    ) -> Dict[InterestingOrderCombination, PlanNode]:
        """Cheapest plan per interesting-order combination at the top level."""
        best: Dict[InterestingOrderCombination, PlanNode] = {}
        for (ioc, _), plan in state.items():
            incumbent = best.get(ioc)
            if incumbent is None or plan.total_cost < incumbent.total_cost:
                best[ioc] = plan
        return best

    # -- join construction ------------------------------------------------------------

    @staticmethod
    def _connecting_predicates(
        query: Query, subset: FrozenSet[str], table: str
    ) -> Tuple[JoinPredicate, ...]:
        """Join predicates linking ``table`` to any member of ``subset``."""
        return tuple(
            predicate
            for predicate in query.joins_involving(table)
            if next(iter(predicate.tables - {table})) in subset
        )

    def _join_onto(
        self,
        target: Dict[Tuple, PlanNode],
        query: Query,
        subset: FrozenSet[str],
        state: Dict[Tuple, PlanNode],
        inner_scans: List[PlanNode],
        predicates: Tuple[JoinPredicate, ...],
        inner_orders: List[str],
        keep_all: bool,
    ) -> None:
        """Offer ``target`` every join of a ``subset`` plan with one of ``inner_scans``.

        Every join applies all of ``predicates``; the first is the key the
        operator matches on.  Per (outer, inner) pair the candidates are a
        hash join building on the cheaper side (the other side could only
        lose to it under the same key), a merge join with sorts on whichever
        inputs need them and, with nested loops on, a nested loop probing
        the inner's index on the key.  Each is priced first and built only
        if :func:`_admits` lets it into ``target``.  In PINUM mode all three
        share one IOC: the outer's, plus the inner leaf's interesting order.
        """
        cost_model = self._cost_model
        table = inner_scans[0].path.table
        new_subset = subset | {table}
        output_rows = self._selectivity.join_result_rows(query, new_subset)
        outer_width = self._selectivity.output_row_width(query, subset)
        inner_width = self._selectivity.output_row_width(query, (table,))
        key_predicate = predicates[0]
        inner_column = key_predicate.column_for(table)
        outer_column = key_predicate.other(table)
        merge_order = frozenset({outer_column, inner_column})

        # What depends on the inner leaf alone: its cost sorted on the key,
        # its interesting order and whether a nested loop can probe it.
        inners = []
        for inner in inner_scans:
            path = inner.path
            presorted = path.provided_order == inner_column.column
            inners.append((
                inner,
                presorted,
                inner.total_cost if presorted else cost_model.sort(
                    inner.total_cost, inner.rows, inner_width
                ),
                path.provided_order if path.provided_order in inner_orders else None,
                self._enable_nestloop
                and path.supports_probe
                and path.index is not None
                and path.index.leading_column == inner_column.column,
            ))

        for outer_key, outer in state.items():
            outer_cost, outer_rows, outer_order = outer.total_cost, outer.rows, outer.output_order
            outer_presorted = outer_column in outer_order
            outer_sorted_cost = outer_cost if outer_presorted else cost_model.sort(
                outer_cost, outer_rows, outer_width
            )
            outer_orders = outer_key[0].as_dict() if keep_all else None
            for inner, presorted, inner_sorted_cost, leaf_order, probes in inners:
                ioc = None
                if keep_all:
                    ioc = InterestingOrderCombination({**outer_orders, table: leaf_order})

                key = _state_key(ioc, _UNORDERED)
                cost = cost_model.hash_join(
                    outer_cost, inner.total_cost, outer_rows, inner.rows, output_rows
                )
                probe_side, build_side = outer, inner
                build_on_outer = cost_model.hash_join(
                    inner.total_cost, outer_cost, inner.rows, outer_rows, output_rows
                )
                if build_on_outer < cost:
                    cost, probe_side, build_side = build_on_outer, inner, outer
                if _admits(target, key, cost, _UNORDERED, keep_all):
                    _insert(target, key, join(
                        Operator.HASHJOIN, probe_side, build_side, predicates, cost, output_rows
                    ), keep_all)

                key = _state_key(ioc, merge_order)
                cost = cost_model.merge_join(
                    outer_sorted_cost, inner_sorted_cost, outer_rows, inner.rows, output_rows
                )
                if _admits(target, key, cost, merge_order, keep_all):
                    _insert(target, key, join(
                        Operator.MERGEJOIN,
                        outer if outer_presorted else sort(
                            outer, (outer_column,), outer_sorted_cost
                        ),
                        inner if presorted else sort(inner, (inner_column,), inner_sorted_cost),
                        predicates, cost, output_rows, merge_order,
                    ), keep_all)

                if probes:
                    # A nested loop preserves the outer input's ordering.
                    key = _state_key(ioc, outer_order)
                    cost = cost_model.nested_loop_join(
                        outer_cost, outer_rows, inner.path.rescan_cost, output_rows
                    )
                    if _admits(target, key, cost, outer_order, keep_all):
                        probe = scan(
                            inner.path, multiplier=max(1.0, outer_rows), parameterized=True
                        )
                        _insert(target, key, join(
                            Operator.NESTLOOP, outer, probe, predicates, cost, output_rows,
                            outer_order,
                        ), keep_all)


# -- DP state entries -------------------------------------------------------------------

_UNORDERED: FrozenSet[ColumnRef] = frozenset()


def _state_key(ioc: Optional[InterestingOrderCombination], order: FrozenSet[ColumnRef]) -> Tuple:
    """A plan's DP state key: its output order, preceded in PINUM mode by its IOC."""
    return (order,) if ioc is None else (ioc, order)


def _admits(
    state: Dict[Tuple, PlanNode],
    key: Tuple,
    cost: float,
    order: FrozenSet[ColumnRef],
    keep_all: bool,
) -> bool:
    """PostgreSQL's ``add_path`` test, made before the plan is built.

    PINUM mode keeps the cheapest plan per key.  Stock mode rejects a plan
    that a plan at most as expensive with an equal-or-stronger output order
    dominates.
    """
    if keep_all:
        incumbent = state.get(key)
        return incumbent is None or cost < incumbent.total_cost
    return not any(
        incumbent.total_cost <= cost and incumbent.output_order >= order
        for incumbent in state.values()
    )


def _insert(state: Dict[Tuple, PlanNode], key: Tuple, plan: PlanNode, keep_all: bool) -> None:
    """Put an admitted ``plan`` under ``key``; stock mode first drops every
    plan it dominates."""
    if not keep_all:
        for stale in [
            other for other, incumbent in state.items()
            if plan.total_cost <= incumbent.total_cost
            and plan.output_order >= incumbent.output_order
        ]:
            del state[stale]
    state[key] = plan


# -- helpers shared with PINUM ----------------------------------------------------------


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


def prune_subsumed_plans(
    plans: Dict[InterestingOrderCombination, PlanNode]
) -> Dict[InterestingOrderCombination, PlanNode]:
    """Apply the paper's Section V-D pruning rule to a per-IOC plan set.

    If plan A requires interesting-order set S_A, plan B requires S_B,
    S_A is a subset of S_B and A costs less, then for *any* configuration
    covering S_B plan A would also be applicable and cheaper, so B can never
    be the winner and is removed.
    """
    kept: Dict[InterestingOrderCombination, PlanNode] = {}
    items = list(plans.items())
    for ioc_b, plan_b in items:
        subsumed = False
        for ioc_a, plan_a in items:
            if ioc_a is ioc_b:
                continue
            if ioc_a.is_subset_of(ioc_b) and plan_a.total_cost < plan_b.total_cost:
                subsumed = True
                break
        if not subsumed:
            kept[ioc_b] = plan_b
    return kept
