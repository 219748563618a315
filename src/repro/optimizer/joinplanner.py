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
                self._add_plan(state, leaf, keep_all, orders_by_table)
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
                    new_subset = subset | {table}
                    target = next_states.setdefault(new_subset, {})
                    output_rows = self._selectivity.join_result_rows(query, new_subset)
                    for left_plan in state.values():
                        for inner_scan in scans[table]:
                            for plan in self._join_plans(
                                query, left_plan, table, inner_scan, join_predicates, output_rows
                            ):
                                self._add_plan(target, plan, keep_all, orders_by_table)
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

    def _add_plan(
        self,
        state: Dict[Tuple, PlanNode],
        plan: PlanNode,
        keep_all: bool,
        orders_by_table: Dict[str, List[str]],
    ) -> None:
        """PostgreSQL's ``add_path``: insert ``plan`` unless dominated."""
        if keep_all:
            ioc = normalized_ioc(plan, orders_by_table)
            key = (ioc, plan.output_order)
            incumbent = state.get(key)
            if incumbent is None or plan.total_cost < incumbent.total_cost:
                state[key] = plan
            return

        # Stock mode: dominance pruning across output orders.
        for key, incumbent in list(state.items()):
            if (
                incumbent.total_cost <= plan.total_cost
                and incumbent.output_order >= plan.output_order
            ):
                return  # dominated: a cheaper plan provides at least the same order
            if (
                plan.total_cost <= incumbent.total_cost
                and plan.output_order >= incumbent.output_order
            ):
                del state[key]
        state[(plan.output_order,)] = plan

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
        pruned: Dict[Tuple, PlanNode] = {}
        for ioc, plans in by_ioc.items():
            subsumed = any(
                other.is_subset_of(ioc) and cost < cheapest[ioc]
                for other, cost in cheapest.items()
                if other != ioc
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

    def _join_plans(
        self,
        query: Query,
        outer: PlanNode,
        table: str,
        inner_scan: PlanNode,
        join_predicates: Tuple[JoinPredicate, ...],
        output_rows: float,
    ) -> List[PlanNode]:
        """All join operators applicable to ``outer JOIN table(inner_scan)``.

        Every plan applies all of ``join_predicates``; the first one is the
        key the operator matches on.
        """
        plans: List[PlanNode] = []
        key = join_predicates[0]
        inner_column = key.column_for(table)
        outer_column = key.other(table)

        plans.extend(
            self._hash_join_plans(outer, inner_scan, join_predicates, output_rows)
        )
        plans.append(
            self._merge_join_plan(
                query, outer, inner_scan, join_predicates, outer_column, inner_column,
                output_rows,
            )
        )
        if self._enable_nestloop:
            nested = self._nested_loop_plan(
                outer, inner_scan.path, join_predicates, inner_column, output_rows
            )
            if nested is not None:
                plans.append(nested)
        return plans

    def _hash_join_plans(
        self,
        outer: PlanNode,
        inner_scan: PlanNode,
        predicates: Tuple[JoinPredicate, ...],
        output_rows: float,
    ) -> List[PlanNode]:
        """Hash joins with the build side on either input."""
        cost_build_inner = self._cost_model.hash_join(
            outer_cost=outer.total_cost,
            inner_cost=inner_scan.total_cost,
            outer_rows=outer.rows,
            inner_rows=inner_scan.rows,
            output_rows=output_rows,
        )
        cost_build_outer = self._cost_model.hash_join(
            outer_cost=inner_scan.total_cost,
            inner_cost=outer.total_cost,
            outer_rows=inner_scan.rows,
            inner_rows=outer.rows,
            output_rows=output_rows,
        )
        plans = [
            join(Operator.HASHJOIN, outer, inner_scan, predicates, cost_build_inner, output_rows),
        ]
        if cost_build_outer < cost_build_inner:
            plans.append(join(
                Operator.HASHJOIN, inner_scan, outer, predicates, cost_build_outer, output_rows
            ))
        return plans

    def _merge_join_plan(
        self,
        query: Query,
        outer: PlanNode,
        inner_scan: PlanNode,
        predicates: Tuple[JoinPredicate, ...],
        outer_column: ColumnRef,
        inner_column: ColumnRef,
        output_rows: float,
    ) -> PlanNode:
        """Merge join, adding explicit sorts on whichever inputs need them."""
        outer_node = outer
        if outer_column not in outer.output_order:
            width = self._selectivity.output_row_width(query, outer.tables)
            sort_cost = self._cost_model.sort(outer.total_cost, outer.rows, width)
            outer_node = sort(outer, (outer_column,), sort_cost)

        inner_node = inner_scan
        if inner_scan.path.provided_order != inner_column.column:
            width = self._selectivity.output_row_width(query, {inner_column.table})
            sort_cost = self._cost_model.sort(inner_scan.total_cost, inner_scan.rows, width)
            inner_node = sort(inner_scan, (inner_column,), sort_cost)

        cost = self._cost_model.merge_join(
            outer_cost_sorted=outer_node.total_cost,
            inner_cost_sorted=inner_node.total_cost,
            outer_rows=outer.rows,
            inner_rows=inner_scan.rows,
            output_rows=output_rows,
        )
        output_order = frozenset({outer_column, inner_column})
        return join(
            Operator.MERGEJOIN, outer_node, inner_node, predicates, cost, output_rows, output_order
        )

    def _nested_loop_plan(
        self,
        outer: PlanNode,
        path: AccessPath,
        predicates: Tuple[JoinPredicate, ...],
        inner_column: ColumnRef,
        output_rows: float,
    ) -> Optional[PlanNode]:
        """Parameterized nested-loop join (index probe on the join column)."""
        if not path.supports_probe or path.index is None:
            return None
        if path.index.leading_column != inner_column.column:
            return None
        inner = scan(path, multiplier=max(1.0, outer.rows), parameterized=True)
        cost = self._cost_model.nested_loop_join(
            outer_cost=outer.total_cost,
            outer_rows=outer.rows,
            inner_rescan_cost=path.rescan_cost or 0.0,
            output_rows=output_rows,
        )
        # A nested loop preserves the outer input's ordering.
        return join(
            Operator.NESTLOOP, outer, inner, predicates, cost, output_rows, outer.output_order
        )


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
