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
  by the interesting-order combination (IOC) the plan's leaves provide, so
  the top level retains the best plan for every IOC.  The optional
  subsumption rule of Section V-D then removes IOCs that can never win: if
  plan A requires a subset of plan B's orders and is cheaper, B is dropped.

The hooked call stays cheap only if the per-IOC state does (Section V-D), so
the DP allocates almost nothing per candidate join:

* **IOCs are bitmasks**: each (table, interesting column) pair of the query
  gets one bit, a leaf's IOC is its pair's bit (0 if its order is not
  interesting, and always in stock mode), a join's is ``outer | leaf bit``
  and "subset of" is ``a & ~b == 0``.  :func:`unsubsumed` applies the rule.
  :class:`InterestingOrderCombination` objects are made only for the keys of
  the returned ``ioc_plans``.
* **DP entries are tuples** (see ``Entry``) priced from their inputs'
  entries; a candidate join that loses to its state's incumbent allocates
  nothing.
* **Plan nodes are built at the end**, only for the entries returned -- the
  cheapest top-level entry per output order (the grouping planner's
  candidates) and the cheapest per surviving IOC -- and once per entry, so
  shared subtrees stay shared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Set, Tuple

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

#: ``(cost, rows, output order, operator, outer entry, inner scan node,
#: predicates, detail)``; a leaf is ``(..., Operator.SCAN, None, its scan,
#: (), None)``.  ``detail`` is whether a hash join builds on its outer side,
#: or a merge join's (outer, inner) sorted costs, ``None`` if already sorted.
Entry = Tuple
#: ``(IOC bitmask, output order) -> entry``.
State = Dict[Tuple[int, FrozenSet[ColumnRef]], Entry]


@dataclass
class JoinPlannerResult:
    """Plans the join planner hands to the grouping planner."""

    #: Candidate top-level join plans: the cheapest per output order.
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
        pairs = [(t, c) for t in query.tables for c in orders_by_table[t]] if keep_all else []
        bits = {pair: 1 << number for number, pair in enumerate(pairs)}

        # One scan node per access path: it is the level-1 plan and the inner
        # side of every join onto its table (nodes are immutable, so sharing
        # them between plans is safe).
        leaves: Dict[str, List[Tuple[PlanNode, int]]] = {}
        states: Dict[FrozenSet[str], State] = {}
        for table in query.tables:
            paths = access_paths.get(table)
            if not paths:
                raise PlanningError(f"no access paths collected for table {table!r}")
            leaves[table] = [(scan(path), bits.get((table, path.provided_order), 0))
                             for path in paths]
            state = states[frozenset({table})] = {}
            for leaf, bit in leaves[table]:
                cost, order = leaf.total_cost, leaf.output_order
                if _admit(state, (bit, order), cost, keep_all):
                    state[bit, order] = (cost, leaf.rows, order, Operator.SCAN, None, leaf, (),
                                         None)

        # Left-deep DP: each level joins one more table onto the previous level.
        for _ in range(1, query.table_count):
            next_states: Dict[FrozenSet[str], State] = {}
            for subset, state in states.items():
                # An entry's cost sorted on any key: only whether it is
                # sorted already depends on the table joined onto it.
                width = self._selectivity.output_row_width(query, subset)
                outers = [(ioc, entry, self._cost_model.sort(entry[0], entry[1], width))
                          for (ioc, _), entry in state.items()]
                for table in query.tables:
                    if table in subset:
                        continue
                    predicates = tuple(
                        predicate for predicate in query.joins_involving(table)
                        if next(iter(predicate.tables - {table})) in subset
                    )
                    if predicates:
                        self._join_onto(next_states.setdefault(subset | {table}, {}), query,
                                        subset, outers, leaves[table], predicates, keep_all)
            if keep_all and hooks.subsumption_pruning:
                # The paper's Section V-D point: applying the subsumption rule
                # *inside* the join planner keeps the per-IOC state small, so
                # the single hooked call stays cheap.
                next_states = {subset: _prune(state) for subset, state in next_states.items()}
            states = next_states

        final_state = states.get(frozenset(query.tables))
        if not final_state:
            raise PlanningError(
                f"join planner produced no plan for query {query.name!r}; "
                "is the join graph connected?"
            )
        # Every final entry has the same rows and the grouping planner adds
        # costs that depend only on rows and output order, so only the
        # cheapest entry per output order can become the best plan.
        built: Dict[int, PlanNode] = {}
        result = JoinPlannerResult(candidates=[
            _build(entry, built)
            for entry in _cheapest((entry[2], entry) for entry in final_state.values()).values()
        ])
        if keep_all:
            best = _cheapest((ioc, entry) for (ioc, _), entry in final_state.items())
            kept = set(best)
            if hooks.subsumption_pruning:
                kept = unsubsumed({ioc: entry[0] for ioc, entry in best.items()})
            for ioc, entry in best.items():
                if ioc in kept:
                    orders: Dict[str, Optional[str]] = dict.fromkeys(query.tables)
                    orders.update(pair for pair in pairs if ioc & bits[pair])
                    result.ioc_plans[InterestingOrderCombination(orders)] = _build(entry, built)
        return result

    # -- join construction ------------------------------------------------------------

    def _join_onto(
        self,
        target: State,
        query: Query,
        subset: FrozenSet[str],
        outers: List[Tuple[int, Entry, float]],
        leaves: List[Tuple[PlanNode, int]],
        predicates: Tuple[JoinPredicate, ...],
        keep_all: bool,
    ) -> None:
        """Offer ``target`` every join of an ``outers`` entry (with its IOC
        and sorted cost) of ``subset`` onto one of ``leaves``.

        Every join applies all of ``predicates``; the first is the key the
        operator matches on.  Per (outer, inner) pair the candidates are a
        hash join building on the cheaper side (the other side could only
        lose to it under the same key), a merge join with sorts on whichever
        inputs need them and, with nested loops on, a nested loop probing
        the inner's index on the key.  Each is priced first and becomes an
        entry only if :func:`_admit` lets it into ``target``.  All three
        share one IOC: the outer's, plus the inner leaf's bit.
        """
        cost_model = self._cost_model
        table = leaves[0][0].path.table
        output_rows = self._selectivity.join_result_rows(query, subset | {table})
        inner_width = self._selectivity.output_row_width(query, (table,))
        inner_column = predicates[0].column_for(table)
        outer_column = predicates[0].other(table)
        merge_order = frozenset({outer_column, inner_column})

        # What depends on the inner leaf alone: its cost sorted on the key
        # (``None`` when the path provides that order) and, when a nested
        # loop can probe it on the key, its per-probe cost.
        inners = [(
            inner, bit, inner.total_cost, inner.rows,
            None if inner.path.provided_order == inner_column.column
            else cost_model.sort(inner.total_cost, inner.rows, inner_width),
            inner.path.rescan_cost if self._enable_nestloop and inner.path.index is not None
            and inner.path.index.leading_column == inner_column.column else None,
        ) for inner, bit in leaves]

        for outer_ioc, outer, outer_sorted_cost in outers:
            outer_cost, outer_rows, outer_order = outer[0], outer[1], outer[2]
            outer_sort = None if outer_column in outer_order else outer_sorted_cost
            if outer_sort is None:
                outer_sorted_cost = outer_cost
            for inner, bit, inner_cost, inner_rows, inner_sort, rescan_cost in inners:
                ioc = outer_ioc | bit

                cost = cost_model.hash_join(
                    outer_cost, inner_cost, outer_rows, inner_rows, output_rows
                )
                build_on_outer = cost_model.hash_join(
                    inner_cost, outer_cost, inner_rows, outer_rows, output_rows
                )
                flipped = build_on_outer < cost
                if flipped:
                    cost = build_on_outer
                key = (ioc, _UNORDERED)
                if _admit(target, key, cost, keep_all):
                    target[key] = (cost, output_rows, _UNORDERED, Operator.HASHJOIN, outer, inner,
                                   predicates, flipped)

                cost = cost_model.merge_join(
                    outer_sorted_cost,
                    inner_cost if inner_sort is None else inner_sort,
                    outer_rows, inner_rows, output_rows,
                )
                key = (ioc, merge_order)
                if _admit(target, key, cost, keep_all):
                    target[key] = (cost, output_rows, merge_order, Operator.MERGEJOIN, outer,
                                   inner, predicates, (outer_sort, inner_sort))

                if rescan_cost is not None:
                    # A nested loop preserves the outer input's ordering.
                    cost = cost_model.nested_loop_join(
                        outer_cost, outer_rows, rescan_cost, output_rows
                    )
                    key = (ioc, outer_order)
                    if _admit(target, key, cost, keep_all):
                        target[key] = (cost, output_rows, outer_order, Operator.NESTLOOP, outer,
                                       inner, predicates, None)


# -- DP state entries -------------------------------------------------------------------

_UNORDERED: FrozenSet[ColumnRef] = frozenset()


def _admit(
    state: State, key: Tuple[int, FrozenSet[ColumnRef]], cost: float, keep_all: bool
) -> bool:
    """PostgreSQL's ``add_path`` test for a plan of ``cost`` under ``key``
    (IOC, output order), made before the entry exists.

    PINUM mode keeps the cheapest entry per key.  Stock mode rejects a plan
    that an entry at most as expensive with an equal-or-stronger output
    order dominates, and drops the entries an admitted plan dominates.  The
    caller then stores the admitted entry under ``key``.
    """
    incumbent = state.get(key)
    if incumbent is not None and incumbent[0] <= cost:
        return False
    if keep_all:
        return True
    order = key[1]
    if any(other[0] <= cost and other[2] >= order for other in state.values()):
        return False
    for stale in [k for k, other in state.items() if cost <= other[0] and order >= other[2]]:
        del state[stale]
    return True


def _cheapest(pairs: Iterable[Tuple[Hashable, Entry]]) -> Dict[Hashable, Entry]:
    """The cheapest entry per key (the first of equally cheap ones)."""
    best: Dict[Hashable, Entry] = {}
    for key, entry in pairs:
        if key not in best or entry[0] < best[key][0]:
            best[key] = entry
    return best


def _prune(state: State) -> State:
    """Apply the Section V-D rule to one PINUM state.

    An IOC whose cheapest entry is beaten by a cheaper entry requiring a
    subset of its orders goes entirely; within a surviving IOC, an entry goes
    if another is cheaper with an equal-or-stronger output order (or as cheap
    with a stronger one).  Survivors are grouped by IOC.
    """
    groups: Dict[int, List[Entry]] = {}
    for (ioc, _), entry in state.items():
        groups.setdefault(ioc, []).append(entry)
    kept = unsubsumed({ioc: min(entry[0] for entry in group) for ioc, group in groups.items()})
    return {
        (ioc, entry[2]): entry
        for ioc, group in groups.items() if ioc in kept
        for entry in group
        if not any(
            other[2] >= entry[2]
            and (other[0] < entry[0] or (other[0] == entry[0] and other[2] > entry[2]))
            for other in group
        )
    }


def _build(entry: Entry, built: Dict[int, PlanNode]) -> PlanNode:
    """The plan of ``entry``, built once per entry (``built`` is keyed by id)."""
    cost, rows, order, op, outer, inner, predicates, detail = entry
    if op is Operator.SCAN:
        return inner
    if id(entry) not in built:
        outer = _build(outer, built)
        if op is Operator.HASHJOIN and detail:
            outer, inner = inner, outer
        elif op is Operator.MERGEJOIN:
            key, table = predicates[0], inner.path.table
            if detail[0] is not None:
                outer = sort(outer, (key.other(table),), detail[0])
            if detail[1] is not None:
                inner = sort(inner, (key.column_for(table),), detail[1])
        elif op is Operator.NESTLOOP:
            inner = scan(inner.path, multiplier=max(1.0, outer.rows), parameterized=True)
        built[id(entry)] = join(op, outer, inner, predicates, cost, rows, order)
    return built[id(entry)]


# -- subsumption --------------------------------------------------------------------------


def unsubsumed(cheapest: Dict[int, float]) -> Set[int]:
    """The IOC bitmasks (mapped to their cheapest cost) that no strictly
    cheaper subset mask subsumes -- the survivors of Section V-D's rule.

    In cost order, each mask is tested only against the strictly cheaper
    survivors (what subsumes a pruned mask subsumes its supersets too), by
    scanning them or enumerating its submasks, whichever is fewer.
    """
    survivors: Set[int] = set()
    cheaper: Set[int] = set()
    tier: List[int] = []
    tier_cost = None
    for mask, cost in sorted(cheapest.items(), key=lambda item: item[1]):
        if cost != tier_cost:
            cheaper.update(tier)
            tier, tier_cost = [], cost
        if 1 << bin(mask).count("1") <= len(cheaper):
            sub = mask
            while sub not in cheaper and sub:
                sub = (sub - 1) & mask
            subsumed = sub in cheaper
        else:
            subsumed = any(other & ~mask == 0 for other in cheaper)
        if not subsumed:
            tier.append(mask)
            survivors.add(mask)
    return survivors


def prune_subsumed_plans(
    plans: Dict[InterestingOrderCombination, PlanNode]
) -> Dict[InterestingOrderCombination, PlanNode]:
    """Apply the paper's Section V-D pruning rule to a per-IOC plan set.

    If plan A requires interesting-order set S_A, plan B requires S_B,
    S_A is a subset of S_B and A costs less, then for *any* configuration
    covering S_B plan A would also be applicable and cheaper, so B can never
    be the winner and is removed.  A thin adapter onto :func:`unsubsumed`.
    """
    bits: Dict[Tuple[str, str], int] = {}
    masks = {ioc: sum(bits.setdefault(pair, 1 << len(bits)) for pair in ioc.non_empty_orders)
             for ioc in plans}
    cheapest: Dict[int, float] = {}
    for ioc, plan in plans.items():
        cheapest[masks[ioc]] = min(plan.total_cost, cheapest.get(masks[ioc], plan.total_cost))
    kept = unsubsumed(cheapest)
    # Of two combinations with the same orders, the dearer is subsumed too.
    return {ioc: plan for ioc, plan in plans.items()
            if masks[ioc] in kept and plan.total_cost == cheapest[masks[ioc]]}
