"""Optimizer hooks: the small instrumentation surface PINUM adds.

Figure 3 of the paper shows the modified optimizer exporting two new data
flows to the caller: *all* index access costs from the Access Path Collector
and *all* per-interesting-order-combination plans from the Join Planner.  The
paper stresses that the changes are minimal ("requires only touching three
files"); here they are a single options object the optimizer consults at the
two existing decision points.

A third switch, ``access_paths_only``, is a stop rather than an export: it
ends the call once the access paths are collected.

The hooks are a frozen value: the optimizer only reads them, so one value
can be reused across calls and threads.  What they export comes back on the
call's result, as
:attr:`~repro.optimizer.optimizer.OptimizationResult.access_paths` and
:attr:`~repro.optimizer.optimizer.OptimizationResult.ioc_plans` (the two
"piggy-backed" intermediate results of Section IV).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class OptimizerHooks:
    """Switches for PINUM's optimizer extensions.

    ``keep_all_access_paths``
        Section V-C: the Access Path Collector normally keeps only the
        cheapest access path per interesting order; with this switch it keeps
        (and exports) an access path for *every* visible index, so a single
        optimizer call yields the access costs of an arbitrarily large
        what-if index set.

    ``keep_all_ioc_plans``
        Section V-D: the Join Planner normally discards sub-plans that are
        dominated by cheaper plans with more specific interesting orders;
        with this switch the top DP level retains the best plan for *every*
        interesting-order combination and exports them all.

    ``subsumption_pruning``
        The paper's pruning rule: if plan A requires interesting-order set
        S_A, plan B requires S_B, S_A is a subset of S_B and A is cheaper,
        then B can never be the best choice for any configuration, so it is
        dropped.  Only meaningful together with ``keep_all_ioc_plans``.

    ``access_paths_only``
        Stop the call right after the Access Path Collector: no join DP, no
        grouping, and the result carries no plan (its ``plan`` is ``None``
        and its ``cost`` raises).  Section V-C's access-cost call needs the
        exported paths, which exist before the first join level, so
        PINUM's collector sets this together with ``keep_all_access_paths``.
        The stopped call still counts as one optimizer call everywhere.
        INUM's classic builder leaves it off: its plan-phase probes are
        answered from its full access-cost calls.
    """

    keep_all_access_paths: bool = False
    keep_all_ioc_plans: bool = False
    subsumption_pruning: bool = True
    access_paths_only: bool = False

    @classmethod
    def disabled(cls) -> "OptimizerHooks":
        """Plain PostgreSQL behaviour (what classic INUM talks to)."""
        return cls()
