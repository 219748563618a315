"""ILP-optimal index selection: a CoPhy-style BIP solver over INUM caches.

The greedy selectors answer "which index helps most *right now*"; this
subsystem poses the whole selection problem as a **binary integer program**
over the very same plan-cache arithmetic and solves it to (near-)optimality
with a proven bound:

* :mod:`repro.advisor.ilp.formulation` poses a workload's INUM/PINUM
  caches -- including DML maintenance profiles and statement weights -- as
  a BIP (one binary per candidate index, one per cached plan, one per
  slot-class/access-method assignment, plus the space-budget knapsack)
  whose arithmetic is the workload arena's (:mod:`repro.inum.arena`),
* :mod:`repro.advisor.ilp.solver` is a dependency-free best-first
  branch-and-bound solver over that program: LP-relaxation-style lower
  bounds read off the arena (numpy or pure-Python backend alike),
  warm-started from a greedy incumbent, *anytime* under
  ``time_limit``/``gap`` and always reporting the proven optimality gap, and
* :mod:`repro.advisor.ilp.selector` wires it into the advisor as the
  ``"ilp"`` entry of :data:`repro.advisor.advisor.SELECTORS`
  (``AdvisorOptions(selector="ilp", ilp_gap=..., ilp_time_limit=...)``,
  ``recommend --selector ilp --gap --time-limit``).
"""

from repro.advisor.ilp.formulation import IlpFormulation, build_formulation
from repro.advisor.ilp.selector import IlpSelector
from repro.advisor.ilp.solver import (
    BranchAndBoundSolver,
    IlpSolution,
    IlpSolverOptions,
    solve_by_enumeration,
)

__all__ = [
    "BranchAndBoundSolver",
    "IlpFormulation",
    "IlpSelector",
    "IlpSolution",
    "IlpSolverOptions",
    "build_formulation",
    "solve_by_enumeration",
]
