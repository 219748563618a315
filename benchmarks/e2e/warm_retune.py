"""``warm_retune``: one warm session, re-tuned over and over.

The session holds the mixed star workload (10 reads + 8 DML, weighted read
share 0.7, 209 candidates) under ``candidate_policy="per_query"`` and
``engine="auto"``.  One round is eight cycles, one per budget of the 1-8 GB
sweep (closed loop, one in-process caller); a cycle is

* ``budget_retune`` -- ``set_budget`` -> ``recommend``.  **tune**
* ``weight_retune`` -- ``set_weights`` (one read bumped) -> ``recommend``.  **tune**
* ``delta_retune``  -- ``add_queries([never-seen 5-table query])`` ->
  ``recommend``: exactly one build (3 optimizer calls).  **build**
* ``remove_queries`` of that query,
* ``evaluate`` x5 on prefixes of the cycle's picks.  **read**
* ``what_if`` x2 -- one index set never asked before, one repeated.

The optimizer runs once per cycle (the delta build) plus the new
``what_if`` set; the selectors and the evaluation kernels do the rest, and
the kernels are used both ways: batched frontier scoring inside selection
and single-set ``evaluate``.  The DML statements' maintenance columns make
this the write-side counterpart of ``cold_recommend``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

import checks
import layers
from harness import OpLog, median
from inputs import Inputs

from repro.advisor.advisor import AdvisorOptions
from repro.api.requests import EvaluateRequest, WhatIfRequest
from repro.api.session import TuningSession

ROLES = {
    "build": ("delta_retune",),
    "tune": ("budget_retune", "weight_retune"),
    "read": ("evaluate",),
}
#: ILP proofs timed by the traced run (10 reads, 60 candidates, about 2 s each).
ILP_PROOFS = 3


class Workload:
    def __init__(self, inputs: Inputs, engine: Optional[str] = None,
                 traced: bool = False) -> None:
        self.inputs = inputs
        self.statements, self.weights = inputs.mixed()
        self.options = AdvisorOptions(
            candidate_policy="per_query", engine=engine or "auto",
            statement_weights=self.weights,
        )
        self.budgets = inputs.budgets()
        rng = inputs.rng("weights")
        reads = [statement.name for statement in self.statements if not statement.is_dml]
        self.bumps = [(rng.choice(reads), float(rng.randint(2, 5))) for _ in self.budgets]
        self.session: Optional[TuningSession] = None
        self.what_if_sets = []
        self.deltas = 0
        self.asked = 0

    # -- set-up ------------------------------------------------------------

    def set_up(self) -> None:
        self.session = self._warm_session(self.options)
        picks = self.session.recommend().result.selected_indexes
        self.what_if_sets = self.inputs.index_sets(picks, 1024, "what_if")
        self.deltas = self.asked = 0

    def _warm_session(self, options: AdvisorOptions) -> TuningSession:
        return TuningSession(self.inputs.catalog, self.statements, options=options)

    def tear_down(self) -> None:
        self.session = None

    # -- one round ---------------------------------------------------------

    def round(self, log: OpLog, number: int) -> None:
        for cycle in range(len(self.budgets)):
            self._cycle(log, self.session, cycle)

    def _cycle(self, log: OpLog, session: TuningSession, cycle: int) -> None:
        budget = self.budgets[cycle]
        with log.op("budget_retune"):
            session.set_budget(budget)
            response = session.recommend()
        self._checked(log, f"warm.budget.{budget}", response, budget, built=0)
        picks = list(response.result.selected_indexes)

        name, weight = self.bumps[cycle]
        with log.op("weight_retune"):
            session.set_weights({**self.weights, name: weight}, replace=True)
            response = session.recommend()
        self._checked(log, f"warm.weight.{cycle}", response, budget, built=0)
        session.set_weights(self.weights, replace=True)

        query = self.inputs.never_seen(self.deltas, name=f"D{self.deltas}")
        self.deltas += 1
        with log.op("delta_retune"):
            session.add_queries([query])
            response = session.recommend()
        self._checked(log, None, response, budget, built=1, optimizer_calls=3)
        with log.op("remove_queries"):
            session.remove_queries([query.name])

        for size in range(1, 6):
            with log.op("evaluate"):
                answer = session.evaluate(EvaluateRequest(indexes=picks[:size]))
            log.same(f"warm.evaluate.{cycle}.{size}", answer.total_cost)

        fresh = self.what_if_sets[self.asked % len(self.what_if_sets)]
        self.asked += 1
        with log.op("what_if"):
            session.what_if(WhatIfRequest(indexes=fresh))
        with log.op("what_if"):
            answer = session.what_if(WhatIfRequest(indexes=self.what_if_sets[0]))
        log.same("warm.what_if.repeated", answer.total_cost)

    @staticmethod
    def _checked(log: OpLog, key: Optional[str], response, budget: int, **counts) -> None:
        result = response.to_dict()
        checks.recommend(log, key or "delta_retune", result, budget, **counts)
        checks.count_selection(log, response.result)
        if key is not None:
            log.same(key, checks.outcome(result))

    # -- after the measurement ---------------------------------------------

    def verify(self, log: OpLog, expected: Optional[dict]) -> None:
        session = self.session
        for budget in self.budgets[:3]:
            session.set_budget(budget)
            result = session.recommend().result
            checks.scalar_oracle(log, f"warm.budget.{budget}", session,
                                 result.selected_indexes, result.workload_cost_after)
        for key, value in self.golden(log).items():
            checks.against_expected(log, expected, key, value)

    def golden(self, log: OpLog) -> Dict[str, object]:
        keys = [f"warm.budget.{budget}" for budget in self.budgets]
        keys += [f"warm.weight.{cycle}" for cycle in range(len(self.bumps))]
        return {key: log.first(key) for key in keys}

    # -- traced run only ---------------------------------------------------

    def layer_extras(self, log: OpLog, recorder, spans) -> Dict[str, float]:
        extras: Dict[str, float] = {
            "api.session.what_if_ms_p50": log.p50("what_if"),
            "optimizer.busy_share_of_tune": median([
                layers.share_of(spans, "optimizer.optimize", log, kind)
                for kind in ROLES["tune"]
            ]),
        }
        # The same cycle under the fused arena engine: the other kernel a
        # "one kernel instead of five" change has to hold against.
        arena = OpLog()
        session = self._warm_session(dataclasses.replace(self.options, engine="arena"))
        session.recommend()
        for _ in range(2):
            for cycle in range(len(self.budgets)):
                self._cycle(arena, session, cycle)
        extras["api.session.arena_retune_ms_p50"] = arena.p50(*ROLES["tune"])
        extras["api.session.arena_evaluate_ms_p50"] = arena.p50("evaluate")

        # Optimality proofs: the ILP selector on the ten reads at 60 candidates
        # (the mixed workload's proof takes 13 s and is left out).
        reads = [statement for statement in self.statements if not statement.is_dml]
        prover = TuningSession(
            self.inputs.catalog, reads,
            options=AdvisorOptions(max_candidates=60, selector="ilp"),
        )
        start = len(recorder.spans)
        nodes = []
        for _ in range(ILP_PROOFS):
            result = prover.recommend().result
            nodes.append(float(result.nodes_explored))
            log.verify(result.optimality_gap == 0.0, "ilp: optimality not proved")
        extras["advisor.ilp_solve_ms"] = median(recorder.view(start).durations_ms("advisor.select"))
        extras["advisor.ilp_nodes"] = median(nodes)
        return extras
