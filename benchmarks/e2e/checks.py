"""What makes ``failed`` mean something: the correctness checks.

All recommend checks work on the wire form of a response
(``RecommendResponse.to_dict()`` in process, the ``result`` object over
TCP), so one function serves every front door.  A check that fails marks
the operation it belongs to as failed; it never stops the run.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from harness import HERE, OpLog

EXPECTED_DIR = HERE / "expected"
#: Costs must agree to this relative tolerance (engines are pinned 1e-9 equal).
TOLERANCE = 1e-9


def close(left: float, right: float) -> bool:
    return abs(left - right) <= TOLERANCE * max(1.0, abs(left), abs(right))


def labels(indexes: Sequence[Dict[str, object]]) -> List[str]:
    """``table(col, col)`` per wire-form index, in selection order."""
    return [f"{index['table']}({', '.join(index['columns'])})" for index in indexes]


def outcome(result: Dict[str, object]) -> Dict[str, object]:
    """The part of a recommend result that must repeat exactly.

    Picks are compared as a set: the engines agree on costs to 1e-9 but break
    benefit ties in a different order, so the scalar reference selects the
    same indexes as the numpy engine in another sequence.
    """
    return {
        "picks": sorted(labels(result["selected_indexes"])),
        "cost_before": result["workload_cost_before"],
        "cost_after": result["workload_cost_after"],
    }


def recommend(
    log: OpLog,
    label: str,
    result: Dict[str, object],
    budget: int,
    *,
    optimizer_calls: Optional[int] = None,
    built: Optional[int] = None,
    from_store: Optional[int] = None,
) -> None:
    """Invariants of every recommend, plus the exact work counts given."""
    log.expect(
        result["total_index_bytes"] <= budget,
        f"{label}: {result['total_index_bytes']} index bytes exceed the budget {budget}",
    )
    log.expect(
        result["workload_cost_after"] <= result["workload_cost_before"] * (1 + TOLERANCE),
        f"{label}: cost rose from {result['workload_cost_before']} "
        f"to {result['workload_cost_after']}",
    )
    session = result["session"]
    if optimizer_calls is not None:
        log.expect(
            result["preparation_optimizer_calls"] == optimizer_calls,
            f"{label}: {result['preparation_optimizer_calls']} optimizer calls, "
            f"expected {optimizer_calls}",
        )
    if built is not None:
        log.expect(
            session["caches_built"] == built,
            f"{label}: built {session['caches_built']} caches, expected {built}",
        )
    if from_store is not None:
        log.expect(
            session["caches_from_store"] == from_store,
            f"{label}: {session['caches_from_store']} caches from the store, "
            f"expected {from_store}",
        )


def count_selection(log: OpLog, result) -> None:
    """Add an ``AdvisorResult``'s exact selection work counts to the log."""
    log.counters["advisor.candidate_evaluations"] += result.selection_candidate_evaluations
    log.counters["advisor.query_evaluations"] += result.selection_query_evaluations


def scalar_oracle(log: OpLog, label: str, session, indexes, reported_cost: float) -> None:
    """``reported_cost`` must equal the scalar ``InumCostModel`` walk over the
    session's own caches (the reference oracle every engine is pinned to)."""
    from repro.api.requests import EvaluateRequest

    engine = session.options.engine
    session.configure(engine="scalar")
    try:
        oracle = session.evaluate(EvaluateRequest(indexes=list(indexes))).total_cost
    finally:
        session.configure(engine=engine)
    log.verify(
        close(oracle, reported_cost),
        f"{label}: engine cost {reported_cost!r} != scalar oracle {oracle!r}",
    )


# -- the committed expectation for seed 7 ------------------------------------------


def load_expected(seed: int) -> Optional[Dict[str, Dict[str, object]]]:
    path = EXPECTED_DIR / f"seed{seed}.json"
    if not path.exists():
        return None
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def against_expected(
    log: OpLog, expected: Optional[Dict[str, Dict[str, object]]], key: str,
    got: Optional[Dict[str, object]],
) -> None:
    """``got`` (an :func:`outcome`) must match the committed one under ``key``.

    The committed file comes from the scalar reference engine.  Costs must
    agree to 1e-9 and so must the number of picks; the picks themselves are
    not compared, because where two candidates are worth exactly the same
    (``warm.weight.5`` on seed 7) the scalar walk and the numpy engine each
    keep a different one at an identical workload cost.
    """
    if expected is None or got is None:
        return
    want = expected.get(key)
    if want is None:
        log.verify(False, f"expected/: no entry {key!r}")
        return
    log.verify(
        len(got["picks"]) == len(want["picks"])
        and close(got["cost_before"], want["cost_before"])
        and close(got["cost_after"], want["cost_after"]),
        f"{key}: costs or pick count differ from the committed expectation",
    )
