"""Spans -> the per-layer table.

Counts and busy times are **per round** (one pass of the workload's fixed
operation block), because a run is bounded by time, not by a count: per
round, work counts repeat exactly from run to run and busy times compare
between two commits, whatever number of rounds fitted into the run.
Percentiles and ratios are over the whole run.
"""

from __future__ import annotations

from typing import Dict

from harness import OpLog, percentile
from trace import Spans

#: Layers that report calls and busy time; metric prefix = span name.
CALLS_AND_BUSY = (
    "query.parse", "query.templatize", "advisor.candidates", "optimizer.optimize",
    "pinum.build", "inum.compile", "inum.arena_compile", "inum.estimate",
    "inum.arena_frontier", "inum.arena_evaluate", "advisor.select",
)
BUSY_ONLY = (
    "workloads.compress", "inum.store_save", "inum.store_load", "api.session.recommend",
    "api.serve.handle", "online.window",
)
SESSION_SPANS = (
    "api.session.recommend", "api.session.evaluate", "api.session.what_if",
    "api.session.add_queries",
)


def reduce(spans: Spans, log: OpLog) -> Dict[str, float]:
    """Every span-derived layer metric of one traced measurement."""
    rounds = max(1, log.rounds)
    table: Dict[str, float] = {}
    for name in CALLS_AND_BUSY:
        table[f"{name}_calls"] = spans.calls(name) / rounds
    for name in CALLS_AND_BUSY + BUSY_ONLY:
        table[f"{name}_busy_ms"] = spans.busy_ms(name) / rounds

    optimize_calls = spans.calls("optimizer.optimize")
    table["optimizer.ms_per_call"] = (
        spans.busy_ms("optimizer.optimize") / optimize_calls if optimize_calls else 0.0)
    requests = spans.calls("optimizer.whatif")
    table["optimizer.whatif_requests"] = requests / rounds
    # A what-if request that reached the optimizer has an optimize child.
    misses = spans.children_of("optimizer.whatif", "optimizer.optimize")
    table["optimizer.whatif_hit_share"] = 1.0 - misses / requests if requests else 0.0
    table["pinum.build_self_ms"] = spans.self_ms("pinum.build") / rounds

    session_busy = sum(spans.busy_ms(name) for name in SESSION_SPANS)
    session_self = sum(spans.self_ms(name) for name in SESSION_SPANS)
    table["api.session.self_ms"] = session_self / rounds
    table["api.session.unattributed_share"] = (
        session_self / session_busy if session_busy else 0.0)

    table["online.drift_evaluations"] = spans.calls("online.drift") / rounds
    polls = spans.durations_ms("online.poll")
    table["online.poll_ms_p99"] = percentile(polls, 0.99) if polls else 0.0

    for name, value in log.counters.items():
        table[name] = value / rounds
    table["obs.spans"] = len(spans) / rounds
    table["obs.self_time_gap"] = spans.self_time_gap()
    return table


def share_of(spans: Spans, layer: str, log: OpLog, kind: str) -> float:
    """Busy time of ``layer`` spans under ``op.<kind>`` roots over those
    operations' total time (the acceptance shares of the issue)."""
    roots = {span[0] for span in spans.named(f"op.{kind}")}
    parent_of = {span[0]: span[4] for span in spans.spans}
    busy = 0.0
    for span in spans.named(layer):
        ancestor = span[4]
        while ancestor and ancestor not in roots:
            ancestor = parent_of.get(ancestor, 0)
        if ancestor:
            busy += (span[3] - span[2]) * 1000.0
    total = sum(log.samples.get(kind, ()))
    return busy / total if total else 0.0
