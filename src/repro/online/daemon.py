"""The online tuning daemon: the control loop over stream, window and drift.

The loop is deliberately boring::

    poll source -> fold into window -> measure drift vs. reference
        -> (hysteresis says fire?) -> warm re-tune -> transition costing

Everything expensive is delegated to machinery that already exists: the
re-tune is a :meth:`~repro.api.session.TuningSession.recommend` on a warm
session (with the ``per_query`` candidate policy it builds caches for *new*
templates only -- returning templates answer from the pool), and the
transition gate prices the added indexes' one-time construction with
:func:`~repro.optimizer.maintenance.index_build_cost` against the projected
saving over ``horizon_statements`` future executions.  A recommendation
whose benefit cannot pay for its own builds within the horizon is measured,
reported and *not* applied.

Exactly-once semantics at a phase change come from two cooperating rules:

* the :class:`~repro.online.drift.DriftDetector` fires once per excursion
  over the high-water mark and re-arms only below the low-water mark,
* after a fire (or the bootstrap), the *reference* distribution is
  re-anchored -- but only once the window has fully turned over
  (``window_statements`` further executions), so the mid-transition mix
  straddling the boundary never becomes the baseline.  Once re-anchored,
  drift collapses toward 0, the detector re-arms, and the daemon is ready
  for the next genuine change.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.advisor.advisor import validate_tuning_limits
from repro.api.requests import EvaluateRequest, RecommendRequest
from repro.api.session import TuningSession
from repro.obs.instruments import (
    ONLINE_DRIFT,
    ONLINE_POLL_SECONDS,
    ONLINE_RETUNE_SECONDS,
    ONLINE_RETUNES,
)
from repro.obs.trace import get_tracer
from repro.online.drift import DRIFT_METRICS, DriftDetector, resolve_metric
from repro.online.stream import Arrival, StatementSource
from repro.online.window import SlidingWindow
from repro.optimizer.maintenance import index_build_cost
from repro.util.errors import AdvisorError
from repro.util.timing import timed

#: How many recent decisions a tuner keeps for stats reporting.
MAX_KEPT_DECISIONS = 64


@dataclass(frozen=True)
class OnlineTunerConfig:
    """The daemon's knobs, validated eagerly at construction.

    ``window_statements`` sizes the sliding window (and the re-baseline
    delay after a re-tune); the drift thresholds form the hysteresis band;
    ``horizon_statements`` is how many future executions a new index
    configuration gets to amortize its build cost over;
    ``evaluate_every`` bounds how many ingested statements may pass between
    drift evaluations, so one large append cannot blur a phase boundary.
    """

    window_statements: int = 200
    max_window_age_seconds: Optional[float] = None
    drift_metric: str = "total_variation"
    drift_high_water: float = 0.35
    drift_low_water: float = 0.15
    horizon_statements: int = 10_000
    poll_interval_seconds: float = 0.25
    evaluate_every: Optional[int] = None
    #: Record every poll as a root span (handed to the tracer's sinks --
    #: ``repro watch --trace-out``).  Off by default: untraced polls pay
    #: nothing.
    trace: bool = False

    def __post_init__(self) -> None:
        validate_tuning_limits(
            window_statements=self.window_statements,
            drift_low_water=self.drift_low_water,
            drift_high_water=self.drift_high_water,
            horizon_statements=self.horizon_statements,
        )
        if self.drift_metric not in DRIFT_METRICS:
            raise AdvisorError(
                f"unknown drift metric {self.drift_metric!r} "
                f"(known: {', '.join(sorted(DRIFT_METRICS))})"
            )
        if not self.poll_interval_seconds > 0:
            raise AdvisorError(
                f"poll_interval_seconds must be > 0, got {self.poll_interval_seconds!r}"
            )
        if self.max_window_age_seconds is not None and not self.max_window_age_seconds > 0:
            raise AdvisorError(
                "max_window_age_seconds must be > 0 or None, got "
                f"{self.max_window_age_seconds!r}"
            )
        if self.evaluate_every is not None and (
            not isinstance(self.evaluate_every, int) or self.evaluate_every < 1
        ):
            raise AdvisorError(
                f"evaluate_every must be an integer >= 1 or None, got "
                f"{self.evaluate_every!r}"
            )
        if not isinstance(self.trace, bool):
            raise AdvisorError(f"'trace' must be a boolean, got {self.trace!r}")

    @property
    def evaluation_stride(self) -> int:
        """Statements between drift checks (default: 1/8 of the window)."""
        if self.evaluate_every is not None:
            return self.evaluate_every
        return max(1, self.window_statements // 8)

    def to_dict(self) -> Dict:
        return {
            "window_statements": self.window_statements,
            "max_window_age_seconds": self.max_window_age_seconds,
            "drift_metric": self.drift_metric,
            "drift_high_water": self.drift_high_water,
            "drift_low_water": self.drift_low_water,
            "horizon_statements": self.horizon_statements,
            "poll_interval_seconds": self.poll_interval_seconds,
            "evaluate_every": self.evaluation_stride,
            "trace": self.trace,
        }


@dataclass
class RetuneDecision:
    """One re-tune attempt, costed and verdicted.

    ``kind`` is ``"bootstrap"`` (the initial tune when the window first
    fills) or ``"drift"``; ``verdict`` is ``"applied"``, ``"rejected"``
    (transition costing said the builds don't pay), or ``"unchanged"``
    (the recommendation equals the live configuration -- counted as
    accepted, since there is nothing to reject).  ``caches_built``
    counts fresh plan-cache builds this re-tune paid -- with the
    ``per_query`` policy that is exactly the number of never-seen
    templates (``new_templates``).
    """

    kind: str
    drift: float
    verdict: str
    accepted: bool
    caches_built: int
    new_templates: int
    window_statements: int
    window_templates: int
    workload_cost_before: float
    workload_cost_after: float
    previous_config_cost: float
    projected_saving: float
    build_cost: float
    added_indexes: List[str] = field(default_factory=list)
    dropped_indexes: List[str] = field(default_factory=list)
    seconds: float = 0.0

    def to_dict(self) -> Dict:
        return {
            "kind": self.kind,
            "drift": self.drift,
            "verdict": self.verdict,
            "accepted": self.accepted,
            "caches_built": self.caches_built,
            "new_templates": self.new_templates,
            "window_statements": self.window_statements,
            "window_templates": self.window_templates,
            "workload_cost_before": self.workload_cost_before,
            "workload_cost_after": self.workload_cost_after,
            "previous_config_cost": self.previous_config_cost,
            "projected_saving": self.projected_saving,
            "build_cost": self.build_cost,
            "added_indexes": list(self.added_indexes),
            "dropped_indexes": list(self.dropped_indexes),
            "seconds": self.seconds,
        }


@dataclass
class DriftStatistics:
    """A point-in-time snapshot of one tuner's state (for stats ops)."""

    statements_ingested: int
    malformed_lines: int
    window_statements: int
    window_templates: int
    bootstrapped: bool
    drift: float
    armed: bool
    fires: int
    rearms: int
    retunes_triggered: int
    retunes_accepted: int
    retunes_rejected: int
    applied_indexes: List[str]
    last_decision: Optional[RetuneDecision]
    #: Poll-cycle accounting (``poll()`` / ``run()`` iterations): count,
    #: summed wall seconds, and the most recent cycle's seconds (``None``
    #: before the first poll).
    poll_count: int = 0
    poll_seconds_total: float = 0.0
    last_poll_seconds: Optional[float] = None

    def to_dict(self) -> Dict:
        return {
            "statements_ingested": self.statements_ingested,
            "malformed_lines": self.malformed_lines,
            "poll_count": self.poll_count,
            "poll_seconds_total": self.poll_seconds_total,
            "last_poll_seconds": self.last_poll_seconds,
            "window_statements": self.window_statements,
            "window_templates": self.window_templates,
            "bootstrapped": self.bootstrapped,
            "drift": self.drift,
            "armed": self.armed,
            "fires": self.fires,
            "rearms": self.rearms,
            "retunes_triggered": self.retunes_triggered,
            "retunes_accepted": self.retunes_accepted,
            "retunes_rejected": self.retunes_rejected,
            "applied_indexes": list(self.applied_indexes),
            "last_decision": (
                None if self.last_decision is None else self.last_decision.to_dict()
            ),
        }


def _index_label(index) -> str:
    return f"{index.table}({', '.join(index.columns)})"


class OnlineTuner:
    """The daemon: folds a statement source into a session's workload.

    The tuner *owns* the session's workload (the existing statements are
    replaced by the window's templates at the first tune), but only
    borrows its caches: templates the session has priced before re-tune
    for free.  The session should use the ``per_query`` candidate policy
    so workload churn rebuilds exactly the delta -- other policies work
    but pay avoidable rebuilds.
    """

    def __init__(
        self,
        session: TuningSession,
        source: StatementSource,
        config: Optional[OnlineTunerConfig] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.session = session
        self.source = source
        self.config = config or OnlineTunerConfig()
        self._clock = clock
        self.window = SlidingWindow(
            self.config.window_statements,
            max_age_seconds=self.config.max_window_age_seconds,
            clock=clock,
        )
        self.detector = DriftDetector(
            high_water=self.config.drift_high_water,
            low_water=self.config.drift_low_water,
        )
        self._metric = resolve_metric(self.config.drift_metric)
        self._reference: Dict[str, float] = {}
        self._pending_rebaseline: Optional[int] = None
        self._bootstrapped = False
        self._since_evaluation = 0
        #: Template fingerprints ever part of a synced workload (drives the
        #: new-template accounting the delta-build assertions check).
        self._seen_templates: set = set()
        self._applied: List = []
        self.decisions: List[RetuneDecision] = []
        #: Drift re-tunes (the bootstrap is not one) by gate outcome: the
        #: only record of a re-tune; the serve ``stats`` op reads them.
        self.retunes_accepted = 0
        self.retunes_rejected = 0
        #: ``time.monotonic()`` of the latest drift re-tune (``None`` before
        #: the first), comparable with the session's ``last_recommend_at``.
        self.last_retune_at: Optional[float] = None
        #: Poll-cycle accounting surfaced by :attr:`statistics` (and from
        #: there by the serve ``watch_stats`` / ``server_stats`` ops).
        self.poll_count = 0
        self.poll_seconds_total = 0.0
        self.last_poll_seconds: Optional[float] = None
        self._stopped = False

    # -- the loop ----------------------------------------------------------

    def poll(self) -> List[RetuneDecision]:
        """Drain the source, fold, evaluate; returns this poll's decisions."""
        return self._poll_cycle()[1]

    def _poll_cycle(self) -> tuple:
        """One full cycle (drain + ingest), timed into the poll histogram.

        The histogram's ``_count`` is the process's poll count; the source
        counts its own statements and malformed lines.  Returns
        ``(arrivals, decisions)`` so :meth:`run` can keep its idle-exit
        accounting without a second drain.
        """
        with get_tracer().span("online.poll", root=self.config.trace) as span, timed(
            ONLINE_POLL_SECONDS
        ) as timer:
            arrivals = self.source.poll()
            decisions = self.ingest(arrivals)
            span.set(statements=len(arrivals), decisions=len(decisions))
        self.poll_count += 1
        self.poll_seconds_total += timer.seconds
        self.last_poll_seconds = timer.seconds
        return arrivals, decisions

    def ingest(self, arrivals: List[Arrival]) -> List[RetuneDecision]:
        """Fold arrivals in, checking drift every ``evaluation_stride``."""
        decisions: List[RetuneDecision] = []
        stride = self.config.evaluation_stride
        appended = False
        for arrival in arrivals:
            self.window.append(arrival)
            appended = True
            self._since_evaluation += 1
            if self._since_evaluation >= stride:
                decision = self.evaluate()
                if decision is not None:
                    decisions.append(decision)
        if appended and self._since_evaluation > 0:
            decision = self.evaluate()
            if decision is not None:
                decisions.append(decision)
        return decisions

    def evaluate(self) -> Optional[RetuneDecision]:
        """One drift check against the current window (may re-tune)."""
        self._since_evaluation = 0
        if not self._bootstrapped:
            if self.window.statement_count < self.config.window_statements:
                return None
            decision = self._retune("bootstrap", drift=0.0)
            self._bootstrapped = True
            self._rearm_reference()
            return decision
        drift_gauge = ONLINE_DRIFT.labels(metric=self.config.drift_metric)
        if (
            self._pending_rebaseline is not None
            and self.window.total_appended >= self._pending_rebaseline
        ):
            # The window no longer contains any pre-decision statements:
            # safe to adopt it as the new reference.  Re-anchoring earlier
            # would enshrine the boundary-straddling mix and fire a second
            # time halfway into the new phase.
            self._rearm_reference()
        drift = self._metric(self._reference, self.window.distribution())
        drift_gauge.set(drift)
        if not self.detector.observe(drift):
            return None
        decision = self._retune("drift", drift=drift)
        self._pending_rebaseline = (
            self.window.total_appended + self.config.window_statements
        )
        return decision

    def run(
        self,
        max_polls: Optional[int] = None,
        idle_exit_seconds: Optional[float] = None,
        on_event: Optional[Callable[[Dict], None]] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> int:
        """Poll until stopped; returns the number of polls performed.

        ``idle_exit_seconds`` ends the loop after that long without a
        single new statement (how the CI smoke job terminates);
        ``max_polls`` is a hard cap for tests.  ``on_event`` receives one
        dict per decision (and one final ``{"event": "idle_exit"|...}``).
        """
        polls = 0
        last_activity = self._clock()
        while not self._stopped:
            if max_polls is not None and polls >= max_polls:
                self._emit(on_event, {"event": "max_polls", "polls": polls})
                break
            arrivals, decisions = self._poll_cycle()
            polls += 1
            if arrivals:
                last_activity = self._clock()
                for decision in decisions:
                    self._emit(on_event, {"event": "decision", **decision.to_dict()})
            elif (
                idle_exit_seconds is not None
                and self._clock() - last_activity >= idle_exit_seconds
            ):
                self._emit(on_event, {"event": "idle_exit", "polls": polls})
                break
            sleep(self.config.poll_interval_seconds)
        if self._stopped:
            self._emit(on_event, {"event": "stopped", "polls": polls})
        return polls

    def stop(self) -> None:
        """Make :meth:`run` return after its current poll."""
        self._stopped = True

    @staticmethod
    def _emit(on_event: Optional[Callable[[Dict], None]], event: Dict) -> None:
        if on_event is not None:
            on_event(event)

    # -- re-tuning ---------------------------------------------------------

    def _rearm_reference(self) -> None:
        self._reference = self.window.distribution()
        self._pending_rebaseline = None

    def _sync_workload(self) -> int:
        """Make the session workload the window's templates; returns new count."""
        statements, weights = self.window.workload()
        current = set(self.session.query_names)
        target = {statement.name for statement in statements}
        stale = [name for name in self.session.query_names if name not in target]
        if stale:
            self.session.remove_queries(stale)
        additions = [s for s in statements if s.name not in current]
        if additions:
            self.session.add_queries(additions)
        self.session.set_weights(weights, replace=True)
        fingerprints = set(self.window.template_counts())
        fresh = len(fingerprints - self._seen_templates)
        self._seen_templates |= fingerprints
        return fresh

    def _retune(self, kind: str, drift: float) -> RetuneDecision:
        started = self._clock()
        with get_tracer().span("online.retune", kind=kind, drift=drift):
            new_templates = self._sync_workload()
            response = self.session.recommend(RecommendRequest())
        result = response.result
        selected = list(result.selected_indexes)
        old_keys = {index.key for index in self._applied}
        new_keys = {index.key for index in selected}
        added = [index for index in selected if index.key not in old_keys]
        dropped = [index for index in self._applied if index.key not in new_keys]
        window_size = max(1, self.window.statement_count)

        previous_cost = result.workload_cost_before
        projected_saving = 0.0
        build_cost = 0.0
        if kind == "bootstrap":
            verdict, accepted = "bootstrap", True
        elif not added and not dropped:
            # The recommendation *is* the live configuration: adopted
            # trivially, nothing for transition costing to reject.
            verdict, accepted = "unchanged", True
        else:
            previous_cost = self.session.evaluate(
                EvaluateRequest(indexes=list(self._applied))
            ).total_cost
            saving_per_statement = (
                previous_cost - result.workload_cost_after
            ) / window_size
            projected_saving = saving_per_statement * self.config.horizon_statements
            build_cost = sum(
                index_build_cost(self.session.catalog, index) for index in added
            )
            accepted = projected_saving > build_cost
            verdict = "applied" if accepted else "rejected"

        if accepted:
            self._applied = selected
        if kind != "bootstrap":
            # The bootstrap is the *initial* tune, not a re-tune: "exactly
            # one re-tune at the phase boundary" counts drift triggers only.
            if accepted:
                self.retunes_accepted += 1
            else:
                self.retunes_rejected += 1
            self.last_retune_at = time.monotonic()

        ONLINE_RETUNES.labels(outcome=verdict).inc()
        decision = RetuneDecision(
            kind=kind,
            drift=drift,
            verdict=verdict,
            accepted=accepted,
            caches_built=response.caches_built,
            new_templates=new_templates,
            window_statements=self.window.statement_count,
            window_templates=self.window.template_count,
            workload_cost_before=result.workload_cost_before,
            workload_cost_after=result.workload_cost_after,
            previous_config_cost=previous_cost,
            projected_saving=projected_saving,
            build_cost=build_cost,
            added_indexes=[_index_label(index) for index in added],
            dropped_indexes=[_index_label(index) for index in dropped],
            seconds=self._clock() - started,
        )
        ONLINE_RETUNE_SECONDS.observe(decision.seconds)
        self.decisions.append(decision)
        del self.decisions[:-MAX_KEPT_DECISIONS]
        return decision

    # -- reporting ---------------------------------------------------------

    @property
    def retunes_triggered(self) -> int:
        """Drift re-tunes run so far: each one was accepted or rejected."""
        return self.retunes_accepted + self.retunes_rejected

    @property
    def statistics(self) -> DriftStatistics:
        """The tuner's current state as one snapshot."""
        return DriftStatistics(
            statements_ingested=self.source.statistics.statements_parsed,
            malformed_lines=self.source.statistics.malformed_lines,
            window_statements=self.window.statement_count,
            window_templates=self.window.template_count,
            bootstrapped=self._bootstrapped,
            drift=self.detector.last_drift,
            armed=self.detector.armed,
            fires=self.detector.fires,
            rearms=self.detector.rearms,
            retunes_triggered=self.retunes_triggered,
            retunes_accepted=self.retunes_accepted,
            retunes_rejected=self.retunes_rejected,
            applied_indexes=[_index_label(index) for index in self._applied],
            last_decision=self.decisions[-1] if self.decisions else None,
            poll_count=self.poll_count,
            poll_seconds_total=self.poll_seconds_total,
            last_poll_seconds=self.last_poll_seconds,
        )
