"""``online_trace``: the self-tuning daemon fed a statement stream in process.

An ``OnlineTuner`` (``per_query`` policy, ``max_candidates=60``, window 150)
over a ``MemoryStatementSource`` is fed ``emit_trace`` output in batches of
50 lines.  The trace alternates phases of 1 500 statements: *analytics*
(the ten reads) and *update-heavy* (8 DML + 2 reads, each statement drawn
in one of 64 literal variants, so literals churn while templates do not).
Template popularity is uniform, so the statement mix of a phase is the same
in expectation for every seed; the seed drives every draw.

One round is one analytics phase plus one update phase -- 60 batches, two
phase boundaries (closed loop, one in-process caller):

* ``poll``   -- ``source.feed(50 lines)`` + ``tuner.poll()``: parse,
  templatize, fold into the window, measure drift.  **read**
* ``retune`` -- the drift re-tune a boundary triggers (``decision.seconds``,
  a warm ``recommend`` that builds nothing: the session still holds every
  template).  **tune**
* ``bootstrap`` -- the window's first fill to the first recommendation
  (ten builds).  It happens once in a tuner's life, so it is timed in each
  of the three set-ups and, between measured rounds and off their clock, on
  a throw-away tuner every ``BOOTSTRAP_EVERY`` rounds: samples taken over
  the whole run, not in its first two seconds.  **build**

It bypasses the server and, after the bootstrap, the optimizer: the control
for changes to either, and the only workload where the parser and the
templatizer are first-order.

The hysteresis band is 0.5 / 0.2, not the 0.25 / 0.10 of the figure
script: two windows of 150 draws over ten equally likely templates are
0.14 apart on average, and at 0.25 one boundary in twenty fired twice
(measured over three seeds); the check below wants exactly one re-tune per
boundary on every seed.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import checks
from harness import OpLog
from inputs import Inputs

from repro.advisor.advisor import AdvisorOptions
from repro.api.session import TuningSession
from repro.online import MemoryStatementSource, OnlineTuner, OnlineTunerConfig
from repro.workloads import TracePhase, emit_trace

ROLES = {"build": ("bootstrap",), "tune": ("retune",), "read": ("poll",)}

WINDOW = 150
HIGH_WATER, LOW_WATER = 0.5, 0.2
PHASE = 1500
BATCH = 50
#: Rounds of trace generated at a time (outside the timed region).
CHUNK_ROUNDS = 4
#: Measured rounds between two bootstraps of a throw-away tuner.
BOOTSTRAP_EVERY = 6
LITERAL_VARIANTS = 64


class Workload:
    def __init__(self, inputs: Inputs, engine: Optional[str] = None,
                 traced: bool = False) -> None:
        self.inputs = inputs
        self.traced = traced
        overrides = {} if engine is None else {"engine": engine}
        self.options = AdvisorOptions(
            candidate_policy="per_query", max_candidates=60, **overrides)
        self.reads = tuple(inputs.reads())
        self.update_heavy = tuple(inputs.writes()) + self.reads[:2]
        #: Latencies taken off the rounds' clock, merged into the log by the driver.
        self.off_clock_samples: Dict[str, List[float]] = {"bootstrap": []}
        self.bootstrap = None
        #: The decision of every bootstrap made, set-ups and throw-aways alike.
        self.bootstraps: list = []
        self.tuner: Optional[OnlineTuner] = None
        self.lines: List[str] = []
        self.chunks = 0
        self.rounds_played = 0

    # -- inputs ------------------------------------------------------------

    def _analytics(self, position: int) -> TracePhase:
        return TracePhase(f"analytics{position}", self.reads, skew=0.0)

    def _updates(self, position: int) -> TracePhase:
        return TracePhase(
            f"updates{position}", self.update_heavy, skew=0.0,
            parameter_variants=LITERAL_VARIANTS, parameter_skew=0.0,
        )

    def prepare(self) -> None:
        """Between rounds, untimed: sample a bootstrap, keep a round of trace ready."""
        # Not in a traced run: its spans would count as the rounds' work.
        if not self.traced and self.rounds_played % BOOTSTRAP_EVERY == BOOTSTRAP_EVERY - 1:
            self._bootstrap()  # the tuner is dropped, the decision checked in verify()
        if len(self.lines) >= 2 * PHASE:
            return
        phases = []
        for position in range(CHUNK_ROUNDS):
            phases += [self._analytics(position), self._updates(position)]
        self.chunks += 1
        self.lines += emit_trace(
            phases, len(phases) * PHASE, seed=self.inputs.seed * 1000 + self.chunks)

    # -- set-up ------------------------------------------------------------

    def _bootstrap(self):
        """A fresh tuner fed one window of analytics; times fill -> first tune."""
        session = TuningSession(self.inputs.catalog, [], options=self.options)
        tuner = OnlineTuner(
            session, MemoryStatementSource(),
            OnlineTunerConfig(window_statements=WINDOW, drift_high_water=HIGH_WATER,
                              drift_low_water=LOW_WATER),
        )
        fill = emit_trace([self._analytics(0)], WINDOW, seed=self.inputs.seed * 1000)
        started = time.perf_counter()
        tuner.source.feed(fill)
        decisions = tuner.poll()
        self.off_clock_samples["bootstrap"].append((time.perf_counter() - started) * 1000.0)
        self.bootstraps.append(decisions[0] if decisions else None)
        return tuner, self.bootstraps[-1]

    def set_up(self) -> None:
        self.tuner, self.bootstrap = self._bootstrap()
        self.lines, self.chunks, self.rounds_played = [], 0, 0

    def tear_down(self) -> None:
        self.tuner = None

    # -- one round ---------------------------------------------------------

    def round(self, log: OpLog, number: int) -> None:
        tuner = self.tuner
        batches, self.lines = self.lines[:2 * PHASE], self.lines[2 * PHASE:]
        built_before = tuner.session.statistics.caches_built
        decisions = []
        for start in range(0, len(batches), BATCH):
            with log.op("poll", work=BATCH):
                tuner.source.feed(batches[start:start + BATCH])
                fired = tuner.poll()
            for decision in fired:
                log.record("retune", decision.seconds * 1000.0, work=0.0)
                log.expect(decision.kind == "drift", f"unexpected {decision.kind} tune")
                log.expect(decision.workload_cost_after <= decision.workload_cost_before,
                           "a re-tune raised the workload's cost")
                decisions.append(decision)
        # The very first round starts in the phase the bootstrap saw.
        boundaries = 2 if self.rounds_played else 1
        self.rounds_played += 1
        log.expect(len(decisions) == boundaries,
                   f"{len(decisions)} re-tunes over {boundaries} phase boundaries")
        built = tuner.session.statistics.caches_built - built_before
        log.expect(built == sum(decision.caches_built for decision in decisions),
                   "a plan cache was built outside a re-tune")
        log.counters["online.stream_statements"] += len(batches)
        log.counters["online.phase_boundaries"] += boundaries
        log.counters["online.retunes"] += len(decisions)
        log.counters["online.retune_busy_ms"] += sum(d.seconds for d in decisions) * 1000.0
        log.counters["online.retune_caches_built"] += built

    # -- after the measurement ---------------------------------------------

    def verify(self, log: OpLog, expected: Optional[dict]) -> None:
        for bootstrap in self.bootstraps:
            log.verify(
                bootstrap is not None and bootstrap.kind == "bootstrap"
                and bootstrap.caches_built == len(self.reads),
                "the first window fill did not bootstrap with one build per template",
            )
            log.same("online.bootstrap", None if bootstrap is None else (
                sorted(bootstrap.added_indexes), bootstrap.workload_cost_after))
        statistics = self.tuner.source.statistics
        log.verify(statistics.malformed_lines == 0,
                   f"{statistics.malformed_lines} trace lines were rejected")
        log.verify(self.tuner.detector.fires == self.tuner.retunes_triggered,
                   "drift fires and re-tunes disagree")
        for key, value in self.golden(log).items():
            checks.against_expected(log, expected, key, value)

    def golden(self, log: OpLog) -> Dict[str, object]:
        # Nothing was applied before the bootstrap, so "added" is every pick.
        return {"online.bootstrap": {
            "picks": sorted(self.bootstrap.added_indexes),
            "cost_before": self.bootstrap.workload_cost_before,
            "cost_after": self.bootstrap.workload_cost_after,
        }}

    # -- traced run only ---------------------------------------------------

    def layer_extras(self, log: OpLog, recorder, spans) -> Dict[str, float]:
        rounds = max(1, log.rounds)
        return {
            "online.drift_fires": log.counters["online.retunes"] / rounds,
            "online.malformed": float(self.tuner.source.statistics.malformed_lines),
        }


