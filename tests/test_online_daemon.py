"""Tests for the online self-tuning daemon (repro.online.daemon)."""

from __future__ import annotations

import json

import pytest

from conftest import build_small_catalog
from repro.advisor import AdvisorOptions
from repro.api.session import TuningSession
from repro.online import MemoryStatementSource, OnlineTuner, OnlineTunerConfig
from repro.query.parser import parse_statement
from repro.util.errors import AdvisorError
from repro.workloads.tpch_like import TpchLikeWorkload, build_tpch_like_catalog
from repro.workloads.trace import TracePhase, emit_trace

A = "SELECT customers.c_age FROM customers WHERE customers.c_age > 30"
B = "SELECT products.p_price FROM products WHERE products.p_price < 50"
C = "SELECT customers.c_region FROM customers WHERE customers.c_region = 3"


def _statements(*sqls):
    return [parse_statement(sql) for sql in sqls]


def make_tuner(window=10, high=0.35, low=0.15, horizon=10_000, clock=None, **config_kwargs):
    session = TuningSession(
        build_small_catalog(),
        [],
        options=AdvisorOptions(candidate_policy="per_query", max_candidates=12),
    )
    source = MemoryStatementSource()
    config = OnlineTunerConfig(
        window_statements=window,
        drift_high_water=high,
        drift_low_water=low,
        horizon_statements=horizon,
        **config_kwargs,
    )
    tuner_kwargs = {} if clock is None else {"clock": clock}
    return OnlineTuner(session, source, config, **tuner_kwargs), source


class TestBootstrap:
    def test_bootstrap_fires_when_the_window_fills(self):
        tuner, source = make_tuner(window=10)
        source.feed(_statements(*([A] * 5 + [B] * 4)))
        assert tuner.poll() == []  # 9 statements: not full yet
        assert not tuner.statistics.bootstrapped
        source.feed(_statements(B))
        decisions = tuner.poll()
        assert [d.kind for d in decisions] == ["bootstrap"]
        decision = decisions[0]
        assert decision.verdict == "bootstrap"
        assert decision.accepted
        assert decision.new_templates == 2
        assert decision.caches_built == decision.new_templates
        assert tuner.statistics.bootstrapped
        # The bootstrap is the initial tune, not a re-tune.
        assert tuner.retunes_triggered == 0
        assert tuner.retunes_accepted == 0
        assert tuner.last_retune_at is None
        # The daemon owns the session workload now: exactly the templates.
        assert len(tuner.session.queries) == 2
        assert all(name.startswith("t_") for name in tuner.session.query_names)


class TestDriftRetune:
    def test_stationary_traffic_never_retunes(self):
        tuner, source = make_tuner(window=10)
        for _ in range(6):
            source.feed(_statements(*([A] * 6 + [B] * 4)))
            tuner.poll()
        assert tuner.detector.fires == 0
        assert tuner.retunes_triggered == 0
        assert tuner.session.statistics.recommend_calls == 1  # bootstrap only

    def test_phase_change_retunes_exactly_once_with_delta_builds(self):
        tuner, source = make_tuner(window=10, high=0.35, low=0.15)
        source.feed(_statements(*([A] * 6 + [B] * 4)))
        tuner.poll()
        decisions = []
        for _ in range(4):  # 40 statements of the new phase
            source.feed(_statements(*([C] * 10)))
            decisions.extend(tuner.poll())
        drift_decisions = [d for d in decisions if d.kind == "drift"]
        assert len(drift_decisions) == 1
        assert tuner.detector.fires == 1
        assert tuner.detector.rearms == 1  # re-anchored after window turnover
        assert tuner.detector.armed
        decision = drift_decisions[0]
        assert decision.drift > 0.35
        # Warm re-tune: only the never-seen template pays a cache build.
        assert decision.new_templates == 1
        assert decision.caches_built == decision.new_templates
        assert tuner.session.statistics.caches_built == 3  # 2 bootstrap + 1 delta
        assert tuner.retunes_triggered == 1
        # Re-armed and stationary again: more of the same phase is quiet.
        source.feed(_statements(*([C] * 20)))
        assert tuner.poll() == []
        assert tuner.detector.fires == 1

    def test_oscillation_below_high_water_never_retunes(self):
        tuner, source = make_tuner(window=20, high=0.35, low=0.15)
        source.feed(_statements(*([A] * 20)))
        tuner.poll()
        for _ in range(3):
            # 25% drift excursion (above low, below high), then back.
            source.feed(_statements(*([A] * 15 + [C] * 5)))
            tuner.poll()
            source.feed(_statements(*([A] * 20)))
            tuner.poll()
        assert tuner.detector.peak_drift > 0.15  # the band was actually entered
        assert tuner.detector.peak_drift <= 0.35
        assert tuner.detector.fires == 0
        assert tuner.retunes_triggered == 0
        assert tuner.session.statistics.recommend_calls == 1

    def test_transition_costing_rejects_an_unpayable_retune(self):
        tuner, source = make_tuner(window=10, horizon=1)
        source.feed(_statements(*([A] * 10)))
        tuner.poll()
        applied_before = tuner.statistics.applied_indexes
        source.feed(_statements(*([C] * 40)))
        decisions = [d for d in tuner.poll() if d.kind == "drift"]
        assert len(decisions) == 1
        decision = decisions[0]
        assert decision.verdict == "rejected"
        assert not decision.accepted
        assert decision.build_cost > decision.projected_saving
        assert decision.added_indexes  # there *was* a candidate transition
        assert tuner.statistics.applied_indexes == applied_before
        assert tuner.retunes_rejected == 1
        assert tuner.last_retune_at is not None

    def test_statistics_snapshot_round_trips(self):
        tuner, source = make_tuner(window=10)
        source.feed(_statements(*([A] * 10)))
        tuner.poll()
        snapshot = tuner.statistics.to_dict()
        assert snapshot["bootstrapped"] is True
        assert snapshot["window_statements"] == 10
        assert snapshot["last_decision"]["kind"] == "bootstrap"
        assert snapshot["applied_indexes"] == tuner.statistics.applied_indexes


class TestRunLoop:
    def test_idle_exit_after_quiet_period(self):
        clock = [0.0]
        tuner, source = make_tuner(window=10, clock=lambda: clock[0])
        events = []

        def sleep(seconds):
            clock[0] += seconds

        polls = tuner.run(idle_exit_seconds=1.0, on_event=events.append, sleep=sleep)
        assert events[-1]["event"] == "idle_exit"
        assert polls == events[-1]["polls"]

    def test_max_polls_caps_the_loop(self):
        tuner, source = make_tuner(window=10)
        events = []
        polls = tuner.run(max_polls=3, on_event=events.append, sleep=lambda s: None)
        assert polls == 3
        assert events[-1] == {"event": "max_polls", "polls": 3}

    def test_stop_ends_the_loop(self):
        tuner, source = make_tuner(window=10)
        tuner.stop()
        events = []
        assert tuner.run(on_event=events.append, sleep=lambda s: None) == 0
        assert events[-1]["event"] == "stopped"

    def test_run_emits_decision_events(self):
        tuner, source = make_tuner(window=10)
        source.feed(_statements(*([A] * 10)))
        events = []
        tuner.run(max_polls=2, on_event=events.append, sleep=lambda s: None)
        kinds = [e for e in events if e["event"] == "decision"]
        assert len(kinds) == 1
        assert kinds[0]["kind"] == "bootstrap"


class TestConfigValidation:
    def test_all_problems_reported_at_once(self):
        with pytest.raises(AdvisorError) as excinfo:
            OnlineTunerConfig(
                window_statements=0,
                drift_low_water=0.8,
                drift_high_water=0.2,
                horizon_statements=-5,
            )
        message = str(excinfo.value)
        assert "window_statements" in message
        assert "horizon_statements" in message
        assert "low < high" in message

    def test_waters_must_be_in_unit_interval(self):
        with pytest.raises(AdvisorError, match="drift_high_water"):
            OnlineTunerConfig(drift_high_water=1.5)
        with pytest.raises(AdvisorError, match="drift_low_water"):
            OnlineTunerConfig(drift_low_water=-0.1)

    def test_unknown_metric_rejected(self):
        with pytest.raises(AdvisorError, match="unknown drift metric"):
            OnlineTunerConfig(drift_metric="cosine")

    def test_poll_interval_and_age_and_stride(self):
        with pytest.raises(AdvisorError, match="poll_interval_seconds"):
            OnlineTunerConfig(poll_interval_seconds=0)
        with pytest.raises(AdvisorError, match="max_window_age_seconds"):
            OnlineTunerConfig(max_window_age_seconds=-1.0)
        with pytest.raises(AdvisorError, match="evaluate_every"):
            OnlineTunerConfig(evaluate_every=0)
        assert OnlineTunerConfig(window_statements=80).evaluation_stride == 10
        assert OnlineTunerConfig(evaluate_every=3).evaluation_stride == 3


class TestTwoPhaseTrace:
    """The acceptance scenario end-to-end over the TPC-H-like workload."""

    def test_read_to_write_trace_retunes_exactly_once(self):
        workload = TpchLikeWorkload(seed=7)
        lines = workload.trace(480, seed=11, phases=("read", "write"))
        session = TuningSession(
            build_tpch_like_catalog(),
            [],
            options=AdvisorOptions(candidate_policy="per_query", max_candidates=20),
        )
        source = MemoryStatementSource()
        config = OnlineTunerConfig(
            window_statements=120, drift_high_water=0.3, drift_low_water=0.1
        )
        tuner = OnlineTuner(session, source, config)
        decisions = []
        for start in range(0, len(lines), 40):
            source.feed(lines[start:start + 40])
            decisions.extend(tuner.poll())
        kinds = [d.kind for d in decisions]
        assert kinds.count("bootstrap") == 1
        assert kinds.count("drift") == 1  # exactly one re-tune at the boundary
        assert tuner.detector.fires == 1
        # Every tune paid cache builds only for never-seen templates.
        for decision in decisions:
            assert decision.caches_built == decision.new_templates
        assert session.statistics.caches_built == sum(d.new_templates for d in decisions)

    def test_stationary_trace_of_the_same_length_never_retunes(self):
        workload = TpchLikeWorkload(seed=7)
        lines = workload.trace(480, seed=11, phases=("read",))
        session = TuningSession(
            build_tpch_like_catalog(),
            [],
            options=AdvisorOptions(candidate_policy="per_query", max_candidates=20),
        )
        tuner = OnlineTuner(
            session,
            MemoryStatementSource(),
            OnlineTunerConfig(
                window_statements=120, drift_high_water=0.3, drift_low_water=0.1
            ),
        )
        for start in range(0, len(lines), 40):
            tuner.source.feed(lines[start:start + 40])
            tuner.poll()
        assert tuner.detector.fires == 0
        assert tuner.retunes_triggered == 0
        assert session.statistics.recommend_calls == 1


class TestParameterChurnTrace:
    """Parameter-skew replay: literal churn must be invisible to the daemon.

    The traces below re-execute a fixed template pool with many literal
    variants per template (``TracePhase(parameter_variants=...)``).  Keying
    the sliding window by template fingerprint means that churn neither
    grows the distinct-key count nor moves the drift distribution -- only a
    genuine change of template pool may trigger a re-tune.
    """

    def _phase(self, name, sqls, variants=16):
        statements = tuple(
            parse_statement(sql, name=f"{name}{i}") for i, sql in enumerate(sqls)
        )
        return TracePhase(
            name=name,
            statements=statements,
            skew=1.5,
            parameter_variants=variants,
            parameter_skew=1.1,
        )

    def test_stationary_churn_trace_never_retunes_and_keys_stay_bounded(self):
        lines = emit_trace([self._phase("hot", [A, B])], 240, seed=11)
        # The churn is real: far more distinct SQL strings than templates.
        assert len({json.loads(line)["sql"] for line in lines}) > 10
        tuner, source = make_tuner(window=40, high=0.3, low=0.1)
        for start in range(0, len(lines), 40):
            source.feed(lines[start:start + 40])
            tuner.poll()
        assert tuner.detector.fires == 0
        assert tuner.retunes_triggered == 0
        assert tuner.session.statistics.recommend_calls == 1  # bootstrap only
        # Bounded distinct keys: the pool has 2 templates, so does the window.
        assert tuner.window.template_count == 2
        assert len(tuner.session.queries) == 2

    def test_two_phase_churn_trace_still_retunes_exactly_once(self):
        lines = emit_trace(
            [self._phase("read", [A, B]), self._phase("write", [C])],
            240,
            seed=11,
        )
        tuner, source = make_tuner(window=40, high=0.3, low=0.1)
        decisions = []
        for start in range(0, len(lines), 40):
            source.feed(lines[start:start + 40])
            decisions.extend(tuner.poll())
        kinds = [d.kind for d in decisions]
        assert kinds.count("bootstrap") == 1
        assert kinds.count("drift") == 1  # the pool change, not the churn
        assert tuner.detector.fires == 1
        for decision in decisions:
            assert decision.caches_built == decision.new_templates
        # Across both phases only 3 templates ever existed.
        assert len(tuner.session.queries) <= 3
