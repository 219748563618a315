"""Property tests for the drift metrics and the hysteresis detector."""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.online import DRIFT_METRICS, DriftDetector, jensen_shannon, total_variation
from repro.online.drift import resolve_metric
from repro.util.errors import AdvisorError
from repro.workloads import StarSchemaWorkload

_settings = settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow],
                     deadline=None)

_weights = st.floats(min_value=1e-3, max_value=100.0, allow_nan=False,
                     allow_infinity=False)
_distributions = st.dictionaries(st.sampled_from("abcde"), _weights,
                                 min_size=1, max_size=5)
_alien_distributions = st.dictionaries(st.sampled_from("vwxyz"), _weights,
                                       min_size=1, max_size=5)
_wide_distributions = st.dictionaries(st.sampled_from("abcdefghijkl"), _weights,
                                      min_size=1, max_size=12)

METRICS = sorted(DRIFT_METRICS)


def _normalize(weights):
    total = sum(weights.values())
    return {key: value / total for key, value in weights.items()}


def _mix(p, alien, epsilon):
    """(1 - epsilon) of ``p`` plus ``epsilon`` of ``alien`` (both normalized)."""
    p, alien = _normalize(p), _normalize(alien)
    mixed = {key: (1.0 - epsilon) * value for key, value in p.items()}
    for key, value in alien.items():
        mixed[key] = mixed.get(key, 0.0) + epsilon * value
    return mixed


class TestMetricProperties:
    @pytest.mark.parametrize("name", METRICS)
    @_settings
    @given(p=_distributions)
    def test_identical_distributions_have_zero_drift(self, name, p):
        assert DRIFT_METRICS[name](p, dict(p)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("name", METRICS)
    @_settings
    @given(p=_distributions, q=_distributions)
    def test_bounded_in_unit_interval(self, name, p, q):
        drift = DRIFT_METRICS[name](p, q)
        assert 0.0 <= drift <= 1.0

    @pytest.mark.parametrize("name", METRICS)
    @_settings
    @given(p=_distributions, q=_distributions)
    def test_symmetric(self, name, p, q):
        metric = DRIFT_METRICS[name]
        assert metric(p, q) == pytest.approx(metric(q, p), abs=1e-12)

    @pytest.mark.parametrize("name", METRICS)
    @_settings
    @given(p=_distributions, q=_alien_distributions)
    def test_disjoint_support_is_maximal(self, name, p, q):
        assert DRIFT_METRICS[name](p, q) == pytest.approx(1.0)

    @pytest.mark.parametrize("name", METRICS)
    @_settings
    @given(p=_distributions, alien=_alien_distributions,
           low=st.floats(min_value=0.0, max_value=1.0),
           high=st.floats(min_value=0.0, max_value=1.0))
    def test_monotone_under_alien_mixing(self, name, p, alien, low, high):
        low, high = min(low, high), max(low, high)
        metric = DRIFT_METRICS[name]
        drift_low = metric(p, _mix(p, alien, low))
        drift_high = metric(p, _mix(p, alien, high))
        assert drift_low <= drift_high + 1e-9

    @_settings
    @given(p=_distributions, alien=_alien_distributions,
           epsilon=st.floats(min_value=0.0, max_value=1.0))
    def test_total_variation_of_alien_mix_is_epsilon(self, p, alien, epsilon):
        # TV is exactly the mixed-in mass when the alien support is disjoint,
        # which is what makes its thresholds interpretable.
        assert total_variation(p, _mix(p, alien, epsilon)) == pytest.approx(
            epsilon, abs=1e-9
        )

    @pytest.mark.parametrize("name", METRICS)
    def test_empty_edge_cases(self, name):
        metric = DRIFT_METRICS[name]
        assert metric({}, {}) == 0.0
        assert metric({"a": 1.0}, {}) == 1.0
        assert metric({}, {"a": 1.0}) == 1.0

    def test_unnormalized_inputs_are_normalized(self):
        assert total_variation({"a": 2.0, "b": 2.0}, {"a": 200, "b": 200}) == 0.0
        assert jensen_shannon({"a": 5.0}, {"a": 0.01}) == 0.0

    def test_resolve_metric(self):
        assert resolve_metric("total_variation") is total_variation
        assert resolve_metric("jensen_shannon") is jensen_shannon
        with pytest.raises(AdvisorError, match="unknown drift metric"):
            resolve_metric("euclidean")


class TestOrderFreeDrift:
    """Drift is a function of the two distributions, not of the order their
    keys are visited in: that order follows insertion and string hashing,
    so an order-dependent sum prints another drift in another process, and
    the detector's strict comparison can fire in one and not the other."""

    @pytest.mark.parametrize("name", METRICS)
    @_settings
    @given(p=_wide_distributions, q=_wide_distributions, data=st.data())
    def test_bit_identical_under_any_key_order(self, name, p, q, data):
        metric = DRIFT_METRICS[name]
        shuffled_p = dict(data.draw(st.permutations(list(p.items()))))
        shuffled_q = dict(data.draw(st.permutations(list(q.items()))))
        assert metric(shuffled_p, shuffled_q) == metric(p, q)

    def test_watch_decisions_do_not_depend_on_the_hash_seed(self, tmp_path):
        feed = tmp_path / "feed.ndjson"
        lines = StarSchemaWorkload(7).trace(480, seed=11, phases=("read", "mixed"))
        feed.write_text("\n".join(lines) + "\n")
        source = Path(__file__).resolve().parents[1] / "src"
        outputs = []
        # Hash seeds 0 and 2 printed drift 0.3500000000000001 and
        # 0.35000000000000003 for this feed while the sum followed set order.
        for seed in ("0", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [str(source), os.environ.get("PYTHONPATH")])
            )
            completed = subprocess.run(
                [sys.executable, "-m", "repro", "watch", "--catalog", "star",
                 "--follow", str(feed), "--from-start", "--window", "120",
                 "--high-water", "0.3", "--max-polls", "1"],
                env=env, capture_output=True, check=True, timeout=300, text=True,
            )
            decisions = []
            for line in completed.stdout.splitlines():
                event = json.loads(line)
                if event["event"] == "decision":
                    event.pop("seconds")
                    decisions.append(json.dumps(event))
            outputs.append(decisions)
        assert [json.loads(line)["kind"] for line in outputs[0]] == ["bootstrap", "drift"]
        assert outputs[0] == outputs[1]


class TestDriftDetector:
    def test_fires_once_per_excursion(self):
        detector = DriftDetector(high_water=0.35, low_water=0.15)
        assert [detector.observe(d) for d in (0.5, 0.6, 0.7)] == [True, False, False]
        assert detector.fires == 1
        assert not detector.armed

    def test_band_oscillation_changes_nothing(self):
        detector = DriftDetector(high_water=0.35, low_water=0.15)
        assert detector.observe(0.5) is True
        # In-band values neither re-arm nor fire, in either state.
        for drift in (0.2, 0.34, 0.16, 0.3):
            assert detector.observe(drift) is False
        assert not detector.armed
        assert detector.rearms == 0

    def test_rearm_only_below_low_water(self):
        detector = DriftDetector(high_water=0.35, low_water=0.15)
        assert detector.observe(0.5) is True
        assert detector.observe(0.1) is False
        assert detector.armed
        assert detector.rearms == 1
        assert detector.observe(0.5) is True
        assert detector.fires == 2

    def test_thresholds_are_strict(self):
        detector = DriftDetector(high_water=0.35, low_water=0.15)
        assert detector.observe(0.35) is False  # == high does not fire
        assert detector.observe(0.36) is True
        assert detector.observe(0.15) is False  # == low does not re-arm
        assert not detector.armed

    def test_peak_and_last_drift(self):
        detector = DriftDetector(high_water=0.5, low_water=0.2)
        for drift in (0.1, 0.6, 0.3):
            detector.observe(drift)
        assert detector.peak_drift == 0.6
        assert detector.last_drift == 0.3

    def test_size_is_constant_over_many_observations(self):
        """A daemon observes for weeks: no per-observation state may pile up."""
        detector = DriftDetector(high_water=0.5, low_water=0.2)
        detector.observe(0.0)
        before = pickle.dumps(detector)
        for step in range(100_000):
            detector.observe((step % 50) / 100.0)  # in and below the band
        assert len(pickle.dumps(detector)) == len(before)
        assert detector.peak_drift == 0.49

    @_settings
    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=60))
    def test_consecutive_fires_require_a_rearm_between_them(self, sequence):
        detector = DriftDetector(high_water=0.35, low_water=0.15)
        fired_at = [i for i, drift in enumerate(sequence) if detector.observe(drift)]
        for first, second in zip(fired_at, fired_at[1:]):
            assert any(sequence[i] < 0.15 for i in range(first + 1, second)), (
                "two fires without an observation below the low-water mark"
            )
        assert detector.fires == len(fired_at)
