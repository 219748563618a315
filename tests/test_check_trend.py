"""The CI trend gate (``benchmarks/check_trend.py``).

It gates two same-run figures of the benchmark scripts: the workload
compression speedup, as a floor against ``benchmarks/baselines.json``, and
the observability traced-over-untraced ratio, against the absolute limit
the benchmark reports with it.  Whole-request speed is gated by the
end-to-end benchmark, so no other row of a report may fail or pass it.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_check_trend():
    spec = importlib.util.spec_from_file_location(
        "check_trend", ROOT / "benchmarks" / "check_trend.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_trend = _load_check_trend()


def _report(tmp_path: Path, **extra_info) -> Path:
    """A pytest-benchmark report with one benchmark per ``extra_info`` row."""
    path = tmp_path / "BENCH_ci.json"
    benchmarks = [{"name": name, "extra_info": {name: row}} for name, row in extra_info.items()]
    path.write_text(json.dumps({"benchmarks": benchmarks}))
    return path


def _baselines(tmp_path: Path, speedup: float = 10.0) -> Path:
    path = tmp_path / "baselines.json"
    path.write_text(json.dumps(
        {"tolerance": 1.25, "workload_compression": {"compression_speedup": speedup}}
    ))
    return path


def _gate(report: Path, baselines: Path) -> int:
    return check_trend.main([str(report), "--baselines", str(baselines)])


class TestGate:
    def test_report_without_gated_rows_passes(self, tmp_path, capsys):
        assert _gate(_report(tmp_path), _baselines(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "compression gate skipped" in out
        assert "overhead gate skipped" in out

    def test_overhead_within_its_limit_passes(self, tmp_path):
        report = _report(tmp_path, observability_overhead={
            "traced_over_untraced": 1.04, "limit": 1.05,
        })
        assert _gate(report, _baselines(tmp_path)) == 0

    def test_overhead_above_its_limit_fails(self, tmp_path, capsys):
        report = _report(tmp_path, observability_overhead={
            "traced_over_untraced": 1.06, "limit": 1.05,
        })
        assert _gate(report, _baselines(tmp_path)) == 1
        assert "exceeds the absolute limit 1.05" in capsys.readouterr().err

    def test_overhead_limit_defaults_to_two_percent(self, tmp_path):
        report = _report(tmp_path, observability_overhead={"traced_over_untraced": 1.03})
        assert _gate(report, _baselines(tmp_path)) == 1

    def test_compression_at_its_floor_passes(self, tmp_path):
        # Baseline 10.0 over tolerance 1.25: the floor is 8.0, inclusive.
        report = _report(tmp_path, workload_compression={"compression_speedup": 8.0})
        assert _gate(report, _baselines(tmp_path)) == 0

    def test_compression_below_its_floor_fails(self, tmp_path, capsys):
        report = _report(tmp_path, workload_compression={"compression_speedup": 7.9})
        assert _gate(report, _baselines(tmp_path)) == 1
        assert "fell below 8.0000" in capsys.readouterr().err

    def test_compression_without_a_committed_baseline_fails(self, tmp_path):
        baselines = tmp_path / "baselines.json"
        baselines.write_text(json.dumps({"tolerance": 1.25}))
        report = _report(tmp_path, workload_compression={"compression_speedup": 50.0})
        assert _gate(report, baselines) == 1

    def test_missing_baselines_file_stops_the_gate(self, tmp_path):
        with pytest.raises(SystemExit, match="is missing"):
            _gate(_report(tmp_path), tmp_path / "absent.json")

    def test_selection_phase_and_online_rows_are_not_gated(self, tmp_path, capsys):
        # Rows the retired selection-phase and online-drift scripts wrote,
        # with ratios far past any old baseline: the gate ignores them.
        report = _report(
            tmp_path,
            selection_phase=[{"candidates": 20, "lazy_over_seed": 9.0}],
            online_drift={"warm_over_cold": 9.0},
        )
        assert _gate(report, _baselines(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "selection" not in out and "online" not in out


class TestUpdate:
    def test_update_keeps_the_smallest_speedup_seen(self, tmp_path):
        baselines = _baselines(tmp_path, speedup=10.0)
        for speedup in (12.0, 9.0, 11.0):
            report = _report(tmp_path, workload_compression={"compression_speedup": speedup})
            assert check_trend.main(
                [str(report), "--baselines", str(baselines), "--update"]
            ) == 0
        stored = json.loads(baselines.read_text())
        assert stored["workload_compression"]["compression_speedup"] == 9.0

    def test_update_seeds_a_missing_baselines_file(self, tmp_path):
        baselines = tmp_path / "fresh.json"
        report = _report(tmp_path, workload_compression={"compression_speedup": 12.5})
        check_trend.main([str(report), "--baselines", str(baselines), "--update"])
        assert json.loads(baselines.read_text()) == {
            "tolerance": 1.25,
            "workload_compression": {"compression_speedup": 12.5},
        }


def test_committed_baselines_hold_only_the_gated_rows():
    committed = json.loads(check_trend.DEFAULT_BASELINES.read_text())
    assert set(committed) == {"tolerance", "workload_compression"}
    assert set(committed["workload_compression"]) == {"compression_speedup"}
