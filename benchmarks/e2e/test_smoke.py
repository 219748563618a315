"""Smoke test of the end-to-end benchmark (about three minutes).

Not collected by tier-1 (``testpaths = ["tests"]``) nor by CI's
``benchmarks/bench_*.py`` glob; run it on purpose::

    python -m pytest benchmarks/e2e/test_smoke.py -q

Every workload runs for half a second, untraced once and traced twice, each
in a fresh process through the driver's own command line.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]

#: Layer metrics that count work and must therefore repeat exactly, with the
#: workload whose round pins them.
EXACT = {
    "cold_recommend": ("optimizer.optimize_calls", "pinum.build_calls", "pinum.calls_per_cache",
                       "advisor.candidate_evaluations", "advisor.query_evaluations"),
    "cli_recommend": (),
    "warm_retune": ("pinum.build_calls", "advisor.candidate_evaluations",
                    "advisor.query_evaluations"),
    "serve_mixed": ("api.tier.tenant_builds", "pinum.build_calls"),
    "online_trace": ("online.drift_fires", "online.phase_boundaries",
                     "online.stream_statements", "query.parse_calls"),
}


def run(workload: str, traced: bool) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(int(traced))],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_schema(result: dict, declared: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert list(result["metrics"]) == [entry["name"] for entry in declared]
    for entry in declared:
        body = result["metrics"][entry["name"]]
        assert set(body) == {"value", "unit"} and body["unit"] == entry["unit"]
        assert isinstance(body["value"], (int, float))


def test_workload_modules_match_the_manifest():
    sys.path.insert(0, str(HERE))
    import run as driver

    assert list(driver.WORKLOADS) == WORKLOADS
    assert SPEC["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = run(workload, traced=False)
    check_schema(result, SPEC["end_to_end"])
    for name, body in result["metrics"].items():
        assert body["value"] > 0, f"{name} must never be 0"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric_and_exact_counts_repeat(workload):
    first, second = run(workload, traced=True), run(workload, traced=True)
    for result in (first, second):
        check_schema(result, SPEC["per_layer"])
        # Every measured interval is accounted for exactly once.
        assert result["metrics"]["obs.self_time_gap"]["value"] <= 0.01
        assert result["metrics"]["obs.spans"]["value"] > 0
    for name in EXACT[workload]:
        value = first["metrics"][name]["value"]
        assert value > 0, name
        assert value == second["metrics"][name]["value"], name


def test_it_refuses_to_run_without_the_program(tmp_path):
    """In a directory with only the manifest and the benchmark: non-zero, no result."""
    bare = tmp_path / "benchmarks" / "e2e"
    bare.mkdir(parents=True)
    for path in HERE.iterdir():
        if path.is_file():
            (bare / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert not done.stdout.strip().startswith("{")
