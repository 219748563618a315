#!/usr/bin/env python3
"""The end-to-end benchmark of the index advisor.

One run (what the driver calls)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

sets the workload up three times (``setup_s`` is the median), plays one
discarded warm-up round, measures whole rounds for ``S`` seconds, checks
every output, and prints each metric by name with its unit and sample count;
the last line of standard output is the result object.  ``--trace 0`` gives
the end-to-end metrics with no wrapper installed; ``--trace 1`` measures a
quarter of ``S`` bare and three quarters under the span recorder of
``trace.py`` and gives the per-layer table.

Whole set (every workload untraced, then traced, each in a fresh process)::

    python3 benchmarks/e2e/run.py --all --seed 7

Noise report (the set N times; median, quartiles and spread / median per
end-to-end metric and workload, ``unresolved`` where spread exceeds bound)::

    python3 benchmarks/e2e/run.py --repeat 5 --seed 7
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402 - needs the path entry above

harness.pin_threads()  # before anything imports numpy
harness.pin_cpu()

WORKLOADS = ("cold_recommend", "cli_recommend", "warm_retune", "serve_mixed", "online_trace")
#: The in-process workloads; the CLI and the server are checked against
#: the same entries, because they are given the same statements.
GOLDEN_WORKLOADS = ("cold_recommend", "warm_retune", "online_trace")
SETUP_REPEATS = 3


def load_spec() -> dict:
    with open(harness.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# -- one run -------------------------------------------------------------------


def run_one(name: str, seed: int, seconds: float, traced: bool, spec: dict,
            write_expected: bool = False) -> dict:
    if not (harness.SRC / "repro").is_dir():
        raise SystemExit(f"run.py: the program under test is missing ({harness.SRC}/repro)")
    sys.path.insert(0, str(harness.SRC))
    import checks
    import layers
    from inputs import Inputs
    from trace import SpanRecorder

    module = importlib.import_module(name)
    # The committed expectation was produced by the scalar reference engine.
    workload = module.Workload(
        Inputs(seed), engine="scalar" if write_expected else None, traced=traced)
    expected = None if write_expected else checks.load_expected(seed)

    setup_seconds = []
    try:
        for attempt in range(SETUP_REPEATS):
            if attempt:
                workload.tear_down()
            started = time.perf_counter()
            workload.set_up()
            setup_seconds.append(time.perf_counter() - started)

        warm = harness.OpLog()
        harness.run_rounds(warm, 0.0, workload)

        extras = {}
        if traced:
            # The same code, unwrapped, for a quarter of the time: the base
            # of the tracing-overhead ratio.
            bare = harness.OpLog()
            harness.run_rounds(bare, seconds / 4.0, workload)
            recorder = SpanRecorder()
            recorder.install()
            log = harness.OpLog(recorder)
            harness.run_rounds(log, seconds * 3.0 / 4.0, workload)
        else:
            log = harness.OpLog()
            harness.run_rounds(log, seconds, workload)
        log.problems[:0] = warm.problems
        log.failed += warm.failed
        log.attempted += warm.attempted

        if traced:
            spans = recorder.view()
            extras = layers.reduce(spans, log)
            extras["obs.trace_overhead_ratio"] = (
                statistics.median(log.round_seconds) / statistics.median(bare.round_seconds))
            extras.update(workload.layer_extras(log, recorder, spans))
            recorder.uninstall()
            recorder.view().dump(harness.OUT / f"spans-{name}.ndjson")
        workload.verify(log, expected)
    finally:
        workload.tear_down()
        harness.remove_scratch()

    if write_expected:
        return workload.golden(log)

    roles = module.ROLES
    # Latencies a workload can only take off the rounds' clock (a set-up's).
    log.samples.update(getattr(workload, "off_clock_samples", {}))
    end_to_end = {
        "setup_s": statistics.median(setup_seconds),
        "peak_rss_mb": harness.peak_rss_mb(),
        "ops_per_s": log.work_per_second(),
    }
    counts = {"setup_s": len(setup_seconds), "ops_per_s": int(log.work)}
    for role, kinds in roles.items():
        end_to_end[f"{role}_ms_p50"] = log.p50(*kinds)
        counts[f"{role}_ms_p50"] = log.count(*kinds)
    declared = spec["per_layer"] if traced else spec["end_to_end"]
    values = extras if traced else end_to_end
    metrics = {}
    for entry in declared:
        value = values.get(entry["name"], 0.0 if traced else None)
        if value is None:
            raise SystemExit(f"run.py: no value for end-to-end metric {entry['name']!r}")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}

    print(f"# {name}  seed={seed}  seconds={seconds}  trace={int(traced)}  "
          f"rounds={log.rounds}  measured={log.measured_seconds:.2f}s  "
          f"mean_ops_per_s={log.work / log.measured_seconds:.4f}")
    for metric, body in metrics.items():
        count = f"  (n={counts[metric]})" if metric in counts else ""
        print(f"{metric:40s} {body['value']:14.4f} {body['unit']}{count}")
    print("# operations (ms): " + "  ".join(
        f"{kind} p50={statistics.median(sample):.2f} n={len(sample)}"
        for kind, sample in sorted(log.samples.items())))
    for problem in log.problems:
        print(f"# FAILED {problem}", file=sys.stderr)
    return {
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": metrics,
    }


# -- the whole set, fresh process per run -----------------------------------------


def child(name: str, seed: int, seconds: float, traced: bool) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced))]
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    *report, result = done.stdout.strip().splitlines() or [""]
    print("\n".join(report))  # the metric lines; the result object is returned
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise SystemExit(f"run.py: {name} exited with {done.returncode}")
    return json.loads(result)


def run_all(seed: int, seconds: float) -> dict:
    results = {"seed": seed, "seconds": seconds, "workloads": {}}
    for name in WORKLOADS:
        untraced = child(name, seed, seconds, traced=False)
        traced = child(name, seed, seconds, traced=True)
        results["workloads"][name] = {"end_to_end": untraced, "per_layer": traced}
    sys.path.insert(0, str(harness.SRC))
    results["environment"] = harness.environment()
    harness.OUT.mkdir(parents=True, exist_ok=True)
    path = harness.OUT / f"result-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1)
    failed = sum(run["failed"] for both in results["workloads"].values() for run in both.values())
    print("# environment: " + json.dumps(results["environment"]))
    print(f"# wrote {path.relative_to(harness.ROOT)}; failed operations: {failed}")
    return results


def noise_report(repeats: int, seed: int, seconds: float, spec: dict) -> bool:
    """Median, quartiles and spread / median per end-to-end metric and workload."""
    runs = {name: [child(name, seed, seconds, traced=False) for _ in range(repeats)]
            for name in WORKLOADS}
    resolved = True
    print(f"\n{'workload':16s} {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for name, results in runs.items():
        for entry in spec["end_to_end"]:
            values = [run["metrics"][entry["name"]]["value"] for run in results]
            q1, middle, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / middle
            verdict = "" if spread <= entry["bound"] else "  unresolved"
            resolved = resolved and not verdict
            print(f"{name:16s} {entry['name']:14s} {middle:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{spread:8.3f} {entry['bound']:6.2f}{verdict}")
    return resolved


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="every workload, untraced then traced")
    parser.add_argument("--repeat", type=int, metavar="N", help="noise report over N sets")
    parser.add_argument("--write-expected", action="store_true",
                        help="regenerate expected/seed<seed>.json from the scalar engine")
    args = parser.parse_args()
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])

    if args.write_expected:
        golden = {}
        for name in GOLDEN_WORKLOADS:
            golden.update(run_one(name, args.seed, 0.0, False, spec, write_expected=True))
        path = HERE / "expected" / f"seed{args.seed}.json"
        path.parent.mkdir(exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(golden, handle, indent=1, sort_keys=True)
            handle.write("\n")
        return 0
    if args.repeat:
        return 0 if noise_report(args.repeat, args.seed, seconds, spec) else 1
    if args.all:
        run_all(args.seed, seconds)
        return 0
    if args.workload is None:
        parser.error("one of --workload, --all, --repeat is required")
    result = run_one(args.workload, args.seed, seconds, bool(args.trace), spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    os.chdir(harness.ROOT)
    sys.exit(main())
