"""CI trend gate: fail when the selection phase regresses vs the baselines.

Reads the ``selection_phase`` rows that ``bench_greedy_selection.py`` writes
into ``BENCH_ci.json`` (pytest-benchmark ``extra_info``) and compares them
against the committed ``benchmarks/baselines.json``.  Wall-clock seconds are
meaningless across runner generations, so each selector on the evaluation
kernel (``lazy``, ``exhaustive``) is normalized by the *seed* scalar path
measured in the same run: the seed loop is frozen code, so ``lazy_seconds /
seed_seconds`` moves only when the kernel path itself regresses, and the
runner's speed cancels out.  A ratio more than
``tolerance`` (default 1.25, i.e. a >25 % selection wall-time regression)
above its committed baseline fails the job.

Rows below ``min_candidates`` (default 60) are reported but not gated: their
millisecond-scale timings are too noisy for a 25 % bound on shared runners.

The online daemon's ``warm_over_cold`` ratio (``bench_online_drift.py``:
boundary re-tune seconds over a cold tune of the same window, both measured
in the same process) is gated the same way when present in the report; runs
without online rows just note the absence, so partial benchmark invocations
keep passing.

The workload-compression ``compression_speedup``
(``bench_workload_compression.py``: uncompressed tune seconds over the
compressed tune of the same trace, same run, so runner speed cancels) is a
bigger-is-better ratio and therefore gated as a *floor*: a speedup below
``baseline / tolerance`` fails, and ``--update`` keeps the smallest speedup
ever seen.

Usage::

    python benchmarks/check_trend.py BENCH_ci.json            # gate (CI)
    python benchmarks/check_trend.py BENCH_ci.json --update   # refresh floor

``--update`` merges the current run into the baselines file, keeping the
*worst* (largest) ratio seen per row so one lucky run can never tighten the
gate for everyone else.  Commit the result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_BASELINES = Path(__file__).resolve().parent / "baselines.json"

#: The normalized metrics gated per candidate-count row.
RATIOS = {
    "lazy_over_seed": "lazy_seconds",
    "exhaustive_over_seed": "exhaustive_seconds",
}


def selection_rows(report_path: Path) -> list:
    """The ``selection_phase`` rows from a pytest-benchmark JSON report."""
    report = json.loads(report_path.read_text())
    for bench in report.get("benchmarks", []):
        rows = bench.get("extra_info", {}).get("selection_phase")
        if rows:
            return rows
    raise SystemExit(
        f"{report_path}: no selection_phase rows found -- did "
        "bench_greedy_selection.py run with --benchmark-json?"
    )


def online_ratios(report_path: Path) -> dict:
    """``engine -> warm_over_cold`` from ``bench_online_drift.py`` rows.

    Empty when the report has no online rows (partial runs are fine).
    """
    report = json.loads(report_path.read_text())
    ratios = {}
    for bench in report.get("benchmarks", []):
        info = bench.get("extra_info", {}).get("online_drift")
        if info and "warm_over_cold" in info:
            ratios[str(info.get("engine", "auto"))] = float(info["warm_over_cold"])
    return ratios


def compression_speedup(report_path: Path) -> float:
    """``compression_speedup`` from ``bench_workload_compression.py`` rows.

    ``None``-equivalent 0.0 when the report has no compression row
    (partial runs are fine).
    """
    report = json.loads(report_path.read_text())
    for bench in report.get("benchmarks", []):
        info = bench.get("extra_info", {}).get("workload_compression")
        if info and "compression_speedup" in info:
            return float(info["compression_speedup"])
    return 0.0


def observability_overhead(report_path: Path) -> dict:
    """The ``observability_overhead`` row from
    ``bench_observability_overhead.py``; empty when the report has none.
    """
    report = json.loads(report_path.read_text())
    for bench in report.get("benchmarks", []):
        info = bench.get("extra_info", {}).get("observability_overhead")
        if info and "traced_over_untraced" in info:
            return dict(info)
    return {}


def current_ratios(rows: list) -> dict:
    ratios = {}
    for row in rows:
        seed = float(row["seed_seconds"])
        if seed <= 0.0:
            continue
        ratios[str(row["candidates"])] = {
            name: float(row[field]) / seed for name, field in RATIOS.items()
        }
    return ratios


def update(baselines_path: Path, ratios: dict, online: dict, compression: float) -> None:
    baselines = (
        json.loads(baselines_path.read_text()) if baselines_path.exists() else {}
    )
    merged = baselines.setdefault("selection_phase", {})
    for count, values in ratios.items():
        row = merged.setdefault(count, {})
        for name, value in values.items():
            row[name] = round(max(float(row.get(name, 0.0)), value), 4)
    if online:
        row = baselines.setdefault("online_drift", {})
        worst = max(online.values())
        row["warm_over_cold"] = round(
            max(float(row.get("warm_over_cold", 0.0)), worst), 4
        )
    if compression > 0.0:
        # Bigger is better here, so "worst seen" is the *smallest* speedup.
        row = baselines.setdefault("workload_compression", {})
        previous = float(row.get("compression_speedup", compression))
        row["compression_speedup"] = round(min(previous, compression), 4)
    baselines.setdefault("tolerance", 1.25)
    baselines.setdefault("min_candidates", 60)
    baselines_path.write_text(json.dumps(baselines, indent=2, sort_keys=True) + "\n")
    print(f"updated {baselines_path}")


def check(
    baselines_path: Path,
    ratios: dict,
    online: dict,
    compression: float,
    overhead: dict,
) -> int:
    if not baselines_path.exists():
        raise SystemExit(
            f"{baselines_path} is missing -- regenerate it with --update "
            "and commit it"
        )
    baselines = json.loads(baselines_path.read_text())
    tolerance = float(baselines.get("tolerance", 1.25))
    min_candidates = int(baselines.get("min_candidates", 60))
    committed = baselines.get("selection_phase", {})

    failures = []
    print(f"selection-phase trend vs {baselines_path.name} "
          f"(tolerance {tolerance:.2f}x, gated from {min_candidates} candidates):")
    for count in sorted(ratios, key=int):
        gated = int(count) >= min_candidates
        baseline_row = committed.get(count)
        for name, value in sorted(ratios[count].items()):
            if baseline_row is None or name not in baseline_row:
                if gated:
                    failures.append(
                        f"  {count} candidates / {name}: no committed baseline "
                        "-- run with --update and commit baselines.json"
                    )
                continue
            limit = float(baseline_row[name]) * tolerance
            verdict = "ok" if value <= limit or not gated else "REGRESSED"
            print(
                f"  {count:>4} candidates  {name:<20} {value:.4f} "
                f"(baseline {baseline_row[name]:.4f}, limit {limit:.4f}) "
                f"{verdict}{'' if gated else ' [not gated]'}"
            )
            if gated and value > limit:
                failures.append(
                    f"  {count} candidates / {name}: {value:.4f} exceeds "
                    f"{limit:.4f} (baseline {baseline_row[name]:.4f} x {tolerance})"
                )
    if not online:
        print("  (no online_drift rows in this report -- online gate skipped)")
    else:
        committed_online = baselines.get("online_drift", {})
        for engine, value in sorted(online.items()):
            baseline = committed_online.get("warm_over_cold")
            if baseline is None:
                failures.append(
                    f"  online_drift/{engine}: no committed baseline -- run "
                    "with --update and commit baselines.json"
                )
                continue
            limit = float(baseline) * tolerance
            verdict = "ok" if value <= limit else "REGRESSED"
            print(
                f"  online engine={engine:<7} warm_over_cold   {value:.4f} "
                f"(baseline {baseline:.4f}, limit {limit:.4f}) {verdict}"
            )
            if value > limit:
                failures.append(
                    f"  online_drift/{engine}: warm_over_cold {value:.4f} "
                    f"exceeds {limit:.4f} (baseline {baseline} x {tolerance})"
                )

    if compression <= 0.0:
        print("  (no workload_compression row in this report -- "
              "compression gate skipped)")
    else:
        committed_compression = baselines.get("workload_compression", {})
        baseline = committed_compression.get("compression_speedup")
        if baseline is None:
            failures.append(
                "  workload_compression: no committed compression_speedup "
                "baseline -- run with --update and commit baselines.json"
            )
        else:
            # Floor, not ceiling: the speedup may only shrink by tolerance.
            limit = float(baseline) / tolerance
            verdict = "ok" if compression >= limit else "REGRESSED"
            print(
                f"  workload compression_speedup     {compression:.4f} "
                f"(baseline {float(baseline):.4f}, floor {limit:.4f}) {verdict}"
            )
            if compression < limit:
                failures.append(
                    f"  workload_compression: compression_speedup "
                    f"{compression:.4f} fell below {limit:.4f} "
                    f"(baseline {baseline} / {tolerance})"
                )

    if not overhead:
        print("  (no observability_overhead row in this report -- "
              "overhead gate skipped)")
    else:
        # Absolute gate, not baseline-relative: the benchmark carries its
        # own applicable limit (1.02 full / 1.05 CI quick mode) and a
        # ratio above it fails regardless of history.
        ratio = float(overhead["traced_over_untraced"])
        limit = float(overhead.get("limit", 1.02))
        verdict = "ok" if ratio <= limit else "REGRESSED"
        print(
            f"  observability traced_over_untraced {ratio:.4f} "
            f"(absolute limit {limit:.2f}) {verdict}"
        )
        if ratio > limit:
            failures.append(
                f"  observability_overhead: traced_over_untraced "
                f"{ratio:.4f} exceeds the absolute limit {limit:.2f}"
            )

    if failures:
        print("benchmark trend regressed >25% vs committed baselines:",
              file=sys.stderr)
        for failure in failures:
            print(failure, file=sys.stderr)
        return 1
    print("trend check passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", type=Path, help="pytest-benchmark JSON report")
    parser.add_argument(
        "--baselines", type=Path, default=DEFAULT_BASELINES,
        help="committed baselines file (default: benchmarks/baselines.json)",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="merge this run into the baselines (keeps the worst ratio seen)",
    )
    options = parser.parse_args(argv)
    ratios = current_ratios(selection_rows(options.report))
    online = online_ratios(options.report)
    compression = compression_speedup(options.report)
    overhead = observability_overhead(options.report)
    if options.update:
        update(options.baselines, ratios, online, compression)
        return 0
    return check(options.baselines, ratios, online, compression, overhead)


if __name__ == "__main__":
    raise SystemExit(main())
