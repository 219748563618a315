"""CI trend gate over the benchmark scripts' same-run ratios.

Reads the rows the benchmark scripts write into ``BENCH_ci.json``
(pytest-benchmark ``extra_info``) and gates two of them:

* The workload-compression ``compression_speedup``
  (``bench_workload_compression.py``: uncompressed tune seconds over the
  compressed tune of the same trace, same run, so runner speed cancels) is a
  bigger-is-better ratio and is gated as a *floor* against the committed
  ``benchmarks/baselines.json``: a speedup below ``baseline / tolerance``
  (default tolerance 1.25) fails, and ``--update`` keeps the smallest
  speedup ever seen, so one lucky run can never tighten the gate for
  everyone else.
* The observability ``traced_over_untraced`` ratio
  (``bench_observability_overhead.py``) is gated against the absolute limit
  the benchmark reports with it, regardless of history.

A report without one of these rows just notes the absence, so partial
benchmark invocations keep passing.  Whole-request speed is gated by the
end-to-end benchmark (``benchmarks/e2e/``), not here.

Usage::

    python benchmarks/check_trend.py BENCH_ci.json            # gate (CI)
    python benchmarks/check_trend.py BENCH_ci.json --update   # refresh floor

Commit ``baselines.json`` after ``--update``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_BASELINES = Path(__file__).resolve().parent / "baselines.json"


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


def update(baselines_path: Path, compression: float) -> None:
    baselines = (
        json.loads(baselines_path.read_text()) if baselines_path.exists() else {}
    )
    if compression > 0.0:
        # Bigger is better here, so "worst seen" is the *smallest* speedup.
        row = baselines.setdefault("workload_compression", {})
        previous = float(row.get("compression_speedup", compression))
        row["compression_speedup"] = round(min(previous, compression), 4)
    baselines.setdefault("tolerance", 1.25)
    baselines_path.write_text(json.dumps(baselines, indent=2, sort_keys=True) + "\n")
    print(f"updated {baselines_path}")


def check(baselines_path: Path, compression: float, overhead: dict) -> int:
    if not baselines_path.exists():
        raise SystemExit(
            f"{baselines_path} is missing -- regenerate it with --update "
            "and commit it"
        )
    baselines = json.loads(baselines_path.read_text())
    tolerance = float(baselines.get("tolerance", 1.25))

    failures = []
    print(f"benchmark trend vs {baselines_path.name} (tolerance {tolerance:.2f}x):")
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
        print("benchmark trend regressed:", file=sys.stderr)
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
        help="merge this run into the baselines (keeps the smallest speedup seen)",
    )
    options = parser.parse_args(argv)
    compression = compression_speedup(options.report)
    if options.update:
        update(options.baselines, compression)
        return 0
    return check(options.baselines, compression, observability_overhead(options.report))


if __name__ == "__main__":
    raise SystemExit(main())
