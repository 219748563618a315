"""Observability overhead: tracing must be (nearly) free, on or off.

The unified observability layer (``repro.obs``) instruments the whole
recommend path -- what-if probes, cache builds, selection, per-request
spans.  Its contract is that the instrumentation never becomes a tax:

* **untraced** (the default) -- ``tracer.span(...)`` with no active trace
  returns a shared no-op context manager: no allocation, no clock reads.
  Metrics still record (a lock acquire plus a float add per event).
* **traced** (``RecommendRequest(trace=True)``) -- real spans with
  monotonic timings on every phase of the call.

This benchmark measures the figure-7 index-selection path (warm session,
caches built, selection re-runs per call) both ways, interleaved to cancel
drift, and gates the median traced-over-untraced ratio:

* ``<= 1.02`` (2 % overhead) in the full run,
* ``<= 1.05`` in CI quick mode, where the per-call wall time shrinks to
  a few milliseconds and scheduler noise dominates a 2 % bound.

The ``observability_overhead`` row (ratio and its applicable limit) lands
in ``BENCH_ci.json`` and is re-checked as an *absolute* gate by
``check_trend.py`` -- unlike the baseline-relative compression floor, an
overhead ratio above its limit fails regardless of history.

Run with:  pytest benchmarks/bench_observability_overhead.py --benchmark-only -s
"""

from __future__ import annotations

import os
import statistics
import time

from repro.advisor import AdvisorOptions
from repro.api.requests import RecommendRequest
from repro.api.session import TuningSession
from repro.bench.harness import ExperimentTable
from repro.util.units import gigabytes

#: Interleaved measurement rounds per mode (medians resist outliers).
ROUNDS = 15

FULL_LIMIT = 1.02
QUICK_LIMIT = 1.05


def _quick_mode() -> bool:
    return os.environ.get("REPRO_BENCH_QUERIES") is not None


def _measure(star_workload, star_queries):
    session = TuningSession(
        star_workload.catalog(),
        list(star_queries),
        options=AdvisorOptions(
            space_budget_bytes=gigabytes(5), max_candidates=60
        ),
    )
    traced_request = RecommendRequest(trace=True)

    # Warm everything first: caches, engines, selection state.  The
    # measured calls then time *selection* (the fig-7 phase), not builds.
    warm = session.recommend()
    assert warm.caches_built == len(star_queries)

    untraced_seconds = []
    traced_seconds = []
    for _ in range(ROUNDS):
        started = time.perf_counter()
        response = session.recommend()
        untraced_seconds.append(time.perf_counter() - started)
        assert response.trace is None

        started = time.perf_counter()
        response = session.recommend(traced_request)
        traced_seconds.append(time.perf_counter() - started)
        assert response.trace is not None
        assert response.trace["children"], "traced call recorded no phases"

    untraced = statistics.median(untraced_seconds)
    traced = statistics.median(traced_seconds)
    limit = QUICK_LIMIT if _quick_mode() else FULL_LIMIT
    return {
        "rounds": ROUNDS,
        "queries": len(star_queries),
        "untraced_seconds_median": untraced,
        "traced_seconds_median": traced,
        "traced_over_untraced": traced / max(untraced, 1e-12),
        "limit": limit,
    }


def test_tracing_overhead_is_bounded(benchmark, star_workload, star_queries):
    """Traced warm recommends within 2% (5% quick) of untraced ones."""
    rows = benchmark.pedantic(
        _measure, args=(star_workload, star_queries), rounds=1, iterations=1
    )
    table = ExperimentTable(
        f"Observability overhead ({rows['queries']} queries, "
        f"{rows['rounds']} interleaved rounds)",
        ["mode", "median seconds", "ratio"],
    )
    table.add_row("untraced", rows["untraced_seconds_median"], 1.0)
    table.add_row(
        "traced", rows["traced_seconds_median"], rows["traced_over_untraced"]
    )
    table.print()
    print(f"traced/untraced: {rows['traced_over_untraced']:.4f} "
          f"(limit {rows['limit']:.2f})")
    benchmark.extra_info["observability_overhead"] = rows

    assert rows["traced_over_untraced"] <= rows["limit"], (
        f"tracing overhead {rows['traced_over_untraced']:.4f} exceeds "
        f"{rows['limit']:.2f}"
    )
