#!/usr/bin/env python3
"""The observability layer end to end: spans, metrics, export surfaces.

Everything the tuning stack does is visible through two process-wide
surfaces (:mod:`repro.obs`):

* a **span trace** per request -- opt-in (``RecommendRequest(trace=True)``),
  hierarchical, and decomposing the wall clock of a recommend into its
  build / evaluate / select phases,
* a **metrics registry** -- always on, fed by the same statistics the
  per-object dataclasses report, rendered as a Prometheus text exposition
  or a JSON snapshot with interpolated latency quantiles.

This demo:

1. runs a traced ``recommend`` and prints the span tree with per-phase
   durations (the CLI twin is ``repro recommend --trace-out FILE``),
2. runs a second, *untraced* recommend -- same code path, no spans, which
   is why tracing is free when off,
3. prints the metric families the two calls moved (the CLI twin is
   ``repro metrics``; a running ``repro serve --tcp`` server answers the
   same over the ``metrics`` op),
4. shows a histogram's interpolated p50/p90/p99 from the JSON snapshot.

Run with:  python examples/observability_demo.py
"""

from repro.advisor import AdvisorOptions
from repro.api.requests import RecommendRequest
from repro.api.session import TuningSession
from repro.obs import render_prometheus, snapshot
from repro.util.units import megabytes
from repro.workloads.tpch_like import (
    build_tpch_like_catalog,
    tpch_q5_like_query,
    tpch_small_join_query,
)


def print_span(span: dict, depth: int = 0) -> None:
    attributes = ", ".join(
        f"{key}={value}" for key, value in sorted(span["attributes"].items())
    )
    print(f"  {'  ' * depth}{span['name']:<32} {span['duration_ms']:9.2f} ms"
          f"  {attributes}")
    for child in span["children"]:
        print_span(child, depth + 1)


def main() -> None:
    session = TuningSession(
        build_tpch_like_catalog(),
        [tpch_q5_like_query(), tpch_small_join_query()],
        options=AdvisorOptions(
            space_budget_bytes=megabytes(512), max_candidates=40
        ),
    )

    # 1. A traced recommend: the response carries the whole span tree.
    print("=== traced recommend: where did the time go? ===")
    response = session.recommend(RecommendRequest(trace=True))
    trace = response.trace
    assert trace is not None
    print_span(trace)
    accounted = sum(child["duration_ms"] for child in trace["children"])
    print(f"  phase coverage: {accounted / trace['duration_ms'] * 100.0:.1f}% "
          "of the root span is accounted for by its children")

    # 2. The same call untraced: identical result, zero tracing work.
    untraced = session.recommend()
    assert untraced.trace is None
    print("\n=== untraced recommend ===")
    print("  response.trace is None -- spans cost nothing when off")

    # 3. The registry saw both calls (and everything beneath them).  An
    #    event with a latency histogram is counted by the histogram's
    #    ``_count``: repro_recommend_seconds_count is the recommend count.
    print("\n=== repro metrics (excerpt) ===")
    interesting = (
        "repro_recommend_seconds_count",
        "repro_session_caches_total",
        "repro_whatif_calls_total",
        "repro_selection_evaluations_total",
    )
    for line in render_prometheus().splitlines():
        if line.startswith(interesting):
            print(f"  {line}")

    # 4. Latency distributions carry interpolated quantiles in the JSON
    #    snapshot (fixed buckets, so memory stays bounded forever).
    families = {family["name"]: family for family in snapshot()["families"]}
    recommend_seconds = families["repro_recommend_seconds"]["series"]
    assert sum(series["count"] for series in recommend_seconds) >= 2
    print("\n=== recommend latency quantiles ===")
    for series in recommend_seconds:
        labels = ",".join(f"{k}={v}" for k, v in series["labels"].items())
        print(f"  {labels or '(no labels)'}: count={series['count']} "
              f"p50={series['p50'] * 1000.0:.1f}ms "
              f"p90={series['p90'] * 1000.0:.1f}ms "
              f"p99={series['p99'] * 1000.0:.1f}ms")

    print("\ndone: every number above is also one `repro metrics` "
          "or `--trace-out` invocation away on the CLI.")


if __name__ == "__main__":
    main()
