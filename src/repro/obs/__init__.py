"""Unified observability: span tracing, process metrics, export surfaces.

The reproduction grew into a concurrent, multi-tenant, online-retuning
service, but its visibility was a dozen disconnected ``*Statistics``
dataclasses that only a caller holding the right object could read.  This
package is the one coherent layer those numbers flow through:

* :mod:`repro.obs.metrics` -- a process-wide :class:`MetricsRegistry` of
  named counters, gauges and fixed-bucket histograms (quantiles by bucket
  interpolation, no unbounded memory), safe under concurrent writers, with
  ``labels(...)`` breakdowns per op / engine / session.
* :mod:`repro.obs.trace` -- a :class:`Tracer` producing hierarchical spans
  with monotonic timings and per-span attributes.  Context propagates
  through :mod:`contextvars`, so spans survive the serve thread-pool
  dispatch.
* :mod:`repro.obs.export` -- Prometheus text exposition and a JSON snapshot
  of the registry, plus NDJSON span export, surfaced as the serve op
  ``metrics``, the CLI ``repro metrics``, and ``--trace-out`` on
  ``recommend`` / ``watch``.
* :mod:`repro.obs.instruments` -- the catalog of every metric family the
  stack emits (see the README "Observability" section).

Tracing is opt-in per request and free when off: ``tracer.span(...)``
without an active trace returns a shared no-op context manager.  The
existing statistics dataclasses stay as the ergonomic per-object view but
feed the registry at increment time, so the two surfaces cannot disagree.
"""

from repro.obs.export import render_prometheus, snapshot, write_spans_ndjson
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricError,
    MetricsRegistry,
    get_registry,
)
from repro.obs.trace import NULL_SPAN, Span, Tracer, get_tracer

__all__ = [
    "DEFAULT_BUCKETS",
    "MetricError",
    "MetricsRegistry",
    "NULL_SPAN",
    "Span",
    "Tracer",
    "get_registry",
    "get_tracer",
    "render_prometheus",
    "snapshot",
    "write_spans_ndjson",
]
