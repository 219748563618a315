"""The catalog of every metric family the tuning stack emits.

Declaring all instruments in one module keeps names and label shapes
consistent (the README "Observability" section documents this catalog),
and means a bare ``repro metrics`` already exposes the full family list
with HELP/TYPE headers -- values fill in as the process does work.

Each fact is counted once, where it happens.  An optimizer call is counted
by ``Optimizer.optimize`` alone: it bumps ``Optimizer.call_count`` and
observes :data:`WHATIF_SECONDS` in the same block, so
``repro_whatif_seconds_count`` is the process's optimizer-call count, and
per-build, per-session and per-request call numbers are differences of
``call_count``, not second counters.  Likewise an event that has a latency
histogram is counted by that histogram's ``_count`` and by nothing else:
``repro_recommend_seconds_count`` is the recommend count and
``repro_online_poll_seconds_count`` the online poll count.  Families that
count what has no other counter (memo hits, cache-build latency, selection
effort, stream lines) are bumped at the statement that does the work,
beside the per-object field a response reads when there is one.
"""

from __future__ import annotations

from repro.obs.metrics import get_registry

_REGISTRY = get_registry()

# -- optimizer calls and the what-if memo (optimizer/) -----------------------------

#: What-if memo outcomes: ``hit`` (session memo) and ``shared_hit``
#: (cross-session tier snapshot) are optimizer probes answered from memory;
#: ``maintenance_hit``/``maintenance_miss`` are the memoized
#: index-maintenance model's.  A probe that reaches the optimizer is an
#: optimizer call, counted by :data:`WHATIF_SECONDS` alone.
WHATIF_CALLS = _REGISTRY.counter(
    "repro_whatif_calls_total",
    "What-if memo outcomes (optimizer calls are repro_whatif_seconds_count).",
    ("result",),
)

#: Latency of every optimizer call, memoised or not, observed by
#: ``Optimizer.optimize`` itself; its ``_count`` is the optimizer-call
#: count.  Memo hits never reach it (dictionary lookups would drown the
#: distribution).
WHATIF_SECONDS = _REGISTRY.histogram(
    "repro_whatif_seconds",
    "Latency of optimizer calls (the count is the optimizer-call count).",
)

# -- plan-cache construction (inum/, pinum/) ---------------------------------------

#: Per-phase build latency; ``phase`` is ``plans`` or ``access_costs``,
#: ``builder`` the registered builder name (``inum`` / ``pinum``).
BUILD_SECONDS = _REGISTRY.histogram(
    "repro_build_seconds",
    "Plan-cache build latency per phase.",
    ("builder", "phase"),
)

# -- selection (advisor/) ----------------------------------------------------------

#: Selector wall time per algorithm (``greedy`` / ``lazy_greedy`` / ``ilp``).
SELECTION_SECONDS = _REGISTRY.histogram(
    "repro_selection_seconds",
    "Index-selection wall time per selector.",
    ("selector",),
)

#: Evaluation effort: ``kind=candidate`` counts candidate (re-)evaluations,
#: ``kind=query`` the per-query cost evaluations behind them.
SELECTION_EVALUATIONS = _REGISTRY.counter(
    "repro_selection_evaluations_total",
    "Selection evaluation effort by kind.",
    ("selector", "kind"),
)

#: Branch-and-bound nodes the ILP solver expanded.
ILP_NODES = _REGISTRY.counter(
    "repro_ilp_nodes_total",
    "ILP branch-and-bound nodes expanded.",
)

# -- sessions (api/session.py) -----------------------------------------------------

#: End-to-end latency of every completed ``recommend()`` per selector; its
#: ``_count`` summed over selectors is the recommend count.
RECOMMEND_SECONDS = _REGISTRY.histogram(
    "repro_recommend_seconds",
    "End-to-end recommend latency per selector (the count is the recommend count).",
    ("selector",),
)

#: Where each requested plan cache came from: ``deduplicated`` (earlier in
#: the same call) / ``reused`` (session pool) / ``shared`` (tier) /
#: ``from_store`` / ``built`` -- one vocabulary with the build report's
#: outcome ``source`` and the
#: ``SessionStatistics.caches_<source>`` fields; bumped in one place,
#: :meth:`repro.api.tier.PlanCachePool.acquire`.
SESSION_CACHES = _REGISTRY.counter(
    "repro_session_caches_total",
    "Plan-cache requests by fulfillment source.",
    ("source",),
)

# -- shared tier (api/tier.py) -----------------------------------------------------

#: Tier lookups by artifact kind (``cache`` / ``arena`` / ``whatif``) and
#: ``result`` (``hit`` / ``miss``).
TIER_LOOKUPS = _REGISTRY.counter(
    "repro_tier_lookups_total",
    "Shared-tier lookups by artifact kind and result.",
    ("kind", "result"),
)

#: Artifacts promoted into the shared tier by kind (``cache`` / ``arena`` /
#: ``whatif``).
TIER_PROMOTIONS = _REGISTRY.counter(
    "repro_tier_promotions_total",
    "Artifacts promoted into the shared tier.",
    ("kind",),
)

# -- serving (api/server.py, api/serve.py) -----------------------------------------

#: Requests handled per op and status (``ok`` / ``error``).
SERVE_REQUESTS = _REGISTRY.counter(
    "repro_serve_requests_total",
    "Serve requests handled by op and status.",
    ("op", "status"),
)

#: Per-op request latency (decode through response encode).
SERVE_SECONDS = _REGISTRY.histogram(
    "repro_serve_request_seconds",
    "Serve request latency per op.",
    ("op",),
)

#: Requests currently being processed.
SERVE_INFLIGHT = _REGISTRY.gauge(
    "repro_serve_inflight_requests",
    "Serve requests currently in flight.",
)

#: Open TCP connections.
SERVE_CONNECTIONS = _REGISTRY.gauge(
    "repro_serve_open_connections",
    "Open serve TCP connections.",
)

# -- online daemon (online/daemon.py) ----------------------------------------------

#: Poll cycle latency (ingest + drift evaluation + any re-tune), observed
#: for every cycle, one that raises included; its ``_count`` is the poll
#: count.
ONLINE_POLL_SECONDS = _REGISTRY.histogram(
    "repro_online_poll_seconds",
    "Online-daemon poll cycle latency (the count is the poll count).",
)

#: Statements a statement source accepted, counted where the source counts
#: ``StreamStatistics.statements_parsed``.
ONLINE_STATEMENTS = _REGISTRY.counter(
    "repro_online_statements_total",
    "Statements the online statement sources accepted.",
)

#: Stream lines that failed to parse (silent corruption made visible),
#: counted where the source counts ``StreamStatistics.malformed_lines``.
ONLINE_MALFORMED = _REGISTRY.counter(
    "repro_online_malformed_total",
    "Malformed stream lines the online statement sources skipped.",
)

#: Latest drift score per metric (total variation, Jensen-Shannon, ...).
ONLINE_DRIFT = _REGISTRY.gauge(
    "repro_online_drift_score",
    "Latest drift score per drift metric.",
    ("metric",),
)

#: Re-tune decisions by verdict (``bootstrap`` / ``applied`` /
#: ``unchanged`` / ``rejected``), bumped beside ``OnlineTuner.retunes_*``.
ONLINE_RETUNES = _REGISTRY.counter(
    "repro_online_retunes_total",
    "Online re-tune decisions by outcome.",
    ("outcome",),
)

#: Wall time of re-tunes that ran (warm delta builds included).
ONLINE_RETUNE_SECONDS = _REGISTRY.histogram(
    "repro_online_retune_seconds",
    "Online re-tune wall time.",
)
