"""The service-oriented public API: sessions, typed messages, servers.

* :mod:`repro.api.session` -- :class:`TuningSession`, the long-lived tuning
  service (warm catalogs, caches and compiled arenas; incremental
  re-tuning).
* :mod:`repro.api.requests` -- the typed request/response dataclasses the
  session speaks.
* :mod:`repro.api.serve` -- the newline-delimited-JSON ``repro serve``
  frontend (stdio, one client).
* :mod:`repro.api.server` -- the concurrent asyncio TCP server
  (``repro serve --tcp``) and its reference client.
* :mod:`repro.api.tier` -- the process-wide shared read-only cache tier
  concurrent sessions publish their builds into.

Attributes resolve lazily (PEP 562), so importing one submodule -- the CLI
wants the session and the stdio frontend -- does not load the asyncio
server.  Nothing below this package imports it
(``tests/test_layering.py``).
"""

from __future__ import annotations

import importlib
from typing import Any

#: Public attribute -> defining submodule.  ``from repro.api import X``
#: resolves through :func:`__getattr__` below.
_EXPORTS = {
    # requests / responses
    "UNSET": "repro.api.requests",
    "RecommendRequest": "repro.api.requests",
    "RecommendResponse": "repro.api.requests",
    "EvaluateRequest": "repro.api.requests",
    "EvaluateResponse": "repro.api.requests",
    "WhatIfRequest": "repro.api.requests",
    "WhatIfResponse": "repro.api.requests",
    "ExplainRequest": "repro.api.requests",
    "ExplainResponse": "repro.api.requests",
    "WorkloadResponse": "repro.api.requests",
    "index_to_dict": "repro.api.requests",
    "index_from_dict": "repro.api.requests",
    # session
    "TuningSession": "repro.api.session",
    "SessionStatistics": "repro.api.session",
    "CandidatePlan": "repro.api.session",
    "workload_candidate_policy": "repro.api.session",
    "per_query_candidate_policy": "repro.api.session",
    # serve
    "ServeFrontend": "repro.api.serve",
    # concurrent server + shared tier
    "TuningServer": "repro.api.server",
    "TuningClient": "repro.api.server",
    "SharedCacheTier": "repro.api.tier",
    "TierNamespace": "repro.api.tier",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.api' has no attribute {name!r}")
    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(_EXPORTS))
