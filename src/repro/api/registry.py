"""Plugin registries for the tuning service's pluggable components.

The advisor's behaviour used to be selected by string literals scattered
across ``AdvisorOptions`` and the CLI ("pinum", "lazy", "auto", ...), each
validated -- or not -- at a different layer, some only after minutes of
cache construction.  This module centralises that dispatch into small named
registries:

* :data:`COST_MODELS` -- benefit oracles for the greedy search.  An entry is
  a factory ``(CostModelRequest) -> WorkloadCostModel``; factories that
  answer from per-query plan caches set ``uses_plan_caches = True`` (and
  optionally ``cache_builder = <builder name>``) so the
  :class:`~repro.api.session.TuningSession` can keep their caches warm.
* :data:`SELECTORS` -- index-selection search loops.  An entry is a factory
  ``(catalog, cost_model, space_budget_bytes, min_relative_benefit)`` that
  returns an object with ``select(candidates)`` and ``statistics``; a
  factory may additionally accept an ``options`` keyword (the effective
  :class:`~repro.advisor.advisor.AdvisorOptions`), which the session passes
  when the signature allows it -- the ``"ilp"`` selector reads its
  ``ilp_gap``/``ilp_time_limit`` that way.
* :data:`ENGINES` -- cache evaluation engines.  An entry is an
  :class:`EngineSpec` naming the arena backend it evaluates on (or the
  scalar oracle) and how to check its availability.
* :data:`CACHE_BUILDERS` -- per-query plan-cache builders.  An entry is a
  class constructed as ``builder(optimizer, options=None, call_cache=None)``
  with a ``build_cache(query, candidate_indexes)`` method.
* :data:`CANDIDATE_POLICIES` -- candidate-generation policies.  An entry is
  a callable ``(generator, queries, max_candidates) -> CandidatePlan``.

Built-in implementations are declared *lazily* (as ``"module:attribute"``
references) so importing this module costs nothing and never cycles; they
are resolved on first :meth:`Registry.get`.  External code registers eagerly:

    from repro.api.registry import SELECTORS

    @SELECTORS.register("random")
    def build_random_selector(catalog, cost_model, budget, min_benefit):
        return RandomSelector(...)

Names are validated *eagerly* -- ``AdvisorOptions`` checks every name at
construction time through :meth:`Registry.validate`, so a typo raises an
:class:`~repro.util.errors.AdvisorError` listing the registered choices
before any optimizer work is spent.
"""

from __future__ import annotations

import importlib
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.util.errors import AdvisorError


class Registry:
    """A named mapping of implementation names to implementations.

    ``kind`` names what is being registered ("selector", "cost model", ...)
    and appears in error messages.  ``builtins`` maps names to lazy
    ``"module.path:attribute"`` references resolved on first use, so the
    registry itself has no import-time dependency on the implementations.

    Registries are task-safe: lazy built-in resolution and eager
    registration both happen under a lock, so concurrent sessions resolving
    the same name for the first time cannot race the import, and lookups of
    already-resolved entries stay lock-free (the entry dict is only ever
    grown, never rebound mid-read).
    """

    def __init__(self, kind: str, builtins: Optional[Dict[str, str]] = None) -> None:
        self.kind = kind
        self._builtins: Dict[str, str] = dict(builtins or {})
        self._entries: Dict[str, Any] = {}
        self._lock = threading.RLock()

    def __contains__(self, name: object) -> bool:
        return name in self._entries or name in self._builtins

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Registry({self.kind!r}, names={list(self.names())})"

    def names(self) -> Tuple[str, ...]:
        """All registered names, sorted (for stable error messages)."""
        return tuple(sorted(set(self._builtins) | set(self._entries)))

    def validate(self, name: str) -> str:
        """Check that ``name`` is registered; raise a listing error if not."""
        if name not in self:
            choices = ", ".join(repr(choice) for choice in self.names())
            raise AdvisorError(
                f"unknown {self.kind} {name!r} (registered: {choices})"
            )
        return name

    def get(self, name: str) -> Any:
        """The implementation registered under ``name`` (resolved lazily)."""
        self.validate(name)
        entry = self._entries.get(name)
        if entry is not None:
            return entry
        with self._lock:
            if name not in self._entries:
                reference = self._builtins[name]
                module_name, _, attribute = reference.partition(":")
                try:
                    module = importlib.import_module(module_name)
                    self._entries[name] = getattr(module, attribute)
                except (ImportError, AttributeError) as error:  # pragma: no cover
                    raise AdvisorError(
                        f"built-in {self.kind} {name!r} could not be loaded "
                        f"from {reference!r}: {error}"
                    ) from error
            return self._entries[name]

    def register(
        self, name: str, value: Any = None, *, replace: bool = False
    ) -> Callable[[Any], Any]:
        """Register ``value`` under ``name`` (usable as a decorator).

        Registering an already-taken name raises unless ``replace=True``, so
        a plugin cannot silently shadow a built-in.
        """

        def _store(stored: Any) -> Any:
            with self._lock:
                if not replace and name in self:
                    raise AdvisorError(
                        f"{self.kind} {name!r} is already registered "
                        "(pass replace=True to override it)"
                    )
                self._entries[name] = stored
            return stored

        if value is None:
            return _store
        return _store(value)

    def unregister(self, name: str) -> None:
        """Remove an eagerly-registered entry (built-ins are restored)."""
        with self._lock:
            self._entries.pop(name, None)


@dataclass(frozen=True)
class EngineSpec:
    """Description of one cache evaluation engine.

    There is one evaluation kernel, :mod:`repro.inum.arena`; an engine names
    the ``backend`` it runs on -- ``"auto"`` (numpy when installed, else pure
    Python), ``"numpy"`` or ``"python"``.  ``backend=None`` is the scalar
    reference oracle (:class:`~repro.inum.cost_estimation.InumCostModel`),
    which tests and benchmark checks compare the kernel against.
    ``availability`` (when set) returns an error message if the engine cannot
    run in this process (e.g. the numpy backend without numpy installed) and
    ``None`` when it can.
    """

    name: str
    backend: Optional[str] = "auto"
    availability: Optional[Callable[[], Optional[str]]] = None

    def ensure_available(self) -> None:
        """Raise :class:`AdvisorError` when the engine cannot run here."""
        if self.availability is None:
            return
        problem = self.availability()
        if problem is not None:
            raise AdvisorError(problem)


#: Benefit oracles for the greedy search, keyed by ``AdvisorOptions.cost_model``.
COST_MODELS = Registry("cost model", builtins={
    "pinum": "repro.advisor.benefit:build_pinum_cost_model",
    "inum": "repro.advisor.benefit:build_inum_cost_model",
    "optimizer": "repro.advisor.benefit:build_optimizer_cost_model",
})

#: Index-selection search loops, keyed by ``AdvisorOptions.selector``.
SELECTORS = Registry("selector", builtins={
    "lazy": "repro.advisor.lazy_greedy:build_lazy_selector",
    "exhaustive": "repro.advisor.greedy:build_exhaustive_selector",
    "ilp": "repro.advisor.ilp.selector:build_ilp_selector",
})

#: Cache evaluation engines, keyed by ``AdvisorOptions.engine``.
ENGINES = Registry("evaluation engine", builtins={
    "auto": "repro.advisor.benefit:AUTO_ENGINE",
    "numpy": "repro.advisor.benefit:NUMPY_ENGINE",
    "python": "repro.advisor.benefit:PYTHON_ENGINE",
    "scalar": "repro.advisor.benefit:SCALAR_ENGINE",
    "arena": "repro.advisor.benefit:ARENA_ENGINE",
})

#: Per-query plan-cache builders, keyed by ``WorkloadBuilderOptions.builder``.
CACHE_BUILDERS = Registry("cache builder", builtins={
    "pinum": "repro.pinum.cache_builder:PinumCacheBuilder",
    "inum": "repro.inum.cache_builder:InumCacheBuilder",
})

#: Candidate-generation policies, keyed by ``AdvisorOptions.candidate_policy``.
CANDIDATE_POLICIES = Registry("candidate policy", builtins={
    "workload": "repro.api.session:workload_candidate_policy",
    "per_query": "repro.api.session:per_query_candidate_policy",
})
