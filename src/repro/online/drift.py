"""Drift metrics and the hysteresis detector that keeps them honest.

A drift metric maps two template-frequency distributions (dicts of
``fingerprint -> weight``; they need not be normalized or share support) to
a distance in ``[0, 1]``: 0 for identical traffic, 1 for disjoint template
sets.  Two metrics are provided:

* :func:`total_variation` -- ``0.5 * sum(|p - q|)``: the largest possible
  difference in probability the two windows assign to any template set.
  Linear, cheap, and exactly ``e`` when an alien distribution is mixed in
  with fraction ``e`` -- which makes thresholds easy to reason about.
* :func:`jensen_shannon` -- the symmetrized, bounded KL divergence (base 2,
  so it lands in [0, 1]).  Smoother near 0, more sensitive to mass moving
  onto previously-unseen templates.

Both sum their per-template terms with :func:`math.fsum`, which is exactly
rounded: the terms are visited in ``set`` order, which follows string
hashing, and a plain ``sum`` would make the drift -- and a comparison
against a water mark -- differ from one process to the next.

Raw threshold comparison would re-fire on every poll while drift sits above
the line; :class:`DriftDetector` adds hysteresis: one fire per excursion
above ``high_water``, re-armed only after the signal falls below
``low_water``.  The daemon additionally re-anchors its reference window
after a fire (see :mod:`repro.online.daemon`), so the two mechanisms
together give "exactly one re-tune per genuine phase change".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict

from repro.util.errors import AdvisorError

Distribution = Dict[str, float]


def _normalize(weights: Distribution) -> Distribution:
    total = math.fsum(weights.values())
    if total <= 0.0:
        return {}
    return {key: value / total for key, value in weights.items() if value > 0.0}


def total_variation(p: Distribution, q: Distribution) -> float:
    """Total-variation distance between two template distributions."""
    p, q = _normalize(p), _normalize(q)
    if not p and not q:
        return 0.0
    if not p or not q:
        return 1.0
    distance = 0.5 * math.fsum(
        abs(p.get(key, 0.0) - q.get(key, 0.0)) for key in set(p) | set(q)
    )
    return min(1.0, max(0.0, distance))


def jensen_shannon(p: Distribution, q: Distribution) -> float:
    """Jensen-Shannon divergence (base 2) between two template distributions."""
    p, q = _normalize(p), _normalize(q)
    if not p and not q:
        return 0.0
    if not p or not q:
        return 1.0
    terms = []
    for key in set(p) | set(q):
        pk, qk = p.get(key, 0.0), q.get(key, 0.0)
        mk = 0.5 * (pk + qk)
        if mk <= 0.0:
            # 0.5 * subnormal underflows to exactly 0.0; the true
            # contribution of such a term is below representable precision.
            continue
        if pk > 0.0:
            terms.append(0.5 * pk * math.log2(pk / mk))
        if qk > 0.0:
            terms.append(0.5 * qk * math.log2(qk / mk))
    divergence = math.fsum(terms)
    return min(1.0, max(0.0, divergence))


#: Registered drift metrics, by the name config/serve requests use.
DRIFT_METRICS: Dict[str, Callable[[Distribution, Distribution], float]] = {
    "total_variation": total_variation,
    "jensen_shannon": jensen_shannon,
}


def resolve_metric(name: str) -> Callable[[Distribution, Distribution], float]:
    """The metric registered under ``name`` (AdvisorError on a typo)."""
    metric = DRIFT_METRICS.get(name)
    if metric is None:
        raise AdvisorError(
            f"unknown drift metric {name!r} "
            f"(known: {', '.join(sorted(DRIFT_METRICS))})"
        )
    return metric


@dataclass
class DriftDetector:
    """Hysteresis thresholding of a drift signal.

    Armed, the detector fires when an observation exceeds ``high_water``
    and disarms itself; it re-arms only once an observation falls below
    ``low_water``.  Oscillation inside the band ``[low, high]`` therefore
    does nothing in either state -- the anti-thrash property the daemon's
    tests pin down.  Thresholds are validated by the caller
    (:func:`~repro.advisor.advisor.validate_tuning_limits`).
    """

    high_water: float
    low_water: float
    armed: bool = True
    fires: int = 0
    rearms: int = 0
    last_drift: float = 0.0
    #: The largest observation so far: a daemon observes for weeks, so
    #: the detector keeps this, not every observation.
    peak_drift: float = 0.0

    def observe(self, drift: float) -> bool:
        """Feed one measurement; ``True`` exactly when this one fires."""
        self.last_drift = drift
        self.peak_drift = max(self.peak_drift, drift)
        if self.armed:
            if drift > self.high_water:
                self.armed = False
                self.fires += 1
                return True
        elif drift < self.low_water:
            self.armed = True
            self.rearms += 1
        return False
