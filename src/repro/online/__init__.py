"""Online self-tuning: stream statements in, detect drift, re-tune cheaply.

The one-shot advisor answers "what indexes for this workload?"; this
package answers the production question on top: *when* is re-answering it
worth the work?  Four layers, each usable alone:

* :mod:`repro.online.stream` -- NDJSON statement feeds: a file-tail
  follower for live logs and an in-memory source for tests; a repeated
  statement shape is recognised by a lexical key and parsed once,
* :mod:`repro.online.window` -- a count/time-bounded sliding window that
  folds raw statements into per-template weights via SQL fingerprints,
* :mod:`repro.online.drift` -- bounded [0, 1] distances between template
  distributions, wrapped in a hysteresis detector that cannot double-fire,
* :mod:`repro.online.daemon` -- the control loop: on drift, a warm
  :class:`~repro.api.session.TuningSession` re-tune (delta builds only)
  gated by index-transition costing (projected horizon benefit vs. the
  maintenance model's one-time build cost), so noise never thrashes.

``repro watch`` is the CLI face; the TCP server exposes the same loop as
``watch_start`` / ``watch_stats`` / ``watch_stop`` session operations.
"""

from repro.online.daemon import (
    DriftStatistics,
    OnlineTuner,
    OnlineTunerConfig,
    RetuneDecision,
)
from repro.online.drift import (
    DRIFT_METRICS,
    DriftDetector,
    jensen_shannon,
    total_variation,
)
from repro.online.stream import (
    Arrival,
    FileTailSource,
    MemoryStatementSource,
    StreamStatistics,
)
from repro.online.window import SlidingWindow

__all__ = [
    "Arrival",
    "DRIFT_METRICS",
    "DriftDetector",
    "DriftStatistics",
    "FileTailSource",
    "MemoryStatementSource",
    "OnlineTuner",
    "OnlineTunerConfig",
    "RetuneDecision",
    "SlidingWindow",
    "StreamStatistics",
    "jensen_shannon",
    "total_variation",
]
