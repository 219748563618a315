"""Shared plumbing of the end-to-end benchmark: paths, samples, statistics.

Nothing here knows a workload.  A workload module plays operations through
an :class:`OpLog`, which keeps one latency sample list per operation kind,
counts attempted and failed operations (an operation fails if it raises, if
the program answers ``ok: false``, or if one of its checks fails), and --
in a traced run -- opens one root span per operation on the span recorder.
"""

from __future__ import annotations

import collections
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import median
from typing import Dict, Iterator, List, Optional

HERE = Path(__file__).resolve().parent
#: The checkout root: ``benchmarks/e2e`` sits two levels below it.
ROOT = HERE.parent.parent
SRC = ROOT / "src"
#: Everything a run writes (stores, SQL files, span dumps, result JSON) goes
#: under here; the directory is git-ignored.
OUT = HERE / "out"

#: One BLAS/OpenMP thread.  With OpenBLAS's default pool a warm arena
#: ``recommend`` takes 170-190 ms for its first five calls and 11 ms after;
#: pinned it takes 11-13 ms from the first call, so the pin removes a
#: thread-pool warm-up artefact from every latency this benchmark reports.
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def pin_threads() -> None:
    """Apply :data:`THREAD_PINS`; must run before numpy is first imported."""
    os.environ.update(THREAD_PINS)


#: The cores this process may use, read before :func:`pin_cpu` narrows them.
ALLOWED_CORES = sorted(os.sched_getaffinity(0))


def pin_cpu() -> None:
    """Keep the driver (and the CLI children it spawns) on the first core.

    ``serve_mixed`` moves its server to the second one.  Unpinned, the
    scheduler migrates the processes between the two cores and the server's
    handler threads pass the interpreter lock from core to core: measured on
    this box, ``serve_mixed`` then serves 75 requests/s instead of 120 and
    varies by +-10 % from run to run.  Load generator and server on a core
    each is the steady arrangement.
    """
    os.sched_setaffinity(0, {ALLOWED_CORES[0]})


def child_env() -> Dict[str, str]:
    """Environment for server / CLI subprocesses: pins plus ``PYTHONPATH``."""
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def scratch_dir(label: str) -> Path:
    """A fresh, empty directory under :data:`OUT` private to this process."""
    path = OUT / "tmp" / f"{os.getpid()}-{label}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_scratch() -> None:
    """Delete every scratch directory this process created."""
    for path in (OUT / "tmp").glob(f"{os.getpid()}-*"):
        shutil.rmtree(path, ignore_errors=True)


# -- statistics ----------------------------------------------------------------


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in (0, 1]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def calibration_ms() -> float:
    """A fixed pure-Python loop, so numbers from two machines can be lined up.

    Best of three, because the quantity of interest is the machine's speed,
    not its noise.
    """
    best = math.inf
    for _ in range(3):
        started = time.perf_counter()
        table: Dict[int, int] = {}
        total = 0
        for number in range(200_000):
            table[number % 1000] = (number * 7) % 13
            total += table[number % 1000]
        sorted(str(number) for number in range(20_000))
        best = min(best, (time.perf_counter() - started) * 1000.0)
    return best


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is KiB on Linux


def environment() -> Dict[str, object]:
    """What the numbers were measured on (the result file's environment block)."""
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "thread_pins": dict(THREAD_PINS),
        "calibration_ms": calibration_ms(),
        "executable": sys.executable,
    }


# -- operation log -------------------------------------------------------------


class OpLog:
    """Latency samples, attempt/failure counts and cross-iteration memory."""

    def __init__(self, spans: Optional[object] = None) -> None:
        self.samples: Dict[str, List[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: Wall seconds spent inside measured rounds (what ``--seconds`` bounds).
        self.measured_seconds = 0.0
        self.rounds = 0
        #: Wall seconds of each measured round (the throughput base).
        self.round_seconds: List[float] = []
        #: Units of work completed: one per operation unless the workload
        #: says otherwise (a poll of the online daemon is 50 statements).
        self.work = 0.0
        #: The span recorder of a traced run (``None`` when tracing is off).
        self.spans = spans
        #: Work counts the program reports (selection evaluations, builds...).
        self.counters: Dict[str, float] = collections.Counter()
        self._first_seen: Dict[str, object] = {}
        self._op_failed = False

    # -- operations --------------------------------------------------------

    @contextmanager
    def op(self, kind: str, work: float = 1.0) -> Iterator[None]:
        """Time one operation of ``kind``; an exception fails it, not the run."""
        self.attempted += 1
        self.work += work
        self._op_failed = False
        spans = self.spans
        if spans is not None:
            spans.open_root(f"op.{kind}")
        started = time.perf_counter()
        try:
            yield
        except Exception as error:  # noqa: BLE001 - a failed op is a result
            self._fail(f"{kind}: {type(error).__name__}: {error}")
        finally:
            elapsed = (time.perf_counter() - started) * 1000.0
            if spans is not None:
                spans.close_root()
        self.samples.setdefault(kind, []).append(elapsed)

    def record(self, kind: str, milliseconds: float, work: float = 1.0) -> None:
        """Add an operation timed elsewhere (a TCP round trip, a re-tune)."""
        self.attempted += 1
        self.work += work
        self._op_failed = False
        self.samples.setdefault(kind, []).append(milliseconds)

    def _fail(self, message: str) -> None:
        if not self._op_failed:
            self.failed += 1
            self._op_failed = True
        if len(self.problems) < 20:
            self.problems.append(message)

    # -- checks ------------------------------------------------------------

    def expect(self, condition: bool, message: str) -> bool:
        """A check belonging to the latest operation; fails it at most once."""
        if not condition:
            self._fail(message)
        return condition

    def verify(self, condition: bool, message: str) -> bool:
        """A stand-alone check after the measurement: its own attempt."""
        self.attempted += 1
        self._op_failed = False
        return self.expect(condition, message)

    def same(self, key: str, value: object) -> bool:
        """``value`` must equal what the first operation under ``key`` produced."""
        if key not in self._first_seen:
            self._first_seen[key] = value
            return True
        return self.expect(
            self._first_seen[key] == value,
            f"{key}: result differs from the first iteration's",
        )

    def first(self, key: str) -> object:
        """What :meth:`same` first saw under ``key`` (``None`` if nothing)."""
        return self._first_seen.get(key)

    # -- rounds ------------------------------------------------------------

    @contextmanager
    def round(self) -> Iterator[None]:
        """One whole pass of a workload's fixed operation block."""
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            self.measured_seconds += elapsed
            self.round_seconds.append(elapsed)
            self.rounds += 1

    def count(self, *kinds: str) -> int:
        return sum(len(self.samples.get(kind, ())) for kind in kinds)

    def pooled(self, *kinds: str) -> List[float]:
        return [value for kind in kinds for value in self.samples.get(kind, ())]

    def p50(self, *kinds: str) -> float:
        return median(self.pooled(*kinds))

    def work_per_second(self) -> float:
        """Work of one round over the median round's seconds.

        Every round does the same work, so this is the run's throughput with
        the rounds a busy neighbour stretched voted down rather than averaged
        in: under a simulated one, total work over total seconds spread 1.3
        to 1.9 times as far from run to run (four sets of ten runs).
        """
        return self.work / self.rounds / median(self.round_seconds)


def run_rounds(log: OpLog, seconds: float, workload) -> None:
    """Play ``workload.round`` until ``seconds`` have been measured.

    Whole rounds only: every round has the same operation mix, so medians
    and counts per round do not depend on where the clock stopped.  A
    workload's optional ``prepare()`` runs before each round, untimed: it is
    the benchmark generating inputs, not the program working.
    """
    prepare = getattr(workload, "prepare", None)
    # Stop where the measured time is nearest to ``seconds``: a round of
    # ``warm_retune`` takes 2.4 s, and always overshooting costs the set of
    # runs minutes it can spend measuring instead.
    while log.rounds == 0 or log.measured_seconds * (1 + 0.5 / log.rounds) < seconds:
        if prepare is not None:
            prepare()
        with log.round():
            workload.round(log, log.rounds)
