"""``cli_recommend``: the command line, one process per request.

Every operation is a fresh ``python -m repro ...`` process timed from spawn
to exit (closed loop, one caller), so interpreter start-up, imports,
catalog generation and report rendering -- about a third of a cold
``repro recommend`` -- are part of every number here and of no other
workload.  The ten star queries reach the program as a generated
``--sql-file``.  One round:

* ``cli_cold``    -- ``repro recommend --catalog star --sql-file F``:
  30 optimizer calls.  **build**
* ``cli_reload``  -- the same with ``--cache-dir`` on the store the set-up
  filled: 0 optimizer calls.  **tune**
* ``cli_explain`` x2 -- ``repro explain --sql <one 4-table query>``: one
  optimizer call; start-up is nearly all of it.  **read**

A planner that gets 3x faster moves ``cli_cold`` by about 1.4x; a heavier
import moves all three.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
import time
from typing import Dict, List, Optional

import checks
from harness import OpLog, child_env, scratch_dir
from inputs import Inputs

from repro.advisor.advisor import AdvisorOptions
from repro.api.session import TuningSession

ROLES = {"build": ("cli_cold",), "tune": ("cli_reload",), "read": ("cli_explain",)}
MAX_CANDIDATES = 120
CALLS = re.compile(r"cache preparation : (\d+) optimizer calls")
PICK = re.compile(r"^  - (\S+\(.*\))$", re.MULTILINE)


class Workload:
    def __init__(self, inputs: Inputs, engine: Optional[str] = None,
                 traced: bool = False) -> None:
        self.inputs = inputs
        self.star = inputs.reads()
        self.directory = None
        self.env = child_env()

    # -- set-up ------------------------------------------------------------

    def set_up(self) -> None:
        self.directory = scratch_dir("cli")
        self.sql_file = self.directory / "workload.sql"
        self.sql_file.write_text(
            ";\n".join(query.to_sql() for query in self.star) + ";\n", encoding="utf-8")
        self.one_query = self.star[2].to_sql()
        self._recommend(stored=True)

    def tear_down(self) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)

    def _run(self, *arguments: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "repro", *arguments],
            capture_output=True, text=True, env=self.env, timeout=120,
        )

    def _recommend(self, stored: bool) -> subprocess.CompletedProcess:
        arguments = ["recommend", "--catalog", "star", "--sql-file", str(self.sql_file),
                     "--max-candidates", str(MAX_CANDIDATES)]
        if stored:
            arguments += ["--cache-dir", str(self.directory / "store")]
        return self._run(*arguments)

    # -- one round ---------------------------------------------------------

    def round(self, log: OpLog, number: int) -> None:
        with log.op("cli_cold"):
            done = self._recommend(stored=False)
        self._check_recommend(log, "cli_cold", done, calls=3 * len(self.star))
        with log.op("cli_reload"):
            done = self._recommend(stored=True)
        self._check_recommend(log, "cli_reload", done, calls=0)
        for _ in range(2):
            with log.op("cli_explain"):
                done = self._run("explain", "--catalog", "star", "--sql", self.one_query)
            log.expect(done.returncode == 0, f"explain exited with {done.returncode}")
            log.same("cli.explain", done.stdout)

    def _check_recommend(self, log: OpLog, label: str, done, calls: int) -> None:
        log.expect(done.returncode == 0,
                   f"{label} exited with {done.returncode}: {done.stderr[-200:]}")
        match = CALLS.search(done.stdout)
        log.expect(match is not None and int(match.group(1)) == calls,
                   f"{label}: expected {calls} optimizer calls")
        log.same("cli.picks", sorted(PICK.findall(done.stdout)))

    # -- after the measurement ---------------------------------------------

    def _in_process(self) -> "tuple[dict, float]":
        started = time.perf_counter()
        response = TuningSession(
            self.inputs.catalog, self.star,
            options=AdvisorOptions(max_candidates=MAX_CANDIDATES),
        ).recommend()
        return response.to_dict(), (time.perf_counter() - started) * 1000.0

    def verify(self, log: OpLog, expected: Optional[dict]) -> None:
        local, _ = self._in_process()
        picks: List[str] = log.first("cli.picks") or []
        log.verify(picks == checks.outcome(local)["picks"],
                   "the CLI's picks differ from the in-process recommend's")

    # -- traced run only ---------------------------------------------------

    def layer_extras(self, log: OpLog, recorder, spans) -> Dict[str, float]:
        in_process = sorted(self._in_process()[1] for _ in range(3))[1]
        return {"cli.startup_ms": log.p50("cli_cold") - in_process}
