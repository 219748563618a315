"""``cold_recommend``: the paper's path -- build every plan cache, then select.

One round, always the same mix (closed loop, one in-process caller):

* ``cold_star``   x1 -- fresh ``TuningSession`` over the ten star queries
  (joins of 2-6 tables), ``max_candidates=120`` -> ``recommend()``:
  30 optimizer calls, 10 PINUM builds.  **build**
* ``evaluate``    x4 -- prefixes of the picks priced on that session.  **read**
* ``cold_tpch``   x1 -- the same over the TPC-H-like catalog (2 queries,
  6 calls): a second schema through the same planner.
* ``reload_star`` x3 -- fresh session whose ``cache_dir`` is the store the
  set-up filled: 0 optimizer calls, the pool is read instead of built.  **tune**

Set-up fills the store with one cold recommend (timed as ``setup_s``).
"""

from __future__ import annotations

import dataclasses
import shutil
from typing import Dict, Optional

import checks
import layers
from harness import OpLog, median, scratch_dir
from inputs import Inputs

from repro.advisor.advisor import AdvisorOptions
from repro.advisor.candidates import CandidateGenerator
from repro.api.requests import EvaluateRequest, WhatIfRequest
from repro.api.session import TuningSession

ROLES = {"build": ("cold_star",), "tune": ("reload_star",), "read": ("evaluate",)}
#: Random atomic configurations priced per query by the accuracy probe.
ACCURACY_CONFIGURATIONS = 20


class Workload:
    def __init__(self, inputs: Inputs, engine: Optional[str] = None,
                 traced: bool = False) -> None:
        self.inputs = inputs
        overrides = {} if engine is None else {"engine": engine}
        self.options = AdvisorOptions(max_candidates=120, **overrides)
        self.star = inputs.reads()
        self.tpch_catalog = inputs.tpch.catalog()
        self.tpch = inputs.tpch.queries()
        self.store_dir = None
        self.session = None
        self.response = None

    # -- set-up ------------------------------------------------------------

    def set_up(self) -> None:
        self.store_dir = scratch_dir("store")
        self._star_session(stored=True).recommend()

    def tear_down(self) -> None:
        shutil.rmtree(self.store_dir, ignore_errors=True)

    def _star_session(self, stored: bool = False) -> TuningSession:
        options = self.options
        if stored:
            options = dataclasses.replace(options, cache_dir=str(self.store_dir))
        return TuningSession(self.inputs.catalog, self.star, options=options)

    # -- one round ---------------------------------------------------------

    def round(self, log: OpLog, number: int) -> None:
        budget = self.options.space_budget_bytes
        with log.op("cold_star"):
            self.session = self._star_session()
            self.response = self.session.recommend()
        result = self.response.to_dict()
        checks.recommend(log, "cold_star", result, budget,
                         optimizer_calls=3 * len(self.star), built=len(self.star))
        log.same("cold_star", checks.outcome(result))
        checks.count_selection(log, self.response.result)

        picks = list(self.response.result.selected_indexes)
        for size in sorted({1, 2, max(1, len(picks) // 2), len(picks)}):
            with log.op("evaluate"):
                answer = self.session.evaluate(EvaluateRequest(indexes=picks[:size]))
            log.same(f"evaluate:{size}", answer.total_cost)
            if size == len(picks):
                log.expect(
                    checks.close(answer.total_cost, result["workload_cost_after"]),
                    "evaluate(picks) differs from the recommend's cost_after",
                )

        with log.op("cold_tpch"):
            response = TuningSession(
                self.tpch_catalog, self.tpch, options=self.options
            ).recommend()
        result = response.to_dict()
        checks.recommend(log, "cold_tpch", result, budget,
                         optimizer_calls=3 * len(self.tpch), built=len(self.tpch))
        log.same("cold_tpch", checks.outcome(result))
        checks.count_selection(log, response.result)

        for _ in range(3):
            with log.op("reload_star"):
                response = self._star_session(stored=True).recommend()
            result = response.to_dict()
            checks.recommend(log, "reload_star", result, budget,
                             optimizer_calls=0, built=0, from_store=len(self.star))
            # Reading the pool must give what building it gave.
            log.same("cold_star", checks.outcome(result))
            checks.count_selection(log, response.result)

    # -- after the measurement ---------------------------------------------

    def verify(self, log: OpLog, expected: Optional[dict]) -> None:
        picks = self.response.result.selected_indexes
        checks.scalar_oracle(
            log, "cold_star", self.session, picks,
            self.response.result.workload_cost_after,
        )
        for key in ("cold_star", "cold_tpch"):
            checks.against_expected(log, expected, key, log.first(key))

    def golden(self, log: OpLog) -> Dict[str, object]:
        return {key: log.first(key) for key in ("cold_star", "cold_tpch")}

    # -- traced run only ---------------------------------------------------

    def layer_extras(self, log: OpLog, recorder, spans) -> Dict[str, float]:
        """Numbers no timed operation produces: the classic INUM builder on
        the two 2-table queries (with ``pinum.*`` the paper's fig-4 ratio),
        cache shape, store size, and the accuracy of a cached estimate
        against a fresh optimizer call."""
        extras: Dict[str, float] = {}
        catalog = self.inputs.catalog
        extras["api.session.cold_tpch_ms_p50"] = log.p50("cold_tpch")
        extras["optimizer.busy_share_of_build"] = layers.share_of(
            spans, "optimizer.optimize", log, "cold_star")
        start = len(recorder.spans)
        session = TuningSession(catalog, [], options=self.options)
        caches = [session.build_query_cache(query, "pinum") for query in self.star]
        extras["pinum.calls_per_cache"] = median(
            [float(cache.build_stats.optimizer_calls_total) for cache in caches])
        extras["pinum.entries_per_cache"] = sum(
            len(cache.entries) for cache in caches) / len(caches)
        small = [query for query in self.star if len(query.tables) == 2]
        classic = [session.build_query_cache(query, "inum") for query in small]
        extras["inum.calls_per_cache"] = sum(
            cache.build_stats.optimizer_calls_total for cache in classic) / len(classic)
        extras["inum.build_busy_ms"] = recorder.view(start).busy_ms("inum.build")

        files = [path for path in self.store_dir.rglob("*") if path.is_file()]
        extras["inum.store_bytes_per_cache"] = (
            sum(path.stat().st_size for path in files) / max(1, len(files)))

        errors = self._accuracy_errors()
        extras["inum.accuracy_max_rel_err"] = max(errors)
        extras["inum.accuracy_mean_rel_err"] = sum(errors) / len(errors)
        return extras

    def _accuracy_errors(self) -> list:
        """|cache estimate - fresh what-if| / what-if, per query, on the
        selected set and on seeded random atomic configurations (at most one
        index per table of the query)."""
        catalog = self.inputs.catalog
        generator = CandidateGenerator(catalog)
        rng = self.inputs.rng("accuracy")
        picks = list(self.response.result.selected_indexes)
        errors = []
        for query in self.star:
            session = TuningSession(
                catalog, [query],
                options=dataclasses.replace(self.options, candidate_policy="per_query"),
            )
            session.recommend()
            candidates = generator.for_query(query)
            by_table: Dict[str, list] = {}
            for index in candidates:
                by_table.setdefault(index.table, []).append(index)
            known = {index.key for index in candidates}
            configurations = [[index for index in picks if index.key in known]]
            for _ in range(ACCURACY_CONFIGURATIONS):
                configurations.append([
                    rng.choice(indexes) for _, indexes in sorted(by_table.items())
                    if rng.random() < 0.7
                ])
            for configuration in configurations:
                estimate = session.evaluate(
                    EvaluateRequest(indexes=configuration)).total_cost
                fresh = session.what_if(WhatIfRequest(indexes=configuration)).total_cost
                errors.append(abs(estimate - fresh) / fresh)
        return errors
