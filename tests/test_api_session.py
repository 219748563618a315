"""Tests for the TuningSession service API: reuse, delta re-tuning, requests."""

import gc
import weakref

import pytest

from repro.advisor import AdvisorOptions, IndexAdvisor
from repro.advisor.advisor import SELECTORS
from repro.api.requests import (
    EvaluateRequest,
    ExplainRequest,
    RecommendRequest,
    WhatIfRequest,
)
from repro.api.session import TuningSession
from repro.catalog import Index
from repro.optimizer import Optimizer
from repro.query import QueryBuilder
from repro.util.errors import AdvisorError
from repro.util.units import megabytes

from tests.conftest import build_join_query, build_simple_query, build_small_catalog


def build_third_query(name: str = "customer_ages"):
    """A single-table query on a different table than build_simple_query."""
    return (
        QueryBuilder(name)
        .select("customers.c_age", "customers.c_region")
        .from_tables("customers")
        .where("customers.c_age", "<=", 40)
        .order_by("customers.c_age")
        .build()
    )


@pytest.fixture
def options():
    return AdvisorOptions(
        space_budget_bytes=megabytes(512), candidate_policy="per_query"
    )


@pytest.fixture
def session(options):
    return TuningSession(
        build_small_catalog(), [build_join_query(), build_simple_query()], options=options
    )


class TestRecommend:
    def test_matches_one_shot_advisor(self, options):
        catalog = build_small_catalog()
        workload = [build_join_query(), build_simple_query()]
        one_shot = IndexAdvisor(
            catalog,
            Optimizer(catalog),
            AdvisorOptions(space_budget_bytes=megabytes(512)),
        ).recommend(workload)
        session = TuningSession(
            build_small_catalog(),
            workload,
            options=AdvisorOptions(space_budget_bytes=megabytes(512)),
        )
        response = session.recommend()
        assert [i.key for i in response.result.selected_indexes] == [
            i.key for i in one_shot.selected_indexes
        ]
        assert response.result.workload_cost_after == one_shot.workload_cost_after

    def test_empty_workload_rejected(self):
        session = TuningSession(build_small_catalog())
        with pytest.raises(AdvisorError, match="at least one query"):
            session.recommend()

    def test_request_overrides_are_validated(self, session):
        with pytest.raises(AdvisorError, match="unknown selector"):
            session.recommend(RecommendRequest(selector="bogus"))

    def test_request_overrides_apply(self, session):
        response = session.recommend(RecommendRequest(selector="exhaustive"))
        assert response.result.selector == "exhaustive"

    def test_explicit_candidates_bypass_generation(self, session):
        candidate = Index("sales", ["s_customer"], hypothetical=True)
        response = session.recommend(RecommendRequest(candidates=[candidate]))
        assert response.candidate_policy == "explicit"
        assert response.result.candidate_count == 1


class TestSessionReuse:
    def test_second_recommend_builds_nothing(self, session):
        first = session.recommend()
        assert first.caches_built == 2
        assert first.caches_reused == 0

        calls_before = session.optimizer.call_count
        second = session.recommend()
        assert second.caches_built == 0
        assert second.caches_from_store == 0
        assert second.caches_reused == 2
        # Zero duplicate per-query cache builds: not one optimizer call.
        assert session.optimizer.call_count == calls_before
        assert second.result.preparation_optimizer_calls == 0
        assert [i.key for i in second.result.selected_indexes] == [
            i.key for i in first.result.selected_indexes
        ]

    def test_added_query_rebuilds_only_the_delta(self, session):
        session.recommend()
        session.add_queries([build_third_query()])
        response = session.recommend()
        assert response.caches_built == 1
        assert response.caches_reused == 2

    def test_removed_query_rebuilds_nothing(self, session):
        session.recommend()
        session.remove_queries(["simple_scan"])
        response = session.recommend()
        assert response.caches_built == 0
        assert response.caches_reused == 1
        assert set(response.result.per_query_cost_after) == {"sales_by_region"}

    def test_readding_a_removed_query_is_free(self, session):
        session.recommend()
        session.remove_queries(["simple_scan"])
        session.recommend()
        session.add_queries([build_simple_query()])
        response = session.recommend()
        assert response.caches_built == 0
        assert response.caches_reused == 2

    def test_budget_change_reruns_selection_without_builds(self, session):
        first = session.recommend()
        session.set_budget(megabytes(8))
        second = session.recommend()
        assert second.caches_built == 0
        assert second.result.total_index_bytes <= megabytes(8)
        assert len(second.result.selected_indexes) <= len(first.result.selected_indexes)

    def test_statistics_accumulate(self, session):
        session.recommend()
        session.recommend()
        stats = session.statistics
        assert stats.recommend_calls == 2
        assert stats.caches_built == 2
        assert stats.caches_reused == 2

    def test_persistent_store_warms_new_sessions(self, options, tmp_path):
        import dataclasses

        store_options = dataclasses.replace(options, cache_dir=str(tmp_path / "store"))
        workload = [build_join_query(), build_simple_query()]
        first = TuningSession(build_small_catalog(), workload, options=store_options)
        cold = first.recommend()
        assert cold.caches_built == 2

        second = TuningSession(build_small_catalog(), workload, options=store_options)
        warm = second.recommend()
        assert warm.caches_built == 0
        assert warm.caches_from_store == 2
        assert [i.key for i in warm.result.selected_indexes] == [
            i.key for i in cold.result.selected_indexes
        ]


class TestWorkloadMutation:
    def test_duplicate_name_rejected(self, session):
        with pytest.raises(AdvisorError, match="already in the session workload"):
            session.add_queries([build_join_query()])

    def test_add_queries_is_atomic(self, session):
        """A duplicate anywhere in the batch applies nothing."""
        with pytest.raises(AdvisorError):
            session.add_queries([build_third_query(), build_join_query()])
        assert session.query_names == ["sales_by_region", "simple_scan"]
        # Retrying the fixed batch works (nothing was half-applied).
        session.add_queries([build_third_query()])
        assert "customer_ages" in session.query_names

    def test_remove_queries_is_atomic(self, session):
        with pytest.raises(AdvisorError):
            session.remove_queries(["simple_scan", "nope"])
        assert session.query_names == ["sales_by_region", "simple_scan"]

    def test_remove_queries_rejects_a_repeated_name_before_touching_anything(self, session):
        session.set_weights({"simple_scan": 3.0})
        with pytest.raises(AdvisorError, match="named twice"):
            session.remove_queries(["simple_scan", "simple_scan"])
        assert session.query_names == ["sales_by_region", "simple_scan"]
        assert session.options.weight_map() == {"simple_scan": 3.0}
        # A clean removal still takes the weight with it.
        session.remove_queries(["simple_scan"])
        assert session.options.weight_map() == {}

    def test_compressed_add_queries_is_atomic(self, session):
        """A template clash in a later cluster leaves no earlier cluster behind."""
        from repro.util.fingerprint import template_fingerprint

        fresh, clashing = build_third_query("fresh"), build_simple_query("incoming")
        taken = f"tpl_{template_fingerprint(clashing)}"
        session.add_queries([build_third_query(taken)])  # same name, another template
        names, weights = session.query_names, session.options.weight_map()
        with pytest.raises(AdvisorError, match="different template"):
            session.add_queries([fresh, clashing], compress=True)
        assert session.query_names == names
        assert session.options.weight_map() == weights

    @pytest.mark.parametrize("field", ["space_budget_bytes", "ilp_gap", "ilp_time_limit"])
    def test_booleans_are_not_tuning_limits(self, session, field):
        with pytest.raises(AdvisorError, match=f"{field} must be"):
            AdvisorOptions(**{field: True})
        if field == "space_budget_bytes":
            with pytest.raises(AdvisorError, match="space_budget_bytes must be > 0, got True"):
                session.set_budget(True)
            assert session.options.space_budget_bytes == megabytes(512)

    @pytest.mark.parametrize("field, value", [
        ("max_candidates", -3),
        ("max_candidates", 0),
        ("max_candidates", True),
        ("max_candidates", "5"),
        ("max_candidates", 2.5),
        ("min_relative_benefit", "x"),
        ("min_relative_benefit", -1),
        ("min_relative_benefit", float("nan")),
        ("min_relative_benefit", float("inf")),
        ("min_relative_benefit", True),
    ])
    def test_candidate_limits_are_validated_before_any_work(self, session, field, value):
        """A bad candidate cap or benefit threshold is one AdvisorError naming
        the field on every surface, raised before an optimizer call."""
        from repro.api.serve import ServeFrontend

        calls = session.optimizer.call_count
        with pytest.raises(AdvisorError, match=f"{field} must be"):
            AdvisorOptions(**{field: value})
        with pytest.raises(AdvisorError, match=f"{field} must be"):
            session.configure(**{field: value})
        with pytest.raises(AdvisorError, match=f"{field} must be"):
            session.recommend(RecommendRequest.from_dict({field: value}))
        assert session.optimizer.call_count == calls

        frontend = ServeFrontend(default_catalog="tpch")
        served = frontend.session_for()
        response = frontend.handle({"op": "recommend", "params": {field: value}})
        assert response["ok"] is False
        assert response["error"]["type"] == "AdvisorError"
        assert f"{field} must be" in response["error"]["message"]
        assert served.optimizer.call_count == 0

    def test_removing_unknown_name_rejected(self, session):
        with pytest.raises(AdvisorError, match="no query named 'nope'"):
            session.remove_queries(["nope"])

    def test_invalid_budget_rejected(self, session):
        with pytest.raises(AdvisorError, match=r"space_budget_bytes must be > 0, got 0"):
            session.set_budget(0)

    def test_query_names_track_mutations(self, session):
        assert session.query_names == ["sales_by_region", "simple_scan"]
        session.remove_queries(["sales_by_region"])
        assert session.query_names == ["simple_scan"]


class TestOtherRequests:
    def test_evaluate_matches_recommend_costs(self, session):
        response = session.recommend()
        evaluated = session.evaluate(
            EvaluateRequest(indexes=response.result.selected_indexes)
        )
        assert evaluated.total_cost == pytest.approx(response.result.workload_cost_after)
        assert evaluated.total_index_bytes == response.result.total_index_bytes

    def test_evaluate_reuses_model_without_builds(self, session):
        session.recommend()
        built_before = session.statistics.caches_built
        session.evaluate(EvaluateRequest(indexes=[]))
        assert session.statistics.caches_built == built_before

    def test_evaluate_ignores_stale_model_from_explicit_candidates(self, session):
        """A recommend with narrow explicit candidates must not poison
        evaluate(): the session rebuilds its configured model instead of
        answering from caches that never saw the evaluated index."""
        baseline = session.recommend()
        good = baseline.result.selected_indexes
        expected = session.evaluate(EvaluateRequest(indexes=good)).total_cost

        narrow = Index("products", ["p_price"], hypothetical=True)
        session.recommend(RecommendRequest(candidates=[narrow]))
        assert session.evaluate(EvaluateRequest(indexes=good)).total_cost == pytest.approx(
            expected
        )

    def test_what_if_answers_exactly_and_memoizes(self, session):
        candidate = Index("sales", ["s_customer"], hypothetical=True)
        first = session.what_if(WhatIfRequest(indexes=[candidate]))
        assert first.optimizer_calls > 0
        second = session.what_if(WhatIfRequest(indexes=[candidate]))
        assert second.optimizer_calls == 0
        assert second.total_cost == first.total_cost

    def test_explain_by_name_and_sql(self, session):
        by_name = session.explain(ExplainRequest(query="simple_scan"))
        assert by_name.cost > 0
        assert "Scan" in by_name.plan
        by_sql = session.explain(
            ExplainRequest(sql="SELECT sales.s_amount FROM sales ORDER BY sales.s_amount")
        )
        assert by_sql.query_name == "adhoc"

    def test_explain_needs_exactly_one_source(self, session):
        with pytest.raises(AdvisorError, match="exactly one"):
            session.explain(ExplainRequest())
        with pytest.raises(AdvisorError, match="exactly one"):
            session.explain(ExplainRequest(query="simple_scan", sql="SELECT 1"))
        with pytest.raises(AdvisorError, match="no query named"):
            session.explain(ExplainRequest(query="missing"))


class TestEntryPointsAgree:
    """``recommend``, ``build_query_cache`` and ``build_workload_caches`` get
    their caches from one lookup chain (``PlanCachePool.acquire``)."""

    def test_build_query_cache_reads_the_store_it_writes(self, options, tmp_path):
        import dataclasses

        store_options = dataclasses.replace(options, cache_dir=str(tmp_path / "store"))
        query = build_join_query()
        first = TuningSession(build_small_catalog(), options=store_options)
        built = first.build_query_cache(query)
        assert first.statistics.caches_built == 1

        second = TuningSession(build_small_catalog(), options=store_options)
        loaded = second.build_query_cache(query)
        assert second.statistics.caches_built == 0
        assert second.statistics.caches_from_store == 1
        assert second.optimizer.call_count == 0
        assert loaded.entry_count == built.entry_count

    def test_second_build_workload_caches_reuses_every_cache(self, session):
        cold = session.build_workload_caches()
        assert [o.source for o in cold.report.outcomes] == ["built", "built"]
        warm = session.build_workload_caches()
        assert [(o.query_name, o.source) for o in warm.report.outcomes] == [
            ("sales_by_region", "reused"), ("simple_scan", "reused"),
        ]
        assert warm.report.optimizer_calls == 0
        assert session.statistics.caches_built == 2
        assert session.statistics.caches_reused == 2
        assert set(warm.caches) == set(cold.caches)

    def test_every_entry_point_lands_on_one_pool_entry(self):
        query = build_join_query()
        session = TuningSession(
            build_small_catalog(), [query],
            options=AdvisorOptions(space_budget_bytes=megabytes(512)),
        )
        assert session.recommend().caches_built == 1
        assert session.cached_query_count() == 1
        candidates = session._generator.for_workload([query])
        session.build_query_cache(query, candidates=candidates)
        session.build_workload_caches()
        assert session.cached_query_count() == 1
        assert session.statistics.caches_built == 1
        assert session.statistics.caches_reused == 2

    def test_warm_recommend_prices_maintenance_once(self):
        """One memoised maintenance probe per (DML statement, pool candidate
        on its table) plus one per DML statement for its base cost."""
        from repro.query import parse_statement

        writes = [
            parse_statement("UPDATE sales SET s_amount = 7 WHERE s_quantity <= 500", name="u"),
            parse_statement("DELETE FROM sales WHERE s_quantity BETWEEN 100 AND 600", name="d"),
            parse_statement("INSERT INTO customers (c_age, c_region) VALUES (1, 2)", name="i"),
        ]
        session = TuningSession(
            build_small_catalog(), [build_join_query(), build_simple_query(), *writes],
            options=AdvisorOptions(space_budget_bytes=megabytes(512)),
        )
        session.recommend()
        pool = session._generator.for_workload(session.queries)
        expected = sum(
            1 + sum(index.table == write.table for index in pool) for write in writes
        )
        statistics = session.call_cache.statistics
        hits, misses = statistics.maintenance_hits, statistics.maintenance_misses
        warm = session.recommend()
        assert warm.caches_reused == 5
        assert statistics.maintenance_misses == misses
        assert statistics.maintenance_hits - hits == expected


class TestPoolBounds:
    def test_cache_pool_is_bounded(self, options):
        session = TuningSession(
            build_small_catalog(),
            [build_simple_query()],
            options=options,
            max_pooled_caches=2,
        )
        # Three distinct candidate sets -> three distinct cache keys.
        for columns in (["s_customer"], ["s_product"], ["s_amount"]):
            session.build_query_cache(
                build_simple_query(),
                candidates=[Index("sales", columns, hypothetical=True)],
            )
        assert session.cached_query_count() <= 2

    def test_active_caches_survive_pruning(self, options):
        session = TuningSession(
            build_small_catalog(),
            [build_join_query(), build_simple_query()],
            options=options,
            max_pooled_caches=1,
        )
        response = session.recommend()
        # The cap is below the workload size, but the active request's
        # caches are never evicted mid-flight; the next recommend may
        # rebuild, never crash.
        assert response.result.selected_indexes
        session.recommend()


    def test_evicted_arenas_die_without_a_cycle_collection(self, session, monkeypatch):
        """A mutating session compiles one arena per workload shape; all but
        the pooled ones must be freed by reference count alone (the parent's
        arena sat in a reference cycle and waited for a gen-2 collection)."""
        from repro.advisor import benefit

        compiled = []
        compile_arena = benefit.compile_arena

        def tracking_compile(*args, **kwargs):
            arena = compile_arena(*args, **kwargs)
            compiled.append(weakref.ref(arena))
            return arena

        monkeypatch.setattr(benefit, "compile_arena", tracking_compile)
        gc.collect()
        gc.disable()
        try:
            session.recommend()
            for cycle in range(40):
                session.add_queries([build_third_query(f"delta_{cycle}")])
                session.recommend()
                session.remove_queries([f"delta_{cycle}"])
                session.recommend()
            alive = sum(1 for reference in compiled if reference() is not None)
        finally:
            gc.enable()
        assert len(compiled) == 41, "one arena per workload shape, the base one reused"
        assert alive <= TuningSession.MAX_POOLED_ARENAS + 1


class TestOptimizerCostModelSession:
    def test_optimizer_model_memoizes_across_recommends(self):
        options = AdvisorOptions(
            space_budget_bytes=megabytes(512),
            cost_model="optimizer",
            max_candidates=4,
        )
        session = TuningSession(build_small_catalog(), [build_simple_query()], options=options)
        first = session.recommend()
        calls_after_first = session.optimizer.call_count
        second = session.recommend()
        # The what-if memo is session-lifetime: a repeated tuning request
        # answers every probe from memory.
        assert session.optimizer.call_count == calls_after_first
        assert [i.key for i in second.result.selected_indexes] == [
            i.key for i in first.result.selected_indexes
        ]
        assert first.result.engine == "optimizer"


class TestPluggableSelector:
    def test_custom_selector_runs_through_session(self, session):
        class FirstFitSelector:
            """Picks the first candidate that fits the budget, once."""

            def __init__(self, catalog, cost_model, options):
                self._catalog = catalog
                self._cost_model = cost_model
                self._budget = options.space_budget_bytes
                from repro.advisor.greedy import SelectionStatistics

                self.statistics = SelectionStatistics()

            def select(self, candidates):
                from repro.advisor.greedy import SelectionStep

                before = self._cost_model.workload_cost([])
                for candidate in candidates:
                    if self._catalog.index_size_bytes(candidate) <= self._budget:
                        after = self._cost_model.workload_cost([candidate])
                        return [SelectionStep(candidate, before, after,
                                              self._catalog.index_size_bytes(candidate))]
                return []

        SELECTORS["first-fit"] = FirstFitSelector
        try:
            response = session.recommend(RecommendRequest(selector="first-fit"))
            assert len(response.result.selected_indexes) <= 1
            assert response.result.selector == "first-fit"
        finally:
            del SELECTORS["first-fit"]


class TestConfigureAndRetuneAccounting:
    def test_configure_replaces_options_with_validation(self, session):
        assert session.options.candidate_policy == "per_query"
        updated = session.configure(candidate_policy="workload")
        assert updated.candidate_policy == "workload"
        assert session.options.candidate_policy == "workload"

    def test_configure_rejects_invalid_overrides(self, session):
        with pytest.raises(AdvisorError):
            session.configure(space_budget_bytes=-1)
        with pytest.raises(TypeError):
            session.configure(not_a_real_option=True)

    def test_recommend_stamps_last_recommend_at(self, session):
        assert session.last_recommend_at is None
        session.recommend(RecommendRequest())
        first = session.last_recommend_at
        assert first is not None
        assert first >= session.created_at
        session.recommend(RecommendRequest())
        assert session.last_recommend_at >= first
