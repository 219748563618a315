"""Update-aware tuning through the advisor and session layers.

Covers the net-benefit semantics end to end: DML caches carrying
maintenance columns, weighted workload totals, write-dominated candidate
pruning, the session's weight mutations, and the guarantee that pure-SELECT
workloads are untouched by any of it.
"""

from __future__ import annotations

import pytest

from repro.advisor.advisor import AdvisorOptions
from repro.advisor.benefit import (
    CacheBackedWorkloadCostModel,
    IncrementalWorkloadEvaluator,
    OptimizerWorkloadCostModel,
)
from repro.advisor.candidates import CandidateGenerator, prune_write_dominated
from repro.api.requests import (
    EvaluateRequest,
    ExplainRequest,
    RecommendRequest,
    WhatIfRequest,
)
from repro.api.session import TuningSession
from repro.catalog.index import Index
from repro.optimizer.maintenance import MaintenanceProfile
from repro.optimizer.optimizer import Optimizer
from repro.query import parse_statement
from repro.util.errors import AdvisorError
from repro.util.units import gigabytes

from conftest import build_join_query, build_simple_query, build_small_catalog


UPDATE_SQL = "UPDATE sales SET s_amount = 7 WHERE s_quantity <= 500"
DELETE_SQL = "DELETE FROM sales WHERE s_quantity BETWEEN 100 AND 600"
INSERT_SQL = "INSERT INTO sales (s_amount, s_quantity) VALUES (1, 2), (3, 4)"


def _mixed_workload():
    return [
        build_join_query("q_join"),
        build_simple_query("q_scan"),
        parse_statement(UPDATE_SQL, name="w_upd"),
        parse_statement(DELETE_SQL, name="w_del"),
        parse_statement(INSERT_SQL, name="w_ins"),
    ]


@pytest.fixture
def mixed_session():
    catalog = build_small_catalog()
    return TuningSession(
        catalog,
        _mixed_workload(),
        options=AdvisorOptions(space_budget_bytes=gigabytes(1)),
    )


class TestWeightedCostModel:
    def test_weights_scale_workload_cost(self, small_catalog):
        queries = [build_join_query("a"), build_simple_query("b")]
        model = OptimizerWorkloadCostModel(
            Optimizer(small_catalog), queries, weights={"a": 3.0}
        )
        per_query = model.per_query_costs([])
        assert model.workload_cost([]) == pytest.approx(
            3.0 * per_query["a"] + per_query["b"]
        )
        assert model.weighted_total(per_query) == model.workload_cost([])

    def test_default_weights_change_nothing(self, small_catalog):
        queries = [build_join_query("a"), build_simple_query("b")]
        plain = OptimizerWorkloadCostModel(Optimizer(small_catalog), queries)
        weighted = OptimizerWorkloadCostModel(
            Optimizer(small_catalog), queries, weights={"a": 1.0, "b": 1.0}
        )
        assert plain.workload_cost([]) == weighted.workload_cost([])

    def test_negative_weight_rejected(self, small_catalog):
        with pytest.raises(AdvisorError, match=">= 0"):
            OptimizerWorkloadCostModel(
                Optimizer(small_catalog), [build_simple_query("a")], weights={"a": -1}
            )

    def test_incremental_evaluator_matches_full_weighted_cost(self, small_catalog):
        statements = _mixed_workload()
        weights = {"w_upd": 2.0, "w_del": 3.0, "q_join": 0.5}
        generator = CandidateGenerator(small_catalog)
        pool = generator.for_workload(statements)
        model = CacheBackedWorkloadCostModel.build(
            Optimizer(small_catalog), statements, pool, weights=weights
        )
        evaluator = IncrementalWorkloadEvaluator(model)
        assert evaluator.total == model.workload_cost([])
        winners = []
        for candidate in pool[:4]:
            delta_cost = evaluator.cost_with(winners, candidate)
            assert delta_cost == pytest.approx(
                model.workload_cost(winners + [candidate]), rel=1e-12
            )

    def test_dml_statement_cost_includes_maintenance(self, small_catalog):
        statements = _mixed_workload()
        generator = CandidateGenerator(small_catalog)
        pool = generator.for_workload(statements)
        model = CacheBackedWorkloadCostModel.build(
            Optimizer(small_catalog), statements, pool
        )
        sales_index = next(index for index in pool if index.table == "sales")
        insert = statements[-1]
        bare = model.query_cost(insert, [])
        with_index = model.query_cost(insert, [sales_index])
        assert with_index > bare  # the INSERT pays for the index, never gains

    def test_optimizer_and_cache_models_agree_on_dml_shape(self, small_catalog):
        """Both oracles charge maintenance: costs rise when indexes exist."""
        statements = [parse_statement(INSERT_SQL, name="w_ins")]
        index = Index("sales", ["s_amount"])
        cache_model = CacheBackedWorkloadCostModel.build(
            Optimizer(small_catalog), statements, [index]
        )
        optimizer_model = OptimizerWorkloadCostModel(
            Optimizer(small_catalog), statements
        )
        for model in (cache_model, optimizer_model):
            assert model.workload_cost([index]) > model.workload_cost([])


class TestWriteDominatedPruning:
    def test_dominated_candidate_is_dropped(self):
        statements = [
            build_simple_query("q"),
            parse_statement(DELETE_SQL, name="w"),
        ]
        reader_bound = 100.0
        cheap = Index("sales", ["s_amount"])
        doomed = Index("sales", ["s_quantity"])
        profiles = {
            "w": MaintenanceProfile(
                statement="w",
                base_cost=1.0,
                per_index={cheap.key: 10.0, doomed.key: 500.0},
            )
        }
        kept, pruned = prune_write_dominated(
            [cheap, doomed],
            statements,
            weights={},
            baseline_costs={"q": reader_bound, "w": 50.0},
            profiles=profiles,
        )
        assert pruned == 1
        assert [index.key for index in kept] == [cheap.key]

    def test_weights_move_the_domination_threshold(self):
        statements = [
            build_simple_query("q"),
            parse_statement(DELETE_SQL, name="w"),
        ]
        candidate = Index("sales", ["s_amount"])
        profiles = {
            "w": MaintenanceProfile(statement="w", per_index={candidate.key: 60.0})
        }
        baseline = {"q": 100.0, "w": 0.0}
        kept, pruned = prune_write_dominated(
            [candidate], statements, {"w": 1.0}, baseline, profiles
        )
        assert not pruned and kept
        kept, pruned = prune_write_dominated(
            [candidate], statements, {"w": 2.0}, baseline, profiles
        )
        assert pruned == 1 and not kept

    def test_pure_read_workload_prunes_nothing(self):
        statements = [build_simple_query("q")]
        candidates = [Index("sales", ["s_amount"]), Index("sales", ["s_quantity"])]
        kept, pruned = prune_write_dominated(
            candidates, statements, {}, {"q": 0.0}, {}
        )
        assert pruned == 0
        assert kept == candidates


class TestUpdateAwareSession:
    def test_recommend_shrinks_under_write_weight(self, mixed_session):
        baseline = mixed_session.recommend().result
        heavy = mixed_session.recommend(
            RecommendRequest(statement_weights={
                "w_upd": 500.0, "w_del": 500.0, "w_ins": 500.0,
            })
        ).result
        assert len(heavy.selected_indexes) <= len(baseline.selected_indexes)
        assert heavy.workload_cost_before > baseline.workload_cost_before

    def test_request_weights_do_not_stick(self, mixed_session):
        before = mixed_session.recommend().result
        mixed_session.recommend(
            RecommendRequest(statement_weights={"w_del": 1000.0})
        )
        after = mixed_session.recommend().result
        assert [i.key for i in after.selected_indexes] == [
            i.key for i in before.selected_indexes
        ]
        assert after.workload_cost_before == before.workload_cost_before

    def test_request_weights_reject_unknown_names(self, mixed_session):
        with pytest.raises(AdvisorError, match="no statement named"):
            mixed_session.recommend(
                RecommendRequest(statement_weights={"ghost": 5.0})
            )

    def test_remove_queries_drops_the_statement_weight(self, mixed_session):
        mixed_session.set_weights({"w_del": 9.0})
        mixed_session.remove_queries(["w_del"])
        assert "w_del" not in mixed_session.options.weight_map()
        # A different statement re-using the name starts back at weight 1.0.
        mixed_session.add_queries([parse_statement(
            "DELETE FROM sales WHERE s_amount <= 1", name="w_del"
        )])
        assert mixed_session.options.weight_map().get("w_del", 1.0) == 1.0

    def test_set_weights_sticks_and_validates(self, mixed_session):
        with pytest.raises(AdvisorError, match="no statement named"):
            mixed_session.set_weights({"nope": 2.0})
        effective = mixed_session.set_weights({"w_del": 4.0})
        assert effective == {"w_del": 4.0}
        result = mixed_session.recommend().result
        heavier = mixed_session.recommend(
            RecommendRequest(statement_weights={"w_del": 8.0})
        ).result
        assert heavier.workload_cost_before > result.workload_cost_before

    def test_weight_changes_reuse_caches(self, mixed_session):
        first = mixed_session.recommend()
        assert first.caches_built > 0
        mixed_session.set_weights({"w_upd": 9.0})
        second = mixed_session.recommend()
        assert second.caches_built == 0
        assert second.caches_reused == len(mixed_session.queries)

    def test_evaluate_charges_maintenance(self, mixed_session):
        mixed_session.recommend()
        # Pick a *pool* candidate: maintenance columns cover the candidate
        # set the caches were built for (unknown indexes contribute 0, the
        # same treatment the read side gives uncollected access costs).
        generator = CandidateGenerator(mixed_session.catalog)
        index = next(
            index
            for index in generator.for_workload(mixed_session.queries)
            if index.table == "sales"
        )
        priced = mixed_session.evaluate(EvaluateRequest(indexes=[index]))
        bare = mixed_session.evaluate(EvaluateRequest(indexes=[]))
        assert priced.per_query_costs["w_ins"] > bare.per_query_costs["w_ins"]
        unknown = Index("sales", ["s_quantity", "s_product", "s_amount", "s_customer"])
        assert mixed_session.evaluate(
            EvaluateRequest(indexes=[unknown])
        ).per_query_costs["w_ins"] == bare.per_query_costs["w_ins"]

    def test_what_if_prices_dml(self, mixed_session):
        index = Index("sales", ["s_amount", "s_quantity"])
        response = mixed_session.what_if(WhatIfRequest(indexes=[index]))
        bare = mixed_session.what_if(WhatIfRequest(indexes=[]))
        assert response.per_query_costs["w_ins"] > bare.per_query_costs["w_ins"]
        # The UPDATE's read phase can gain more than its maintenance costs.
        assert set(response.per_query_costs) == {
            "q_join", "q_scan", "w_upd", "w_del", "w_ins"
        }

    def test_explain_dml_uses_shadow(self, mixed_session):
        response = mixed_session.explain(ExplainRequest(query="w_upd"))
        assert response.query_name == "w_upd"
        assert response.sql.startswith("UPDATE sales")
        assert response.plan  # the shadow SELECT's plan
        with pytest.raises(AdvisorError, match="no read phase"):
            mixed_session.explain(ExplainRequest(query="w_ins"))

    def test_describe_reports_kinds_and_weights(self, mixed_session):
        mixed_session.set_weights({"w_del": 2.5})
        described = mixed_session.describe().to_dict()
        kinds = {entry["name"]: entry["kind"] for entry in described["queries"]}
        weights = {entry["name"]: entry["weight"] for entry in described["queries"]}
        assert kinds == {
            "q_join": "select", "q_scan": "select",
            "w_upd": "update", "w_del": "delete", "w_ins": "insert",
        }
        assert weights["w_del"] == 2.5
        assert weights["q_join"] == 1.0

    def test_dml_caches_round_trip_through_store(self, tmp_path):
        catalog = build_small_catalog()
        options = AdvisorOptions(cache_dir=str(tmp_path))
        first = TuningSession(catalog, _mixed_workload(), options=options)
        cold = first.recommend()
        assert cold.caches_built == len(_mixed_workload())
        second = TuningSession(build_small_catalog(), _mixed_workload(), options=options)
        warm = second.recommend()
        assert warm.caches_built == 0
        assert warm.caches_from_store == len(_mixed_workload())
        assert [i.key for i in warm.result.selected_indexes] == [
            i.key for i in cold.result.selected_indexes
        ]
        assert warm.result.workload_cost_after == cold.result.workload_cost_after

    def test_per_query_policy_keeps_dml_caches_warm_across_mutations(self, small_catalog):
        """Adding one read query builds exactly one cache -- DML caches stay warm."""
        session = TuningSession(
            small_catalog,
            _mixed_workload(),
            options=AdvisorOptions(candidate_policy="per_query"),
        )
        cold = session.recommend()
        assert cold.caches_built == len(_mixed_workload())
        # A new SELECT on the very table the DML statements write: the pool
        # changes, but DML cache identities (keyed by their shadow's own
        # candidates) must not.
        session.add_queries([parse_statement(
            "SELECT sales.s_product FROM sales WHERE sales.s_amount > 100 "
            "ORDER BY sales.s_product",
            name="q_new",
        )])
        warm = session.recommend()
        assert warm.caches_built == 1, (
            f"expected exactly the new query's cache, built {warm.caches_built}"
        )
        assert warm.caches_reused == len(_mixed_workload())
        # The refreshed pool still charges maintenance: heavier write weights
        # keep shrinking the recommendation.
        heavy = session.recommend(
            RecommendRequest(statement_weights={
                "w_upd": 500.0, "w_del": 500.0, "w_ins": 500.0,
            })
        )
        assert heavy.caches_built == 0
        assert len(heavy.result.selected_indexes) <= len(warm.result.selected_indexes)

    def test_per_query_policy_covers_dml_maintenance(self, small_catalog):
        session = TuningSession(
            small_catalog,
            _mixed_workload(),
            options=AdvisorOptions(candidate_policy="per_query"),
        )
        response = session.recommend(
            RecommendRequest(statement_weights={
                "w_upd": 500.0, "w_del": 500.0, "w_ins": 500.0,
            })
        )
        plain = session.recommend()
        assert len(response.result.selected_indexes) <= len(
            plain.result.selected_indexes
        )


class TestPureSelectUnchanged:
    def test_zero_weight_writes_reproduce_pure_select_recommendation(self, small_catalog):
        reads = [build_join_query("q_join"), build_simple_query("q_scan")]
        pure = TuningSession(build_small_catalog(), reads).recommend().result
        mixed = TuningSession(
            small_catalog,
            _mixed_workload(),
            options=AdvisorOptions(statement_weights={
                "w_upd": 0.0, "w_del": 0.0, "w_ins": 0.0,
            }),
        ).recommend().result
        assert [i.key for i in mixed.selected_indexes] == [
            i.key for i in pure.selected_indexes
        ]
        assert mixed.candidates_pruned_for_writes == 0

    def test_pure_select_costs_are_bit_identical_with_unit_weights(self, small_catalog):
        reads = [build_join_query("q_join"), build_simple_query("q_scan")]
        plain = TuningSession(build_small_catalog(), reads).recommend().result
        weighted = TuningSession(
            small_catalog, reads,
            options=AdvisorOptions(statement_weights={"q_join": 1.0, "q_scan": 1.0}),
        ).recommend().result
        assert weighted.workload_cost_before == plain.workload_cost_before
        assert weighted.workload_cost_after == plain.workload_cost_after
        assert [i.key for i in weighted.selected_indexes] == [
            i.key for i in plain.selected_indexes
        ]
