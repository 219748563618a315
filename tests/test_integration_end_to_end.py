"""End-to-end integration tests exercising the whole pipeline on the paper's
workloads: star-schema cache construction, cost-model accuracy, the TPC-H-like
redundancy observation and the advisor-to-executor loop."""

from repro.advisor import AdvisorOptions, CandidateGenerator, IndexAdvisor
from repro.executor import PlanExecutor
from repro.inum import AtomicConfiguration, InumCacheBuilder, InumCostModel
from repro.optimizer import Optimizer
from repro.optimizer.whatif import WhatIfOptimizer
from repro.pinum import PinumCacheBuilder
from repro.util.rng import DeterministicRNG
from repro.util.units import gigabytes, megabytes
from repro.workloads.tpch_like import build_tpch_like_catalog, tpch_small_join_query


class TestStarSchemaPipeline:
    def test_pinum_cache_much_cheaper_and_as_accurate_as_inum(self, star_workload):
        """The paper's core claim on one mid-size star query."""
        catalog = star_workload.catalog()
        optimizer = Optimizer(catalog)
        query = star_workload.queries()[2]  # 4-way join
        candidates = CandidateGenerator(catalog).for_query(query)

        pinum_cache = PinumCacheBuilder(optimizer).build_cache(query, candidates)
        inum_cache = InumCacheBuilder(optimizer).build_cache(query, candidates)

        # Calls: constant for PINUM, per-IOC plus per-candidate for INUM.
        assert pinum_cache.build_stats.optimizer_calls_total <= 3
        assert inum_cache.build_stats.optimizer_calls_total > 10 * (
            pinum_cache.build_stats.optimizer_calls_total
        )

        # Accuracy against the optimizer on random atomic configurations.
        whatif = WhatIfOptimizer(optimizer)
        pinum_model = InumCostModel(pinum_cache)
        inum_model = InumCostModel(inum_cache)
        rng = DeterministicRNG(17)
        per_table = {}
        for candidate in candidates:
            per_table.setdefault(candidate.table, []).append(candidate)
        errors_pinum = []
        errors_inum = []
        for _ in range(15):
            chosen = [rng.choice(indexes) for table, indexes in per_table.items()
                      if rng.random() < 0.7]
            configuration = AtomicConfiguration(chosen)
            actual = whatif.cost_with_configuration(query, configuration.indexes)
            errors_pinum.append(abs(pinum_model.estimate(configuration) - actual) / actual)
            errors_inum.append(abs(inum_model.estimate(configuration) - actual) / actual)
        assert sum(errors_pinum) / len(errors_pinum) < 0.10
        assert sum(errors_inum) / len(errors_inum) < 0.10

    def test_advisor_speeds_up_workload_cost(self, star_workload):
        catalog = star_workload.catalog()
        optimizer = Optimizer(catalog)
        queries = star_workload.queries()[:3]
        advisor = IndexAdvisor(
            catalog,
            optimizer,
            AdvisorOptions(space_budget_bytes=gigabytes(5), cost_model="pinum",
                           max_candidates=60),
        )
        result = advisor.recommend(queries)
        assert result.improvement_fraction > 0.3
        assert result.total_index_bytes <= gigabytes(5)

    def test_advisor_result_verified_by_executor(self):
        """Figure-7 style loop: recommend indexes, execute before and after.

        Uses a private workload instance because analysing the scaled-down
        data and materializing the recommendation mutate the catalog, and the
        session-scoped fixture must stay pristine for other tests.
        """
        from repro.workloads import StarSchemaWorkload

        workload = StarSchemaWorkload(seed=7)
        catalog = workload.catalog()
        database = workload.database(scale=0.0002)
        database.analyze()  # plan against the scaled-down reality
        optimizer = Optimizer(catalog)
        queries = workload.queries()[:2]

        advisor = IndexAdvisor(
            catalog,
            optimizer,
            AdvisorOptions(space_budget_bytes=megabytes(64), cost_model="pinum",
                           max_candidates=40),
        )
        recommendation = advisor.recommend(queries)

        def run_workload() -> float:
            total = 0.0
            for query in queries:
                plan = optimizer.optimize(query).plan
                total += PlanExecutor(database, query).execute(plan).simulated_milliseconds
            return total

        before_ms = run_workload()
        for index in recommendation.selected_indexes:
            catalog.add_index(index.materialized())
        after_ms = run_workload()
        assert after_ms <= before_ms * 1.05  # never meaningfully worse


class TestTpchRedundancy:
    def test_one_hooked_call_covers_many_combinations(self):
        """Section IV in miniature: one call yields every useful per-IOC plan."""
        catalog = build_tpch_like_catalog(scale_factor=0.01)
        optimizer = Optimizer(catalog)
        query = tpch_small_join_query()
        cache = PinumCacheBuilder(optimizer).build_cache(query)
        assert cache.build_stats.optimizer_calls_plans == 2
        assert cache.entry_count >= 1
        assert cache.unique_plan_count() <= cache.entry_count
