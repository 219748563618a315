"""Tests for the what-if optimizer interface."""

import pytest

from repro.catalog.index import Index
from repro.optimizer import Optimizer, OptimizerHooks
from repro.optimizer.whatif import WhatIfOptimizer


@pytest.fixture
def whatif(small_catalog):
    return WhatIfOptimizer(Optimizer(small_catalog))


class TestConfigurationProbing:
    def test_empty_configuration_matches_plain_cost(self, whatif, join_query):
        plain = whatif.optimizer.optimize(join_query).cost
        probed = whatif.cost_with_configuration(join_query, [])
        assert probed == pytest.approx(plain)

    def test_useful_index_reduces_cost(self, whatif, join_query):
        covering = Index("products", ["p_category", "p_id", "p_price"])
        with_index = whatif.cost_with_configuration(join_query, [covering])
        without = whatif.cost_with_configuration(join_query, [])
        assert with_index <= without

    def test_exclusive_hides_permanent_indexes(self, small_catalog, join_query):
        """A given configuration is the only visible one; ``None`` is the materialized set."""
        optimizer = Optimizer(small_catalog)
        helpful = Index("products", ["p_category", "p_id", "p_price"])
        small_catalog.add_index(helpful)
        hooks = OptimizerHooks(keep_all_access_paths=True)
        with_permanent = optimizer.optimize(join_query, hooks)
        hidden = optimizer.optimize(join_query, hooks, indexes=[])
        assert helpful in [path.index for path in with_permanent.access_paths]
        assert all(path.index is None for path in hidden.access_paths)
        assert hidden.cost >= with_permanent.cost
        assert WhatIfOptimizer(optimizer).cost_with_configuration(join_query, []) == hidden.cost

    def test_catalog_unchanged_after_probe(self, small_catalog, whatif, join_query):
        whatif.cost_with_configuration(join_query, [Index("sales", ["s_customer"])])
        assert small_catalog.all_indexes() == []

    def test_probes_count_as_optimizer_calls(self, whatif, join_query):
        before = whatif.optimizer.call_count
        whatif.cost_with_configuration(join_query, [])
        whatif.cost_with_configuration(join_query, [Index("sales", ["s_customer"])])
        assert whatif.optimizer.call_count == before + 2

    def test_nestloop_flag_forwarded(self, small_catalog, whatif, join_query):
        index = Index("customers", ["c_id"])
        result = whatif.optimize_with_configuration(
            join_query, [index], enable_nestloop=False
        )
        assert not result.plan.uses_nested_loop

    def test_whatif_and_materialized_costs_close(self, whatif, join_query):
        """Section VI-B: what-if indexes track real index costs within ~1%."""
        indexes = [
            Index("sales", ["s_customer", "s_amount", "s_product"]),
            Index("products", ["p_category", "p_id", "p_price"]),
        ]
        hypothetical = whatif.cost_with_configuration(join_query, indexes)
        materialized = whatif.cost_with_configuration(
            join_query, [index.materialized() for index in indexes]
        )
        assert hypothetical == pytest.approx(materialized, rel=0.02)
        # The what-if estimate ignores internal pages, so it never overshoots.
        assert hypothetical <= materialized + 1e-9
