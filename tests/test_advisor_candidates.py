"""Tests for candidate index generation."""

from repro.advisor import CandidateGenerator


class TestPerQueryCandidates:
    def test_single_column_candidates_for_all_referenced_columns(self, small_catalog, join_query):
        candidates = CandidateGenerator(small_catalog).for_query(join_query)
        single = {(c.table, c.columns) for c in candidates if len(c.columns) == 1}
        for table in join_query.tables:
            for column in join_query.columns_of(table):
                assert (table, (column,)) in single

    def test_covering_candidates_exist_per_interesting_order(self, small_catalog, join_query):
        candidates = CandidateGenerator(small_catalog).for_query(join_query)
        sales_covering = [
            c for c in candidates
            if c.table == "sales" and set(join_query.columns_of("sales")) <= set(c.columns)
        ]
        assert sales_covering

    def test_candidates_are_hypothetical_and_valid(self, small_catalog, join_query):
        candidates = CandidateGenerator(small_catalog).for_query(join_query)
        for candidate in candidates:
            assert candidate.hypothetical
            candidate.validate_against(small_catalog.table(candidate.table))

    def test_no_duplicates(self, small_catalog, join_query):
        candidates = CandidateGenerator(small_catalog).for_query(join_query)
        assert len({c.key for c in candidates}) == len(candidates)

    def test_max_index_columns_respected(self, small_catalog, join_query):
        candidates = CandidateGenerator(small_catalog, max_index_columns=2).for_query(join_query)
        assert all(len(c.columns) <= 2 for c in candidates)


class TestWorkloadCandidates:
    def test_workload_union_deduplicated(self, small_catalog, join_query, simple_query):
        generator = CandidateGenerator(small_catalog)
        combined = generator.for_workload([join_query, simple_query])
        assert len({c.key for c in combined}) == len(combined)
        only_join = generator.for_query(join_query)
        assert len(combined) >= len(only_join)

    def test_star_workload_candidate_scale(self, star_workload):
        """The paper reports ~1093 candidates for the ten-query workload."""
        generator = CandidateGenerator(star_workload.catalog())
        candidates = generator.for_workload(star_workload.queries())
        assert 100 <= len(candidates) <= 3000
