"""Unit tests for the proper-edge-coloring verifier."""

import pytest

from repro.errors import VerificationError
from repro.graphs.generators import cycle_graph, path_graph, star_graph
from repro.verify import (
    assert_proper_edge_coloring,
    check_edge_coloring_complete,
    check_proper_edge_coloring,
)


class TestProperness:
    def test_valid_coloring_passes(self):
        g = path_graph(3)
        assert check_proper_edge_coloring(g, {(0, 1): 0, (1, 2): 1}) == []

    def test_adjacent_same_color_flagged(self):
        g = path_graph(3)
        violations = check_proper_edge_coloring(g, {(0, 1): 0, (1, 2): 0})
        assert len(violations) == 1
        assert "vertex 1" in violations[0]

    def test_star_conflicts_counted_per_pair(self):
        g = star_graph(3)
        coloring = {(0, 1): 5, (0, 2): 5, (0, 3): 5}
        violations = check_proper_edge_coloring(g, coloring)
        assert len(violations) == 2  # each new duplicate flagged once

    def test_unknown_edge_flagged(self):
        g = path_graph(2)
        violations = check_proper_edge_coloring(g, {(0, 5): 0})
        assert any("not in the graph" in v for v in violations)

    def test_noncanonical_key_flagged(self):
        g = path_graph(2)
        violations = check_proper_edge_coloring(g, {(1, 0): 0})
        assert any("canonical" in v for v in violations)

    @pytest.mark.parametrize("bad", [-1, 1.5, "red", True, None])
    def test_invalid_color_values(self, bad):
        g = path_graph(2)
        violations = check_proper_edge_coloring(g, {(0, 1): bad})
        assert any("invalid color" in v for v in violations)

    def test_partial_coloring_allowed(self):
        g = cycle_graph(5)
        assert check_proper_edge_coloring(g, {(0, 1): 0}) == []


class TestCompleteness:
    def test_missing_edges_listed(self):
        g = path_graph(3)
        missing = check_edge_coloring_complete(g, {(0, 1): 0})
        assert missing == ["edge (1, 2) is uncolored"]

    def test_complete_passes(self):
        g = path_graph(3)
        assert check_edge_coloring_complete(g, {(0, 1): 0, (1, 2): 1}) == []


class TestAssertWrapper:
    def test_raises_on_violation(self):
        g = path_graph(3)
        with pytest.raises(VerificationError):
            assert_proper_edge_coloring(g, {(0, 1): 0, (1, 2): 0})

    def test_raises_on_incomplete(self):
        g = path_graph(3)
        with pytest.raises(VerificationError):
            assert_proper_edge_coloring(g, {(0, 1): 0})

    def test_partial_ok_when_not_complete(self):
        g = path_graph(3)
        assert_proper_edge_coloring(g, {(0, 1): 0}, complete=False)

    def test_message_truncated(self):
        g = star_graph(30)
        coloring = {e: 0 for e in g.edges()}
        with pytest.raises(VerificationError) as exc:
            assert_proper_edge_coloring(g, coloring)
        assert "violations" in str(exc.value)


class TestMalformedKeys:
    """Corrupt keys are reported as violations, never raised."""

    @pytest.mark.parametrize("key", [(5,), ("a", 1), (0, 1, 2), 7])
    def test_reported_not_raised(self, key):
        g = path_graph(3)
        violations = check_proper_edge_coloring(g, {key: 0, (0, 1): 1})
        assert violations == [f"edge key {key!r} is malformed"]

    def test_malformed_key_skipped_by_conflict_grouping(self):
        g = path_graph(3)
        coloring = {(1,): 0, (0, 1): 0, (1, 2): 0}
        violations = check_proper_edge_coloring(g, coloring)
        assert violations == [
            "edge key (1,) is malformed",
            "vertex 1: edges (0, 1) and (1, 2) both colored 0",
        ]

    def test_assert_raises_verification_error(self):
        g = path_graph(3)
        with pytest.raises(VerificationError, match=r"edge key \(5,\) is malformed"):
            assert_proper_edge_coloring(g, {(5,): 0, (0, 1): 0, (1, 2): 1})

    def test_completeness_unaffected_by_malformed_key(self):
        g = path_graph(3)
        assert check_edge_coloring_complete(g, {(5,): 0, (0, 1): 0}) == [
            "edge (1, 2) is uncolored"
        ]
