"""Unit tests for the strong-arc-coloring verifier."""

import pytest

from repro.errors import VerificationError
from repro.graphs.generators import complete_graph, path_graph
from repro.verify import assert_strong_arc_coloring, check_strong_arc_coloring


def p4d():
    return path_graph(4).to_directed()


class TestConflictDetection:
    def test_valid_assignment_passes(self):
        d = path_graph(2).to_directed()
        assert check_strong_arc_coloring(d, {(0, 1): 0, (1, 0): 1}) == []

    def test_reverse_arc_same_channel_flagged(self):
        d = path_graph(2).to_directed()
        violations = check_strong_arc_coloring(d, {(0, 1): 0, (1, 0): 0})
        assert len(violations) == 1

    def test_shared_endpoint_flagged(self):
        d = p4d()
        colors = {a: i for i, a in enumerate(d.arc_list())}
        colors[(0, 1)] = colors[(1, 2)] = 42
        violations = check_strong_arc_coloring(d, colors, complete=False)
        assert any("(0, 1)" in v and "(1, 2)" in v for v in violations)

    def test_one_hop_interference_flagged(self):
        d = p4d()
        colors = {a: i for i, a in enumerate(d.arc_list())}
        colors[(0, 1)] = colors[(2, 3)] = 42  # 2 ∈ N(1): conflict
        assert check_strong_arc_coloring(d, colors, complete=False)

    def test_far_arcs_same_channel_ok(self):
        d = path_graph(6).to_directed()
        colors = {a: i for i, a in enumerate(d.arc_list())}
        colors[(0, 1)] = colors[(4, 5)] = 42  # distance > 2: fine
        assert check_strong_arc_coloring(d, colors, complete=False) == []

    def test_each_conflict_reported_once(self):
        d = path_graph(2).to_directed()
        violations = check_strong_arc_coloring(d, {(0, 1): 3, (1, 0): 3})
        assert len(violations) == 1  # not once per direction


class TestStructuralChecks:
    def test_unknown_arc_flagged(self):
        d = p4d()
        violations = check_strong_arc_coloring(d, {(0, 3): 0}, complete=False)
        assert any("not in the digraph" in v for v in violations)

    def test_invalid_channel_flagged(self):
        d = path_graph(2).to_directed()
        violations = check_strong_arc_coloring(d, {(0, 1): -2}, complete=False)
        assert any("invalid channel" in v for v in violations)

    def test_completeness(self):
        d = path_graph(2).to_directed()
        violations = check_strong_arc_coloring(d, {(0, 1): 0})
        assert any("uncolored" in v for v in violations)

    def test_partial_mode(self):
        d = p4d()
        assert check_strong_arc_coloring(d, {(0, 1): 0}, complete=False) == []


class TestAssertWrapper:
    def test_raises(self):
        d = path_graph(2).to_directed()
        with pytest.raises(VerificationError):
            assert_strong_arc_coloring(d, {(0, 1): 0, (1, 0): 0})

    def test_passes_on_valid(self):
        d = complete_graph(3).to_directed()
        colors = {a: i for i, a in enumerate(d.arc_list())}
        assert_strong_arc_coloring(d, colors)


class TestMalformedKeys:
    """Corrupt keys are reported as violations, never raised."""

    @pytest.mark.parametrize("key", [(0,), (0, 1, 2), 7])
    def test_reported_not_raised(self, key):
        d = path_graph(2).to_directed()
        violations = check_strong_arc_coloring(d, {key: 0, (0, 1): 1}, complete=False)
        assert violations == [f"arc key {key!r} is malformed"]

    def test_malformed_key_skipped_by_conflict_search(self):
        d = path_graph(2).to_directed()
        violations = check_strong_arc_coloring(d, {(0,): 3, (0, 1): 3, (1, 0): 3})
        assert violations == [
            "arc key (0,) is malformed",
            "arcs (0, 1) and (1, 0) both use channel 3 but conflict",
        ]

    def test_assert_raises_verification_error(self):
        d = path_graph(2).to_directed()
        with pytest.raises(VerificationError, match=r"arc key \(0,\) is malformed"):
            assert_strong_arc_coloring(d, {(0,): 0, (0, 1): 0, (1, 0): 1})
