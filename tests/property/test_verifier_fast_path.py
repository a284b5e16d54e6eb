"""The array verdicts against the per-item reference verifiers.

``repro.verify.array_verdict`` accepts valid colorings; the per-item
code in ``repro.verify.edge_coloring`` / ``strong_coloring`` explains
everything else.  Here the reference is called directly, as the oracle:

* on *decidable* input (every key a pair of exact ``int``, every color
  an exact ``int``) the verdict must equal "the reference found nothing";
* on undecidable input the verdict is ``None`` (or ``False`` when an
  array check that needs no color already failed) — never ``True``;
* the public ``check_*`` functions return the reference's violation list
  exactly, order included.
"""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dima2ed import strong_color_arcs
from repro.core.edge_coloring import color_edges
from repro.graphs.adjacency import DiGraph, Graph
from repro.serve import fuzzing
from repro.serve.session import ColoringSession, Mutation
from repro.verify import (
    check_edge_coloring_complete,
    check_partial_edge_coloring,
    check_partial_strong_coloring,
    check_proper_edge_coloring,
    check_strong_arc_coloring,
    surviving_subgraph,
)
from repro.verify import array_verdict
from repro.verify.array_verdict import edge_verdict, strong_verdict
from repro.verify.edge_coloring import _missing_edges, _proper_violations
from repro.verify.strong_coloring import _strong_violations

from .strategies import graphs, nonempty_graphs

RELAXED = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

SEEDS = st.integers(min_value=0, max_value=2**31)


def _int64(x):
    return type(x) is int and -(2**63) <= x < 2**63


def keys_decidable(colors):
    return all(
        type(key) is tuple and len(key) == 2 and all(map(_int64, key))
        for key in colors
    )


def decidable(colors):
    """Keys and colors the arrays represent exactly.  Colors are kept
    below 2**31 so that no encoding overflows on the test graphs."""
    return keys_decidable(colors) and all(
        type(c) is int and abs(c) < 2**31 for c in colors.values()
    )


def assert_agrees(verdict, reference, exact):
    if exact:
        assert verdict is (not reference), reference
    else:
        assert verdict is None or (verdict is False and reference), reference


def assert_edge_agrees(graph, colors):
    """Every verdict and public check of the edge verifier vs the reference."""
    proper = _proper_violations(graph, colors)
    missing = _missing_edges(graph, colors)
    exact = decidable(colors)
    assert_agrees(edge_verdict(graph, colors), proper, exact)
    assert_agrees(edge_verdict(graph, colors, complete=True), proper + missing, exact)
    # Completeness alone never looks at the colors.
    assert_agrees(
        edge_verdict(graph, colors, proper=False, complete=True),
        missing,
        keys_decidable(colors),
    )
    assert check_proper_edge_coloring(graph, colors) == proper
    assert check_edge_coloring_complete(graph, colors) == missing


def assert_strong_agrees(digraph, colors):
    """Both modes of the strong verifier vs the reference."""
    for complete in (False, True):
        reference = _strong_violations(digraph, colors, complete=complete)
        verdict = strong_verdict(digraph, colors, complete=complete)
        assert_agrees(verdict, reference, decidable(colors))
        assert check_strong_arc_coloring(digraph, colors, complete=complete) == reference


def with_csr(graph):
    """The same graph twice: as given, and with its CSR cached."""
    cached = graph.copy()
    cached.to_csr()
    return [graph, cached]


@st.composite
def digraphs(draw, max_nodes=7):
    """A random, generally non-symmetric digraph (some nodes isolated)."""
    n = draw(st.integers(min_value=0, max_value=max_nodes))
    d = DiGraph.from_num_nodes(n)
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    if pairs:
        d.add_arcs_from(draw(st.lists(st.sampled_from(pairs), unique=True)))
    return d


def relabel(graph, f):
    """``graph`` with node ``u`` renamed ``f(u)`` (f injective)."""
    g = Graph()
    g.add_nodes_from(f(u) for u in graph.nodes())
    g.add_edges_from((f(u), f(v)) for u, v in graph.edges())
    return g


# -- mutations of a valid coloring -----------------------------------------


def _recolor(colors, rng, graph):
    """Give one key the color of a key sharing an endpoint, if any."""
    keys = sorted(colors)
    victim = rng.choice(keys)
    donors = [k for k in keys if k != victim and set(k) & set(victim)]
    if donors:
        colors[victim] = colors[rng.choice(donors)]


def _drop(colors, rng, graph):
    del colors[rng.choice(sorted(colors))]


def _foreign(colors, rng, graph):
    nodes = sorted(graph.nodes())
    outside = max(nodes) + 1
    colors[(nodes[0], outside)] = 0


def _foreign_between_nodes(colors, rng, graph):
    nodes = sorted(graph.nodes())
    for u in nodes:
        for v in nodes:
            if u < v and not graph.has_edge(u, v):
                colors[(u, v)] = rng.randrange(3)
                return


def _noncanonical(colors, rng, graph):
    u, v = rng.choice(sorted(colors))
    colors[(v, u)] = colors.pop((u, v))


def _negative(colors, rng, graph):
    colors[rng.choice(sorted(colors))] = -1


def _typed(kind):
    def mutate(colors, rng, graph):
        key = rng.choice(sorted(colors))
        colors[key] = kind(colors[key] % 2)

    mutate.__name__ = f"_{kind.__name__}_color"
    return mutate


def _int64_key(colors, rng, graph):
    u, v = rng.choice(sorted(colors))
    colors[(np.int64(u), np.int64(v))] = colors.pop((u, v))


def _huge_color(colors, rng, graph):
    colors[rng.choice(sorted(colors))] = 2**63


EDGE_MUTATIONS = [
    _recolor,
    _drop,
    _foreign,
    _foreign_between_nodes,
    _noncanonical,
    _negative,
    _typed(bool),
    _typed(float),
    _typed(np.int64),
    _int64_key,
    _huge_color,
]


def _arc_noncanonical(colors, rng, digraph):
    # For arcs "non-canonical" is the reverse arc, foreign when absent.
    u, v = rng.choice(sorted(colors))
    if (v, u) not in colors:
        colors[(v, u)] = colors.pop((u, v))


ARC_MUTATIONS = [m for m in EDGE_MUTATIONS if m is not _noncanonical] + [
    _arc_noncanonical
]


# -- algorithm outputs --------------------------------------------------------


class TestAlgorithmOutputs:
    @RELAXED
    @given(graphs(max_nodes=10), SEEDS)
    def test_alg1_output(self, graph, seed):
        colors = color_edges(graph, seed=seed).colors
        for g in with_csr(graph):
            assert edge_verdict(g, colors, complete=True) is True
            assert_edge_agrees(g, colors)

    @RELAXED
    @given(graphs(max_nodes=8), SEEDS)
    def test_dima2ed_output(self, graph, seed):
        digraph = graph.to_directed()
        colors = strong_color_arcs(digraph, seed=seed).colors
        cached = digraph.copy()
        cached.to_csr()
        for d in (digraph, cached):
            assert strong_verdict(d, colors) is True
            assert_strong_agrees(d, colors)


# -- mutated colorings ------------------------------------------------------


class TestMutatedColorings:
    @RELAXED
    @given(nonempty_graphs(max_nodes=10), SEEDS, st.sampled_from(EDGE_MUTATIONS))
    def test_edge_mutations(self, graph, seed, mutate):
        rng = random.Random(seed)
        colors = dict(color_edges(graph, seed=seed).colors)
        mutate(colors, rng, graph)
        for g in with_csr(graph):
            assert_edge_agrees(g, colors)

    @RELAXED
    @given(nonempty_graphs(max_nodes=8), SEEDS, st.sampled_from(ARC_MUTATIONS))
    def test_arc_mutations(self, graph, seed, mutate):
        rng = random.Random(seed)
        digraph = graph.to_directed()
        colors = dict(strong_color_arcs(digraph, seed=seed).colors)
        mutate(colors, rng, digraph.to_undirected())
        assert_strong_agrees(digraph, colors)

    @RELAXED
    @given(graphs(max_nodes=9), SEEDS, st.integers(min_value=1, max_value=6))
    def test_random_edge_colorings(self, graph, seed, palette):
        rng = random.Random(seed)
        colors = {e: rng.randrange(palette) for e in graph.edges() if rng.random() < 0.9}
        for g in with_csr(graph):
            assert_edge_agrees(g, colors)

    @RELAXED
    @given(digraphs(), SEEDS, st.integers(min_value=1, max_value=12))
    def test_random_arc_colorings_on_general_digraphs(self, digraph, seed, palette):
        # Non-symmetric digraphs: underlying neighbours come from both
        # successor and predecessor sets.
        rng = random.Random(seed)
        colors = {a: rng.randrange(palette) for a in digraph.arcs() if rng.random() < 0.9}
        assert_strong_agrees(digraph, colors)


# -- node ids that are not 0..n-1 --------------------------------------------


class TestNonContiguousIds:
    @RELAXED
    @given(nonempty_graphs(max_nodes=10), SEEDS)
    def test_surviving_subgraph(self, graph, seed):
        rng = random.Random(seed)
        crashed = rng.sample(graph.nodes(), k=rng.randrange(graph.num_nodes // 2 + 1))
        colors = dict(color_edges(graph, seed=seed).colors)
        alive = surviving_subgraph(graph, crashed)
        surviving = {e: c for e, c in colors.items() if not set(e) & set(crashed)}
        assert_edge_agrees(alive, surviving)
        assert check_partial_edge_coloring(graph, colors, crashed) == []
        if surviving:
            _recolor(surviving, rng, alive)
            assert_edge_agrees(alive, surviving)

    @RELAXED
    @given(nonempty_graphs(max_nodes=8), SEEDS)
    def test_surviving_sub_digraph(self, graph, seed):
        rng = random.Random(seed)
        digraph = graph.to_directed()
        crashed = rng.sample(graph.nodes(), k=rng.randrange(graph.num_nodes // 2 + 1))
        colors = strong_color_arcs(digraph, seed=seed).colors
        assert check_partial_strong_coloring(digraph, colors, crashed) == []
        alive = surviving_subgraph(graph, crashed).to_directed()
        surviving = {a: c for a, c in colors.items() if not set(a) & set(crashed)}
        assert_strong_agrees(alive, surviving)

    @pytest.mark.parametrize("algorithm", ["alg1", "dima2ed"])
    def test_session_after_remove_vertex(self, algorithm):
        session = ColoringSession("ids", algorithm=algorithm, seed=3, verify=True)
        base = Graph([(u, (u * 7 + 3) % 30) for u in range(30) if u != (u * 7 + 3) % 30])
        session.load_edges(base.edge_list(), 30)
        session.apply([Mutation("remove_vertex", 0), Mutation("remove_vertex", 17)])
        graph, colors = session.graph, dict(session.colors)
        assert sorted(graph.nodes()) != list(range(graph.num_nodes))
        rng = random.Random(5)
        if algorithm == "alg1":
            assert edge_verdict(graph, colors, complete=True) is True
            assert_edge_agrees(graph, colors)
            _recolor(colors, rng, graph)
            assert_edge_agrees(graph, colors)
        else:
            digraph = graph.to_directed()
            assert strong_verdict(digraph, colors) is True
            assert_strong_agrees(digraph, colors)
            _recolor(colors, rng, graph)
            assert_strong_agrees(digraph, colors)

    @RELAXED
    @given(
        graphs(max_nodes=9),
        SEEDS,
        st.sampled_from([lambda u: -3 * u - 1, lambda u: u * 10**12 + 7]),
    )
    def test_negative_and_sparse_ids(self, graph, seed, rename):
        # ``rename`` reverses or stretches the id order; colorings are
        # re-keyed canonically so only the ids change.
        g = relabel(graph, rename)
        colors = {}
        for (u, v), c in color_edges(graph, seed=seed).colors.items():
            a, b = rename(u), rename(v)
            colors[(min(a, b), max(a, b))] = c
        assert edge_verdict(g, colors, complete=True) is True
        assert_edge_agrees(g, colors)
        if colors:
            _recolor(colors, random.Random(seed), g)
            _foreign(colors, random.Random(seed), g)
            assert_edge_agrees(g, colors)


# -- edge cases ---------------------------------------------------------------


class TestEdgeCases:
    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_empty_graph_and_coloring(self, n):
        g = Graph.from_num_nodes(n)
        assert edge_verdict(g, {}, complete=True) is True
        assert strong_verdict(g.to_directed(), {}) is True
        assert_edge_agrees(g, {})
        assert_strong_agrees(g.to_directed(), {})

    def test_empty_coloring_of_nonempty_graph(self):
        g = Graph([(0, 1), (2, 3)])
        assert edge_verdict(g, {}) is True
        assert edge_verdict(g, {}, complete=True) is False
        assert_edge_agrees(g, {})
        assert strong_verdict(g.to_directed(), {}, complete=False) is True
        assert strong_verdict(g.to_directed(), {}) is False
        assert_strong_agrees(g.to_directed(), {})

    def test_coloring_of_empty_graph(self):
        g = Graph.from_num_nodes(3)
        assert edge_verdict(g, {(0, 1): 0}) is False
        assert_edge_agrees(g, {(0, 1): 0})
        assert_edge_agrees(Graph(), {(0, 1): 0})
        assert_strong_agrees(DiGraph(), {(0, 1): 0})

    def test_isolated_vertices(self):
        g = Graph.from_num_nodes(8)
        g.add_edges_from([(1, 2), (2, 5), (6, 7)])
        colors = {(1, 2): 0, (2, 5): 1, (6, 7): 0}
        assert edge_verdict(g, colors, complete=True) is True
        assert_edge_agrees(g, colors)
        arcs = {(1, 2): 0, (2, 1): 1, (2, 5): 2, (5, 2): 3, (6, 7): 0, (7, 6): 1}
        assert strong_verdict(g.to_directed(), arcs) is True
        assert_strong_agrees(g.to_directed(), arcs)

    def test_node_ids_beyond_int64_undecidable(self):
        big = 2**70
        g = Graph([(0, big), (big, big + 1)])
        colors = {(0, big): 0, (big, big + 1): 0}
        assert edge_verdict(g, colors) is None
        assert_edge_agrees(g, colors)
        assert strong_verdict(g.to_directed(), {}) is None
        assert_strong_agrees(g.to_directed(), {(0, big): 0, (big, 0): 1})

    @pytest.mark.parametrize("key", [(5,), ("a", 1), (0, 1, 2), 7, (0.0, 1)])
    def test_malformed_keys_undecidable(self, key):
        g = Graph([(0, 1), (1, 2)])
        colors = {key: 0, (1, 2): 1}
        assert edge_verdict(g, colors) is None
        assert_edge_agrees(g, colors)
        assert strong_verdict(g.to_directed(), colors, complete=False) is None
        assert_strong_agrees(g.to_directed(), colors)


# -- the strong check's block walk --------------------------------------------


class TestStrongBlockSize:
    @RELAXED
    @given(digraphs(max_nodes=6), SEEDS, st.sampled_from([1, 2, 5]))
    def test_tiny_blocks(self, digraph, seed, block):
        rng = random.Random(seed)
        colors = {a: rng.randrange(8) for a in digraph.arcs()}
        with mock.patch.object(array_verdict, "_STRONG_BLOCK", block):
            assert_strong_agrees(digraph, colors)

    @RELAXED
    @given(graphs(max_nodes=8), SEEDS)
    def test_block_of_one_on_algorithm_output(self, graph, seed):
        digraph = graph.to_directed()
        colors = dict(strong_color_arcs(digraph, seed=seed).colors)
        with mock.patch.object(array_verdict, "_STRONG_BLOCK", 1):
            assert_strong_agrees(digraph, colors)
            if colors:
                _recolor(colors, random.Random(seed), graph)
                assert_strong_agrees(digraph, colors)


# -- the serve fuzz tier's cross-check ---------------------------------------


class TestServeFuzzCrossCheck:
    def test_agreement_on_served_colorings(self):
        result = fuzzing.fuzz_serve(max_iterations=4, seed=7, scratch_check=False)
        assert result.batches > 0
        assert result.violations == []

    @pytest.mark.parametrize(
        "name, algorithm", [("edge_verdict", "alg1"), ("strong_verdict", "dima2ed")]
    )
    def test_disagreement_is_a_violation(self, name, algorithm):
        # A verdict that rejects every coloring contradicts the reference
        # on every valid served coloring.
        with mock.patch.object(fuzzing, name, lambda *args, **kwargs: False):
            result = fuzzing.fuzz_serve(
                max_iterations=2, seed=7, algorithms=(algorithm,), scratch_check=False
            )
        assert result.violations
        assert all("disagrees with the reference" in v for v in result.violations)
