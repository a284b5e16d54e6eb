"""A CSR-born :class:`Graph` behaves exactly like the same graph built edge by edge.

:func:`erdos_renyi_gnp` returns a graph that holds only its CSR arrays and
builds its adjacency sets on first use.  Every public method must answer
as it does on a graph built with ``add_edge`` in the generator's
row-major order, before and after mutation; the reads that need no sets
must not build them.
"""

import pickle

import numpy as np
import pytest

from repro.core.edge_coloring import color_edges
from repro.errors import EdgeNotFoundError, NodeNotFoundError
from repro.graphs.adjacency import Graph
from repro.graphs.generators import erdos_renyi_gnp
from repro.verify import assert_proper_edge_coloring


def _pair(n=40, p=0.12, seed=3):
    """(CSR-born graph, the same graph built edge by edge in row-major order)."""
    born = erdos_renyi_gnp(n, p, seed=seed)
    indptr, indices = born.to_csr()
    built = Graph.from_num_nodes(n)
    rows = [
        (v, w)
        for v in range(n)
        for w in indices[indptr[v] : indptr[v + 1]].tolist()
        if w < v
    ]
    for v, w in rows:
        built.add_edge(v, w)
    return born, built


def _csr_equal(a: Graph, b: Graph) -> None:
    for x, y in zip(a.to_csr(), b.to_csr()):
        np.testing.assert_array_equal(x, y)


def _assert_same(a: Graph, b: Graph) -> None:
    n = max(list(a) + list(b) + [0]) + 2
    assert len(a) == len(b) and a.num_nodes == b.num_nodes
    assert a.num_edges == b.num_edges
    assert list(a) == list(b) and a.nodes() == b.nodes()
    assert list(a.edges()) == list(b.edges())
    assert a.edge_list() == b.edge_list()
    assert a.degrees() == b.degrees()
    np.testing.assert_array_equal(a.degree_array(), b.degree_array())
    for u in range(-1, n):
        assert (u in a) == (u in b) and a.has_node(u) == b.has_node(u)
        if u in b:
            assert list(a.neighbors(u)) == list(b.neighbors(u))
            assert a.degree(u) == b.degree(u)
            assert a.incident_edges(u) == b.incident_edges(u)
        for v in range(-1, n):
            assert a.has_edge(u, v) == b.has_edge(u, v)
    assert a == b and not (a != b)
    assert repr(a) == repr(b)


class TestReadsWithoutSets:
    def test_counts_iteration_and_csr_leave_sets_unbuilt(self):
        born, built = _pair()
        assert born._sets_unbuilt()
        assert born.num_nodes == built.num_nodes
        assert born.num_edges == built.num_edges
        assert len(born) == len(built)
        assert list(born) == list(built)
        assert born.nodes() == built.nodes()
        _csr_equal(born, built)
        assert born._sets_unbuilt()

    def test_other_reads_build_the_sets_once(self):
        born, built = _pair()
        assert born.has_edge(*next(built.edges()))
        assert not born._sets_unbuilt()
        sets = born._adj
        born.degree(0)
        assert born._adj is sets

    def test_edge_cases(self):
        for n, p in ((0, 0.5), (1, 0.5), (5, 0.0), (6, 1.0)):
            born = erdos_renyi_gnp(n, p, seed=1)
            assert born.num_nodes == n and born.nodes() == list(range(n))
            assert born.num_edges == (n * (n - 1) // 2 if p == 1.0 else 0)
            assert born._sets_unbuilt()
            assert born == Graph.from_num_nodes(n) or p == 1.0

    def test_cached_csr_keeps_insertion_order_of_a_dict_built_graph(self):
        g = Graph()
        g.add_nodes_from([2, 0, 1])
        g.add_edge(1, 2)
        g.to_csr()
        assert list(g) == g.nodes() == [2, 0, 1]
        assert len(g) == 3 and g.num_edges == 1

    def test_unknown_attribute_still_raises(self):
        born, _ = _pair()
        with pytest.raises(AttributeError, match="no_such"):
            born.no_such
        assert born._sets_unbuilt()


class TestEveryPublicMethod:
    def test_queries(self):
        _assert_same(*_pair())

    @pytest.mark.parametrize("seed", [1, 2, 5])
    def test_queries_other_graphs(self, seed):
        _assert_same(*_pair(n=25, p=0.3, seed=seed))

    def test_errors(self):
        born, built = _pair()
        for g in (born, built):
            with pytest.raises(NodeNotFoundError):
                g.neighbors(99)
            with pytest.raises(EdgeNotFoundError):
                g.remove_edge(0, 0 if not g.has_edge(0, 1) else 99)

    def test_derived_graphs(self):
        born, built = _pair()
        _assert_same(born.copy(), built.copy())
        keep = [3, 1, 4, 15, 9, 26, 5]
        _assert_same(born.subgraph(keep), built.subgraph(keep))
        (rb, mb), (rd, md) = born.relabeled(), built.relabeled()
        assert mb == md
        _assert_same(rb, rd)
        db, dd = born.to_directed(), built.to_directed()
        assert db == dd and list(db.arcs()) == list(dd.arcs())

    def test_copy_is_independent(self):
        born, built = _pair()
        c = born.copy()
        u, v = next(built.edges())
        c.remove_edge(u, v)
        assert born.has_edge(u, v)
        _assert_same(born, built)

    def test_pickle_round_trip(self):
        # A set's pickle lists its members in iteration order, so a round
        # trip may reorder set iteration for any graph; compare round trips.
        born, built = _pair()
        _assert_same(pickle.loads(pickle.dumps(born)), pickle.loads(pickle.dumps(built)))
        _assert_same(born, built)
        fresh, _ = _pair()
        fresh.to_csr()
        _csr_equal(pickle.loads(pickle.dumps(fresh)), built)

    def test_eq_across_kinds(self):
        born, built = _pair()
        other = erdos_renyi_gnp(40, 0.12, seed=4)
        assert born == built and built == born
        assert born != other
        assert born == erdos_renyi_gnp(40, 0.12, seed=3)


class TestMutationAfterBirth:
    @pytest.mark.parametrize(
        "mutate",
        [
            lambda g: g.add_edge(0, 39) if not g.has_edge(0, 39) else g.remove_edge(0, 39),
            lambda g: g.remove_edge(*next(iter(sorted(g.edges())))),
            lambda g: g.add_node(40),
            lambda g: g.add_node(7),
            lambda g: g.remove_node(5),
            lambda g: g.add_edges_from([(41, 2), (3, 41)]),
            lambda g: g.add_nodes_from([-3, 50]),
        ],
    )
    def test_same_after_mutation(self, mutate):
        born, built = _pair()
        born.to_csr()
        mutate(born)
        mutate(built)
        _assert_same(born, built)

    def test_mutation_invalidates_the_birth_csr(self):
        born, built = _pair()
        indptr, _ = born.to_csr()
        born.add_edge(0, 39) if not born.has_edge(0, 39) else born.remove_edge(0, 39)
        assert born.to_csr()[0] is not indptr
        built.add_edge(0, 39) if not built.has_edge(0, 39) else built.remove_edge(0, 39)
        _csr_equal(born, built)

    def test_remove_node_then_ids_have_a_hole(self):
        born, built = _pair()
        born.remove_node(0)
        built.remove_node(0)
        assert born.nodes() == built.nodes() == list(range(1, 40))
        assert born.num_nodes == 39


def test_color_and_verify_leave_the_sets_unbuilt():
    g = erdos_renyi_gnp(300, 0.03, seed=2)
    result = color_edges(g, seed=1)
    assert_proper_edge_coloring(g, result.colors)
    assert g._sets_unbuilt()
    built = Graph.from_num_nodes(300)
    built.add_edges_from(g.edges())
    assert color_edges(built, seed=1).colors == result.colors
