"""The per-instance ``to_csr`` cache and its mutation invalidation.

Both graph classes memoize the CSR build (the engines and the batched
core all start from it); every mutator must drop the cache or a stale
topology would silently feed the next run.
"""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graphs.adjacency import DiGraph, Graph


def _path_graph(n: int) -> Graph:
    g = Graph.from_num_nodes(n)
    for u in range(n - 1):
        g.add_edge(u, u + 1)
    return g


class TestGraphCsrCache:
    def test_second_call_returns_cached_arrays(self):
        g = _path_graph(4)
        first = g.to_csr()
        second = g.to_csr()
        assert first[0] is second[0] and first[1] is second[1]

    def test_add_edge_invalidates(self):
        g = _path_graph(4)
        indptr, indices = g.to_csr()
        g.add_edge(0, 3)
        indptr2, indices2 = g.to_csr()
        assert indptr2 is not indptr
        assert 3 in indices2[indptr2[0] : indptr2[1]].tolist()

    def test_remove_edge_invalidates(self):
        g = _path_graph(4)
        g.to_csr()
        g.remove_edge(1, 2)
        indptr, indices = g.to_csr()
        assert indices[indptr[1] : indptr[2]].tolist() == [0]

    def test_add_node_invalidates(self):
        g = _path_graph(3)
        indptr, _ = g.to_csr()
        assert len(indptr) == 4
        g.add_node(3)
        indptr2, _ = g.to_csr()
        assert len(indptr2) == 5

    def test_remove_node_invalidates(self):
        g = _path_graph(4)
        g.to_csr()
        g.remove_node(3)
        indptr, indices = g.to_csr()
        assert len(indptr) == 4
        assert 3 not in indices.tolist()

    def test_copy_starts_with_cold_cache(self):
        g = _path_graph(4)
        cached = g.to_csr()
        h = g.copy()
        hp, hi = h.to_csr()
        assert hp is not cached[0]
        np.testing.assert_array_equal(hp, cached[0])
        np.testing.assert_array_equal(hi, cached[1])

    def test_mutating_copy_leaves_original_cache_valid(self):
        g = _path_graph(4)
        before = g.to_csr()
        h = g.copy()
        h.add_edge(0, 2)
        assert g.to_csr()[0] is before[0]


class TestDiGraphCsrCache:
    def _cycle(self, n: int) -> DiGraph:
        d = DiGraph()
        d.add_nodes_from(range(n))
        for u in range(n):
            d.add_arc(u, (u + 1) % n)
        return d

    def test_second_call_returns_cached_arrays(self):
        d = self._cycle(4)
        first = d.to_csr()
        second = d.to_csr()
        assert first[0] is second[0] and first[1] is second[1]

    def test_rows_are_sorted_out_adjacency(self):
        d = DiGraph()
        d.add_nodes_from(range(3))
        d.add_arc(0, 2)
        d.add_arc(0, 1)
        d.add_arc(2, 0)
        indptr, indices = d.to_csr()
        assert indices[indptr[0] : indptr[1]].tolist() == [1, 2]
        assert indices[indptr[1] : indptr[2]].tolist() == []
        assert indices[indptr[2] : indptr[3]].tolist() == [0]

    def test_add_arc_invalidates(self):
        d = self._cycle(4)
        d.to_csr()
        d.add_arc(0, 2)
        indptr, indices = d.to_csr()
        assert indices[indptr[0] : indptr[1]].tolist() == [1, 2]

    def test_remove_arc_invalidates(self):
        d = self._cycle(4)
        d.to_csr()
        d.remove_arc(0, 1)
        indptr, indices = d.to_csr()
        assert indices[indptr[0] : indptr[1]].tolist() == []

    def test_add_node_invalidates(self):
        d = self._cycle(3)
        indptr, _ = d.to_csr()
        assert len(indptr) == 4
        d.add_node(3)
        indptr2, _ = d.to_csr()
        assert len(indptr2) == 5

    def test_noncontiguous_ids_raise(self):
        d = DiGraph()
        d.add_node(0)
        d.add_node(2)
        with pytest.raises(GraphError):
            d.to_csr()

    def test_copy_independent(self):
        d = self._cycle(4)
        before = d.to_csr()
        e = d.copy()
        e.add_arc(0, 2)
        assert d.to_csr()[0] is before[0]
        assert e.to_csr()[1].tolist() != before[1].tolist()


def _per_row_csr(adj):
    """The per-row ``sorted()`` build ``to_csr`` used before it was vectorized."""
    n = len(adj)
    indptr = np.zeros(n + 1, dtype=np.int64)
    for u, nbrs in adj.items():
        indptr[u + 1] = len(nbrs)
    np.cumsum(indptr, out=indptr)
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    for u in range(n):
        indices[indptr[u] : indptr[u + 1]] = sorted(adj[u])
    return indptr, indices


def _shuffled_graph(n: int, m: int, seed: int) -> Graph:
    """A graph whose nodes and neighbors were inserted in random order."""
    rng = np.random.default_rng(seed)
    g = Graph()
    g.add_nodes_from(rng.permutation(n).tolist())
    for u, v in rng.integers(0, n, size=(m, 2)).tolist():
        if u != v:
            g.add_edge(u, v)
    return g


class TestVectorizedCsrMatchesPerRowBuild:
    @pytest.mark.parametrize("n,m,seed", [(0, 0, 0), (1, 0, 0), (5, 0, 1), (30, 60, 2), (500, 3000, 3)])
    def test_graph(self, n, m, seed):
        g = _shuffled_graph(n, m, seed)
        for got, want in zip(g.to_csr(), _per_row_csr(g._adj)):
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n,m,seed", [(0, 0, 0), (4, 0, 1), (30, 60, 2), (400, 2500, 3)])
    def test_digraph(self, n, m, seed):
        rng = np.random.default_rng(seed)
        d = DiGraph()
        d.add_nodes_from(rng.permutation(n).tolist())
        for u, v in rng.integers(0, n, size=(m, 2)).tolist():
            if u != v:
                d.add_arc(u, v)
        for got, want in zip(d.to_csr(), _per_row_csr(d._succ)):
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)

    def test_noncontiguous_graph_still_raises(self):
        g = _shuffled_graph(10, 20, 4)
        g.remove_node(3)
        with pytest.raises(GraphError, match="contiguous"):
            g.to_csr()
