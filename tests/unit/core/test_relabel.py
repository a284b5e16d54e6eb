"""``relabel_for_engine``: the zero-copy shortcut and its guard rails."""

import numpy as np

from repro.core import dima2ed, edge_coloring
from repro.core._coerce import original_ids, relabel_for_engine
from repro.core.dima2ed import strong_color_arcs
from repro.core.edge_coloring import color_edges
from repro.graphs.adjacency import Graph
from repro.graphs.generators import erdos_renyi_avg_degree


def test_in_order_contiguous_graph_returned_unchanged():
    g = Graph.from_num_nodes(4)
    g.add_edge(0, 1)
    g.add_edge(2, 3)
    work, mapping = relabel_for_engine(g)
    assert work is g
    assert mapping == {0: 0, 1: 1, 2: 2, 3: 3}


def test_shortcut_preserves_csr_cache():
    g = Graph.from_num_nodes(3)
    g.add_edge(0, 1)
    cached = g.to_csr()
    work, _ = relabel_for_engine(g)
    assert work.to_csr()[0] is cached[0]


def test_contiguous_but_out_of_insertion_order_still_relabels():
    # Graph.relabeled() assigns ids by insertion order, so this graph's
    # node 1 becomes 0; the shortcut must not change that behavior.
    g = Graph()
    g.add_node(1)
    g.add_node(0)
    g.add_edge(0, 1)
    work, mapping = relabel_for_engine(g)
    assert work is not g
    assert mapping == {1: 0, 0: 1}
    expected, expected_mapping = g.relabeled()
    assert work == expected
    assert mapping == expected_mapping


def test_noncontiguous_ids_relabel():
    g = Graph()
    g.add_node(10)
    g.add_node(20)
    g.add_edge(10, 20)
    work, mapping = relabel_for_engine(g)
    assert sorted(work.nodes()) == [0, 1]
    assert mapping == {10: 0, 20: 1}
    assert work.has_edge(0, 1)


def test_original_ids_inverts_the_mapping():
    g = Graph()
    for u in (40, 7, 12, 3):
        g.add_node(u)
    g.add_edge(40, 3)
    work, mapping = relabel_for_engine(g)
    assert work is not g
    engine = np.array([3, 0, 2, 1, 0])
    (translated,) = original_ids(mapping, engine)
    inverse = {new: old for old, new in mapping.items()}
    assert translated.tolist() == [inverse[i] for i in engine.tolist()]


def test_identity_relabel_translates_no_ids(monkeypatch):
    g = erdos_renyi_avg_degree(200, 6.0, seed=4)
    d = g.to_directed()
    expected = (color_edges(g, seed=2).colors, strong_color_arcs(d, seed=2).colors)

    def fail(*args):
        raise AssertionError("identity relabel translated ids")

    monkeypatch.setattr(edge_coloring, "original_ids", fail)
    monkeypatch.setattr(dima2ed, "original_ids", fail)
    assert color_edges(g, seed=2).colors == expected[0]
    assert strong_color_arcs(d, seed=2).colors == expected[1]


def test_relabeled_graph_translates_ids_back():
    g = Graph()
    g.add_nodes_from([30, 10, 20, 5])
    g.add_edges_from([(30, 10), (10, 20), (20, 5), (5, 30), (30, 20)])
    colors = color_edges(g, seed=1).colors
    assert set(colors) == set(g.edges())
    arcs = strong_color_arcs(g.to_directed(), seed=1).colors
    assert set(arcs) == set(g.to_directed().arcs())
