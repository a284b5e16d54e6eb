"""Input coercion for the public algorithm entry points.

Downstream users frequently hold networkx graphs; the wrappers accept
them directly by converting through :mod:`repro.graphs.convert` (which
validates integer labels).  The coercion is duck-typed on the networkx
API surface so networkx stays an optional dependency.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graphs.adjacency import DiGraph, Graph
from repro.types import NodeId

__all__ = ["coerce_graph", "coerce_digraph", "relabel_for_engine", "original_ids"]


def _looks_like_networkx(obj: Any) -> bool:
    return hasattr(obj, "is_directed") and hasattr(obj, "edges") and hasattr(obj, "nodes")


def coerce_graph(obj: Any) -> Graph:
    """Return ``obj`` as a :class:`Graph`, converting networkx input."""
    if isinstance(obj, Graph):
        return obj
    if isinstance(obj, DiGraph):
        raise GraphError(
            "expected an undirected graph; call .to_undirected() first or "
            "use the strong-coloring entry point for digraphs"
        )
    if _looks_like_networkx(obj):
        from repro.graphs.convert import from_networkx

        converted = from_networkx(obj)
        if isinstance(converted, Graph):
            return converted
        raise GraphError("expected an undirected graph, got a directed one")
    raise GraphError(f"cannot interpret {type(obj).__name__!r} as a graph")


def coerce_digraph(obj: Any) -> DiGraph:
    """Return ``obj`` as a :class:`DiGraph`, converting networkx input."""
    if isinstance(obj, DiGraph):
        return obj
    if isinstance(obj, Graph):
        raise GraphError(
            "expected a digraph; build one with Graph.to_directed() to get "
            "the symmetric closure"
        )
    if _looks_like_networkx(obj):
        from repro.graphs.convert import from_networkx

        converted = from_networkx(obj)
        if isinstance(converted, DiGraph):
            return converted
        raise GraphError("expected a directed graph, got an undirected one")
    raise GraphError(f"cannot interpret {type(obj).__name__!r} as a digraph")


def relabel_for_engine(graph: Graph) -> Tuple[Graph, Dict[NodeId, NodeId]]:
    """Return ``(work, mapping)`` with contiguous node ids ``0 .. n-1``.

    Like :meth:`Graph.relabeled`, but when the graph is *already*
    labeled ``0 .. n-1`` **in insertion order** the graph itself is
    returned with an identity mapping — no O(n + m) copy, and the
    instance's cached CSR (if any) survives into the engine run.

    The insertion-order requirement matters: :meth:`Graph.relabeled`
    assigns new ids by insertion order, so a graph whose ids are
    contiguous but inserted out of order (e.g. read from a shuffled edge
    list) must still go through ``relabeled()`` to keep the node→RNG
    assignment — and therefore the run — identical to what callers of
    ``relabeled()`` always got.
    """
    for i, u in enumerate(graph):
        if u != i:
            return graph.relabeled()
    return graph, {u: u for u in range(graph.num_nodes)}


def original_ids(
    mapping: Dict[NodeId, NodeId], *engine_ids: np.ndarray
) -> Tuple[np.ndarray, ...]:
    """Translate arrays of engine ids back to the graph's own node ids."""
    n = len(mapping)
    table = np.empty(n, dtype=np.int64)
    new = np.fromiter(mapping.values(), dtype=np.int64, count=n)
    table[new] = np.fromiter(mapping, dtype=np.int64, count=n)
    return tuple(table[ids] for ids in engine_ids)
