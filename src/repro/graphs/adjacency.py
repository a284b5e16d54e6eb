"""Adjacency-set graph types.

Two simple-graph classes are provided:

* :class:`Graph` — undirected, no self-loops, no parallel edges.
* :class:`DiGraph` — directed, no self-loops, no parallel arcs.

Design notes
------------
Nodes are integers.  Adjacency is a ``dict[int, set[int]]``; this gives
O(1) membership tests and O(deg) neighbor iteration, which are the two
operations the simulator performs in its hot loop.  Edge sets are derived
lazily.  The classes deliberately implement only what the package needs —
they are not a networkx replacement — but what they implement is complete:
mutation, queries, iteration, copying, induced subgraphs, and conversion
between the directed and undirected views (DiMa2Ed runs on the *symmetric
closure* of an undirected graph).

A :class:`Graph` may also be born from its CSR arrays (the Erdős–Rényi
generator builds those directly).  It then holds only the arrays, which
answer the node and edge counts, node iteration and :meth:`Graph.to_csr`;
the adjacency sets are built from the CSR once, on first use.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, Iterator, List, Set, Tuple

import numpy as np

from repro.errors import EdgeNotFoundError, GraphError, NodeNotFoundError
from repro.types import Arc, Edge, NodeId, canonical_edge

__all__ = ["Graph", "DiGraph"]


def _arcs_csr(n: int, src: np.ndarray, dst: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Row-sorted ``(indptr, indices)`` of the distinct arcs ``src -> dst`` over ids ``0 .. n-1``."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst[np.argsort(src * n + dst)]


def _sets_csr(adj: Dict[NodeId, Set[NodeId]]) -> Tuple[np.ndarray, np.ndarray]:
    """Row-sorted ``(indptr, indices)`` of an adjacency dict over ids ``0 .. n-1``."""
    n = len(adj)
    degrees = np.fromiter(map(len, adj.values()), dtype=np.int64, count=n)
    src = np.repeat(np.fromiter(adj, dtype=np.int64, count=n), degrees)
    dst = np.fromiter(
        chain.from_iterable(adj.values()), dtype=np.int64, count=len(src)
    )
    return _arcs_csr(n, src, dst)


class Graph:
    """A simple undirected graph over integer nodes.

    Examples
    --------
    >>> g = Graph()
    >>> g.add_edge(0, 1)
    >>> g.add_edge(1, 2)
    >>> sorted(g.neighbors(1))
    [0, 2]
    >>> g.degree(1)
    2
    """

    __slots__ = ("_adj", "_csr")

    def __init__(self, edges: Iterable[Tuple[int, int]] | None = None) -> None:
        self._adj: Dict[NodeId, Set[NodeId]] = {}
        #: Memoized :meth:`to_csr` result; any mutation resets it to None.
        self._csr: Tuple[np.ndarray, np.ndarray] | None = None
        if edges is not None:
            self.add_edges_from(edges)

    def __getattr__(self, name: str):
        # Python calls this only when normal lookup fails, and the one slot
        # a graph ever leaves unset is ``_adj`` of a CSR-born graph.  Build
        # the sets here, each row inserted in ascending order; from then on
        # ``_adj`` is an ordinary slot read.
        if name != "_adj":
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        indptr, indices = self._csr
        bounds = indptr.tolist()
        flat = indices.tolist()
        self._adj = {
            u: set(flat[start:stop])
            for u, (start, stop) in enumerate(zip(bounds, bounds[1:]))
        }
        return self._adj

    def _sets_unbuilt(self) -> bool:
        """True while a CSR-born graph has not built its adjacency sets."""
        try:
            object.__getattribute__(self, "_adj")
        except AttributeError:
            return True
        return False

    # -- construction ---------------------------------------------------

    @classmethod
    def _from_edge_arrays(cls, n: int, u: np.ndarray, v: np.ndarray) -> "Graph":
        """The graph on ids ``0 .. n-1`` with edges ``{u[i], v[i]}``, holding only its CSR.

        The edges must be distinct and loop-free.  The CSR becomes the
        cached :meth:`to_csr` result, and the adjacency sets are built
        from it on first use, each row inserted in ascending order.
        """
        g = cls.__new__(cls)
        g._csr = _arcs_csr(n, np.concatenate([u, v]), np.concatenate([v, u]))
        return g

    @classmethod
    def from_num_nodes(cls, n: int) -> "Graph":
        """Create an empty graph with nodes ``0 .. n-1`` and no edges."""
        if n < 0:
            raise GraphError(f"number of nodes must be non-negative, got {n}")
        g = cls()
        g.add_nodes_from(range(n))
        return g

    def add_node(self, u: NodeId) -> None:
        """Add node ``u`` (no-op if already present)."""
        if u not in self._adj:
            self._adj[u] = set()
            self._csr = None

    def add_nodes_from(self, nodes: Iterable[NodeId]) -> None:
        """Add every node in ``nodes``."""
        for u in nodes:
            self.add_node(u)

    def add_edge(self, u: NodeId, v: NodeId) -> None:
        """Add the undirected edge ``{u, v}``, creating endpoints as needed.

        Self-loops are rejected: the coloring algorithms are defined on
        simple graphs and a loop would make "adjacent edges" ill-defined.
        """
        if u == v:
            raise GraphError(f"self-loop ({u}, {v}) is not allowed")
        self.add_node(u)
        self.add_node(v)
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._csr = None

    def add_edges_from(self, edges: Iterable[Tuple[int, int]]) -> None:
        """Add every edge in ``edges``."""
        for u, v in edges:
            self.add_edge(u, v)

    def remove_edge(self, u: NodeId, v: NodeId) -> None:
        """Remove the edge ``{u, v}``; raise :class:`EdgeNotFoundError` if absent."""
        if not self.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._csr = None

    def remove_node(self, u: NodeId) -> None:
        """Remove node ``u`` and all incident edges."""
        if u not in self._adj:
            raise NodeNotFoundError(u)
        for v in self._adj[u]:
            self._adj[v].discard(u)
        del self._adj[u]
        self._csr = None

    # -- queries --------------------------------------------------------

    def __contains__(self, u: object) -> bool:
        return u in self._adj

    def __len__(self) -> int:
        return self.num_nodes

    def __iter__(self) -> Iterator[NodeId]:
        if self._sets_unbuilt():
            return iter(range(self.num_nodes))
        return iter(self._adj)

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        if self._csr is not None:
            return len(self._csr[0]) - 1
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        if self._csr is not None:
            return len(self._csr[1]) // 2
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def nodes(self) -> List[NodeId]:
        """List of nodes in insertion order."""
        return list(self)

    def has_node(self, u: NodeId) -> bool:
        """True if ``u`` is a node of this graph."""
        return u in self._adj

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        """True if ``{u, v}`` is an edge of this graph."""
        nbrs = self._adj.get(u)
        return nbrs is not None and v in nbrs

    def neighbors(self, u: NodeId) -> Set[NodeId]:
        """The neighbor set of ``u`` (a live view; do not mutate)."""
        try:
            return self._adj[u]
        except KeyError:
            raise NodeNotFoundError(u) from None

    def degree(self, u: NodeId) -> int:
        """Degree of node ``u``."""
        return len(self.neighbors(u))

    def degrees(self) -> Dict[NodeId, int]:
        """Mapping node -> degree for every node."""
        return {u: len(nbrs) for u, nbrs in self._adj.items()}

    def degree_array(self) -> np.ndarray:
        """Degrees as a numpy array aligned with :meth:`nodes` order."""
        return np.fromiter(
            (len(nbrs) for nbrs in self._adj.values()),
            dtype=np.int64,
            count=len(self._adj),
        )

    def to_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Adjacency in CSR form: ``(indptr, indices)`` int64 arrays.

        Row ``u`` holds the neighbors of ``u`` in ascending order at
        ``indices[indptr[u]:indptr[u + 1]]``.  Requires contiguous node
        ids ``0 .. n-1`` (use :meth:`relabeled` first) so that rows can
        be indexed by node id — this is the layout the simulator's
        fast delivery path gathers broadcast fan-outs from.

        The result is cached on the instance (every mutator invalidates
        it), so repeated engine runs on the same graph — replicates,
        benchmark repeats, the batched core's setup — pay the O(n + m)
        build once.  Treat the returned arrays as read-only.
        """
        if self._csr is not None:
            return self._csr
        n = len(self._adj)
        offending = sorted(u for u in self._adj if u < 0 or u >= n)
        if offending:
            shown = ", ".join(map(str, offending[:5]))
            more = f", ... ({len(offending)} total)" if len(offending) > 5 else ""
            raise GraphError(
                f"to_csr requires contiguous node ids 0..{n - 1}, but this "
                f"graph has {n} nodes with out-of-range id(s) {shown}{more}; "
                "relabel first — Graph.relabeled() returns (graph, mapping), "
                "or use repro.core._coerce.relabel_for_engine, which the "
                "algorithm wrappers (color_edges/strong_color_arcs) apply "
                "automatically"
            )
        self._csr = _sets_csr(self._adj)
        return self._csr

    def edges(self) -> Iterator[Edge]:
        """Iterate over edges, each exactly once, in canonical order."""
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def edge_list(self) -> List[Edge]:
        """All edges as a sorted list of canonical pairs."""
        return sorted(self.edges())

    def incident_edges(self, u: NodeId) -> List[Edge]:
        """Edges incident to ``u``, in canonical form."""
        return [canonical_edge(u, v) for v in self.neighbors(u)]

    # -- derived graphs ---------------------------------------------------

    def copy(self) -> "Graph":
        """An independent deep copy."""
        g = Graph()
        g._adj = {u: set(nbrs) for u, nbrs in self._adj.items()}
        return g

    def subgraph(self, nodes: Iterable[NodeId]) -> "Graph":
        """The subgraph induced by ``nodes`` (unknown nodes raise)."""
        keep = set(nodes)
        for u in keep:
            if u not in self._adj:
                raise NodeNotFoundError(u)
        g = Graph()
        g.add_nodes_from(keep)
        for u in keep:
            for v in self._adj[u]:
                if v in keep and u < v:
                    g.add_edge(u, v)
        return g

    def relabeled(self) -> Tuple["Graph", Dict[NodeId, NodeId]]:
        """Relabel nodes to ``0 .. n-1`` (insertion order).

        Returns the relabeled graph and the old->new mapping.  The
        simulator requires contiguous node ids for its array-backed
        bookkeeping.
        """
        mapping = {u: i for i, u in enumerate(self._adj)}
        g = Graph.from_num_nodes(len(mapping))
        for u, v in self.edges():
            g.add_edge(mapping[u], mapping[v])
        return g, mapping

    def to_directed(self) -> "DiGraph":
        """The symmetric closure: every edge becomes a pair of arcs."""
        d = DiGraph()
        d.add_nodes_from(self._adj)
        for u, v in self.edges():
            d.add_arc(u, v)
            d.add_arc(v, u)
        return d

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Graph(n={self.num_nodes}, m={self.num_edges})"


class DiGraph:
    """A simple directed graph over integer nodes.

    Maintains both out- and in-adjacency so the strong-coloring verifier
    and DiMa2Ed's per-node bookkeeping get O(deg) access in both
    directions.
    """

    __slots__ = ("_succ", "_pred", "_csr")

    def __init__(self, arcs: Iterable[Tuple[int, int]] | None = None) -> None:
        self._succ: Dict[NodeId, Set[NodeId]] = {}
        self._pred: Dict[NodeId, Set[NodeId]] = {}
        #: Memoized :meth:`to_csr` result; any mutation resets it to None.
        self._csr: Tuple[np.ndarray, np.ndarray] | None = None
        if arcs is not None:
            self.add_arcs_from(arcs)

    # -- construction ---------------------------------------------------

    @classmethod
    def from_num_nodes(cls, n: int) -> "DiGraph":
        """Create an empty digraph with nodes ``0 .. n-1``."""
        if n < 0:
            raise GraphError(f"number of nodes must be non-negative, got {n}")
        d = cls()
        d.add_nodes_from(range(n))
        return d

    def add_node(self, u: NodeId) -> None:
        """Add node ``u`` (no-op if already present)."""
        if u not in self._succ:
            self._succ[u] = set()
            self._pred[u] = set()
            self._csr = None

    def add_nodes_from(self, nodes: Iterable[NodeId]) -> None:
        """Add every node in ``nodes``."""
        for u in nodes:
            self.add_node(u)

    def add_arc(self, u: NodeId, v: NodeId) -> None:
        """Add the arc ``(u, v)``; self-loops are rejected."""
        if u == v:
            raise GraphError(f"self-loop ({u}, {v}) is not allowed")
        self.add_node(u)
        self.add_node(v)
        self._succ[u].add(v)
        self._pred[v].add(u)
        self._csr = None

    def add_arcs_from(self, arcs: Iterable[Tuple[int, int]]) -> None:
        """Add every arc in ``arcs``."""
        for u, v in arcs:
            self.add_arc(u, v)

    def remove_arc(self, u: NodeId, v: NodeId) -> None:
        """Remove arc ``(u, v)``; raise :class:`EdgeNotFoundError` if absent."""
        if not self.has_arc(u, v):
            raise EdgeNotFoundError(u, v)
        self._succ[u].discard(v)
        self._pred[v].discard(u)
        self._csr = None

    # -- queries --------------------------------------------------------

    def __contains__(self, u: object) -> bool:
        return u in self._succ

    def __len__(self) -> int:
        return len(self._succ)

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._succ)

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._succ)

    @property
    def num_arcs(self) -> int:
        """Number of arcs."""
        return sum(len(s) for s in self._succ.values())

    def nodes(self) -> List[NodeId]:
        """List of nodes in insertion order."""
        return list(self._succ)

    def has_node(self, u: NodeId) -> bool:
        """True if ``u`` is a node of this digraph."""
        return u in self._succ

    def has_arc(self, u: NodeId, v: NodeId) -> bool:
        """True if the arc ``(u, v)`` exists."""
        succ = self._succ.get(u)
        return succ is not None and v in succ

    def successors(self, u: NodeId) -> Set[NodeId]:
        """Out-neighbors of ``u`` (live view; do not mutate)."""
        try:
            return self._succ[u]
        except KeyError:
            raise NodeNotFoundError(u) from None

    def predecessors(self, u: NodeId) -> Set[NodeId]:
        """In-neighbors of ``u`` (live view; do not mutate)."""
        try:
            return self._pred[u]
        except KeyError:
            raise NodeNotFoundError(u) from None

    def out_degree(self, u: NodeId) -> int:
        """Number of arcs leaving ``u``."""
        return len(self.successors(u))

    def in_degree(self, u: NodeId) -> int:
        """Number of arcs entering ``u``."""
        return len(self.predecessors(u))

    def degree(self, u: NodeId) -> int:
        """Total degree (in + out) of ``u``."""
        return self.out_degree(u) + self.in_degree(u)

    def arcs(self) -> Iterator[Arc]:
        """Iterate over all arcs, each exactly once."""
        for u, succ in self._succ.items():
            for v in succ:
                yield (u, v)

    def arc_list(self) -> List[Arc]:
        """All arcs as a sorted list."""
        return sorted(self.arcs())

    def is_symmetric(self) -> bool:
        """True if for every arc (u, v) the reverse arc (v, u) exists.

        DiMa2Ed is specified for symmetric digraphs ("our graph is
        bidirectional"); callers should check this before running it.
        """
        return all(u in self._succ[v] for u, v in self.arcs())

    def to_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Out-adjacency in CSR form: ``(indptr, indices)`` int64 arrays.

        Row ``u`` holds the successors of ``u`` in ascending order at
        ``indices[indptr[u]:indptr[u + 1]]``.  Requires contiguous node
        ids ``0 .. n-1``.  Cached like :meth:`Graph.to_csr` — every
        mutator invalidates; treat the returned arrays as read-only.
        """
        if self._csr is not None:
            return self._csr
        n = len(self._succ)
        offending = sorted(u for u in self._succ if u < 0 or u >= n)
        if offending:
            shown = ", ".join(map(str, offending[:5]))
            more = f", ... ({len(offending)} total)" if len(offending) > 5 else ""
            raise GraphError(
                f"to_csr requires contiguous node ids 0..{n - 1}, but this "
                f"digraph has {n} nodes with out-of-range id(s) {shown}{more}; "
                "relabel first — build from a relabeled undirected graph "
                "(repro.core._coerce.relabel_for_engine followed by "
                "to_directed(), as the algorithm wrappers do automatically)"
            )
        self._csr = _sets_csr(self._succ)
        return self._csr

    # -- derived graphs ---------------------------------------------------

    def copy(self) -> "DiGraph":
        """An independent deep copy."""
        d = DiGraph()
        d._succ = {u: set(s) for u, s in self._succ.items()}
        d._pred = {u: set(p) for u, p in self._pred.items()}
        return d

    def to_undirected(self) -> Graph:
        """The underlying undirected graph (arc directions dropped)."""
        g = Graph()
        g.add_nodes_from(self._succ)
        for u, v in self.arcs():
            if not g.has_edge(u, v):
                g.add_edge(u, v)
        return g

    def reverse(self) -> "DiGraph":
        """A digraph with every arc reversed."""
        d = DiGraph()
        d.add_nodes_from(self._succ)
        for u, v in self.arcs():
            d.add_arc(v, u)
        return d

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        return self._succ == other._succ

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DiGraph(n={self.num_nodes}, m={self.num_arcs})"
