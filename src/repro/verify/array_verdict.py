"""Array verdicts for the edge- and arc-coloring verifiers.

Each function here answers one question with a few numpy passes: *is
this coloring valid?*  It never says why a coloring fails.  The checkers
in :mod:`repro.verify.edge_coloring` and
:mod:`repro.verify.strong_coloring` ask it first and return ``[]`` on
``True``; on anything else they run their per-item reference code, which
explains every violation and remains the oracle the tests compare this
module against.

A verdict is ``True`` (valid), ``False`` (invalid) or ``None``
(undecidable: the arrays cannot represent the input faithfully, so only
the reference may judge it).  Input is undecidable when

* a coloring key is not a ``tuple`` of two exactly-``int`` ids, or a
  color is not exactly ``int`` — ``bool``, ``float`` and ``np.int64``
  included, since the reference treats those differently from ``int``;
* a graph node id is not an integer, or a value does not fit the int64
  encodings below.

Node ids are mapped to dense indices ``0 .. n-1`` (the identity when the
ids already are ``0 .. n-1``, a binary search over the sorted ids
otherwise), so graphs with holes in their ids — a
:func:`~repro.verify.partial.surviving_subgraph`, a served session after
``remove_vertex`` — need no relabeling and no :meth:`Graph.to_csr`.

This module imports nothing from :mod:`repro.core`: the verifiers share
no code with the algorithms they check.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import Mapping, Optional, Tuple

import numpy as np

from repro.graphs.adjacency import DiGraph, Graph
from repro.types import Arc, Color, Edge

__all__ = ["edge_verdict", "strong_verdict"]

#: Encoded keys (``index * width + value``) must stay below this bound.
_KEY_LIMIT = 1 << 62

#: Neighbour-walk entries per block in :func:`strong_verdict`; bounds the
#: size of the walk's temporaries at O(block) whatever m·Δ is.
_STRONG_BLOCK = 1 << 16

_Table = Tuple[Optional[np.ndarray], int, np.ndarray, np.ndarray]


def _adjacency_table(
    adj: Mapping[int, set], csr: Optional[Tuple[np.ndarray, np.ndarray]]
) -> Optional[_Table]:
    """``(ids, n, src, dst)`` of an adjacency dict, or None if undecidable.

    ``ids`` holds the sorted node ids, or is None when they are exactly
    ``0 .. n-1``; ``src``/``dst`` list every adjacency entry as dense
    indices.  A cached CSR (which exists only for ids ``0 .. n-1``)
    supplies the entries without touching the dict.
    """
    n = len(adj)
    if csr is not None:
        indptr, indices = csr
        return None, n, np.repeat(np.arange(n), np.diff(indptr)), indices
    if not all(issubclass(t, (int, np.integer)) for t in set(map(type, adj))):
        return None
    degrees = np.fromiter(map(len, adj.values()), dtype=np.int64, count=n)
    try:
        nodes = np.fromiter(adj, dtype=np.int64, count=n)
        dst = np.fromiter(
            chain.from_iterable(adj.values()), dtype=np.int64, count=int(degrees.sum())
        )
    except OverflowError:
        return None
    if n == 0 or (nodes.min() == 0 and nodes.max() == n - 1):
        return None, n, np.repeat(nodes, degrees), dst
    ids = np.sort(nodes)
    src = np.repeat(np.searchsorted(ids, nodes), degrees)
    return ids, n, src, np.searchsorted(ids, dst)


def _dense(
    ids: Optional[np.ndarray], n: int, x: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Dense indices of the node ids ``x``, and the mask of real nodes.

    Where the mask is False the index is some valid index, so callers
    can gather with it and discard the result.
    """
    if ids is None:
        node = (x >= 0) & (x < n)
        return np.where(node, x, 0), node
    idx = np.minimum(np.searchsorted(ids, x), n - 1)
    return idx, ids[idx] == x


def _pairs(
    colors: Mapping[Tuple[int, int], Color]
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """The coloring's keys as two int64 arrays (first, second), or None."""
    if set(map(type, colors)) != {tuple} or set(map(len, colors)) != {2}:
        return None
    first = list(map(itemgetter(0), colors))
    second = list(map(itemgetter(1), colors))
    if set(map(type, first)) | set(map(type, second)) != {int}:
        return None
    try:
        return (
            np.fromiter(first, dtype=np.int64, count=len(first)),
            np.fromiter(second, dtype=np.int64, count=len(second)),
        )
    except OverflowError:
        return None


def _colors(colors: Mapping[Tuple[int, int], Color]) -> Optional[np.ndarray]:
    """The coloring's values as an int64 array, or None."""
    if set(map(type, colors.values())) != {int}:
        return None
    try:
        return np.fromiter(colors.values(), dtype=np.int64, count=len(colors))
    except OverflowError:
        return None


def _hits(table: np.ndarray, keys: np.ndarray) -> int:
    """How many of ``keys`` occur in the sorted array ``table``.

    The keys are sorted first: a binary search over sorted keys walks
    the table in order, which is several times faster than random probes.
    """
    if not table.size or not keys.size:
        return 0
    keys = np.sort(keys)
    pos = np.minimum(np.searchsorted(table, keys), table.size - 1)
    return int(np.count_nonzero(table[pos] == keys))


def _repeats(sorted_keys: np.ndarray) -> bool:
    return bool(np.any(sorted_keys[1:] == sorted_keys[:-1]))


def _color_width(n: int, c: np.ndarray) -> Optional[int]:
    """``max(c) + 1`` if ``index * width + color`` fits int64, else None."""
    width = int(c.max()) + 1
    return width if n * width < _KEY_LIMIT else None


def edge_verdict(
    graph: Graph,
    colors: Mapping[Edge, Color],
    *,
    proper: bool = True,
    complete: bool = False,
) -> Optional[bool]:
    """Verdict on a (possibly partial) edge coloring of ``graph``.

    With ``proper`` the coloring must pass
    :func:`~repro.verify.edge_coloring.check_proper_edge_coloring`; with
    ``complete`` it must pass
    :func:`~repro.verify.edge_coloring.check_edge_coloring_complete`.
    """
    table = _adjacency_table(graph._adj, graph._csr)
    if table is None:
        return None
    ids, n, src, dst = table
    canonical = src < dst
    edge_keys = np.sort(src[canonical] * n + dst[canonical])
    if not colors:
        return not complete or edge_keys.size == 0
    pairs = _pairs(colors)
    if pairs is None:
        return None
    iu, u_node = _dense(ids, n, pairs[0])
    iv, v_node = _dense(ids, n, pairs[1])
    # The table holds (low, high) keys only, so membership also proves
    # every colored key canonical.
    keys = (iu * n + iv)[u_node & v_node]
    found = _hits(edge_keys, keys)
    if proper and found != len(colors):
        return False
    if complete and found != edge_keys.size:
        return False
    if not proper:
        return True
    c = _colors(colors)
    if c is None:
        return None
    if c.min() < 0:
        return False
    width = _color_width(n, c)
    if width is None:
        return None
    at_endpoint = np.sort(np.concatenate([iu * width + c, iv * width + c]))
    return not _repeats(at_endpoint)


def strong_verdict(
    digraph: DiGraph, colors: Mapping[Arc, Color], *, complete: bool = True
) -> Optional[bool]:
    """Verdict of :func:`~repro.verify.strong_coloring.check_strong_arc_coloring`.

    Two distinct arcs conflict (DESIGN.md, "Strong-coloring conflict
    model") when they share an endpoint, or when the tail of one is an
    underlying neighbour of the head of the other.  The first case is a
    repeated ``(endpoint, channel)`` key over all tails and heads.  The
    second is checked as one ordered-pair condition: for every arc
    ``(t, h)`` on channel ``c`` and every underlying neighbour ``w ≠ t``
    of ``h``, no arc leaves ``w`` on channel ``c``.  Read with the roles
    of the two arcs swapped, the same condition covers the symmetric
    pattern.  ``w = t`` is left out because the arcs leaving ``t`` share
    an endpoint with ``(t, h)``, which the first case already covers.
    """
    table = _adjacency_table(digraph._succ, digraph._csr)
    if table is None:
        return None
    ids, n, src, dst = table
    if not colors:
        return not complete or src.size == 0
    pairs = _pairs(colors)
    if pairs is None:
        return None
    it, t_node = _dense(ids, n, pairs[0])
    ih, h_node = _dense(ids, n, pairs[1])
    keys = (it * n + ih)[t_node & h_node]
    if _hits(np.sort(src * n + dst), keys) != len(colors):
        return False
    if complete and len(colors) != src.size:
        return False
    c = _colors(colors)
    if c is None:
        return None
    if c.min() < 0:
        return False
    width = _color_width(n, c)
    if width is None:
        return None
    tails = it * width + c
    if _repeats(np.sort(np.concatenate([tails, ih * width + c]))):
        return False
    tails.sort()

    # Underlying (undirected) adjacency in CSR form over dense indices.
    both = np.unique(np.concatenate([src * n + dst, dst * n + src]))
    rows, nbrs = np.divmod(both, n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])

    degree = indptr[ih + 1] - indptr[ih]
    ends = np.cumsum(degree)
    start = 0
    while start < len(colors):
        base = int(ends[start] - degree[start])
        stop = max(
            start + 1, int(np.searchsorted(ends, base + _STRONG_BLOCK, side="right"))
        )
        span = degree[start:stop]
        total = int(ends[stop - 1]) - base
        if total:
            arc = np.repeat(np.arange(start, stop), span)
            offset = np.arange(total) - np.repeat(ends[start:stop] - span - base, span)
            w = nbrs[indptr[ih[arc]] + offset]
            other = w != it[arc]
            if _hits(tails, w[other] * width + c[arc[other]]):
                return False
        start = stop
    return True
