"""Erdős–Rényi random graphs.

Experiments IV-A and IV-D generate G(n, p) graphs "with 200 or 400
nodes, and an average degree of either 4, 8, or 16"; the natural
parameterization is therefore by expected average degree, provided by
:func:`erdos_renyi_avg_degree`.

``G(n, p)`` sampling uses the geometric-skip method (Batagelj & Brandes
2005): instead of flipping C(n, 2) independent coins we jump directly
between successful coin flips with geometrically distributed strides,
O(n + m) expected time.  This matters for the benchmark harness, which
generates hundreds of graphs per run.

The skips are drawn and summed in numpy batches, and the sample is
returned as a CSR-born :class:`Graph` (adjacency sets built only if a
caller asks for them).  The result is bit-identical to the one-draw-per-
edge loop kept in the tests as the oracle: the same doubles, the same
skip lengths, the same graph, set iteration order and ``edges()`` order,
and a passed-in generator left after the same number of draws.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.errors import GeneratorError
from repro.graphs.adjacency import Graph
from repro.graphs.generators._rng import SeedLike, coerce_rng

__all__ = ["erdos_renyi_gnp", "erdos_renyi_gnm", "erdos_renyi_avg_degree"]

#: A skip computed with ``np.log`` within this many ulps of an integer is
#: recomputed with ``math.log``.  Over 2·10⁶ draws on x86-64 (numpy 2.4)
#: the two logs differed in 0.35% of cases, never by more than 1 ulp,
#: which moves the quotient by at most 2 ulps.
_RECHECK_ULPS = 8


def _skips(r: np.ndarray, lp: float, cap: int) -> np.ndarray:
    """``min(int(math.log(1.0 - r) / lp), cap)`` for every draw in ``r``.

    ``np.log`` may differ from ``math.log`` in the last bit, which can
    move the floor only when the quotient lies within a few ulps of an
    integer; those few values are recomputed with the scalar formula.
    Capping at ``cap`` (the number of pairs, which any larger skip
    overshoots anyway) keeps a batch's running sum far inside int64.
    """
    x = np.log(1.0 - r) / lp
    np.minimum(x, float(cap), out=x)
    skips = np.floor(x).astype(np.int64)
    near = np.abs(x - np.rint(x)) <= _RECHECK_ULPS * np.spacing(x)
    for i in np.flatnonzero(near).tolist():
        skips[i] = min(int(math.log(1.0 - float(r[i])) / lp), cap)
    return skips


def _batch_size(expected: float) -> int:
    """Draws per batch: the expected edge count plus eight standard deviations."""
    return int(expected + 8 * math.sqrt(expected)) + 64


def _pair_indices(total: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Row-major indices of the present pairs, and leave ``rng`` after edges + 1 draws.

    Each draw moves the index by ``1 + skip``; the first index at or past
    ``total`` ends the sample, as in the scalar loop.  Draws come in
    batches sized to the expected edge count plus a margin, so one batch
    almost always suffices; afterwards the generator is rewound and moved
    forward by exactly the draws the scalar loop would have made.
    """
    lp = math.log1p(-p)
    start_state = rng.bit_generator.state
    found = []
    last = -1
    used = 0
    while True:
        r = rng.random(_batch_size(p * (total - 1 - last)))
        idx = last + np.cumsum(_skips(r, lp, total) + 1)
        stop = int(np.searchsorted(idx, total))
        if stop < len(idx):
            found.append(idx[:stop])
            used += stop + 1
            break
        found.append(idx)
        used += len(idx)
        last = int(idx[-1])
    rng.bit_generator.state = start_state
    rng.random(used)
    return np.concatenate(found)


def _decode_pairs(idx: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Invert the row-major pair index ``idx = v(v-1)/2 + w``, ``w < v``.

    The float square root gives ``v`` to within one; an exact integer
    correction fixes it.
    """
    v = ((1.0 + np.sqrt(1.0 + 8.0 * idx)) // 2).astype(np.int64)
    while True:
        low = v * (v + 1) // 2 <= idx
        high = v * (v - 1) // 2 > idx
        if not (low.any() or high.any()):
            return v, idx - v * (v - 1) // 2
        v += low.astype(np.int64) - high.astype(np.int64)


def erdos_renyi_gnp(n: int, p: float, *, seed: SeedLike = None) -> Graph:
    """Sample G(n, p): each of the C(n, 2) edges present independently w.p. ``p``.

    Parameters
    ----------
    n:
        Number of nodes (labels ``0 .. n-1``).
    p:
        Edge probability in [0, 1].
    seed:
        Int seed or numpy Generator.

    Returns
    -------
    Graph
        A simple undirected graph.
    """
    if n < 0:
        raise GeneratorError(f"n must be non-negative, got {n}")
    if not 0.0 <= p <= 1.0:
        raise GeneratorError(f"p must be in [0, 1], got {p}")
    total = n * (n - 1) // 2
    if n < 2 or p == 0.0:
        idx = np.empty(0, dtype=np.int64)
    elif p == 1.0:
        idx = np.arange(total, dtype=np.int64)
    else:
        # Geometric skipping over the implicit row-major enumeration of
        # pairs (v, w) with w < v.  The skip length k satisfies
        # P(k) = (1-p)^k * p.
        idx = _pair_indices(total, p, coerce_rng(seed))
    v, w = _decode_pairs(idx)
    return Graph._from_edge_arrays(n, v, w)


def erdos_renyi_gnm(n: int, m: int, *, seed: SeedLike = None) -> Graph:
    """Sample G(n, m): a graph chosen uniformly among those with exactly ``m`` edges.

    Uses rejection sampling over uniformly drawn pairs, which is near-
    optimal while m is well below C(n, 2); for dense requests it falls
    back to sampling edge *indices* without replacement.
    """
    if n < 0:
        raise GeneratorError(f"n must be non-negative, got {n}")
    max_m = n * (n - 1) // 2
    if not 0 <= m <= max_m:
        raise GeneratorError(f"m must be in [0, {max_m}] for n={n}, got {m}")
    rng = coerce_rng(seed)
    g = Graph.from_num_nodes(n)
    if m == 0:
        return g

    if m > max_m // 2:
        # Dense: choose m distinct pair-indices uniformly.
        idx = rng.choice(max_m, size=m, replace=False)
        for k in idx:
            # Invert the row-major pair index: k = v(v-1)/2 + w, w < v.
            v = int((1 + math.isqrt(1 + 8 * int(k))) // 2)
            w = int(k) - v * (v - 1) // 2
            g.add_edge(v, w)
        return g

    added = 0
    while added < m:
        # Draw a batch; duplicates and self-pairs are rejected.
        batch = max(16, 2 * (m - added))
        us = rng.integers(0, n, size=batch)
        vs = rng.integers(0, n, size=batch)
        for u, v in zip(us.tolist(), vs.tolist()):
            if u != v and not g.has_edge(u, v):
                g.add_edge(u, v)
                added += 1
                if added == m:
                    break
    return g


def erdos_renyi_avg_degree(
    n: int, avg_degree: float, *, seed: SeedLike = None, exact: bool = False
) -> Graph:
    """Sample an ER graph with a target *average degree* (the paper's knob).

    ``avg_degree = d`` corresponds to ``p = d / (n - 1)`` in G(n, p); with
    ``exact=True``, a G(n, m) graph with ``m = round(n·d / 2)`` edges is
    drawn instead so every sample hits the average exactly.
    """
    if n < 2:
        raise GeneratorError(f"need at least 2 nodes, got {n}")
    if avg_degree < 0 or avg_degree > n - 1:
        raise GeneratorError(
            f"avg_degree must be in [0, n-1] = [0, {n - 1}], got {avg_degree}"
        )
    if exact:
        return erdos_renyi_gnm(n, round(n * avg_degree / 2), seed=seed)
    return erdos_renyi_gnp(n, avg_degree / (n - 1), seed=seed)
