"""The batched G(n, p) sampler against the one-draw-per-edge loop it replaced.

``_scalar_gnp`` is the geometric-skip loop the generator used to run: one
``rng.random()`` and one ``add_edge`` per edge.  The batched sampler must
reproduce it bit for bit: the same graph, the same per-node set iteration
order, the same ``edges()`` order, the same CSR, and a passed-in
generator left where the loop left it.
"""

import math

import numpy as np
import pytest

from repro.graphs.adjacency import Graph
from repro.graphs.generators import erdos_renyi as er
from repro.graphs.generators import erdos_renyi_gnp


def _scalar_gnp(n: int, p: float, rng: np.random.Generator) -> Graph:
    g = Graph.from_num_nodes(n)
    if n < 2 or p == 0.0:
        return g
    if p == 1.0:
        for u in range(n):
            for v in range(u + 1, n):
                g.add_edge(u, v)
        return g
    lp = math.log1p(-p)
    v, w = 1, -1
    while v < n:
        r = rng.random()
        w += 1 + int(math.log(1.0 - r) / lp)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            g.add_edge(v, w)
    return g


def _assert_identical(n: int, p: float, seed: int) -> Graph:
    rng_old = np.random.default_rng(seed)
    rng_new = np.random.default_rng(seed)
    old = _scalar_gnp(n, p, rng_old)
    new = erdos_renyi_gnp(n, p, seed=rng_new)
    # CSR first, while the new graph's adjacency sets are still unbuilt.
    for a, b in zip(old.to_csr(), new.to_csr()):
        np.testing.assert_array_equal(a, b)
        assert b.dtype == np.int64
    assert new.num_nodes == old.num_nodes and new.num_edges == old.num_edges
    assert list(new.edges()) == list(old.edges())
    assert new.nodes() == old.nodes()
    for u in old:
        assert list(new.neighbors(u)) == list(old.neighbors(u))
    assert new == old
    # The next draw shows the generator was left after edges + 1 draws.
    assert rng_new.random() == rng_old.random()
    return new


CASES = [
    (0, 0.5, 1),
    (1, 0.5, 1),
    (2, 0.3, 1),
    (2, 0.5, 3),
    (2, 0.9, 4),
    (10, 0.0, 1),
    (10, 1.0, 1),
    (300, 1e-6, 3),
    (3000, 1e-6, 5),
    (200, 0.5, 2),
    (100, 0.9, 4),
    (60, 0.999, 6),
    (400, 8 / 399, 11),
    (1000, 0.01, 12),
]


@pytest.mark.parametrize("n,p,seed", CASES)
def test_matches_scalar_loop(n, p, seed):
    _assert_identical(n, p, seed)


def test_n2_cases_include_an_edge():
    assert any(_assert_identical(2, 0.9, s).num_edges == 1 for s in range(4))


def test_matches_scalar_loop_at_n_1e5():
    g = _assert_identical(100_000, 8 / 99_999, 1)
    assert g.num_edges > 390_000


def test_int_seed_matches_generator_seed():
    a = erdos_renyi_gnp(500, 0.02, seed=9)
    b = _scalar_gnp(500, 0.02, np.random.default_rng(9))
    assert list(a.edges()) == list(b.edges())


def test_untouched_generator_when_no_draws_are_needed():
    for n, p in ((1, 0.5), (50, 0.0), (8, 1.0)):
        rng = np.random.default_rng(3)
        erdos_renyi_gnp(n, p, seed=rng)
        assert rng.random() == np.random.default_rng(3).random()


@pytest.mark.parametrize("batch", [1, 2, 7])
def test_many_small_batches(monkeypatch, batch):
    # Batches far below the edge count run the carry-over path.
    monkeypatch.setattr(er, "_batch_size", lambda expected: batch)
    _assert_identical(120, 0.05, 8)
    _assert_identical(2, 0.9, 1)


def test_batch_of_random_equals_scalar_draws():
    a = np.random.default_rng(5)
    b = np.random.default_rng(5)
    assert a.random(1000).tolist() == [b.random() for _ in range(1000)]


def test_decode_pairs_inverts_row_major_index():
    n = 3000
    v, w = np.tril_indices(n, -1)
    order = np.lexsort((w, v))
    v, w = v[order], w[order]
    idx = v * (v - 1) // 2 + w
    dv, dw = er._decode_pairs(idx.astype(np.int64))
    np.testing.assert_array_equal(dv, v)
    np.testing.assert_array_equal(dw, w)


def test_decode_pairs_exact_beyond_float_precision():
    # Row starts near 2**62, where the float square root is off by more
    # than one row; the integer correction must still land exactly.
    v = np.array([2**31 + 7, 3_037_000_000, 2**31], dtype=np.int64)
    base = v * (v - 1) // 2
    for w in (np.zeros_like(v), v - 1, v // 3):
        dv, dw = er._decode_pairs(base + w)
        np.testing.assert_array_equal(dv, v)
        np.testing.assert_array_equal(dw, w)


def _near_integer_draws(p: float, ks) -> np.ndarray:
    """Draws whose skip quotient lies within a few ulps of each integer in ``ks``."""
    lp = math.log1p(-p)
    draws = []
    for k in ks:
        r = -math.expm1(k * lp)
        for _ in range(24):
            r = math.nextafter(r, 0.0)
        for _ in range(48):
            if 0.0 <= r < 1.0:
                draws.append(r)
            r = math.nextafter(r, 1.0)
    return np.array(draws)


NEAR_CASES = [
    (0.5, range(1, 40)),
    (8 / 99_999, [1, 2, 3, 10, 1000, 12345, 99_999]),
    (1e-6, [1, 7, 10**5, 10**6, 3 * 10**7]),
]


def _scalar_skips(r: np.ndarray, lp: float, cap: int):
    return [min(int(math.log(1.0 - x) / lp), cap) for x in r.tolist()]


@pytest.mark.parametrize("p,ks", NEAR_CASES)
def test_skips_match_scalar_on_near_integer_quotients(p, ks):
    r = _near_integer_draws(p, ks)
    lp = math.log1p(-p)
    assert er._skips(r, lp, 10**12).tolist() == _scalar_skips(r, lp, 10**12)


def _log_off_by_one_ulp(direction):
    true_log = np.log

    def log(x, *args, **kwargs):
        return np.nextafter(true_log(x, *args, **kwargs), direction)

    return log


@pytest.mark.parametrize("direction", [-np.inf, np.inf])
def test_crafted_draws_straddle_integers(direction):
    # Without the recheck, a log one ulp off moves some of these floors.
    log = _log_off_by_one_ulp(direction)
    moved = 0
    for p, ks in NEAR_CASES:
        r = _near_integer_draws(p, ks)
        lp = math.log1p(-p)
        naive = np.floor(log(1.0 - r) / lp).astype(np.int64).tolist()
        moved += sum(a != b for a, b in zip(naive, _scalar_skips(r, lp, 10**12)))
    assert moved > 0


@pytest.mark.parametrize("direction", [-np.inf, np.inf])
@pytest.mark.parametrize("p,ks", NEAR_CASES)
def test_recheck_corrects_a_log_one_ulp_off(monkeypatch, direction, p, ks):
    r = _near_integer_draws(p, ks)
    lp = math.log1p(-p)
    exact = _scalar_skips(r, lp, 10**12)
    monkeypatch.setattr(np, "log", _log_off_by_one_ulp(direction))
    assert er._skips(r, lp, 10**12).tolist() == exact


def test_skips_are_capped():
    lp = math.log1p(-1e-9)
    r = np.array([0.0, 0.5, 1.0 - 2.0**-53])
    assert er._skips(r, lp, 1000).tolist() == [0, 1000, 1000]
