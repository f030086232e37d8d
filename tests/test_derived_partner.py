"""The complement partner's spectrum derived from the input's eigenbasis:
oracles (``eigvalsh`` at orders above STRUCTURED_MIN_N, ``mpmath`` below it
with the floor lowered), the cases that fall back to the dense ``eigh``, and
the memory the derivation allocates."""

import tracemalloc
import unittest.mock

import numpy as np
import pytest

from normsum import NoConvergenceError, adjacency_matrix, check_bound, cli, paley_graph
from normsum import weyl_complement_check
from normsum.graphs import graph6_encode
from normsum.linalg import DenseMatrix, SpectrumPair, complement_matrix, sym_eigen
from normsum import linalg
from oracles import complete, graph_of, petersen, relabeled


def _spy(monkeypatch):
    """(eigh shapes, derived results) of the calls made from here on; a
    derived result is None when its certificate failed."""
    shapes, derived = [], []
    real_eigh, real_derive = np.linalg.eigh, linalg._derived_partner
    monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(a.shape) or real_eigh(a))

    def derive(*args):
        derived.append(real_derive(*args))
        return derived[-1]

    monkeypatch.setattr(linalg, "_derived_partner", derive)
    return shapes, derived


def _disjoint(adj, copies):
    return np.kron(np.eye(copies), adj)


def _complete_bipartite(p, q):
    a = np.zeros((p + q, p + q))
    a[:p, p:] = a[p:, :p] = 1.0
    return a


def _star(n):
    return _complete_bipartite(1, n - 1)


def _path(n):
    a = np.zeros((n, n))
    i = np.arange(n - 1)
    a[i, i + 1] = a[i + 1, i] = 1.0
    return a


def _circulant(n, offsets):
    a = np.zeros((n, n))
    i = np.arange(n)
    for s in offsets:
        a[i, (i + s) % n] = a[(i + s) % n, i] = 1.0
    return a


def _random_unit_symmetric(n, seed):
    r = np.random.default_rng(seed).random((n, n))
    return np.triu(r) + np.triu(r, 1).T


def _nearly_symmetric(n, seed):
    """A random symmetric [0, 1] matrix plus an antisymmetric part of at most
    5e-13 off the diagonal: asymmetry within SYMMETRY_TOL, not 0."""
    a = 0.25 + 0.5 * _random_unit_symmetric(n, seed)
    e = np.random.default_rng(seed + 1).uniform(-2.5e-13, 2.5e-13, (n, n))
    return a + np.triu(e, 1) - np.triu(e, 1).T


def _petersen():
    return adjacency_matrix(petersen()).array


def _paley(q):
    return adjacency_matrix(paley_graph(q)).array


def _tolerance(a):
    # 1e-12 ||X||_F; for the empty graph, whose norm is 0, 1e-12 itself
    return 1e-12 * max(np.linalg.norm(a), 1.0)


# (name, X, graph): no order is a prime power, or X is relabeled, so that no
# input takes the character path
LARGE = [
    ("cycle", _circulant(200, [1]), True),
    ("circulant 1 5 17", _circulant(210, [1, 5, 17]), True),
    ("20 Petersen graphs", _disjoint(_petersen(), 20), True),
    ("empty", np.zeros((130, 130)), True),
    ("star", _star(200), True),
    ("K70,130", _complete_bipartite(70, 130), True),
    ("path", _path(200), True),
    ("relabeled Paley 149", relabeled(_paley(149), 2), True),
    ("relabeled Paley 169", relabeled(_paley(169), 3), True),
    ("nearly symmetric, c = 1", _nearly_symmetric(150, 5), True),
    ("nearly symmetric, c = 0", _nearly_symmetric(150, 7), False),
    ("random [0, 1], c = 1", _random_unit_symmetric(180, 9), True),
    ("random [0, 1], c = 0", _random_unit_symmetric(180, 11), False),
]


@pytest.mark.parametrize("a, graph", [pytest.param(a, g, id=name) for name, a, g in LARGE])
def test_derived_partner_matches_eigvalsh(monkeypatch, a, graph):
    shapes, derived = _spy(monkeypatch)
    pair = SpectrumPair(DenseMatrix(a), graph)
    values = np.array(pair.eig(1).values)
    n = a.shape[0]
    assert shapes == [(n, n)] and derived[0] is not None and pair._basis is None
    y = complement_matrix(a, graph)
    ref = np.linalg.eigvalsh((y + y.T) / 2.0)[::-1]
    assert np.abs(values - ref).max() <= _tolerance(a)
    assert pair.eig(1).offdiag_residual <= linalg.CERT_FACTOR * (1 + np.linalg.norm(y))
    # X's own spectrum is the one sym_eigen gives, bit for bit
    assert pair.eig(0) == sym_eigen(a)


def _mp_eigenvalues(y):
    """Descending eigenvalues of the symmetric part of y in 40-digit arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        sym = mpmath.matrix(((y + y.T) / 2.0).tolist())
        return sorted((float(v) for v in mpmath.eigsy(sym, eigvals_only=True)), reverse=True)


SMALL = [
    ("Petersen", _petersen(), True),
    ("two Petersen graphs", _disjoint(_petersen(), 2), True),
    ("cycle", _circulant(14, [1]), True),
    ("empty", np.zeros((10, 10)), True),
    ("star", _star(12), True),
    ("K3,7", _complete_bipartite(3, 7), True),
    ("path", _path(12), True),
    ("relabeled Paley 13", relabeled(_paley(13), 1), True),
    ("nearly symmetric, c = 1", _nearly_symmetric(12, 13), True),
    ("random [0, 1], c = 1", _random_unit_symmetric(15, 17), True),
    ("random [0, 1], c = 0", _random_unit_symmetric(15, 19), False),
]


@pytest.mark.parametrize("a, graph", [pytest.param(a, g, id=name) for name, a, g in SMALL])
def test_derived_partner_matches_mpmath_below_the_floor(monkeypatch, a, graph):
    _, derived = _spy(monkeypatch)
    with unittest.mock.patch.object(linalg, "STRUCTURED_MIN_N", 2):
        values = SpectrumPair(DenseMatrix(a), graph).eig(1).values
    assert len(derived) == 1 and derived[0] is not None
    ref = _mp_eigenvalues(complement_matrix(a, graph))
    assert np.abs(np.subtract(values, ref)).max() <= _tolerance(a)


# ---------------------------------------------------------------------------
# Fallback to the dense eigh


def test_complete_graph_falls_back_to_the_dense_partner(monkeypatch, capsys):
    # Y = 0, so its threshold is CERT_FACTOR, below X's own residual
    x = adjacency_matrix(complete(200))
    shapes, derived = _spy(monkeypatch)
    pair = SpectrumPair(x, graph=True)
    assert check_bound("main", pair).holds and weyl_complement_check(pair).ok
    assert derived == [None] and shapes == [(200, 200)] * 2
    assert pair.eig(1) == sym_eigen(complement_matrix(x.array))
    assert cli.main(["check", "main", "--graph6", graph6_encode(complete(200))]) == 0
    capsys.readouterr()


def test_dense_random_graph_is_certified_either_way(monkeypatch, capsys):
    rng = np.random.default_rng(23)
    a = np.triu(rng.random((200, 200)) < 0.99, 1)
    g = graph_of(a | a.T)
    x = adjacency_matrix(g).array
    shapes, derived = _spy(monkeypatch)
    pair = SpectrumPair(adjacency_matrix(g), graph=True)
    assert check_bound("main", pair).holds and weyl_complement_check(pair).ok
    assert len(derived) == 1 and len(shapes) == (1 if derived[0] else 2)
    ref = np.linalg.eigvalsh(complement_matrix(x))[::-1]
    assert np.abs(np.array(pair.eig(1).values) - ref).max() <= _tolerance(x)
    assert cli.main(["check", "main", "--graph6", graph6_encode(g)]) == 0
    capsys.readouterr()


def test_forged_secular_root_fails_the_certificate(monkeypatch):
    a = _random_unit_symmetric(150, 29)
    real = linalg._secular_roots

    def forged(d, w):
        origin, tau = real(d, w)
        tau[len(tau) // 2] += 1e-6
        return origin, tau

    monkeypatch.setattr(linalg, "_secular_roots", forged)
    shapes, derived = _spy(monkeypatch)
    pair = SpectrumPair(DenseMatrix(a), graph=True)
    eig = pair.eig(1)
    assert derived == [None] and shapes == [(150, 150)] * 2
    # the parent's dense partner, bit for bit
    assert eig == sym_eigen(complement_matrix(a))


def test_a_failed_dense_fallback_still_raises(monkeypatch):
    a = _random_unit_symmetric(150, 31)
    monkeypatch.setattr(linalg, "_derived_partner", lambda *args: None)
    pair = SpectrumPair(DenseMatrix(a), graph=True)
    pair.eig(0)
    real = np.linalg.eigh

    def forged(s):
        w, q = real(s)
        return w + 1e-6, q

    monkeypatch.setattr(np.linalg, "eigh", forged)
    with pytest.raises(NoConvergenceError):
        pair.eig(1)


# ---------------------------------------------------------------------------
# Memory


def test_derivation_allocates_no_table_of_the_order_squared():
    # X = diag(w) with Q = I: no eigh, and every root is a secular root
    n = 1024
    w = np.sort(np.random.default_rng(37).standard_normal(n))
    sym, q = np.diag(w), np.eye(n)
    tracemalloc.start()
    try:
        spectrum = linalg._derived_partner(sym, w, q, 0.0, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert spectrum is not None
    # a quarter of one n x n float64 table (8 MB); the blocks take 512 KB
    assert peak <= n * n * 8 // 4
    ref = np.linalg.eigvalsh(complement_matrix(sym))[::-1]
    assert np.abs(np.array(spectrum.values) - ref).max() <= 1e-12 * np.linalg.norm(sym)
