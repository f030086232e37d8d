import math
import unittest.mock
import warnings

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from normsum import cli, linalg, search
from normsum import (
    DIMENSION_CAP,
    DenseMatrix,
    Graph,
    KOutOfRangeError,
    NoConvergenceError,
    NonSquareError,
    NonSymmetricError,
    SizeOverflowError,
    SplitMix64,
    adjacency_matrix,
    check_bound,
    equality_analysis,
    ky_fan_norm,
    kronecker,
    operator_norm,
    paley_graph,
    svd,
    sym_eigen,
    trace_norm,
    weyl_complement_check,
)
from normsum.graphs import quadratic_character
from normsum.linalg import SYMMETRY_TOL, SpectrumPair, _singular_from_eigen, check_dimensions
from normsum.linalg import complement_matrix
from oracles import cycle, invariant_by_rolls


def random_symmetric(rng, n):
    a = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            a[i, j] = a[j, i] = rng.next_double() * 2 - 1
    return a


def test_dense_matrix_basics():
    m = DenseMatrix([[1, 2, 3], [4, 5, 6]])
    assert m.shape == (2, 3)
    assert m.rows == 2 and m.cols == 3
    assert m.entries == [1, 2, 3, 4, 5, 6]
    assert m.entry_min == 1 and m.entry_max == 6
    assert DenseMatrix.from_flat(2, 3, [1, 2, 3, 4, 5, 6]) == m
    assert DenseMatrix.from_json(m.to_json()) == m


def test_dense_matrix_is_immutable():
    m = DenseMatrix([[1.0]])
    with pytest.raises((ValueError, RuntimeError)):
        m.array[0, 0] = 2.0


def test_dense_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        DenseMatrix([1, 2, 3])  # 1-d
    with pytest.raises(ValueError):
        DenseMatrix([[np.nan]])
    with pytest.raises(ValueError):
        DenseMatrix([[np.inf, 0.0]])
    with pytest.raises(ValueError):
        DenseMatrix.from_flat(2, 2, [1, 2, 3])
    with pytest.raises(SizeOverflowError):
        DenseMatrix(np.zeros((1, DIMENSION_CAP + 1)))
    with pytest.raises(ValueError, match=r"^matrix dimensions must be positive, got \(0, 3\)$"):
        DenseMatrix(np.zeros((0, 3)))
    with pytest.raises(ValueError, match="^matrix JSON missing field 'entries'$"):
        DenseMatrix.from_json({"rows": 1, "cols": 1})


def test_lapack_failure_raises_no_convergence(monkeypatch, capsys, tmp_path):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    monkeypatch.setattr(np.linalg, "svd", fail)
    message = "^symmetric eigendecomposition failed: did not converge$"
    with pytest.raises(NoConvergenceError, match=message):
        sym_eigen([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(NoConvergenceError, match="^SVD failed: did not converge$"):
        svd([[0.0, 1.0], [0.0, 0.0]])
    # a symmetric input fails in eigh, any other in svd; both exit 2
    for rows in ("0,1\n1,0\n", "0,1\n0,0\n"):
        path = tmp_path / "m.csv"
        path.write_text(rows)
        assert cli.main(["spectrum", "--matrix", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "failed: did not converge" in captured.err


def test_dense_matrix_keeps_its_entry_range():
    m = DenseMatrix([[0.5, -2.0], [3.0, 0.0]])
    assert (m.entry_min, m.entry_max) == (-2.0, 3.0)
    for bad in (np.nan, np.inf, -np.inf):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^matrix entries must be finite$"):
                DenseMatrix([[0.0, bad], [1.0, 0.0]])


def test_from_flat_reads_only_numbers():
    m = DenseMatrix.from_flat(2, 2, [np.int64(1), np.float32(0.5), 0, 2.0])
    assert m.entries == [1.0, 0.5, 0.0, 2.0]
    assert DenseMatrix.from_flat(1, 2, (1, 0)).entries == [1.0, 0.0]
    for entries, got in (("0110", "a list, got str"), (np.ones(4), "a list, got ndarray")):
        with pytest.raises(ValueError, match=f"^matrix entries must be {got}$"):
            DenseMatrix.from_flat(2, 2, entries)
    for bad in ("1", True, np.bool_(True), None, [1]):
        with pytest.raises(ValueError, match="^matrix entries must be numbers, got "):
            DenseMatrix.from_flat(2, 2, [0, bad, 1, 0])
    with pytest.raises(ValueError, match="^matrix JSON must be an object, got list$"):
        DenseMatrix.from_json([1, 2])


def test_from_flat_checks_the_cap_before_it_reads_the_entries():
    message = r"^matrix of shape \(2, 4097\) exceeds the dimension cap 4096$"
    for entries in ([], "0110"):  # neither the count nor the type is looked at
        with pytest.raises(SizeOverflowError, match=message):
            DenseMatrix.from_flat(2, DIMENSION_CAP + 1, entries)
    with pytest.raises(SizeOverflowError, match=message):
        DenseMatrix(np.zeros((2, DIMENSION_CAP + 1)))


def test_check_dimensions():
    check_dimensions("anything", 1, DIMENSION_CAP)
    with pytest.raises(SizeOverflowError, match="^thing 5 exceeds the dimension cap 4096$"):
        check_dimensions("thing 5", 3, DIMENSION_CAP + 1)


def test_sym_eigen_small_exact():
    eig = sym_eigen([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert np.allclose(eig.values, [2, -1, -1], atol=1e-12)
    assert eig.offdiag_residual < 1e-12

    eig = sym_eigen(np.eye(5))
    assert np.allclose(eig.values, np.ones(5), atol=0)

    eig = sym_eigen(np.diag([3.0, -1.0, 2.0]))
    assert np.allclose(eig.values, [3, 2, -1], atol=0)


def test_sym_eigen_sorted_descending_and_trace():
    rng = SplitMix64(11)
    for _ in range(20):
        n = 2 + rng.next_below(10)
        a = random_symmetric(rng, n)
        vals = sym_eigen(a).values
        assert all(vals[i] >= vals[i + 1] for i in range(n - 1))
        assert abs(sum(vals) - np.trace(a)) <= 1e-9 * (1 + abs(np.trace(a)))


def test_sym_eigen_rejects_bad_shapes():
    with pytest.raises(NonSquareError):
        sym_eigen([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(NonSymmetricError):
        sym_eigen([[0, 1], [0.5, 0]])


def test_svd_small_exact():
    eig = svd([[1, 1, 1], [1, 1, 1]])
    assert np.allclose(eig.values, [math.sqrt(6), 0], atol=1e-12)
    assert eig.residual < 1e-12

    h4 = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], float)
    assert np.allclose(svd(h4).values, [2, 2, 2, 2], atol=1e-12)


def test_svd_matches_eigen_absolute_values():
    # for symmetric input the singular values are the |eigenvalues|
    rng = SplitMix64(5)
    for _ in range(20):
        n = 2 + rng.next_below(12)
        a = random_symmetric(rng, n)
        sing = np.array(svd(a).values)
        eig = np.sort(np.abs(sym_eigen(a).values))[::-1]
        assert np.max(np.abs(sing - eig)) <= 1e-8


def test_svd_square_identity():
    # sum of squared singular values equals the squared frobenius norm
    rng = SplitMix64(17)
    for _ in range(20):
        m = 1 + rng.next_below(10)
        n = 1 + rng.next_below(10)
        a = np.array([[rng.next_double() * 4 - 2 for _ in range(n)] for _ in range(m)])
        s = np.array(svd(a).values)
        lhs = float((s * s).sum())
        rhs = float((a * a).sum())
        assert abs(lhs - rhs) <= 1e-9 * (1 + rhs)


def test_ky_fan_norms():
    c5 = np.zeros((5, 5))
    for i in range(5):
        c5[i, (i + 1) % 5] = c5[(i + 1) % 5, i] = 1
    assert abs(ky_fan_norm(c5, 5) - (2 + 2 * math.sqrt(5))) < 1e-12
    assert abs(ky_fan_norm(c5, 1) - operator_norm(c5)) == 0
    assert abs(trace_norm(c5) - ky_fan_norm(c5, 5)) == 0
    # monotone nondecreasing in k
    vals = [ky_fan_norm(c5, k) for k in range(1, 6)]
    assert all(vals[i] <= vals[i + 1] + 1e-15 for i in range(4))


def test_ky_fan_k_validation():
    a = np.ones((3, 4))
    for bad in (0, -1, 4, 10):
        with pytest.raises(KOutOfRangeError):
            ky_fan_norm(a, bad)
    with pytest.raises(KOutOfRangeError):
        ky_fan_norm(a, 1.5)


def test_operator_norm_power_iteration_oracle():
    # independent largest-singular-value estimate via power iteration on A^T A
    rng = SplitMix64(23)
    for _ in range(5):
        m = 3 + rng.next_below(6)
        n = 3 + rng.next_below(6)
        a = np.array([[rng.next_double() for _ in range(n)] for _ in range(m)])
        x = np.array([rng.next_double() + 0.1 for _ in range(n)])
        for _ in range(2000):
            x = a.T @ (a @ x)
            x /= np.linalg.norm(x)
        est = math.sqrt(float(x @ (a.T @ (a @ x))))
        assert abs(operator_norm(a) - est) <= 1e-7 * (1 + est)


def test_kronecker_structure():
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    b = np.array([[3.0, 1.0, 0.0]])
    k = kronecker(a, b)
    assert k.shape == (2, 6)
    # block (i, j) of the result is a[i, j] * b
    assert np.array_equal(k.array[0, :3], b[0])
    assert np.array_equal(k.array[0, 3:], 2 * b[0])
    assert np.array_equal(k.array[1, :3], np.zeros(3))
    # singular values multiply pairwise
    rng = SplitMix64(31)
    a = np.array([[rng.next_double() for _ in range(3)] for _ in range(3)])
    b = np.array([[rng.next_double() for _ in range(2)] for _ in range(4)])
    sk = np.array(svd(kronecker(a, b)).values)
    prods = np.sort(np.outer(svd(a).values, svd(b).values).ravel())[::-1][: len(sk)]
    assert np.max(np.abs(sk - prods)) <= 1e-8


def test_kronecker_size_cap():
    with pytest.raises(SizeOverflowError):
        kronecker(np.ones((100, 1)), np.ones((100, 1)))


def test_residual_certificates_reported():
    a = random_symmetric(SplitMix64(3), 20)
    assert 0 <= sym_eigen(a).offdiag_residual <= 1e-12 * (1 + np.linalg.norm(a))
    assert 0 <= svd(a).residual <= 1e-12 * (1 + np.linalg.norm(a))


def _symmetric_inputs():
    """Exactly symmetric inputs: graph adjacency matrices, A + I/2 for them,
    and random indefinite matrices."""
    rng = SplitMix64(41)
    graphs = [adjacency_matrix(g).array for g in (cycle(7), paley_graph(13), paley_graph(25))]
    shifted = [a + np.eye(a.shape[0]) / 2.0 for a in graphs]
    indefinite = [random_symmetric(rng, n) for n in (1, 2, 5, 16, 33)]
    return graphs + shifted + indefinite


def test_svd_of_exactly_symmetric_input_skips_lapack_svd(monkeypatch):
    inputs = _symmetric_inputs()
    expected = [np.linalg.svd(a, compute_uv=False) for a in inputs]

    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd reached on exactly symmetric input")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    for a, ref in zip(inputs, expected):
        spec = svd(a)
        assert np.max(np.abs(np.array(spec.values) - ref)) <= 1e-12 * (1 + np.linalg.norm(a))
        assert 0 <= spec.residual <= 1e-12 * (1 + np.linalg.norm(a))


def test_svd_of_nearly_symmetric_input_uses_lapack_svd(monkeypatch):
    a = random_symmetric(SplitMix64(43), 6)
    a[0, 1] += SYMMETRY_TOL / 2  # symmetric within tolerance, but not exactly
    calls = []
    real_svd = np.linalg.svd

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    sym_eigen(a)  # the tolerance still admits it as symmetric
    spec = svd(a)
    assert calls == [(6, 6)]
    assert np.allclose(spec.values, real_svd(a, compute_uv=False), rtol=0, atol=1e-12)


def test_forged_eigh_result_fails_the_svd_certificate(monkeypatch):
    a = random_symmetric(SplitMix64(47), 8)
    real_eigh = np.linalg.eigh

    def forged(arr):
        w, q = real_eigh(arr)
        return w + 1e-6, q

    monkeypatch.setattr(np.linalg, "eigh", forged)
    with pytest.raises(NoConvergenceError):
        svd(a)
    with pytest.raises(NoConvergenceError):
        sym_eigen(a)


@pytest.mark.parametrize("n", [16, 32, 64])
def test_eigh_basis_factors_a_stack_as_its_matrices(n):
    # the annealing screen factors A and J - I - A in one call
    rng = np.random.default_rng(n)
    up = np.triu(rng.random((n, n)) < 0.5, 1)
    a = (up | up.T).astype(np.float64)
    stack = np.stack([a, 1.0 - np.eye(n) - a])
    w, q, residuals = linalg.eigh_basis(stack)
    assert w.shape == (2, n) and q.shape == (2, n, n) and len(residuals) == 2
    for member, values, vectors, residual in zip(stack, w, q, residuals):
        alone = linalg.eigh_basis(member)
        assert np.array_equal(values, alone[0]) and np.array_equal(vectors, alone[1])
        assert residual == alone[2]


def test_eigh_basis_certifies_each_matrix_of_a_stack(monkeypatch):
    a = random_symmetric(SplitMix64(47), 8)
    stack = np.stack([a, a + 1.0])
    real_eigh = np.linalg.eigh

    def forged(arr):
        w, q = real_eigh(arr)
        if arr.ndim == 3:
            w[1] += 1e-6  # the second matrix of a stack alone
        return w, q

    monkeypatch.setattr(np.linalg, "eigh", forged)
    assert linalg.eigh_basis(stack[1])[2] <= 1e-12
    with pytest.raises(NoConvergenceError):
        linalg.eigh_basis(stack)


def test_dense_matrix_keeps_its_measured_asymmetry():
    mat = DenseMatrix([[0, 1.0], [0.5, 0]])
    assert mat._asymmetry() == 0.5
    mat._asym = -1.0  # a stand-in: a second read must not measure again
    assert mat._asymmetry() == -1.0
    assert DenseMatrix([[1.0, 2.0]])._asymmetry() == math.inf


def test_nan_residual_fails_the_certificate():
    # entries near the float64 maximum overflow inside the LAPACK SVD: its
    # values come back infinite and the reconstruction residual is NaN
    a = np.array(
        [
            [1.7e308, -1.7e308, 0, 1e307, 0],
            [0, 1.7e308, 1e307, 0, -1.7e308],
            [1e307, 0, 0, 1.7e308, 0],
            [0, 0, -1.7e308, 0, 1e307],
        ]
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NoConvergenceError):
            svd(a)
    with pytest.raises(NoConvergenceError, match="residual nan"):
        linalg._certify(math.nan, np.eye(2), "test")


def test_frobenius_rescales_only_a_sum_of_squares_that_overflows():
    rng = np.random.default_rng(3)
    for a in (rng.standard_normal((7, 5)), np.array([[1e150, -3.0]]), np.zeros((2, 2))):
        assert linalg._frobenius(a) == float(np.sqrt((a * a).sum()))
    with np.errstate(over="raise"):  # the overflowing sum is taken without a warning
        assert linalg._frobenius(np.array([[0, 1e308], [1e308, 0]])) == pytest.approx(
            math.sqrt(2) * 1e308, rel=1e-15
        )
        assert linalg._frobenius(np.array([[1.7e308, 1.7e308]])) == math.inf
    assert math.isnan(linalg._frobenius(np.array([[math.nan, 1e300]])))


def test_certificates_reject_overflowing_factorizations():
    # 4x5 draws from {±1.7e308, 1e307, 0}: ||A||_F overflows, so the
    # threshold is infinite and no certificate may pass
    rng = np.random.default_rng(0)
    accepted = []
    for _ in range(50):
        a = rng.choice([1.7e308, -1.7e308, 1e307, 0.0], size=(4, 5))
        try:
            with np.errstate(all="ignore"):
                accepted.append(svd(a))
        except NoConvergenceError:
            pass
    assert accepted == []
    with pytest.raises(NoConvergenceError, match="threshold inf"):
        linalg._certify(0.0, np.array([[1.7e308, 1.7e308]]), "test")
    with pytest.raises(NoConvergenceError, match="residual inf"):
        linalg._certify(math.inf, np.eye(2), "test")


@pytest.mark.parametrize("n", [1, 2, 5, 255, 256, 257, 515])
def test_tiled_asymmetry_is_the_max_over_the_whole_array(n):
    rng = np.random.default_rng(n)
    sym = rng.standard_normal((n, n))
    sym = sym + sym.T
    inputs = [sym]
    for _ in range(4):  # asymmetric copies, one or a few cells off anywhere
        a = sym.copy()
        for _ in range(1 + int(rng.integers(3))):
            i, j = rng.integers(n, size=2)
            a[i, j] += rng.standard_normal() * 10.0 ** -int(rng.integers(16))
        inputs.append(a)
    last = sym.copy()
    last[n - 1, 0] += 0.25  # in the last row, first column
    inputs.append(last)
    inputs.append(rng.standard_normal((n, n)))
    for a in inputs:
        assert DenseMatrix(a)._asymmetry() == float(np.abs(a - a.T).max())
    assert DenseMatrix(sym)._asymmetry() == 0.0
    assert DenseMatrix(np.ones((n, n + 1)))._asymmetry() == math.inf


def test_array_copy_is_writable_and_asarray_is_not_a_copy():
    m = DenseMatrix([[1.0, 2.0], [3.0, 4.0]])
    for dtype in (None, np.float64, np.float32):
        out = np.array(m, dtype=dtype)
        assert out.dtype == (dtype or np.float64) and out.flags.writeable
        assert not np.shares_memory(out, m.array)
        out[0, 0] = 9.0
    assert m.array[0, 0] == 1.0
    for view in (np.asarray(m), np.asarray(m, copy=False)):
        assert np.shares_memory(view, m.array) and not view.flags.writeable
    assert np.asarray(m, dtype=np.float32).dtype == np.float32
    with pytest.raises(ValueError):
        np.asarray(m, dtype=np.float32, copy=False)


def test_sym_eigen_of_entries_near_the_float_maximum():
    # a + a.T would overflow; an exactly symmetric input is factored as it is
    with np.errstate(over="ignore"):
        assert sym_eigen([[0, 1e308], [1e308, 0]]).values == (1e308, -1e308)


def test_sym_eigen_symmetrizes_only_inexactly_symmetric_input(monkeypatch):
    factored = []
    real = linalg.eigh_basis
    monkeypatch.setattr(linalg, "eigh_basis", lambda a: factored.append(a) or real(a))
    for a in _symmetric_inputs():
        mat = DenseMatrix(a)
        eig = sym_eigen(mat)
        assert factored.pop() is mat.array
        # bit for bit what the symmetrized copy gives
        w, _, residual = real((a + a.T) / 2.0)
        assert eig == linalg.EigenSpectrum(tuple(w[::-1].tolist()), residual)
    near = random_symmetric(SplitMix64(61), 6)
    near[0, 1] += SYMMETRY_TOL / 2
    sym_eigen(near)
    assert np.array_equal(factored.pop(), (near + near.T) / 2.0)


def test_singular_values_of_a_shift_come_from_one_eigh():
    for a in _symmetric_inputs():
        n = a.shape[0]
        eig = sym_eigen(a)
        assert _singular_from_eigen(eig) == svd(a)  # bit for bit, residual included
        for shift in (0.5, -1.25):
            ref = np.linalg.svd(a + shift * np.eye(n), compute_uv=False)
            got = _singular_from_eigen(eig, shift)
            assert np.max(np.abs(np.array(got.values) - ref)) <= 1e-12 * (1 + np.linalg.norm(a))
            assert got.residual == eig.offdiag_residual


def test_spectrum_pair_eigenvalues_only_for_symmetric_input(monkeypatch):
    rng = SplitMix64(53)
    exact = random_symmetric(rng, 5)
    near = exact.copy()
    near[0, 1] += SYMMETRY_TOL / 2
    far = exact.copy()
    far[0, 1] += 1e-6
    rect = np.array([[rng.next_double() for _ in range(3)] for _ in range(2)])
    factored = []
    real = linalg.eigh_basis

    def counting(a):
        factored.append(a.shape)
        return real(a)

    monkeypatch.setattr(linalg, "eigh_basis", counting)
    pair = SpectrumPair(DenseMatrix(exact), graph=True)
    for i in (0, 1):
        for shift in (0.0, 0.5):
            assert pair.sing(i, shift) == _singular_from_eigen(pair.eig(i), shift)
    assert pair.symmetric and factored == [(5, 5)] * 2  # X and J - I - X, once each
    assert pair.eig(0) == sym_eigen(exact) and pair.eig(1) == sym_eigen(complement_matrix(exact))
    for a, symmetric in ((near, True), (far, False), (rect, False)):
        pair = SpectrumPair(DenseMatrix(a), graph=False)
        assert pair.symmetric == symmetric
        assert not symmetric or pair.eig(0) == sym_eigen(a)
        assert pair.sing(0) == svd(a) and pair.sing(1) == svd(np.ones(a.shape) - a)
    pair = SpectrumPair(DenseMatrix(far), graph=True)
    assert pair.sing(0, -1.25) == svd(far - 1.25 * np.eye(5))
    assert pair.sing(1, -1.25) == svd(complement_matrix(far) - 1.25 * np.eye(5))


def test_complement_matrix_is_the_explicit_j_minus_i_minus_a():
    rng = np.random.default_rng(3)
    stack = rng.integers(0, 2, size=(4, 5, 5)).astype(np.float64)
    stack[1] = rng.random((5, 5))
    stack[2, range(5), range(5)] = -0.0
    cases = [
        (complement_matrix(stack), np.ones((5, 5)) - np.eye(5) - stack),
        (complement_matrix(stack[1, :1]), np.ones((1, 5)) - np.eye(1, 5) - stack[1, :1]),
        (complement_matrix(stack[1, :3], graph=False), np.ones((3, 5)) - stack[1, :3]),
    ]
    for got, want in cases:  # bit for bit, signed zeros included
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_dense_matrix_json_integer_check():
    with pytest.raises(ValueError):
        DenseMatrix.from_json({"rows": 1.5, "cols": 2, "entries": [1, 2]})
    for rows, cols in ((1, 2.0), (True, 2), ("1", 2)):
        with pytest.raises(ValueError):
            DenseMatrix.from_json({"rows": rows, "cols": cols, "entries": [1, 2]})
    m = DenseMatrix.from_json({"rows": np.int64(1), "cols": 2, "entries": [1, 2]})
    assert m.shape == (1, 2)


def test_ky_fan_checks_k_before_it_factors(monkeypatch):
    def no_factoring(*args, **kwargs):
        raise AssertionError("a matrix was factored for a bad k")

    for name in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, no_factoring)
    # the rectangular input goes to svd, the symmetric one to eigh
    for a in (np.ones((3, 4)), random_symmetric(SplitMix64(5), 4)):
        for bad in (0, -1, min(a.shape) + 1, 2.0, True, "2"):
            with pytest.raises(KOutOfRangeError):
                ky_fan_norm(a, bad)


def test_ky_fan_integer_check():
    a = np.ones((3, 4))
    for bad in (2.0, True, "2"):
        with pytest.raises(KOutOfRangeError):
            ky_fan_norm(a, bad)
    assert ky_fan_norm(a, np.int64(2)) == ky_fan_norm(a, 2)


# ---------------------------------------------------------------------------
# Structured spectra: translation-invariant input against dense eigh


def _cayley_matrix(row, p, e):
    """The (Z_p)^e-translation-invariant matrix with first row ``row``, vertex
    v labelled by its base-p digits, most significant first: entry (u, v) is
    row[v - u]."""
    n = p**e
    weights = p ** np.arange(e - 1, -1, -1)
    digits = (np.arange(n)[:, None] // weights) % p
    return np.asarray(row)[((digits[None, :, :] - digits[:, None, :]) % p) @ weights]


def _structured(a):
    """(ascending eigenvalues, certified residual) of a from the character
    transform of its row 0 once a passes the invariance comparison, else
    None. The order floor is lowered to 2, so small examples take it too."""
    with unittest.mock.patch.object(linalg, "STRUCTURED_MIN_N", 2):
        grid = DenseMatrix(a)._invariance()
    return linalg._character_eigh(a[0].reshape(grid)) if grid else None


def _assert_structured_matches_dense(a):
    fast = _structured(a)
    assert fast is not None
    w, residual = fast
    ref, q = np.linalg.eigh(a)
    ref_residual = np.linalg.norm(a @ q - q * ref)
    # each computed spectrum lies within its residual of the exact one; the
    # last term covers rounding when both residuals come out as 0.0
    rounding = 4 * np.finfo(float).eps * (1 + np.linalg.norm(a))
    assert np.abs(w - ref).max() <= residual + ref_residual + rounding
    assert 0 <= residual <= linalg.CERT_FACTOR * (1 + np.linalg.norm(a))


def _paley_type(q):
    """Adjacency of the Paley graph for q = 1 (mod 4). For q = 3 (mod 4) the
    squares give the Paley tournament T instead, and T T^T is returned."""
    t = (quadratic_character(q) == 1).astype(np.float64)
    return t if q % 4 == 1 else t @ t.T


@pytest.mark.parametrize("q", [5, 9, 13, 25, 27, 81, 125, 401, 729, 1009])
def test_structured_spectrum_of_paley_graphs_matches_eigh(q):
    a = _paley_type(q)
    _assert_structured_matches_dense(a)
    _assert_structured_matches_dense(complement_matrix(a))


@st.composite
def invariant_matrices(draw):
    """Exactly symmetric (Z_p)^e-invariant matrices from a random real row."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    e = draw(st.integers(min_value=1, max_value=3))
    n = p**e
    row = np.array(draw(st.lists(st.floats(-1, 1), min_size=n, max_size=n)))
    weights = p ** np.arange(e - 1, -1, -1)
    negated = ((-((np.arange(n)[:, None] // weights) % p)) % p) @ weights
    return _cayley_matrix((row + row[negated]) / 2, p, e)


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(invariant_matrices())
def test_structured_spectrum_of_random_invariant_rows_matches_eigh(a):
    assert np.array_equal(a, a.T)
    _assert_structured_matches_dense(a)


def _eigh_spy(monkeypatch):
    calls = []
    real = np.linalg.eigh

    def spy(arr):
        calls.append(arr.shape)
        return real(arr)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return calls


def test_paley_spectra_skip_eigh(monkeypatch):
    g = paley_graph(401)
    calls = _eigh_spy(monkeypatch)
    verdict = check_bound("main", g)
    assert calls == [] and verdict.equality
    assert equality_analysis(g).overall and weyl_complement_check(g).ok
    assert calls == []


@pytest.mark.parametrize("q", [401, 729])
def test_paley_checks_read_the_partner_from_row_0(monkeypatch, q):
    g = paley_graph(q)
    a = adjacency_matrix(g).array
    dense = [sym_eigen(a), sym_eigen(complement_matrix(a))]
    built = []
    real_init = DenseMatrix.__init__

    def init(mat, data):
        built.append(np.shape(data))
        real_init(mat, data)

    monkeypatch.setattr(DenseMatrix, "__init__", init)

    rows = []

    def row_only(a, graph=True):
        rows.append(a.shape[-2])
        if rows[-1] > 1:
            pytest.fail(f"J - I - A built on {rows[-1]} rows")
        return complement_matrix(a, graph)

    for module in (linalg, search):
        monkeypatch.setattr(module, "complement_matrix", row_only)
    calls = _eigh_spy(monkeypatch)
    assert check_bound("main", g).equality
    assert weyl_complement_check(g).ok and equality_analysis(g).overall
    pair = SpectrumPair(adjacency_matrix(g), graph=True)
    assert [pair.eig(0), pair.eig(1)] == dense  # bit for bit, residuals included
    assert calls == [] and built == [(q, q)] * 4  # A, once per check and once for the pair
    assert rows and set(rows) == {1}  # each partner spectrum read row 0 of J - I - A


def test_flipped_edge_factors_the_input_and_derives_its_partner(monkeypatch):
    a = _flip(adjacency_matrix(paley_graph(401)).array, 200, 300)
    calls = _eigh_spy(monkeypatch)
    pair = SpectrumPair(DenseMatrix(a), graph=True)
    assert weyl_complement_check(pair).ok and check_bound("main", pair).holds
    assert calls == [(401, 401)]
    # within 1e-12 ||X||_F of the dense partner, and certified
    y = complement_matrix(a)
    dense, derived = sym_eigen(y), pair.eig(1)
    assert np.abs(np.subtract(derived.values, dense.values)).max() <= 1e-12 * np.linalg.norm(a)
    assert derived.offdiag_residual <= linalg.CERT_FACTOR * (1 + np.linalg.norm(y))


def test_structured_certificate_sums_no_more_than_n_squares(monkeypatch):
    a = adjacency_matrix(paley_graph(401)).array
    sizes = []
    real = linalg._sum_of_squares

    def spy(arr):
        sizes.append(arr.size)
        return real(arr)

    monkeypatch.setattr(linalg, "_sum_of_squares", spy)
    sym_eigen(a)
    assert sizes and max(sizes) <= 401


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(invariant_matrices())
def test_structured_threshold_is_the_frobenius_norm_of_the_input(a):
    scales = []
    real = linalg._certify

    def spy(residual, scale, what):
        scales.append(scale)
        return real(residual, scale, what)

    with unittest.mock.patch.object(linalg, "_certify", spy):
        assert _structured(a) is not None
    (scale,) = scales
    assert scale.size == a.shape[0]
    old, new = (linalg.CERT_FACTOR * (1 + linalg._frobenius(x)) for x in (a, scale))
    assert new == pytest.approx(old, rel=1e-12, abs=0)


def test_forged_fft_result_fails_the_certificate(monkeypatch):
    a = adjacency_matrix(paley_graph(401)).array
    real_fftn = np.fft.fftn
    monkeypatch.setattr(np.fft, "fftn", lambda x: real_fftn(x) + 1e-6)
    with pytest.raises(NoConvergenceError):
        _structured(a)
    with pytest.raises(NoConvergenceError):
        sym_eigen(a)
    pair = SpectrumPair(DenseMatrix(a), graph=True)
    for i in (0, 1):
        with pytest.raises(NoConvergenceError):
            pair.eig(i)


def test_flipped_edge_is_rejected_and_factored_densely(monkeypatch):
    a = adjacency_matrix(paley_graph(401)).array.copy()
    a[200, 300] = a[300, 200] = 1.0 - a[200, 300]  # rows 0 and 1 untouched
    assert DenseMatrix(a)._invariance() == ()
    calls = _eigh_spy(monkeypatch)
    verdict = check_bound("main", a)
    assert calls == [(401, 401)]  # the partner's spectrum is derived
    assert verdict.holds and not verdict.equality


def test_nearly_symmetric_invariant_input_is_factored_densely(monkeypatch):
    # P401 plus an invariant antisymmetric 2^-45 pattern: not exactly
    # symmetric, and its symmetrized copy is P401 itself, bit for bit
    paley = adjacency_matrix(paley_graph(401)).array
    odd = np.where(np.arange(401) <= 200, 2.0**-45, -(2.0**-45))
    odd[0] = 0.0
    a = paley + _cayley_matrix(odd, 401, 1)
    assert 0.0 < DenseMatrix(a)._asymmetry() <= SYMMETRY_TOL
    assert np.array_equal((a + a.T) / 2.0, paley)
    compared = _comparison_spy(monkeypatch)
    calls = _eigh_spy(monkeypatch)
    eig = sym_eigen(a)
    assert calls == [(401, 401)] and compared == []
    w, _, residual = linalg.eigh_basis(paley)
    assert eig == linalg.EigenSpectrum(tuple(w[::-1].tolist()), residual)


def _comparison_spy(monkeypatch):
    """The order of each matrix linalg compares with its difference table."""
    compared = []
    real = linalg._difference_table
    monkeypatch.setattr(
        linalg, "_difference_table", lambda row, p, e: compared.append(row.size) or real(row, p, e)
    )
    return compared


def test_random_graph_is_rejected_and_factored_densely(monkeypatch):
    g, paley = _random_graph(401), paley_graph(401)
    assert DenseMatrix(adjacency_matrix(g).array)._invariance() == ()
    compared = _comparison_spy(monkeypatch)
    calls = _eigh_spy(monkeypatch)
    check_bound("main", g)
    assert calls == [(401, 401)]  # the partner's spectrum is derived
    # one comparison per input matrix, none for its partner (three before)
    assert compared == [401]
    weyl_complement_check(g)
    assert calls == [(401, 401)] * 2 and compared == [401] * 2
    check_bound("main", paley)
    assert calls == [(401, 401)] * 2 and compared == [401] * 3


def _random_graph(n):
    return Graph(n=n, bits=SplitMix64(59).next_bits(n * (n - 1) // 2))


def _flip(a, u, v):
    a = a.copy()
    a[u, v] = a[v, u] = 1.0 - a[u, v]
    return a


def _invariant_along_axis_0_only():
    """A symmetric matrix on (Z_3)^5 that is invariant under the translations
    of digit 0 alone: A[u, v] = r[u_0 - v_0] + B[u', v'] for an even r and a
    symmetric B over the other four digits u', v'."""
    rng = np.random.default_rng(3)
    r = rng.standard_normal(3)
    r[2] = r[1]
    b = rng.standard_normal((81, 81))
    b = b + b.T
    d = np.arange(243) // 81
    return r[(d[:, None] - d[None, :]) % 3] + b[np.ix_(np.arange(243) % 81, np.arange(243) % 81)]


def _comparison_inputs():
    paley = {q: adjacency_matrix(paley_graph(q)).array for q in (401, 729, 1009)}
    yield from paley.values()
    yield from (complement_matrix(a) for a in paley.values())
    yield _flip(paley[401], 200, 300)
    yield _flip(paley[729], 400, 401)  # vertices that differ only in the last digit
    yield from (adjacency_matrix(_random_graph(n)).array for n in (401, 729))
    yield _invariant_along_axis_0_only()


def test_difference_comparison_agrees_with_the_roll_oracle():
    verdicts = []
    for a in _comparison_inputs():
        assert np.array_equal(a, a.T)
        verdicts.append(DenseMatrix(a)._invariance() != ())
        assert verdicts[-1] == invariant_by_rolls(a)
    assert verdicts == [True] * 6 + [False] * 5


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(invariant_matrices())
def test_difference_comparison_accepts_what_the_roll_oracle_accepts(a):
    assert invariant_by_rolls(a) and _structured(a) is not None


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("e", [1, 2, 3])
def test_difference_table_is_the_transposed_cayley_matrix(p, e):
    q = p**e
    row = np.random.default_rng(q).standard_normal(q)
    cayley = _cayley_matrix(row, p, e)
    # column 0 is row[-v]: the row is not even (over (Z_2)^e every row is)
    assert p == 2 or not np.array_equal(row, cayley[:, 0])
    assert np.array_equal(linalg._difference_table(row, p, e), cayley.T)


def test_orders_below_the_floor_stay_dense(monkeypatch):
    row = np.zeros(128)
    row[[1, 2, 5, 33, 64, 100]] = 1.0  # every element of (Z_2)^7 is its own negative
    small = [adjacency_matrix(paley_graph(q)).array for q in (13, 125)] + [
        _cayley_matrix(row[:64], 2, 6)
    ]
    taken = _comparison_spy(monkeypatch)
    calls = _eigh_spy(monkeypatch)
    for a in small:
        sym_eigen(a)
        svd(a)
    assert taken == [] and len(calls) == 2 * len(small)
    assert linalg.STRUCTURED_MIN_N == 128
    sym_eigen(_cayley_matrix(row, 2, 7))
    assert taken == [128] and len(calls) == 2 * len(small)
