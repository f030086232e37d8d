import math

import numpy as np
import pytest

from normsum import (
    BadOrientationError,
    HadamardMatrix,
    DenseMatrix,
    OddProductError,
    SizeOverflowError,
    UnsupportedOrderError,
    hadamard,
    ky_fan_norm,
    kyfan_extremal_matrix,
    operator_norm,
    opnorm_extremal_matrix,
    svd,
)

SUPPORTED_SMALL_ORDERS = [1, 2, 4, 8, 12, 16, 20, 24, 28, 32]


def test_hadamard_supported_orders():
    # construction self-verifies H H^T = order * I exactly; building is the test
    for order in SUPPORTED_SMALL_ORDERS:
        h = hadamard(order)
        assert h.order == order
        assert h.entries.shape == (order, order)
        gram = h.entries.array.astype(np.int64) @ h.entries.array.astype(np.int64).T
        assert np.array_equal(gram, order * np.eye(order, dtype=np.int64))



@pytest.mark.parametrize("q", [27, 243, 343])
def test_hadamard_from_prime_power_field(q):
    # Paley's q + 1 construction with the GF(q) character, q = 3 (mod 4);
    # the constructor verifies H H^T = (q + 1) I exactly
    assert hadamard(q + 1).order == q + 1

def test_hadamard_base_cases():
    assert np.array_equal(hadamard(1).entries.array, [[1]])
    assert np.array_equal(hadamard(2).entries.array, [[1, 1], [1, -1]])


def test_hadamard_singular_values():
    # all singular values of an order-n Hadamard matrix equal sqrt(n)
    for order in (4, 12, 20):
        vals = np.array(svd(hadamard(order).entries).values)
        assert np.max(np.abs(vals - math.sqrt(order))) < 1e-10


def test_hadamard_unsupported_orders():
    for order in (3, 5, 6, 10, 22, 34):
        with pytest.raises(UnsupportedOrderError):
            hadamard(order)
    with pytest.raises(UnsupportedOrderError):
        hadamard(0)
    with pytest.raises(UnsupportedOrderError):
        hadamard(-4)


def test_hadamard_integer_check():
    for bad in (4.0, True, "4"):
        with pytest.raises(UnsupportedOrderError):
            hadamard(bad)
    assert hadamard(np.int64(12)) == hadamard(12)


def test_hadamard_type_rejects_fakes():
    with pytest.raises(ValueError):
        HadamardMatrix(order=2, entries=DenseMatrix([[1, 1], [1, 1]]))
    with pytest.raises(ValueError):
        HadamardMatrix(order=2, entries=DenseMatrix([[0.5, 1], [1, -1]]))
    with pytest.raises(ValueError, match=r"^entries shape \(2, 2\) does not match order 4$"):
        HadamardMatrix(order=4, entries=DenseMatrix([[1, 1], [1, -1]]))


def test_hadamard_check_sees_one_flipped_entry():
    # a flip keeps every row norm, so only the off-diagonal Gram entries fail
    h = hadamard(64).entries.array.copy()
    h[17, 40] = -h[17, 40]
    with pytest.raises(ValueError, match="H H"):
        HadamardMatrix(order=64, entries=DenseMatrix(h))


def test_kyfan_extremal_smallest_case_is_identity():
    a = kyfan_extremal_matrix(2, 1, 1)
    assert np.array_equal(a.array, np.eye(2))


def test_kyfan_extremal_is_zero_one():
    for (k, p, q) in [(2, 1, 1), (3, 1, 1), (5, 1, 1), (9, 1, 1), (3, 2, 1), (5, 2, 3)]:
        a = kyfan_extremal_matrix(k, p, q)
        assert a.shape == (2 * p * (k - 1), 2 * q * (k - 1))
        assert set(np.unique(a.array)) <= {0.0, 1.0}


def test_kyfan_extremal_singular_structure():
    # sigma_1 = sqrt(mn)/2, sigma_2..k = sqrt(mn)/(2 sqrt(k-1)), rest zero
    for (k, p, q) in [(3, 1, 1), (5, 1, 1), (3, 2, 1)]:
        a = kyfan_extremal_matrix(k, p, q)
        m, n = a.shape
        vals = np.array(svd(a).values)
        root = math.sqrt(m * n)
        assert abs(vals[0] - root / 2) < 1e-9
        tail = root / (2 * math.sqrt(k - 1))
        assert np.max(np.abs(vals[1:k] - tail)) < 1e-9
        assert np.max(np.abs(vals[k:])) < 1e-9 if len(vals) > k else True


def test_kyfan_extremal_norm_sum_equality():
    for (k, p, q) in [(2, 1, 1), (3, 1, 1), (5, 1, 1), (9, 1, 1), (3, 2, 1)]:
        a = kyfan_extremal_matrix(k, p, q)
        m, n = a.shape
        lhs = ky_fan_norm(a, k) + ky_fan_norm(np.ones((m, n)) - a.array, k)
        rhs = math.sqrt(m * n) * (1 + math.sqrt(k - 1))
        assert abs(lhs - rhs) <= 1e-8


def test_kyfan_extremal_complement_same_singular_values():
    for (k, p, q) in [(3, 1, 1), (5, 1, 1), (3, 2, 1)]:
        a = kyfan_extremal_matrix(k, p, q)
        comp = np.ones(a.shape) - a.array
        va = np.array(svd(a).values)
        vc = np.array(svd(comp).values)
        assert np.max(np.abs(va - vc)) <= 1e-8


def test_kyfan_extremal_validation():
    with pytest.raises(ValueError):
        kyfan_extremal_matrix(1, 1, 1)
    with pytest.raises(ValueError):
        kyfan_extremal_matrix(3, 0, 1)
    with pytest.raises(UnsupportedOrderError):
        kyfan_extremal_matrix(7, 1, 1)  # needs a Hadamard of order 6
    with pytest.raises(SizeOverflowError):
        kyfan_extremal_matrix(3, 2000, 1)


def test_kyfan_extremal_integer_check():
    for args in ((3, 1.5, 1), (3.0, 1, 1), (3, True, True), (True, 1, 1), (3, 1, "2")):
        with pytest.raises(ValueError, match="integer"):
            kyfan_extremal_matrix(*args)
    built = kyfan_extremal_matrix(np.int64(5), np.int64(2), np.int64(3))
    assert built == kyfan_extremal_matrix(5, 2, 3)


def test_opnorm_extremal_layouts():
    assert np.array_equal(opnorm_extremal_matrix(2, 2, "columns").array, [[1, 0], [1, 0]])
    assert np.array_equal(
        opnorm_extremal_matrix(2, 3, "rows").array, [[1, 1, 1], [0, 0, 0]]
    )
    a = opnorm_extremal_matrix(4, 6, "columns").array
    assert a[:, :3].sum() == 12 and a[:, 3:].sum() == 0


def test_opnorm_extremal_attains_bound():
    for (m, n, ori) in [(2, 2, "columns"), (2, 3, "rows"), (4, 6, "columns"), (6, 4, "rows")]:
        a = opnorm_extremal_matrix(m, n, ori)
        lhs = operator_norm(a) + operator_norm(np.ones((m, n)) - a.array)
        assert abs(lhs - math.sqrt(2 * m * n)) <= 1e-9


def test_opnorm_extremal_validation():
    with pytest.raises(OddProductError):
        opnorm_extremal_matrix(3, 3, "columns")
    with pytest.raises(BadOrientationError):
        opnorm_extremal_matrix(2, 3, "columns")  # odd column count
    with pytest.raises(BadOrientationError):
        opnorm_extremal_matrix(3, 4, "rows")  # odd row count
    with pytest.raises(BadOrientationError):
        opnorm_extremal_matrix(2, 2, "diagonal")
    with pytest.raises(ValueError):
        opnorm_extremal_matrix(0, 2, "columns")


def test_opnorm_extremal_integer_check():
    for args in ((2.0, 2, "rows"), (2, 4.0, "columns"), (True, 2, "columns"), (2, True, "rows")):
        with pytest.raises(ValueError, match="integer"):
            opnorm_extremal_matrix(*args)
    built = opnorm_extremal_matrix(np.int64(4), np.int64(6), "columns")
    assert built == opnorm_extremal_matrix(4, 6, "columns")
