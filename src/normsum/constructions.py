"""Builders for the matrices that sit on the equality edge of the norm bounds:
Hadamard matrices, the Kronecker family whose top k singular values exhaust
the Ky Fan bound, and the half-ones blocks that exhaust the operator-norm
bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadOrientationError, OddProductError, UnsupportedOrderError
from .errors import as_int, as_positive_int
from .graphs import quadratic_character
from .linalg import DenseMatrix, _prime_power_split, check_dimensions, kronecker


@dataclass(frozen=True)
class HadamardMatrix:
    """A +-1 matrix H with H H^T = order * I, checked exactly at construction."""

    order: int
    entries: DenseMatrix

    def __post_init__(self):
        if self.entries.shape != (self.order, self.order):
            raise ValueError(
                f"entries shape {self.entries.shape} does not match order {self.order}"
            )
        h = self.entries.array
        if not np.all(np.abs(h) == 1.0):
            raise ValueError("Hadamard entries must be exactly +-1")
        # float64 so the product runs through BLAS; it is exact, as every entry
        # is +-1 and every sum an integer of size at most order < 2^53
        if not np.array_equal(h @ h.T, self.order * np.eye(self.order)):
            raise ValueError(f"H H^T != {self.order} I, construction rejected")


def _sylvester(order: int) -> np.ndarray:
    h = np.array([[1]], dtype=np.int64)
    while h.shape[0] < order:
        h = np.block([[h, h], [h, -h]])
    return h


def _paley_hadamard(order: int) -> np.ndarray:
    """Order q+1 for a prime power q = 3 (mod 4): all-ones border around the
    quadratic-character table minus the identity."""
    q = order - 1
    h = np.ones((order, order), dtype=np.int64)
    h[1:, 1:] = quadratic_character(q) - np.eye(q, dtype=np.int64)
    return h


def hadamard(order: int) -> HadamardMatrix:
    """A Hadamard matrix of the given order, verified exactly.

    Supported orders: 1, 2, any power of 2 (doubling), and q + 1 for a prime
    power q = 3 (mod 4) (character construction), up to ``DIMENSION_CAP``.
    Every multiple of 4 up to 32 is covered; 36 is the first that is not.
    """
    order = as_positive_int(order, "order", UnsupportedOrderError)
    check_dimensions(f"order {order}", order)
    if order & (order - 1) == 0:
        h = _sylvester(order)
    else:
        split = _prime_power_split(order - 1)
        if split is not None and (order - 1) % 4 == 3:
            h = _paley_hadamard(order)
        else:
            raise UnsupportedOrderError(
                f"no supported construction for order {order}: not a power of 2 "
                f"and {order - 1} is not a prime power = 3 (mod 4)"
            )
    return HadamardMatrix(order=order, entries=DenseMatrix(h.astype(np.float64)))


def kyfan_extremal_matrix(k: int, p: int, q: int) -> DenseMatrix:
    """The (0,1)-matrix of size 2p(k-1) x 2q(k-1) whose Ky Fan k-norm, joined
    with that of its complement, meets sqrt(mn)(1 + sqrt(k-1)).

    Built as half of (H' (x) J_{p,q}) + J, where H' doubles a Hadamard matrix
    of order k-1 into [[H, -H], [-H, H]]. Its nonzero singular values are
    sigma_1 = sqrt(mn)/2 and sigma_2 = ... = sigma_k = sqrt(mn)/(2 sqrt(k-1)).
    """
    k, p, q = as_int(k, "k"), as_positive_int(p, "p"), as_positive_int(q, "q")
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    m = 2 * p * (k - 1)
    n = 2 * q * (k - 1)
    check_dimensions(f"result {m}x{n}", m, n)
    h = hadamard(k - 1).entries
    hprime = kronecker(DenseMatrix([[1.0, -1.0], [-1.0, 1.0]]), h)
    block = kronecker(hprime, DenseMatrix(np.ones((p, q))))
    return DenseMatrix((block.array + np.ones((m, n))) / 2.0)


def opnorm_extremal_matrix(m: int, n: int, orientation: str) -> DenseMatrix:
    """The m x n (0,1)-matrix with mn/2 ones packed into the first n/2 columns
    (orientation "columns") or the first m/2 rows (orientation "rows").

    These are the matrices for which the largest singular values of A and of
    its complement J - A sum to sqrt(2mn); that needs mn even.
    """
    m, n = as_positive_int(m, "m"), as_positive_int(n, "n")
    check_dimensions(f"result {m}x{n}", m, n)
    if (m * n) % 2 != 0:
        raise OddProductError(f"mn = {m * n} is odd; no half-ones split exists")
    if orientation not in ("rows", "columns"):
        raise BadOrientationError(f"orientation must be 'rows' or 'columns', got {orientation!r}")
    a = np.zeros((m, n), dtype=np.float64)
    if orientation == "columns":
        if n % 2 != 0:
            raise BadOrientationError(f"orientation 'columns' needs even column count, got n={n}")
        a[:, : n // 2] = 1.0
    else:
        if m % 2 != 0:
            raise BadOrientationError(f"orientation 'rows' needs even row count, got m={m}")
        a[: m // 2, :] = 1.0
    return DenseMatrix(a)
