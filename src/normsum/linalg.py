"""Dense real linear algebra for small matrices.

Everything downstream (bound checks, extremal constructions, searches) runs
on the four operations here: symmetric eigendecomposition, SVD, Ky Fan
norms, and Kronecker products. Matrices are dense float64 and small by
design (dimension cap 4096), so LAPACK via numpy is used throughout and
every factorization is certified by an explicit residual.

A DenseMatrix measures its asymmetry max |A - A^T| once, on first use, and
every operation reads that value. Exactly symmetric input (A == A^T) is
factored by ``eigh`` and its singular values are the eigenvalue magnitudes;
any other input goes through the LAPACK SVD. The residual is ||AQ - QΛ||_F
for ``eigh`` and ||A - U diag(s) V^T||_F for the SVD; unless it is at most
CERT_FACTOR * (1 + ||A||_F) (so a NaN fails), NoConvergenceError is raised.

Structured input skips ``eigh``. A symmetric A of order n = p^e >=
STRUCTURED_MIN_N that is invariant under the translations of (Z_p)^e, vertex
v labelled by its base-p digits most significant first (the Paley graph
layout, and its complement), is diagonalized by the characters of (Z_p)^e:
its eigenvalues are the e-dimensional DFT of its first row (Babai 1979).
Invariance is one exact comparison of A with the difference table of row 0,
A[u, v] = A[0, u - v]. It reads all n^2 entries (about 20 ms at n = 4001),
which a non-invariant input of prime-power order pays before its dense
``eigh``. Q is the unitary character basis, and the reconstruction residual
||A - QΛQ*||_F = sqrt(n) ||row0 - ifftn(λ)||_2 is certified as above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    KOutOfRangeError,
    NoConvergenceError,
    NonSquareError,
    NonSymmetricError,
    SizeOverflowError,
    as_int,
    as_positive_int,
)

# Largest row/column count any operation will produce or accept.
DIMENSION_CAP = 4096

# Entrywise tolerance for treating a matrix as symmetric.
SYMMETRY_TOL = 1e-12

# A factorization is accepted when its residual is below
# CERT_FACTOR * (1 + frobenius(input)).
CERT_FACTOR = 1e-12

# Smallest order whose spectrum is taken from the character transform when
# the input is translation invariant; below it a dense eigh costs under 2 ms.
STRUCTURED_MIN_N = 128

# Side of the square tiles the asymmetry is measured in: a tile and its
# mirror take 1 MB.
_ASYM_TILE = 256


def check_dimensions(what: str, *dims: int) -> None:
    """The one size gate: SizeOverflowError, naming `what`, when a row or
    column count in `dims` exceeds DIMENSION_CAP."""
    if max(dims) > DIMENSION_CAP:
        raise SizeOverflowError(f"{what} exceeds the dimension cap {DIMENSION_CAP}")


class DenseMatrix:
    """Immutable real matrix, row-major float64.

    Construct from anything 2-d array-like, or via :meth:`from_flat` /
    :meth:`from_json`. Entries must be finite, checked at construction on
    the entry range it keeps, so no operation needs to re-check.
    """

    __slots__ = ("_data", "_asym", "_min", "_max")

    def __init__(self, data) -> None:
        arr = np.array(data, dtype=np.float64, order="C", copy=True)
        if arr.ndim != 2:
            raise ValueError(f"matrix must be 2-d, got ndim={arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"matrix dimensions must be positive, got {arr.shape}")
        check_dimensions(f"matrix of shape {arr.shape}", *arr.shape)
        # a NaN entry makes both NaN and an infinite one shows in one of them
        lo, hi = float(arr.min()), float(arr.max())
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("matrix entries must be finite")
        arr.setflags(write=False)
        self._data = arr
        self._asym = None
        self._min, self._max = lo, hi

    @classmethod
    def from_flat(cls, rows: int, cols: int, entries: Sequence[float]) -> "DenseMatrix":
        """Build from a flat row-major list (or tuple) of rows*cols ints and
        floats, numpy's too; the shape is checked before the entries."""
        rows, cols = as_positive_int(rows, "matrix rows"), as_positive_int(cols, "matrix cols")
        check_dimensions(f"matrix of shape {(rows, cols)}", rows, cols)
        if not isinstance(entries, (list, tuple)):
            raise ValueError(f"matrix entries must be a list, got {type(entries).__name__}")
        for kind in dict.fromkeys(map(type, entries)):
            if kind is bool or not issubclass(kind, (int, float, np.integer, np.floating)):
                raise ValueError(f"matrix entries must be numbers, got {kind.__name__}")
        if len(entries) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(entries)}"
            )
        return cls(np.asarray(entries, dtype=np.float64).reshape(rows, cols))

    @classmethod
    def from_json(cls, obj: dict) -> "DenseMatrix":
        """Read the {"rows": m, "cols": n, "entries": [...]} wire form."""
        if not isinstance(obj, dict):
            raise ValueError(f"matrix JSON must be an object, got {type(obj).__name__}")
        try:
            return cls.from_flat(obj["rows"], obj["cols"], obj["entries"])
        except KeyError as exc:
            raise ValueError(f"matrix JSON missing field {exc}") from exc

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": self.entries,
        }

    @property
    def rows(self) -> int:
        return self._data.shape[0]

    @property
    def cols(self) -> int:
        return self._data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._data.shape

    @property
    def array(self) -> np.ndarray:
        """Read-only float64 view of the entries."""
        return self._data

    @property
    def entries(self) -> list[float]:
        """Flat row-major copy of the entries."""
        return self._data.ravel().tolist()

    @property
    def entry_min(self) -> float:
        return self._min

    @property
    def entry_max(self) -> float:
        return self._max

    def _asymmetry(self) -> float:
        """Largest entrywise |A - A^T|: 0.0 iff A == A^T, inf if not square.

        Tile (I, J), J >= I, holds |a_ij - a_ji| for its cells and for their
        mirrors, so the upper tiles cover every pair once and the max is the
        one over the whole array, bit for bit. A tile and its mirror fit in
        cache, where a transposed view of the whole array strides through it.
        """
        if self._asym is None:
            a, n, t = self._data, self.rows, _ASYM_TILE
            self._asym = (
                max(
                    float(np.abs(a[i : i + t, j : j + t] - a[j : j + t, i : i + t].T).max())
                    for i in range(0, n, t)
                    for j in range(i, n, t)
                )
                if n == self.cols
                else math.inf
            )
        return self._asym

    def __array__(self, dtype=None, copy=None):
        if dtype is None:
            return self._data
        return self._data.astype(dtype)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self._data, other._data))

    def __repr__(self) -> str:
        return f"DenseMatrix({self.rows}x{self.cols})"


def as_matrix(m) -> DenseMatrix:
    """Coerce a DenseMatrix, ndarray, or nested sequence into a DenseMatrix."""
    if isinstance(m, DenseMatrix):
        return m
    return DenseMatrix(m)


@dataclass(frozen=True)
class EigenSpectrum:
    """Eigenvalues of a symmetric matrix, descending, with a residual certificate.

    ``offdiag_residual`` is the Frobenius norm of A@Q - Q@diag(values) for the
    orthogonal Q of the factorization, i.e. the off-diagonal mass left after
    rotating A into the eigenbasis. For translation-invariant input (see the
    module docstring) Q is the unitary character basis, and the residual is
    the equal reconstruction residual ||A - QΛQ*||_F.
    """

    values: tuple[float, ...]
    offdiag_residual: float


@dataclass(frozen=True)
class SingularSpectrum:
    """Singular values, descending, with the residual of their factorization.

    For exactly symmetric A the values are |eigenvalues| from ``eigh`` and
    residual is ||AQ - QΛ||_F, which for orthogonal Q equals the
    reconstruction residual ||A - QΛQ^T||_F. Otherwise residual is the SVD
    reconstruction residual frobenius(A - U diag(values) V^T).
    """

    values: tuple[float, ...]
    residual: float


@np.errstate(over="ignore")
def _sum_of_squares(arr: np.ndarray) -> float:
    """Sum of the squared entries; inf, without a warning, when it overflows."""
    return np.add.reduce(arr * arr, axis=None)


def _frobenius(arr: np.ndarray) -> float:
    """||arr||_F. Only when the plain sum of squares overflows (entries above
    about 1e154) is it taken again on arr / max|entry|; an inf or NaN entry
    gives inf or NaN."""
    squares = _sum_of_squares(arr)
    if math.isfinite(squares):
        return math.sqrt(squares)
    top = float(np.abs(arr).max())
    if not math.isfinite(top):
        return top
    return top * math.sqrt(_sum_of_squares(arr / top))


def require_symmetric(mat: DenseMatrix, error: type[Exception]) -> None:
    """Raise ``error`` when the square matrix is not symmetric within
    SYMMETRY_TOL entrywise."""
    asym = mat._asymmetry()
    if asym > SYMMETRY_TOL:
        raise error(f"matrix asymmetry {asym:.3e} exceeds tolerance {SYMMETRY_TOL:.0e}")


def _certify(residual: float, a: np.ndarray, what: str) -> float:
    """The residual, if at most the certificate threshold; a NaN or infinite
    residual or threshold fails."""
    threshold = CERT_FACTOR * (1.0 + _frobenius(a))
    if not residual <= threshold < math.inf:
        raise NoConvergenceError(
            f"{what} residual {residual:.3e} above certificate threshold {threshold:.3e}"
        )
    return residual


def _min_prime_factor(q: int) -> int:
    if q % 2 == 0:
        return 2
    f = 3
    while f * f <= q:
        if q % f == 0:
            return f
        f += 2
    return q


def _prime_power_split(q: int) -> tuple[int, int] | None:
    """(p, e) with q = p^e and p prime, or None."""
    if q < 2:
        return None
    p = _min_prime_factor(q)
    e = 0
    while q % p == 0:
        q //= p
        e += 1
    return (p, e) if q == 1 else None


def _difference_view(row: np.ndarray, p: int, e: int) -> np.ndarray:
    """The (p,) * 2e view D with D[u, v] = row[u - v] over (Z_p)^e, each
    element labelled by its base-p digits, most significant first. On that
    grid ext[c] is row at the digits (p - 1 - c_t) % p, c_t in [0, 2p - 1),
    so window a at offset b holds row[p - 1 - a - b], and reversed offset
    axes (b = p - 1 - u) give row[u - a]. Only ext, of (2p - 1)^e entries,
    is allocated.
    """
    back = np.arange(p - 1, -p, -1) % p
    ext = row.reshape((p,) * e)[np.ix_(*[back] * e)]
    windows = np.lib.stride_tricks.sliding_window_view(ext, (p,) * e)
    return windows[(slice(None, None, -1),) * e]


def _structured_eigh(sym: np.ndarray) -> tuple[np.ndarray, float] | None:
    """Ascending eigenvalues and certified residual of an exactly symmetric
    array of order p^e that is (Z_p)^e-translation invariant under the base-p
    digit labelling, from the DFT of its first row; None for any other input.

    Invariance is tested exactly, by one comparison with the difference
    table of row 0: a symmetric A is invariant iff A[u, v] = A[0, u - v].
    """
    split = _prime_power_split(sym.shape[0])
    if split is None:
        return None
    p, e = split
    row0 = sym[0].reshape((p,) * e)
    if not np.array_equal(sym.reshape(row0.shape * 2), _difference_view(row0, p, e)):
        return None
    # row0 is even (row0[-d] = row0[d]), so its transform is real
    lam = np.fft.fftn(row0).real
    residual = math.sqrt(row0.size) * _frobenius(np.abs(row0 - np.fft.ifftn(lam)))
    return np.sort(lam, axis=None), _certify(residual, sym, "structured eigen")


def _certified_eigh(sym: np.ndarray) -> tuple[np.ndarray, float]:
    """Ascending eigenvalues of a symmetric array and their certified residual.

    Translation-invariant input of order >= STRUCTURED_MIN_N takes its
    spectrum from the character transform (:func:`_structured_eigh`).
    """
    if sym.shape[0] >= STRUCTURED_MIN_N and (fast := _structured_eigh(sym)) is not None:
        return fast
    w, _, residual = eigh_basis(sym)
    return w, residual


def eigh_basis(sym: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Ascending eigenvalues, orthonormal eigenvectors (columns) and certified
    residual ||AQ - QΛ||_F of a symmetric array, by a dense LAPACK ``eigh``;
    NoConvergenceError when the certificate fails."""
    try:
        w, q = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"symmetric eigendecomposition failed: {exc}") from exc
    return w, q, _certify(_frobenius(sym @ q - q * w), sym, "eigen")


def _eigvalsh_stack(stack: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of each matrix of a symmetric (B, n, n) stack, by
    one batched LAPACK call and uncertified: the search's scoring kernel."""
    return np.linalg.eigvalsh(stack)


def sym_eigen(m) -> EigenSpectrum:
    """Eigenvalues of a symmetric matrix, sorted descending.

    The input must be square and symmetric within SYMMETRY_TOL entrywise.
    The returned residual is checked against the convergence certificate
    threshold; a breach raises NoConvergenceError.
    """
    mat = as_matrix(m)
    if mat.rows != mat.cols:
        raise NonSquareError(f"sym_eigen needs a square matrix, got {mat.rows}x{mat.cols}")
    require_symmetric(mat, NonSymmetricError)
    a = mat.array
    # a == a.T is factored as it is: a + a.T would give it back, or overflow
    w, residual = _certified_eigh(a if mat._asymmetry() == 0.0 else (a + a.T) / 2.0)
    # LAPACK returns ascending; flip for descending.
    return EigenSpectrum(values=tuple(w[::-1].tolist()), offdiag_residual=residual)


def _singular_from_eigen(eig: EigenSpectrum, shift: float = 0.0) -> SingularSpectrum:
    """Singular values of S + shift*I from eig = sym_eigen(S), for an exactly
    symmetric S: the magnitudes |lambda + shift|, descending.

    The eigenbasis Q of S also diagonalizes S + shift*I, with the same
    residual ||SQ - QΛ||_F, so eig's certificate carries over and no second
    factorization runs.
    """
    s = np.sort(np.abs(np.asarray(eig.values) + shift))[::-1]
    return SingularSpectrum(values=tuple(s.tolist()), residual=eig.offdiag_residual)


def svd(m) -> SingularSpectrum:
    """Singular values of any finite real matrix, sorted descending."""
    mat = as_matrix(m)
    if mat._asymmetry() == 0.0:
        return _singular_from_eigen(sym_eigen(mat))
    a = mat.array
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"SVD failed: {exc}") from exc
    residual = _certify(_frobenius(a - (u * s) @ vt), a, "SVD")
    return SingularSpectrum(values=tuple(s.tolist()), residual=residual)


def spectra(m, shift: float = 0.0) -> tuple[EigenSpectrum | None, SingularSpectrum]:
    """Eigenvalues of m when it is square and symmetric within SYMMETRY_TOL
    (else None), and the singular values of m + shift*I (a nonzero shift
    needs m square).

    Exactly symmetric input is factored once: the singular values are
    |lambda + shift| from the same ``eigh``. Any other input takes its
    singular values from :func:`svd`.
    """
    mat = as_matrix(m)
    asym = mat._asymmetry()
    eig = sym_eigen(mat) if asym <= SYMMETRY_TOL else None
    if asym == 0.0:
        return eig, _singular_from_eigen(eig, shift)
    return eig, svd(mat.array + shift * np.eye(mat.rows) if shift else mat)


def _ky_fan(values: Sequence[float], k: int, rows: int, cols: int) -> float:
    """Exactly rounded sum of the k largest of the descending singular values
    of a rows x cols matrix, after checking 1 <= k <= min(rows, cols)."""
    kmax = min(rows, cols)
    k = as_int(k, "k", KOutOfRangeError)
    if k < 1 or k > kmax:
        raise KOutOfRangeError(f"k={k} outside [1, {kmax}] for a {rows}x{cols} matrix")
    return math.fsum(values[:k])


def ky_fan_norm(m, k: int) -> float:
    """Sum of the k largest singular values.

    k = 1 is the operator norm, k = min(rows, cols) the trace norm.
    """
    mat = as_matrix(m)
    return _ky_fan(svd(mat).values, k, mat.rows, mat.cols)


def trace_norm(m) -> float:
    """Sum of all singular values (graph energy when m is an adjacency matrix).

    Summed with math.fsum, exactly rounded: a naive sum of the n values loses
    about n ulps, which at n = 4001 is larger than the eigenvalue error.
    """
    return math.fsum(svd(m).values)


def operator_norm(m) -> float:
    """Largest singular value."""
    return float(svd(m).values[0])


def kronecker(a, b) -> DenseMatrix:
    """Kronecker product A (x) B with the usual block layout [a_ij * B]."""
    ma, mb = as_matrix(a), as_matrix(b)
    rows = ma.rows * mb.rows
    cols = ma.cols * mb.cols
    check_dimensions(f"Kronecker result {rows}x{cols}", rows, cols)
    return DenseMatrix(np.kron(ma.array, mb.array))
