"""Dense real linear algebra for small matrices: certified spectra, and the
norms, Kronecker products and complement spectrum pairs built on them.
Matrices are dense float64 and small by design (dimension cap 4096), so
LAPACK via numpy is used throughout and every factorization is certified by
an explicit residual.

A DenseMatrix measures its asymmetry max |A - A^T| once, on first use, and
every operation reads that value. A builder that guarantees it supplies it
instead, through :meth:`DenseMatrix.with_facts`: a graph adjacency, built
as a | a^T, carries 0.0 and is never scanned. Exactly symmetric input
(A == A^T) is factored by ``eigh`` and its singular values are the
eigenvalue magnitudes; any other input goes through the LAPACK SVD. The
residual is ||AQ - QΛ||_F for ``eigh`` and ||A - U diag(s) V^T||_F for the
SVD; unless it is at most CERT_FACTOR * (1 + ||A||_F) (so a NaN fails),
NoConvergenceError is raised. Every bound reads the spectra of an input X
and of its complement partner (J - I - X or J - X): a SpectrumPair factors
each once and keeps both. The partner of a matrix, of its first rows or of
a stack is built by the one :func:`complement_matrix`.

Structured input skips ``eigh``. An exactly symmetric A of order n = p^e >=
STRUCTURED_MIN_N that is invariant under the translations of (Z_p)^e, vertex
v labelled by its base-p digits most significant first (the Paley graph
layout, and its complement), is diagonalized by the characters of (Z_p)^e:
its eigenvalues are the e-dimensional DFT of its first row (Babai 1979).
Invariance is one exact comparison of A with the difference table of row 0,
A[u, v] = A[0, u - v], which reads all n^2 entries; like the asymmetry, a
DenseMatrix makes it once, on first use, and every operation reads the
verdict. Here too the builder may supply the verdict: the Paley adjacency
(``graphs.paley_adjacency``) is built from the difference table, so it
carries its grid, subject to the same STRUCTURED_MIN_N rule, and is never
compared. Q is the unitary character basis, and the reconstruction residual
||A - QΛQ*||_F = sqrt(n) ||row0 - ifftn(λ)||_2 is certified as above, with
||A||_F taken as sqrt(n) ||row0||_2 (each row permutes row 0), an O(n) sum.
The partner of an invariant X is invariant, with row 0 J[0] - X[0]: its
spectrum is one more DFT of a row, and the pair never builds it.

The partner of any other X symmetric within SYMMETRY_TOL, of order n >=
STRUCTURED_MIN_N, is derived from X's eigenbasis, not factored. Y = J - cI -
X (c = 1 for a graph, else 0) is a rank-one update of -(X + cI): with S the
array X's ``eigh`` factored (X, or (X + X^T)/2), S Q = QΛ + R, z = Q^T 1
and δ = 1 - Qz, Y Q = Q(D + zz^T) + δz^T - R for D = -cI - Λ. The pair keeps
Q from X's ``eigh`` until Y is asked for, then drops it. Tiny z_i and
near-equal d_i are deflated (Bunch, Nielsen & Sorensen 1978), and the other
eigenvalues of D + zz^T are the roots of the secular equation 1 + Σ z_i^2 /
(d_i - μ) = 0 (Golub 1973), all solved at once, each inside its bracket.
The roots are the exact eigenvalues of D + ẑẑ^T for the Löwner vector ẑ (Gu
& Eisenstat 1994), so Y's residual is at most ||R||_F + ||δ|| ||z|| + ||ẑẑ^T
- zz^T||_F plus the deflation's dropped parts and the rounding of D and of
the roots, certified against CERT_FACTOR * (1 + ||Y||_F), with ||Y||_F
taken from the sums of S. Every pass over the K^2 pole-root differences of
the K roots runs in blocks of _SECULAR_BLOCK entries, Y is never built, and
the cost is O(n^2) against the O(n^3) of a second ``eigh``. When the
certificate fails (on K_n, Y = 0 and its threshold is CERT_FACTOR itself),
Y is built and factored densely, with no comparison of its own, as any
partner below the floor is.
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

# Entries in one block of a pass over the K x K table of secular pole-root
# differences: a block takes 512 KB, and no pass allocates K^2 floats.
_SECULAR_BLOCK = 1 << 16

# Solver passes after which an unconverged secular root is left as it is;
# its certificate then fails and the partner is factored densely.
_SECULAR_PASSES = 50

_EPS = float(np.finfo(np.float64).eps)


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

    __slots__ = ("_data", "_asym", "_grid", "_min", "_max")

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
        self._asym = self._grid = None
        self._min, self._max = lo, hi

    @classmethod
    def with_facts(
        cls, data, *, asymmetry: float | None = None, grid: tuple[int, ...] | None = None
    ) -> "DenseMatrix":
        """A DenseMatrix of `data` that starts out knowing what its builder
        guarantees, so neither fact is measured: its asymmetry max |A - A^T|
        (0.0 for a | a^T or a character table), and its grid, (p,) * e when
        the builder made it (Z_p)^e-translation invariant and exactly
        symmetric, () when it is known not to be. None leaves a fact to be
        measured on first use. A grid below STRUCTURED_MIN_N is (), as the
        measured path would find."""
        mat = cls(data)
        mat._asym = asymmetry
        if grid is not None:
            mat._grid = grid if mat.rows >= STRUCTURED_MIN_N else ()
        return mat

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
        return {"rows": self.rows, "cols": self.cols, "entries": self.entries}

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
        """Largest entrywise |A - A^T|: 0.0 iff A == A^T, inf if not square."""
        if self._asym is None:
            a = self._data
            self._asym = float(np.abs(a - a.T).max()) if self.rows == self.cols else math.inf
        return self._asym

    def _invariance(self) -> tuple[int, ...]:
        """(p,) * e when A is exactly symmetric, of order p^e >=
        STRUCTURED_MIN_N and (Z_p)^e-translation invariant under the base-p
        digit labelling, else (). Tested once, exactly, by comparing A with
        `_difference_table` of row 0, A[u, v] = A[0, u - v], the table that
        builds the GF(q) character table."""
        if self._grid is None:
            self._grid = ()
            n = self.rows
            split = _prime_power_split(n) if n >= STRUCTURED_MIN_N else None
            if split and self._asymmetry() == 0.0:
                p, e = split
                if np.array_equal(self._data, _difference_table(self._data[0], p, e)):
                    self._grid = (p,) * e
        return self._grid

    def __array__(self, dtype=None, copy=None):
        if copy is None:  # numpy 1.x never passes copy
            return np.asarray(self._data, dtype=dtype)
        return np.asarray(self._data, dtype=dtype, copy=copy)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self._data, other._data))

    def __repr__(self) -> str:
        return f"DenseMatrix({self.rows}x{self.cols})"


def invariant_row(mat: DenseMatrix) -> np.ndarray | None:
    """Row 0 of a translation-invariant matrix (see the module docstring),
    of which every row and every column is a permutation; None when the
    matrix is not invariant."""
    return mat.array[0] if mat._invariance() else None


def as_matrix(m) -> DenseMatrix:
    """Coerce a DenseMatrix, ndarray, or nested sequence into a DenseMatrix."""
    if isinstance(m, DenseMatrix):
        return m
    return DenseMatrix(m)


@dataclass(frozen=True)
class EigenSpectrum:
    """Eigenvalues of a symmetric matrix, descending, and the residual
    ||AQ - QΛ||_F of their factorization (see the module docstring)."""

    values: tuple[float, ...]
    offdiag_residual: float


@dataclass(frozen=True)
class SingularSpectrum:
    """Singular values, descending, and the residual of their factorization:
    ||AQ - QΛ||_F when they are the |eigenvalues| of an exactly symmetric A,
    else ||A - U diag(s) V^T||_F (see the module docstring)."""

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
    """The residual, if at most the certificate threshold CERT_FACTOR * (1 +
    ||a||_F), a being the factored matrix or any array of its Frobenius norm;
    a NaN or infinite residual or threshold fails."""
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


def _difference_table(row: np.ndarray, p: int, e: int) -> np.ndarray:
    """The (q, q) array D with D[u, v] = row[u - v] over (Z_p)^e, q = p^e,
    each element labelled by its base-p digits, most significant first.
    Built one digit at a time, least significant first: the tables of order
    m = p^t, one per value of the higher digits, become those of order p m,
    whose block (u, a) is the table at digit u - a, by copying the reversed
    windows of a (2p - 1)-block extension."""
    back = np.arange(p - 1, -p, -1) % p
    table = row.reshape(-1, 1, 1)
    for _ in range(e):
        rest, m = table.shape[0] // p, table.shape[1]
        ext = table.reshape(rest, p, m, m)[:, back]
        windows = np.lib.stride_tricks.sliding_window_view(ext, p, axis=1)[:, ::-1]
        table = windows.transpose(0, 1, 2, 4, 3).copy().reshape(rest, p * m, p * m)
    return table[0]


def _character_eigh(row0: np.ndarray) -> tuple[np.ndarray, float]:
    """Ascending eigenvalues and certified residual of the invariant symmetric
    matrix with row 0 `row0`, given on its (Z_p)^e grid: the row's DFT."""
    # row0 is even (row0[-d] = row0[d]), so its transform is real
    lam = np.fft.fftn(row0).real
    scale = math.sqrt(row0.size)  # each row permutes row 0: ||A||_F = ||scale row0||_2
    residual = scale * _frobenius(np.abs(row0 - np.fft.ifftn(lam)))
    return np.sort(lam, axis=None), _certify(residual, scale * row0, "structured eigen")


def eigh_basis(sym: np.ndarray) -> tuple[np.ndarray, np.ndarray, float | list[float]]:
    """Ascending eigenvalues, orthonormal eigenvectors (columns) and certified
    residual ||AQ - QΛ||_F of a symmetric array, by a dense LAPACK ``eigh``;
    NoConvergenceError when the certificate fails. A (B, n, n) stack is
    factored in one call and gets a list of B residuals, each certified
    against its own matrix."""
    try:
        w, q = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"symmetric eigendecomposition failed: {exc}") from exc
    if sym.ndim == 2:
        return w, q, _certify(_frobenius(sym @ q - q * w), sym, "eigen")
    return w, q, [_certify(_frobenius(s @ v - v * e), s, "eigen") for s, v, e in zip(sym, q, w)]


def _eigvalsh_stack(stack: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of each matrix of a symmetric (B, n, n) stack, by
    one batched LAPACK call and uncertified: the search's scoring kernel."""
    return np.linalg.eigvalsh(stack)


def sym_eigen(m, *, basis: bool = False):
    """Eigenvalues of a symmetric matrix, sorted descending.

    The input must be square and symmetric within SYMMETRY_TOL entrywise.
    The returned residual is checked against the convergence certificate
    threshold; a breach raises NoConvergenceError. With `basis`, the result
    is (spectrum, (S, w, Q)): the array a dense eigh factored, (A + A^T)/2,
    with its ascending eigenvalues and eigenvectors, or (spectrum, None)
    when the spectrum came from the character transform.
    """
    mat = as_matrix(m)
    if mat.rows != mat.cols:
        raise NonSquareError(f"sym_eigen needs a square matrix, got {mat.rows}x{mat.cols}")
    require_symmetric(mat, NonSymmetricError)
    if grid := mat._invariance():
        spectrum = _descending(*_character_eigh(mat.array[0].reshape(grid)))
        return (spectrum, None) if basis else spectrum
    a = mat.array
    # a == a.T is factored as it is: a + a.T would give it back, or overflow
    sym = a if mat._asymmetry() == 0.0 else (a + a.T) / 2.0
    w, q, residual = eigh_basis(sym)
    spectrum = _descending(w, residual)
    return (spectrum, (sym, w, q)) if basis else spectrum


def _descending(w: np.ndarray, residual: float) -> EigenSpectrum:
    """The EigenSpectrum of LAPACK's ascending eigenvalues."""
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


def complement_matrix(a: np.ndarray, graph: bool = True) -> np.ndarray:
    """J - I - A, or J - A when not `graph`, with J and I shaped as the last
    two axes of `a`: an n x n matrix, its first rows, or a (B, n, n) stack.
    Zeroing J's diagonal in place gives the values of ``np.ones - np.eye``
    without a second temporary of A's size."""
    j = np.ones(a.shape[-2:])
    if graph:
        np.fill_diagonal(j, 0.0)
    return j - a


def _blocks(count: int, width: int) -> list[slice]:
    """Consecutive slices of range(count), each with at most _SECULAR_BLOCK /
    width items, so that a (slice, width) block stays within the budget."""
    step = max(1, _SECULAR_BLOCK // width)
    return [slice(s, min(s + step, count)) for s in range(0, count, step)]


def _deflate(d: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Deflation of D + z z^T, d ascending (Bunch, Nielsen & Sorensen 1978;
    LAPACK dlaed2). With tol = 8 eps max(max |d|, ||z||^2), a z_i with
    |z_i| ||z|| <= tol is set to 0, and neighbours d_i <= d_j left in the
    secular problem are rotated by the Givens rotation that zeroes z_i when
    the off-diagonal entry it drops, (d_j - d_i) c s, is at most tol. Each
    zeroed i keeps d_i as an eigenvalue. Returns the new (d, z), the mask of
    zeroed entries and the Frobenius norm of the dropped parts summed:
    sqrt(2) ||z|| ||z_zeroed|| plus sqrt(2) |(d_j - d_i) c s| per rotation."""
    d, z = d.copy(), z.copy()
    norm = _frobenius(z)
    tol = 8.0 * _EPS * max(float(np.abs(d).max()), norm * norm)
    deflated = np.abs(z) * norm <= tol
    perturbation = math.sqrt(2.0) * norm * _frobenius(z[deflated])
    z[deflated] = 0.0
    kept = np.flatnonzero(~deflated)
    # a rotation needs |d_j - d_i| <= 2 tol, as |c s| <= 1/2, and moves d_j
    # toward d_i, so only gaps that start that close are visited, in order
    for t in np.flatnonzero(np.diff(d[kept]) <= 2.0 * tol).tolist():
        i, j = kept[t], kept[t + 1]
        r = math.hypot(z[i], z[j])
        c, s = z[j] / r, -z[i] / r
        dropped = (d[j] - d[i]) * c * s
        if abs(dropped) <= tol:
            d[i], d[j] = d[i] * c * c + d[j] * s * s, d[i] * s * s + d[j] * c * c
            z[i], z[j] = 0.0, r
            deflated[i] = True
            perturbation += math.sqrt(2.0) * abs(dropped)
    return d, z, deflated, perturbation


def _secular_rest(d, w2, origin, other, tau, roots) -> tuple[np.ndarray, np.ndarray]:
    """For each root r in `roots`, at mu_r = d[origin_r] + tau_r, the sum of
    w2_i / (d_i - mu_r) over the poles i other than origin_r and other_r, and
    its derivative in mu_r: the smooth part of the secular function, two
    GEMVs per block of roots."""
    rest, slope = np.empty(roots.size), np.empty(roots.size)
    buf = np.empty((min(roots.size, max(1, _SECULAR_BLOCK // d.size)), d.size))
    for part in _blocks(roots.size, d.size):
        r = roots[part]
        o, b, rows = origin[r], buf[: r.size], np.arange(r.size)
        np.subtract.outer(d[o], d, out=b)  # (d_o - d_i) + tau = mu - d_i, digits kept
        b += tau[r, None]
        np.divide(1.0, b, out=b)
        b[rows, o] = b[rows, other[r]] = 0.0
        rest[part] = -(b @ w2)
        np.multiply(b, b, out=b)
        slope[part] = b @ w2
    return rest, slope


def _secular_step(a, b, c, lo, hi) -> np.ndarray:
    """The root of a t^2 - b t + c = 0 that lies in (lo, hi), taken without
    cancellation (as in LAPACK dlaed4), or the midpoint of (lo, hi) when
    neither root does. Called under the solver's errstate."""
    big = b + np.copysign(np.sqrt(np.maximum(b * b - 4.0 * a * c, 0.0)), b)
    near, far = 2.0 * c / big, big / (2.0 * a)
    near_in, far_in = (near > lo) & (near < hi), (far > lo) & (far < hi)
    return np.where(near_in, near, np.where(far_in, far, 0.5 * (lo + hi)))


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _secular_roots(d: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The K roots of 1 + sum_i w_i^2 / (d_i - mu) for d strictly ascending
    and every w_i nonzero, root j in (d_j, d_{j+1}) and the last in (d_{K-1},
    d_{K-1} + ||w||^2) (Golub 1973), as (origin, tau): mu_j = d[origin_j] +
    tau_j, the origin being the pole nearer the root, so that mu_j - d_i =
    (d[origin_j] - d_i) + tau_j keeps its digits.

    All roots are solved at once, each inside its own bracket. One pass at
    the bracket midpoints picks each origin and starts each root from the
    two poles around it, the rest of the sum held constant (LAPACK dlaed4).
    Each later pass fits the rest by a pole at the other end of the bracket,
    matching its value and slope (the fixed weight method; Li 1994), takes
    the root of that model, or bisects when it leaves the bracket, and
    drops the roots whose secular value is within rounding of 0:
    |f| <= 8 eps (1 + sqrt(||w||^2 f') + |tau| f'), where sqrt(||w||^2 f')
    bounds the sum of the terms' magnitudes (Cauchy-Schwarz).
    """
    k, w2 = d.size, w * w
    rho = float(w2.sum())
    if k == 1:
        return np.zeros(1, dtype=np.intp), np.array([rho])
    j = np.arange(k)
    width = np.append(np.diff(d), rho)
    # the two poles around root j: j and j + 1, and j - 1 and j for the last
    origin, other = j.copy(), np.append(j[1:], k - 2)
    tau = width / 2.0
    rest, _ = _secular_rest(d, w2, origin, other, tau, j)
    gap = d[other] - d[origin]
    f = 1.0 + rest - w2 / tau + w2[other] / (gap - tau)
    below = f < 0.0  # the root lies above the midpoint
    lo, hi = np.where(below, tau, 0.0), np.where(below, width, tau)
    right = below & (j < k - 1)  # nearer d_{j+1}: shift the origin there
    origin[right], other[right] = j[right] + 1, j[right]
    lo[right] -= width[right]
    hi[right] -= width[right]
    gap = d[other] - d[origin]
    a = 1.0 + rest
    tau = _secular_step(a, a * gap + w2[origin] + w2[other], w2[origin] * gap, lo, hi)
    roots = j
    for _ in range(_SECULAR_PASSES):
        rest, slope = _secular_rest(d, w2, origin, other, tau, roots)
        o, m, t = origin[roots], other[roots], tau[roots]
        gap = d[m] - d[o]
        far = gap - t
        f = 1.0 + rest - w2[o] / t + w2[m] / far
        df = slope + w2[o] / (t * t) + w2[m] / (far * far)
        lo[roots] = np.where(f < 0.0, np.maximum(lo[roots], t), lo[roots])
        hi[roots] = np.where(f > 0.0, np.minimum(hi[roots], t), hi[roots])
        open_ = np.abs(f) > 8.0 * _EPS * (1.0 + np.sqrt(rho * df) + np.abs(t) * df)
        if not open_.any():
            break
        weight = w2[m] + slope * far * far
        a = 1.0 + rest - slope * far
        step = _secular_step(a, a * gap + w2[o] + weight, w2[o] * gap, lo[roots], hi[roots])
        roots = roots[open_]
        tau[roots] = step[open_]
    return origin, tau


def _lowner(d: np.ndarray, origin: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """The squares of the Löwner vector of roots mu = d[origin] + tau that
    interlace d: the zh for which D + zh zh^T has exactly those eigenvalues,
    zh_i^2 = prod_j (mu_j - d_i) / prod_{j != i} (d_j - d_i) (Gu & Eisenstat
    1994). Taken as one product of ratios per i, in blocks of i."""
    k = d.size
    out, do, shift = np.empty(k), d[origin], tau[:, None]
    for part in _blocks(k, k):
        num = np.subtract.outer(do, d[part])
        num += shift  # mu_j - d_i
        den = np.subtract.outer(d, d[part])  # d_j - d_i, and 1 at j = i
        cols = np.arange(part.stop - part.start)
        den[part.start + cols, cols] = 1.0
        num /= den
        out[part] = np.prod(num, axis=0)
    return out


def _derived_partner(
    sym: np.ndarray, w: np.ndarray, q: np.ndarray, residual: float, c: float
) -> EigenSpectrum | None:
    """The spectrum of Y = J - cI - S from the eigenbasis S Q = Q diag(w) + R
    of a symmetric S, certified; None when the certificate fails.

    With z = Q^T 1 and delta = 1 - Q z, Y Q = Q (D + z z^T) + delta z^T - R
    for D = -cI - diag(w): Y's eigenvalues are those of the rank-one update
    D + z z^T, deflated (:func:`_deflate`) and solved by the secular equation
    (:func:`_secular_roots`). The roots are the exact eigenvalues of D + zh
    zh^T for the Löwner vector zh (:func:`_lowner`), so ||R||_F + ||delta||
    ||z|| + ||zh zh^T - z z^T||_F + the deflation's dropped parts + the
    rounding of D and of the roots bounds ||Y V - V diag(mu)||_F for an
    orthonormal V. ||zh zh^T - z z^T||_F <= ||zh - z|| ||zh + z||. The bound
    is certified against CERT_FACTOR * (1 + ||Y||_F), with ||Y||_F^2 = n^2 -
    2 sum(S) + ||S||_F^2 - 2c (n - tr S) + c^2 n from S's sums: Y is never
    built, and every pass over K^2 entries runs in blocks.
    """
    n = sym.shape[0]
    z = q.sum(axis=0)
    delta = 1.0 - q @ z
    d, zd, deflated, perturbation = _deflate((-c - w)[::-1], z[::-1])
    dk, wk = d[~deflated], zd[~deflated]
    origin, tau = _secular_roots(dk, wk)
    with np.errstate(invalid="ignore"):  # roots out of their brackets: NaN fails
        zh = np.copysign(np.sqrt(_lowner(dk, origin, tau)), wk)
    values = np.sort(np.concatenate([d[deflated], dk[origin] + tau]))
    bound = (
        residual
        + _frobenius(delta) * _frobenius(z)
        + _frobenius(zh - wk) * _frobenius(zh + wk)
        + perturbation
        + _EPS * (_frobenius(d) + _frobenius(values))
    )
    flat = sym.ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        y_sq = n * n - 2.0 * float(flat.sum()) + float(flat @ flat)
        y_sq += c * (c * n - 2.0 * (n - float(np.trace(sym))))
    try:
        _certify(bound, np.array([math.sqrt(max(y_sq, 0.0))]), "derived eigen")
    except NoConvergenceError:
        return None
    return _descending(values, bound)


class SpectrumPair:
    """An input X and its complement partner Y, J - I - X when `graph` and
    J - X otherwise, each factored at most once, on first use; member i is X
    (i = 0) or Y (i = 1). Y is exactly symmetric when X is, and then the
    singular values of a member plus shift*I are |lambda + shift| of its
    eigenvalues; otherwise they take one SVD. The eigenvalues of a partner
    of order >= STRUCTURED_MIN_N that is not invariant are derived from X's
    eigenbasis, kept from X's ``eigh`` until then (see the module
    docstring)."""

    __slots__ = ("x", "graph", "symmetric", "_y", "_eig", "_sing", "_basis")

    def __init__(self, x: DenseMatrix, graph: bool) -> None:
        self.x, self.graph, self._y = x, graph, None
        self.symmetric = x._asymmetry() <= SYMMETRY_TOL  # X has eigenvalues
        self._eig: list[EigenSpectrum | None] = [None, None]
        # (the array factored, w, Q) of X, from X's eigh until Y is derived
        self._basis: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._sing: dict[tuple[int, float], SingularSpectrum] = {}  # by (member, shift)

    def _member(self, i: int) -> DenseMatrix:
        if i and self._y is None:
            # J and I are symmetric, and Y is built only when X is not invariant
            self._y = DenseMatrix.with_facts(
                complement_matrix(self.x.array, self.graph),
                asymmetry=0.0 if self.x._asymmetry() == 0.0 else None,
                grid=(),
            )
        return self._y if i else self.x

    def eig(self, i: int) -> EigenSpectrum:
        """Eigenvalues of member i (symmetric within SYMMETRY_TOL), descending."""
        if self._eig[i] is None:
            if grid := self.x._invariance():  # so Y is invariant too
                row0 = complement_matrix(self.x.array[:1], self.graph) if i else self.x.array[0]
                self._eig[i] = _descending(*_character_eigh(row0.reshape(grid)))
            elif self.symmetric and self.x.rows >= STRUCTURED_MIN_N:
                self._derive(i)
            else:
                self._eig[i] = sym_eigen(self._member(i))
        return self._eig[i]

    def _derive(self, i: int) -> None:
        """Factor X by one eigh, keeping its basis, then derive Y's spectrum
        from it when i = 1 and drop the basis; Y is factored densely, as it
        would be without the basis, when the derived certificate fails."""
        if self._eig[0] is None:
            self._eig[0], self._basis = sym_eigen(self.x, basis=True)
        if i:
            (sym, w, q), self._basis = self._basis, None
            c = 1.0 if self.graph else 0.0
            derived = _derived_partner(sym, w, q, self._eig[0].offdiag_residual, c)
            self._eig[1] = derived or sym_eigen(self._member(1))

    def sing(self, i: int, shift: float = 0.0) -> SingularSpectrum:
        """Singular values of member i + shift*I, descending."""
        if (i, shift) not in self._sing:
            if self.x._asymmetry() == 0.0:
                self._sing[i, shift] = _singular_from_eigen(self.eig(i), shift)
            else:
                mat = self._member(i)
                self._sing[i, shift] = svd(mat.array + shift * np.eye(mat.rows) if shift else mat)
        return self._sing[i, shift]


def ky_fan_norm(m, k: int) -> float:
    """Sum of the k largest singular values of a matrix, or of its
    SingularSpectrum: k = 1 is the operator norm, k = min(rows, cols) the
    trace norm. Exactly rounded, once 1 <= k <= the count of values."""
    k = as_int(k, "k", KOutOfRangeError)
    m = m if isinstance(m, SingularSpectrum) else as_matrix(m)
    count = len(m.values) if isinstance(m, SingularSpectrum) else min(m.shape)
    if k < 1 or k > count:
        raise KOutOfRangeError(f"k={k} outside [1, {count}], the count of singular values")
    return math.fsum((m if isinstance(m, SingularSpectrum) else svd(m)).values[:k])


def trace_norm(m) -> float:
    """Sum of all singular values of a matrix, or of its SingularSpectrum
    (graph energy when m is an adjacency matrix).

    Summed with math.fsum, exactly rounded: a naive sum of the n values loses
    about n ulps, which at n = 4001 is larger than the eigenvalue error.
    """
    return math.fsum((m if isinstance(m, SingularSpectrum) else svd(m)).values)


def operator_norm(m) -> float:
    """Largest singular value of a matrix, or of its SingularSpectrum."""
    return float((m if isinstance(m, SingularSpectrum) else svd(m)).values[0])


def kronecker(a, b) -> DenseMatrix:
    """Kronecker product A (x) B with the usual block layout [a_ij * B]."""
    ma, mb = as_matrix(a), as_matrix(b)
    rows = ma.rows * mb.rows
    cols = ma.cols * mb.cols
    check_dimensions(f"Kronecker result {rows}x{cols}", rows, cols)
    return DenseMatrix(np.kron(ma.array, mb.array))
