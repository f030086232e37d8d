"""Closed-form norm bounds and their verdicts.

Six bound families are evaluated here, each one a `check` kind of the CLI.
Four compare a complement norm sum against a closed form of the dimensions
(main, shifted, kyfan, opnorm). Two are earlier energy bounds that main
improves on: koolen_moulton caps the trace norm of one graph, and
gutman_zhou the sum over a graph and its complement. Each check returns a
BoundVerdict with the raw slack so callers can distinguish "holds with room"
from "sits on the equality edge".

Domain validation is strict and runs once per check: entries out of range,
a non-square shape, asymmetry or a nonzero diagonal, where the check needs
the condition, raise DomainViolationError. Nothing is clamped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainViolationError, KOutOfRangeError, MissingParamError
from .errors import as_int, as_positive_int, as_real
from .graphs import Graph, adjacency_matrix
from .linalg import SpectrumPair, as_matrix, invariant_row, require_symmetric
from .linalg import ky_fan_norm, operator_norm, trace_norm

BOUND_KINDS = ("koolen_moulton", "main", "gutman_zhou", "shifted", "kyfan", "opnorm")

# slack >= -HOLD_TOL counts as holding; |slack| <= EQUALITY_TOL as equality.
HOLD_TOL = 1e-7
EQUALITY_TOL = 1e-6

# entries are treated as integral when within this of an integer
INTEGRALITY_TOL = 1e-12


@dataclass(frozen=True)
class BoundVerdict:
    """Outcome of one bound comparison.

    slack = rhs - lhs as computed; holds means slack >= -tol, equality means
    holds with |slack| <= eq_tol. Equality therefore implies holds.
    """

    kind: str
    lhs: float
    rhs: float
    slack: float
    holds: bool
    equality: bool
    tol: float
    eq_tol: float


@dataclass(frozen=True)
class EqualityReport:
    """Structural flags behind equality in the shifted trace-norm bound.

    A square nonnegative zero-diagonal matrix sits on the equality edge iff
    it is (0,1), all of its row and column sums are (n-1)/2, and the shifted
    matrix A + I/2 has all singular values past the first equal to sqrt(n)/2.
    overall is exactly these four flags, so Paley tournaments (n = 3 mod 4)
    pass as well as conference graphs.

    Given the domain checks (entries in [0, 1], zero diagonal), overall
    needs only row_sums_ok and flat_tail_ok: dropping is_zero_one or
    col_sums_ok from it, or testing the flat tail from sigma_3 on, changes
    no verdict apart from the flat-tail tolerance. Let A have row sums
    (n - 1)/2 and sigma_2..sigma_n of M = A + I/2 all sqrt(n)/2. As
    M1 = (n/2)1, sigma_1 >= n/2, so ||M||_F^2 >= n^2/4 + (n - 1)n/4; and
    ||M||_F^2 = sum A_ij^2 + n/4 <= sum A_ij + n/4, the same number. So
    both are tight: every entry is 0 or 1 (else A_ij^2 < A_ij), and
    sigma_1 = n/2, so 1/sqrt(n) is a top singular vector on both sides and
    M^T 1 = (n/2)1 gives the column sums. The same argument on M^T turns
    col_sums_ok and flat_tail_ok into the row sums, so dropping row_sums_ok
    changes no verdict either. With 0/1 entries and the row sums, the same
    count gives sigma_2^2 <= n/4, so a flat sigma_3..sigma_n forces
    sigma_2 = sqrt(n)/2 (n >= 3; at n = 2 no row sum is 1/2).

    conference_spectrum_ok is informational and not part of overall: the
    eigenvalues of a symmetric input match ((n-1)/2, ((sqrt n - 1)/2)^r,
    (-(sqrt n + 1)/2)^r) with r = (n-1)/2, which needs n = 1 (mod 4).
    """

    is_zero_one: bool
    row_sums_ok: bool
    col_sums_ok: bool
    flat_tail_ok: bool
    conference_spectrum_ok: bool
    overall: bool


@dataclass(frozen=True)
class WeylReport:
    """Per-index margins of the complement eigenvalue inequality.

    margins[i] = mu_{k}(A) + mu_{n-k+2}(J-I-A) + 1 for k = i + 2; the
    inequality asks each to be <= 0. ok means every margin <= tol.
    """

    ok: bool
    margins: tuple[float, ...]
    tol: float


def bound_value(kind: str, n: int, m: int | None = None, k: int | None = None) -> float:
    """Closed-form right-hand side of the named bound.

    Square kinds take the order n. Rectangular kinds (kyfan, opnorm) take
    row count m and column count n; kyfan additionally needs the norm
    index k with 2 <= k <= min(m, n).
    """
    if kind not in BOUND_KINDS:
        raise ValueError(f"unknown bound kind {kind!r}; expected one of {BOUND_KINDS}")
    n = as_positive_int(n, "n")
    if kind == "koolen_moulton":
        return (1.0 + math.sqrt(n)) * n / 2.0
    if kind == "main":
        return (n - 1) * (1.0 + math.sqrt(n))
    if kind == "gutman_zhou":
        return math.sqrt(2.0) * n + (n - 1) * math.sqrt(n - 1)
    if kind == "shifted":
        return n + (n - 1) * math.sqrt(n)
    # rectangular kinds need m
    if m is None:
        raise MissingParamError(f"bound kind {kind!r} needs the row count m")
    m = as_positive_int(m, "m")
    if kind == "opnorm":
        return math.sqrt(2.0 * m * n)
    # kyfan
    if k is None:
        raise MissingParamError("bound kind 'kyfan' needs the norm index k")
    k = as_int(k, "k", KOutOfRangeError)
    if k < 2 or k > min(m, n):
        raise KOutOfRangeError(f"k={k} outside [2, {min(m, n)}] for a {m}x{n} matrix")
    return math.sqrt(m * n) * (1.0 + math.sqrt(k - 1))


# the checks whose hypotheses include a square zero-diagonal matrix, and
# among them those that also need it symmetric (the graph kinds)
_SQUARE_KINDS = ("koolen_moulton", "main", "gutman_zhou", "shifted", "equality", "weyl")
_SYMMETRIC_KINDS = ("koolen_moulton", "main", "gutman_zhou", "weyl")


def _pair(obj, kind: str) -> SpectrumPair:
    """The spectrum pair of obj (a Graph, a matrix or a SpectrumPair) with the
    partner of check `kind`, J - I - X for the square kinds and J - X for the
    others, once X meets the hypotheses of the kind, tested in this order:
    entries in [0, 1], square, symmetric, zero diagonal. The first that fails
    raises DomainViolationError."""
    graph = kind in _SQUARE_KINDS
    pair = obj if isinstance(obj, SpectrumPair) else None
    mat = pair.x if pair else adjacency_matrix(obj) if isinstance(obj, Graph) else as_matrix(obj)
    lo, hi = mat.entry_min, mat.entry_max
    if lo < 0.0 or hi > 1.0:
        raise DomainViolationError(f"entries must lie in [0, 1], found range [{lo}, {hi}]")
    if graph:
        if mat.rows != mat.cols:
            raise DomainViolationError(f"matrix must be square, got {mat.rows}x{mat.cols}")
        if kind in _SYMMETRIC_KINDS:
            require_symmetric(mat, DomainViolationError)
        if np.any(np.diag(mat.array) != 0.0):
            raise DomainViolationError("matrix must have a zero diagonal")
    return pair if pair and pair.graph == graph else SpectrumPair(mat, graph)


def check_tol(tol: float) -> float:
    """tol as a float, once it is finite and nonnegative; a NaN, infinite or
    negative tolerance would turn every verdict into a false alarm or a
    blanket pass, so it raises ValueError."""
    tol = as_real(tol, "tol")
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    return tol


def check_bound(kind: str, obj, k: int | None = None, tol: float = HOLD_TOL) -> BoundVerdict:
    """Evaluate one bound on a graph or matrix and return the verdict.

    Graphs enter through their adjacency matrix, and checks of one input
    can share its SpectrumPair (:func:`_pair`). The partner is J - I - A for
    the square kinds ('shifted' reads A + I/2 and J - A - I/2) and J - A for
    the rectangular kinds. Equality means |slack| <= EQUALITY_TOL and every
    entry within INTEGRALITY_TOL of 0 or 1 (:func:`_integral_entries`), for
    every kind: the proofs of main, shifted, kyfan, opnorm and
    koolen_moulton bound ||X||_F^2 by the sum of the entries, tight only on
    0/1 entries, and gutman_zhou's bound exceeds main's, so no input meets
    it. The slack alone cannot tell a near-0/1 matrix from an equality
    case: it grows only linearly with an entry's distance from 0 or 1.
    """
    if kind not in BOUND_KINDS:
        raise ValueError(f"unknown bound kind {kind!r}; expected one of {BOUND_KINDS}")
    if k is not None and kind != "kyfan":
        raise ValueError(f"k applies only to bound kind 'kyfan', got k={k!r} for {kind!r}")
    tol = check_tol(tol)
    pair = _pair(obj, kind)
    rows, cols = pair.x.shape
    rhs = bound_value(kind, cols, m=rows, k=k)
    norm = {"opnorm": operator_norm, "kyfan": lambda s: ky_fan_norm(s, k)}.get(kind, trace_norm)
    shift = 0.5 if kind == "shifted" else 0.0
    lhs = norm(pair.sing(0, shift))
    if kind != "koolen_moulton":
        lhs += norm(pair.sing(1, shift))

    slack = rhs - lhs
    holds = slack >= -tol
    equality = holds and abs(slack) <= EQUALITY_TOL and _integral_entries(pair.x)[1]
    return BoundVerdict(
        kind=kind,
        lhs=float(lhs),
        rhs=float(rhs),
        slack=float(slack),
        holds=bool(holds),
        equality=bool(equality),
        tol=tol,
        eq_tol=EQUALITY_TOL,
    )


def _integral_entries(mat) -> tuple[np.ndarray, bool]:
    """(a, integral): the entries of the matrix that decide its verdicts,
    and whether each is within INTEGRALITY_TOL of an integer. a is row 0
    alone, as a (1, n) array, when the matrix is translation invariant, as
    every row and column of it permutes that row (:func:`invariant_row`);
    else the whole array."""
    row = invariant_row(mat)
    a = mat.array if row is None else row[None, :]
    return a, bool(np.abs(a - np.round(a)).max() <= INTEGRALITY_TOL)


def conference_eigenvalues(n: int) -> list[float]:
    """The descending eigenvalue list forced on a conference graph of order n."""
    if n % 4 != 1 or n < 5:
        raise ValueError(f"conference spectra need n = 1 (mod 4) and n >= 5, got {n}")
    r = (n - 1) // 2
    s = math.sqrt(n)
    return [(n - 1) / 2.0] + [(s - 1) / 2.0] * r + [-(s + 1) / 2.0] * r


def equality_analysis(obj, tol: float = EQUALITY_TOL) -> EqualityReport:
    """Test a square nonnegative zero-diagonal matrix against the structural
    equality conditions of the shifted bound, flag by flag."""
    tol = check_tol(tol)
    pair = _pair(obj, "equality")
    n = pair.x.rows
    # row 0 of an invariant matrix also has the row and column sums of the
    # whole; entries are already confined to [0, 1], so integral is 0/1
    a, is_zero_one = _integral_entries(pair.x)

    # sums of (n - 1)/2, doubled: doubling is exact, and for even n no
    # doubled integral sum can equal the odd n - 1
    r = np.round(a) if is_zero_one else a
    row_sums = r.sum(axis=1)
    col_sums = r.sum(axis=0) if a.shape[0] == n else row_sums
    row_sums_ok = bool((2 * row_sums == n - 1).all())
    col_sums_ok = bool((2 * col_sums == n - 1).all())

    target = math.sqrt(n) / 2.0
    flat_tail_ok = all(abs(s - target) <= tol for s in pair.sing(0, 0.5).values[1:])

    conference_spectrum_ok = False
    if pair.symmetric and n % 4 == 1 and n >= 5:
        expected = conference_eigenvalues(n)
        conference_spectrum_ok = all(
            abs(e - x) <= tol for e, x in zip(pair.eig(0).values, expected)
        )

    overall = is_zero_one and row_sums_ok and col_sums_ok and flat_tail_ok
    return EqualityReport(
        is_zero_one=is_zero_one,
        row_sums_ok=row_sums_ok,
        col_sums_ok=col_sums_ok,
        flat_tail_ok=flat_tail_ok,
        conference_spectrum_ok=conference_spectrum_ok,
        overall=overall,
    )


def weyl_complement_check(obj, tol: float = HOLD_TOL) -> WeylReport:
    """Check mu_k(A) + mu_{n-k+2}(J-I-A) <= -1 for every k = 2..n.

    Margins are reported as lhs + 1, so a satisfied index is <= 0 and an
    index sitting exactly on the inequality reads 0.
    """
    tol = check_tol(tol)
    pair = _pair(obj, "weyl")
    n = pair.x.rows
    mu, mubar = pair.eig(0).values, pair.eig(1).values
    # mu is 0-based descending: mu_k is mu[k-1], mu_{n-k+2} is mubar[n-k+1]
    margins = tuple(mu[kk - 1] + mubar[n - kk + 1] + 1.0 for kk in range(2, n + 1))
    ok = all(mg <= tol for mg in margins)
    return WeylReport(ok=ok, margins=margins, tol=tol)
