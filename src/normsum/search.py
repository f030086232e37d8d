"""Empirical maximization of complement norm sums over graphs.

Three strategies: an exhaustive search for n <= 8 that scores the class
representatives on n - 1 vertices, each bordered with one neighbour set per
orbit of its automorphism group, which meet every isomorphism class on n
vertices, solves one matrix per spectrum among them and their complements,
keyed by exact closed-walk counts, and expands the best of them into their
labeled orbits; seeded edge-flip annealing for n <= 64; and randomized
property sweeps that hammer the bound checkers with seeded graphs and
matrices, each sample drawn once and checked by every requested kind of its
stream. Everything is deterministic given its inputs and runs on the calling
thread; both searches merge their witnesses by one sort of their bitsets and
encode them to graph6 in one batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import HOLD_TOL, check_bound, check_tol, weyl_complement_check
from .errors import (
    BadConfigError,
    KOutOfRangeError,
    NoConvergenceError,
    OrderTooLargeError,
    as_int,
    as_positive_int,
    as_real,
)
from .graphs import Graph, _adjacency, _graph6_batch, adjacency_matrix, graph6_encode, pair_mask
from .linalg import DenseMatrix, SpectrumPair, _eigvalsh_stack, check_dimensions
from .linalg import complement_matrix, eigh_basis
from .rng import MASK64, SplitMix64, as_seed, derive_seed

EXHAUSTIVE_MAX_N = 8
LOCAL_MAX_N = 64
WITNESS_CAP = 1000
# a graph counts as a witness when its value is within this of the maximum
WITNESS_TOL = 1e-9

# graphs per chunk of _walk_keys: three (1024, n, n) float64 stacks, 0.5 MB
# each at n = 8, are alive at once; at 95f389c on a 2-vCPU Xeon the 79,264
# keys at n = 8 took 46-48 ms, against 53-55 ms in chunks of 256 or 4096
_WALK_CHUNK = 1024

# Annealing flip screen, see _screen_flips and _anneal_once
SCREEN_DELTA = 1e-6
SCREEN_TAU = 1e-6
_SCREEN_G_TOL = 1e-4
# trapezoid rule in t on x = exp((pi/2) sinh t), t = -3.5, -3.4, ..., 3.5, so
# x runs from 5.2e-12 to 1.9e11 (the tails it leaves out: see _screen_flips);
# a node's weight folds in dx/dt, the 2/pi of the integral and the 1/2 of
# log|g| = log1p(2 Re d + |d|^2) / 2
_SCREEN_T = 0.1 * np.arange(-35, 36)
_SCREEN_X = np.exp(np.pi / 2 * np.sinh(_SCREEN_T))
_SCREEN_W = 0.05 * _SCREEN_X * np.cosh(_SCREEN_T)
# flips per batch of _ScreenWork's chunk buffers, (2, 64, 71) complex128 at
# most; at 95f389c on a 2-vCPU Xeon (medians of two runs) a screen took
# 0.34-0.52, 1.2-1.7 and 5.2-6.4 ms at n = 16, 32 and 64 with 64, against
# 0.37-0.54, 1.3-1.9 and 6.8-7.6 ms with 32 and 0.31-0.49, 1.1-1.6 and
# 5.5-6.6 ms with 128
_SCREEN_CHUNK = 64


@dataclass(frozen=True)
class SearchConfig:
    """Annealing knobs. Restart r runs on seed + r, so a single seed pins the
    whole ensemble."""

    restarts: int = 10
    max_steps: int = 20000
    temperature_initial: float = 1.0
    cooling: float = 0.995
    seed: int = 0

    def __post_init__(self):
        for key in ("restarts", "max_steps"):
            object.__setattr__(self, key, as_positive_int(getattr(self, key), key, BadConfigError))
        object.__setattr__(self, "seed", as_seed(self.seed, BadConfigError))
        for key in ("temperature_initial", "cooling"):
            object.__setattr__(self, key, as_real(getattr(self, key), key, BadConfigError))
        t0 = self.temperature_initial
        if not 0.0 <= t0 < math.inf:
            raise BadConfigError(f"temperature_initial must be finite and nonnegative, got {t0!r}")
        if not 0.0 < self.cooling < 1.0:
            raise BadConfigError(f"cooling must be in (0, 1), got {self.cooling!r}")


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a maximization run.

    witnesses holds the graph6 of each graph found within WITNESS_TOL of
    best_value, in ascending bitset order, capped at WITNESS_CAP (truncated
    set if the cap cut anything off). seed is None for exhaustive runs.
    """

    objective: str
    k: int | None
    n: int
    best_value: float
    witnesses: tuple[str, ...]
    truncated: bool
    evaluations: int
    seed: int | None
    method: str


def _check_search(
    n: int, k: int | None, threads: int, cap: int, what: str
) -> tuple[int, int | None]:
    """(n, k) of a search, checked in this order: n as a positive int at most
    cap, threads, which no search uses, as a positive int, then k, the Ky
    Fan index in [1, n] of kyfan_sum, or None for trace_sum; `what` names
    the search."""
    n = as_positive_int(n, "n")
    if n > cap:
        raise OrderTooLargeError(f"{what} is capped at n = {cap}, got n = {n}")
    as_positive_int(threads, "threads")
    if k is None:
        return n, None
    k = as_int(k, "k", KOutOfRangeError)
    if not 1 <= k <= n:
        raise KOutOfRangeError(f"k={k!r} outside [1, {n}]")
    return n, k


def _spectral_norms(w: np.ndarray, k: int | None) -> np.ndarray:
    """Norm of each row of a (B, n) eigenvalue stack: the trace norm for k
    None, else the Ky Fan k-norm."""
    aw = np.abs(w)
    if k is None:
        return aw.sum(axis=1)
    aw.sort(axis=1)
    return aw[:, aw.shape[1] - k :].sum(axis=1)


def _pair_objective(a: np.ndarray, k: int | None) -> np.ndarray:
    """Objective values for a (B, n, n) adjacency stack: norm of each graph
    plus norm of its complement, the norm of :func:`_spectral_norms` (k)."""
    return _spectral_norms(_eigvalsh_stack(a), k) + _spectral_norms(
        _eigvalsh_stack(complement_matrix(a)), k
    )


def _pair_flags(bits: np.ndarray, m: int) -> np.ndarray:
    """(G, m) boolean rows of the low m pair bits of int64 bitsets (m <= 63)."""
    return ((bits[:, None] >> np.arange(m)) & 1).astype(bool)


def _distinct(bits: np.ndarray) -> np.ndarray:
    """The distinct entries of an array, ascending, by one sort: what
    np.unique gives, without the numpy.ma import of its first call (9-11 ms
    and 1.2 MB of max RSS in a fresh process; 2-vCPU Xeon, numpy 2.4.6, at
    09d9f51)."""
    bits = np.sort(bits, axis=None)
    return bits[np.append(True, bits[1:] != bits[:-1])]


def _walk_keys(flags: np.ndarray, n: int) -> np.ndarray:
    """(G, max(n, 2) - 1) float64 closed-walk counts tr(A^k), k = 2..max(n,
    2), of the graphs on n vertices with (G, m) pair flags, in chunks of
    _WALK_CHUNK graphs. A^i is symmetric, so tr(A^(i+j)) = <A^i, A^j>, the
    sum of the entrywise product: the powers up to A^ceil(n/2), two alive at
    a time, give every count. Each count is an integer at most n (n-1)^(k-1)
    < 2^53 for n <= 9, so the float64 products and sums are exact. Newton's
    identities give the characteristic polynomial from tr A = 0 and these
    counts, so two graphs have equal rows exactly when they are cospectral."""
    top = max(n, 2)
    keys = np.empty((flags.shape[0], top - 1))
    for lo in range(0, flags.shape[0], _WALK_CHUNK):
        part = slice(lo, lo + _WALK_CHUNK)
        a = _adjacency(flags[part], n).astype(np.float64)
        keys[part, 0] = np.einsum("bij,bij->b", a, a)
        p = a  # A^((k-1)/2)
        for k in range(3, top + 1, 2):
            q = p @ a
            keys[part, k - 2] = np.einsum("bij,bij->b", q, p)
            if k < top:
                keys[part, k - 1] = np.einsum("bij,bij->b", q, q)
            p = q
    return keys


def _norms_by_spectrum(scored: np.ndarray, n: int, k: int | None) -> np.ndarray:
    """Norm (:func:`_spectral_norms` (k)) of each graph on n vertices of the
    ascending int64 bitsets `scored`, from one batched eigvalsh of one graph
    per spectrum. The graphs are grouped by their closed-walk counts
    (:func:`_walk_keys`), equal exactly when their spectra are, by one
    stable lexsort and a compare of neighbouring rows (not np.unique, see
    :func:`_distinct`). The least bitset of each group is solved and its
    norm given to the group."""
    flags = _pair_flags(scored, n * (n - 1) // 2)
    keys = _walk_keys(flags, n)
    order = np.lexsort(keys.T)
    keys = keys[order]
    first = np.append(True, (keys[1:] != keys[:-1]).any(axis=1))
    group = np.empty(order.size, dtype=np.int64)
    group[order] = np.cumsum(first) - 1
    w = _eigvalsh_stack(_adjacency(flags[order[first]], n).astype(np.float64))
    return _spectral_norms(w, k)[group]


def _result(
    n: int, k: int | None, values, rows, evaluations: int, seed: int | None, method: str
) -> SearchResult:
    """The SearchResult of a search on n vertices for the Ky Fan index k (None
    for trace_sum) over candidate graphs: row i of `rows` holds one bitset
    or several (an orbit), each of value values[i]. best_value is the
    largest value, and the witnesses are the graph6 strings, from one
    :func:`_graph6_batch`, of the distinct graphs within WITNESS_TOL of it in
    ascending bitset order by one sort, cut at WITNESS_CAP, truncated telling
    whether the cut dropped any. The bitsets are int64, or Python ints in an
    object array when they may not fit 63 bits."""
    values = np.asarray(values)
    best = float(values.max())
    bits = _distinct(np.asarray(rows)[values >= best - WITNESS_TOL])
    return SearchResult(
        objective="trace_sum" if k is None else "kyfan_sum",
        k=k,
        n=n,
        best_value=best,
        witnesses=tuple(_graph6_batch(n, bits[:WITNESS_CAP].tolist())),
        truncated=bits.size > WITNESS_CAP,
        evaluations=evaluations,
        seed=seed,
        method=method,
    )


def _permutations(v: int) -> np.ndarray:
    """(v!, v) table of the permutations of range(v), in itertools order:
    lexicographic, so the rows that start with f are f followed by the
    (v - 1)-table with every entry >= f shifted up by one."""
    table = np.zeros((1, 0), dtype=np.int64)
    for w in range(1, v + 1):
        first = np.arange(w)[:, None, None]
        rest = table + (table >= first)  # (w, (w - 1)!, w - 1)
        table = np.concatenate([np.broadcast_to(first, rest.shape[:2] + (1,)), rest], axis=2)
        table = table.reshape(-1, w)
    return table


def _relabelings(perms: np.ndarray) -> np.ndarray:
    """(v!, v(v-1)/2) float table of the (v!, v) permutations `perms`: row p,
    column b is 2^t, where pair bit t is the image of pair bit b under row p,
    read from one (v, v) table of 2^(pair bit) of each vertex pair."""
    v = perms.shape[1]
    js, is_ = np.nonzero(pair_mask(v))  # pair bit r is {is_[r], js[r]}
    power = np.zeros((v, v))
    power[js, is_] = power[is_, js] = np.ldexp(1.0, np.arange(js.size))
    return power[perms[:, js], perms[:, is_]]


def _orbits(bits: np.ndarray, relabelings: np.ndarray) -> np.ndarray:
    """(G, v!) bitsets of every relabeling of each graph of the int64
    bitsets `bits` on v vertices. A graph's 0/1 pair-bit row times the
    table is a sum of distinct powers of 2 below 2^53, so it is exact."""
    rows = _pair_flags(bits, relabelings.shape[1]).astype(np.float64)
    return (rows @ relabelings.T).astype(np.int64)


def _bordered(v: int) -> np.ndarray:
    """Bitsets of graphs on v >= 1 vertices whose first v - 1 vertices form
    one of :func:`_class_reps` (v - 1): each rep R with vertex v - 1 joined
    to one neighbour set S per orbit of Aut(R) on the subsets of range(v -
    1). Vertex v - 1 owns the top v - 1 pair bits, so a graph is R plus S
    in those bits. Deleting a vertex of any graph on v vertices leaves a
    graph isomorphic to some rep, so every graph on v vertices is
    isomorphic to some (R, S); and (R, S) is isomorphic to (R, p(S)) for p
    in Aut(R), by p fixing vertex v - 1, so one S per orbit still meets
    every class.

    The kept S is the least of its orbit, or the largest when R exceeds its
    labeled complement full - R. As p commutes with complementing a set,
    S is largest in its orbit exactly when its complement is least, so the
    borders kept for the complement rep are the complements of R's. The
    complement of (R, S) is (full - R, complement of S), so bordering a
    list closed under labeled complement (v - 1 = 6 or 7) gives a set closed
    under it too. Each rep keeps (1/|Aut R|) sum over p of 2^cycles(p)
    sets (Burnside), 5,096 graphs at v = 7 and 79,264 at v = 8."""
    w = v - 1
    shift = w * (w - 1) // 2  # the pair bits of the first w vertices
    reps, groups = _class_reps(w)
    subsets = np.arange(1 << w, dtype=np.int64)
    # image of each S under each automorphism p, the sum of 2^p(i) over i
    # in S: below 2^w, so exact in float32
    powers = (1 << np.concatenate(groups)).astype(np.float32)
    images = _pair_flags(subsets, w).astype(np.float32) @ powers.T
    starts = np.cumsum([0] + [len(g) for g in groups[:-1]])
    least = np.minimum.reduceat(images, starts, axis=1).T == subsets  # (reps, 2^w)
    top = reps > ((1 << shift) - 1) - reps
    keep = np.where(top[:, None], least[:, ::-1], least)
    return (reps[:, None] | (subsets << shift))[keep]


def _class_reps(v: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Bitsets of one graph per isomorphism class on v vertices (1, 1, 2, 4,
    11, 34, 156, 1044 for v = 0..7, OEIS A000088), and the automorphism
    group of each: the (|Aut|, v) rows p of :func:`_permutations` under
    which the rep's orbit returns the rep. Each bordered graph in turn is
    kept unless a kept graph's orbit already marked it, and each kept graph
    g is followed by its labeled complement full - g (full is K_v's bitset),
    which has the same group, unless that class is marked too. Only a
    self-complementary class (P4 at v = 4, C5 and the bull at v = 5) keeps
    g alone, so at v = 2, 3, 6 and 7 the list is closed under labeled
    complement."""
    if v <= 1:
        return np.zeros(1, dtype=np.int64), [np.zeros((1, v), dtype=np.int64)]
    perms = _permutations(v)
    relabelings = _relabelings(perms)
    full = (1 << (v * (v - 1) // 2)) - 1
    seen = np.zeros(full + 1, dtype=bool)
    reps, groups = [], []
    for g in _bordered(v).tolist():
        if not seen[g]:
            orbit = _orbits(np.array([g]), relabelings)[0]
            seen[orbit] = True
            reps.append(g)
            groups.append(perms[orbit == g])
            if not seen[full - g]:
                seen[full - orbit] = True
                reps.append(full - g)
                groups.append(groups[-1])
    return np.array(reps, dtype=np.int64), groups


def exhaustive_max(n: int, k: int | None = None, threads: int = 1) -> SearchResult:
    """Exact maximum over all 2^(n(n-1)/2) labeled graphs of the objective:
    trace_sum for k None, else kyfan_sum, the Ky Fan k-norm sum.

    Hard-capped at n = 8. Isomorphic graphs have one spectrum, and so do
    their complements, so the objective is scored on :func:`_bordered` (n)
    alone: one rep per isomorphism class on n - 1 vertices, bordered with
    one neighbour set per orbit of the rep's automorphism group, which
    meets every class on n vertices (5,096 graphs at n = 7 and 79,264 at
    n = 8, against 2^21 and 2^28 labeled ones). The complement of a graph
    is a graph, so a graph's value is the norm of its matrix plus its
    complement's, over the union of the bordered graphs and their labeled
    complements; at n = 7 and 8 the bordered set is closed under
    complement, so the union is the set itself. Cospectral matrices have one
    norm, so :func:`_norms_by_spectrum` solves the least bitset of each
    closed-walk key of the union, in one batched eigvalsh (988 of 5,096
    matrices at n = 7, 11,453 of 79,264 at n = 8). A graph's value adds the
    norms of the labelings solved for its spectrum and its complement's, so
    it may differ from what :func:`_pair_objective` gives the graph itself
    in the last bits. The witnesses are the labeled graphs in the orbits of
    the scored graphs within WITNESS_TOL of the best, merged by one sort of
    the orbit rows (:func:`_result`). `evaluations` counts the labeled
    graphs covered, 2^(n(n-1)/2). At 7bbab83 on a 2-vCPU Xeon, warm, n = 7
    took 13-19 ms and n = 8 0.24-0.29 s, on the calling thread: `threads`
    is checked like local_search_max's but not used.
    """
    n, k = _check_search(n, k, threads, EXHAUSTIVE_MAX_N, "exhaustive enumeration")
    m = n * (n - 1) // 2
    graphs = _bordered(n)
    complements = ((1 << m) - 1) - graphs
    scored = _distinct(np.concatenate([graphs, complements]))
    norms = _norms_by_spectrum(scored, n, k)
    vals = norms[np.searchsorted(scored, graphs)] + norms[np.searchsorted(scored, complements)]
    near = np.flatnonzero(vals >= vals.max() - WITNESS_TOL)
    orbits = _orbits(graphs[near], _relabelings(_permutations(n)))
    return _result(n, k, vals[near], orbits, 1 << m, None, "exhaustive")


class _ScreenWork:
    """The arrays that the flip screen of an n-vertex adjacency writes, for
    m flips: one per annealing restart, so that a chunk of flips allocates
    nothing and a screen little beyond its factorization. The nodes and
    weights are those of _SCREEN_X and _SCREEN_W when it is built.

    A complex table is a float64 table with re and im interleaved on its
    last axis, so that one real matmul fills it and its complex128 view
    reads it. The chunk buffers are flat, and a chunk of c flips uses
    contiguous views of their first c flips, made here for the two chunk
    sizes of m: np.take and np.matmul then write into them directly."""

    def __init__(self, n: int, m: int) -> None:
        self.x, self.w = _SCREEN_X, _SCREEN_W
        self.x2 = self.x * self.x
        k = self.x.size
        self.pair = np.empty((2, n, n))  # A and J - I - A, then Q * Q
        self.coef = np.empty((2, n, 2 * k))  # 1/(λ - ix), so R = Q diag(coef) Q^T
        self.diag = np.empty((2, n, 2 * k))  # R_ii
        self.inv = self.diag.reshape(-1)[: 2 * n * k].reshape(2, n, k)  # 1/(λ² + x²)
        self.signed = np.empty((2, 2 * n, n))  # the rows of Q and of -Q
        self.rows = np.empty(m, dtype=np.intp)  # the row of signed for each flip
        self.d0 = np.empty((2, m), dtype=np.complex128)  # d at the smallest node
        self.delta = np.empty(m)
        # per flip: s Q[i] and Q[j], P = s R_ij, R_ii and R_jj of both
        # matrices, and v of their sum
        widths = (2 * n, 2 * n, 4 * k, 4 * k, 4 * k, k)
        full = min(_SCREEN_CHUNK, m)
        flat = [np.empty(full * width) for width in widths]
        self.chunks = {}
        for c in {full, m % _SCREEN_CHUNK} - {0}:
            qi, qj, p, ri, rj, v = (b[: c * width] for b, width in zip(flat, widths))
            p = p.reshape(2, c, 2 * k)
            self.chunks[c] = (
                qi.reshape(2, c, n),
                qj.reshape(2, c, n),
                p,
                p.view(np.complex128),
                ri.view(np.complex128).reshape(2, c, k),
                rj.view(np.complex128).reshape(2, c, k),
                v.reshape(c, k),
            )


def _screen_flips(a: np.ndarray, is_: np.ndarray, js: np.ndarray, work: _ScreenWork):
    """Screened change of ||A||_* + ||J - I - A||_* under each flip (is_[r],
    js[r]) of the 0/1 adjacency a, and a mask of the flips whose screened
    value is unreliable; None when the screen declines. The changes are
    written into `work`, and the next screen on it overwrites them.

    By the Coulson integral, for symmetric A and A' of one order,
    ||A'||_* - ||A||_* = (2/pi) int_0^inf log|det(A' - ixI) / det(A - ixI)| dx.
    A flip adds s(e_i e_j^T + e_j e_i^T), s = +1 for a new edge and -1 for a
    removed one, so the ratio is the 2x2 determinant g = 1 + d with
    d = P (P + 2) - R_ii R_jj, P = s R_ij and R = (A - ixI)^-1 =
    Q diag(1/(λ - ix)) Q^T. The complement takes -s. One certified eigh of
    the stack of A and J - I - A gives R at all 71 nodes, both matrices in
    one batch: the complex table 1/(λ - ix) = (λ + ix)/(λ² + x²) is kept
    as interleaved re and im, so R_ij at every node is the row product
    Q[i] * Q[j] times that table, one real matmul, and d is formed in
    complex arithmetic. d is formed directly, since 1 + d would lose its
    1/x² tail, and |g|² = 1 + u with u = 2 Re d + |d|². The two matrices
    share one log per flip and node: log|g_A| + log|g_B| = log1p(v) / 2
    with v = u_A + u_B + u_A u_B, as (1 + u_A)(1 + u_B) = |g_A g_B|². v is
    formed as 2 Re e + |e|² from e = d_A + d_B + d_A d_B, since
    g_A g_B = 1 + e, which keeps the tail as d does.
    A numerically singular A or J - I - A (|λ| <= SCREEN_TAU) makes d a
    difference of 1/x² terms, so the screen declines; a numerically
    singular A' makes |g| vanish at 0, and the flip is marked unreliable
    when |g| of either matrix at the smallest node is below _SCREEN_G_TOL.

    The nodes span x_min = 5.2e-12 to x_max = 1.9e11, and the two tails they
    leave out carry under 1e-9 of a reliable value for n <= LOCAL_MAX_N.
    The summed integrand is log|g_A| + log|g_B|, so its tail is at most the
    sum of the two matrices' tails, bounded here.
    Upper tail: Q[i] . Q[j] = 0 gives
    R_ij = sum_k Q_ik Q_jk λ_k / (ix (λ_k - ix)), so |R_ij| <= ρ/x² with ρ
    the spectral radius, and |R_ii| <= 1/x; hence |d| <= (2ρ + 2)/x² for
    x >= 2ρ, and the integral beyond x_max is at most about
    (2/π)(2ρ + 2)/x_max. As ρ(A)² + ρ(J - I - A)² <= tr A² +
    tr (J - I - A)² = n(n - 1), both matrices together give at most
    (2/π)(2 sqrt(2n(n - 1)) + 4)/x_max = 6.1e-10 at n = 64. Lower tail:
    ||R(ix)|| <= 1/SCREEN_TAU gives log|g| <= log(1 + 2/τ + 2/τ²) < 29, and a
    reliable flip has log|g| >= log _SCREEN_G_TOL > -10 at x_min, so the
    integral over [0, x_min] is at most about (2/π) 30 x_min per matrix,
    2.0e-10 for both. Both are far inside the 1e-8 the screened values are
    held to and the SCREEN_DELTA margin of the candidates.
    """
    pair = work.pair
    pair[0], pair[1] = a, complement_matrix(a)
    try:
        w, q, _ = eigh_basis(pair)
    except NoConvergenceError:
        return None
    if not (np.abs(w) > SCREEN_TAU).all():
        return None
    w = w[:, :, None]
    inv, coef = work.inv, work.coef.view(np.complex128)
    np.multiply(w, w, out=inv)
    inv += work.x2
    np.divide(1.0, inv, out=inv)
    np.multiply(w, inv, out=coef.real)
    np.multiply(work.x, inv, out=coef.imag)
    np.multiply(q, q, out=pair)
    np.matmul(pair, work.coef, out=work.diag)  # R_ii at every node
    diag = work.diag.view(np.complex128)
    # s Q[i] is row i + n a_ij of signed[0] and of signed[1], as s = 1 - 2 a_ij
    # for A and 2 a_ij - 1 for J - I - A
    n = a.shape[0]
    signed = work.signed.reshape(2, 2, n, n)
    signed[0, 0], signed[1, 1] = q
    np.negative(q[0], out=signed[0, 1])
    np.negative(q[1], out=signed[1, 0])
    np.add(is_, n * a[is_, js], out=work.rows, casting="unsafe")
    with np.errstate(invalid="ignore", divide="ignore"):
        for lo in range(0, is_.size, _SCREEN_CHUNK):
            part = slice(lo, lo + _SCREEN_CHUNK)
            i, j = is_[part], js[part]
            qi, qj, p, pc, ri, rj, v = work.chunks[i.size]
            # mode="clip" takes straight into out, "raise" through a copy
            np.take(work.signed, work.rows[part], axis=1, out=qi, mode="clip")
            np.take(q, j, axis=1, out=qj, mode="clip")
            qi *= qj
            np.matmul(qi, work.coef, out=p)  # P = s R_ij
            np.take(diag, i, axis=1, out=ri, mode="clip")
            np.take(diag, j, axis=1, out=rj, mode="clip")
            # d = P (P + 2) - R_ii R_jj, as 2s R_ij + R_ij^2 = P (P + 2)
            ri *= rj
            np.add(pc, 2.0, out=rj)
            pc *= rj
            pc -= ri
            work.d0[:, part] = pc[:, :, 0]
            # e = d_A + d_B + d_A d_B, so that g_A g_B = 1 + e
            e = ri[0]
            np.multiply(pc[0], pc[1], out=e)
            e += pc[0]
            e += pc[1]
            re, im = e.real, e.imag
            np.add(re, 2.0, out=v)
            v *= re
            im *= im
            v += im
            np.log1p(v, out=v)
            np.matmul(v, work.w, out=work.delta[part])
    d0 = work.d0
    u0 = (d0.real + 2.0) * d0.real + d0.imag * d0.imag  # |g|^2 = 1 + u0
    return work.delta, (u0 < _SCREEN_G_TOL**2 - 1.0).any(axis=0)


def _flip_candidates(
    a: np.ndarray, is_: np.ndarray, js: np.ndarray, work: _ScreenWork
) -> tuple[np.ndarray, np.ndarray | None]:
    """(cand, bound): the ascending indices of the flips to re-score exactly,
    and an upper bound on each flip's exact change of the objective, or None.
    The candidates are every flip whose screened value is within
    SCREEN_DELTA of the largest reliable one, and every unreliable flip. A
    reliable flip's bound is its screened change plus SCREEN_DELTA, which
    holds as the screen's error is under 1e-8; an unreliable flip's is +inf.
    When the screen declines or gives a reliable value that is not finite,
    every flip is a candidate and there are no bounds. `work` is the
    restart's screen workspace."""
    screened = _screen_flips(a, is_, js, work)
    if screened is not None:
        delta, unreliable = screened
        reliable = delta[~unreliable]
        if reliable.size and np.isfinite(reliable).all():
            # an unreliable delta may be NaN, which compares false
            cand = np.flatnonzero(unreliable | (delta >= reliable.max() - SCREEN_DELTA))
            return cand, np.where(unreliable, math.inf, delta + SCREEN_DELTA)
    return np.arange(is_.size), None


def _flip_values(a: np.ndarray, is_: np.ndarray, js: np.ndarray, k: int | None):
    """Objective of each flip (is_[r], js[r]) of the adjacency a, by
    :func:`_pair_objective` on the stack of flipped copies."""
    rows = np.arange(is_.size)
    neighbors = np.repeat(a[None], is_.size, axis=0)
    flipped = 1.0 - a[is_, js]
    neighbors[rows, is_, js] = flipped
    neighbors[rows, js, is_] = flipped
    return _pair_objective(neighbors, k)


def _anneal_once(n: int, k: int | None, cfg: SearchConfig, restart: int):
    """One annealing run. Each step considers every single-edge flip; the best
    uphill flip is taken (ties to the smallest flip index), otherwise a random
    flip is accepted with probability exp(delta / T). Returns (best_value,
    best_bits, evaluations).

    Every value a decision reads (the best flip, the random flip's value,
    the freeze test and the current value) is exact: `_pair_objective` on
    the flipped adjacency, which gives each matrix of a stack the same bits
    as alone. For trace_sum (k None), `_flip_candidates` first screens all m
    flips with the Coulson integral (`_screen_flips`, error under about
    1e-8): the candidates are the flips within SCREEN_DELTA of the screened
    maximum, plus those it marks unreliable, and each flip of maximal exact
    value is among them, so the step and its tie-break are those of scoring
    all m. The screen also bounds each flip's exact change from above: its
    screened change plus SCREEN_DELTA, +inf for an unreliable flip. When A
    or J - I - A has an eigenvalue within SCREEN_TAU of 0, the screen's
    factorization fails, or it gives a non-finite value, every flip is a
    candidate and there are no bounds; so it is for kyfan_sum, whose
    restart builds no screen workspace.

    A value is scored only when a decision needs it, and the bounds settle
    most decisions unscored. The candidates are scored when some bound is
    above 0, as an uphill flip may then exist; with every bound at most 0
    there is none, and the step goes straight to its random flip. The
    random flip's acceptance draw u is taken right after the flip itself,
    in the order the stream always had, and none at T <= 0. A flip whose
    bound b gives exp(b / T) <= u, or b < 0 at T = 0, is rejected
    unscored, as its exact change would fail the same test; otherwise it
    is scored alone, even when the candidates' scores hold it (a flip
    scored alone and in a stack gets the same bits). A step that rejects
    its random flip at T < 1e-12 scores the candidates for the freeze
    test. The skips need only |screened - exact| <= SCREEN_DELTA, and the
    candidate set already relies on SCREEN_DELTA / 2, so the run is bit
    for bit the one that scores every value.

    A graph is screened when the walk reaches it, and its candidates are
    scored at most once while the walk stays on it: a step that takes no
    flip leaves A as it was, so the next step reuses its candidates, bounds
    and any exact values, and only its random-flip draw is new. A flip
    that undoes the flip just applied takes the walk back to the graph it
    left, whose step state (`left`) is restored, and the current one is
    kept in its place; any other flip drops it. So A -> A' -> A, a downhill
    random flip and the uphill flip that undoes it, screens A once. The
    kept state is what screening and scoring the graph again would give,
    bit for bit: the candidates, bounds and scores are fresh arrays, never
    views of the workspace, and functions of the graph alone.
    `evaluations` counts graphs considered, 1 for the start and m per step,
    whether their flips were scored, screened out or reused. A default
    restart (seed 3) screens 128 graphs at n = 16 in its 5514 steps and
    makes 225 `_flip_values` calls, 217 of them on a single flip, against
    1993 when every screen scored its candidates.
    """
    m = n * (n - 1) // 2
    rng = SplitMix64((cfg.seed + restart) & MASK64)
    a = adjacency_matrix(Graph(n=n, bits=rng.next_bits(m))).array.copy()
    cur_val = float(_pair_objective(a[None], k)[0])
    evaluations = 1
    best_val, best_a = cur_val, a.copy()
    if m == 0:
        return best_val, 0, evaluations

    temp = cfg.temperature_initial
    js, is_ = np.nonzero(pair_mask(n))  # flip r toggles pair bit r
    every = np.arange(m)
    work = _ScreenWork(n, m) if k is None else None
    cand = vals = None  # a's candidates and their exact scores, kept until a flip changes a
    undo, left = -1, None  # the flip back to the graph the walk left, and that graph's state
    for _ in range(cfg.max_steps):
        if cand is None:
            cand, bound = _flip_candidates(a, is_, js, work) if k is None else (every, None)
            uphill = bound is None or bound.max() > 0.0  # an uphill flip may exist
        evaluations += m
        if vals is None and uphill:
            vals = _flip_values(a, is_[cand], js[cand], k)
        flip = -1
        if vals is not None:
            top = int(np.argmax(vals))  # cand ascends, so ties go to the smallest flip
            if vals[top] > cur_val:
                flip, value = int(cand[top]), vals[top]
        if flip < 0:
            # no uphill move; try one random flip at the current temperature
            r = rng.next_below(m)
            u = rng.next_double() if temp > 0.0 else 0.0
            b = math.inf if bound is None else float(bound[r])
            if (b >= 0.0) if temp <= 0.0 else (b > 0.0 or math.exp(b / temp) > u):
                # the bound cannot reject the flip, so its exact value decides
                value = _flip_values(a, is_[r : r + 1], js[r : r + 1], k)[0]
                delta = value - cur_val
                if (delta == 0.0) if temp <= 0.0 else math.exp(delta / temp) > u:
                    flip = r
        if flip >= 0:
            a[is_[flip], js[flip]] = a[js[flip], is_[flip]] = 1.0 - a[is_[flip], js[flip]]
            state = cand, bound, uphill, vals
            if flip == undo:  # back on the graph the walk just left
                cand, bound, uphill, vals = left
            else:
                cand = vals = None
            undo, left, cur_val = flip, state, float(value)
            if cur_val > best_val:
                best_val, best_a = cur_val, a.copy()
        elif temp < 1e-12:
            if vals is None:
                vals = _flip_values(a, is_[cand], js[cand], k)
            if vals.max() < cur_val - 1e-12:
                break  # frozen at a strict local maximum; nothing can change
        temp *= cfg.cooling

    return best_val, Graph.from_flags(n, best_a[is_, js]).bits, evaluations


def local_search_max(
    n: int, k: int | None = None, cfg: SearchConfig | None = None, threads: int = 1
) -> SearchResult:
    """Seeded annealing over edge flips; a certified lower bound on the
    maximum of trace_sum for k None, else of kyfan_sum, the Ky Fan k-norm
    sum (best_value always comes from a concrete evaluated graph).

    For trace_sum a step screens all m = n(n-1)/2 flips with the Coulson
    integral, which bounds each flip's exact change by its screened change
    plus SCREEN_DELTA = 1e-6. The candidates, the flips within SCREEN_DELTA
    of the screened maximum plus those the screen marks unreliable, are
    scored exactly only when some bound is above 0 or for the freeze test.
    A random flip whose bound fails the acceptance test is rejected
    unscored, and one that its bound cannot reject is scored alone (see
    `_anneal_once`). Every flip is a candidate when A or J - I - A has
    an eigenvalue within SCREEN_TAU = 1e-6 of 0. The result is the one that
    scoring every flip gives, bit for bit. A step that takes no flip leaves
    the graph unchanged, and the next step reuses its screen and scores; a
    flip that undoes the one just applied restores those of the graph it
    returns to.

    At 7bbab83 on a 2-vCPU Xeon a screen took 0.44-0.54, 1.4-1.7 and
    4.6-5.9 ms at n = 16, 32 and 64 (3.0-4.3, 46 and 720-780 ms when every
    flip is scored), and an exact score of one flip 0.07, 0.11-0.15 and
    0.35-0.43 ms. The freeze test ends a default restart after about 5500
    steps, of which a few hundred screen their graph: with seed 3 one
    restart screens 128, 217 and 404 graphs at n = 16, 32 and 64 and makes
    225, 321 and 442 `_flip_values` calls (1993, 2563 and 2657 when every
    screen scored its candidates). Each restart builds one screen workspace
    (:class:`_ScreenWork`, about 1.2 MB at n = 64) and frees it when it
    ends. `evaluations` counts graphs considered, 1 per restart plus m per
    step, not factorizations. Speed does not find the equality case: at
    n = 17 the default config misses the bound met by P17.

    The restarts run in order on the calling thread. `threads` is checked
    like exhaustive_max's but not used: a step is many small numpy calls
    whose dispatch holds the GIL, and two threads were slower than one at
    n = 16, 32 and 64.
    """
    n, k = _check_search(n, k, threads, LOCAL_MAX_N, "local search")
    if cfg is None:
        cfg = SearchConfig()

    values, bits, evaluations = zip(*(_anneal_once(n, k, cfg, r) for r in range(cfg.restarts)))
    return _result(n, k, values, np.array(bits, dtype=object), sum(evaluations), cfg.seed, "local")


# ---------------------------------------------------------------------------
# Property sweeps


@dataclass(frozen=True)
class KindSweep:
    """Tally for one sweep kind: how many trials passed, the worst slack seen
    (for the complement eigenvalue kind, minus the largest margin), and the
    input that produced it. Kinds that keep the same sample share one
    witness dict."""

    kind: str
    trials: int
    passes: int
    violations: int
    worst_slack: float
    worst_witness: dict | None


@dataclass(frozen=True)
class SweepReport:
    seed: int
    n_range: tuple[int, int]
    total_violations: int = field(init=False)
    results: tuple[KindSweep, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "total_violations", sum(r.violations for r in self.results))


# the sample stream each sweep kind reads; the kinds of one stream check
# the same samples, each drawn once, in the order of the requested kinds
_KIND_TAGS = {
    "main": "graph",
    "main_matrix": "sym_matrix",
    "shifted": "sym_matrix",
    "kyfan": "rect_matrix",
    "opnorm": "rect_matrix",
    "weyl": "graph",
}
SWEEP_KINDS = tuple(_KIND_TAGS)


def _random_symmetric(rng: SplitMix64, n: int) -> DenseMatrix:
    """Zero diagonal; the upper triangle is drawn row by row."""
    a = np.zeros((n, n))
    upper = np.triu_indices(n, 1)
    a[upper] = rng.next_doubles(len(upper[0]))
    return DenseMatrix(a + a.T)


def _random_rect(rng: SplitMix64, m: int, n: int) -> DenseMatrix:
    return DenseMatrix(rng.next_doubles(m * n).reshape(m, n))


def _draw(tag: str, rng: SplitMix64, lo: int, hi: int) -> Graph | DenseMatrix:
    """The next sample of stream `tag`: its order, drawn from [lo, hi], then
    for rect_matrix its column count, then its entries. A graph has edge
    probability 1/2, a matrix uniform [0, 1) entries."""
    size = lo + rng.next_below(hi - lo + 1)
    if tag == "graph":
        return Graph(n=size, bits=rng.next_bits(size * (size - 1) // 2))
    if tag == "sym_matrix":
        return _random_symmetric(rng, size)
    return _random_rect(rng, size, lo + rng.next_below(hi - lo + 1))


def _sweep_check(kind: str, pair: SpectrumPair, tol: float) -> tuple[bool, float]:
    """(passed, slack) of sweep kind `kind` on the spectrum pair of one
    sample. The weyl slack is minus the largest margin (an order n >= 2 has
    n - 1); kyfan checks k = 2 and, when the shape allows, k = 3, and takes
    the smaller slack."""
    if kind == "weyl":
        report = weyl_complement_check(pair, tol=tol)
        return report.ok, -max(report.margins)
    if kind == "kyfan":
        ks = (2, 3) if min(pair.x.shape) >= 3 else (2,)
        sub = [check_bound("kyfan", pair, k=k, tol=tol) for k in ks]
        return all(v.holds for v in sub), min(v.slack for v in sub)
    verdict = check_bound("main" if kind == "main_matrix" else kind, pair, tol=tol)
    return verdict.holds, verdict.slack


def property_sweep(
    trials: int,
    seed: int,
    n_range: tuple[int, int],
    kinds: list[str],
    tol: float = HOLD_TOL,
) -> SweepReport:
    """Run `trials` seeded random inputs through each requested checker.

    Each stream among the requested kinds (see _KIND_TAGS) is opened once,
    from the seed and its tag, and draws `trials` samples (:func:`_draw`).
    Every requested kind of that stream checks each sample through one
    SpectrumPair, so a sample and its partner are factored once each. Any
    violation is reported with the offending input serialized in full: each
    kind keeps its worst sample, and at the end each kept sample is
    serialized once, into one witness that every kind keeping it shares. A
    kind named twice is an error, as it would run on the same samples again.
    """
    trials, seed = as_positive_int(trials, "trials"), as_seed(seed)
    lo, hi = (as_int(v, "n_range bound") for v in n_range)
    if not 2 <= lo <= hi:
        raise ValueError(f"n_range must satisfy 2 <= lo <= hi, got ({lo}, {hi})")
    check_dimensions(f"sweep order {hi}", hi)
    kinds = list(kinds)
    if not kinds or len(set(kinds)) < len(kinds) or not set(kinds) <= set(SWEEP_KINDS):
        raise ValueError(f"sweep kinds must be nonempty, distinct, in {SWEEP_KINDS}, got {kinds}")
    tol = check_tol(tol)
    tally = {kind: [0, math.inf, None] for kind in kinds}  # passes, worst slack, its sample
    for tag in dict.fromkeys(_KIND_TAGS[kind] for kind in kinds):
        rng = SplitMix64(derive_seed(seed, tag))
        group = [kind for kind in kinds if _KIND_TAGS[kind] == tag]
        for _ in range(trials):
            sample = _draw(tag, rng, lo, hi)
            mat = adjacency_matrix(sample) if tag == "graph" else sample
            pair = SpectrumPair(mat, tag != "rect_matrix")
            for kind in group:
                ok, slack = _sweep_check(kind, pair, tol)
                tally[kind][0] += ok
                if slack < tally[kind][1]:
                    tally[kind][1:] = slack, sample
    # kinds that keep the same sample share its one witness; the tally keeps
    # every sample alive, so no id is reused here
    results, witnesses = [], {}
    for kind, (passes, slack, sample) in tally.items():
        if sample is not None and id(sample) not in witnesses:
            witnesses[id(sample)] = (
                {"graph6": graph6_encode(sample)}
                if isinstance(sample, Graph)
                else {"matrix": sample.to_json()}
            )
        witness = witnesses.get(id(sample))
        results.append(KindSweep(kind, trials, passes, trials - passes, slack, witness))
    return SweepReport(seed=seed, n_range=(lo, hi), results=tuple(results))
