"""Empirical maximization of complement norm sums over graphs.

Three strategies: exhaustive labeled enumeration for n <= 8, seeded
edge-flip annealing for n <= 64, and randomized property sweeps that hammer
the bound checkers with seeded graphs and matrices. Everything is
deterministic given its inputs. Exhaustive enumeration fans its fixed jobs
out over threads and merges their witnesses by one sort; annealing runs its
restarts in order on the calling thread.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .bounds import HOLD_TOL, check_bound, check_tol, weyl_complement_check
from .errors import (
    BadConfigError,
    KOutOfRangeError,
    NoConvergenceError,
    OrderTooLargeError,
    as_int,
    as_positive_int,
)
from .graphs import Graph, adjacency_matrix, complement_matrix, graph6_encode, pair_mask
from .linalg import DenseMatrix, _eigvalsh_stack, check_dimensions, eigh_basis
from .rng import MASK64, SplitMix64, as_seed, derive_seed

EXHAUSTIVE_MAX_N = 8
LOCAL_MAX_N = 64
WITNESS_CAP = 1000
# a graph counts as a witness when its value is within this of the maximum
WITNESS_TOL = 1e-9

OBJECTIVES = ("trace_sum", "kyfan_sum")

_BLOCK_BITS = 16  # exhaustive enumeration block size 2^16

# Annealing flip screen, see _screen_flips and _anneal_once. Below
# SCREEN_MIN_N scoring all m <= 36 flips exactly costs less than the screen.
SCREEN_MIN_N = 10
SCREEN_DELTA = 1e-6
SCREEN_TAU = 1e-6
_SCREEN_G_TOL = 1e-4
# trapezoid rule in t on x = exp((pi/2) sinh t), t = -4.5, -4.4, ..., 4.5;
# a node's weight folds in dx/dt, the 2/pi of the integral and the 1/2 of
# log|g| = log1p(2 Re d + |d|^2) / 2
_SCREEN_T = 0.1 * np.arange(-45, 46)
_SCREEN_X = np.exp(np.pi / 2 * np.sinh(_SCREEN_T))
_SCREEN_W = 0.05 * _SCREEN_X * np.cosh(_SCREEN_T)
_SCREEN_CHUNK = 64  # flips per batch: the (2, 64, 91) temporaries stay in cache


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
        if not 0.0 <= self.temperature_initial < math.inf:
            raise BadConfigError(
                "temperature_initial must be finite and nonnegative, "
                f"got {self.temperature_initial!r}"
            )
        if not 0.0 < self.cooling < 1.0:
            raise BadConfigError(f"cooling must be in (0, 1), got {self.cooling!r}")


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a maximization run.

    witnesses lists every graph found within WITNESS_TOL of best_value, in
    ascending bitset order, capped at WITNESS_CAP (truncated set if the cap
    cut anything off). seed is None for exhaustive runs.
    """

    objective: str
    k: int | None
    n: int
    best_value: float
    witnesses: tuple[Graph, ...]
    truncated: bool
    evaluations: int
    seed: int | None
    method: str

    def to_json(self) -> dict:
        fields_ = {f.name: getattr(self, f.name) for f in fields(self)}
        return fields_ | {"witnesses": [graph6_encode(g) for g in self.witnesses]}


def _check_order(n: int, threads: int, cap: int, what: str) -> tuple[int, int]:
    """(n, threads) as positive ints, n at most cap; `what` names the search."""
    n = as_positive_int(n, "n")
    if n > cap:
        raise OrderTooLargeError(f"{what} is capped at n = {cap}, got n = {n}")
    return n, as_positive_int(threads, "threads")


def _fan_out(run, items, threads: int) -> list:
    """[run(x) for x in items] on up to `threads` worker threads (a positive
    integer), in item order whatever the thread count."""
    if threads == 1 or len(items) == 1:
        return [run(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(run, items))


def _check_objective(n: int, objective: str, k: int | None) -> int | None:
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}; expected one of {OBJECTIVES}")
    if objective == "trace_sum":
        if k is not None:
            raise ValueError(f"k applies only to objective 'kyfan_sum', got k={k!r}")
        return None
    if k is None:
        raise KOutOfRangeError("objective 'kyfan_sum' needs k")
    k = as_int(k, "k", KOutOfRangeError)
    if not 1 <= k <= n:
        raise KOutOfRangeError(f"k={k!r} outside [1, {n}]")
    return k


def _spectral_norms(w: np.ndarray, objective: str, k: int | None) -> np.ndarray:
    """Norm of each row of a (B, n) eigenvalue stack: the trace norm, or the
    Ky Fan k-norm."""
    aw = np.abs(w)
    if objective == "trace_sum":
        return aw.sum(axis=1)
    aw.sort(axis=1)
    return aw[:, aw.shape[1] - k :].sum(axis=1)


def _pair_objective(a: np.ndarray, objective: str, k: int | None) -> np.ndarray:
    """Objective values for a (B, n, n) adjacency stack: norm of each graph
    plus norm of its complement."""
    return _spectral_norms(_eigvalsh_stack(a), objective, k) + _spectral_norms(
        _eigvalsh_stack(complement_matrix(a)), objective, k
    )


def _adjacency_from_indices(idx: np.ndarray, n: int) -> np.ndarray:
    """(B, n, n) symmetric 0/1 float adjacency stack of int64 graph indices:
    pair bit k, cell (j, i) of :func:`pair_mask`, sets entries (j, i) and
    (i, j). Needs the n(n-1)/2 pair bits to fit in an int64 (n <= 11)."""
    bit = np.zeros((n, n), dtype=np.int64)
    bit[pair_mask(n)] = 1 << np.arange(n * (n - 1) // 2, dtype=np.int64)
    bit += bit.T
    return ((idx[:, None, None] & bit) != 0).astype(np.float64)


def _border_sets(v: int, values: np.ndarray) -> np.ndarray:
    """(U, v) 0/1 float rows: bit i of values[u] joins a new vertex v to
    vertex i, as the pair bits of vertex v do in a graph index."""
    return ((values[:, None] >> np.arange(v)) & 1).astype(np.float64)


def _border(adj: np.ndarray, rows: np.ndarray, counts: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Closed-walk counts of the graphs (u, g) bordered by a new vertex joined
    to the 0/1 row xs[u].

    Graph (u, g) has adjacency A = [[adj[g], B], [B^T, D]], adj a (G, b, b)
    stack and rows[u] = [B^T | D] the (s, b + s) rows of its s later
    vertices; xs is (U, b + s), counts (top - 1, U or 1, G) holds tr A^k,
    k = 2..top, and so does the (top - 1, U, G) result for the bordered
    graphs. By the Schur complement the bordered graph A' has
    det(I - zA') = det(I - zA) (1 - F(z)), F(z) = sum_j (x^T A^j x) z^(j+2),
    and -z d/dz log det(I - zA) = sum_k tr A^k z^k, so tr A'^k = tr A^k + s_k
    with s = zF'/(1 - F): s_k = k F_k + sum_{i=2}^{k-2} F_i s_(k-i).
    x^T A^j x is y_a . y_(j-a), a = j // 2 and y_i = A^i x: one batched
    matvec with adj, and two small products with rows, per i. Every term is a
    nonnegative walk count below 2^53, so the float64 arithmetic is exact.
    """
    b, top = adj.shape[1], counts.shape[0] + 1

    def times_a(y):  # rows y[g, u] of (G, U, b + s) times A, which is symmetric
        out = y[..., :b] @ adj
        if rows.shape[1] == 0:
            return out
        out += np.einsum("gus,usb->gub", y[..., b:], rows[..., :b])
        return np.concatenate([out, np.einsum("guw,usw->gus", y, rows)], axis=2)

    y = [np.broadcast_to(xs, (adj.shape[0],) + xs.shape)]
    while len(y) <= (top - 1) // 2:
        y.append(times_a(y[-1]))
    f, s = {}, {}
    out = np.empty((top - 1, xs.shape[0], adj.shape[0]))
    for kk in range(2, top + 1):
        a = (kk - 2) // 2
        f[kk] = np.einsum("guw,guw->ug", y[a], y[kk - 2 - a])
        s[kk] = kk * f[kk]
        for i in range(2, kk - 1):
            s[kk] += f[i] * s[kk - i]
        np.add(counts[kk - 2], s[kk], out=out[kk - 2])
    return out


def _base_table(n: int):
    """(adjacency, counts) of all graphs on the first b vertices of an
    enumeration block, in index order: b is the largest b <= n whose
    b(b-1)/2 pair bits fit in _BLOCK_BITS. counts (max(n, 2) - 1, 1,
    2^(b(b-1)/2)) holds tr H^k, k = 2..max(n, 2), grown by bordering from
    the one-vertex graph with every set of each next vertex, and the
    (2^(b(b-1)/2), b, b) adjacency stack is None when b = n, where the base
    graphs are the whole enumeration and nothing is bordered onto them.
    n = 1 keeps the row tr A^2 = 0 so that every graph has a key."""
    b = 1
    while b < n and (b + 1) * b // 2 <= _BLOCK_BITS:
        b += 1
    adj, counts = np.zeros((1, 1, 1)), np.zeros((max(n, 2) - 1, 1, 1))
    for v in range(1, b):
        xs = _border_sets(v, np.arange(1 << v))
        counts = _border(adj, np.zeros((xs.shape[0], 0, v)), counts, xs)
        counts = counts.reshape(counts.shape[0], 1, -1)
        # graph u 2^(v(v-1)/2) + g is adj[g] plus vertex v; the stack on b
        # vertices serves only blocks that border later vertices onto it
        if v + 1 < b or b < n:
            grown = np.zeros((xs.shape[0], adj.shape[0], v + 1, v + 1))
            grown[:, :, :v, :v] = adj
            grown[:, :, v, :v] = grown[:, :, :v, v] = xs[:, None]
            adj = grown.reshape(-1, v + 1, v + 1)
    return (adj if b < n else None), counts


def _pack_keys(counts: np.ndarray, n: int) -> np.ndarray:
    """(G, W) int64 keys of the (top - 1, G) closed-walk counts of graphs on
    n vertices: tr A^k <= n (n-1)^(k-1) gets that bound's bit width, and
    the widths fill 63-bit words in k order (W = 2 for n = 7, 8), so equal
    keys are equal counts."""
    words, used = [], 0
    for kk, row in enumerate(counts, start=2):
        width = (n * (n - 1) ** (kk - 1)).bit_length()
        if not words or used + width > 63:
            words.append(np.zeros(row.shape, dtype=np.int64))
            used = 0
        words[-1] |= row.astype(np.int64) << used
        used += width
    return np.stack(words, axis=1)


def _block_keys(block: int, n: int, table) -> np.ndarray:
    """Packed closed-walk keys of enumeration block `block`, in index order.

    Vertex v owns pair bits v(v-1)/2 .. v(v+1)/2 - 1, so the block's indices
    form a grid: offset t = h + 2^(b(b-1)/2) u, with h every base graph of
    `table` (on b vertices) and u every value of the block's low bits of
    vertex b; each later vertex has the one set that the block's high bits
    give it. The later vertices' rows are kept per u, never per graph.
    """
    adj, counts = table
    if adj is not None:
        b, start = adj.shape[1], block << _BLOCK_BITS
        low = b * (b - 1) // 2
        xs = _border_sets(b, (start >> low) + np.arange(1 << (_BLOCK_BITS - low)))
        rows = np.zeros((xs.shape[0], 0, b))
        for v in range(b, n):
            if v > b:
                x = _border_sets(v, np.array([start >> (v * (v - 1) // 2)]))
                xs = np.broadcast_to(x, (rows.shape[0], v))
            counts = _border(adj, rows, counts, xs)
            # vertex v joins the later rows: column v is xs[:, b:], row v is xs
            grown = np.zeros((rows.shape[0], rows.shape[1] + 1, v + 1))
            grown[:, :-1, :v] = rows
            grown[:, :-1, v] = xs[:, b:]
            grown[:, -1, :v] = xs
            rows = grown
    return _pack_keys(counts.reshape(counts.shape[0], -1), n)


def _group_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact grouping of equal rows: (first, inverse) with first[g] the
    smallest row index of group g and inverse[i] the group of row i."""
    order = np.lexsort(keys.T)  # stable, so each group starts at its smallest row
    starts = np.zeros(order.shape[0], dtype=bool)
    starts[0] = True
    for column in keys.T:
        ranked = column[order]
        starts[1:] |= ranked[1:] != ranked[:-1]
    inverse = np.empty(order.shape[0], dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return order[starts], inverse


def _graph_norms(
    idx: np.ndarray, keys: np.ndarray, n: int, objective: str, k: int | None
) -> np.ndarray:
    """Norm of every graph index in idx, given rows of keys that are equal
    exactly when the graphs' closed-walk counts tr A^k, k = 2..n, are. With
    tr A = 0 these fix the characteristic polynomial (Newton's identities),
    so graphs with equal counts are cospectral, and the smallest index of
    each class stands in for it in one batched eigensolve."""
    first, inverse = _group_rows(keys)
    w = _eigvalsh_stack(_adjacency_from_indices(idx[first], n))
    return _spectral_norms(w, objective, k)[inverse]


def _job_values(job: int, n: int, objective: str, k: int | None, table):
    """Objective values of enumeration job `job`: (indices, values) over
    block `job` followed by its mirror block, or over the single block when
    there is only one; `table` is :func:`_base_table` (n).

    The complement of graph i is graph total - 1 - i (every edge bit
    flipped). In both layouts the indices ascend and position -1 - r holds
    the complement of position r, so f + f[::-1] pairs each graph's norm f
    with its complement's.
    """
    total = 1 << (n * (n - 1) // 2)
    block = min(total, 1 << _BLOCK_BITS)
    lo = np.arange(job * block, (job + 1) * block, dtype=np.int64)
    # the mirror block; a single block is its own mirror, and [:total] keeps it once
    idx = np.concatenate([lo, total - 1 - lo[::-1]])[:total]
    blocks = (job, total // block - 1 - job)[: idx.size // block]
    keys = np.concatenate([_block_keys(b, n, table) for b in blocks])
    f = _graph_norms(idx, keys, n, objective, k)
    return idx, f + f[::-1]


def _witnesses(n: int, candidates):
    """(best, witnesses, truncated) of (value, bitset) candidates: the best
    value, the distinct graphs within WITNESS_TOL of it in ascending bitset
    order, cut at WITNESS_CAP, and whether the cut dropped any."""
    best = max(v for v, _ in candidates)
    bits = sorted({b for v, b in candidates if v >= best - WITNESS_TOL})
    witnesses = tuple(Graph(n=n, bits=b) for b in bits[:WITNESS_CAP])
    return best, witnesses, len(bits) > WITNESS_CAP


def exhaustive_max(
    n: int, objective: str = "trace_sum", k: int | None = None, threads: int = 1
) -> SearchResult:
    """Exact maximum of the objective over all 2^(n(n-1)/2) labeled graphs.

    Hard-capped at n = 8 (2^28 graphs, 2048 jobs of about 65 ms each on a
    2-vCPU Xeon, so about 2 minutes per thread); n = 8 warns about the
    runtime up front. The graphs are enumerated in blocks of 2^16 indices.
    One job scores a block together with its mirror block, which holds the
    complements, and computes each graph's norm once; graphs with equal
    closed-walk counts are cospectral and share one batched eigenvalue call.
    The counts of a block come from those of all graphs on its first
    vertices, built once per call, by bordering with the block's later
    vertices (:func:`_border`). Each job hands on its graphs within
    WITNESS_TOL of its own top, and the witnesses are those of all jobs
    within WITNESS_TOL of the best, merged by one sort of their bitsets, so
    the result does not depend on the thread count.
    """
    n, threads = _check_order(n, threads, EXHAUSTIVE_MAX_N, "exhaustive enumeration")
    if n == EXHAUSTIVE_MAX_N:
        warnings.warn(
            "exhaustive_max(8) enumerates 2^28 graphs in 2048 jobs of two 2^16 blocks; "
            "expect about 2 minutes per thread",
            stacklevel=2,
        )
    k = _check_objective(n, objective, k)
    total = 1 << (n * (n - 1) // 2)
    jobs = range(max(1, (total >> _BLOCK_BITS) // 2))
    table = _base_table(n)  # read-only, shared by the jobs

    def run(job):
        idx, vals = _job_values(job, n, objective, k, table)
        near = vals >= vals.max() - WITNESS_TOL
        return list(zip(vals[near].tolist(), idx[near].tolist()))

    near_tops = [c for part in _fan_out(run, jobs, threads) for c in part]
    best, witnesses, truncated = _witnesses(n, near_tops)
    return SearchResult(
        objective=objective,
        k=k,
        n=n,
        best_value=best,
        witnesses=witnesses,
        truncated=truncated,
        evaluations=total,
        seed=None,
        method="exhaustive",
    )


def _screen_flips(a: np.ndarray, is_: np.ndarray, js: np.ndarray):
    """Screened change of ||A||_* + ||J - I - A||_* under each flip (is_[r],
    js[r]) of the 0/1 adjacency a, and a mask of the flips whose screened
    value is unreliable; None when the screen declines.

    By the Coulson integral, for symmetric A and A' of one order,
    ||A'||_* - ||A||_* = (2/pi) int_0^inf log|det(A' - ixI) / det(A - ixI)| dx.
    A flip adds s(e_i e_j^T + e_j e_i^T), s = +1 for a new edge and -1 for a
    removed one, so the ratio is the 2x2 determinant g = 1 + d with
    d = 2s R_ij + R_ij^2 - R_ii R_jj and R = (A - ixI)^-1 = Q diag(1/(λ - ix)) Q^T.
    The complement takes -s. One certified eigh of A and one of J - I - A
    give R at all 91 nodes, both matrices in one batch and in real
    arithmetic: Re R = Q diag(λ/(λ² + x²)) Q^T and Im R = Q diag(x/(λ² + x²))
    Q^T, so R_ij at every node is the row product Q[i] * Q[j] times each
    weight table, one matmul. d is formed directly, since 1 + d would lose
    its 1/x² tail. A numerically singular A or J - I - A (|λ| <= SCREEN_TAU)
    makes d a difference of 1/x² terms, so the screen declines; a
    numerically singular A' makes |g| vanish at 0, and the flip is marked
    unreliable when |g| at the smallest node is below _SCREEN_G_TOL.
    """
    try:
        (wa, qa, _), (wb, qb, _) = eigh_basis(a), eigh_basis(complement_matrix(a))
    except NoConvergenceError:
        return None
    w = np.stack([wa, wb])[:, :, None]
    if not (np.abs(w) > SCREEN_TAU).all():
        return None
    q = np.stack([qa, qb])
    x = _SCREEN_X
    inv = 1.0 / (w * w + x * x)
    coef_re, coef_im = w * inv, x * inv  # (2, n, nodes)
    sq = q * q
    diag_re, diag_im = sq @ coef_re, sq @ coef_im  # R_ii at every node
    sign = 1.0 - 2.0 * a[is_, js]
    sign = np.stack([sign, -sign])[:, :, None]
    delta = np.empty((2, is_.size))
    u0 = np.empty((2, is_.size))  # u at the smallest node, where |g|^2 = 1 + u
    for lo in range(0, is_.size, _SCREEN_CHUNK):
        part = slice(lo, lo + _SCREEN_CHUNK)
        i, j = is_[part], js[part]
        # P = s R_ij, so that 2s R_ij + R_ij^2 = P (P + 2) as s^2 = 1
        rows = np.take(q, i, axis=1) * np.take(q, j, axis=1) * sign[:, part]
        p_re, p_im = rows @ coef_re, rows @ coef_im
        re_i, im_i = np.take(diag_re, i, axis=1), np.take(diag_im, i, axis=1)
        re_j, im_j = np.take(diag_re, j, axis=1), np.take(diag_im, j, axis=1)
        # Re d = Re P (Re P + 2) - (Im P)^2 - Re(R_ii R_jj)
        re_d = p_re + 2.0
        re_d *= p_re
        re_d -= p_im * p_im
        re_d -= re_i * re_j
        re_d += im_i * im_j
        # Im d = 2 Im P (Re P + 1) - Im(R_ii R_jj)
        im_d = p_re + 1.0
        im_d *= p_im
        im_d += im_d
        im_d -= re_i * im_j
        im_d -= im_i * re_j
        # u = 2 Re d + |d|^2, and log1p(u) = 2 log|g|
        u = re_d + 2.0
        u *= re_d
        im_d *= im_d
        u += im_d
        u0[:, part] = u[:, :, 0]
        with np.errstate(invalid="ignore", divide="ignore"):
            np.log1p(u, out=u)
        delta[:, part] = u @ _SCREEN_W
    return delta.sum(axis=0), (u0 < _SCREEN_G_TOL**2 - 1.0).any(axis=0)


def _flip_candidates(a: np.ndarray, is_: np.ndarray, js: np.ndarray) -> np.ndarray:
    """Ascending indices of the flips to re-score exactly: every flip whose
    screened value is within SCREEN_DELTA of the largest reliable one, and
    every unreliable flip; every flip when the screen declines or gives a
    reliable value that is not finite."""
    screened = _screen_flips(a, is_, js)
    if screened is not None:
        delta, unreliable = screened
        reliable = delta[~unreliable]
        if reliable.size and np.isfinite(reliable).all():
            # an unreliable delta may be NaN, which compares false
            return np.flatnonzero(unreliable | (delta >= reliable.max() - SCREEN_DELTA))
    return np.arange(is_.size)


def _flip_values(a: np.ndarray, is_: np.ndarray, js: np.ndarray, objective: str, k: int | None):
    """Objective of each flip (is_[r], js[r]) of the adjacency a, by
    :func:`_pair_objective` on the stack of flipped copies."""
    rows = np.arange(is_.size)
    neighbors = np.repeat(a[None], is_.size, axis=0)
    flipped = 1.0 - a[is_, js]
    neighbors[rows, is_, js] = flipped
    neighbors[rows, js, is_] = flipped
    return _pair_objective(neighbors, objective, k)


def _anneal_once(n: int, objective: str, k: int | None, cfg: SearchConfig, restart: int):
    """One annealing run. Each step scores every single-edge flip; the best
    uphill flip is taken (ties to the smallest flip index), otherwise a random
    flip is accepted with probability exp(delta / T). Returns (best_value,
    best_bits, evaluations).

    Every value the step uses (the best flip, the random flip's value, the
    freeze test and the current value) is exact: `_pair_objective` on the
    flipped adjacency, which gives each matrix of a stack the same bits as
    alone. For trace_sum, `_flip_candidates` first screens all m flips with
    the Coulson integral (`_screen_flips`, error under about 1e-8), and only
    the flips within SCREEN_DELTA of the screened maximum, plus those it
    marks unreliable, are re-scored; each flip of maximal exact value is
    among them, so the step and its tie-break are those of scoring all m.
    When A or J - I - A has an eigenvalue within SCREEN_TAU of 0, the
    screen's factorization fails, or it gives a non-finite value, every flip
    is re-scored; so is every flip for kyfan_sum, and for n < SCREEN_MIN_N,
    where that costs less than the screen.

    Each graph is scored once: a step that takes no flip leaves A as it was,
    so the next step reuses its candidates and their exact values, and only
    its random-flip draw is new. They are dropped when a flip is applied,
    uphill or random. `evaluations` counts graphs considered, 1 for the start
    and m per step, whether their flips were scored, screened out or reused.

    A random flip that is not a candidate is scored only if it could be
    accepted. It scores below vals.max(), as every flip of maximal exact
    value is a candidate, so its delta is at most the step's best delta.
    When that best delta gives delta / T < -746, exp of the flip's own
    delta / T underflows to 0.0, which never exceeds the draw in [0, 1);
    at T = 0 a best delta below 0 rules out the delta == 0 that acceptance
    needs. Such a flip is rejected unscored, after the same draws, so the
    run is bit for bit the one that scores it. A default restart (seed 3)
    makes 1985 single-flip scorings at n = 16 instead of 5564, and 2656
    instead of 5551 at n = 64.
    """
    m = n * (n - 1) // 2
    rng = SplitMix64((cfg.seed + restart) & MASK64)
    a = adjacency_matrix(Graph(n=n, bits=rng.next_bits(m))).array.copy()
    cur_val = float(_pair_objective(a[None], objective, k)[0])
    evaluations = 1
    best_val, best_a = cur_val, a.copy()
    if m == 0:
        return best_val, 0, evaluations

    temp = cfg.temperature_initial
    js, is_ = np.nonzero(pair_mask(n))  # flip r toggles pair bit r
    every = np.arange(m)
    screened = objective == "trace_sum" and n >= SCREEN_MIN_N
    vals = None  # the scores of a, kept until a flip changes it
    for _ in range(cfg.max_steps):
        if vals is None:
            cand = _flip_candidates(a, is_, js) if screened else every
            vals = _flip_values(a, is_[cand], js[cand], objective, k)
        evaluations += m
        top = int(np.argmax(vals))  # cand ascends, so ties go to the smallest flip
        flip, value = int(cand[top]), vals[top]
        delta = value - cur_val
        if delta <= 0.0:
            # no uphill move; try one random flip at the current temperature
            flip = rng.next_below(m)
            at = int(np.searchsorted(cand, flip))
            if at < cand.size and cand[at] == flip:
                value = vals[at]
            elif (delta < 0.0 if temp <= 0.0 else delta / temp < -746.0):
                # the flip is no candidate, so it scores below vals.max() and
                # exp of its delta / T underflows to 0.0: it cannot be accepted
                value = -math.inf
            else:
                value = _flip_values(a, is_[flip : flip + 1], js[flip : flip + 1], objective, k)[0]
            delta = value - cur_val
            accept = (
                delta == 0.0 if temp <= 0.0 else math.exp(delta / temp) > rng.next_double()
            )
            if not accept:
                flip = -1
        if flip >= 0:
            a[is_[flip], js[flip]] = a[js[flip], is_[flip]] = 1.0 - a[is_[flip], js[flip]]
            cur_val, vals = float(value), None
            if cur_val > best_val:
                best_val, best_a = cur_val, a.copy()
        elif temp < 1e-12 and vals.max() < cur_val - 1e-12:
            break  # frozen at a strict local maximum; nothing can change
        temp *= cfg.cooling

    return best_val, Graph.from_flags(n, best_a[is_, js]).bits, evaluations


def local_search_max(
    n: int,
    objective: str = "trace_sum",
    k: int | None = None,
    cfg: SearchConfig | None = None,
    threads: int = 1,
) -> SearchResult:
    """Seeded annealing over edge flips; a certified lower bound on the
    maximum (best_value always comes from a concrete evaluated graph).

    For trace_sum at n >= SCREEN_MIN_N a step screens all m = n(n-1)/2 flips
    with the Coulson integral and scores exactly only those within
    SCREEN_DELTA = 1e-6 of the screened maximum, plus those the screen marks
    unreliable (see `_anneal_once`). It scores every flip when A or J - I - A
    has an eigenvalue within SCREEN_TAU = 1e-6 of 0. The result is the one
    that scoring every flip gives, bit for bit. A step that takes no flip
    leaves the graph unchanged, and the next step reuses its scores.

    On one thread of a 2-vCPU Xeon a step that scores its graph takes about
    0.6-1.1 ms at n = 16, 1.8-5.4 ms at n = 32 and 6-14 ms at n = 64 (4.8,
    62 and 1030 ms when every flip is scored), and a step that reuses the
    scores 0.04-0.25 ms. The freeze test ends a default restart after about
    5500 steps, of which a few hundred score their graph; with seed 3 one
    restart took 0.4-0.5, 1.5-1.8 and 7.2-8.5 s at n = 16, 32 and 64, and
    the default config at n = 64 took 68 s. `evaluations` counts graphs
    considered, 1 per restart plus m per step, not factorizations. Speed
    does not find the equality case: at n = 17 the default config misses
    the bound met by P17.

    The restarts run in order on the calling thread. `threads` is checked
    like exhaustive_max's but not used: a step is many small numpy calls
    whose dispatch holds the GIL, and two threads were slower than one at
    n = 16, 32 and 64.
    """
    n, _ = _check_order(n, threads, LOCAL_MAX_N, "local search")
    k = _check_objective(n, objective, k)
    if cfg is None:
        cfg = SearchConfig()

    outcomes = [_anneal_once(n, objective, k, cfg, r) for r in range(cfg.restarts)]
    best, witnesses, truncated = _witnesses(n, [o[:2] for o in outcomes])
    return SearchResult(
        objective=objective,
        k=k,
        n=n,
        best_value=best,
        witnesses=witnesses,
        truncated=truncated,
        evaluations=sum(o[2] for o in outcomes),
        seed=cfg.seed,
        method="local",
    )


# ---------------------------------------------------------------------------
# Property sweeps


@dataclass(frozen=True)
class KindSweep:
    """Tally for one sweep kind: how many trials passed, the worst slack seen
    (for the complement eigenvalue kind, minus the largest margin), and the
    input that produced it."""

    kind: str
    trials: int
    passes: int
    violations: int
    worst_slack: float
    worst_witness: dict | None

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class SweepReport:
    seed: int
    n_range: tuple[int, int]
    results: tuple[KindSweep, ...] = field(default_factory=tuple)

    @property
    def total_violations(self) -> int:
        return sum(r.violations for r in self.results)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "n_range": list(self.n_range),
            "total_violations": self.total_violations,
            "results": [r.to_json() for r in self.results],
        }


SWEEP_KINDS = ("main", "main_matrix", "shifted", "kyfan", "opnorm", "weyl")

# sweep kinds drawing from the same generator tag see identical samples,
# so e.g. main_matrix and shifted exercise the same random matrices
_KIND_TAGS = {
    "main": "graph",
    "weyl": "graph",
    "main_matrix": "sym_matrix",
    "shifted": "sym_matrix",
    "kyfan": "rect_matrix",
    "opnorm": "rect_matrix",
}


def _random_graph(rng: SplitMix64, n: int) -> Graph:
    return Graph(n=n, bits=rng.next_bits(n * (n - 1) // 2))


def _random_symmetric(rng: SplitMix64, n: int) -> DenseMatrix:
    """Zero diagonal; the upper triangle is drawn row by row."""
    a = np.zeros((n, n))
    upper = np.triu_indices(n, 1)
    a[upper] = rng.next_doubles(len(upper[0]))
    return DenseMatrix(a + a.T)


def _random_rect(rng: SplitMix64, m: int, n: int) -> DenseMatrix:
    return DenseMatrix(rng.next_doubles(m * n).reshape(m, n))


def property_sweep(
    trials: int,
    seed: int,
    n_range: tuple[int, int],
    kinds: list[str],
    tol: float = HOLD_TOL,
) -> SweepReport:
    """Run `trials` seeded random inputs through each requested checker.

    Graph kinds draw graphs with edge probability 1/2; matrix kinds draw
    uniform [0, 1) entries shaped as the checker demands. Any violation is
    reported with the offending input serialized in full. The kyfan kind
    checks k = 2 and, when the shape allows, k = 3 on every sample. A kind
    named twice is an error, as it would run on the same samples again.
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
    tallies = []
    for kind in kinds:
        rng = SplitMix64(derive_seed(seed, _KIND_TAGS[kind]))
        passes = 0
        worst_slack = math.inf
        worst_witness = None

        for _ in range(trials):
            size = lo + rng.next_below(hi - lo + 1)
            if kind in ("main", "weyl"):
                g = _random_graph(rng, size)
                if kind == "main":
                    verdict = check_bound("main", g, tol=tol)
                    ok, slack = verdict.holds, verdict.slack
                else:
                    report = weyl_complement_check(g, tol=tol)
                    ok = report.ok
                    slack = -max(report.margins) if report.margins else math.inf
                witness = {"graph6": graph6_encode(g)}
            elif kind in ("main_matrix", "shifted"):
                mat = _random_symmetric(rng, size)
                bound = "main" if kind == "main_matrix" else "shifted"
                verdict = check_bound(bound, mat, tol=tol)
                ok, slack = verdict.holds, verdict.slack
                witness = {"matrix": mat.to_json()}
            else:
                cols = lo + rng.next_below(hi - lo + 1)
                mat = _random_rect(rng, size, cols)
                if kind == "opnorm":
                    verdict = check_bound("opnorm", mat, tol=tol)
                    ok, slack = verdict.holds, verdict.slack
                else:
                    ks = [2] + ([3] if min(size, cols) >= 3 else [])
                    sub = [check_bound("kyfan", mat, k=kk, tol=tol) for kk in ks]
                    ok = all(v.holds for v in sub)
                    slack = min(v.slack for v in sub)
                witness = {"matrix": mat.to_json()}

            passes += ok
            if slack < worst_slack:
                worst_slack = slack
                worst_witness = witness

        tallies.append(
            KindSweep(
                kind=kind,
                trials=trials,
                passes=passes,
                violations=trials - passes,
                worst_slack=worst_slack,
                worst_witness=worst_witness,
            )
        )
    return SweepReport(seed=seed, n_range=(lo, hi), results=tuple(tallies))
