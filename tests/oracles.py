"""Exact oracles and small graph fixtures for the tests: the integer
strong-regularity test A^2 = k I + lam A + mu (J - I - A), the
conference-graph family it singles out, the GF(q) character table by digit
codes, the (Z_p)^e translation-invariance test by rolls, a search result's
witnesses decoded from graph6, the complement graph by bit flips, the edge
list read off the pair mask, cycles, complete graphs, the Petersen graph,
the triangular graphs, the complement of the Clebsch graph, the nets of
AG(2, q) (conference graphs beyond Paley's, with their parallel classes
compared up to GL(2, q)) and the Latin square graphs, the exact maxima of
the matrix bounds' left-hand sides by brute force, the annealing flip screen
with one log per matrix, and the property sweep run kind by kind, each kind
drawing its own samples.
Test code only; the package does not call them."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from normsum import Graph, adjacency_matrix, graph_from_edges
from normsum.bounds import HOLD_TOL, check_bound, check_tol, weyl_complement_check
from normsum.errors import as_int, as_positive_int
from normsum.graphs import _character_by_code, graph6_decode, graph6_encode, pair_mask
from normsum.linalg import _prime_power_split, check_dimensions
from normsum.rng import SplitMix64, as_seed, derive_seed
from normsum.search import (
    _KIND_TAGS,
    _SCREEN_G_TOL,
    SCREEN_TAU,
    SWEEP_KINDS,
    KindSweep,
    SweepReport,
    _random_rect,
    _random_symmetric,
)


@dataclass(frozen=True)
class SRGParams:
    """Strongly-regular parameter tuple (n, k, lam, mu)."""

    n: int
    k: int
    lam: int
    mu: int

    def __post_init__(self):
        # row-sum identity every strongly regular graph satisfies
        if self.k * (self.k - self.lam - 1) != (self.n - self.k - 1) * self.mu:
            raise ValueError(
                f"infeasible parameters ({self.n}, {self.k}, {self.lam}, {self.mu})"
            )


def srg_params(g: Graph) -> SRGParams | None:
    """Exact integer strong-regularity test.

    Returns the parameter tuple iff the graph is regular of degree k and
    A^2 = k I + lam A + mu (J - I - A) holds over the integers. Complete and
    empty graphs are excluded (mu resp. lam undefined).
    """
    n = g.n
    if n < 3:
        return None
    af = adjacency_matrix(g).array
    a = af.astype(np.int64)
    deg = a.sum(axis=1)
    k = int(deg[0])
    if not (deg == k).all():
        return None
    if k == 0 or k == n - 1:
        return None
    # float64 so the product runs through BLAS; it is exact, as every entry
    # is 0 or 1 and every sum an integer at most n < 2^53
    a2 = (af @ af).astype(np.int64)
    adj_off = a == 1
    non_off = (a == 0) & ~np.eye(n, dtype=bool)
    lam_vals = a2[adj_off]
    mu_vals = a2[non_off]
    lam = int(lam_vals[0])
    mu = int(mu_vals[0]) if mu_vals.size else 0
    if not (lam_vals == lam).all() or not (mu_vals == mu).all():
        return None
    return SRGParams(n=n, k=k, lam=lam, mu=mu)


def is_conference(g: Graph) -> bool:
    """True iff g is strongly regular with the self-paired parameter family
    (n, (n-1)/2, (n-5)/4, (n-1)/4), which forces n = 1 (mod 4)."""
    n = g.n
    if n % 4 != 1 or n < 5:
        return False
    params = srg_params(g)
    if params is None:
        return False
    return params == SRGParams(n, (n - 1) // 2, (n - 5) // 4, (n - 1) // 4)


def character_table_by_digits(q: int) -> np.ndarray:
    """chi(u - v) at (u, v) for an odd prime power q, by the element code
    of u - v: each base-p digit (most significant first) is the difference
    of those of u and v modulo p. int16 holds every code, as q - 1 < 2^15."""
    p, e = _prime_power_split(q)
    code = np.zeros((q, q), dtype=np.int16)
    for t in range(e):
        d = (np.arange(q, dtype=np.int16) // p ** (e - 1 - t)) % p
        code *= p
        code += (d[:, None] - d[None, :]) % p
    return _character_by_code(q)[code]


def invariant_by_rolls(sym: np.ndarray) -> bool:
    """(Z_p)^e-translation invariance of an exactly symmetric array of order
    p^e under the base-p digit labelling; False for any other order.

    An O(n) probe compares row g_t, the generator with digit t equal to 1,
    with row 0 rolled along digit axis t; only then does the O(e n^2) test
    roll the whole array along both copies of each axis.
    """
    split = _prime_power_split(sym.shape[0])
    if split is None:
        return False
    p, e = split
    shape = (p,) * e
    row0 = sym[0].reshape(shape)
    for t in range(e):
        if not np.array_equal(sym[p ** (e - 1 - t)].reshape(shape), np.roll(row0, 1, axis=t)):
            return False
    cube = sym.reshape(shape * 2)
    return all(np.array_equal(np.roll(cube, 1, axis=(t, e + t)), cube) for t in range(e))


def witness_graphs(res) -> tuple[Graph, ...]:
    """The witnesses of a search result, each decoded from its graph6."""
    return tuple(graph6_decode(w) for w in res.witnesses)


def flipped(g):
    """The complement of g: every pair bit flipped."""
    return Graph(n=g.n, bits=g.bits ^ ((1 << g.pair_count) - 1))


def mask_edges(g):
    """Edge list of g read off the pair mask: the (j, i) cells of its set
    pair flags, row-major, as (i, j) with i < j."""
    js, is_ = np.nonzero(pair_mask(g.n))
    flags = g.edge_flags()
    return list(zip(is_[flags].tolist(), js[flags].tolist()))


def cycle(n):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph(n=n, bits=(1 << (n * (n - 1) // 2)) - 1)


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return graph_from_edges(10, outer + spokes + inner)


def graph_of(adj: np.ndarray) -> Graph:
    """The graph of a symmetric boolean adjacency array with zero diagonal."""
    return Graph.from_flags(adj.shape[0], adj[pair_mask(adj.shape[0])])


def relabeled(adj: np.ndarray, seed: int) -> np.ndarray:
    """adj under a seeded vertex permutation."""
    perm = np.random.default_rng(seed).permutation(adj.shape[0])
    return adj[np.ix_(perm, perm)]


def net_directions(q: int) -> np.ndarray:
    """The direction of the line through points u and v of AG(2, q), q an odd
    prime, at (u, v): point (x, y) of Z_q^2 is vertex x q + y, and the
    direction is the slope (y_v - y_u) / (x_v - x_u) in [0, q), or q for a
    vertical line; -1 on the diagonal. Row 0 is the direction of each
    vector."""
    x, y = np.divmod(np.arange(q * q), q)
    dx, dy = (x[None, :] - x[:, None]) % q, (y[None, :] - y[:, None]) % q
    inverse = np.array([0] + [pow(i, q - 2, q) for i in range(1, q)])
    slope = np.where(dx == 0, q, dy * inverse[dx] % q)
    np.fill_diagonal(slope, -1)
    return slope


def affine_net(q: int, classes) -> np.ndarray:
    """Boolean adjacency of the net graph of AG(2, q) on the given parallel
    classes (directions as in :func:`net_directions`): two points are joined
    when the line through them lies in one of the m classes. It is strongly
    regular, SRG(q^2, m(q - 1), q - 2 + (m - 1)(m - 2), m(m - 1)), and for
    m = (q + 1)/2 a conference graph (Bose 1963). The natural layout is
    (Z_q)^2-translation invariant."""
    return np.isin(net_directions(q), list(classes))


def paley_net_classes(q: int) -> frozenset[int]:
    """The parallel classes of the Paley graph P(q^2), q an odd prime, in its
    digit layout: the directions of the squares of GF(q^2), a union of
    punctured lines through 0, as GF(q)* is made of squares."""
    squares = _character_by_code(q * q) == 1
    return frozenset(net_directions(q)[0][squares].tolist())


def pgl_equivalent(q: int, s, t) -> bool:
    """Whether some g in GL(2, q), q prime, maps the direction set s onto t,
    direction m being the point (1, m) of the projective line and q the
    point (0, 1)."""
    a, b, c, d = (g.ravel() for g in np.meshgrid(*[np.arange(q)] * 4, indexing="ij"))
    keep = (a * d - b * c) % q != 0
    a, b, c, d = a[keep, None], b[keep, None], c[keep, None], d[keep, None]
    m = np.array(sorted(s))
    u, v = np.where(m == q, 0, 1), np.where(m == q, 1, m)
    direction = net_directions(q)[0]  # of the vector (x, y) at x q + y
    image = np.sort(direction[(a * u + b * v) % q * q + (c * u + d * v) % q], axis=1)
    return bool((image == np.array(sorted(t))).all(axis=1).any())


def latin_square_graph(square) -> np.ndarray:
    """Boolean adjacency of the Latin square graph of an order-k Latin
    square: its k^2 cells, cell (r, c) being vertex r k + c, joined when they
    share a row, a column or a symbol. It is SRG(k^2, 3(k - 1), k, 6), a
    conference graph for k = 5."""
    s = np.asarray(square)
    r, c = np.divmod(np.arange(s.size), s.shape[0])
    v = s.ravel()
    adj = (r[:, None] == r) | (c[:, None] == c) | (v[:, None] == v)
    np.fill_diagonal(adj, False)
    return adj


def intercalates(square) -> int:
    """The count of 2 x 2 Latin subsquares: pairs of rows and of columns
    whose four cells hold only two symbols. It is the same on every square
    of a main class."""
    s = np.asarray(square)
    pairs = list(itertools.combinations(range(s.shape[0]), 2))
    return sum(
        s[r1, c1] == s[r2, c2] and s[r1, c2] == s[r2, c1]
        for r1, r2 in pairs
        for c1, c2 in pairs
    )


def triangular(k: int) -> np.ndarray:
    """Boolean adjacency of the triangular graph T(k): the 2-subsets of k
    points, joined when they meet; SRG(k(k - 1)/2, 2(k - 2), k - 2, 4)."""
    pairs = [set(p) for p in itertools.combinations(range(k), 2)]
    return np.array([[len(p & r) == 1 for r in pairs] for p in pairs])


def clebsch_complement() -> np.ndarray:
    """Boolean adjacency of SRG(16, 10, 6, 6), the complement of the Clebsch
    graph: the vectors of F_2^4, vertex u the bits of u, joined when u xor v
    is none of 0, e_1, e_2, e_3, e_4 and 1111 (the Clebsch graph joins
    them when it is one of the last five). Its eigenvalues 10, 2^5 and
    (-2)^10 sum in absolute value to 40 = n(1 + sqrt(n))/2, the
    Koolen-Moulton bound at n = 16 (Koolen & Moulton 2001)."""
    u = np.arange(16)
    return ~np.isin(u[:, None] ^ u, [0, 1, 2, 4, 8, 15])


@functools.lru_cache(maxsize=None)
def exact_maxima(m: int, n: int, domain: str) -> dict:
    """The maximum of each matrix bound's left-hand side over every m x n 0/1
    matrix A of a domain, with the first A that attains it, keyed by (kind,
    k), from one enumeration and numpy's SVD of its two sides. Domain 'all'
    gives ('opnorm', None), ||A||_2 + ||J - A||_2, and ('kyfan', k), the Ky
    Fan k-norm of A plus that of J - A, for k = 2..min(m, n). Domains
    'zero_diagonal' (m = n, A zero on the diagonal) and 'tournament' (A +
    A^T = J - I) give ('shifted', None), ||A + I/2||_* + ||J - A - I/2||_*.
    Each side is convex in the entries, so no matrix of the box [0, 1]^(m x
    n) does better than 'all' or 'zero_diagonal'; the tournaments are not a
    box, so theirs is the maximum over tournaments alone."""
    if domain == "tournament":
        rows, cols = np.triu_indices(n, 1)
        codes = np.arange(1 << rows.size)
        bits = (codes[:, None] >> np.arange(rows.size)) & 1
        stack = np.zeros((codes.size, n, n))
        stack[:, rows, cols], stack[:, cols, rows] = bits, 1 - bits
    else:
        free = ~np.eye(m, n, dtype=bool) if domain == "zero_diagonal" else np.ones((m, n), dtype=bool)
        size = int(free.sum())
        codes = np.arange(1 << size)
        stack = np.zeros((codes.size, m, n))
        stack[:, free] = (codes[:, None] >> np.arange(size)) & 1
    shift = 0.0 if domain == "all" else np.eye(m, n) / 2.0
    sides = [np.linalg.svd(x, compute_uv=False) for x in (stack + shift, 1.0 - stack - shift)]
    if domain == "all":
        widths = {("opnorm", None): 1} | {("kyfan", k): k for k in range(2, min(m, n) + 1)}
    else:
        widths = {("shifted", None): n}
    out = {}
    for key, width in widths.items():
        lhs = sum(s[:, :width].sum(axis=1) for s in sides)
        best = int(np.argmax(lhs))
        out[key] = (float(lhs[best]), stack[best])
    return out


def two_log_screen(a, is_, js, x, weights):
    """search._screen_flips as it was before the two matrices shared one log:
    for each of A and J - I - A, factored by its own numpy eigh, the
    Coulson integrand log|g| = log1p(u) / 2 with u = 2 Re d + |d|^2 from
    real arithmetic on separate re and im tables, summed with the weights
    at the nodes x, one matrix at a time. Returns (delta, unreliable), or
    None when either matrix has an eigenvalue within SCREEN_TAU of 0."""
    delta = np.zeros(is_.size)
    unreliable = np.zeros(is_.size, dtype=bool)
    s = 1.0 - 2.0 * a[is_, js]
    j = np.ones(a.shape) - np.eye(a.shape[0])
    for mat, sign in ((a, s), (j - a, -s)):
        w, q = np.linalg.eigh(mat)
        if not (np.abs(w) > SCREEN_TAU).all():
            return None
        inv = 1.0 / (w[:, None] ** 2 + x**2)
        coef_re, coef_im = w[:, None] * inv, x * inv  # (n, nodes)
        diag_re, diag_im = (q * q) @ coef_re, (q * q) @ coef_im
        rows = q[is_] * q[js] * sign[:, None]
        p_re, p_im = rows @ coef_re, rows @ coef_im
        re_i, im_i, re_j, im_j = diag_re[is_], diag_im[is_], diag_re[js], diag_im[js]
        re_d = p_re * (p_re + 2.0) - p_im * p_im - (re_i * re_j - im_i * im_j)
        im_d = 2.0 * p_im * (p_re + 1.0) - (re_i * im_j + im_i * re_j)
        u = re_d * (re_d + 2.0) + im_d * im_d
        unreliable |= u[:, 0] < _SCREEN_G_TOL**2 - 1.0
        with np.errstate(invalid="ignore", divide="ignore"):
            delta += np.log1p(u) @ weights
    return delta, unreliable


def property_sweep_per_kind(
    trials: int,
    seed: int,
    n_range: tuple[int, int],
    kinds: list[str],
    tol: float = HOLD_TOL,
) -> SweepReport:
    """search.property_sweep as it was before the kinds of one stream shared
    their samples: each kind opens its own stream and draws, checks and
    serializes every sample itself."""
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
                g = Graph(n=size, bits=rng.next_bits(size * (size - 1) // 2))
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
