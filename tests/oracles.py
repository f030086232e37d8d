"""Exact oracles and small graph fixtures for the tests: the integer
strong-regularity test A^2 = k I + lam A + mu (J - I - A), the
conference-graph family it singles out, the GF(q) character table by digit
codes, the complement graph by bit flips, and cycles and complete graphs.
Test code only; the package does not call them."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from normsum import Graph, adjacency_matrix, graph_from_edges
from normsum.graphs import _character_by_code
from normsum.linalg import _prime_power_split


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


def flipped(g):
    """The complement of g: every pair bit flipped."""
    return Graph(n=g.n, bits=g.bits ^ ((1 << g.pair_count) - 1))


def cycle(n):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph(n=n, bits=(1 << (n * (n - 1) // 2)) - 1)
