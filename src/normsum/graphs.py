"""Simple undirected graphs as pair bitsets, plus Paley graphs over prime-power
fields.

A graph on n vertices stores its edges in a single integer bitset over the
n(n-1)/2 unordered pairs, pair (i, j) with i < j living at bit j(j-1)/2 + i.
That is entry (j, i) of the strict lower triangle read in row-major order
(:func:`pair_mask`), the one layout every graph <-> matrix conversion uses.
It is also the bit order of the graph6 format, so serialization is a straight
repack.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NotOneModFourError, NotPrimePowerError, as_int, as_positive_int
from .linalg import DenseMatrix, _difference_view, _prime_power_split, check_dimensions


def pair_index(i: int, j: int) -> int:
    """Bit position of the unordered pair {i, j}, i < j required."""
    if not 0 <= i < j:
        raise ValueError(f"need 0 <= i < j, got ({i}, {j})")
    return j * (j - 1) // 2 + i


def pair_mask(n: int) -> np.ndarray:
    """Boolean n x n strict lower triangle. Its True cells in row-major order
    are the pair bits: cell (j, i), i < j, is bit j(j-1)/2 + i, so
    ``np.nonzero(pair_mask(n))`` gives (js, is_) in bit order."""
    return np.tri(n, k=-1, dtype=bool)


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph: vertex count plus edge bitset."""

    n: int
    bits: int

    def __post_init__(self):
        object.__setattr__(self, "n", as_positive_int(self.n, "graph n"))
        object.__setattr__(self, "bits", as_int(self.bits, "graph bits"))
        # bit_length, not 1 << m: no m-bit integer is built for a large n
        if not (self.bits >= 0 and self.bits.bit_length() <= self.pair_count):
            raise ValueError(f"edge bitset out of range for order {self.n}")

    @property
    def pair_count(self) -> int:
        return self.n * (self.n - 1) // 2

    @property
    def edge_count(self) -> int:
        return self.bits.bit_count()

    def edge_flags(self) -> np.ndarray:
        """Boolean array over the pair bits, index k = pair k."""
        m = self.pair_count
        raw = np.frombuffer(self.bits.to_bytes((m + 7) // 8, "little"), dtype=np.uint8)
        return np.unpackbits(raw, bitorder="little")[:m].astype(bool)

    @classmethod
    def from_flags(cls, n: int, flags) -> "Graph":
        """Inverse of :meth:`edge_flags`: pair k is an edge iff flags[k]."""
        n = as_positive_int(n, "graph n")
        flags, m = np.asarray(flags, dtype=bool), n * (n - 1) // 2
        if flags.shape != (m,):
            raise ValueError(f"need {m} pair flags for order {n}, got shape {flags.shape}")
        packed = np.packbits(flags, bitorder="little")
        return cls(n=n, bits=int.from_bytes(packed.tobytes(), "little"))

    def _lower_triangle(self) -> np.ndarray:
        """Boolean n x n matrix holding the edges in its strict lower triangle."""
        low = np.zeros((self.n, self.n), dtype=bool)
        low[pair_mask(self.n)] = self.edge_flags()
        return low

    def edges(self) -> list[tuple[int, int]]:
        """Edge list as (i, j) with i < j, in bit order."""
        js, is_ = np.nonzero(self._lower_triangle())
        return list(zip(is_.tolist(), js.tolist()))

    def to_json(self) -> dict:
        return {"n": self.n, "edges": [[i, j] for i, j in self.edges()]}

    @classmethod
    def from_json(cls, obj: dict) -> "Graph":
        """Read the {"n": n, "edges": [[i, j], ...]} wire form."""
        if not isinstance(obj, dict):
            raise ValueError(f"graph JSON must be an object, got {type(obj).__name__}")
        try:
            n = as_int(obj["n"], "graph n")
            edges = obj["edges"]
        except KeyError as exc:
            raise ValueError(f"graph JSON missing field {exc}") from exc
        check_dimensions(f"graph order {n}", n)
        pairs = isinstance(edges, list) and all(isinstance(e, list) and len(e) == 2 for e in edges)
        if not pairs:
            raise ValueError("graph JSON field 'edges' must be a list of [i, j] pairs")
        return graph_from_edges(n, edges)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


def graph_from_edges(n: int, edges) -> Graph:
    """Build a graph from 0-based vertex pairs; order within a pair is ignored.
    The order and every end must be integers (a bool or a float is refused)."""
    n = as_positive_int(n, "graph n")
    flags = np.zeros(n * (n - 1) // 2, dtype=bool)
    for i, j in edges:
        i, j = as_int(i, "edge end"), as_int(j, "edge end")
        if i == j:
            raise ValueError(f"self-loop ({i}, {j}) not allowed")
        if i > j:
            i, j = j, i
        if not 0 <= i < j < n:
            raise ValueError(f"edge ({i}, {j}) out of range for order {n}")
        flags[pair_index(i, j)] = True
    return Graph.from_flags(n, flags)


def adjacency_matrix(g: Graph) -> DenseMatrix:
    """Symmetric (0,1)-matrix with zero diagonal; entry (i, j) = 1 iff edge."""
    low = g._lower_triangle()
    return DenseMatrix(low | low.T)


def complement_matrix(a: np.ndarray) -> np.ndarray:
    """J - I - A for an n x n array A, or for each matrix of an (B, n, n) stack."""
    n = a.shape[-1]
    return np.ones((n, n)) - np.eye(n) - a


# ---------------------------------------------------------------------------
# graph6 serialization


def graph6_encode(g: Graph) -> str:
    n = g.n
    if n <= 62:
        prefix = [n + 63]
    elif n <= 258047:
        prefix = [126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    elif n <= 68719476735:
        prefix = [126, 126] + [((n >> (6 * s)) & 63) + 63 for s in range(5, -1, -1)]
    else:
        raise ValueError(f"order {n} too large for graph6")
    flags = g.edge_flags()
    groups = np.zeros((len(flags) + 5) // 6 * 6, dtype=np.int64)
    groups[: len(flags)] = flags
    # each character packs six pair flags, the first most significant
    body = groups.reshape(-1, 6) @ (1 << np.arange(5, -1, -1)) + 63
    return "".join(chr(c) for c in prefix) + body.astype(np.uint8).tobytes().decode("ascii")


def graph6_decode(s: str) -> Graph:
    codes = np.frombuffer(s.strip().encode("utf-32-le"), dtype="<u4").astype(np.int64) - 63
    if ((codes < 0) | (codes > 63)).any():
        raise ValueError("graph6 string contains characters outside the 63..126 range")
    if not codes.size:
        raise ValueError("empty graph6 string")
    data = [int(v) for v in codes[:8]]
    if data[0] != 63:
        n, pos = data[0], 1
    elif len(data) >= 2 and data[1] != 63:
        if len(data) < 4:
            raise ValueError("truncated graph6 size prefix")
        n, pos = (data[1] << 12) | (data[2] << 6) | data[3], 4
    else:
        if len(data) < 8:
            raise ValueError("truncated graph6 size prefix")
        n = 0
        for v in data[2:8]:
            n = (n << 6) | v
        pos = 8
    m = n * (n - 1) // 2
    need = (m + 5) // 6
    body = codes[pos:]
    if body.size != need:
        raise ValueError(f"graph6 body has {body.size} groups, expected {need}")
    flags = ((body[:, None] >> np.arange(5, -1, -1)) & 1).astype(bool).ravel()
    if flags[m:].any():
        raise ValueError("nonzero padding bits in graph6 body")
    return Graph.from_flags(n, flags[:m])


# ---------------------------------------------------------------------------
# Finite fields and Paley graphs
#
# GF(p^e) is F_p[x] modulo a monic irreducible f of degree e. An element is
# the row (c0, ..., c_{e-1}) of c0 + c1 x + ..., and _gf_mul works on (N, e)
# stacks of rows. Vertex v of a Paley graph is the element whose
# coefficients are the base-p digits of v, constant term most significant:
# the elements in lexicographic coefficient order, constants first.
# Differences never touch f (subtraction is digitwise), so adjacency is a
# lookup of the difference code in one quadratic character table: +1 on the
# codes of the nonzero squares, which one squaring of the field gives.


def _gf_mul(a: np.ndarray, b: np.ndarray, f: np.ndarray, p: int) -> np.ndarray:
    """Row-wise product of two (N, e) coefficient stacks modulo the monic f
    (e + 1 coefficients, low to high) over F_p."""
    e = a.shape[1]
    prod = np.zeros((a.shape[0], 2 * e - 1), dtype=np.int64)
    for t in range(e):
        prod[:, t : t + e] += a[:, t : t + 1] * b
    prod %= p
    # top degree down: c x^i = -c x^(i-e) (f - x^e) modulo f
    for i in range(2 * e - 2, e - 1, -1):
        prod[:, i - e : i] = (prod[:, i - e : i] - prod[:, i : i + 1] * f[:e]) % p
    return prod[:, :e]


@lru_cache(maxsize=None)
def _character_by_code(q: int) -> np.ndarray:
    """Quadratic character of GF(q) indexed by element code: +1 on nonzero
    squares, -1 on nonsquares, 0 at zero. q must be an odd prime power.

    The modulus f is the first monic polynomial of degree e, coefficients in
    lexicographic order with the constant term first (a zero constant term
    is skipped, as then x divides f), under which squaring the q - 1 nonzero
    elements is exactly two-to-one and never gives zero. That holds exactly
    when f is irreducible. In a field of odd order x -> x^2 maps the units
    two-to-one onto the (q - 1)/2 nonzero squares. If f has a repeated
    factor g, then x = f/g is nonzero modulo f and x^2 = 0. If f is
    squarefree with r >= 2 irreducible factors, F_p[x]/(f) is a product of
    r fields, and a unit there has 2^r >= 4 square roots. The squares of the
    accepted f are the +1 codes.
    """
    p, e = _prime_power_split(q)
    weights = p ** np.arange(e - 1, -1, -1, dtype=np.int64)
    coeffs = (np.arange(1, q, dtype=np.int64)[:, None] // weights) % p  # (q - 1, e)
    for tail in itertools.product(range(1, p), *[range(p)] * (e - 1)):
        f = np.array(tail + (1,), dtype=np.int64)
        squares = _gf_mul(coeffs, coeffs, f, p) @ weights
        hits = np.bincount(squares, minlength=q)
        if hits[0] == 0 and hits.max() == 2:
            break
    else:
        raise AssertionError(f"no irreducible of degree {e} over F_{p}")
    chi = np.full(q, -1, dtype=np.int8)
    chi[0] = 0
    chi[squares] = 1
    chi.setflags(write=False)
    return chi


def _field_order(q: int) -> tuple[int, int]:
    """(p, e) with q = p^e, for an integer q at most ``DIMENSION_CAP``: the
    input check of :func:`quadratic_character` and :func:`paley_graph`. The
    cap comes first, so that a huge q is never factored."""
    q = as_int(q, "q")
    check_dimensions(f"q = {q}", q)
    split = _prime_power_split(q)
    if split is None:
        raise NotPrimePowerError(f"q = {q} is not a prime power")
    return split


def quadratic_character(q: int) -> np.ndarray:
    """The GF(q) character table: entry (u, v) is chi(u - v) for field
    elements u, v in [0, q), in the vertex order of :func:`paley_graph`.
    q must be an odd prime power at most ``DIMENSION_CAP``."""
    p, e = _field_order(q)
    if q % 2 == 0:
        raise ValueError(f"q = {q} is even; the quadratic character needs odd q")
    return _difference_view(_character_by_code(q), p, e).copy().reshape(q, q)


def paley_graph(q: int) -> Graph:
    """Paley graph on the q elements of GF(q): u ~ v iff u - v is a nonzero square.

    Needs q = p^e with q = 1 (mod 4) so that -1 is a square and the relation
    is symmetric, and q at most ``DIMENSION_CAP``. Vertices are field
    elements in lexicographic coefficient order, constants first.
    """
    _field_order(q)
    if q % 4 != 1:
        raise NotOneModFourError(f"q = {q} is not 1 (mod 4)")
    return Graph.from_flags(q, (quadratic_character(q) == 1)[pair_mask(q)])
