import hashlib
import itertools
import re
import tracemalloc

import numpy as np
import pytest

from normsum import (
    DIMENSION_CAP,
    Graph,
    NotOneModFourError,
    NotPrimePowerError,
    SizeOverflowError,
    SplitMix64,
    adjacency_matrix,
    check_bound,
    graph6_decode,
    graph6_encode,
    graph_from_edges,
    paley_graph,
    sym_eigen,
)
from normsum import graphs
from normsum.graphs import _character_by_code, _gf_mul, pair_index, paley_adjacency
from normsum.graphs import quadratic_character
from normsum.linalg import STRUCTURED_MIN_N, DenseMatrix, _prime_power_split
from oracles import (
    SRGParams,
    character_table_by_digits,
    complete,
    cycle,
    flipped,
    is_conference,
    mask_edges,
    petersen,
    srg_params,
)


def test_pair_indexing_is_column_major():
    # (i, j) with i < j sits at j(j-1)/2 + i; ascending j then i
    assert pair_index(0, 1) == 0
    assert pair_index(0, 2) == 1
    assert pair_index(1, 2) == 2
    assert pair_index(0, 3) == 3
    assert mask_edges(complete(4)) == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
    for i, j in ((1, 0), (2, 2), (-1, 2)):
        with pytest.raises(ValueError, match=rf"^need 0 <= i < j, got \({i}, {j}\)$"):
            pair_index(i, j)


def test_graph_construction_and_queries():
    g = graph_from_edges(4, [(1, 0), (2, 3)])
    assert g.edge_count == 2
    assert mask_edges(g) == [(0, 1), (2, 3)]
    assert g == graph_from_edges(4, [(0, 1), (3, 2)])
    with pytest.raises(ValueError):
        graph_from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        graph_from_edges(3, [(0, 3)])
    for end in (0.0, 1.0, True):  # the order: POSITIVE in test_integer_gates.py
        with pytest.raises(ValueError, match=f"^edge end must be an integer, got {end!r}$"):
            graph_from_edges(3, [(end, 2)])
    assert graph_from_edges(3, [(np.int64(1), 2)]) == Graph(n=3, bits=0b100)
    with pytest.raises(ValueError):
        Graph(n=3, bits=1 << 3)  # only 3 pair bits exist
    with pytest.raises(ValueError):
        Graph(n=0, bits=0)


def test_graph_bitset_range_needs_no_m_bit_integer():
    # the verdict of 0 <= bits < 2^m, decided by bit lengths alone
    for n in range(1, 7):
        m = n * (n - 1) // 2
        for bits in (-(1 << m), -1, 0, 1, (1 << m) - 1, 1 << m, 1 << (m + 1)):
            if 0 <= bits < 1 << m:
                assert Graph(n=n, bits=bits).bits == bits
            else:
                with pytest.raises(ValueError):
                    Graph(n=n, bits=bits)
    # 2^m would need m/8 bytes: about 625 MB at n = 100000, none at n = 2^64
    assert Graph(n=100000, bits=(1 << 1000) - 1).edge_count == 1000
    assert Graph(n=1 << 64, bits=0).edge_count == 0
    with pytest.raises(ValueError):
        Graph(n=1 << 64, bits=-1)


def test_graph_normalizes_integer_fields():
    g = Graph(n=np.int64(4), bits=np.int64(3))
    assert type(g.n) is int and type(g.bits) is int
    assert mask_edges(g) == [(0, 1), (0, 2)]
    assert graph6_encode(g) == graph6_encode(Graph(n=4, bits=3))
    for n, bits in ((3, 1.0), (3.0, 1), (3, "1")):
        with pytest.raises(ValueError):
            Graph(n=n, bits=bits)


def test_graph_json_round_trip():
    g = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert Graph.from_json({"n": g.n, "edges": [list(e) for e in mask_edges(g)]}) == g
    # the edges may come in any order, and either end first
    assert Graph.from_json({"n": 5, "edges": [[4, 3], [0, 1], [1, 2], [2, 3], [0, 4]]}) == g
    with pytest.raises(ValueError):
        Graph.from_json({"n": 3})


def test_edges_of_a_large_empty_graph_build_no_n_by_n_array():
    # the edge count, repr and equality read the bitset: no pair-flag or
    # adjacency array is built for the 8,002,000 pairs of order 4001
    tracemalloc.start()
    try:
        g = Graph(n=4001, bits=0)
        assert g.edge_count == 0
        assert repr(g) == "Graph(n=4001, edges=0)"
        assert g == Graph(n=4001, bits=0) and hash(g) == hash(Graph(n=4001, bits=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_graph6_frozen_strings():
    assert graph6_encode(complete(4)) == "C~"
    assert graph6_encode(cycle(5)) == "Dhc"
    assert graph6_decode("C~") == complete(4)
    assert graph6_decode("Dhc") == cycle(5)


def test_graph6_round_trip_random():
    rng = SplitMix64(99)
    for n in [1, 2, 3, 7, 13, 40, 62, 63, 70]:
        for _ in range(3):
            g = Graph(n=n, bits=rng.next_bits(n * (n - 1) // 2))
            assert graph6_decode(graph6_encode(g)) == g


def test_graph6_rejects_malformed():
    with pytest.raises(ValueError):
        graph6_decode("")
    with pytest.raises(ValueError):
        graph6_decode("C~~")  # extra body group
    with pytest.raises(ValueError):
        graph6_decode("C")  # missing body
    with pytest.raises(ValueError):
        graph6_decode("D" + chr(200))  # character out of range
    # nonzero padding bits past the last pair
    with pytest.raises(ValueError):
        graph6_decode("B" + chr(63 + 1))
    # a 4-character size prefix is ~ and three characters, an 8-character
    # one ~~ and six
    for text in ("~A", "~~??"):
        with pytest.raises(ValueError, match="^truncated graph6 size prefix$"):
            graph6_decode(text)


def test_graph6_eight_character_prefix_past_the_cap_is_rejected_unread():
    # n = 63 * 64^3 + 3 * 64^2 = 16,527,360 has a 136-trillion-pair body,
    # refused before any of it is allocated
    tracemalloc.start()
    try:
        with pytest.raises(SizeOverflowError, match="^graph order 16527360 exceeds"):
            graph6_decode("~~??~B??")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_adjacency_matrix():
    assert np.array_equal(adjacency_matrix(Graph(n=3, bits=0)).array, np.zeros((3, 3)))
    assert np.array_equal(adjacency_matrix(complete(2)).array, [[0, 1], [1, 0]])
    c5 = adjacency_matrix(cycle(5)).array
    assert np.array_equal(c5[0], [0, 1, 0, 0, 1])
    assert np.array_equal(c5, c5.T)


def test_srg_params():
    assert srg_params(cycle(5)) == SRGParams(5, 2, 0, 1)
    assert srg_params(paley_graph(9)) == SRGParams(9, 4, 1, 2)
    assert srg_params(petersen()) == SRGParams(10, 3, 0, 1)
    assert srg_params(graph_from_edges(3, [(0, 1), (1, 2)])) is None  # not regular
    assert srg_params(cycle(6)) is None  # regular but not strongly regular
    assert srg_params(complete(5)) is None  # degenerate
    assert srg_params(Graph(n=5, bits=0)) is None


def test_srg_params_feasibility_guard():
    with pytest.raises(ValueError):
        SRGParams(5, 2, 0, 2)


def test_is_conference():
    assert is_conference(paley_graph(13))
    assert is_conference(paley_graph(5))
    assert not is_conference(petersen())
    assert not is_conference(complete(5))
    assert not is_conference(cycle(7))


def test_paley_argument_validation():
    with pytest.raises(NotOneModFourError):
        paley_graph(7)
    with pytest.raises(NotPrimePowerError):
        paley_graph(12)
    with pytest.raises(NotPrimePowerError):
        paley_graph(1)
    with pytest.raises(SizeOverflowError):
        paley_graph(10009)


def test_paley_basic_structure():
    p5 = paley_graph(5)
    assert srg_params(p5) == SRGParams(5, 2, 0, 1)  # the 5-cycle
    p13 = paley_graph(13)
    assert srg_params(p13) == SRGParams(13, 6, 2, 3)
    # prime power field: GF(9) and GF(25)
    p9 = paley_graph(9)
    assert srg_params(p9) == SRGParams(9, 4, 1, 2)
    p25 = paley_graph(25)
    assert srg_params(p25) == SRGParams(25, 12, 5, 6)
    assert is_conference(p25)


def test_paley_self_complementary_spectrum():
    for q in (5, 9, 13, 17, 25):
        g = paley_graph(q)
        e1 = sym_eigen(adjacency_matrix(g)).values
        e2 = sym_eigen(adjacency_matrix(flipped(g))).values
        assert max(abs(a - b) for a, b in zip(e1, e2)) <= 1e-8


def test_conference_spectrum_matches_closed_form():
    for q in (9, 13, 25):
        vals = sym_eigen(adjacency_matrix(paley_graph(q))).values
        s = np.sqrt(q)
        r = (q - 1) // 2
        expected = [(q - 1) / 2] + [(s - 1) / 2] * r + [-(s + 1) / 2] * r
        assert max(abs(a - b) for a, b in zip(vals, expected)) <= 1e-8


def test_from_flags_inverts_edge_flags():
    rng = SplitMix64(8)
    for n in (1, 2, 3, 9, 33):
        g = Graph(n=n, bits=rng.next_bits(n * (n - 1) // 2))
        assert Graph.from_flags(n, g.edge_flags()) == g
    with pytest.raises(ValueError):
        Graph.from_flags(4, np.zeros(5, dtype=bool))


def test_graph6_encode_matches_networkx():
    networkx = pytest.importorskip("networkx")
    rng = SplitMix64(12)
    graphs = [paley_graph(401)] + [
        Graph(n=n, bits=rng.next_bits(n * (n - 1) // 2)) for n in (63, 64, 258)
    ]
    for g in graphs:
        nxg = networkx.Graph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(mask_edges(g))
        ref = networkx.to_graph6_bytes(nxg, nodes=range(g.n), header=False)
        assert graph6_encode(g) == ref.decode("ascii").rstrip("\n")
        assert graph6_decode(ref.decode("ascii")) == g


def test_graph6_batch_matches_networkx_row_by_row():
    # one batch per order, each row against networkx's encoding of its graph
    networkx = pytest.importorskip("networkx")
    rng = SplitMix64(26)
    for n in (1, 2, 6, 7, 8, 62, 63, 64):
        batch = [rng.next_bits(n * (n - 1) // 2) for _ in range(9)] + [0]
        lines = graphs._graph6_batch(n, batch)
        assert len(lines) == len(batch)
        for bits, line in zip(batch, lines):
            nxg = networkx.Graph()
            nxg.add_nodes_from(range(n))
            nxg.add_edges_from(mask_edges(Graph(n=n, bits=bits)))
            ref = networkx.to_graph6_bytes(nxg, nodes=range(n), header=False)
            assert line == ref.decode("ascii").rstrip("\n")
    assert graphs._graph6_batch(5, []) == []
    # an order above 62 takes the 4-character prefix: 126, then n in three
    # six-bit characters, most significant first (4096 = 1 * 64^2)
    for n, prefix in ((63, "~??~"), (DIMENSION_CAP, "~@??")):
        (line,) = graphs._graph6_batch(n, [0])
        assert line[:4] == prefix and len(line) == 4 + (n * (n - 1) // 2 + 5) // 6
    # an order past the cap gets the cap error, not an 8-character prefix
    message = f"^graph order 68719476736 exceeds the dimension cap {DIMENSION_CAP}$"
    with pytest.raises(SizeOverflowError, match=message):
        graphs._graph6_batch(68719476736, [0])


def test_quadratic_character_matches_paley_adjacency():
    for q in (9, 25, 49, 81):
        chi = quadratic_character(q)
        g = paley_graph(q)
        assert np.array_equal(np.diag(chi), np.zeros(q))
        assert np.array_equal(chi, chi.T)  # -1 is a square when q = 1 (mod 4)
        assert (np.abs(chi).sum(axis=1) == q - 1).all()
        assert np.array_equal(chi == 1, adjacency_matrix(g).array == 1)


def test_character_table_matches_the_digit_code_oracle():
    odd = [q for q in range(3, 1501, 2) if _prime_power_split(q)]
    assert len(odd) == 257
    for q in odd + [2187, 3125, 4001]:
        chi = quadratic_character(q)
        assert chi.flags.writeable and chi.flags.c_contiguous and chi.dtype == np.int8, q
        assert np.array_equal(chi, character_table_by_digits(q)), q


# SHA-256 of graph6_encode(paley_graph(q)) from the column-blocked build that
# the one-table build replaced: prime fields, and GF(p^e) for e = 2, 4 and 6.
PALEY_GRAPH6_DIGESTS = {
    13: "495adb206ae5b4706f05fdc7e9d9dafc02adefdfc29c66ae08671cc555fbd672",
    81: "11307a481fe69c6ef9e891175397d7506625c0e1ec7fc41c19a9384ae8453f83",
    401: "69437672dc0f744668852f479b9b46a88e71d0be49ecad870b0cd9280b94182e",
    625: "4a1694de06c6705f4d4c611b7e1778b1babe85501107e06efc6f8349ae252917",
    729: "560c3c1e811d808ddc474b876886f8aff9073c69704080246128a831f62f66c2",
    1013: "f4839ed66870175fd83d8c975cf9114eb35549c188a395e52e1a82d6361bae81",
    3721: "75deb5879adf8e3e37017f5c31629ea1f26904dc4121f261dab3e265297f575a",
    4093: "f64eafa8144adfb237b4587a83e05253bda793a4ef1e9eaa19790d15f6f56a69",
}


@pytest.mark.parametrize("q", sorted(PALEY_GRAPH6_DIGESTS))
def test_paley_graph_is_frozen(q):
    text = graph6_encode(paley_graph(q))
    assert hashlib.sha256(text.encode()).hexdigest() == PALEY_GRAPH6_DIGESTS[q]


def test_field_orders_stop_at_the_dimension_cap():
    assert DIMENSION_CAP == 4096
    # 4129 = 1 (mod 4) and 4099 = 3 (mod 4) are the first primes past the cap
    with pytest.raises(SizeOverflowError, match="dimension cap 4096"):
        paley_graph(4129)
    with pytest.raises(SizeOverflowError, match="dimension cap 4096"):
        quadratic_character(4099)


# SHA-256 of _character_by_code(q).tobytes() before the table was vectorized.
# The table fixes the modulus choice and so the vertex labels of every Paley
# graph over GF(p^e), e >= 2.
CHARACTER_DIGESTS = {
    9: "e482bccec1661fd752212a2b4542f36c2b36804b75b95386c491408349d0008b",
    25: "2e46f10a76f42838dcb3e9ca14130f7b96c098d4e223420f33ceb459ec4ffcb7",
    27: "4132782ca200553ad1d0acda1a5f745e9d10cfadc6e7869f0f35c14aef32a9fc",
    81: "7e3863fe073657752dc29f430c715e21955b1752e4fb7f446fea44046197d76c",
    243: "89401403a3f702fce62dc122797b41cf0a2cd139ff9a67240f71d2b4e8554e71",
    625: "d8c9e0856ea134c675094037fe401b0c705c304f7cffa075d68f9bce9e22234f",
    729: "9be7e125a4e12d173d50a817ed6e373a3e33fb87b7dc0468adc16355c8349821",
    2187: "5d23983d1e1a96774e079e25031b34035b77392e7a45ca0e38d2af17e0021a11",
    3125: "2358184b80c65d575e1bb0e52f3bbea6de27bb5dabce5acce2be1ae210f9789a",
    6561: "6e24eb67d0e8ab0e497bc81b37bbed038518e66ab29b3d66db4be8ff9adb2e27",
    9409: "09e8e84a0890182562de3c3322bd09732a88d7155b09d04ac660c5f42b604ebd",
}


@pytest.mark.parametrize("q", sorted(CHARACTER_DIGESTS))
def test_character_table_is_frozen(q):
    chi = _character_by_code(q)
    assert hashlib.sha256(chi.tobytes()).hexdigest() == CHARACTER_DIGESTS[q]


def test_paley_adjacency_is_the_graph_with_the_facts_a_scan_would_measure():
    orders = [q for q in range(5, 1025, 4) if _prime_power_split(q)]
    assert len(orders) == 97 and {81, 125, 169, 625, 729} <= set(orders)
    for q in orders:
        mat = paley_adjacency(q)
        assert mat == adjacency_matrix(paley_graph(q)), q
        # carried from the construction, not measured
        p, e = _prime_power_split(q)
        assert mat._asym == 0.0 and mat._grid == ((p,) * e if q >= STRUCTURED_MIN_N else ()), q
        fresh = DenseMatrix(mat.array)
        assert fresh._asymmetry() == mat._asym and fresh._invariance() == mat._grid, q


@pytest.mark.parametrize(
    "q, error, message",
    [
        (4, NotOneModFourError, "q = 4 is not 1 (mod 4)"),
        (6, NotPrimePowerError, "q = 6 is not a prime power"),
        (DIMENSION_CAP + 1, SizeOverflowError, "q = 4097 exceeds the dimension cap 4096"),
    ],
)
def test_paley_adjacency_refuses_an_order_before_it_builds_anything(q, error, message):
    for build in (paley_adjacency, paley_graph):
        tracemalloc.start()
        try:
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                build(q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16


@pytest.mark.parametrize("q", [9, 25, 49, 81, 121, 125, 169, 289, 361])
def test_paley_graph_over_prime_power_field_is_conference(q):
    assert is_conference(paley_graph(q))


def test_prime_field_character_is_the_squares():
    for q in (3, 5, 7, 11, 13, 101, 103, 9973):
        chi = _character_by_code(q)
        squares = {x * x % q for x in range(1, q)}
        assert set(np.flatnonzero(chi == 1).tolist()) == squares
        assert chi[0] == 0 and (chi[1:] != 0).all()


def test_quadratic_character_shares_the_field_check():
    for q in (12, 1, 0):
        with pytest.raises(NotPrimePowerError):
            quadratic_character(q)
    for q in (2, 8):
        with pytest.raises(ValueError, match="odd q"):
            quadratic_character(q)
    for q in (9.0, True):
        with pytest.raises(ValueError, match="integer"):
            quadratic_character(q)
    for q in (9.0, "13"):
        with pytest.raises(ValueError, match="integer"):
            paley_graph(q)
    assert np.array_equal(quadratic_character(np.int64(27)), quadratic_character(27))
    assert paley_graph(np.int64(13)) == paley_graph(13)


def _monic_products(p, e):
    """Every reducible monic polynomial of degree e over F_p, as coefficient
    tuples low to high."""
    def monic(d):
        return [c + (1,) for c in itertools.product(range(p), repeat=d)]

    out = set()
    for d in range(1, e // 2 + 1):
        for g in monic(d):
            for h in monic(e - d):
                prod = [0] * (e + 1)
                for i, gi in enumerate(g):
                    for j, hj in enumerate(h):
                        prod[i + j] = (prod[i + j] + gi * hj) % p
                out.add(tuple(prod))
    return out


@pytest.mark.parametrize("p, e", [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2)])
def test_squaring_is_two_to_one_exactly_for_irreducible_moduli(p, e):
    # the acceptance rule of _character_by_code, on every monic f of degree e
    # against factoring by brute force; (x + c)^2 has a zero square and
    # (x + a)(x + b), a != b, four square roots of 1
    q = p**e
    weights = p ** np.arange(e - 1, -1, -1, dtype=np.int64)
    coeffs = (np.arange(1, q, dtype=np.int64)[:, None] // weights) % p
    reducible = _monic_products(p, e)
    for tail in itertools.product(range(p), repeat=e):
        f = np.array(tail + (1,), dtype=np.int64)
        hits = np.bincount(_gf_mul(coeffs, coeffs, f, p) @ weights, minlength=q)
        assert (hits[0] == 0 and hits.max() == 2) == (tail + (1,) not in reducible)


def test_graph_json_integer_check():
    for obj in (
        {"n": 3.7, "edges": [[0, 1.9]]},
        {"n": 3, "edges": [[0, 1.9]]},
        {"n": True, "edges": []},
        {"n": "3", "edges": []},
    ):
        with pytest.raises(ValueError):
            Graph.from_json(obj)
    g = Graph.from_json({"n": np.int64(3), "edges": [[np.int64(0), 1]]})
    assert g == graph_from_edges(3, [(0, 1)])


def test_graph_json_shape_check():
    pairs = "^graph JSON field 'edges' must be a list of \\[i, j\\] pairs$"
    for edges in (5, [1, 2], [[0, 1, 2]], [[0, 1], "01"], "01", ((0, 1),), {(0, 1): 1}):
        with pytest.raises(ValueError, match=pairs):
            Graph.from_json({"n": 3, "edges": edges})
    with pytest.raises(ValueError, match="^graph JSON must be an object, got list$"):
        Graph.from_json([1, 2])
    assert Graph.from_json({"n": 3, "edges": [[0, 1], [2, 1]]}) == Graph(n=3, bits=0b101)


def test_graph_json_past_the_cap_is_rejected_before_it_is_built(monkeypatch):
    assert Graph.from_json({"n": DIMENSION_CAP, "edges": [[0, 4095]]}).edge_count == 1

    def no_build(*args):
        raise AssertionError("the graph was built before its order was checked")

    monkeypatch.setattr(graphs, "graph_from_edges", no_build)
    message = f"^graph order {DIMENSION_CAP + 1} exceeds the dimension cap {DIMENSION_CAP}$"
    with pytest.raises(SizeOverflowError, match=message):
        Graph.from_json({"n": DIMENSION_CAP + 1, "edges": []})


def test_graph6_past_the_cap_is_rejected_before_its_body_is_read():
    def prefix(n):
        return "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))

    # a body of the wrong length would be reported, were it read
    with pytest.raises(ValueError, match="^graph6 body has 0 groups"):
        graph6_decode(prefix(DIMENSION_CAP))
    n = DIMENSION_CAP + 1
    message = f"^graph order {n} exceeds the dimension cap {DIMENSION_CAP}$"
    # no body, a short one, and the whole body of the empty graph
    for body in ("", "?", "?" * ((n * (n - 1) // 2 + 5) // 6)):
        with pytest.raises(SizeOverflowError, match=message):
            graph6_decode(prefix(n) + body)


@pytest.mark.parametrize(
    "n,build",
    [
        (6000, adjacency_matrix),
        (10**6, lambda g: check_bound("main", g)),
        # one past the cap: unchecked, each would build 8.4 MB or more
        (DIMENSION_CAP + 1, Graph.edge_flags),
        (DIMENSION_CAP + 1, graph6_encode),
        (DIMENSION_CAP + 1, lambda g: graph_from_edges(g.n, [])),
    ],
)
def test_adjacency_past_the_cap_is_rejected_before_it_is_built(n, build):
    message = f"^graph order {n} exceeds the dimension cap {DIMENSION_CAP}$"
    g = Graph(n=n, bits=0)
    tracemalloc.start()
    try:
        with pytest.raises(SizeOverflowError, match=message):
            build(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _srg_params_int64(g):
    """srg_params with the square A^2 taken in int64, which gets no BLAS."""
    n = g.n
    a = adjacency_matrix(g).array.astype(np.int64)
    k = int(a[0].sum())
    if n < 3 or not (a.sum(axis=1) == k).all() or k in (0, n - 1):
        return None
    a2 = a @ a
    lam = set(a2[a == 1].tolist())
    mu = set(a2[(a == 0) & ~np.eye(n, dtype=bool)].tolist())
    if len(lam) != 1 or len(mu) > 1 or not (np.diag(a2) == k).all():
        return None
    return SRGParams(n=n, k=k, lam=lam.pop(), mu=mu.pop() if mu else 0)


def test_srg_params_float_product_matches_int64():
    networkx = pytest.importorskip("networkx")
    atlas = [
        graph_from_edges(h.number_of_nodes(), h.edges())
        for h in networkx.graph_atlas_g()
        if h.number_of_nodes() >= 1
    ]
    found = []
    for g in atlas + [paley_graph(401)]:
        params = srg_params(g)
        assert params == _srg_params_int64(g)
        found.append(params)
    # C4, 2K2, C5, K3,3, 3K2, K2,2,2, 2K3 and P401
    assert {p for p in found if p is not None} == {
        SRGParams(*t)
        for t in (
            (4, 2, 0, 2), (4, 1, 0, 0), (5, 2, 0, 1), (6, 3, 0, 3),
            (6, 1, 0, 0), (6, 4, 2, 4), (6, 2, 1, 0), (401, 200, 99, 100),
        )
    }  # fmt: skip
