"""Property tests: the graph layout on random orders up to 40 and random
bitsets, the objective's complement symmetry, the main bound on random
[0, 1] symmetric matrices, the Ky Fan and operator-norm extremals under
block multiplicities, and equality cases of every kind made fractional."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from normsum import (  # noqa: E402
    DenseMatrix,
    Graph,
    adjacency_matrix,
    bound_value,
    check_bound,
    graph6_decode,
    graph6_encode,
    kyfan_extremal_matrix,
    opnorm_extremal_matrix,
    paley_graph,
    svd,
)
from normsum.bounds import EQUALITY_TOL  # noqa: E402
from normsum.graphs import pair_index, quadratic_character  # noqa: E402
from oracles import clebsch_complement, flipped, mask_edges  # noqa: E402

SETTINGS = dict(deadline=None, derandomize=True, database=None)


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    return Graph(n=n, bits=draw(st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1)))


@hypothesis.settings(max_examples=200, **SETTINGS)
@hypothesis.given(graphs())
def test_graph_layout_round_trips_and_invariants(g):
    assert Graph.from_flags(g.n, g.edge_flags()) == g
    assert graph6_decode(graph6_encode(g)) == g
    a = adjacency_matrix(g).array
    assert np.array_equal(a, a.T) and not np.diag(a).any()
    edges = mask_edges(g)
    assert [pair_index(i, j) for i, j in edges] == [k for k in range(g.pair_count) if g.bits >> k & 1]
    assert all(a[i, j] == 1.0 for i, j in edges) and a.sum() == 2 * len(edges)
    assert len(edges) == g.edge_count


@hypothesis.settings(max_examples=100, **SETTINGS)
@hypothesis.given(graphs())
def test_objective_is_complement_symmetric(g):
    """||A|| + ||J - I - A|| is the same sum for G and its complement."""
    ours, theirs = check_bound("main", g), check_bound("main", flipped(g))
    assert ours.lhs == pytest.approx(theirs.lhs, rel=1e-12, abs=1e-12)
    assert ours.rhs == theirs.rhs


@st.composite
def unit_symmetric(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    unit = st.floats(min_value=0.0, max_value=1.0)
    upper = draw(st.lists(unit, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    a = np.zeros((n, n))
    a[np.triu_indices(n, 1)] = upper
    return DenseMatrix(a + a.T)


@hypothesis.settings(max_examples=150, **SETTINGS)
@hypothesis.given(unit_symmetric())
def test_main_bound_holds_on_unit_symmetric_matrices(mat):
    verdict = check_bound("main", mat)
    assert verdict.holds
    assert verdict.rhs == bound_value("main", mat.rows)


# orders k - 1 with a supported Hadamard matrix; 28 takes the GF(27) character
HADAMARD_ORDERS = (1, 2, 4, 8, 12, 16, 20, 24, 28)
SIDE_MAX = 64


@st.composite
def kyfan_shapes(draw):
    h = draw(st.sampled_from(HADAMARD_ORDERS))
    most = SIDE_MAX // (2 * h)
    return h + 1, draw(st.integers(1, most)), draw(st.integers(1, most))


@hypothesis.settings(max_examples=60, **SETTINGS)
@hypothesis.given(kyfan_shapes())
def test_kyfan_extremal_meets_the_bound(shape):
    k, p, q = shape
    a = kyfan_extremal_matrix(k, p, q)
    m, n = a.shape
    assert (m, n) == (2 * p * (k - 1), 2 * q * (k - 1))
    assert check_bound("kyfan", a, k=k).equality
    root = math.sqrt(m * n)
    expected = np.zeros(min(m, n))
    expected[0] = root / 2
    expected[1:k] = root / (2 * math.sqrt(k - 1))
    assert np.allclose(svd(a).values, expected, rtol=0, atol=1e-9 * root)


@st.composite
def opnorm_shapes(draw):
    orientation = draw(st.sampled_from(("rows", "columns")))
    even = 2 * draw(st.integers(1, SIDE_MAX // 2))
    other = draw(st.integers(1, SIDE_MAX))
    m, n = (even, other) if orientation == "rows" else (other, even)
    return m, n, orientation


@hypothesis.settings(max_examples=60, **SETTINGS)
@hypothesis.given(opnorm_shapes())
def test_opnorm_extremal_meets_the_bound(shape):
    m, n, orientation = shape
    a = opnorm_extremal_matrix(m, n, orientation)
    assert a.shape == (m, n) and a.array.sum() == m * n / 2
    assert check_bound("opnorm", a).equality


# (kind, k, a 0/1 equality case, whether the kind needs it symmetric)
EQUALITY_CASES = [
    ("main", None, adjacency_matrix(paley_graph(5)).array, True),
    ("main", None, adjacency_matrix(paley_graph(13)).array, True),
    ("shifted", None, adjacency_matrix(paley_graph(13)).array, False),
    ("shifted", None, (quadratic_character(7) == 1).astype(float), False),  # Paley tournament
    ("kyfan", 3, kyfan_extremal_matrix(3, 1, 1).array, False),
    ("kyfan", 5, kyfan_extremal_matrix(5, 1, 2).array, False),
    ("opnorm", None, opnorm_extremal_matrix(4, 6, "columns").array, False),
    ("koolen_moulton", None, clebsch_complement().astype(float), True),
]


@st.composite
def fractional_near_equality(draw):
    """(kind, k, matrix, eps): an equality case of EQUALITY_CASES with one to
    three entries moved by eps off 0 or 1, off the diagonal for the square
    kinds and in symmetric pairs for the kinds that need symmetry."""
    kind, k, a, symmetric = draw(st.sampled_from(EQUALITY_CASES))
    a = a.copy()
    eps = 10.0 ** draw(st.floats(min_value=-11.0, max_value=-3.0))
    rows, cols = a.shape
    for _ in range(draw(st.integers(1, 3))):
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        if kind not in ("kyfan", "opnorm") and i == j:
            j = (i + 1) % cols
        a[i, j] = 1.0 - eps if a[i, j] > 0.5 else eps
        if symmetric:
            a[j, i] = a[i, j]
    return kind, k, a, eps


@hypothesis.settings(max_examples=100, **SETTINGS)
@hypothesis.given(fractional_near_equality())
def test_no_fractional_matrix_gets_equality(case):
    kind, k, a, eps = case
    v = check_bound(kind, a, k=k)
    assert v.holds and not v.equality
    if eps <= 1e-8:  # each moved entry moves the left-hand side by at most 4 eps
        assert abs(v.slack) <= EQUALITY_TOL
