"""Property tests: the graph layout on random orders up to 40 and random
bitsets, the objective's complement symmetry, the main bound on random
[0, 1] symmetric matrices, and the Ky Fan and operator-norm extremals under
block multiplicities."""

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
    svd,
)
from normsum.graphs import pair_index  # noqa: E402
from oracles import flipped, mask_edges  # noqa: E402

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
