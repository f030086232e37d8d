"""Property tests: the graph layout on random orders up to 40 and random
bitsets, the objective's complement symmetry, and the main bound on random
[0, 1] symmetric matrices."""

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
    complement,
    graph6_decode,
    graph6_encode,
)
from normsum.graphs import pair_index  # noqa: E402

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
    edges = g.edges()
    assert [pair_index(i, j) for i, j in edges] == [k for k in range(g.pair_count) if g.bits >> k & 1]
    assert all(a[i, j] == 1.0 for i, j in edges) and a.sum() == 2 * len(edges)
    assert g.degrees() == a.sum(axis=1).astype(int).tolist()
    assert sum(g.degrees()) == 2 * g.edge_count


@hypothesis.settings(max_examples=100, **SETTINGS)
@hypothesis.given(graphs())
def test_objective_is_complement_symmetric(g):
    """||A|| + ||J - I - A|| is the same sum for G and its complement."""
    ours, theirs = check_bound("main", g), check_bound("main", complement(g))
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
