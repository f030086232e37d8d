"""Property tests of the graph layout: random orders up to 40, random bitsets."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from normsum import Graph, adjacency_matrix, graph6_decode, graph6_encode  # noqa: E402
from normsum.graphs import pair_index  # noqa: E402


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    return Graph(n=n, bits=draw(st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1)))


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
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
