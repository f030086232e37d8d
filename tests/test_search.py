import contextlib
import functools
import hashlib
import itertools
import json
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from normsum import (
    BadConfigError,
    Graph,
    KOutOfRangeError,
    OrderTooLargeError,
    SearchConfig,
    SearchResult,
    adjacency_matrix,
    bound_value,
    exhaustive_max,
    graph6_encode,
    graph_from_edges,
    local_search_max,
    property_sweep,
    SplitMix64,
    trace_norm,
)
from normsum import bounds, cli, paley_graph, search
from normsum.graphs import _adjacency, pair_mask
from normsum.search import WITNESS_CAP, WITNESS_TOL
import oracles
from oracles import cycle, flipped, property_sweep_per_kind, srg_params, witness_graphs


def pair_value(g, objective="trace_sum", k=None):
    a = adjacency_matrix(g)
    b = adjacency_matrix(flipped(g))
    if objective == "trace_sum":
        return trace_norm(a) + trace_norm(b)
    sa = np.sort(np.abs(np.linalg.eigvalsh(a.array)))[::-1]
    sb = np.sort(np.abs(np.linalg.eigvalsh(b.array)))[::-1]
    return float(sa[:k].sum() + sb[:k].sum())


def test_exhaustive_n2():
    res = exhaustive_max(2)
    assert abs(res.best_value - 2.0) < 1e-12
    assert res.evaluations == 2
    assert len(res.witnesses) == 2  # both graphs on 2 vertices achieve it
    assert not res.truncated
    assert res.method == "exhaustive" and res.seed is None


def test_exhaustive_n3():
    res = exhaustive_max(3)
    assert abs(res.best_value - (2 + 2 * math.sqrt(2))) < 1e-9
    assert res.evaluations == 8
    assert len(res.witnesses) == 6


def test_exhaustive_n5_finds_conference():
    res = exhaustive_max(5)
    assert abs(res.best_value - bound_value("main", 5)) < 1e-9
    assert len(res.witnesses) == 12
    graphs = witness_graphs(res)
    for g in graphs:
        assert srg_params(g) == srg_params(graphs[0])


def test_exhaustive_witnesses_reach_reported_value():
    res = exhaustive_max(4)
    graphs = witness_graphs(res)
    assert graphs == tuple(sorted(graphs, key=lambda g: g.bits))
    for g in graphs:
        assert abs(pair_value(g) - res.best_value) < 1e-9


def test_exhaustive_kyfan_matches_brute_force():
    res = exhaustive_max(4, "kyfan_sum", k=2)
    best = max(pair_value(Graph(n=4, bits=b), "kyfan_sum", 2) for b in range(64))
    assert abs(res.best_value - best) < 1e-9


def test_exhaustive_order_cap():
    with pytest.raises(OrderTooLargeError):
        exhaustive_max(9)
    with pytest.raises(ValueError):
        exhaustive_max(0)


def test_exhaustive_n8_checks_k_before_generating_classes(monkeypatch):
    # a bad k aborts before any class is generated or scored
    def no_reps(v):
        raise AssertionError("classes were generated before k was checked")

    monkeypatch.setattr(search, "_class_reps", no_reps)
    with pytest.raises(KOutOfRangeError):
        exhaustive_max(8, "kyfan_sum")


def test_exhaustive_objective_validation():
    with pytest.raises(ValueError):
        exhaustive_max(4, "det_sum")
    with pytest.raises(KOutOfRangeError):
        exhaustive_max(4, "kyfan_sum")
    with pytest.raises(KOutOfRangeError):
        exhaustive_max(4, "kyfan_sum", k=9)
    with pytest.raises(KOutOfRangeError):
        exhaustive_max(4, "kyfan_sum", k=0)


def test_exhaustive_thread_determinism(monkeypatch):
    # threads is checked but not used: the search runs on the calling thread
    a = exhaustive_max(6, threads=1)
    monkeypatch.setattr(threading.Thread, "start", no_thread)
    b = exhaustive_max(6, threads=3)
    assert a.best_value == b.best_value
    assert a.witnesses == b.witnesses
    assert a.evaluations == b.evaluations == 1 << 15


def oracle_norms(x, objective, k):
    """Norm of each matrix of a symmetric (B, n, n) stack by plain eigvalsh."""
    s = np.sort(np.abs(np.linalg.eigvalsh(x)), axis=1)
    return s.sum(axis=1) if objective == "trace_sum" else s[:, x.shape[1] - k :].sum(axis=1)


def oracle_values(n, objective, k):
    """Objective of every labeled n-vertex graph by plain per-graph eigvalsh
    of A and of J - I - A, indexed by edge bitset."""
    total = 1 << (n * (n - 1) // 2)
    a = np.stack([adjacency_matrix(Graph(n=n, bits=b)).array for b in range(total)])
    return oracle_norms(a, objective, k) + oracle_norms(np.ones((n, n)) - np.eye(n) - a, objective, k)


def assert_matches_oracle(n, objective, k):
    ref = oracle_values(n, objective, k)
    res = exhaustive_max(n, objective, k=k)
    sel = np.flatnonzero(ref >= ref.max() - WITNESS_TOL)
    assert abs(res.best_value - ref.max()) <= 1e-12
    assert tuple(g.bits for g in witness_graphs(res)) == tuple(int(i) for i in sel[:WITNESS_CAP])
    assert res.truncated == (sel.size > WITNESS_CAP)
    assert res.evaluations == ref.size
    return res


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("objective", ["trace_sum", "kyfan_sum"])
def test_exhaustive_kernel_matches_per_graph_oracle(n, objective):
    k = None if objective == "trace_sum" else min(2, n)
    assert_matches_oracle(n, objective, k)


@pytest.mark.parametrize("objective,k", [("trace_sum", None), ("kyfan_sum", 3)])
def test_exhaustive_witnesses_are_their_own_complement_mirror_on_any_threads(objective, k):
    # the pair value is complement-symmetric, so at n = 6 (720 witnesses, not
    # truncated) the witness set is its own complement mirror, on any threads
    one = assert_matches_oracle(6, objective, k)
    three = exhaustive_max(6, objective, k=k, threads=3)
    assert one == three and not one.truncated
    bits = {g.bits for g in witness_graphs(one)}
    assert {(1 << 15) - 1 - b for b in bits} == bits


def test_every_exhaustive_witness_rescores_to_the_best_value():
    # k = 6 at n = 8 has the narrowest gap measured between the best value and
    # the best outside the witness set (5e-4), so a witness tolerance loose
    # enough to let the runner-up in shows here
    res = exhaustive_max(8, "kyfan_sum", k=6)
    a = np.stack([adjacency_matrix(g).array for g in witness_graphs(res)])
    values = oracle_norms(a, "kyfan_sum", 6) + oracle_norms(1 - np.eye(8) - a, "kyfan_sum", 6)
    assert np.abs(values - res.best_value).max() <= 1e-9


def test_exhaustive_max_does_not_depend_on_the_order_graphs_are_scored_in(monkeypatch):
    # the bordered graphs scored in reverse order give the same result
    ref = exhaustive_max(6, "kyfan_sum", k=1)
    bordered, reversed_orders = search._bordered, []

    def reversed_bordered(v):
        if v != 6:
            return bordered(v)
        reversed_orders.append(v)
        return bordered(v)[::-1].copy()

    monkeypatch.setattr(search, "_bordered", reversed_bordered)
    scored = []
    eigvalsh_stack = search._eigvalsh_stack
    js, is_ = np.nonzero(pair_mask(6))

    def recording_solve(a):
        scored.extend(Graph.from_flags(6, x[is_, js]).bits for x in a)
        return eigvalsh_stack(a)

    monkeypatch.setattr(search, "_eigvalsh_stack", recording_solve)
    assert exhaustive_max(6, "kyfan_sum", k=1) == ref
    # the reversed set is the one scored, with its labeled complements: the
    # least bitset of each walk-count key of that union is solved
    assert reversed_orders == [6]
    graphs = bordered(6)
    union = np.union1d(graphs, (1 << 15) - 1 - graphs)
    least = {}
    for bits, key in zip(union.tolist(), map(tuple, walk_counts(union, 6).tolist())):
        least.setdefault(key, bits)
    assert sorted(scored) == sorted(least.values())
    # reversed representatives at every order keep other graphs of the same
    # classes, whose values may differ from the first ones in the last bits
    monkeypatch.setattr(search, "_bordered", bordered)
    class_reps = search._class_reps
    plain, reps = class_reps(5)[0], {}

    def reversed_reps(v):
        found, groups = class_reps(v)
        reps[v] = found[::-1].copy()
        return reps[v], groups[::-1]

    monkeypatch.setattr(search, "_class_reps", reversed_reps)
    res = exhaustive_max(6, "kyfan_sum", k=1)
    assert reps[5].size == 34 and not np.array_equal(np.sort(reps[5]), np.sort(plain))
    assert (res.witnesses, res.truncated, res.evaluations) == (ref.witnesses, ref.truncated, ref.evaluations)
    assert abs(res.best_value - ref.best_value) <= 1e-12


def witnesses_of(n, values, rows):
    """(best_value, witnesses decoded to graphs, truncated) of the result
    that search._result builds from candidate graphs."""
    res = search._result(n, None, values, rows, len(values), None, "exhaustive")
    return res.best_value, witness_graphs(res), res.truncated


@pytest.mark.parametrize("objective,k", [("trace_sum", None), ("kyfan_sum", 2)])
def test_both_searches_report_the_objective_and_k_they_were_given(objective, k):
    cfg = SearchConfig(restarts=1, max_steps=5)
    for res in (exhaustive_max(4, objective, k), local_search_max(4, objective, k, cfg)):
        assert (res.objective, res.k) == (objective, k)


def test_witnesses_merge_duplicate_bitsets():
    # two restarts that end on one graph give one witness
    best, witnesses, truncated = witnesses_of(4, [6.0, 5.0, 6.0], [9, 3, 9])
    assert best == 6.0
    assert witnesses == (Graph(n=4, bits=9),)
    assert truncated is False
    # annealing bitsets at n = 64 have up to 2016 bits: Python ints in an
    # object array, merged by the same sort
    big = np.array([(1 << 2000) + 5, 3, 1 << 2000, (1 << 2000) + 5], dtype=object)
    best, witnesses, truncated = witnesses_of(64, [2.0, 1.0, 2.0, 2.0], big)
    assert (best, truncated) == (2.0, False)
    assert [g.bits for g in witnesses] == [1 << 2000, (1 << 2000) + 5]


def test_witnesses_keep_unequal_values_within_the_tolerance():
    top = 21.2
    candidates = [(top - 0.5 * WITNESS_TOL, 4), (top, 40), (top - 2 * WITNESS_TOL, 1)]
    best, witnesses, truncated = witnesses_of(5, *zip(*candidates))
    assert best == top
    assert [g.bits for g in witnesses] == [4, 40]
    assert truncated is False


def test_witnesses_sort_candidates_that_arrive_out_of_order():
    # job 0's mirror half (high bitsets) ahead of job 1's first half
    candidates = [(1.0, 1000), (1.0, 990), (1.0, 12), (1.0, 11)]
    _, witnesses, _ = witnesses_of(5, *zip(*candidates))
    assert [g.bits for g in witnesses] == [11, 12, 990, 1000]


def test_witnesses_are_truncated_only_past_the_cap():
    exact = [(3.0, b) for b in range(WITNESS_CAP)]
    _, witnesses, truncated = witnesses_of(5, *zip(*exact[::-1]))
    assert [g.bits for g in witnesses] == list(range(WITNESS_CAP))
    assert truncated is False
    _, witnesses, truncated = witnesses_of(5, *zip(*(exact + [(3.0, WITNESS_CAP)])))
    assert [g.bits for g in witnesses] == list(range(WITNESS_CAP))
    assert truncated is True


def test_cospectral_pair_shares_a_solve_but_not_its_complements(monkeypatch):
    # K_{1,4} and C_4 + K_1 share a spectrum but their complements do not, so
    # the two pair values differ; exhaustive_max(5) solves one graph of the
    # two classes and one of each complement class, and every graph it
    # scores in either class gets its own class's value
    star = graph_from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])  # K_{1,4}
    c4k1 = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0)])  # C_4 + K_1
    spectra = [np.linalg.eigvalsh(adjacency_matrix(g).array) for g in (star, c4k1)]
    assert np.allclose(*spectra)
    spectra = [np.linalg.eigvalsh(adjacency_matrix(flipped(g)).array) for g in (star, c4k1)]
    assert not np.allclose(*spectra)
    assert abs(pair_value(star) - pair_value(c4k1)) > 0.5
    # the bitsets of the solved matrices, and the norm exhaustive_max gives
    # each matrix it scores; a scored graph's value is its norm plus its
    # complement's
    solved, norm = [], {}
    eigvalsh_stack, norms_by_spectrum = search._eigvalsh_stack, search._norms_by_spectrum
    js, is_ = np.nonzero(pair_mask(5))

    def recording_solve(a):
        solved.extend(Graph.from_flags(5, m[is_, js]).bits for m in a)
        return eigvalsh_stack(a)

    def recording_norms(scored, n, k):
        out = norms_by_spectrum(scored, n, k)
        norm.update(zip(scored.tolist(), out.tolist()))
        return out

    monkeypatch.setattr(search, "_eigvalsh_stack", recording_solve)
    monkeypatch.setattr(search, "_norms_by_spectrum", recording_norms)
    res = exhaustive_max(5)
    assert abs(res.best_value - bound_value("main", 5)) < 1e-9
    assert len(set(solved)) == len(solved) < len(norm)
    relabelings = search._relabelings(search._permutations(5))

    def orbit(g):
        return set(search._orbits(np.array([g.bits]), relabelings)[0].tolist())

    assert len(set(solved) & (orbit(star) | orbit(c4k1))) == 1
    assert [len(set(solved) & orbit(flipped(g))) for g in (star, c4k1)] == [1, 1]
    scored = {bits: norm[bits] + norm[(1 << 10) - 1 - bits] for bits in norm}
    for g in (star, c4k1):
        values = [v for bits, v in scored.items() if bits in orbit(g)]
        assert values and max(abs(v - pair_value(g)) for v in values) <= 1e-12


@pytest.mark.parametrize("n,spectra", [(7, 988), (8, 11_453)])
def test_exhaustive_solves_each_spectrum_once(monkeypatch, n, spectra):
    # the bordered graphs at n = 7 and 8 are closed under complement, and
    # their 5,096 and 79,264 matrices have 988 and 11,453 distinct spectra:
    # one eigvalsh call on one graph per spectrum gives every graph and
    # complement
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a):
        calls.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    exhaustive_max(n)
    assert calls == [(spectra, n, n)]


# number of isomorphism classes of graphs on v = 0..7 vertices (OEIS A000088)
CLASS_COUNTS = (1, 1, 2, 4, 11, 34, 156, 1044)


def test_class_reps_count_the_isomorphism_classes():
    for v, count in enumerate(CLASS_COUNTS):
        reps, groups = search._class_reps(v)
        assert reps.dtype == np.int64 and reps.size == len(groups) == count


def automorphism_groups(reps, v):
    """Boolean (R, v!) rows: which permutations of range(v), in itertools
    order, map each rep's adjacency matrix to itself, by brute force on the
    matrices."""
    perms = np.array(list(itertools.permutations(range(v))), dtype=np.int64).reshape(-1, v)
    out = []
    for lo in range(0, reps.size, 32):
        a = index_adjacency(reps[lo : lo + 32], v)
        moved = a[:, perms[:, :, None], perms[:, None, :]]
        out.append((moved == a[:, None]).all(axis=(2, 3)))
    return perms, np.concatenate(out)


def cycle_count(p):
    """Number of cycles of the permutation p of range(len(p))."""
    seen, count = set(), 0
    for start in range(len(p)):
        count += start not in seen
        while start not in seen:
            seen.add(start)
            start = p[start]
    return count


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_bordered_keeps_one_border_per_automorphism_orbit(n):
    # every rep R on n - 1 vertices is bordered with one neighbour set S per
    # orbit of Aut(R) on the subsets of its vertices: their orbits are
    # disjoint and cover every subset, and their number is Burnside's
    # (1/|Aut R|) sum over p in Aut R of 2^cycles(p)
    v = n - 1
    shift = v * (v - 1) // 2
    graphs = search._bordered(n)
    reps, kept = np.unique(graphs & ((1 << shift) - 1), return_inverse=True)
    found, groups = search._class_reps(v)
    assert np.array_equal(reps, np.sort(found))
    perms, is_auto = automorphism_groups(reps, v)
    group_of = dict(zip(found.tolist(), groups))
    cycles = np.array([cycle_count(p) for p in perms.tolist()])
    for r, autos in enumerate(is_auto):
        assert np.array_equal(group_of[int(reps[r])], perms[autos])
        borders = graphs[kept == r] >> shift
        assert borders.size * autos.sum() == (1 << cycles[autos]).sum()
        images = search._pair_flags(borders, v) @ (1 << perms[autos]).T
        orbits = [set(row) for row in images.tolist()]
        assert sum(map(len, orbits)) == len(set().union(*orbits)) == 1 << v


@pytest.mark.parametrize("n,size", [(7, 5_096), (8, 79_264)])
def test_bordered_set_is_closed_under_labeled_complement(n, size):
    # the reps on 6 and 7 vertices are; a rep's kept borders are the least
    # of their orbits or the largest, and its complement's the other kind
    graphs = search._bordered(n)
    assert graphs.size == np.unique(graphs).size == size
    assert np.array_equal(np.sort((1 << (n * (n - 1) // 2)) - 1 - graphs), np.sort(graphs))


@pytest.mark.parametrize("v", [2, 3, 6, 7])
def test_class_reps_are_closed_under_labeled_complement(v):
    # no class on 2, 3, 6 or 7 vertices is self-complementary
    reps = search._class_reps(v)[0]
    assert np.array_equal(np.sort((1 << (v * (v - 1) // 2)) - 1 - reps), np.sort(reps))


@pytest.mark.parametrize("v,self_complementary", [(4, 1), (5, 2)])
def test_class_reps_keep_one_graph_of_a_self_complementary_class(v, self_complementary):
    # P4 on 4 vertices, C5 and the bull on 5: a rep whose complement is no
    # rep has its complement in its own orbit
    reps = search._class_reps(v)[0].tolist()
    full = (1 << (v * (v - 1) // 2)) - 1
    alone = [g for g in reps if full - g not in set(reps)]
    assert len(alone) == self_complementary
    relabelings = search._relabelings(search._permutations(v))
    orbits = search._orbits(np.array(alone, dtype=np.int64), relabelings)
    assert all(full - g in orbit for g, orbit in zip(alone, orbits.tolist()))


@pytest.mark.parametrize("v", [1, 2, 3, 4, 5, 6])
def test_class_rep_orbits_partition_the_labeled_graphs(v):
    reps, groups = search._class_reps(v)
    orbits = search._orbits(reps, search._relabelings(search._permutations(v)))
    classes = [np.unique(orbit) for orbit in orbits]
    members = np.concatenate(classes)
    assert members.size == sum(c.size for c in classes) == 1 << (v * (v - 1) // 2)
    assert np.array_equal(np.sort(members), np.arange(members.size))  # no overlap, none missed
    # each group is the rep's stabilizer: orbit size times group order is v!
    assert [c.size * len(g) for c, g in zip(classes, groups)] == [math.factorial(v)] * reps.size


def test_exhaustive_n7_matches_the_atlas():
    # the atlas lists one graph per class; networkx is a test-only oracle
    networkx = pytest.importorskip("networkx")
    atlas = [h for h in networkx.graph_atlas_g() if len(h) == 7]
    assert len(atlas) == CLASS_COUNTS[7]
    a = np.stack([networkx.to_numpy_array(h, nodelist=range(7)) for h in atlas])
    best = (oracle_norms(a, "trace_sum", None) + oracle_norms(1.0 - np.eye(7) - a, "trace_sum", None)).max()
    assert abs(exhaustive_max(7).best_value - best) <= 1e-12


KEY_CHUNK = 1 << 13  # labeled graphs per block of walk_counts, bounding memory


def index_adjacency(idx, n):
    """(B, n, n) float adjacency stack of int64 graph indices, by the batch
    path of the exhaustive search."""
    return _adjacency(search._pair_flags(idx, n * (n - 1) // 2), n).astype(np.float64)


def walk_counts(idx, n):
    """Closed-walk counts tr(A^k), k = 2..max(n, 2), one row per graph index,
    by batched matrix powers: a class invariant independent of the orbits.

    Every count is an integer at most n (n-1)^(k-1) < 2^53 for n <= 8, so
    the float64 products and sums are exact.
    """
    top = max(n, 2)
    keys = np.empty((idx.shape[0], top - 1), dtype=np.float64)
    for s in range(0, idx.shape[0], KEY_CHUNK):
        a = index_adjacency(idx[s : s + KEY_CHUNK], n)
        powers = [a]  # powers[j] = A^(j+1)
        while len(powers) < (top + 1) // 2:
            powers.append(powers[-1] @ a)
        flat = [p.reshape(p.shape[0], -1) for p in powers]
        for kk in range(2, top + 1):
            # tr(A^i A^j) = sum of the entrywise product, as A^j is symmetric
            keys[s : s + KEY_CHUNK, kk - 2] = np.einsum(
                "bi,bi->b", flat[kk - kk // 2 - 1], flat[kk // 2 - 1]
            )
    return keys


def block_keys(n, blocks):
    """Distinct walk-count rows of the labeled graphs in the given blocks of
    KEY_CHUNK consecutive bitsets."""
    total = 1 << (n * (n - 1) // 2)
    keys = set()
    for b in blocks:
        idx = np.arange(b * KEY_CHUNK, min(total, (b + 1) * KEY_CHUNK), dtype=np.int64)
        keys.update(map(tuple, np.unique(walk_counts(idx, n), axis=0).tolist()))
    return keys


def bordered_keys(n):
    return set(map(tuple, walk_counts(search._bordered(n), n).tolist()))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_bordered_keys_match_matrix_powers_on_every_block(n):
    # the bordered graphs reach every walk-count key of the labeled graphs,
    # and no other: a check of _bordered that does not use _orbits
    total = 1 << (n * (n - 1) // 2)
    assert block_keys(n, range(-(-total // KEY_CHUNK))) == bordered_keys(n)


def test_bordered_keys_match_matrix_powers_at_n8():
    # a few blocks of the 2^28 labeled graphs, and each block's complement
    last = (1 << 28) // KEY_CHUNK - 1
    blocks = [b for j in (0, 1, 1023, last // 3) for b in (j, last - j)]
    assert block_keys(8, blocks) <= bordered_keys(8)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_walk_keys_match_matrix_powers_across_chunks(monkeypatch, n):
    # every labeled graph for n <= 6 and the bordered graphs at 7 and 8, in
    # chunks of 37 graphs, so that keys cross chunk boundaries
    monkeypatch.setattr(search, "_WALK_CHUNK", 37)
    m = n * (n - 1) // 2
    idx = np.arange(1 << m, dtype=np.int64) if n <= 6 else search._bordered(n)
    keys = search._walk_keys(search._pair_flags(idx, m), n)
    assert keys.dtype == np.float64 and np.array_equal(keys, walk_counts(idx, n))


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_graphs_with_one_walk_key_share_a_spectrum(n):
    # equal closed-walk counts give one characteristic polynomial (Newton's
    # identities), so the spectra in a key group agree up to rounding: every
    # labeled graph for n <= 6, the bordered graphs and complements at 7, 8
    m = n * (n - 1) // 2
    if n <= 6:
        idx = np.arange(1 << m, dtype=np.int64)
    else:
        idx = np.union1d(search._bordered(n), (1 << m) - 1 - search._bordered(n))
    keys = search._walk_keys(search._pair_flags(idx, m), n)
    group = np.unique(keys, axis=0, return_inverse=True)[1].ravel()
    w = np.linalg.eigvalsh(index_adjacency(idx, n))
    member = np.empty((group.max() + 1, n))
    member[group] = w  # one spectrum of each group
    assert np.abs(w - member[group]).max() <= 1e-12


def test_atlas_spectra_on_7_vertices_are_the_distinct_walk_keys():
    # 1044 classes, 988 spectra (Haemers & Spence 2004), one per walk key of
    # the bordered graphs; networkx is a test-only oracle
    networkx = pytest.importorskip("networkx")
    atlas = [h for h in networkx.graph_atlas_g() if len(h) == 7]
    a = np.stack([networkx.to_numpy_array(h, nodelist=range(7)) for h in atlas])
    spectra = set(map(tuple, np.round(np.linalg.eigvalsh(a), 8).tolist()))
    keys = search._walk_keys(search._pair_flags(search._bordered(7), 21), 7)
    assert len(spectra) == len(set(map(tuple, keys.tolist()))) == 988


@pytest.mark.parametrize("v", [1, 2, 3, 4, 5, 6, 7, 8])
def test_permutation_tables_match_itertools_and_the_pair_formula(v):
    perms = np.array(list(itertools.permutations(range(v))), dtype=np.int64).reshape(-1, v)
    got = search._permutations(v)
    assert got.dtype == np.int64 and np.array_equal(got, perms)
    # pair bit (j, i) goes to the pair bit of {p[j], p[i]}: hi(hi-1)/2 + lo
    js, is_ = np.nonzero(pair_mask(v))
    a, b = perms[:, js], perms[:, is_]
    hi, lo = np.maximum(a, b), np.minimum(a, b)
    relabelings = search._relabelings(got)
    assert relabelings.dtype == np.float64
    assert np.array_equal(relabelings, np.ldexp(1.0, hi * (hi - 1) // 2 + lo))


# The labeled enumeration that exhaustive_max replaced, as run at n = 8 on
# 2 threads (148 s): best_value 26.246211251235334, and the SHA-256 of the
# repr of the witness bitsets; 1000 witnesses, truncated.
N8_LABELED_BEST = 26.246211251235334
N8_LABELED_DIGEST = "8aa001aec9f817ebc057874d500aab8e94de2e1160c88f6956c664229c5f548d"
# the same digest of its n = 7 trace_sum witnesses (1000 of them, truncated)
N7_LABELED_DIGEST = "8c232d8a783da0c5c5bfff5e6a6101f77e75506110716c3a49da93d6d9f0c832"
# SHA-256 of (witness bitsets, truncated, evaluations) of the labeled
# enumeration for n = 1..7, trace_sum and then kyfan_sum with k = 1..n
LABELED_GRID_DIGEST = "0acf8c2a4270330bf108465a14dc4fe5dc0ac2f63ac1e67440fa1046ded838af"


def witness_digest(res):
    return hashlib.sha256(repr([g.bits for g in witness_graphs(res)]).encode()).hexdigest()


def test_exhaustive_n8_matches_the_labeled_enumeration():
    res = exhaustive_max(8)
    assert abs(res.best_value - N8_LABELED_BEST) <= 1e-12
    assert len(res.witnesses) == WITNESS_CAP and res.truncated
    assert witness_digest(res) == N8_LABELED_DIGEST
    assert res.evaluations == 1 << 28


def test_exhaustive_n7_witnesses_match_the_labeled_enumeration():
    res = exhaustive_max(7)
    assert len(res.witnesses) == WITNESS_CAP and res.truncated
    assert witness_digest(res) == N7_LABELED_DIGEST


def test_exhaustive_grid_matches_the_labeled_enumeration():
    h = hashlib.sha256()
    for n in range(1, 8):
        for objective, k in [("trace_sum", None)] + [("kyfan_sum", k) for k in range(1, n + 1)]:
            res = exhaustive_max(n, objective, k)
            bits = [g.bits for g in witness_graphs(res)]
            h.update(repr((bits, res.truncated, res.evaluations)).encode())
    assert h.hexdigest() == LABELED_GRID_DIGEST


def test_adjacency_from_indices_matches_adjacency_matrix():
    rng = np.random.default_rng(6)
    for n in range(1, 9):
        m = n * (n - 1) // 2
        if n <= 5:
            idx = np.arange(1 << m, dtype=np.int64)
        else:
            idx = rng.integers(0, 1 << m, size=200, dtype=np.int64)
        ref = [adjacency_matrix(Graph(n=n, bits=int(i))).array for i in idx]
        assert np.array_equal(index_adjacency(idx, n), np.array(ref))


def test_objective_complement_symmetric():
    g = Graph(n=6, bits=0b101100111010011)
    assert abs(pair_value(g) - pair_value(flipped(g))) < 1e-12


def test_search_config_validation():
    with pytest.raises(BadConfigError):
        SearchConfig(restarts=0)
    with pytest.raises(BadConfigError):
        SearchConfig(max_steps=0)
    with pytest.raises(BadConfigError):
        SearchConfig(cooling=1.0)
    with pytest.raises(BadConfigError):
        SearchConfig(cooling=0.0)
    # an infinite temperature never cools, so every random flip is accepted
    # and the freeze test never fires
    for t0 in (-1.0, math.inf, math.nan):
        with pytest.raises(BadConfigError, match="temperature_initial"):
            SearchConfig(temperature_initial=t0)
    with pytest.raises(BadConfigError):
        SearchConfig(seed=-1)


def test_entry_points_share_the_graph_integer_check():
    # numpy integers pass, as they do for Graph and bound_value
    assert exhaustive_max(np.int64(4)).n == 4
    assert local_search_max(np.int64(4), cfg=SearchConfig(restarts=1, max_steps=2)).n == 4
    assert exhaustive_max(4, threads=np.int64(2)).n == 4
    assert SearchConfig(restarts=np.int64(2), seed=np.uint64(7)).seed == 7
    assert property_sweep(np.int64(1), 0, (np.int64(3), 4), ["main"]).n_range == (3, 4)
    # bools, floats and strings never pass as integers, and nothing is truncated
    for field in ("restarts", "max_steps", "seed"):
        for bad in (True, 2.0):
            with pytest.raises(BadConfigError):
                SearchConfig(**{field: bad})
    with pytest.raises(ValueError):
        property_sweep(2, 0, (2.9, 4.9), ["main"])
    with pytest.raises(ValueError):
        property_sweep(2.5, 0, (3, 4), ["main"])
    with pytest.raises(ValueError):
        property_sweep(2, True, (3, 4), ["main"])
    for search_fn in (exhaustive_max, local_search_max):
        for bad in (2.5, "2", True):
            with pytest.raises(ValueError):
                search_fn(4, threads=bad)
        with pytest.raises(ValueError):
            search_fn(4.0)
        with pytest.raises(KOutOfRangeError):
            search_fn(4, "kyfan_sum", k=2.0)
    with pytest.raises(ValueError):
        Graph(n=True, bits=0)

def test_local_order_cap():
    with pytest.raises(OrderTooLargeError):
        local_search_max(65)


def test_local_trivial_order():
    res = local_search_max(1, cfg=SearchConfig(restarts=1, max_steps=1))
    assert res.best_value == 0.0
    assert witness_graphs(res) == (Graph(n=1, bits=0),)
    # m = 0: each default restart scores its one graph and stops
    res = local_search_max(1)
    assert (res.best_value, res.evaluations) == (0.0, SearchConfig().restarts)
    assert witness_graphs(res) == (Graph(n=1, bits=0),)


def test_local_recovers_small_optimum():
    cfg = SearchConfig(restarts=10, max_steps=500, seed=3)
    res = local_search_max(5, cfg=cfg)
    exact = exhaustive_max(5).best_value
    assert res.best_value <= exact + 1e-9
    assert abs(res.best_value - exact) < 1e-6


def test_local_witnesses_reach_reported_value():
    cfg = SearchConfig(restarts=4, max_steps=300, seed=11)
    res = local_search_max(7, cfg=cfg)
    assert res.witnesses
    assert res.method == "local" and res.seed == 11
    for g in witness_graphs(res):
        assert abs(pair_value(g) - res.best_value) < 1e-9


def test_local_seed_determinism():
    cfg = SearchConfig(restarts=3, max_steps=200, seed=9)
    a = local_search_max(8, cfg=cfg, threads=1)
    b = local_search_max(8, cfg=cfg, threads=4)
    c = local_search_max(8, cfg=cfg)
    assert a.best_value == b.best_value == c.best_value
    assert a.witnesses == b.witnesses == c.witnesses
    assert a.evaluations == b.evaluations == c.evaluations


def no_thread(*args, **kwargs):
    raise AssertionError("a search started a thread")


def test_local_search_starts_no_thread(monkeypatch):
    cfg = SearchConfig(restarts=3, max_steps=40, seed=2)
    ref = local_search_max(16, cfg=cfg, threads=1)
    monkeypatch.setattr(threading.Thread, "start", no_thread)
    assert local_search_max(16, cfg=cfg, threads=4) == ref


@contextlib.contextmanager
def traced_walks():
    """Line-trace every _anneal_once run started in the block. Yields a
    list that gets one walk per run, filled as the run goes: (graph, state)
    moves, the first its start adjacency with state None, then one per
    applied flip, the adjacency after it and the step state (cand, bound,
    uphill, vals) the run goes on with. A move is read at the first line
    after the flip's state swap, when `left` takes the state of the graph
    left behind; arrays are copied."""
    code, walks = search._anneal_once.__code__, []

    def call(frame, event, arg):
        if frame.f_code is not code:
            return None
        walk, left = [], []
        walks.append(walk)

        def line(frame, event, arg):
            loc = frame.f_locals
            if "left" in loc and (not left or loc["left"] is not left[0]):
                state = None
                if left:
                    state = tuple(
                        loc[name].copy() if isinstance(loc[name], np.ndarray) else loc[name]
                        for name in ("cand", "bound", "uphill", "vals")
                    )
                left[:] = [loc["left"]]
                walk.append((loc["a"].copy(), state))
            return line

        return line

    outer = sys.gettrace()
    sys.settrace(call)
    try:
        yield walks
    finally:
        sys.settrace(outer)


def returns_of(walk):
    """Indices of the moves of a walk that undo the move before them, so
    that the walk is back on the graph it just left."""
    return [t for t in range(2, len(walk)) if np.array_equal(walk[t][0], walk[t - 2][0])]


def annealing_draws(monkeypatch, n, cfg):
    """Every random flip that trace_sum annealing drew over the restarts of
    cfg, in order, as a dict: the adjacency `state` and value `cur_val` it
    was drawn on, the step's temperature `temp` and acceptance draw `u`
    (None at T <= 0), the `flip`, whether the candidates were `unscored`
    when it was drawn, whether the step `scored` a set holding the flip
    after the draw, and whether the step `accepted` it."""
    values = search._flip_values
    m = n * (n - 1) // 2
    js_all, is_all = np.nonzero(pair_mask(n))
    draws = []

    class Recording(SplitMix64):
        __slots__ = ()

        def next_below(self, bound):
            flip = super().next_below(bound)
            step = sys._getframe(1).f_locals  # the annealing step that drew it
            draw = {
                "live": step["a"],  # the array the run flips in place
                "state": step["a"].copy(),
                "cur_val": step["cur_val"],
                "temp": step["temp"],
                "u": None,
                "flip": flip,
                "unscored": step["vals"] is None,
                "scored": False,
                "step": step["evaluations"],
            }
            draws.append(draw)
            return flip

        def next_double(self):
            draws[-1]["u"] = u = super().next_double()  # drawn right after the flip
            return u

    def scored(a, is_, js, k):
        if draws and draws[-1]["step"] == sys._getframe(1).f_locals["evaluations"]:
            flip = draws[-1]["flip"]
            draws[-1]["scored"] |= bool(((is_ == is_all[flip]) & (js == js_all[flip])).any())
        return values(a, is_, js, k)

    monkeypatch.setattr(search, "SplitMix64", Recording)
    monkeypatch.setattr(search, "_flip_values", scored)
    for r in range(cfg.restarts):
        first = len(draws)
        end = search._anneal_once(n, None, cfg, r)[2]  # `evaluations` after the last step
        # a step that rejects its flip leaves the graph, and the next step
        # draws again on it; one that applies it moves the graph, so the
        # next step is on another graph, drawing or not (a flip that undoes
        # it takes no screen, and may take no draw). A run may end on the
        # step of a draw, or be frozen by it
        run = draws[first:]
        for draw, after in zip(run, run[1:] + [None]):
            live = draw.pop("live")
            if after is not None and after["step"] == draw["step"] + m:
                draw["accepted"] = not np.array_equal(after["state"], draw["state"])
            elif draw["step"] == end:
                draw["accepted"] = not np.array_equal(live, draw["state"])
            else:
                draw["accepted"] = True
    return draws


def exact_change(draw):
    """The exact change of the objective under the draw's flip."""
    a = draw["state"].copy()
    js, is_ = np.nonzero(pair_mask(a.shape[0]))
    i, j = is_[draw["flip"]], js[draw["flip"]]
    a[i, j] = a[j, i] = 1.0 - a[i, j]
    return search._pair_objective(a[None], None)[0] - draw["cur_val"]


RANDOM_FLIP_CONFIGS = [
    (16, SearchConfig(restarts=2, max_steps=300, temperature_initial=0.05, cooling=0.5, seed=3)),
    (12, SearchConfig(restarts=6, max_steps=300, temperature_initial=0.0, seed=4)),
    (16, SearchConfig(restarts=1, max_steps=3000, seed=3)),  # scores some, skips some
]


@pytest.mark.parametrize("n,cfg", RANDOM_FLIP_CONFIGS)
def test_random_flips_are_skipped_only_when_they_cannot_be_accepted(monkeypatch, n, cfg):
    skipped = [d for d in annealing_draws(monkeypatch, n, cfg) if not d["scored"]]
    assert skipped
    for draw in skipped:
        delta, temp = exact_change(draw), draw["temp"]
        if temp > 0.0:
            assert math.exp(delta / temp) <= draw["u"]
        else:
            assert delta < 0.0


@pytest.mark.parametrize("n,cfg", RANDOM_FLIP_CONFIGS)
def test_annealing_decisions_replay_exactly(monkeypatch, n, cfg):
    # every decision the bounds settled unscored comes out the same when its
    # values are scored exactly: a skipped candidate set holds no uphill
    # flip, and each random flip, skipped or scored, is accepted exactly
    # when its exact change passes the test against its own draw
    draws = annealing_draws(monkeypatch, n, cfg)
    unscored = [d for d in draws if d["unscored"]]
    assert unscored and not all(d["scored"] for d in draws)
    # consecutive draws on one graph share its candidates
    for state, cur_val in {(d["state"].tobytes(), d["cur_val"]) for d in unscored}:
        a = np.frombuffer(state).reshape(n, n)
        assert search._pair_objective(flip_stack(a), None).max() <= cur_val
    for draw in draws:
        delta, temp = exact_change(draw), draw["temp"]
        exact = delta == 0.0 if temp <= 0.0 else math.exp(delta / temp) > draw["u"]
        assert draw["accepted"] == exact


def test_a_default_restart_scores_few_random_flips(monkeypatch):
    # a deterministic cost guard: this restart made 5564 single-flip calls
    # when every random flip outside the candidates was scored, 1985 (of
    # 1993 calls in all) when only those that could be accepted after the
    # step's exact best were, and every screen scored its candidates; 218
    # (of 226) when a value was scored only if the bounds left a decision
    # open; and it makes 217 (of 225) when a flip that undoes the last one
    # restores the scores of the graph it returns to
    values = search._flip_values
    sizes = []

    def counted(a, is_, js, k):
        sizes.append(is_.size)
        return values(a, is_, js, k)

    monkeypatch.setattr(search, "_flip_values", counted)
    local_search_max(16, cfg=SearchConfig(restarts=1, seed=3))
    assert (sizes.count(1), len(sizes)) == (217, 225)


# best value, witness and evaluation count of two seeded runs, frozen so that
# the annealing trajectory stays pinned bit for bit
@pytest.mark.parametrize(
    "n,objective,k,cfg,best,witness,evaluations",
    [
        (16, "trace_sum", None, SearchConfig(restarts=2, max_steps=60, seed=7),
         73.24160722477485, "OYezzvotMQaeOfHRbLlTL", 14402),
        (12, "kyfan_sum", 2,
         SearchConfig(restarts=2, max_steps=100, temperature_initial=0.5, seed=5),
         20.524526113297206, "KO@^oL\\}oL_u", 13202),
    ],
)
def test_local_search_frozen_output(n, objective, k, cfg, best, witness, evaluations):
    res = local_search_max(n, objective, k, cfg)
    assert res.best_value == best
    assert [graph6_encode(g) for g in witness_graphs(res)] == [witness]
    assert res.evaluations == evaluations


# SHA-256 of (best_value.hex(), witness bitsets, evaluations, truncated) of
# local_search_max on both objectives, temperature_initial 1 and 0 and seeds
# 3 and 11, 2 restarts each; n: (trace_sum steps, kyfan_sum steps, digest).
# The digests were recorded when every step rescored its graph, so they pin
# that reusing the scores of an unchanged graph changes no bit.
LOCAL_SEARCH_DIGESTS = {
    5: (60, 60, "36560d76421d210487e810c304836d8ca8a46efa0a9689529873253ff1df030b"),
    9: (60, 60, "78bbc0b5b41ffd00ce1293e6f65f02842845f914d9889e1a55e2e72a1c7436fb"),
    12: (60, 60, "57fd5b0bb2b60e333f101a744c853340e2dd20c562eb89251c648a804662da35"),
    16: (80, 40, "c5c1de8fb2c95edc1c0423774b5049c311dce5a3adb8fc046433c8f15c6b4b07"),
    17: (80, 40, "c003aa5619c1ce12ea3d297d3e7f9e64fadfb0c0a573b9395ee5aa6c8dc3503e"),
    24: (80, 12, "4d2329423a41df1015d4ef494c3c4a73b567ddb21bb72bc557c8320b4a5e9208"),
    32: (130, 6, "3fd5dabb8ab484a56a8c95535b7cb3ffb8ab6708043332a6f50fd73897e251f7"),
}


@pytest.mark.parametrize("n", sorted(LOCAL_SEARCH_DIGESTS))
def test_local_search_grid_digest(n):
    trace_steps, kyfan_steps, digest = LOCAL_SEARCH_DIGESTS[n]
    h = hashlib.sha256()
    for objective, k, steps in (("trace_sum", None, trace_steps), ("kyfan_sum", 2, kyfan_steps)):
        for t0 in (1.0, 0.0):
            for seed in (3, 11):
                cfg = SearchConfig(restarts=2, max_steps=steps, temperature_initial=t0, seed=seed)
                res = local_search_max(n, objective, k, cfg)
                key = (res.best_value.hex(), [g.bits for g in witness_graphs(res)])
                h.update(repr(key + (res.evaluations, res.truncated)).encode())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("n", [9, 16])
@pytest.mark.parametrize("seed", range(5))
def test_annealing_scores_each_graph_once(monkeypatch, n, seed):
    # a deterministic cost guard: a step that takes no flip leaves the graph
    # as it was, and the next step reuses its screen and any exact scores;
    # a flip that undoes the flip just applied returns the walk to the graph
    # it left, whose screen and scores are restored. A screen's candidates
    # are scored at most once, and not before the first random draw on the
    # graph when no bound is above 0
    screen, values = search._flip_candidates, search._flip_values
    screens = {}  # walk index -> the screen of the graph the walk reached there

    def in_effect(walk):
        """The screen whose state the step on the walk's current graph holds."""
        t = len(walk) - 1
        while t not in screens:  # a return restores the state of two moves back
            assert t >= 2 and np.array_equal(walk[t][0], walk[t - 2][0])
            t -= 2
        return screens[t]

    class Recording(SplitMix64):
        __slots__ = ()

        def next_below(self, bound):
            in_effect(walks[-1])["drawn"] = True
            return super().next_below(bound)

    def screened(a, is_, js, work):
        cand, bound = screen(a, is_, js, work)
        screens[len(walks[-1]) - 1] = {
            "graph": a.tobytes(),
            "pairs": (is_[cand], js[cand]),
            "uphill": bound is None or bound.max() > 0.0,
            "drawn": False,
            "scorings": 0,
        }
        return cand, bound

    def scored(a, is_, js, k):
        last = in_effect(walks[-1])
        # the call on the screen's candidates, not one on a random flip
        if np.array_equal(is_, last["pairs"][0]) and np.array_equal(js, last["pairs"][1]):
            assert a.tobytes() == last["graph"] and (last["uphill"] or last["drawn"])
            last["scorings"] += 1
        return values(a, is_, js, k)

    monkeypatch.setattr(search, "SplitMix64", Recording)
    monkeypatch.setattr(search, "_flip_candidates", screened)
    monkeypatch.setattr(search, "_flip_values", scored)
    cfg = SearchConfig(restarts=2, max_steps=300, seed=seed)
    returns = 0
    for r in range(cfg.restarts):
        screens.clear()
        with traced_walks() as walks:
            search._anneal_once(n, None, cfg, r)
        walk = walks[0]
        assert max(s["scorings"] for s in screens.values()) <= 1
        assert all(screens[t]["graph"] == walk[t][0].tobytes() for t in screens)
        # no graph is screened again after an undo: the start and each graph
        # reached by any other flip are screened once, when their step comes,
        # which the last graph may not have had
        back = returns_of(walk)
        fresh = [t for t in range(len(walk)) if t not in back]
        done = sorted(screens)
        assert done == fresh or (done == fresh[:-1] and fresh[-1] == len(walk) - 1)
        returns += len(back)
    assert returns  # the walks undid some of their flips


# n, k, config, and the kinds of restored state its walks must show:
# declined (no bounds), with an inf bound, with finite bounds only, scored
RESTORE_CONFIGS = [
    (7, None, SearchConfig(restarts=4, max_steps=300, seed=2), {"declined", "inf", "scored"}),
    (16, None, SearchConfig(restarts=2, max_steps=300, seed=3), {"finite"}),
    (9, 2, SearchConfig(restarts=2, max_steps=200, seed=3), {"declined", "scored"}),
]


@pytest.mark.parametrize("n,k,cfg,shown", RESTORE_CONFIGS)
def test_a_restored_state_is_a_fresh_screen_and_score_of_its_graph(n, k, cfg, shown):
    # a flip that undoes the one just applied takes the walk back to the
    # graph it left, and the step goes on with that graph's kept state:
    # candidates, bounds, the uphill flag and any exact scores must be what
    # screening and scoring the graph afresh gives, bit for bit
    with traced_walks() as walks:
        for r in range(cfg.restarts):
            search._anneal_once(n, k, cfg, r)
    js, is_ = np.nonzero(pair_mask(n))
    work = search._ScreenWork(n, js.size)
    kinds = set()
    for walk in walks:
        for t in returns_of(walk):
            a, (cand, bound, uphill, vals) = walk[t]
            if k is None:
                fresh, fresh_bound = search._flip_candidates(a, is_, js, work)
            else:  # kyfan_sum scores every flip, unscreened
                fresh, fresh_bound = np.arange(js.size), None
            assert cand.dtype == fresh.dtype and cand.tobytes() == fresh.tobytes()
            if fresh_bound is None:
                assert bound is None and uphill
                kinds.add("declined")
            else:
                assert bound.tobytes() == fresh_bound.tobytes()
                assert uphill == (fresh_bound.max() > 0.0)
                kinds.add("inf" if np.isinf(bound).any() else "finite")
            if vals is not None:
                assert vals.tobytes() == search._flip_values(a, is_[cand], js[cand], k).tobytes()
                kinds.add("scored")
    assert kinds >= shown


@pytest.mark.parametrize("k,built", [(None, 1), (2, 0)])
def test_a_restart_screens_only_for_trace_sum(monkeypatch, k, built):
    # k None is trace_sum: one screen workspace per restart, and screens;
    # kyfan_sum builds no workspace and never screens
    screen_work, screen = search._ScreenWork, search._flip_candidates
    made, screens = [], []

    def counting_work(n, m):
        made.append((n, m))
        return screen_work(n, m)

    def counting_screen(a, is_, js, work):
        screens.append(work)
        return screen(a, is_, js, work)

    monkeypatch.setattr(search, "_ScreenWork", counting_work)
    monkeypatch.setattr(search, "_flip_candidates", counting_screen)
    search._anneal_once(9, k, SearchConfig(restarts=1, max_steps=50, seed=3), 0)
    assert made == [(9, 36)] * built
    assert bool(screens) == bool(built)


def flip_stack(a):
    """Every single-edge flip of the adjacency a, in flip (pair bit) order."""
    js, is_ = np.nonzero(pair_mask(a.shape[0]))
    stack = np.repeat(a[None], js.size, axis=0)
    for r, (i, j) in enumerate(zip(is_, js)):
        stack[r, i, j] = stack[r, j, i] = 1.0 - a[i, j]
    return stack


def random_adjacency(rng, n, p):
    up = np.triu(rng.random((n, n)) < p, 1)
    return (up | up.T).astype(np.float64)


def screen_against_exact(a):
    """Check the flip screen of the adjacency a against _pair_objective of
    every flip: each reliable screened value is within 1e-8, and every flip
    of maximal exact value is a candidate. Returns the candidates and
    whether the screen ran."""
    js, is_ = np.nonzero(pair_mask(a.shape[0]))
    exact = search._pair_objective(flip_stack(a), None)
    work = search._ScreenWork(a.shape[0], js.size)
    cand, bound = search._flip_candidates(a, is_, js, work)
    assert np.all(np.diff(cand) > 0)
    assert set(np.flatnonzero(exact == exact.max())) <= set(cand.tolist())
    screened = search._screen_flips(a, is_, js, work)
    if screened is None:
        assert np.array_equal(cand, np.arange(js.size)) and bound is None
        return cand, False
    delta, unreliable = screened
    cur = search._pair_objective(a[None], None)[0]
    err = np.abs(cur + delta - exact)[~unreliable]
    assert err.size == 0 or err.max() <= 1e-8
    if bound is None:
        assert np.array_equal(cand, np.arange(js.size))
    else:
        # the bound annealing rejects flips by: each reliable flip's exact
        # change is at most its screened change plus SCREEN_DELTA
        assert np.all(bound[unreliable] == math.inf)
        assert np.all((exact - cur)[~unreliable] <= bound[~unreliable])
    return cand, True


def test_flip_screen_matches_every_atlas_graph():
    networkx = pytest.importorskip("networkx")
    ran = 0
    for h in networkx.graph_atlas_g():
        if h.number_of_nodes() >= 2:
            ran += screen_against_exact(networkx.to_numpy_array(h, nodelist=range(len(h))))[1]
    assert ran >= 20  # C5 and P4 among them: nonsingular with a nonsingular complement


@pytest.mark.parametrize("n", [12, 16, 24, 32, 64])
def test_flip_screen_matches_random_graphs(n):
    rng = np.random.default_rng(n)
    ran = [screen_against_exact(random_adjacency(rng, n, p))[1] for p in (0.1, 0.5, 0.9)]
    assert ran[1]


@pytest.mark.parametrize("q", [9, 13, 17])
def test_every_flip_of_a_paley_graph_is_a_candidate(q):
    # flips of an edge-transitive, self-complementary graph all tie
    cand, ran = screen_against_exact(adjacency_matrix(paley_graph(q)).array.copy())
    assert ran and np.array_equal(cand, np.arange(q * (q - 1) // 2))


@pytest.mark.parametrize("n", [2, 5, 12])
def test_screen_declines_on_singular_graphs(n):
    star = np.zeros((n, n))
    star[0, 1:] = star[1:, 0] = 1.0
    for a in (np.zeros((n, n)), np.ones((n, n)) - np.eye(n), star):
        assert not screen_against_exact(a)[1]  # every flip is a candidate


def smallest_abs_eigenvalue(stack):
    """Smallest |eigenvalue| of A or J - I - A, for each A of a (B, n, n) stack."""
    both = np.stack([stack, 1.0 - np.eye(stack.shape[-1]) - stack])
    return np.abs(np.linalg.eigvalsh(both)).min(axis=-1).min(axis=0)


@functools.cache
def near_singular_graphs():
    """40 seeded graphs on 10 to 24 vertices whose A or J - I - A has its smallest
    |eigenvalue| in (1e-6, 3e-2), where the screen's integrand has its
    narrowest features: from a G(n, p), each step takes the flip that most
    shrinks that eigenvalue while keeping it above 1e-6, until it is below a
    target drawn log-uniformly from the range."""
    rng = np.random.default_rng(0)
    graphs = []
    while len(graphs) < 40:
        a = random_adjacency(rng, int(rng.integers(10, 25)), rng.uniform(0.15, 0.85))
        target = 10.0 ** rng.uniform(-6, math.log10(3e-2))
        for _ in range(30):
            if smallest_abs_eigenvalue(a[None])[0] < target:
                break
            flips = flip_stack(a)
            small = smallest_abs_eigenvalue(flips)
            a = flips[np.argmin(np.where(small > 1e-6, small, np.inf))]
        if 1e-6 < smallest_abs_eigenvalue(a[None])[0] < 3e-2:
            graphs.append(a)
    return tuple(graphs)


def test_flip_screen_matches_near_singular_graphs():
    graphs = near_singular_graphs()
    assert all(screen_against_exact(a)[1] for a in graphs)
    assert min(smallest_abs_eigenvalue(a[None])[0] for a in graphs) < 1e-4


def assert_singular_flips_are_unreliable(a):
    """Check that the screen of the adjacency a marks unreliable every flip
    that makes A' or J - I - A' singular. Returns how many there were, or
    None when the screen declined."""
    js, is_ = np.nonzero(pair_mask(a.shape[0]))
    screened = search._screen_flips(a, is_, js, search._ScreenWork(a.shape[0], js.size))
    if screened is None:
        return None
    singular = smallest_abs_eigenvalue(flip_stack(a)) < 1e-9
    assert screened[1][singular].all()
    return int(singular.sum())


@pytest.mark.parametrize("n", [10, 12, 16])
def test_flips_to_a_singular_graph_are_marked_unreliable(n):
    # |g| vanishes at x = 0 for such a flip and grows like x: the smallest
    # node must stay small enough for |g| there to fall below _SCREEN_G_TOL
    rng = np.random.default_rng(200 + n)
    graphs = [random_adjacency(rng, n, p) for p in (0.1, 0.2, 0.3, 0.5, 0.7, 0.8, 0.9) * 6]
    counts = [assert_singular_flips_are_unreliable(a) for a in graphs]
    assert sum(c for c in counts if c) >= 100


def test_flips_of_near_singular_graphs_to_a_singular_graph_are_marked_unreliable():
    # a small eigenvalue of A makes |g| grow fastest away from x = 0
    counts = [assert_singular_flips_are_unreliable(a) for a in near_singular_graphs()]
    assert None not in counts and sum(counts) >= 100


def full_screen_rule():
    """Nodes and weights of the screen's trapezoid rule run out to t = ±4.5,
    x from 2e-31 to 5e30, with the same step and weights."""
    t = 0.1 * np.arange(-45, 46)
    x = np.exp(np.pi / 2 * np.sinh(t))
    return x, 0.05 * x * np.cosh(t)


def screen_tail_bound(n):
    """What the tails beyond the screen's nodes carry at order n, summed over
    A and J - I - A, by the bound derived in _screen_flips."""
    x = search._SCREEN_X
    return 2 / math.pi * ((2 * math.sqrt(2 * n * (n - 1)) + 4) / x[-1] + 2 * 30 * x[0])


def test_screen_rule_leaves_out_tails_under_1e_9():
    # a deterministic accuracy and cost guard on the node range: a further
    # trim breaks the bound, a wider rule costs more nodes
    assert search._SCREEN_X.size == search._SCREEN_W.size == 71
    assert search._SCREEN_X[-1] >= 2 * (search.LOCAL_MAX_N - 1)  # the upper tail needs x >= 2ρ
    assert screen_tail_bound(search.LOCAL_MAX_N) <= 1e-9


def assert_screen_matches_full_rule(monkeypatch, a):
    """Check that each flip the screen of the adjacency a holds reliable under
    both rules has a screened value within screen_tail_bound of the full
    rule's. Returns whether the screen ran."""
    n = a.shape[0]
    js, is_ = np.nonzero(pair_mask(n))
    trimmed = search._screen_flips(a, is_, js, search._ScreenWork(n, js.size))
    with monkeypatch.context() as m:
        x, w = full_screen_rule()
        m.setattr(search, "_SCREEN_X", x)
        m.setattr(search, "_SCREEN_W", w)
        # a workspace takes the nodes and weights when it is built
        full = search._screen_flips(a, is_, js, search._ScreenWork(n, js.size))
    if trimmed is None:
        assert full is None
        return False
    reliable = ~(trimmed[1] | full[1])
    err = np.abs(trimmed[0][reliable] - full[0][reliable])
    assert err.size == 0 or err.max() <= screen_tail_bound(a.shape[0])
    return True


def test_screen_matches_the_full_rule_on_every_atlas_graph(monkeypatch):
    networkx = pytest.importorskip("networkx")
    ran = 0
    for h in networkx.graph_atlas_g():
        if h.number_of_nodes() >= 2:
            a = networkx.to_numpy_array(h, nodelist=range(len(h)))
            ran += assert_screen_matches_full_rule(monkeypatch, a)
    assert ran >= 20


@pytest.mark.parametrize("n", [12, 16, 24, 32, 64])
def test_screen_matches_the_full_rule_on_random_graphs(monkeypatch, n):
    rng = np.random.default_rng(n)  # the graphs of test_flip_screen_matches_random_graphs
    graphs = [random_adjacency(rng, n, p) for p in (0.1, 0.5, 0.9)]
    ran = [assert_screen_matches_full_rule(monkeypatch, a) for a in graphs]
    assert ran[1]


def assert_screen_matches_two_logs(a, work=None):
    """Check the screen of the adjacency a, on `work` or a new workspace,
    against oracles.two_log_screen: the same decline, the same unreliable
    mask, and each reliable value within 1e-10. Returns whether it ran."""
    js, is_ = np.nonzero(pair_mask(a.shape[0]))
    if work is None:
        work = search._ScreenWork(a.shape[0], js.size)
    screened = search._screen_flips(a, is_, js, work)
    oracle = oracles.two_log_screen(a, is_, js, search._SCREEN_X, search._SCREEN_W)
    if screened is None or oracle is None:
        assert screened is None and oracle is None
        return False
    assert np.array_equal(screened[1], oracle[1])
    reliable = ~oracle[1]
    err = np.abs(screened[0][reliable] - oracle[0][reliable])
    assert err.size == 0 or err.max() <= 1e-10
    return True


@pytest.mark.parametrize("n", [10, 11, 16, 23, 32, 47, 64])
def test_one_log_per_flip_matches_one_log_per_matrix(n):
    # the screen sums log1p(u_A + u_B + u_A u_B) where the oracle sums
    # log1p(u_A) and log1p(u_B); at n <= 11 the flips fill less than one
    # chunk, and above it the last chunk is partial
    rng = np.random.default_rng(300 + n)
    ran = 0
    for _ in range(40):  # small orders are often singular, and the screen declines
        ran += assert_screen_matches_two_logs(random_adjacency(rng, n, rng.uniform(0.2, 0.8)))
        if ran == 3:
            break
    assert ran == 3


def test_one_log_per_flip_matches_one_log_per_matrix_near_singular_graphs():
    assert all(assert_screen_matches_two_logs(a) for a in near_singular_graphs())


def test_screen_workspace_keeps_no_state_between_graphs():
    # an annealing restart screens every graph it scores on one workspace,
    # including graphs the screen declines
    near = near_singular_graphs()
    n = near[0].shape[0]
    rng = np.random.default_rng(7)
    graphs = [random_adjacency(rng, n, p) for p in (0.5, 0.3)] + [np.zeros((n, n))]
    graphs += [a for a in near if a.shape[0] == n] + [random_adjacency(rng, n, 0.7)]
    work = search._ScreenWork(n, n * (n - 1) // 2)
    ran = [assert_screen_matches_two_logs(a, work) for a in graphs]
    assert ran[2] is False and ran.count(True) == len(graphs) - 1


def test_screen_declines_when_one_certificate_fails(monkeypatch):
    # A and J - I - A share one factorization call, each with its own
    # certificate, and either failing declines the screen
    a = random_adjacency(np.random.default_rng(16), 16, 0.5)
    js, is_ = np.nonzero(pair_mask(16))
    work = search._ScreenWork(16, js.size)
    assert search._screen_flips(a, is_, js, work) is not None
    real_eigh = np.linalg.eigh
    for member in (0, 1):

        def forged(arr, member=member):
            w, q = real_eigh(arr)
            w[member] += 1e-6
            return w, q

        monkeypatch.setattr(np.linalg, "eigh", forged)
        assert search._screen_flips(a, is_, js, work) is None
        cand, bound = search._flip_candidates(a, is_, js, work)
        assert np.array_equal(cand, np.arange(js.size)) and bound is None


@pytest.mark.parametrize("n, cap", [(16, 64_000), (64, 256_000)])
def test_screen_on_a_workspace_allocates_no_chunk_temporaries(monkeypatch, n, cap):
    # a deterministic cost guard: one (2, 64, 71) float64 chunk temporary
    # is 73 KB, and a screen that allocates them peaks at about 0.9 MB at
    # n = 16; what is left is the factorization and a few (2, m) arrays.
    # With all m flips in one chunk, even a (m, 71) float64 temporary per
    # chunk (68 KB at n = 16, 1.1 MB at n = 64) crosses the cap
    a = random_adjacency(np.random.default_rng(n), n, 0.5)
    js, is_ = np.nonzero(pair_mask(n))
    for chunk in (search._SCREEN_CHUNK, js.size):
        monkeypatch.setattr(search, "_SCREEN_CHUNK", chunk)
        work = search._ScreenWork(n, js.size)
        assert search._screen_flips(a, is_, js, work) is not None
        tracemalloc.start()
        try:
            search._screen_flips(a, is_, js, work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cap, chunk


@pytest.mark.parametrize("n", [5, 9, 16, 32, 64])
def test_pair_objective_of_any_substack_is_the_full_stack_bit_for_bit(n):
    # the annealing step re-scores a few flips and must get the values that
    # scoring all of them would give
    rng = np.random.default_rng(100 + n)
    stack = flip_stack(random_adjacency(rng, n, 0.5))
    m = stack.shape[0]
    full = search._pair_objective(stack, None)
    subsets = [[r] for r in rng.choice(m, size=min(m, 30), replace=False)]
    subsets += [np.sort(rng.choice(m, size=min(m, 6), replace=False)) for _ in range(2)]
    subsets += [np.arange(m)[::-1]]
    for rows in subsets:
        assert np.array_equal(search._pair_objective(stack[rows], None), full[rows])


def score_every_flip(a, is_, js, work):
    """A stand-in for _flip_candidates: every flip a candidate, no bounds."""
    return np.arange(is_.size), None


@pytest.mark.parametrize("n", [2, 3, 4, 6, 9, 16, 24])
def test_screened_annealing_takes_the_steps_of_scoring_every_flip(monkeypatch, n):
    cfgs = [
        SearchConfig(restarts=2, max_steps=40, seed=1),
        SearchConfig(restarts=2, max_steps=40, temperature_initial=0.0, seed=2),
        SearchConfig(restarts=1, max_steps=60, temperature_initial=0.05, cooling=0.5, seed=3),
    ]
    sizes = []
    screen = search._flip_candidates

    def recorded(a, is_, js, work):
        cand, bound = screen(a, is_, js, work)
        sizes.append(cand.size)
        return cand, bound

    monkeypatch.setattr(search, "_flip_candidates", recorded)
    screened = [local_search_max(n, cfg=cfg) for cfg in cfgs]
    monkeypatch.setattr(search, "_flip_candidates", score_every_flip)
    every = [local_search_max(n, cfg=cfg) for cfg in cfgs]
    assert screened == every
    assert sizes  # the screen ran at every order; at n = 2 it declines the one flip
    if n >= 16:
        assert np.median(sizes) <= 2  # the screen ran and re-scored a few flips


def test_screened_annealing_breaks_ties_like_scoring_every_flip(monkeypatch):
    # start every restart from the 10-cycle, where 7 flips tie bit for bit at
    # the maximum (with numpy 2.4 and OpenBLAS 0.3.31): the step must take
    # the smallest of them
    c10 = adjacency_matrix(cycle(10))
    monkeypatch.setattr(search, "adjacency_matrix", lambda g: c10)
    flips = flip_stack(c10.array)
    vals = search._pair_objective(flips, None)
    first = np.flatnonzero(vals == vals.max())[0]
    cfgs = [SearchConfig(restarts=1, max_steps=1), SearchConfig(restarts=2, max_steps=30, seed=1)]
    screened = [local_search_max(10, cfg=cfg) for cfg in cfgs]
    # after one step the witness is the flipped graph, so the chosen flip shows
    assert witness_graphs(screened[0]) == (Graph.from_flags(10, flips[first][pair_mask(10)]),)
    monkeypatch.setattr(search, "_flip_candidates", score_every_flip)
    assert screened == [local_search_max(10, cfg=cfg) for cfg in cfgs]


def test_annealing_step_rescores_a_few_flips(monkeypatch, capsys):
    # a deterministic cost guard: scoring every flip would pass 2m = 992
    # matrices per step at n = 32
    counted = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a):
        counted.append(1 if a.ndim == 2 else a.shape[0])
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    argv = ["search", "local", "--n", "32", "--steps", "20", "--seed", "5", "--json"]
    assert cli.main(argv) == 0
    restarts, steps = SearchConfig().restarts, 20
    assert json.loads(capsys.readouterr().out)["results"]["evaluations"] == restarts * (
        1 + steps * 496
    )
    assert sum(counted) <= restarts * (2 + steps * 2 * 4)


def test_search_result_json():
    res = exhaustive_max(3)
    d = cli._plain(res)
    assert d["objective"] == "trace_sum"
    assert d["method"] == "exhaustive"
    assert d["n"] == 3 and d["truncated"] is False
    assert isinstance(d["witnesses"], tuple)
    assert all(isinstance(w, str) for w in d["witnesses"])
    # one batch encodes the witnesses, each as graph6_encode does alone
    assert d["witnesses"] == tuple(graph6_encode(g) for g in witness_graphs(res))
    assert json.loads(cli.render_json(d))["witnesses"] == list(res.witnesses)
    assert isinstance(res, SearchResult)



def test_property_sweep_clean_and_deterministic():
    rep = property_sweep(25, 5, (4, 10), ["main", "shifted"])
    rep2 = property_sweep(25, 5, (4, 10), ["main", "shifted"])
    assert rep == rep2
    assert rep.total_violations == 0
    assert [t.kind for t in rep.results] == ["main", "shifted"]
    for t in rep.results:
        assert t.trials == 25 and t.passes == 25 and t.violations == 0
        assert math.isfinite(t.worst_slack)
        assert t.worst_witness is not None


def test_property_sweep_shared_samples():
    # main_matrix and shifted draw from the same stream, so the worst
    # witness for one is a matrix the other also saw
    rep = property_sweep(10, 7, (3, 6), ["main_matrix", "shifted"])
    w0 = rep.results[0].worst_witness
    w1 = rep.results[1].worst_witness
    assert set(w0) == set(w1) == {"matrix"}


def _witnesses(trials, seed, n_range):
    rep = property_sweep(trials, seed, n_range, list(search.SWEEP_KINDS))
    return {t.kind: t.worst_witness for t in rep.results}


def test_property_sweep_kinds_keeping_one_sample_share_its_witness():
    # with one trial, the kinds of a stream all keep its one sample
    w = _witnesses(1, 7, (2, 12))
    assert w["main_matrix"] is w["shifted"]
    assert w["kyfan"] is w["opnorm"]
    assert w["main"] is w["weyl"]


def test_property_sweep_kinds_keeping_different_samples_share_nothing():
    # at seed 37 the two kinds of each stream keep different samples
    w = _witnesses(3, 37, (2, 5))
    for a, b in (("main_matrix", "shifted"), ("kyfan", "opnorm"), ("main", "weyl")):
        assert w[a] != w[b]
    assert len({id(v) for v in w.values()}) == len(w)


def test_property_sweep_all_kinds():
    rep = property_sweep(
        10, 1, (3, 8), ["main", "main_matrix", "shifted", "kyfan", "opnorm", "weyl"]
    )
    assert rep.total_violations == 0
    assert len(rep.results) == 6


SWEEP_KIND_LISTS = (
    [list(search.SWEEP_KINDS), list(search.SWEEP_KINDS[::-1]), ["weyl", "main_matrix", "main"]]
    + [[kind] for kind in search.SWEEP_KINDS]
)


@pytest.mark.parametrize("seed", [0, 1, 7, 2**64 - 1])
def test_property_sweep_matches_the_per_kind_sweep(seed):
    # one stream per tag, shared by its kinds, gives each kind the samples
    # that its own stream gave it
    for kinds, n_range, trials, tol in itertools.product(
        SWEEP_KIND_LISTS, ((2, 2), (2, 6), (4, 12)), (1, 3), (0.0, bounds.HOLD_TOL)
    ):
        args = (trials, seed, n_range, kinds, tol)
        assert property_sweep(*args) == property_sweep_per_kind(*args)


def test_property_sweep_draws_each_sample_once(monkeypatch):
    counts = {"streams": 0, "graphs": 0, "adjacency": 0}

    class Counting(SplitMix64):
        def __init__(self, seed):
            counts["streams"] += 1
            super().__init__(seed)

        def next_bits(self, nbits):
            counts["graphs"] += 1
            return super().next_bits(nbits)

    def adjacency(g):
        counts["adjacency"] += 1
        return adjacency_matrix(g)

    monkeypatch.setattr(search, "SplitMix64", Counting)
    monkeypatch.setattr(oracles, "SplitMix64", Counting)
    for module in (search, bounds):
        monkeypatch.setattr(module, "adjacency_matrix", adjacency)
    for sweep, seen in ((property_sweep, 3), (property_sweep_per_kind, 6)):
        counts.update(dict.fromkeys(counts, 0))
        sweep(3, 7, (4, 8), list(search.SWEEP_KINDS))
        assert counts == {"streams": seen, "graphs": seen, "adjacency": seen}


@pytest.mark.parametrize(
    "kinds, eighs, svds",
    [
        (list(search.SWEEP_KINDS), 4, 2),
        (["main", "weyl"], 2, 0),
        (["main_matrix", "shifted"], 2, 0),
        (["kyfan", "opnorm"], 0, 2),
    ],
)
def test_property_sweep_factors_a_sample_and_its_partner_once(monkeypatch, kinds, eighs, svds):
    # one sample per stream, of order 6: however many kinds check it, the
    # sample and its complement partner take one factorization each (the
    # 6 x 6 rect_matrix sample is not symmetric, so it takes SVDs)
    calls = {"eigh": 0, "svd": 0}
    for name, real in [(name, getattr(np.linalg, name)) for name in calls]:

        def spy(*args, name=name, real=real, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    assert property_sweep(1, 7, (6, 6), kinds).total_violations == 0
    assert calls == {"eigh": eighs, "svd": svds}


@pytest.mark.parametrize("n", [1, 2, 3, 7, 32])
def test_random_symmetric_draws_the_upper_triangle_row_by_row(n):
    rng, oracle = SplitMix64(n), SplitMix64(n)
    expected = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            expected[i, j] = expected[j, i] = oracle.next_double()
    assert np.array_equal(search._random_symmetric(rng, n).array, expected)
    assert rng.state == oracle.state


@pytest.mark.parametrize("m, n", [(1, 1), (2, 5), (7, 3)])
def test_random_rect_draws_row_by_row(m, n):
    rng, oracle = SplitMix64(m * n), SplitMix64(m * n)
    expected = [[oracle.next_double() for _ in range(n)] for _ in range(m)]
    assert search._random_rect(rng, m, n).array.tolist() == expected
    assert rng.state == oracle.state


def test_property_sweep_checks_every_kind_before_the_first_draw(monkeypatch):
    def no_check(*args, **kwargs):
        raise AssertionError("a check ran before the kinds were validated")

    monkeypatch.setattr(search, "check_bound", no_check)
    for kinds in (["main", "bogus"], []):
        with pytest.raises(ValueError, match="sweep kinds"):
            property_sweep(300, 1, (4, 30), kinds)


def test_property_sweep_refuses_a_repeated_kind_before_the_first_draw(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("a sample was drawn before the kinds were validated")

    monkeypatch.setattr(search, "SplitMix64", no_draw)
    for kinds in (["main", "main"], ["weyl", "shifted", "weyl"]):
        with pytest.raises(ValueError, match="sweep kinds must be nonempty, distinct"):
            property_sweep(3, 1, (4, 6), kinds)


def test_property_sweep_checks_the_tolerance_before_the_first_draw(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("a sample was drawn before the tolerance was validated")

    monkeypatch.setattr(search, "SplitMix64", no_draw)
    for tol in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            property_sweep(2, 0, (4, 6), ["main"], tol=tol)


def test_both_searches_share_the_order_and_thread_checks():
    for search_max, cap, what in (
        (exhaustive_max, search.EXHAUSTIVE_MAX_N, "exhaustive enumeration"),
        (local_search_max, search.LOCAL_MAX_N, "local search"),
    ):
        with pytest.raises(OrderTooLargeError, match=f"^{what} is capped at n = {cap}, got n = "):
            search_max(cap + 1)
        with pytest.raises(ValueError, match="^n must be a positive integer, got 0$"):
            search_max(0)
        with pytest.raises(ValueError, match="^threads must be a positive integer, got 0$"):
            search_max(3, threads=0)


def test_property_sweep_validation():
    with pytest.raises(ValueError):
        property_sweep(5, 0, (3, 6), ["nope"])
    with pytest.raises(ValueError):
        property_sweep(0, 0, (3, 6), ["main"])
    with pytest.raises(ValueError):
        property_sweep(5, 0, (9, 4), ["main"])
    with pytest.raises(ValueError):
        property_sweep(5, 0, (1, 4), ["main"])
    with pytest.raises(ValueError):
        property_sweep(5, -1, (3, 6), ["main"])


def test_trace_sum_takes_no_k():
    for search_max in (exhaustive_max, local_search_max):
        with pytest.raises(ValueError, match="^k applies only to objective 'kyfan_sum', got k=3$"):
            search_max(4, k=3)
