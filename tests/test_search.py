import ast
import hashlib
import json
import math
import sys
from pathlib import Path

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
from normsum import cli, paley_graph, search
from normsum.graphs import pair_mask
from normsum.search import WITNESS_CAP, WITNESS_TOL
from oracles import cycle, flipped, srg_params


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
    for g in res.witnesses:
        assert srg_params(g) == srg_params(res.witnesses[0])


def test_exhaustive_witnesses_reach_reported_value():
    res = exhaustive_max(4)
    assert res.witnesses == tuple(sorted(res.witnesses, key=lambda g: g.bits))
    for g in res.witnesses:
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


def test_exhaustive_n8_warns():
    # the scale warning fires before enumeration, so a bad k aborts cheaply
    with pytest.warns(UserWarning):
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


def test_exhaustive_thread_determinism():
    a = exhaustive_max(6, threads=1)
    b = exhaustive_max(6, threads=3)
    assert a.best_value == b.best_value
    assert a.witnesses == b.witnesses
    assert a.evaluations == b.evaluations == 1 << 15


def oracle_values(n, objective, k):
    """Objective of every labeled n-vertex graph by plain per-graph eigvalsh
    of A and of J - I - A, indexed by edge bitset."""
    total = 1 << (n * (n - 1) // 2)
    a = np.stack([adjacency_matrix(Graph(n=n, bits=b)).array for b in range(total)])

    def norms(x):
        s = np.sort(np.abs(np.linalg.eigvalsh(x)), axis=1)
        return s.sum(axis=1) if objective == "trace_sum" else s[:, n - k :].sum(axis=1)

    return norms(a) + norms(np.ones((n, n)) - np.eye(n) - a)


def kernel_values(n, objective, k):
    """Objective of every graph as the exhaustive jobs compute it."""
    total = 1 << (n * (n - 1) // 2)
    vals = np.full(total, np.nan)
    table = search._base_table(n)
    for job in range(max(1, (total >> search._BLOCK_BITS) // 2)):
        idx, v = search._job_values(job, n, objective, k, table)
        assert np.isnan(vals[idx]).all()  # every graph is scored exactly once
        vals[idx] = v
    return vals


def assert_matches_oracle(n, objective, k, threads=1):
    ref = oracle_values(n, objective, k)
    vals = kernel_values(n, objective, k)
    assert np.max(np.abs(vals - ref)) <= 1e-12
    res = exhaustive_max(n, objective, k=k, threads=threads)
    sel = np.flatnonzero(ref >= ref.max() - WITNESS_TOL)
    assert abs(res.best_value - ref.max()) <= 1e-12
    assert tuple(g.bits for g in res.witnesses) == tuple(int(i) for i in sel[:WITNESS_CAP])
    assert res.truncated == (sel.size > WITNESS_CAP)
    assert res.evaluations == ref.size
    return res


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("objective", ["trace_sum", "kyfan_sum"])
def test_exhaustive_kernel_matches_per_graph_oracle(n, objective):
    k = None if objective == "trace_sum" else min(2, n)
    assert_matches_oracle(n, objective, k)


@pytest.mark.parametrize("objective,k", [("trace_sum", None), ("kyfan_sum", 3)])
def test_exhaustive_mirror_blocks_across_threads(monkeypatch, objective, k):
    # 32 blocks of 2^10 at n = 6: each job pairs block b with block 31 - b
    monkeypatch.setattr(search, "_BLOCK_BITS", 10)
    one = assert_matches_oracle(6, objective, k, threads=1)
    three = exhaustive_max(6, objective, k=k, threads=3)
    assert one == three


def test_witnesses_merge_duplicate_bitsets():
    # two restarts that end on one graph give one witness
    best, witnesses, truncated = search._witnesses(4, [(6.0, 9), (5.0, 3), (6.0, 9)])
    assert best == 6.0
    assert witnesses == (Graph(n=4, bits=9),)
    assert truncated is False


def test_witnesses_keep_unequal_values_within_the_tolerance():
    top = 21.2
    candidates = [(top - 0.5 * WITNESS_TOL, 4), (top, 40), (top - 2 * WITNESS_TOL, 1)]
    best, witnesses, truncated = search._witnesses(5, candidates)
    assert best == top
    assert [g.bits for g in witnesses] == [4, 40]
    assert truncated is False


def test_witnesses_sort_candidates_that_arrive_out_of_order():
    # job 0's mirror half (high bitsets) ahead of job 1's first half
    candidates = [(1.0, 1000), (1.0, 990), (1.0, 12), (1.0, 11)]
    _, witnesses, _ = search._witnesses(5, candidates)
    assert [g.bits for g in witnesses] == [11, 12, 990, 1000]


def test_exhaustive_max_does_not_depend_on_the_order_jobs_return_in(monkeypatch):
    monkeypatch.setattr(search, "_BLOCK_BITS", 10)
    ref = exhaustive_max(6, "kyfan_sum", k=1)
    fan_out = search._fan_out
    monkeypatch.setattr(search, "_fan_out", lambda *a: fan_out(*a)[::-1])
    assert exhaustive_max(6, "kyfan_sum", k=1) == ref


def test_witnesses_are_truncated_only_past_the_cap():
    exact = [(3.0, b) for b in range(WITNESS_CAP)]
    _, witnesses, truncated = search._witnesses(5, exact[::-1])
    assert [g.bits for g in witnesses] == list(range(WITNESS_CAP))
    assert truncated is False
    _, witnesses, truncated = search._witnesses(5, exact + [(3.0, WITNESS_CAP)])
    assert [g.bits for g in witnesses] == list(range(WITNESS_CAP))
    assert truncated is True


KEY_CHUNK = 1 << 13  # graphs per batch of walk_counts, bounding memory


def walk_counts(idx, n):
    """Closed-walk counts tr(A^k), k = 2..max(n, 2), one row per graph index,
    by batched matrix powers: the slow oracle of the bordered block keys.

    Every count is an integer at most n (n-1)^(k-1) < 2^53 for n <= 8, so
    the float64 products and sums are exact.
    """
    top = max(n, 2)
    keys = np.empty((idx.shape[0], top - 1), dtype=np.float64)
    for s in range(0, idx.shape[0], KEY_CHUNK):
        a = search._adjacency_from_indices(idx[s : s + KEY_CHUNK], n)
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


def test_cospectral_pair_shares_a_solve_but_not_its_complements():
    star = graph_from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])  # K_{1,4}
    c4k1 = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0)])  # C_4 + K_1
    total = 1 << 10
    graphs = [star, c4k1, flipped(star), flipped(c4k1)]
    assert [g.bits for g in graphs[2:]] == [total - 1 - star.bits, total - 1 - c4k1.bits]
    idx = np.array([g.bits for g in graphs], dtype=np.int64)
    keys = walk_counts(idx, 5)
    assert (keys[0] == keys[1]).all() and not (keys[2] == keys[3]).all()
    first, inverse = search._group_rows(keys)
    assert len(first) == 3 and inverse[0] == inverse[1]
    norms = search._graph_norms(idx, keys, 5, "trace_sum", None)
    ref = [trace_norm(adjacency_matrix(g)) for g in graphs]
    assert np.max(np.abs(norms - ref)) <= 1e-12
    assert norms[2] != pytest.approx(norms[3])
    vals = kernel_values(5, "trace_sum", None)
    for g in (star, c4k1):
        assert abs(vals[g.bits] - pair_value(g)) <= 1e-12


def assert_block_keys_match_oracle(n, blocks):
    table = search._base_table(n)
    total = 1 << (n * (n - 1) // 2)
    size = min(total, 1 << search._BLOCK_BITS)
    for b in blocks:
        idx = np.arange(b * size, (b + 1) * size, dtype=np.int64)
        ref = search._pack_keys(walk_counts(idx, n).T, n)
        assert np.array_equal(search._block_keys(b, n, table), ref), (n, b)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_bordered_keys_match_matrix_powers_on_every_block(n):
    total = 1 << (n * (n - 1) // 2)
    assert_block_keys_match_oracle(n, range(max(1, total >> search._BLOCK_BITS)))


def test_bordered_keys_match_matrix_powers_at_n8():
    # jobs 0, 1, 1023 and 2047 of 2048: each block with its mirror
    blocks = [b for job in (0, 1, 1023, 2047) for b in (job, 4095 - job)]
    assert_block_keys_match_oracle(8, blocks)


@pytest.mark.parametrize("bits", [10, 12])
@pytest.mark.parametrize("n", [6, 7])
def test_bordered_keys_match_matrix_powers_in_smaller_blocks(monkeypatch, bits, n):
    # base graphs on 5 vertices; vertex 5 takes 1 or 4 border sets per block
    monkeypatch.setattr(search, "_BLOCK_BITS", bits)
    assert_block_keys_match_oracle(n, range(1 << (n * (n - 1) // 2 - bits)))


@pytest.mark.parametrize("n,bits", [(7, 6), (8, 10), (8, 12)])
def test_bordered_keys_match_matrix_powers_past_two_later_vertices(monkeypatch, n, bits):
    # base graphs on 4 or 5 vertices, so three later vertices are bordered on
    monkeypatch.setattr(search, "_BLOCK_BITS", bits)
    last = (1 << (n * (n - 1) // 2 - bits)) - 1
    assert_block_keys_match_oracle(n, [0, 1, 777, last // 3, last - 1, last])


def unpack_keys(keys, n):
    """Inverse of search._pack_keys: tr A^k takes the bit width of its bound
    n (n-1)^(k-1), and the widths fill 63-bit words in k order."""
    rows, word, used = [], -1, 63
    for kk in range(2, max(n, 2) + 1):
        width = (n * (n - 1) ** (kk - 1)).bit_length()
        if used + width > 63:
            word, used = word + 1, 0
        rows.append((keys[:, word] >> used) & ((1 << width) - 1))
        used += width
    return np.array(rows, dtype=np.float64)


def test_packed_keys_fit_two_words_and_unpack_exactly():
    for n in range(1, 9):
        # K_n and the empty graph have the largest and smallest walk counts
        idx = np.array([(1 << (n * (n - 1) // 2)) - 1, 0], dtype=np.int64)
        counts = walk_counts(idx, n).T
        keys = search._pack_keys(counts, n)
        assert keys.shape[1] <= 2 and (keys >= 0).all()
        assert np.array_equal(unpack_keys(keys, n), counts)
    assert counts[:, 0].tolist() == [7**kk + 7 * (-1) ** kk for kk in range(2, 9)]
    assert keys.shape == (2, 2) and not (keys[0] == keys[1]).any()


def test_adjacency_from_indices_matches_adjacency_matrix():
    rng = np.random.default_rng(6)
    for n in range(1, 9):
        m = n * (n - 1) // 2
        if n <= 5:
            idx = np.arange(1 << m, dtype=np.int64)
        else:
            idx = rng.integers(0, 1 << m, size=200, dtype=np.int64)
        ref = [adjacency_matrix(Graph(n=n, bits=int(i))).array for i in idx]
        assert np.array_equal(search._adjacency_from_indices(idx, n), np.array(ref))


def test_group_rows_is_exact():
    # rows that differ in one column by the smallest step, plus exact repeats:
    # a summary of the row (a hash, a sum) could merge them, exact grouping must not
    rng = np.random.default_rng(5)
    keys = rng.integers(0, 3, size=(500, 4)).astype(np.float64)
    keys[::7, 2] += 2.0**-40
    keys[1::11] = keys[0]
    first, inverse = search._group_rows(keys)
    groups: dict[tuple, list[int]] = {}
    for i, row in enumerate(map(tuple, keys)):
        groups.setdefault(row, []).append(i)
    assert sorted(first.tolist()) == sorted(members[0] for members in groups.values())
    for i, row in enumerate(map(tuple, keys)):
        assert first[inverse[i]] == groups[row][0]


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
    assert res.witnesses == (Graph(n=1, bits=0),)


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
    for g in res.witnesses:
        assert abs(pair_value(g) - res.best_value) < 1e-9


def test_local_seed_determinism():
    cfg = SearchConfig(restarts=3, max_steps=200, seed=9)
    a = local_search_max(8, cfg=cfg, threads=1)
    b = local_search_max(8, cfg=cfg, threads=4)
    c = local_search_max(8, cfg=cfg)
    assert a.best_value == b.best_value == c.best_value
    assert a.witnesses == b.witnesses == c.witnesses
    assert a.evaluations == b.evaluations == c.evaluations


def test_local_search_starts_no_thread(monkeypatch):
    cfg = SearchConfig(restarts=3, max_steps=40, seed=2)
    ref = local_search_max(16, cfg=cfg, threads=1)

    def no_pool(*args, **kwargs):
        raise AssertionError("local search started a thread pool")

    monkeypatch.setattr(search, "ThreadPoolExecutor", no_pool)
    assert local_search_max(16, cfg=cfg, threads=4) == ref


def fan_out_calls(path):
    """(line, enclosing function or None) for each call of _fan_out, bare or
    as an attribute, in the module."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Name) and node.func.id == "_fan_out"
            or isinstance(node.func, ast.Attribute) and node.func.attr == "_fan_out"
        ):
            found.append((node.lineno, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


def test_exhaustive_max_is_the_one_caller_of_fan_out():
    modules = sorted(Path(search.__file__).parent.glob("*.py"))
    assert "search.py" in {p.name for p in modules}
    sites = [(p.name, func) for p in modules for _, func in fan_out_calls(p)]
    assert sites == [("search.py", "exhaustive_max")]


def test_the_fan_out_scan_finds_a_stray_call(tmp_path):
    stray = tmp_path / "stray.py"
    stray.write_text(
        "def restarts(cfg):\n"
        "    def run(r):\n"
        "        return search._fan_out(f, [r], 1)\n"
        "    return run\n"
        "parts = _fan_out(g, range(3), 2)\n"
    )
    assert fan_out_calls(stray) == [(3, "run"), (5, None)]


def random_flip_draws(monkeypatch, n, cfg):
    """(delta, temperature, scored) of every random flip that annealing
    drew outside its candidates, over the restarts of cfg: the flip's exact
    change of the objective, the step's temperature, and whether the step
    scored the flip."""
    values = search._flip_values
    events = []

    class Recording(SplitMix64):
        __slots__ = ()

        def next_below(self, bound):
            flip = super().next_below(bound)
            step = sys._getframe(1).f_locals  # the annealing step that drew it
            if flip in step["cand"]:
                events.append(None)
            else:
                events.append((step["a"].copy(), flip, step["cur_val"], step["temp"]))
            return flip

    def scored(a, is_, js, objective, k):
        events.append(is_.size)
        return values(a, is_, js, objective, k)

    monkeypatch.setattr(search, "SplitMix64", Recording)
    monkeypatch.setattr(search, "_flip_values", scored)
    for r in range(cfg.restarts):
        search._anneal_once(n, "trace_sum", None, cfg, r)
        events.append(None)
    js, is_ = np.nonzero(pair_mask(n))
    draws = []
    # the step scores a drawn flip right after the draw; one it skips is
    # rejected, so the next event is another draw or the end of the restart
    for event, after in zip(events, events[1:]):
        if isinstance(event, tuple):
            a, flip, cur_val, temp = event
            delta = values(a, is_[flip : flip + 1], js[flip : flip + 1], "trace_sum", None)[0]
            draws.append((delta - cur_val, temp, after == 1))
    return draws


@pytest.mark.parametrize(
    "n,cfg",
    [
        (
            16,
            SearchConfig(restarts=2, max_steps=300, temperature_initial=0.05, cooling=0.5, seed=3),
        ),
        (12, SearchConfig(restarts=6, max_steps=300, temperature_initial=0.0, seed=4)),
        (16, SearchConfig(restarts=1, max_steps=3000, seed=3)),  # scores some, skips some
    ],
)
def test_random_flips_are_skipped_only_when_they_cannot_be_accepted(monkeypatch, n, cfg):
    draws = random_flip_draws(monkeypatch, n, cfg)
    skipped = [(delta, temp) for delta, temp, scored in draws if not scored]
    assert skipped
    for delta, temp in skipped:
        if temp > 0.0:
            assert math.exp(delta / temp) == 0.0
        else:
            assert delta < 0.0


def test_a_default_restart_scores_few_random_flips(monkeypatch):
    # a deterministic cost guard: scoring every random flip outside the
    # candidates made 5564 single-flip calls in this restart
    values = search._flip_values
    sizes = []

    def counted(a, is_, js, objective, k):
        sizes.append(is_.size)
        return values(a, is_, js, objective, k)

    monkeypatch.setattr(search, "_flip_values", counted)
    local_search_max(16, cfg=SearchConfig(restarts=1, seed=3))
    assert sizes.count(1) == 1985


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
    assert [graph6_encode(g) for g in res.witnesses] == [witness]
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
                key = (res.best_value.hex(), [g.bits for g in res.witnesses])
                h.update(repr(key + (res.evaluations, res.truncated)).encode())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("n", [9, 16])
@pytest.mark.parametrize("seed", range(5))
def test_annealing_scores_each_graph_once(monkeypatch, n, seed):
    # a deterministic cost guard: a step that takes no flip leaves the graph
    # as it was, and the next step reuses its screen and its exact scores;
    # below SCREEN_MIN_N a step scores all m flips and there is no screen
    screen, values = search._flip_candidates, search._flip_values
    screens, scorings, held = [], [], []

    def screened(a, is_, js):
        screens.append(a.tobytes())
        return screen(a, is_, js)

    def scored(a, is_, js, objective, k):
        held[:] = [a]  # the array the run flips in place
        # the call on the screen's candidates or on all m flips, not the one
        # on the random flip
        if len(scorings) < len(screens) if screens else is_.size > 1:
            scorings.append(a.tobytes())
        return values(a, is_, js, objective, k)

    monkeypatch.setattr(search, "_flip_candidates", screened)
    monkeypatch.setattr(search, "_flip_values", scored)
    cfg = SearchConfig(restarts=2, max_steps=300, seed=seed)
    for r in range(cfg.restarts):
        screens.clear()
        scorings.clear()
        search._anneal_once(n, "trace_sum", None, cfg, r)
        # one exact scoring per screen, of the same graph
        assert screens == (scorings if n >= search.SCREEN_MIN_N else [])
        # one flip (two entries) between consecutive scorings and at most one
        # after the last, so the scorings number 1 + the flips applied before
        # the last step, and no graph is scored twice in a row
        graphs = [np.frombuffer(b) for b in scorings] + [held[0].ravel()]
        changed = [int(np.count_nonzero(x != y)) for x, y in zip(graphs, graphs[1:])]
        assert changed[:-1] == [2] * (len(scorings) - 1) and changed[-1] in (0, 2)


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
    exact = search._pair_objective(flip_stack(a), "trace_sum", None)
    cand = search._flip_candidates(a, is_, js)
    assert np.all(np.diff(cand) > 0)
    assert set(np.flatnonzero(exact == exact.max())) <= set(cand.tolist())
    screened = search._screen_flips(a, is_, js)
    if screened is None:
        assert np.array_equal(cand, np.arange(js.size))
        return cand, False
    delta, unreliable = screened
    cur = search._pair_objective(a[None], "trace_sum", None)[0]
    err = np.abs(cur + delta - exact)[~unreliable]
    assert err.size == 0 or err.max() <= 1e-8
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


@pytest.mark.parametrize("n", [5, 9, 16, 32, 64])
def test_pair_objective_of_any_substack_is_the_full_stack_bit_for_bit(n):
    # the annealing step re-scores a few flips and must get the values that
    # scoring all of them would give
    rng = np.random.default_rng(100 + n)
    stack = flip_stack(random_adjacency(rng, n, 0.5))
    m = stack.shape[0]
    full = search._pair_objective(stack, "trace_sum", None)
    subsets = [[r] for r in rng.choice(m, size=min(m, 30), replace=False)]
    subsets += [np.sort(rng.choice(m, size=min(m, 6), replace=False)) for _ in range(2)]
    subsets += [np.arange(m)[::-1]]
    for rows in subsets:
        assert np.array_equal(search._pair_objective(stack[rows], "trace_sum", None), full[rows])


@pytest.mark.parametrize("n", [6, 9, 16, 24])
def test_screened_annealing_takes_the_steps_of_scoring_every_flip(monkeypatch, n):
    monkeypatch.setattr(search, "SCREEN_MIN_N", 1)  # screen at every order
    cfgs = [
        SearchConfig(restarts=2, max_steps=40, seed=1),
        SearchConfig(restarts=2, max_steps=40, temperature_initial=0.0, seed=2),
        SearchConfig(restarts=1, max_steps=60, temperature_initial=0.05, cooling=0.5, seed=3),
    ]
    sizes = []
    screen = search._flip_candidates

    def recorded(a, is_, js):
        cand = screen(a, is_, js)
        sizes.append(cand.size)
        return cand

    monkeypatch.setattr(search, "_flip_candidates", recorded)
    screened = [local_search_max(n, cfg=cfg) for cfg in cfgs]
    monkeypatch.setattr(search, "_flip_candidates", lambda a, is_, js: np.arange(is_.size))
    every = [local_search_max(n, cfg=cfg) for cfg in cfgs]
    assert screened == every
    if n >= 16:
        assert np.median(sizes) <= 2  # the screen ran and re-scored a few flips


def test_screened_annealing_breaks_ties_like_scoring_every_flip(monkeypatch):
    # start every restart from the 10-cycle, where 7 flips tie bit for bit at
    # the maximum (with numpy 2.4 and OpenBLAS 0.3.31): the step must take
    # the smallest of them
    c10 = adjacency_matrix(cycle(10))
    monkeypatch.setattr(search, "adjacency_matrix", lambda g: c10)
    flips = flip_stack(c10.array)
    vals = search._pair_objective(flips, "trace_sum", None)
    first = np.flatnonzero(vals == vals.max())[0]
    cfgs = [SearchConfig(restarts=1, max_steps=1), SearchConfig(restarts=2, max_steps=30, seed=1)]
    screened = [local_search_max(10, cfg=cfg) for cfg in cfgs]
    # after one step the witness is the flipped graph, so the chosen flip shows
    assert screened[0].witnesses == (Graph.from_flags(10, flips[first][pair_mask(10)]),)
    monkeypatch.setattr(search, "_flip_candidates", lambda a, is_, js: np.arange(is_.size))
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
    d = res.to_json()
    assert d["objective"] == "trace_sum"
    assert d["method"] == "exhaustive"
    assert d["n"] == 3 and d["truncated"] is False
    assert isinstance(d["witnesses"], list)
    assert all(isinstance(w, str) for w in d["witnesses"])
    assert isinstance(res, SearchResult)


def test_property_sweep_clean_and_deterministic():
    rep = property_sweep(25, 5, (4, 10), ["main", "shifted"])
    rep2 = property_sweep(25, 5, (4, 10), ["main", "shifted"])
    assert rep.to_json() == rep2.to_json()
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


def test_property_sweep_all_kinds():
    rep = property_sweep(
        10, 1, (3, 8), ["main", "main_matrix", "shifted", "kyfan", "opnorm", "weyl"]
    )
    assert rep.total_violations == 0
    assert len(rep.results) == 6


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
