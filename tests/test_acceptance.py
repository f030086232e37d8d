"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run with -s or check captured output)
and enforces the advertised tolerance and runtime for that scenario. The
n = 7 exhaustive maximum is a frozen regression constant from the first
verified full enumeration.
"""

import itertools
import json
import math
import os
import time

import numpy as np
import pytest

from normsum import (
    SearchConfig,
    SplitMix64,
    adjacency_matrix,
    bound_value,
    check_bound,
    equality_analysis,
    exhaustive_max,
    graph_from_edges,
    kyfan_extremal_matrix,
    local_search_max,
    opnorm_extremal_matrix,
    paley_graph,
    property_sweep,
    svd,
    sym_eigen,
    trace_norm,
)
from normsum.cli import main
from oracles import SRGParams, cycle, exact_maxima, is_conference, srg_params, witness_graphs

# exhaustive_max(7) (trace_sum), first verified full 2^21 enumeration
N7_MAXIMUM = 21.20375412983717

THREADS = os.cpu_count() or 1

# Exact maxima of a matrix bound's left-hand side over every 0/1 matrix of a
# shape where the bound has no equality instance (oracles.exact_maxima), with
# the bound they stay under: opnorm on 3 x 3 (sqrt(18) = 4.2426), shifted on
# 4 x 4 with zero diagonal (10).
EXACT_MAXIMA = [("opnorm", 3, 3, 4.1815405503520555), ("shifted", 4, 4, 9.549506111608018)]

# More exact maxima (oracles.exact_maxima), one enumeration per shape, with
# whether the bound is met there: (kind, k, m, n, domain, maximum, equality).
EXACT_VERDICTS = [
    ("opnorm", None, 3, 4, "all", math.sqrt(24), True),
    ("kyfan", 2, 3, 4, "all", 4 + 2 * math.sqrt(2), False),
    ("kyfan", 3, 3, 4, "all", 8.092333923934103, False),
    ("shifted", None, 3, 3, "tournament", 3 + 2 * math.sqrt(3), True),
    ("shifted", None, 4, 4, "tournament", 8.755604237266937, False),
    ("shifted", None, 5, 5, "tournament", 13.331892995494993, False),
    ("shifted", None, 2, 2, "zero_diagonal", 3.0, False),  # bound 2 + sqrt(2)
    ("shifted", None, 3, 3, "zero_diagonal", 3 + 2 * math.sqrt(3), True),
    ("opnorm", None, 2, 3, "all", math.sqrt(12), True),
    ("opnorm", None, 2, 5, "all", math.sqrt(20), True),
    ("kyfan", 2, 2, 3, "all", 2 + 2 * math.sqrt(2), False),
    ("kyfan", 2, 2, 5, "all", 6.292528739883945, False),
    ("opnorm", None, 3, 5, "all", 3 + math.sqrt(6), False),  # bound sqrt(30)
    ("kyfan", 2, 3, 5, "all", 7.595754112725151, False),
    ("kyfan", 3, 3, 5, "all", 9.129787372517761, False),
]


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:2d} [{label}]: {status}{suffix}")
    assert ok, f"criterion {num} failed: {label}{suffix}"


def test_criterion_01_conference_equality_n9_cli(capsys):
    start = time.perf_counter()
    code = main(["check", "main", "--paley", "9", "--json"])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    rep = json.loads(out)
    r = rep["results"]
    ok = (
        code == 0
        and abs(r["lhs"] - 32) <= 1e-6
        and r["rhs"] == 32
        and abs(r["slack"]) <= 1e-6
        and r["equality"] is True
        and elapsed < 1.0
    )
    with capsys.disabled():
        _report(1, "conference equality at n=9 via CLI", ok, f"lhs={r['lhs']}, {elapsed:.2f}s")


def test_criterion_02_conference_equality_n13(capsys):
    start = time.perf_counter()
    v = check_bound("main", paley_graph(13))
    elapsed = time.perf_counter() - start
    target = 12 * (1 + math.sqrt(13))
    ok = abs(v.lhs - target) <= 1e-6 and abs(v.slack) <= 1e-6 and elapsed < 1.0
    with capsys.disabled():
        _report(2, "conference equality at n=13", ok, f"lhs={v.lhs:.10f}")


def test_criterion_03_exhaustive_maximum_n5(capsys):
    start = time.perf_counter()
    res = exhaustive_max(5)
    elapsed = time.perf_counter() - start
    target = 4 * (1 + math.sqrt(5))
    ok = (
        abs(res.best_value - target) <= 1e-9
        and abs(res.best_value - bound_value("main", 5)) <= 1e-9
        and len(res.witnesses) == 12
        and all(srg_params(g) == SRGParams(5, 2, 0, 1) for g in witness_graphs(res))
        and elapsed < 1.0
    )
    with capsys.disabled():
        _report(3, "exhaustive maximum at n=5", ok, f"{len(res.witnesses)} witnesses")


def test_criterion_04_strict_gap_n7(capsys):
    start = time.perf_counter()
    res = exhaustive_max(7, threads=THREADS)
    elapsed = time.perf_counter() - start
    gap = bound_value("main", 7) - res.best_value
    ok = (
        gap > 0.01
        and abs(res.best_value - N7_MAXIMUM) <= 1e-9
        and res.evaluations == 1 << 21
        and elapsed < 300.0
    )
    with capsys.disabled():
        _report(4, "strict gap at n=7", ok, f"max={res.best_value:.14f}, gap={gap:.4f}, {elapsed:.1f}s")


def test_criterion_05_kyfan_equality_instances(capsys):
    start = time.perf_counter()
    worst = 0.0
    for k, p, q in [(2, 1, 1), (3, 1, 1), (5, 1, 1), (9, 1, 1), (3, 2, 1)]:
        a = kyfan_extremal_matrix(k, p, q)
        v = check_bound("kyfan", a, k=k)
        worst = max(worst, abs(v.slack))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 1.0
    with capsys.disabled():
        _report(5, "Ky Fan equality instances", ok, f"worst |slack|={worst:.2e}")


def _half_structured(bits_mat: np.ndarray) -> bool:
    """True when the 0/1 matrix is all-ones on exactly half the columns (and
    zero elsewhere) or all-ones on exactly half the rows."""
    m, n = bits_mat.shape
    col_full = [c for c in range(n) if np.all(bits_mat[:, c] == 1)]
    col_empty = [c for c in range(n) if np.all(bits_mat[:, c] == 0)]
    if len(col_full) == n // 2 and len(col_empty) == n - n // 2:
        return True
    row_full = [r for r in range(m) if np.all(bits_mat[r, :] == 1)]
    row_empty = [r for r in range(m) if np.all(bits_mat[r, :] == 0)]
    return len(row_full) == m // 2 and len(row_empty) == m - m // 2


def test_criterion_06_opnorm_equality_and_converse(capsys):
    for m, n in [(2, 2), (2, 3), (4, 6)]:
        for orientation in ("rows", "columns"):
            if (n % 2 and orientation == "columns") or (m % 2 and orientation == "rows"):
                continue
            v = check_bound("opnorm", opnorm_extremal_matrix(m, n, orientation))
            assert abs(v.slack) <= 1e-9

    rng = SplitMix64(2024)
    target = math.sqrt(2 * 4 * 4)
    samples = []
    for _ in range(1000):
        bits = rng.next_bits(16)
        samples.append(np.array([[(bits >> (4 * i + j)) & 1 for j in range(4)] for i in range(4)], dtype=float))
    # structured matrices: all ones on 2 of 4 columns, or 2 of 4 rows
    for cols in itertools.combinations(range(4), 2):
        a = np.zeros((4, 4))
        a[:, cols] = 1.0
        samples.append(a)
        samples.append(a.T)

    mismatches = 0
    for a in samples:
        val = svd(a).values[0] + svd(np.ones((4, 4)) - a).values[0]
        achieves = abs(val - target) <= 1e-9
        if achieves != _half_structured(a.astype(int)):
            mismatches += 1
    ok = mismatches == 0
    with capsys.disabled():
        _report(6, "operator norm equality and converse", ok, f"{len(samples)} matrices")


def test_criterion_07_property_suites(capsys):
    start = time.perf_counter()
    rep_main = property_sweep(1000, 101, (4, 12), ["main"])
    rep_sym = property_sweep(1000, 202, (4, 12), ["main_matrix", "shifted"])
    rep_rect = property_sweep(1000, 303, (4, 12), ["kyfan", "opnorm"])
    rep_weyl = property_sweep(500, 404, (4, 12), ["weyl"])
    elapsed = time.perf_counter() - start
    violations = (
        rep_main.total_violations
        + rep_sym.total_violations
        + rep_rect.total_violations
        + rep_weyl.total_violations
    )
    worst_margin = -rep_weyl.results[0].worst_slack
    ok = violations == 0 and worst_margin <= 1e-7 and elapsed < 120.0
    with capsys.disabled():
        _report(
            7,
            "property suites",
            ok,
            f"3500 graph/matrix trials, worst margin={worst_margin:.1e}, {elapsed:.1f}s",
        )


def test_criterion_08_equality_analysis_flags(capsys):
    start = time.perf_counter()
    all_true = True
    for q in (9, 13):
        r = equality_analysis(adjacency_matrix(paley_graph(q)))
        all_true = all_true and all(
            [r.is_zero_one, r.row_sums_ok, r.col_sums_ok, r.flat_tail_ok,
             r.conference_spectrum_ok, r.overall]
        )
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    petersen = graph_from_edges(10, outer + spokes + inner)
    neg = not equality_analysis(adjacency_matrix(cycle(7))).overall
    neg = neg and not equality_analysis(adjacency_matrix(petersen)).overall
    elapsed = time.perf_counter() - start
    ok = all_true and neg and elapsed < 1.0
    with capsys.disabled():
        _report(8, "equality analysis flags", ok)


def test_criterion_09_bound_comparison(capsys):
    start = time.perf_counter()
    ok = all(bound_value("main", n) < bound_value("gutman_zhou", n) for n in range(7, 101))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    with capsys.disabled():
        _report(9, "bound dominates the flat-sum baseline for 7<=n<=100", ok)


def test_criterion_10_seeded_local_search(capsys):
    start = time.perf_counter()
    cfg = SearchConfig(restarts=50, max_steps=300, seed=42)
    res = local_search_max(9, cfg=cfg, threads=THREADS)
    elapsed = time.perf_counter() - start
    best_witness = witness_graphs(res)[0]
    ok = (
        res.best_value >= 32 - 1e-6
        and is_conference(best_witness)
        and elapsed < 30.0
    )
    with capsys.disabled():
        _report(
            10,
            "seeded local search finds a conference graph",
            ok,
            f"best={res.best_value:.9f}, {len(res.witnesses)} witnesses, {elapsed:.1f}s",
        )


def test_criterion_11_numerics(capsys):
    start = time.perf_counter()
    rng = SplitMix64(515)
    worst_rel = 0.0
    worst_pair = 0.0
    for _ in range(200):
        n = 2 + rng.next_below(29)
        a = np.zeros((n, n))
        for i in range(n):
            for j in range(i, n):
                a[i, j] = a[j, i] = rng.next_double() * 2 - 1
        sing = np.array(svd(a).values)
        frob2 = float((a * a).sum())
        worst_rel = max(worst_rel, abs(float((sing**2).sum()) - frob2) / frob2)
        eig = np.sort(np.abs(sym_eigen(a).values))
        worst_pair = max(worst_pair, float(np.max(np.abs(eig - np.sort(sing)))))
    elapsed = time.perf_counter() - start
    ok = worst_rel <= 1e-9 and worst_pair <= 1e-8 and elapsed < 30.0
    with capsys.disabled():
        _report(
            11,
            "spectral numerics on 200 seeded matrices",
            ok,
            f"worst Frobenius rel err={worst_rel:.1e}, worst |eig|-sigma gap={worst_pair:.1e}",
        )


def test_trace_norm_agrees_with_energy_oracle():
    # spot check tying the norm path to a hand-computable case
    g = cycle(4)
    assert abs(trace_norm(adjacency_matrix(g)) - 4.0) < 1e-12


@pytest.mark.parametrize("kind, m, n, frozen", EXACT_MAXIMA)
def test_bound_holds_without_equality_at_the_exact_maximum(kind, m, n, frozen):
    value, a = exact_maxima(m, n, "zero_diagonal" if kind == "shifted" else "all")[kind, None]
    assert math.isclose(value, frozen, rel_tol=1e-12)
    verdict = check_bound(kind, a)
    assert math.isclose(verdict.lhs, value, rel_tol=1e-12)
    assert verdict.holds and not verdict.equality


@pytest.mark.parametrize("kind, k, m, n, domain, frozen, equality", EXACT_VERDICTS)
def test_bound_verdict_at_the_exact_maximum(kind, k, m, n, domain, frozen, equality):
    value, a = exact_maxima(m, n, domain)[kind, k]
    assert math.isclose(value, frozen, rel_tol=1e-12)
    verdict = check_bound(kind, a, k=k)
    assert math.isclose(verdict.lhs, value, rel_tol=1e-12)
    assert verdict.holds and verdict.equality == equality


def test_exact_maxima_agree_with_mpmath_at_50_digits():
    # each frozen maximum is the left-hand side on its maximizer, recomputed
    # from mpmath singular values at 50 digits
    mpmath = pytest.importorskip("mpmath")
    rows = [
        (kind, None, m, n, "zero_diagonal" if kind == "shifted" else "all", frozen)
        for kind, m, n, frozen in EXACT_MAXIMA
    ] + [row[:6] for row in EXACT_VERDICTS]
    for kind, k, m, n, domain, frozen in rows:
        _, a = exact_maxima(m, n, domain)[kind, k]
        shift = np.eye(m, n) / 2.0 if kind == "shifted" else 0.0
        width = {"opnorm": 1, "kyfan": k, "shifted": n}[kind]
        with mpmath.workdps(50):
            lhs = mpmath.mpf(0)
            for x in (a + shift, 1.0 - a - shift):
                s = mpmath.svd_r(mpmath.matrix(x.tolist()), compute_uv=False)
                lhs += mpmath.fsum(sorted(s, reverse=True)[:width])
        assert math.isclose(float(lhs), frozen, rel_tol=1e-14), (kind, k, m, n, domain)
