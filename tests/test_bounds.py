import math
import re

import numpy as np
import pytest

from normsum import (
    DenseMatrix,
    DomainViolationError,
    Graph,
    KOutOfRangeError,
    MissingParamError,
    SplitMix64,
    adjacency_matrix,
    bound_value,
    check_bound,
    conference_eigenvalues,
    equality_analysis,
    graph6_encode,
    graph_from_edges,
    kyfan_extremal_matrix,
    opnorm_extremal_matrix,
    paley_graph,
    weyl_complement_check,
)
from normsum import bounds, cli, linalg
from normsum.graphs import quadratic_character
from oracles import (
    SRGParams,
    affine_net,
    clebsch_complement,
    complete,
    cycle,
    graph_of,
    intercalates,
    is_conference,
    latin_square_graph,
    net_directions,
    paley_net_classes,
    petersen,
    pgl_equivalent,
    relabeled,
    srg_params,
    triangular,
)


def random_unit_symmetric(rng, n):
    a = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            a[i, j] = a[j, i] = rng.next_double()
    return a


def test_bound_value_closed_forms():
    assert bound_value("main", 9) == 32
    assert bound_value("koolen_moulton", 4) == 6
    assert abs(bound_value("gutman_zhou", 9) - (9 * math.sqrt(2) + 8 * math.sqrt(8))) < 1e-12
    assert bound_value("shifted", 9) == 9 + 8 * 3
    assert abs(bound_value("kyfan", 8, m=8, k=5) - 24) < 1e-12
    assert abs(bound_value("opnorm", 2, m=2) - math.sqrt(8)) < 1e-12


def test_bound_value_validation():
    with pytest.raises(ValueError):
        bound_value("nope", 5)
    with pytest.raises(ValueError):
        bound_value("main", 0)
    with pytest.raises(MissingParamError):
        bound_value("kyfan", 5, k=2)
    with pytest.raises(MissingParamError):
        bound_value("kyfan", 5, m=5)
    with pytest.raises(MissingParamError):
        bound_value("opnorm", 5)
    with pytest.raises(KOutOfRangeError):
        bound_value("kyfan", 5, m=5, k=1)
    with pytest.raises(KOutOfRangeError):
        bound_value("kyfan", 5, m=3, k=4)


def test_bound_value_integer_check():
    for bad in (9.0, True, "9"):
        with pytest.raises(ValueError):
            bound_value("main", bad)
        with pytest.raises(ValueError):
            bound_value("opnorm", 2, m=bad)
        with pytest.raises(KOutOfRangeError):
            bound_value("kyfan", 8, m=8, k=bad)
    assert bound_value("main", np.int64(9)) == 32
    assert bound_value("kyfan", np.int64(8), m=np.int64(8), k=np.int64(5)) == bound_value(
        "kyfan", 8, m=8, k=5
    )


def test_check_main_on_conference_graphs():
    v = check_bound("main", paley_graph(9))
    assert v.holds and v.equality
    assert abs(v.lhs - 32) <= 1e-9 and v.rhs == 32
    v13 = check_bound("main", paley_graph(13))
    assert v13.equality and abs(v13.slack) <= 1e-6


@pytest.mark.parametrize("q", [1009, 2017])
def test_check_main_paley_slack_is_within_a_few_ulps_of_the_bound(q):
    """The 2q singular values are summed exactly rounded; a naive sum left
    -5.4e-10 at q = 1009 and -4.0e-9 at q = 2017."""
    v = check_bound("main", paley_graph(q))
    assert abs(v.slack) <= 8 * np.finfo(float).eps * v.rhs


def test_check_koolen_moulton_and_gutman_zhou_on_paley9():
    km = check_bound("koolen_moulton", paley_graph(9))
    gz = check_bound("gutman_zhou", paley_graph(9))
    assert (km.kind, gz.kind) == ("koolen_moulton", "gutman_zhou")
    assert km.lhs == pytest.approx(16, abs=1e-12) and km.rhs == 18
    assert gz.lhs == pytest.approx(32, abs=1e-12)
    assert gz.rhs == 35.35533905932738 == 9 * math.sqrt(2) + 8 * math.sqrt(8)
    for v in (km, gz):
        assert v.holds and not v.equality
    for kind in ("koolen_moulton", "gutman_zhou"):
        with pytest.raises(DomainViolationError):
            check_bound(kind, np.array([[0, 1.0], [0.5, 0]]))  # asymmetric
        with pytest.raises(DomainViolationError):
            check_bound(kind, np.array([[0.5, 0], [0, 0]]))  # nonzero diagonal


def test_koolen_moulton_meets_its_bound_on_the_clebsch_complement():
    # SRG(16, 10, 6, 6) is an equality case of n(1 + sqrt(n))/2, as is
    # every SRG(n, (n + sqrt n)/2, (n + 2 sqrt n)/4, (n + 2 sqrt n)/4)
    g = graph_of(clebsch_complement())
    assert srg_params(g) == SRGParams(16, 10, 6, 6)
    v = check_bound("koolen_moulton", g)
    assert v.rhs == 40 and v.lhs == pytest.approx(40, abs=1e-12)
    assert v.holds and v.equality


def _fractional_paley(q, eps):
    """The adjacency of P_q with the entries of its first edge, in row order,
    at 1 - eps; for q >= STRUCTURED_MIN_N, as a circulant with every entry at
    that difference at 1 - eps, so that it stays translation invariant."""
    a = adjacency_matrix(paley_graph(q)).array.copy()
    i, j = np.argwhere(a == 1.0)[0]
    if q < linalg.STRUCTURED_MIN_N:
        a[i, j] = a[j, i] = 1.0 - eps
        return a
    d = (np.arange(q)[:, None] - np.arange(q)) % q
    a[(d == j - i) | (d == i - j + q)] = 1.0 - eps
    return a


@pytest.mark.parametrize("q, eps", [(13, 1e-8), (137, 1e-10)])
def test_a_near_conference_matrix_is_no_equality_case(monkeypatch, q, eps):
    # P13 with one symmetric pair at 1 - 1e-8, and P137 with its 137 pairs
    # at one difference at 1 - 1e-10, miss both sums by about 1e-8, inside
    # EQUALITY_TOL: the slack alone cannot tell them from P_q, and the
    # equality case is 0/1. P137's verdicts read row 0 alone
    a = _fractional_paley(q, eps)
    rows = []
    real = bounds.invariant_row
    monkeypatch.setattr(bounds, "invariant_row", lambda mat: rows.append(real(mat)) or rows[-1])
    assert not equality_analysis(a).overall
    for kind in ("main", "shifted"):
        v = check_bound(kind, a)
        assert v.holds and 0.0 < v.slack <= bounds.EQUALITY_TOL and not v.equality
    assert len(rows) == 3 and all((row is None) == (q < linalg.STRUCTURED_MIN_N) for row in rows)
    monkeypatch.undo()
    assert all(check_bound(kind, paley_graph(q)).equality for kind in ("main", "shifted"))


def test_check_main_on_complete_graph():
    v = check_bound("main", complete(9))
    assert abs(v.lhs - 16) <= 1e-9
    assert v.rhs == 32
    assert v.holds and not v.equality


def test_check_main_cycle5_hits_bound():
    # C5 is self-complementary and conference, so equality holds at n = 5 too
    v = check_bound("main", cycle(5))
    assert v.equality


def test_check_main_domain_validation():
    with pytest.raises(DomainViolationError):
        check_bound("main", np.array([[0, 2.0], [2.0, 0]]))  # entries above 1
    with pytest.raises(DomainViolationError):
        check_bound("main", np.array([[0, -0.1], [-0.1, 0]]))
    with pytest.raises(DomainViolationError):
        check_bound("main", np.array([[0.5, 0], [0, 0]]))  # nonzero diagonal
    with pytest.raises(DomainViolationError):
        check_bound("main", np.array([[0, 1.0], [0.5, 0]]))  # asymmetric
    with pytest.raises(DomainViolationError):
        check_bound("main", np.ones((2, 3)))  # not square


def test_check_bound_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="^unknown bound kind 'bogus'; expected one of "):
        check_bound("bogus", adjacency_matrix(paley_graph(5)))


# the checks whose hypotheses include each condition besides entries in [0, 1]
SQUARE_CHECKS = {"koolen_moulton", "main", "gutman_zhou", "shifted", "equality", "weyl"}
SYMMETRIC_CHECKS = {"koolen_moulton", "main", "gutman_zhou", "weyl"}
ALL_CHECKS = SQUARE_CHECKS | {"kyfan", "opnorm"}


def run_check(name, a):
    if name == "equality":
        return equality_analysis(a)
    if name == "weyl":
        return weyl_complement_check(a)
    return check_bound(name, a, k=2 if name == "kyfan" else None)


@pytest.mark.parametrize(
    "a, needed_by, message",
    [
        (np.array([[0, 1.5], [1.5, 0]]), ALL_CHECKS, "entries must lie in [0, 1]"),
        (np.array([[0, -0.5], [-0.5, 0]]), ALL_CHECKS, "entries must lie in [0, 1]"),
        (np.full((2, 3), 0.5), SQUARE_CHECKS, "matrix must be square"),
        (np.array([[0, 1.0], [0.5, 0]]), SYMMETRIC_CHECKS, "asymmetry"),
        (np.array([[0.5, 0.25], [0.25, 0]]), SQUARE_CHECKS, "zero diagonal"),
    ],
)
def test_each_check_raises_exactly_where_its_domain_needs_the_condition(a, needed_by, message):
    for name in sorted(ALL_CHECKS):
        if name in needed_by:
            with pytest.raises(DomainViolationError, match=re.escape(message)):
                run_check(name, a)
        else:
            run_check(name, a)


def test_every_check_tests_its_domain_in_one_order():
    # entries, then square, then symmetric, then zero diagonal
    for name in sorted(ALL_CHECKS):
        with pytest.raises(DomainViolationError, match="entries must lie"):
            run_check(name, np.full((2, 3), 2.0))
    for name in sorted(SYMMETRIC_CHECKS):
        with pytest.raises(DomainViolationError, match="asymmetry"):
            run_check(name, np.array([[0.5, 1.0], [0.0, 0.0]]))
    for name in ("shifted", "equality"):
        with pytest.raises(DomainViolationError, match="zero diagonal"):
            run_check(name, np.array([[0.5, 1.0], [0.0, 0.0]]))


def test_each_matrix_is_built_and_has_its_asymmetry_measured_once(monkeypatch, capsys):
    built, measured = [], []
    real_init, real_asymmetry = DenseMatrix.__init__, DenseMatrix._asymmetry

    def init(mat, data):
        built.append(np.shape(data))
        real_init(mat, data)

    def first_read(mat):
        if mat._asym is None:
            measured.append(mat.shape)
        return real_asymmetry(mat)

    monkeypatch.setattr(DenseMatrix, "__init__", init)
    monkeypatch.setattr(DenseMatrix, "_asymmetry", first_read)
    g = paley_graph(13)
    a = adjacency_matrix(g).array.copy()
    for run, matrices, times in (
        (lambda: check_bound("main", g), 2, 0),  # A, J - I - A
        (lambda: equality_analysis(g), 1, 0),  # A
        (lambda: weyl_complement_check(g), 2, 0),  # A, J - I - A
        (lambda: cli.main(["spectrum", "--paley", "13", "--json"]), 1, 0),  # A
        (lambda: cli.main(["check", "main", "--graph6", graph6_encode(g)]), 2, 0),
        # the same entries as an array: nothing vouches for their symmetry
        (lambda: check_bound("main", a), 2, 1),
        (lambda: weyl_complement_check(a), 2, 1),
    ):
        built.clear()
        measured.clear()
        run()
        # a graph's adjacency is built symmetric and never measured, and
        # J - I - A inherits the exact symmetry of A, so only an array is
        # measured, once
        assert built == [(13, 13)] * matrices and measured == [(13, 13)] * times


def test_check_shifted_allows_asymmetry():
    a = np.array([[0, 0.3, 0.9], [0.8, 0, 0.1], [0.0, 0.4, 0]])
    v = check_bound("shifted", a)
    assert v.holds
    assert v.rhs == 3 + 2 * math.sqrt(3)


def test_check_shifted_random_matrices_hold():
    rng = SplitMix64(12)
    for _ in range(50):
        n = 2 + rng.next_below(11)
        a = random_unit_symmetric(rng, n)
        assert check_bound("shifted", a).holds
        assert check_bound("main", a).holds


def test_check_kyfan_on_extremal():
    v = check_bound("kyfan", kyfan_extremal_matrix(5, 1, 1), k=5)
    assert v.equality and abs(v.lhs - 24) < 1e-8
    with pytest.raises(KOutOfRangeError):
        check_bound("kyfan", np.ones((3, 3)) / 2, k=1)
    with pytest.raises(MissingParamError):
        check_bound("kyfan", np.ones((3, 3)) / 2)


def test_check_opnorm_on_extremal():
    v = check_bound("opnorm", opnorm_extremal_matrix(4, 6, "columns"))
    assert v.equality
    # generic matrices hold strictly
    rng = SplitMix64(8)
    for _ in range(30):
        m, n = 2 + rng.next_below(6), 2 + rng.next_below(6)
        a = np.array([[rng.next_double() for _ in range(n)] for _ in range(m)])
        v = check_bound("opnorm", a)
        assert v.holds


def test_check_kyfan_random_matrices_hold():
    rng = SplitMix64(21)
    for _ in range(40):
        m, n = 3 + rng.next_below(8), 3 + rng.next_below(8)
        a = np.array([[rng.next_double() for _ in range(n)] for _ in range(m)])
        for k in (2, 3):
            assert check_bound("kyfan", a, k=k).holds


def test_verdict_fields_consistent():
    v = check_bound("main", cycle(6))
    assert v.slack == v.rhs - v.lhs
    assert v.holds == (v.slack >= -v.tol)
    assert v.equality == (v.holds and abs(v.slack) <= v.eq_tol)
    assert v.kind == "main" and v.holds is True


def test_equality_analysis_conference():
    for q in (9, 13):
        r = equality_analysis(adjacency_matrix(paley_graph(q)))
        assert r.is_zero_one and r.row_sums_ok and r.col_sums_ok
        assert r.flat_tail_ok and r.conference_spectrum_ok and r.overall


def test_equality_analysis_cycle7():
    r = equality_analysis(adjacency_matrix(cycle(7)))
    assert not r.row_sums_ok  # degree 2, needs 3
    assert not r.overall


def test_equality_analysis_petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    g = graph_from_edges(10, outer + spokes + inner)
    assert not equality_analysis(adjacency_matrix(g)).overall


def test_equality_analysis_non_zero_one_entries():
    n = 5
    a = np.full((n, n), 0.5) - 0.5 * np.eye(n)
    r = equality_analysis(a)
    assert not r.is_zero_one
    # fractional rows still sum to (n-1)/2 here
    assert r.row_sums_ok and r.col_sums_ok
    assert not r.overall


def _two_branch_sum_flags(a):
    """Row and column sum flags as equality_analysis computed them with one
    rule for integral inputs (int64 sums, odd n only) and one for the rest."""
    n = a.shape[0]
    rounded = np.round(a)
    if np.abs(a - rounded).max() <= 1e-12:
        ri = rounded.astype(np.int64)
        return tuple(
            bool(n % 2 == 1 and (2 * ri.sum(axis=ax) == n - 1).all()) for ax in (1, 0)
        )
    return tuple(bool((a.sum(axis=ax) == (n - 1) / 2.0).all()) for ax in (1, 0))


def _sum_flag_cases():
    tournament5 = [[1.0 if (j - i) % 5 in (1, 2) else 0.0 for j in range(5)] for i in range(5)]
    cases = [adjacency_matrix(g).array for g in (
        paley_graph(9), paley_graph(13), cycle(5), cycle(7),
        cycle(6), complete(4), Graph(n=2, bits=0),
        graph_from_edges(6, [(0, 1), (2, 3), (4, 5), (0, 3), (1, 4), (2, 5)]),
    )] + [np.array(tournament5)]  # fmt: skip
    # within 1e-13 of 0/1: still integral
    near = []
    for a in cases[:4] + cases[-1:]:
        off = ~np.eye(len(a), dtype=bool)
        near.append(np.where(off, a - 1e-13 * (2 * a - 1), 0.0))
    # fractional entries, rows summing to exactly (n - 1)/2, odd and even n
    fractional = [(np.ones((n, n)) - np.eye(n)) / 2 for n in (4, 5, 6, 9)]
    quarter = np.zeros((5, 5))
    for i in range(5):
        for d, v in ((1, 0.75), (2, 0.25), (3, 0.75), (4, 0.25)):
            quarter[i, (i + d) % 5] = v
    fractional += [quarter, quarter.T, np.where(quarter == 0.75, 0.7, quarter)]
    return cases + near + fractional


def test_equality_analysis_sum_flags_match_the_two_branch_rule():
    flags = []
    for a in _sum_flag_cases():
        r = equality_analysis(a)
        assert (r.row_sums_ok, r.col_sums_ok) == _two_branch_sum_flags(a)
        flags.append(r.row_sums_ok)
    # both outcomes occur among the integral, near-integral and fractional cases
    assert flags[:9] == [True, True, True, False, False, False, False, False, True]
    assert flags[9:14] == [True, True, True, False, True]
    assert flags[14:] == [True, True, True, True, True, True, False]


def test_equality_analysis_factors_symmetric_input_once(monkeypatch):
    factored = []
    real = linalg.eigh_basis

    def counting(a):
        factored.append(a.shape)
        return real(a)

    monkeypatch.setattr(linalg, "eigh_basis", counting)
    assert equality_analysis(adjacency_matrix(paley_graph(13))).overall
    assert not equality_analysis(adjacency_matrix(cycle(7))).overall
    assert factored == [(13, 13), (7, 7)]

    # a non-symmetric input keeps the SVD of A + I/2: the cyclic tournament
    # on 5 vertices, every out-degree and in-degree 2
    n = 5
    a = np.array([[1.0 if (j - i) % n in (1, 2) else 0.0 for j in range(n)] for i in range(n)])
    factored.clear()
    r = equality_analysis(a)
    assert factored == []
    assert r.is_zero_one and r.row_sums_ok and r.col_sums_ok
    sigma = np.linalg.svd(a + np.eye(n) / 2, compute_uv=False)
    assert r.flat_tail_ok == bool(np.all(np.abs(sigma[1:] - math.sqrt(n) / 2) <= 1e-6))
    assert not r.conference_spectrum_ok


def _circulant(row):
    n = len(row)
    return np.asarray(row)[(np.arange(n)[:, None] - np.arange(n)) % n]


def _invariant_equality_cases():
    p137 = paley_graph(137)
    frac = adjacency_matrix(p137).array[0].copy()
    # one fractional value, at +-1 (squares) and +-3 (nonsquares): the matrix
    # stays symmetric and its rows still sum to 68
    frac[[1, 136, 3, 134]] = 0.5
    complement = Graph(n=137, bits=p137.bits ^ ((1 << p137.pair_count) - 1))
    # C131 has degree 2, where 65 is needed
    return [(cycle(131), False), (_circulant(frac), False), (complement, True)]


@pytest.mark.parametrize("case", range(3))
def test_equality_analysis_reads_an_invariant_input_from_row_0(monkeypatch, case):
    obj, overall = _invariant_equality_cases()[case]
    rows = []
    real = bounds.invariant_row

    def spy(mat):
        rows.append(real(mat))
        return rows[-1]

    monkeypatch.setattr(bounds, "invariant_row", spy)
    fast = equality_analysis(obj)
    assert len(rows) == 1 and rows[0] is not None  # the row-0 path ran
    monkeypatch.setattr(bounds, "invariant_row", lambda mat: None)
    assert fast == equality_analysis(obj)  # the report of the full array
    assert fast.overall == overall
    assert fast.is_zero_one == (case != 1) and fast.row_sums_ok == fast.col_sums_ok == (case != 0)


def test_equality_implies_shifted_equality():
    for q in (9, 13):
        a = adjacency_matrix(paley_graph(q))
        r = equality_analysis(a, tol=1e-6)
        assert r.overall
        v = check_bound("shifted", a)
        assert abs(v.slack) <= 10 * 1e-6


def paley_tournament(q):
    """T[u, v] = 1 iff u - v is a nonzero square of GF(q), q = 3 (mod 4)."""
    return (quadratic_character(q) == 1).astype(float)


@pytest.mark.parametrize("q", [3, 7, 11, 19, 23, 27, 31, 43])
def test_paley_tournaments_meet_the_shifted_bound_in_both_checks(q):
    t = paley_tournament(q)
    r = equality_analysis(t)
    assert r.overall and not r.conference_spectrum_ok
    assert check_bound("shifted", t).equality
    # one reversed arc breaks both: two row sums move off (q - 1)/2
    u, v = np.argwhere(t == 1)[0]
    t[u, v], t[v, u] = 0.0, 1.0
    r = equality_analysis(t)
    assert not r.overall and not r.row_sums_ok and not r.flat_tail_ok
    assert not check_bound("shifted", t).equality


def test_overall_is_the_four_flags_and_leaves_out_the_conference_spectrum():
    # the one-vertex graph meets the shifted bound at 1 = 1
    r = equality_analysis(np.zeros((1, 1)))
    assert r.overall and not r.conference_spectrum_ok
    assert check_bound("shifted", np.zeros((1, 1))).equality
    for a in _sum_flag_cases() + [paley_tournament(7)]:
        r = equality_analysis(a)
        assert r.overall == (r.is_zero_one and r.row_sums_ok and r.col_sums_ok and r.flat_tail_ok)


def test_equality_analysis_domain():
    with pytest.raises(DomainViolationError):
        equality_analysis(np.ones((3, 3)))  # nonzero diagonal
    with pytest.raises(DomainViolationError):
        equality_analysis(np.ones((2, 3)) * 0.5)


def test_conference_eigenvalues_guard():
    with pytest.raises(ValueError):
        conference_eigenvalues(8)
    vals = conference_eigenvalues(9)
    assert vals[0] == 4 and len(vals) == 9


def test_weyl_empty_graph_margins_zero():
    r = weyl_complement_check(Graph(n=6, bits=0))
    assert r.ok
    assert len(r.margins) == 5
    assert max(abs(m) for m in r.margins) <= 1e-12


def test_weyl_conference_margins_zero():
    r = weyl_complement_check(paley_graph(9))
    assert r.ok
    assert max(abs(m) for m in r.margins) <= 1e-9


def test_weyl_random_graphs():
    rng = SplitMix64(77)
    for _ in range(50):
        n = 4 + rng.next_below(9)
        g = Graph(n=n, bits=rng.next_bits(n * (n - 1) // 2))
        r = weyl_complement_check(g)
        assert r.ok
        assert all(m <= r.tol for m in r.margins)


def test_weyl_domain():
    with pytest.raises(DomainViolationError):
        weyl_complement_check(np.array([[0, 1.0], [0.5, 0]]))


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
def test_every_check_rejects_a_bad_tolerance(tol):
    g = paley_graph(9)
    for check in (
        lambda: check_bound("main", g, tol=tol),
        lambda: check_bound("kyfan", np.eye(3), k=2, tol=tol),
        lambda: equality_analysis(g, tol=tol),
        lambda: weyl_complement_check(g, tol=tol),
    ):
        with pytest.raises(ValueError, match="^tol must be finite and nonnegative"):
            check()


def test_zero_tolerance_is_allowed():
    v = check_bound("main", cycle(5), tol=0)
    assert v.tol == 0.0 and v.eq_tol == 1e-6
    assert weyl_complement_check(Graph(n=4, bits=0), tol=0).tol == 0.0


def test_main_improves_on_gutman_zhou():
    for n in range(7, 101):
        assert bound_value("main", n) < bound_value("gutman_zhou", n)


def test_check_bound_takes_k_only_for_kyfan():
    g = paley_graph(9)
    for kind in ("koolen_moulton", "main", "gutman_zhou", "shifted", "opnorm"):
        message = f"^k applies only to bound kind 'kyfan', got k=3 for '{kind}'$"
        with pytest.raises(ValueError, match=message):
            check_bound(kind, g, k=3)
    assert check_bound("kyfan", kyfan_extremal_matrix(3, 1, 1), k=3).equality


# ---------------------------------------------------------------------------
# Conference graphs beyond Paley: nets of AG(2, q)

# slopes 0..6 of AG(2, 13): seven of the fourteen parallel classes, so a
# conference graph, and not a GL(2, 13) image of the Paley graph's classes
NET_CLASSES = tuple(range(7))


def test_the_net_classes_are_not_paleys():
    directions = net_directions(13)
    # each point sees the other 12 points of its line in each of 14 directions
    assert np.array_equal(directions, directions.T)
    assert all(((directions == m).sum(axis=1) == 12).all() for m in range(14))
    paley = paley_net_classes(13)
    assert len(paley) == len(NET_CLASSES) == 7
    assert np.array_equal(affine_net(13, paley), adjacency_matrix(paley_graph(169)).array == 1)
    assert pgl_equivalent(13, paley, paley) and not pgl_equivalent(13, NET_CLASSES, paley)


# an order-5 Latin square outside the main class of Z_5's table; its graph is
# SRG(25, 12, 5, 6), a conference graph that is not Paley's
LATIN5 = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 3, 4, 0, 1), (3, 4, 1, 2, 0), (4, 2, 0, 1, 3))


def test_the_latin_square_is_not_the_cyclic_class():
    square, cyclic = np.array(LATIN5), np.add.outer(range(5), range(5)) % 5
    for s in (square, cyclic):
        assert all(sorted(line) == list(range(5)) for line in (*s, *s.T))
    # x + y = x' + y' and x + y' = x' + y force y = y' mod 5: no intercalate
    assert intercalates(cyclic) == 0 and intercalates(square) == 4


def _net_cases():
    net = affine_net(13, NET_CLASSES)
    flipped_pair = relabeled(net, 3)
    flipped_pair[0, 1] = flipped_pair[1, 0] = not flipped_pair[0, 1]
    cases = [
        ("net", net, True),  # invariant: the character path
        ("relabeled net", relabeled(net, 3), True),
        ("relabeled Paley net", relabeled(affine_net(13, paley_net_classes(13)), 4), True),
        ("relabeled net q=7", relabeled(affine_net(7, (0, 1, 2, 5)), 5), True),
        ("Latin square", latin_square_graph(LATIN5), True),
        ("eight classes", relabeled(affine_net(13, range(8)), 6), False),
        ("flipped pair", flipped_pair, False),
        ("T(7)", triangular(7), False),  # degree (n - 1)/2, spectrum not
        ("Petersen", adjacency_matrix(petersen()).array == 1, False),
    ]
    return [pytest.param(adj, conference, id=name) for name, adj, conference in cases]


@pytest.mark.parametrize("adj, conference", _net_cases())
def test_equality_verdicts_on_nets_agree_with_the_conference_test(adj, conference):
    g = graph_of(adj)
    assert is_conference(g) == conference
    pair = linalg.SpectrumPair(adjacency_matrix(g), graph=True)
    verdict, report = check_bound("main", pair), equality_analysis(pair)
    assert verdict.holds and verdict.equality == conference
    assert report.overall == report.conference_spectrum_ok == conference
    # Weyl's inequality holds on every graph, so its `ok` cannot single out
    # the conference graphs; it does hold on each case
    assert weyl_complement_check(pair).ok


def test_a_relabeled_net_derives_its_partner_from_a_single_root(monkeypatch):
    sizes = []
    real = linalg._secular_roots
    monkeypatch.setattr(linalg, "_secular_roots", lambda d, w: sizes.append(d.size) or real(d, w))
    net = relabeled(affine_net(13, NET_CLASSES), 3)
    pair = linalg.SpectrumPair(adjacency_matrix(graph_of(net)), graph=True)
    assert check_bound("main", pair).equality
    # z = Q^T 1 lies on the eigenvector 1 of the regular graph: one root
    assert sizes == [1] and pair.eig(1).values[0] == pytest.approx(84.0, abs=1e-12)
