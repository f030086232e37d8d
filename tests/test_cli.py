import argparse
import hashlib
import json
import math
import re
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

from normsum import (
    BoundVerdict,
    DomainViolationError,
    Graph,
    SplitMix64,
    adjacency_matrix,
    check_bound,
    cli,
    graph6_encode,
    ky_fan_norm,
    linalg,
    paley_graph,
    search,
)
from normsum.bounds import EQUALITY_TOL, HOLD_TOL
from normsum.cli import format_float, main, render_json


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv + ["--json"])
    assert code in (0, 1), err
    return code, json.loads(out)


def test_construct_paley_graph6(capsys):
    code, out, err = run(capsys, ["construct", "paley", "5", "--format", "graph6"])
    assert code == 0
    assert out.strip() == "Dhc"


def test_construct_paley_json(capsys):
    code, rep = run_json(capsys, ["construct", "paley", "13"])
    assert code == 0
    assert rep["command"] == "construct paley"
    assert rep["inputs"]["order"] == 13
    assert rep["results"]["n"] == 13
    assert rep["results"]["edge_count"] == 39
    assert rep["tool_version"]
    assert isinstance(rep["elapsed_ms"], int)


def test_construct_hadamard_csv(capsys):
    code, out, err = run(capsys, ["construct", "hadamard", "2", "--csv"])
    assert code == 0
    assert out.strip().splitlines() == ["1,1", "1,-1"]


def test_construct_hadamard_graph6_rejected(capsys):
    code, out, err = run(capsys, ["construct", "hadamard", "4", "--format", "graph6"])
    assert code == 2
    assert "graph6" in err


def test_construct_kyfan_extremal(capsys):
    code, rep = run_json(capsys, ["construct", "kyfan-extremal", "3", "--q", "2"])
    assert code == 0
    r = rep["results"]
    assert (r["rows"], r["cols"]) == (4, 8)
    flat = r["matrix"]["entries"]
    assert set(flat) <= {0, 1}


def test_construct_opnorm_extremal(capsys):
    code, rep = run_json(
        capsys, ["construct", "opnorm-extremal", "2", "6", "--orientation", "columns"]
    )
    assert code == 0
    assert rep["results"]["rows"] == 2 and rep["results"]["cols"] == 6


def test_check_main_conference_equality(capsys):
    code, rep = run_json(capsys, ["check", "main", "--paley", "9"])
    assert code == 0
    r = rep["results"]
    assert r["kind"] == "main"
    assert abs(r["lhs"] - 32) < 1e-9
    assert r["rhs"] == 32
    assert r["holds"] is True and r["equality"] is True
    assert rep["inputs"]["paley"] == 9


def test_check_main_paley_past_the_cap_exits_2(capsys):
    code, out, err = run(capsys, ["check", "main", "--paley", "4129", "--json"])
    assert code == 2
    assert out == ""
    assert "dimension cap 4096" in err


def test_tol_help_names_both_defaults():
    shown = re.findall(r"\d+e-\d+", cli._RUN_FLAGS["tol"]["help"])
    assert [float(t) for t in shown] == [HOLD_TOL, EQUALITY_TOL]


def test_check_outputs_are_reproducible(capsys):
    argv = ["check", "main", "--paley", "13", "--json"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    strip = lambda s: re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', s)
    assert strip(out1) == strip(out2)


def test_json_floats_use_17_digits(capsys):
    code, out, err = run(capsys, ["check", "shifted", "--paley", "13", "--json"])
    assert code == 0
    rhs = 13 + 12 * math.sqrt(13)
    assert f'"rhs": {format(rhs, ".17g")}' in out
    # and integral floats render without a decimal point
    assert '"rhs": 32' in run(capsys, ["check", "main", "--paley", "9", "--json"])[1]


def test_check_kyfan_witness_flags(capsys):
    code, rep = run_json(capsys, ["check", "kyfan", "--order", "3"])
    assert code == 0
    r = rep["results"]
    assert r["equality"] is True
    assert abs(r["lhs"] - r["rhs"]) < 1e-8


def test_check_opnorm_witness_flags(capsys):
    code, rep = run_json(
        capsys,
        ["check", "opnorm", "--rows", "4", "--cols", "6", "--orientation", "rows"],
    )
    assert code == 0
    assert rep["results"]["equality"] is True


def test_check_equality_report(capsys):
    code, rep = run_json(capsys, ["check", "equality", "--paley", "13"])
    assert code == 0
    r = rep["results"]
    assert r["overall"] is True and r["conference_spectrum_ok"] is True


@pytest.mark.parametrize("kind", ["koolen_moulton", "gutman_zhou"])
def test_check_comparison_kinds(capsys, tmp_path, kind):
    rng = SplitMix64(23)
    g = Graph(n=12, bits=rng.next_bits(66))
    for source, obj in ((["--paley", "9"], paley_graph(9)), (["--graph6", graph6_encode(g)], g)):
        code, rep = run_json(capsys, ["check", kind] + source)
        assert code == 0
        assert rep["results"] == check_bound(kind, obj).to_json()
    # a nonsymmetric matrix is outside both bounds' domain
    path = tmp_path / "m.csv"
    path.write_text("0,1\n0,0\n", encoding="utf-8")
    with pytest.raises(DomainViolationError) as exc:
        check_bound(kind, np.array([[0.0, 1.0], [0.0, 0.0]]))
    code, out, err = run(capsys, ["check", kind, "--matrix", str(path)])
    assert code == 2 and out == ""
    assert err == f"error: {exc.value}\n"


def test_check_weyl(capsys):
    code, rep = run_json(capsys, ["check", "weyl", "--graph6", "Dhc"])
    assert code == 0
    assert rep["results"]["ok"] is True
    assert len(rep["results"]["margins"]) == 4


def test_check_csv(capsys):
    code, out, err = run(capsys, ["check", "main", "--paley", "9", "--csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "kind,lhs,rhs,slack,holds,equality"
    assert lines[1].startswith("main,") and lines[1].endswith("True,True")


def test_check_text_default(capsys):
    code, out, err = run(capsys, ["check", "main", "--paley", "5"])
    assert code == 0
    assert "kind: main" in out
    assert "holds: True" in out


def test_violated_bound_exits_one(capsys, monkeypatch):
    import normsum.cli as cli

    fake = BoundVerdict(
        kind="main", lhs=99.0, rhs=32.0, slack=-67.0, holds=False,
        equality=False, tol=1e-7, eq_tol=1e-6,
    )
    monkeypatch.setattr(cli, "check_bound", lambda *a, **kw: fake)
    code, out, err = run(capsys, ["check", "main", "--paley", "9", "--json"])
    assert code == 1
    assert '"holds": false' in out


def test_weyl_violation_exits_one(capsys, monkeypatch):
    import normsum.cli as cli
    from normsum.bounds import WeylReport

    fake = WeylReport(ok=False, margins=(0.5,), tol=1e-7)
    monkeypatch.setattr(cli, "weyl_complement_check", lambda *a, **kw: fake)
    code, out, err = run(capsys, ["check", "weyl", "--graph6", "A_", "--json"])
    assert code == 1


def test_domain_errors_exit_two(capsys):
    code, _, err = run(capsys, ["check", "main", "--paley", "7", "--json"])
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, ["construct", "hadamard", "6"])
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, ["norms"])  # no input source
    assert code == 2 and "input source" in err
    code, _, err = run(capsys, ["norms", "--paley", "5", "--graph6", "Dhc"])
    assert code == 2
    code, _, err = run(capsys, ["check", "main", "--matrix", "/nonexistent/m.json"])
    assert code == 2
    code, _, err = run(capsys, ["sweep", "--trials", "2", "--kinds", "bogus"])
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "main", "--paley", "9", "--tol", "nan"],
        ["check", "main", "--paley", "9", "--tol", "-1"],
        ["check", "weyl", "--paley", "9", "--tol", "inf"],
        ["check", "equality", "--paley", "9", "--tol", "nan"],
        ["sweep", "--trials", "2", "--tol", "nan"],
    ],
)
def test_bad_tolerance_exits_two(capsys, argv):
    code, out, err = run(capsys, argv + ["--json"])
    assert code == 2 and out == ""
    assert err.startswith("error: tol must be finite and nonnegative")


def test_infinite_start_temperature_exits_two(capsys):
    # the report would echo "t0": null and could not reproduce its own run
    code, out, err = run(capsys, ["search", "local", "--n", "6", "--t0", "inf", "--json"])
    assert code == 2 and out == ""
    assert err.startswith("error: temperature_initial must be finite and nonnegative")


def test_unwritable_out_exits_two(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, ["check", "main", "--paley", "9", "--json", "--out", str(target)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "x.json" in err
    assert not target.exists()


def test_edges_past_the_cap_exits_two(capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 10**6, "edges": []}))
    code, out, err = run(capsys, ["check", "main", "--edges", str(path), "--json"])
    assert code == 2 and out == ""
    assert "exceeds the dimension cap 4096" in err


def test_sweep_past_the_cap_exits_two_before_the_first_draw(capsys, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("a sample was drawn before the order was checked")

    monkeypatch.setattr(search, "SplitMix64", no_draw)
    for kind in ("main_matrix", "main"):
        argv = ["sweep", "--trials", "1", "--n-min", "4", "--n-max", "4097", "--kinds", kind]
        code, out, err = run(capsys, argv + ["--json"])
        assert code == 2 and out == ""
        assert err == "error: sweep order 4097 exceeds the dimension cap 4096\n"


PAIRS = "graph JSON field 'edges' must be a list of [i, j] pairs"


@pytest.mark.parametrize(
    "flag, obj, message",
    [
        ("--edges", [1, 2], "graph JSON must be an object, got list"),
        ("--edges", {"n": 3, "edges": 5}, PAIRS),
        ("--edges", {"n": 3, "edges": [1, 2]}, PAIRS),
        ("--matrix", {"rows": 2, "cols": 2, "entries": 5}, "matrix entries must be a list, got int"),
        # no silent casts: a string or a bool is not an entry
        ("--matrix", {"rows": 2, "cols": 2, "entries": "0110"}, "matrix entries must be a list, got str"),
        ("--matrix", {"rows": 2, "cols": 2, "entries": ["1", True, 0, 0]}, "matrix entries must be numbers, got str"),
        ("--matrix", {"rows": 2, "cols": 2, "entries": [0, True, 1, 0]}, "matrix entries must be numbers, got bool"),
    ],
)  # fmt: skip
def test_malformed_input_json_exits_two(capsys, tmp_path, flag, obj, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    for command in (["check", "main"], ["norms"]):
        code, out, err = run(capsys, [*command, flag, str(path), "--json"])
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"


def test_spectrum_near_the_float_maximum_warns_nothing(capsys, tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("0,1e308\n1e308,0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["spectrum", "--matrix", str(path), "--json"])
    assert code == 0 and err == ""
    results = json.loads(out)["results"]
    assert results["eigenvalues"] == [1e308, -1e308]
    assert results["singular_values"] == [1e308, 1e308]


def test_overflowing_norm_exits_two(capsys, tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("0,1e308\n1e308,0\n")
    with np.errstate(over="ignore"):
        code, out, err = run(capsys, ["norms", "--matrix", str(path), "--json"])
    assert code == 2 and out == "" and "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["kyfan", "--order", "3", "--paley", "5"],
        ["opnorm", "--rows", "2", "--cols", "2", "--orientation", "rows", "--graph6", "Dhc"],
        ["main", "--order", "3", "--paley", "5"],
        ["weyl", "--rows", "2", "--cols", "2", "--orientation", "rows", "--graph6", "Dhc"],
        ["opnorm", "--order", "3", "--rows", "2", "--cols", "2", "--orientation", "rows"],
        ["kyfan", "--p", "2", "--paley", "5"],
        ["kyfan", "--q", "2"],
        ["opnorm", "--cols", "2", "--paley", "5"],
        ["opnorm", "--orientation", "rows"],
    ],
)
def test_witness_flags_count_as_an_input_source(capsys, argv):
    code, out, err = run(capsys, ["check", *argv, "--json"])
    assert code == 2 and out == "" and "input source" in err


def test_sweep_without_kinds_exits_two(capsys):
    code, out, err = run(capsys, ["sweep", "--trials", "2", "--kinds", ",", "--json"])
    assert code == 2 and out == "" and "nonempty" in err


def test_sweep_with_a_repeated_kind_exits_two(capsys, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("a sample was drawn before the kinds were checked")

    monkeypatch.setattr(search, "SplitMix64", no_draw)
    code, out, err = run(capsys, ["sweep", "--trials", "2", "--kinds", "main,main", "--json"])
    assert code == 2 and out == ""
    assert err.startswith("error: sweep kinds must be nonempty, distinct") and "'main', 'main'" in err


def test_json_csv_conflict(capsys):
    code, _, err = run(capsys, ["check", "main", "--paley", "9", "--json", "--csv"])
    assert code == 2
    assert "mutually exclusive" in err


def test_usage_error_exit_code(capsys):
    assert main(["check", "nonsense", "--paley", "9"]) == 2
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()



def _leaf_parsers(parser, path=()):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(path), parser
        return
    for name, sub in subs[0].choices.items():
        yield from _leaf_parsers(sub, path + (name,))


def test_each_subcommand_takes_only_the_run_flags_it_reads(capsys):
    run_flags = {
        leaf: [f for f in ("--tol", "--seed", "--threads") if f in p._option_string_actions]
        for leaf, p in _leaf_parsers(cli.build_parser())
    }
    assert run_flags == {
        "construct paley": [],
        "construct hadamard": [],
        "construct kyfan-extremal": [],
        "construct opnorm-extremal": [],
        "spectrum": [],
        "norms": [],
        "check": ["--tol"],
        "search exhaustive": ["--threads"],
        "search local": ["--seed", "--threads"],
        "sweep": ["--tol", "--seed"],
    }
    for _, p in _leaf_parsers(cli.build_parser()):
        for flag in ("--format", "--json", "--csv", "--out"):
            assert flag in p._option_string_actions
    code, _, err = run(capsys, ["construct", "paley", "5", "--threads", "2"])
    assert code == 2 and "--threads" in err
    _, payload = run_json(capsys, ["check", "main", "--paley", "9", "--tol", "1e-6"])
    assert payload["inputs"] == {"kind": "main", "paley": 9, "tol": 1e-6}

def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, err = run(
        capsys, ["check", "main", "--paley", "9", "--json", "--out", str(target)]
    )
    assert code == 0
    assert out == ""
    rep = json.loads(target.read_text())
    assert rep["results"]["equality"] is True


def test_norms_graph(capsys):
    code, rep = run_json(capsys, ["norms", "--paley", "13", "--k", "2"])
    assert code == 0
    r = rep["results"]
    assert abs(r["trace_sum"] - 12 * (1 + math.sqrt(13))) < 1e-9
    assert abs(r["trace_norm"] - r["complement_trace_norm"]) < 1e-9
    assert abs(r["operator_norm"] - 6) < 1e-9
    assert r["ky_fan_norm"] < r["trace_norm"]
    # the CLI sums the singular values exactly as the library does
    assert r["trace_norm"] == linalg.trace_norm(adjacency_matrix(paley_graph(13)))


def test_norms_matrix_file_json(tmp_path, capsys):
    path = tmp_path / "mat.json"
    path.write_text(json.dumps({"rows": 2, "cols": 2, "entries": [0, 1, 1, 0]}))
    code, rep = run_json(capsys, ["norms", "--matrix", str(path)])
    assert code == 0
    assert abs(rep["results"]["trace_norm"] - 2) < 1e-12


def test_norms_matrix_file_csv(tmp_path, capsys):
    path = tmp_path / "mat.csv"
    path.write_text("0,0.5\n0.5,0\n")
    code, rep = run_json(capsys, ["norms", "--matrix", str(path)])
    assert code == 0
    assert abs(rep["results"]["operator_norm"] - 0.5) < 1e-12


def test_spectrum_graph_and_edges_file(tmp_path, capsys):
    code, rep = run_json(capsys, ["spectrum", "--graph6", "Dhc"])
    assert code == 0
    vals = rep["results"]["eigenvalues"]
    assert abs(vals[0] - 2) < 1e-9

    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 5, "edges": [[i, (i + 1) % 5] for i in range(5)]}))
    code2, rep2 = run_json(capsys, ["spectrum", "--edges", str(path)])
    assert rep2["results"]["eigenvalues"] == vals


def test_spectrum_asymmetric_has_no_eigenvalues(tmp_path, capsys):
    path = tmp_path / "rect.csv"
    path.write_text("0,1,0\n1,0,1\n")
    code, rep = run_json(capsys, ["spectrum", "--matrix", str(path)])
    assert code == 0
    assert "eigenvalues" not in rep["results"]
    assert len(rep["results"]["singular_values"]) == 2


def test_spectrum_csv(capsys):
    code, out, err = run(capsys, ["spectrum", "--graph6", "Dhc", "--csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,eigenvalue,singular_value"
    assert len(lines) == 6


def test_search_exhaustive_cli(capsys):
    code, rep = run_json(capsys, ["search", "exhaustive", "--n", "3"])
    assert code == 0
    r = rep["results"]
    assert abs(r["best_value"] - (2 + 2 * math.sqrt(2))) < 1e-9
    assert r["evaluations"] == 8
    assert all(isinstance(w, str) for w in r["witnesses"])


def test_search_local_cli(capsys):
    code, rep = run_json(
        capsys,
        ["search", "local", "--n", "5", "--restarts", "4", "--steps", "200", "--seed", "5"],
    )
    assert code == 0
    r = rep["results"]
    assert r["method"] == "local" and r["seed"] == 5
    assert abs(r["best_value"] - 4 * (1 + math.sqrt(5))) < 1e-6


def test_sweep_cli(capsys):
    code, rep = run_json(
        capsys,
        ["sweep", "--trials", "5", "--kinds", "main,shifted", "--seed", "3",
         "--n-min", "3", "--n-max", "6"],
    )
    assert code == 0
    assert rep["results"]["total_violations"] == 0
    assert [r["kind"] for r in rep["results"]["results"]] == ["main", "shifted"]


def test_sweep_csv(capsys):
    code, out, err = run(
        capsys, ["sweep", "--trials", "3", "--kinds", "main", "--csv"]
    )
    assert code == 0
    assert out.splitlines()[0] == "kind,trials,passes,violations,worst_slack"


def test_format_float_rules():
    assert format_float(32.0) == "32"
    assert format_float(-5.0) == "-5"
    assert format_float(float("nan")) == "null"
    assert format_float(float("inf")) == "null"
    val = 1 / 3
    assert format_float(val) == format(val, ".17g")
    assert float(format_float(val)) == val


def _two_branch_format_float(x: float) -> str:
    """The earlier float rule, kept as the oracle of the one-formula form."""
    if not math.isfinite(x):
        return "null"
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return format(x, ".17g")


FLOAT_EDGES = [0.0, -0.0, 1.0, -1.0, 0.5, 1e16, -1e16, 1e16 - 2, 1e16 + 2, 1e17, 2.0**53,
               -(2.0**53), 2.0**53 + 2, 9999999999999998.0, 5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, 1 / 3, 123456789012345.67, float("nan"), float("inf"),
               float("-inf")]  # fmt: skip


@pytest.mark.parametrize("x", FLOAT_EDGES)
def test_format_float_matches_the_two_branch_rule_on_edges(x):
    assert format_float(x) == _two_branch_format_float(x)


def test_format_float_matches_the_two_branch_rule_on_bit_patterns():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=1000, deadline=None, derandomize=True, database=None)
    @hypothesis.given(hypothesis.strategies.integers(min_value=0, max_value=(1 << 64) - 1))
    def check(bits):
        x = struct.unpack("<d", bits.to_bytes(8, "little"))[0]
        assert format_float(x) == _two_branch_format_float(x)

    check()


def test_format_float_matches_the_two_branch_rule_on_seeded_bit_patterns():
    words = SplitMix64(2024).next_bits(64 * 50000).to_bytes(8 * 50000, "little")
    for x in np.frombuffer(words, dtype="<f8").tolist():
        assert format_float(x) == _two_branch_format_float(x)


def _generic_list(items, indent: int) -> str:
    """A list rendered item by item, as render_json does for mixed lists."""
    pad = "  " * indent
    inner = ",\n".join(f"{pad}  {render_json(v, indent + 1)}" for v in items)
    return "[\n" + inner + "\n" + pad + "]"


@pytest.mark.parametrize(
    "items",
    [
        [0.25, -0.0, 3.0, 1e16, 1 / 3],
        [0.25, 1, 2.0],
        [0.25, np.float64(0.5), 2.0],
        [np.float64(0.5), np.float64(-0.0)],
        [0.25, float("nan"), 2.0],
        [float("inf"), -0.0],
        [1e308, 1e308],
        [0.25, None, -0.0],
        (0.5, -0.0),
    ],
)
def test_render_json_float_lists_match_the_generic_path(items):
    for indent in (0, 2):
        assert render_json(items, indent) == _generic_list(items, indent)
    assert json.loads(render_json({"a": {"b": items}}))["a"]["b"] == [
        None if isinstance(v, float) and not math.isfinite(v) else v for v in items
    ]


def test_render_json_float_lists_match_the_generic_path_on_random_lists():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    item = st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.integers(min_value=-(1 << 60), max_value=1 << 60),
        st.floats(allow_nan=False).map(np.float64),
        st.none(),
    )

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.one_of(st.lists(st.floats(), min_size=1), st.lists(item, min_size=1)))
    def check(items):
        assert render_json(items, 1) == _generic_list(items, 1)

    check()


@pytest.mark.parametrize(
    "argv",
    [f"construct hadamard {n}" for n in (1, 2, 4, 8, 12, 16, 20, 24, 28, 32)]
    + [
        "construct kyfan-extremal 5 --p 2 --q 3",
        "construct opnorm-extremal 4 3 --orientation rows",
    ],
)
def test_construct_csv_matches_the_per_entry_rule(capsys, argv):
    code, out, _ = run(capsys, argv.split() + ["--csv"])
    assert code == 0
    code, rep = run_json(capsys, argv.split())
    m = rep["results"]["matrix"]
    rows = np.reshape(m["entries"], (m["rows"], m["cols"]))
    expected = "\n".join(",".join(format_float(float(x)) for x in row) for row in rows)
    assert out == expected + "\n"


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            "sweep --trials 3 --n-min 2 --n-max 32 --seed 7 --json",
            "c1c99cd91df9fc9c31dd2b8f29482b8dd355ff5a7079747371f99da4b8832b42",
        ),
        (
            "construct hadamard 32 --json",
            "389be649acf5527acce152ae4d37dc4566f42c20aaf7d6f9ee70c04d573261a2",
        ),
    ],
)
def test_json_output_bytes_are_frozen(capsys, argv, digest):
    code, out, _ = run(capsys, argv.split())
    assert code == 0
    stripped = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out)
    assert hashlib.sha256(stripped.encode()).hexdigest() == digest


def test_render_json_shapes():
    obj = {"a": 1, "b": [1.5, None, True], "c": {"d": "x"}, "e": []}
    text = render_json(obj)
    assert json.loads(text) == {"a": 1, "b": [1.5, None, True], "c": {"d": "x"}, "e": []}
    with pytest.raises(TypeError):
        render_json({"bad": object()})


def test_threads_auto_respects_cpu_affinity(monkeypatch):
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    assert cli._threads(argparse.Namespace(threads="auto")) == 3
    monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    assert cli._threads(argparse.Namespace(threads="auto")) == 64


def test_norms_factors_each_matrix_once(capsys, monkeypatch):
    factored = []
    real = linalg._certified_eigh

    def counting(a):
        factored.append(a.shape)
        return real(a)

    monkeypatch.setattr(linalg, "_certified_eigh", counting)
    code, rep = run_json(capsys, ["norms", "--paley", "13", "--k", "3"])
    assert code == 0
    assert factored == [(13, 13), (13, 13)]  # the graph and its complement
    r = rep["results"]
    assert r["ky_fan_norm"] == ky_fan_norm(adjacency_matrix(paley_graph(13)), 3)


def test_spectrum_factors_symmetric_input_once(capsys, monkeypatch):
    factored = []
    real = linalg._certified_eigh

    def counting(a):
        factored.append(a.shape)
        return real(a)

    monkeypatch.setattr(linalg, "_certified_eigh", counting)
    code, rep = run_json(capsys, ["spectrum", "--paley", "13"])
    assert code == 0
    assert factored == [(13, 13)]
    r = rep["results"]
    a = adjacency_matrix(paley_graph(13))
    eig, sing = linalg.sym_eigen(a), linalg.svd(a)
    assert r["eigenvalues"] == list(eig.values)
    assert r["eigen_residual"] == eig.offdiag_residual
    assert r["singular_values"] == list(sing.values)
    assert r["svd_residual"] == sing.residual


def test_reused_parser_gives_the_output_of_a_fresh_one(capsys):
    calls = [
        ["check", "main", "--paley", "x"],  # parse error: usage on stderr, exit 2
        ["norms", "--paley", "13", "--k", "2", "--json"],
        ["construct", "paley", "5", "--format", "graph6"],
        ["search", "exhaustive", "--n", "3", "--json"],
    ]
    strip = lambda s: re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', s)

    def outputs():
        code, out, err = run(capsys, argv)
        return code, strip(out), err

    reused = []
    for argv in calls:
        reused.append(outputs())
    assert cli._parser() is cli._parser()
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(outputs())
    assert reused == fresh
    assert [c[0] for c in reused] == [2, 0, 0, 0]


def test_importing_the_cli_builds_no_parser():
    probe = "import normsum.cli as c; print(c._parser.cache_info().currsize)"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "0"


def test_parser_reads_the_library_constants():
    from normsum.search import OBJECTIVES, SWEEP_KINDS, SearchConfig

    parser = cli.build_parser()
    local = parser.parse_args(["search", "local", "--n", "4"])
    cfg = SearchConfig()
    assert (local.restarts, local.steps, local.t0, local.cooling) == (
        cfg.restarts,
        cfg.max_steps,
        cfg.temperature_initial,
        cfg.cooling,
    )
    assert parser.parse_args(["sweep", "--trials", "1"]).kinds == ",".join(SWEEP_KINDS)
    for mode in ("exhaustive", "local"):
        for objective in OBJECTIVES:
            args = parser.parse_args(["search", mode, "--n", "4", "--objective", objective])
            assert args.objective == objective


def _error_lines(err):
    return [line for line in err.splitlines() if "error:" in line]


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "main", "--paley", "1_3", "--json"],
        ["sweep", "--trials", "1_0", "--n-max", "5", "--kinds", "main"],
        ["search", "exhaustive", "--n", "3", "--threads", "1_0"],
        ["construct", "paley", "١٣"],  # 13 in Arabic-Indic digits
        ["search", "local", "--n", "4", "--t0", "1_0.0"],
    ],
)
def test_numbers_on_the_command_line_are_ascii_without_separators(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert len(_error_lines(err)) == 1


def test_every_numeric_flag_reads_numbers_strictly():
    strict = 0
    for leaf, p in _leaf_parsers(cli.build_parser()):
        for action in p._actions:
            assert action.type not in (int, float), (leaf, action.dest)
            if action.type in (cli._int, cli._float):
                strict += 1
                for bad in ("1_0", "١"):
                    with pytest.raises(ValueError, match="^invalid (int|float) value: "):
                        action.type(bad)
    assert strict == 32  # numeric flags and positionals, over all leaf parsers
    assert cli._int(" 10 ") == 10 and cli._float("-1e1") == -10.0
    assert math.isnan(cli._float("nan")) and cli._float("inf") == math.inf


@pytest.mark.parametrize("cells", ["0,1_0\n1_0,0\n", "0,١\n١,0\n"])
def test_csv_cells_are_ascii_without_separators(tmp_path, capsys, cells):
    path = tmp_path / "m.csv"
    path.write_text(cells, encoding="utf-8")
    code, out, err = run(capsys, ["spectrum", "--matrix", str(path)])
    assert code == 2 and out == ""
    assert len(_error_lines(err)) == 1
    path.write_text("0, 1e1\n10 ,0\n", encoding="utf-8")
    _, rep = run_json(capsys, ["spectrum", "--matrix", str(path)])
    assert rep["results"]["eigenvalues"] == [10, -10]


def test_threads_are_checked_by_the_search_and_echoed_as_given(capsys):
    code, out, err = run(capsys, ["search", "exhaustive", "--n", "3", "--threads", "0"])
    assert code == 2 and out == ""
    assert err == "error: threads must be a positive integer, got 0\n"
    _, rep = run_json(capsys, ["search", "exhaustive", "--n", "3", "--threads", "2"])
    assert rep["inputs"]["threads"] == "2"


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "main", "--paley", "9", "--k", "3"],
        ["check", "shifted", "--paley", "9", "--k", "3"],
        ["check", "weyl", "--paley", "9", "--k", "3"],
        ["check", "equality", "--paley", "9", "--k", "3"],
        ["check", "opnorm", "--rows", "2", "--cols", "2", "--orientation", "rows", "--k", "1"],
        ["search", "exhaustive", "--n", "4", "--k", "3"],
        ["search", "local", "--n", "4", "--k", "3", "--steps", "2"],
        ["check", "koolen_moulton", "--paley", "9", "--k", "3"],
        ["check", "gutman_zhou", "--paley", "9", "--k", "3"],
    ],
)
def test_a_k_the_command_does_not_read_exits_two(capsys, argv):
    code, out, err = run(capsys, argv + ["--json"])
    assert code == 2 and out == ""
    assert len(_error_lines(err)) == 1 and "k=" in err


def test_local_search_threads_change_no_result_byte(capsys):
    argv = ["search", "local", "--n", "16", "--steps", "40", "--json"]
    outs = [run(capsys, argv + ["--threads", t])[1] for t in ("1", "2")]
    # the report is command, inputs, results, tool_version, elapsed_ms in order
    results = [out[out.index('"results"') : out.index('"tool_version"')] for out in outs]
    assert results[0] == results[1]
    code, out, err = run(capsys, ["search", "local", "--n", "16", "--threads", "0"])
    assert code == 2 and out == ""
    assert err == "error: threads must be a positive integer, got 0\n"
