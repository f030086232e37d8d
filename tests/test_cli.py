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
from normsum.bounds import BOUND_KINDS, EQUALITY_TOL, HOLD_TOL
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


# every subcommand that reads --paley; kyfan needs an index
PALEY_COMMANDS = [["check", kind] for kind in BOUND_KINDS if kind != "kyfan"] + [
    ["check", "kyfan", "--k", "2"],
    ["check", "equality"],
    ["check", "weyl"],
    ["norms", "--k", "2"],
    ["spectrum"],
]


@pytest.mark.parametrize("q", [13, 125, 137, 169, 729])
def test_paley_input_gives_the_results_of_the_same_graph_in_graph6(capsys, q):
    # the orders straddle STRUCTURED_MIN_N, with primes and prime powers
    code, g6, _ = run(capsys, ["construct", "paley", str(q), "--format", "graph6"])
    assert code == 0
    for command in PALEY_COMMANDS:
        fast = run_json(capsys, command + ["--paley", str(q)])
        measured = run_json(capsys, command + ["--graph6", g6.strip()])
        assert fast[0] == measured[0] == 0 and fast[1]["results"] == measured[1]["results"], command


def test_paley_input_is_never_scanned_for_symmetry_or_invariance(monkeypatch, capsys):
    real_asymmetry, real_invariance = linalg.DenseMatrix._asymmetry, linalg.DenseMatrix._invariance

    def asymmetry(mat):
        if mat._asym is None:
            pytest.fail(f"asymmetry of a {mat.shape} matrix measured")
        return real_asymmetry(mat)

    def invariance(mat):
        if mat._grid is None:
            pytest.fail(f"invariance of a {mat.shape} matrix measured")
        return real_invariance(mat)

    monkeypatch.setattr(linalg.DenseMatrix, "_asymmetry", asymmetry)
    monkeypatch.setattr(linalg.DenseMatrix, "_invariance", invariance)
    for command in PALEY_COMMANDS:
        assert run_json(capsys, command + ["--paley", "137"])[0] == 0, command


@pytest.mark.parametrize(
    "q, message",
    [
        ("4", "q = 4 is not 1 (mod 4)"),
        ("6", "q = 6 is not a prime power"),
        ("4097", "q = 4097 exceeds the dimension cap 4096"),
    ],
)
def test_paley_orders_out_of_the_domain_exit_2_in_every_command(capsys, q, message):
    for command in PALEY_COMMANDS:
        assert run(capsys, command + ["--paley", q, "--json"]) == (2, "", f"error: {message}\n")


def test_tol_help_names_both_defaults():
    shown = re.findall(r"\d+e-\d+", cli._RUN_FLAGS["tol"]["help"])
    assert [float(t) for t in shown] == [HOLD_TOL, EQUALITY_TOL]


def test_search_help_names_both_caps(monkeypatch):
    def shown():
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if a.dest == "command").choices["search"]
        modes = next(a for a in sub._actions if a.dest == "mode")
        return {c.dest: re.findall(r"n <= (\d+)", c.help) for c in modes._choices_actions}

    assert shown() == {
        "exhaustive": [str(search.EXHAUSTIVE_MAX_N)],
        "local": [str(search.LOCAL_MAX_N)],
    }
    # the help reads the caps, so raising one changes it
    monkeypatch.setattr(cli, "EXHAUSTIVE_MAX_N", 9)
    assert shown()["exhaustive"] == ["9"]


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
        assert rep["results"] == cli._plain(check_bound(kind, obj))
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


def test_matrix_file_of_blank_lines_exits_two(capsys, tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("\n   \n\n")
    code, out, err = run(capsys, ["norms", "--matrix", str(path)])
    assert code == 2 and out == ""
    assert err == f"error: no matrix rows found in {path}\n"


@pytest.mark.parametrize("shape", [[], ["--cols", "2"]])
def test_opnorm_rows_without_its_shape_exits_two(capsys, shape):
    code, out, err = run(capsys, ["check", "opnorm", "--rows", "2", *shape])
    assert code == 2 and out == ""
    assert err == "error: --rows needs --cols and --orientation\n"


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
    # --json and --csv spell --format json and --format csv, so any two of the
    # three are refused, also --format text, the default; the flags are
    # literals, so "text" is the very object the parser holds as a default
    conflicts = (["--json", "--csv"], ["--format", "csv", "--json"], ["--format", "text", "--csv"])
    for flags in conflicts:
        code, out, err = run(capsys, ["check", "main", "--paley", "9"] + flags)
        assert code == 2 and out == ""
        assert "not allowed with argument" in err


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
        for flag in ("--format", "--json", "--out"):
            assert flag in p._option_string_actions
        # --csv is offered exactly where the csv format is
        formats = p._option_string_actions["--format"].choices
        assert ("--csv" in p._option_string_actions) == ("csv" in formats)
    code, _, err = run(capsys, ["construct", "paley", "5", "--threads", "2"])
    assert code == 2 and "--threads" in err
    _, payload = run_json(capsys, ["check", "main", "--paley", "9", "--tol", "1e-6"])
    assert payload["inputs"] == {"kind": "main", "paley": 9, "tol": 1e-6}


_PLAIN, _CSV = ("json", "text"), ("json", "csv", "text")
# each leaf parser: a valid argv, and the formats it renders
_FORMATS = {
    "construct paley": ("construct paley 5", ("json", "graph6", "text")),
    "construct hadamard": ("construct hadamard 4", _CSV),
    "construct kyfan-extremal": ("construct kyfan-extremal 3", _CSV),
    "construct opnorm-extremal": ("construct opnorm-extremal 2 4 --orientation rows", _CSV),
    "spectrum": ("spectrum --graph6 Dhc", _CSV),
    "norms": ("norms --graph6 Dhc --k 2", _PLAIN),
    "check": ("check main --paley 5", _CSV),
    "search exhaustive": ("search exhaustive --n 4", _PLAIN),
    "search local": ("search local --n 5 --steps 3", _PLAIN),
    "sweep": ("sweep --trials 1 --n-max 5", _CSV),
}


def test_each_subcommand_offers_the_formats_it_renders():
    offered = {
        leaf: tuple(p._option_string_actions["--format"].choices)
        for leaf, p in _leaf_parsers(cli.build_parser())
    }
    assert offered == {leaf: formats for leaf, (_, formats) in _FORMATS.items()}


def _never_run(args):
    raise AssertionError("the handler ran")


@pytest.mark.parametrize("leaf", _FORMATS)
def test_each_format_renders_or_exits_2_before_any_work(capsys, monkeypatch, leaf):
    argv, formats = _FORMATS[leaf]
    argv = argv.split()
    strip = lambda s: re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', s)
    for fmt in formats:
        code, out, err = run(capsys, argv + ["--format", fmt])
        assert code in (0, 1) and out.strip(), (fmt, err)
        if fmt in ("json", "csv"):
            assert strip(run(capsys, argv + [f"--{fmt}"])[1]) == strip(out)
    monkeypatch.setitem(cli._HANDLERS, argv[0], _never_run)
    unoffered = [["--format", f] for f in ("json", "csv", "graph6", "text") if f not in formats]
    if "csv" not in formats:
        unoffered.append(["--csv"])
    for flags in unoffered:
        code, out, err = run(capsys, argv + flags)
        assert code == 2 and out == ""
        assert len(_error_lines(err)) == 1
        assert "invalid choice" in err or "unrecognized arguments: --csv" in err


@pytest.mark.parametrize("kind", ["weyl", "equality"])
def test_check_kinds_without_a_verdict_row_refuse_csv(capsys, monkeypatch, kind):
    monkeypatch.setitem(cli._HANDLERS, "check", _never_run)
    for flags in (["--csv"], ["--format", "csv"]):
        code, out, err = run(capsys, ["check", kind, "--paley", "5"] + flags)
        assert code == 2 and out == ""
        assert err == "error: no CSV form for this subcommand\n"


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


def test_norms_ragged_matrix_file_csv_names_the_row(tmp_path, capsys):
    path = tmp_path / "ragged.csv"
    path.write_text("0,1\n\n1\n")
    code, out, err = run(capsys, ["norms", "--matrix", str(path)])
    assert (code, out) == (2, "")
    assert err == f"error: ragged matrix in {path}: row 2 has 1 entries, the first row has 2\n"


@pytest.mark.parametrize(
    "text, command",
    [
        ("0,0.5\n0.5,0\n", ["norms", "--matrix"]),
        (json.dumps({"rows": 2, "cols": 2, "entries": [0, 1, 1, 0]}), ["norms", "--matrix"]),
        (json.dumps({"n": 5, "edges": [[i, (i + 1) % 5] for i in range(5)]}), ["spectrum", "--edges"]),
    ],
    ids=["csv-matrix", "json-matrix", "edges"],
)
def test_file_input_after_a_utf8_byte_order_mark_reads_as_without(tmp_path, capsys, text, command):
    # spreadsheet programs save "CSV UTF-8" with a leading BOM
    strip = lambda s: re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', s)
    path = tmp_path / "input"
    outputs = []
    for encoding in ("utf-8", "utf-8-sig"):
        path.write_text(text, encoding=encoding)
        code, out, err = run(capsys, command + [str(path), "--json"])
        outputs.append((code, strip(out), err))
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    assert outputs[0][0] == 0 and outputs[1] == outputs[0]


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


def test_plain_gives_fields_in_order_and_keeps_shared_witnesses():
    # with one trial each stream's kinds keep its one sample and share its witness
    report = search.property_sweep(1, 7, (2, 12), list(search.SWEEP_KINDS))
    plain = cli._plain(report)
    assert list(plain) == ["seed", "n_range", "total_violations", "results"]
    assert plain["n_range"] is report.n_range
    assert plain["results"] == [cli._plain(r) for r in report.results]
    witness = {r["kind"]: r["worst_witness"] for r in plain["results"]}
    assert witness["main_matrix"] is witness["shifted"] is report.results[1].worst_witness
    assert cli._plain(plain) is plain


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


def _reference_render(obj, indent: int = 0) -> str:
    """The JSON text item by item, each string through json.dumps and each
    container rendered where it stands: what render_json must print."""
    pad = "  " * indent
    if isinstance(obj, (dict, list, tuple)) and not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    if isinstance(obj, dict):
        inner = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {_reference_render(v, indent + 1)}"
            for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        inner = ",\n".join(f"{pad}  {_reference_render(v, indent + 1)}" for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, np.integer):
        return str(int(obj))
    return json.dumps(obj)


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
    # at depth 0, and nested one and two levels deep
    for obj in (items, [items], {"a": [items]}):
        assert render_json(obj) == _reference_render(obj)
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
        assert render_json([items]) == _reference_render([items])

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


# one op per subcommand and check kind, plus a one-trial sweep whose kinds
# share their witnesses and a seed-37 sweep whose kinds keep different
# samples; the digests were taken from the renderer that called json.dumps
# on every string and rendered each kind's witness on its own
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
        (
            "construct paley 13 --json",
            "413055217a571f05c4db0daad0a612298fe407ac094fd786c5f7b879aff427d9",
        ),
        (
            "construct kyfan-extremal 5 --p 2 --q 3 --json",
            "2b0603e4625215da812798ca9bde7362167c4b67a347b4db9ae674050a6b1494",
        ),
        (
            "construct opnorm-extremal 4 3 --orientation rows --json",
            "bf3c0c7e126c37e6ff699429a61185adbbe4e95af62a0067ad05d42a14b94491",
        ),
        (
            "spectrum --paley 13 --json",
            "773e73de5ce524154aa9f98330312372d6b94c65dee497c5ad125e088ff4f395",
        ),
        (
            "spectrum --graph6 Gz`pY? --json",
            "8294f21944416b2ceaa063419bf59bcde656129c09b8f9a5919f424df3d927e1",
        ),
        (
            "norms --paley 13 --k 3 --json",
            "59e4f15db36cbb7147e539d08ebdf1e416d4e5e2b8a6f60ce96071bec13ce454",
        ),
        (
            "norms --graph6 Gz`pY? --json",
            "2d4458f605d2fed4c25d949fbd80b38af36de99b219dd34b672e1a357cf9b5cc",
        ),
        (
            "check koolen_moulton --paley 13 --json",
            "3b2f3fd99358acb4164a8b990d8a771ac384bda83ddba5c985f98f933930118b",
        ),
        (
            "check main --paley 13 --json",
            "463c95f495e6d492b2affe6924702528212fcfa900494bae13fabeffe21fab70",
        ),
        (
            "check gutman_zhou --paley 13 --json",
            "880b9b1da982cf101e3b501715f206fcd9620b0ad361fa068ac6a8a2600bee5a",
        ),
        (
            "check shifted --paley 13 --json",
            "0c9255178ce9167895ac7f016cedffa65cbad0290f2b88b1337bbeb0ac7ed6c7",
        ),
        (
            "check kyfan --order 5 --p 2 --q 1 --json",
            "7b0a59a9f85c472b73d872d312b99e050f2c6856b68b84d6e1b9fd365b7a0edd",
        ),
        (
            "check opnorm --rows 4 --cols 6 --orientation columns --json",
            "6efe9f03e1116496b54e8a7d55aace79965ba6c19653c9ec3195dcbb9fc4ee01",
        ),
        (
            "check weyl --paley 13 --json",
            "b96a50a7b0adb83fdf4f9bd7a3ae0f4d2efe09f16c1c956dbcb5a0bb14b143f0",
        ),
        (
            "check equality --paley 13 --json",
            "2d2c26feff6e688f52a7beb7fc9a3d5c182f367271346152ba2b4d9781de0c92",
        ),
        (
            "search exhaustive --n 5 --json",
            "c2a3f53beea279914ba8d2d9c1299dafc5514ca94a7fc7478af88db76db6553b",
        ),
        (
            "search local --n 8 --seed 11 --steps 40 --restarts 2 --json",
            "17ce96a621deeaa06dbb0d434e591c0e54ba1fd5cd54ae3d407d1dec5ec6a0ec",
        ),
        (
            "sweep --trials 1 --seed 7 --json",
            "fb397b5066984222f2e3628aa6ec13428e438a7d6eb8c294145fa6f82a3b4ea3",
        ),
        (
            "sweep --trials 3 --n-min 2 --n-max 5 --seed 37 --json",
            "80f5918025d2f0fd38243076a6c44e0e7fe68bd9073e1596dd87e0f97ac37f4b",
        ),
    ],
)
def test_json_output_bytes_are_frozen(capsys, argv, digest):
    code, out, _ = run(capsys, argv.split())
    assert code == 0
    stripped = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out)
    assert hashlib.sha256(stripped.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            "construct paley 13 --format graph6",
            "9ef54215ac86fcb70ebc6fefc900af318bdd3d159bd9600cd88a000e8115a5b0",
        ),
        (
            "construct hadamard 12 --csv",
            "6aa658c6f4ff179dbfb3a98e8395e9ce5e1d06596585c73e9e8b1c503353b3b9",
        ),
        (
            "construct kyfan-extremal 3 --p 2 --q 1 --csv",
            "ab7772a35ddab21ac86dc9b7c275b8c622e151bdb033887a39607a322d131559",
        ),
        (
            "construct opnorm-extremal 4 6 --orientation columns --csv",
            "2d59fb130f51f238a1923ba620f930fc40993fa7343f7dc8907d3a6984d3c5bc",
        ),
        (
            "spectrum --graph6 Dhc --csv",
            "9d05c2f07af975b7e13b6cb3b38cae0c2c2dadeeb9f037bc81ed4f0dce35be5f",
        ),
        (
            # not symmetric, so the eigenvalue column is empty
            "spectrum --matrix {rect} --csv",
            "10419607eafa638a3866d57f8a3cf9b40aace2e546b85e94c5090bccd5c8281a",
        ),
        (
            "check main --paley 9 --csv",
            "2c5aff9a9ee6f1b24ecd4c4831a9f067b2f291a682e54cdaf1f2df3b9cafc025",
        ),
        (
            "check kyfan --order 3 --csv",
            "dd690c904976f05b7ddfeb7207a74937a5a26482315edbcb9caa9f6710f0eaa4",
        ),
        (
            "sweep --trials 3 --seed 7 --csv",
            "1ee65d41313c6af29a4d57ecc22e041f340d46cbba7f32747ef2181c98b499e0",
        ),
        (
            "construct paley 13",
            "c060940d9a8138364a20579b4f95349aa03ecd48aa95261c26524232b7f4b7a6",
        ),
        (
            "norms --paley 13 --k 2",
            "3b31fe5a8989b85e19752ebb26c79385a0a317d99ee922ad966b782a65b44385",
        ),
        (
            "check weyl --paley 13",
            "c1a52e8822bd649d12a8963858106f00b97c6f4a2059dbce4b55e9d8e2262452",
        ),
        (
            "search exhaustive --n 5",
            "d7233eff8a7420a49f24c294100eb9fe3d55124bacd97b471602b60850475373",
        ),
        (
            "sweep --trials 3 --seed 7",
            "0c1cd7ee8ec6f9dbfc1a165b169c1a9abe9c1cd2fd20d5ed5a399018e7153213",
        ),
    ],
)
def test_csv_graph6_and_text_output_bytes_are_frozen(tmp_path, capsys, argv, digest):
    rect = tmp_path / "rect.csv"
    rect.write_text("1,2,3\n4,5,6\n", encoding="utf-8")
    code, out, _ = run(capsys, argv.format(rect=rect).split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_text_prints_an_absent_value_as_json_does(capsys):
    code, out, _ = run(capsys, ["search", "exhaustive", "--n", "5"])
    assert code == 0 and "None" not in out
    lines = out.splitlines()
    assert "k: null" in lines and "seed: null" in lines
    results = run_json(capsys, ["search", "exhaustive", "--n", "5"])[1]["results"]
    assert results["k"] is None and results["seed"] is None


def test_sweep_text_renders_each_kind_as_a_block(capsys):
    argv = ["sweep", "--trials", "3", "--seed", "7"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    lines = out.splitlines()
    # no dict or string repr: graph6 text holds characters 63-126, `{`
    # among them, and no other line holds a brace or a quote
    assert "'" not in out
    assert [line for line in lines if "{" in line and not line.startswith("    graph6: ")] == []
    kinds = search.SWEEP_KINDS
    assert [line for line in lines if line.startswith("results")] == [
        f"results[{i}]:" for i in range(len(kinds))
    ]
    assert [line for line in lines if line.lstrip().startswith("kind:")] == [
        f"  kind: {kind}" for kind in kinds
    ]
    # every float goes through format_float
    slacks = [r["worst_slack"] for r in run_json(capsys, argv)[1]["results"]["results"]]
    assert [line for line in lines if line.startswith("  worst_slack: ")] == [
        f"  worst_slack: {format_float(v)}" for v in slacks
    ]


def test_render_json_shapes():
    obj = {"a": 1, "b": [1.5, None, True], "c": {"d": "x"}, "e": []}
    text = render_json(obj)
    assert json.loads(text) == {"a": 1, "b": [1.5, None, True], "c": {"d": "x"}, "e": []}
    with pytest.raises(TypeError):
        render_json({"bad": object()})
    row = [0.5, 1.5]
    with pytest.raises(TypeError):
        render_json({"a": row, "b": [row, object()]})


def _unshared(obj):
    """A copy of obj in which no list, tuple or dict appears twice.
    (copy.deepcopy would keep the repeats.)"""
    if isinstance(obj, dict):
        return {k: _unshared(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(_unshared(v) for v in obj)
    return obj


def _loaded(obj):
    """What json.loads reads back from render_json(obj)."""
    if isinstance(obj, dict):
        return {str(k): _loaded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_loaded(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def _check_render(obj):
    # at depth 0, and nested one and two levels deep
    for nested in (obj, [obj], {"a": [obj]}):
        text = render_json(nested)
        assert text == render_json(_unshared(nested)) == _reference_render(nested)
    assert json.loads(render_json(obj)) == _loaded(obj)


def test_render_json_repeated_containers_render_as_unshared_copies():
    row = [0.5, -0.0, 1 / 3]
    mixed = [1, "a", None, row, (row, float("nan"))]
    obj = {
        "a": row,
        "b": row,
        "c": {"d": row, "e": mixed, "f": {}},
        "g": [mixed, mixed, [], []],
        "h": (row, row, {"row": row}),
    }
    _check_render(obj)
    _check_render([obj, obj])


def test_render_json_matches_the_reference_on_random_trees():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    leaf = st.one_of(
        st.floats(),
        st.sampled_from([-0.0, math.nan, math.inf, -math.inf]),
        st.integers(),
        st.floats(width=32).map(np.float32),
        st.floats().map(np.float64),
        st.integers(-(2**63), 2**63 - 1).map(np.int64),
        st.none(),
        st.booleans(),
        st.text(max_size=8),
    )
    tree = st.recursive(
        leaf,
        lambda kids: st.one_of(
            st.lists(kids, max_size=5),
            st.lists(kids, max_size=5).map(tuple),
            st.dictionaries(st.text(max_size=8), kids, max_size=5),
        ),
        max_leaves=30,
    )
    # the same subtrees at several positions and depths
    shared = st.builds(lambda x, y: {"x": x, "y": [x, y, x], "z": (y, {"x": x})}, tree, tree)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.one_of(tree, shared))
    def check(obj):
        _check_render(obj)

    check()


@pytest.mark.parametrize(
    "text",
    ['say "hi"', "back\\slash\\", "\t\n\r\x00\x08\x0c\x1f\x7f", "ünïcødé ✓ 𝄞 \u2028", "\ud800", ""],
)
def test_render_json_escapes_strings_as_json_dumps(text):
    assert render_json(text) == json.dumps(text)
    assert render_json({text: [text, text]}) == json.dumps({text: [text, text]}, indent=2)


def test_threads_auto_gives_the_results_of_threads_1(capsys):
    for mode in (["exhaustive", "--n", "5"], ["local", "--n", "12", "--steps", "20"]):
        outs = [run(capsys, ["search", *mode, "--threads", t, "--json"]) for t in ("auto", "1")]
        assert [code for code, _, _ in outs] == [0, 0]
        # the report is command, inputs, results, tool_version, elapsed_ms in order
        results = [out[out.index('"results"') : out.index('"tool_version"')] for _, out, _ in outs]
        assert results[0] == results[1]
        assert json.loads(outs[0][1])["inputs"]["threads"] == "auto"


def test_norms_factors_each_matrix_once(capsys, monkeypatch):
    factored = []
    real = linalg.eigh_basis

    def counting(a):
        factored.append(a.shape)
        return real(a)

    monkeypatch.setattr(linalg, "eigh_basis", counting)
    code, rep = run_json(capsys, ["norms", "--paley", "13", "--k", "3"])
    assert code == 0
    assert factored == [(13, 13), (13, 13)]  # the graph and its complement
    r = rep["results"]
    assert r["ky_fan_norm"] == ky_fan_norm(adjacency_matrix(paley_graph(13)), 3)


def test_spectrum_factors_symmetric_input_once(capsys, monkeypatch):
    factored = []
    real = linalg.eigh_basis

    def counting(a):
        factored.append(a.shape)
        return real(a)

    monkeypatch.setattr(linalg, "eigh_basis", counting)
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
