"""The gates: errors.as_positive_int for every positive integer argument,
rng.as_seed for every seed and errors.as_real for every real number
argument, with a static guard that their messages are written nowhere
else."""

import ast
import fractions
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import normsum
from normsum import (
    BadConfigError,
    DenseMatrix,
    Graph,
    SearchConfig,
    SplitMix64,
    UnsupportedOrderError,
    bound_value,
    check_bound,
    exhaustive_max,
    graph_from_edges,
    hadamard,
    kyfan_extremal_matrix,
    local_search_max,
    opnorm_extremal_matrix,
    property_sweep,
)
from normsum.bounds import check_tol

SRC = Path(normsum.__file__).parent

# entry point -> (call with the integer under test, its name, its error class);
# 2 is a valid value for each
POSITIVE = {
    "bound_value n": (lambda v: bound_value("main", v), "n", ValueError),
    "bound_value m": (lambda v: bound_value("opnorm", 2, m=v), "m", ValueError),
    "hadamard order": (hadamard, "order", UnsupportedOrderError),
    "kyfan_extremal p": (lambda v: kyfan_extremal_matrix(3, v, 1), "p", ValueError),
    "kyfan_extremal q": (lambda v: kyfan_extremal_matrix(3, 1, v), "q", ValueError),
    "opnorm_extremal m": (lambda v: opnorm_extremal_matrix(v, 2, "columns"), "m", ValueError),
    "opnorm_extremal n": (lambda v: opnorm_extremal_matrix(2, v, "rows"), "n", ValueError),
    "Graph n": (lambda v: Graph(n=v, bits=0), "graph n", ValueError),
    "graph_from_edges n": (lambda v: graph_from_edges(v, []), "graph n", ValueError),
    "from_flags n": (lambda v: Graph.from_flags(v, [False]), "graph n", ValueError),
    "from_flat rows": (lambda v: DenseMatrix.from_flat(v, 1, [0, 0]), "matrix rows", ValueError),
    "from_flat cols": (lambda v: DenseMatrix.from_flat(1, v, [0, 0]), "matrix cols", ValueError),
    "SearchConfig restarts": (lambda v: SearchConfig(restarts=v), "restarts", BadConfigError),
    "SearchConfig max_steps": (lambda v: SearchConfig(max_steps=v), "max_steps", BadConfigError),
    "exhaustive n": (exhaustive_max, "n", ValueError),
    "exhaustive threads": (lambda v: exhaustive_max(2, threads=v), "threads", ValueError),
    "local threads": (
        lambda v: local_search_max(2, cfg=SearchConfig(restarts=1, max_steps=1), threads=v),
        "threads",
        ValueError,
    ),
    "sweep trials": (lambda v: property_sweep(v, 0, (4, 4), ["main"]), "trials", ValueError),
}


@pytest.mark.parametrize("entry", sorted(POSITIVE))
def test_every_positive_integer_argument_goes_through_one_gate(entry):
    call, name, error = POSITIVE[entry]
    for bad, shown in ((0, "0"), (-1, "-1"), (np.int64(0), "0")):
        with pytest.raises(error, match=f"^{name} must be a positive integer, got {shown}$") as exc:
            call(bad)
        assert exc.type is error
    for bad in (True, 2.0, "2"):
        message = f"{name} must be an integer, got {bad!r}"
        with pytest.raises(error, match=f"^{re.escape(message)}$") as exc:
            call(bad)
        assert exc.type is error
    call(np.int64(2))


# entry point -> (call with the seed under test, its error class, the seed it kept)
SEEDED = {
    "SplitMix64": (SplitMix64, ValueError, lambda rng: rng.state),
    "SearchConfig": (lambda s: SearchConfig(seed=s), BadConfigError, lambda cfg: cfg.seed),
    "property_sweep": (
        lambda s: property_sweep(1, s, (4, 4), ["main"]),
        ValueError,
        lambda report: report.seed,
    ),
}


@pytest.mark.parametrize("entry", sorted(SEEDED))
def test_every_seed_goes_through_one_gate(entry):
    call, error, kept = SEEDED[entry]
    with pytest.raises(error, match="^seed must be an integer, got True$") as exc:
        call(True)
    assert exc.type is error
    for bad in (-1, 2**64):
        message = f"seed must be a 64-bit unsigned integer, got {bad}"
        with pytest.raises(error, match=f"^{message}$") as exc:
            call(bad)
        assert exc.type is error
    for good in (np.uint64(7), 2**64 - 1):
        seed = kept(call(good))
        assert type(seed) is int and seed == good


def test_numpy_seeds_give_the_stream_of_the_python_int():
    a, b = SplitMix64(np.uint64(7)), SplitMix64(7)
    assert type(a.state) is int
    assert [a.next64() for _ in range(3)] == [b.next64() for _ in range(3)]
    assert np.array_equal(a.next_doubles(5), b.next_doubles(5))
    assert SearchConfig(seed=np.uint64(7)) == SearchConfig(seed=7)
    sweep = property_sweep(2, np.uint64(7), (4, 6), ["main", "kyfan"])
    assert sweep == property_sweep(2, 7, (4, 6), ["main", "kyfan"])


def test_exhaustive_gates_threads_before_generating_classes(monkeypatch):
    # no warning, and no class generated, before threads is checked
    def no_reps(v):
        raise AssertionError("classes were generated before threads was checked")

    monkeypatch.setattr(normsum.search, "_class_reps", no_reps)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^threads must be a positive integer, got 0$"):
            exhaustive_max(8, threads=0)


# entry point -> (call with the real number under test, its name, its error
# class, the value it kept); 0.5 is a valid value for each
REAL = {
    "check_tol": (check_tol, "tol", ValueError, lambda tol: tol),
    "check_bound tol": (
        lambda v: check_bound("main", Graph(n=3, bits=0), tol=v),
        "tol",
        ValueError,
        lambda verdict: verdict.tol,
    ),
    "SearchConfig temperature_initial": (
        lambda v: SearchConfig(temperature_initial=v),
        "temperature_initial",
        BadConfigError,
        lambda cfg: cfg.temperature_initial,
    ),
    "SearchConfig cooling": (
        lambda v: SearchConfig(cooling=v),
        "cooling",
        BadConfigError,
        lambda cfg: cfg.cooling,
    ),
}


@pytest.mark.parametrize("entry", sorted(REAL))
def test_every_real_number_argument_goes_through_one_gate(entry):
    call, name, error, kept = REAL[entry]
    for bad in (True, np.bool_(False), "0.5", b"1", None, 0.5j):
        message = f"{name} must be a real number, got {bad!r}"
        with pytest.raises(error, match=f"^{re.escape(message)}$") as exc:
            call(bad)
        assert exc.type is error
    for good in (0.5, np.float32(0.5), np.float64(0.5), fractions.Fraction(1, 2)):
        value = kept(call(good))
        assert type(value) is float and value == 0.5


TEMPLATES = {
    "must be a positive integer": ("errors.py", "as_positive_int"),
    "must be a real number": ("errors.py", "as_real"),
    "must be a 64-bit unsigned integer": ("rng.py", "as_seed"),
}


def template_sites(path):
    """(template, enclosing function or None) for each string constant of
    the module, f-string parts included, that holds a gate's message."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.extend((t, func) for t in TEMPLATES if t in node.value)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


def test_the_gate_messages_are_written_only_in_the_gates():
    modules = sorted(SRC.glob("*.py"))
    assert {p.name for p in modules} >= {"errors.py", "rng.py", "search.py", "linalg.py"}
    sites = {(t, (p.name, func)) for p in modules for t, func in template_sites(p)}
    # the scan does see the gates' own messages
    assert sites == set(TEMPLATES.items())


def test_the_scan_finds_a_stray_message(tmp_path):
    stray = tmp_path / "stray.py"
    stray.write_text(
        "def check(n):\n"
        "    if n < 1:\n"
        "        raise ValueError(f'{n!r} must be a positive integer')\n"
        "SEED = 'seed must be a 64-bit unsigned integer'\n"
    )
    assert template_sites(stray) == [
        ("must be a positive integer", "check"),
        ("must be a 64-bit unsigned integer", None),
    ]
