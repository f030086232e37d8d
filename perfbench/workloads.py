"""The benchmark's four workloads: seeded CLI op lists with a reference check
for every op.

Each op is one ``normsum.cli.main(argv)`` call. The workload seed only shapes
the argv (orders, sizes, the program's own ``--seed`` values and the op
order); the program never sees it. A check returns a list of problems with
the op's stdout, empty when the output matches its reference.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from normsum import (
    Graph,
    adjacency_matrix,
    check_bound,
    graph6_decode,
    graph6_encode,
    paley_graph,
)
from normsum.bounds import EQUALITY_TOL

WORKLOADS = ("dense-certify", "exhaustive", "anneal", "small-calls")

# argv entry replaced by the previous op's stdout in the same pass
PREV_OUTPUT = "<previous op output>"

# Near-equal primes = 1 (mod 4) around 400 and 1000, and 729 = 3^6 for the
# GF(p^e) path. The classes are narrow so that the seed moves the O(n^3)
# cost by at most about 3% (400) and 1.2% (1000).
PALEY_CLASSES = ((397, 401), (729,), (1009, 1013))

EXHAUSTIVE_N = 7
# exhaustive_max(7, "trace_sum"): the frozen maximum (the same constant and
# 1e-9 tolerance as the acceptance tests) and the 2^21 labeled graphs.
EXHAUSTIVE_REFERENCE = (21.20375412983717, 1 << 21)
REFERENCE_ABS_TOL = 1e-9

# (n, steps): steps sized so that each n takes a similar share of a pass
# (measured per-step wall on 2 cores: about 6 ms, 90 ms and 1.8 s).
ANNEAL_STEPS = ((16, 300), (32, 20), (64, 1))
ANNEAL_RESTARTS = 2
RESCORE_REL_TOL = 1e-9

# Ops per small-calls pass, by kind. Sizes are stratified over their range
# and orders repeat evenly, so that the seed changes which inputs are drawn
# and their order, but hardly the total work.
SMALL_CALLS = {"sweep": 80, "kyfan": 50, "opnorm": 50, "norms": 70, "hadamard": 50}
SMALL_MAX_DIM = 64
SWEEP_MAX_N = 32
NORMS_MAX_N = 32
HADAMARD_ORDERS = (1, 2, 4, 8, 12, 16, 20, 24, 28, 32)


@dataclass
class Op:
    """One CLI call, expected to exit with code 0. ``must_equal`` marks a
    bound check whose instance is an equality case; its |slack| feeds
    ``bounds.max_equality_slack``."""

    argv: list[str]
    check: Callable[[str], list[str]]
    must_equal: bool = False
    size: int = 0

    def argv_after(self, prev_output: str) -> list[str]:
        """The argv, with PREV_OUTPUT replaced by the previous op's output."""
        return [prev_output.strip() if a == PREV_OUTPUT else a for a in self.argv]


@dataclass
class Workload:
    ops: list[Op]
    # run before timing starts; not timed and not checked
    warmup: list[list[str]] = field(default_factory=list)


def build(name: str, seed: int, threads: int) -> Workload:
    """The op list of the named workload for this seed."""
    rnd = random.Random(f"{name}:{seed}")
    if name == "dense-certify":
        return _dense_certify(rnd)
    if name == "exhaustive":
        return _exhaustive(threads)
    if name == "anneal":
        return _anneal(rnd, threads)
    if name == "small-calls":
        return _small_calls(rnd)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")


def results_of(out: str) -> dict:
    """The ``results`` object of a JSON run report."""
    return json.loads(out)["results"]


# ---------------------------------------------------------------------------
# checks


def _expect(cond: bool, what: str) -> list[str]:
    return [] if cond else [what]


def _check_equality_verdict(out: str) -> list[str]:
    r = results_of(out)
    return _expect(
        r["holds"] and r["equality"] and abs(r["slack"]) <= EQUALITY_TOL,
        f"expected equality within {EQUALITY_TOL}, got slack {r['slack']!r}",
    )


def _check_holds(out: str) -> list[str]:
    r = results_of(out)
    return _expect(r["holds"], f"bound violated, slack {r['slack']!r}")


def _check_equality_report(out: str) -> list[str]:
    return _expect(results_of(out)["overall"], "equality report overall is false")


def _check_weyl(out: str) -> list[str]:
    return _expect(results_of(out)["ok"], "Weyl complement check is not ok")


def _paley_graph6_check(q: int) -> Callable[[str], list[str]]:
    def check(out: str) -> list[str]:
        g = graph6_decode(out.strip())
        return _expect(g == paley_graph(q), f"graph6 output does not decode to P{q}")

    return check


def _check_exhaustive(out: str) -> list[str]:
    r = results_of(out)
    best, evaluations = EXHAUSTIVE_REFERENCE
    return _expect(
        abs(r["best_value"] - best) <= REFERENCE_ABS_TOL and r["evaluations"] == evaluations,
        f"expected best {best!r} over {evaluations} graphs, "
        f"got {r['best_value']!r} over {r['evaluations']}",
    )


def _check_rescore(out: str) -> list[str]:
    r = results_of(out)
    if not r["witnesses"]:
        return ["local search reported no witness"]
    lhs = check_bound("main", graph6_decode(r["witnesses"][0])).lhs
    best = r["best_value"]
    return _expect(
        abs(lhs - best) <= RESCORE_REL_TOL * abs(best),
        f"witness re-scores to {lhs!r}, search reported {best!r}",
    )


def _check_sweep(out: str) -> list[str]:
    r = results_of(out)
    return _expect(r["total_violations"] == 0, f"{r['total_violations']} sweep violations")


def _norms_check(g6: str) -> Callable[[str], list[str]]:
    def check(out: str) -> list[str]:
        r = results_of(out)
        a = adjacency_matrix(graph6_decode(g6)).array
        n = a.shape[0]
        comp = np.ones((n, n)) - np.eye(n) - a
        ref = float(np.abs(np.linalg.eigvalsh(a)).sum())
        ref_comp = float(np.abs(np.linalg.eigvalsh(comp)).sum())
        scale = 1.0 + ref + ref_comp
        return _expect(
            abs(r["trace_norm"] - ref) <= 1e-9 * scale
            and abs(r["complement_trace_norm"] - ref_comp) <= 1e-9 * scale,
            f"trace norms {r['trace_norm']!r}, {r['complement_trace_norm']!r} "
            f"differ from eigvalsh {ref!r}, {ref_comp!r}",
        )

    return check


def _check_hadamard(out: str) -> list[str]:
    m = results_of(out)["matrix"]
    h = np.array(m["entries"]).reshape(m["rows"], m["cols"])
    n = h.shape[0]
    return _expect(
        h.shape == (n, n) and bool(np.all(np.abs(h) == 1.0)) and np.array_equal(h @ h.T, n * np.eye(n)),
        "output is not a Hadamard matrix",
    )


# ---------------------------------------------------------------------------
# workloads


def _random_graph6(rnd: random.Random, n: int) -> str:
    return graph6_encode(Graph(n=n, bits=rnd.getrandbits(n * (n - 1) // 2)))


def _dense_certify(rnd: random.Random) -> Workload:
    ops = []
    for orders in PALEY_CLASSES:
        q = rnd.choice(orders)
        paley = ["--paley", str(q), "--json"]
        ops += [
            Op(["check", "main", *paley], _check_equality_verdict, must_equal=True, size=q),
            Op(["check", "equality", *paley], _check_equality_report, size=q),
            Op(["check", "weyl", *paley], _check_weyl, size=q),
            Op(["construct", "paley", str(q), "--format", "graph6"], _paley_graph6_check(q), size=q),
            Op(
                ["check", "main", "--graph6", PREV_OUTPUT, "--json"],
                _check_equality_verdict,
                must_equal=True,
                size=q,
            ),
            Op(["check", "main", "--graph6", _random_graph6(rnd, q), "--json"], _check_holds, size=q),
        ]
    warmup = [
        ["check", kind, "--paley", str(q), "--json"]
        for q in (13, 25)
        for kind in ("main", "equality", "weyl")
    ] + [["construct", "paley", "25", "--format", "graph6"]]
    return Workload(ops, warmup)


def _exhaustive(threads: int) -> Workload:
    argv = ["search", "exhaustive", "--n", str(EXHAUSTIVE_N), "--threads", str(threads), "--json"]
    warmup = [["search", "exhaustive", "--n", "6", "--threads", str(threads), "--json"]]
    return Workload([Op(argv, _check_exhaustive, size=EXHAUSTIVE_N)], warmup)


def _anneal(rnd: random.Random, threads: int) -> Workload:
    ops = []
    for n, steps in ANNEAL_STEPS:
        argv = [
            "search", "local", "--n", str(n), "--steps", str(steps),
            "--restarts", str(ANNEAL_RESTARTS), "--threads", str(threads),
            "--seed", str(rnd.getrandbits(63)), "--json",
        ]  # fmt: skip
        ops.append(Op(argv, _check_rescore, size=n))
    warmup = [["search", "local", "--n", str(n), "--steps", "1", "--restarts", str(ANNEAL_RESTARTS),
               "--threads", str(threads), "--json"] for n, _ in ANNEAL_STEPS]  # fmt: skip
    return Workload(ops, warmup)


def _stratified(rnd: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """count integers in [lo, hi], one drawn from each of count equal strata."""
    width = hi - lo + 1
    return [lo + int((i + rnd.random()) * width / count) for i in range(count)]


def _small_calls(rnd: random.Random) -> Workload:
    ops = []
    for i, n_max in enumerate(_stratified(rnd, SMALL_CALLS["sweep"], 4, SWEEP_MAX_N)):
        n_min = rnd.randint(max(2, n_max - 8), n_max)
        argv = ["sweep", "--trials", str(1 + i % 3), "--n-min", str(n_min),
                "--n-max", str(n_max), "--seed", str(rnd.getrandbits(64)), "--json"]  # fmt: skip
        ops.append(Op(argv, _check_sweep, size=n_max))
    per_order = SMALL_CALLS["kyfan"] // len(HADAMARD_ORDERS)
    for h in HADAMARD_ORDERS:  # the witness for k needs a Hadamard matrix of order k - 1
        k, most = h + 1, SMALL_MAX_DIM // (2 * h)
        qs = _stratified(rnd, per_order, 1, most)
        rnd.shuffle(qs)
        for p, q in zip(_stratified(rnd, per_order, 1, most), qs):
            argv = ["check", "kyfan", "--order", str(k), "--p", str(p), "--q", str(q), "--json"]
            ops.append(Op(argv, _check_equality_verdict, must_equal=True, size=2 * max(p, q) * h))
    frees = _stratified(rnd, SMALL_CALLS["opnorm"], 1, SMALL_MAX_DIM)
    rnd.shuffle(frees)
    halves = _stratified(rnd, SMALL_CALLS["opnorm"], 1, SMALL_MAX_DIM // 2)
    for i, (half, free) in enumerate(zip(halves, frees)):
        orientation = ("rows", "columns")[i % 2]  # the split dimension must be even
        rows, cols = (2 * half, free) if orientation == "rows" else (free, 2 * half)
        argv = ["check", "opnorm", "--rows", str(rows), "--cols", str(cols),
                "--orientation", orientation, "--json"]  # fmt: skip
        ops.append(Op(argv, _check_equality_verdict, must_equal=True, size=max(rows, cols)))
    for n in _stratified(rnd, SMALL_CALLS["norms"], 4, NORMS_MAX_N):
        g6 = _random_graph6(rnd, n)
        ops.append(Op(["norms", "--graph6", g6, "--json"], _norms_check(g6), size=n))
    for order in HADAMARD_ORDERS * (SMALL_CALLS["hadamard"] // len(HADAMARD_ORDERS)):
        ops.append(Op(["construct", "hadamard", str(order), "--json"], _check_hadamard, size=order))
    rnd.shuffle(ops)
    return Workload(ops, [op.argv for op in ops[:100]])
