"""normsum benchmark: one closed-loop client driving ``normsum.cli.main``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``.
A run measures ``setup_s`` in fresh interpreters, warms up, then repeats
passes over the workload's seeded op list for about ``--seconds`` (at least
two passes, so every op's output can be compared across passes). Every op's
exit code and output are checked against a reference; a mismatch counts as a
failed op. The last stdout line is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it is the
full report (machine fingerprint, further metrics, notes, failures).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics from the traced
ones (spans around every call into a normsum public function, see
tracing.py), plus ``trace_overhead``. The spans and the report are also
written to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import math
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import machine
from tracing import END, ID, LAYER, NAME, OP, SIZE, SPAN_FIELDS, START, Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# Reported by name in the report line but not in the result, whose metrics
# must be nonzero and steady on every workload. The throughputs are zero where
# they do not apply (and a fixed count per pass over about the pass time where
# they do); a pass of dense-certify, exhaustive or anneal has 1 to 18 ops of
# distinct costs, so the latency percentiles of those workloads jump between
# ops; fail_frac is the result's failed / attempted.
REPORTED = {
    "evals_per_s": "1/s",
    "verdicts_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "fail_frac": "ratio",
}
PER_LAYER = {
    "linalg.factorizations": "count",
    "linalg.self_s": "s",
    "linalg.flops_computed": "flop",
    "linalg.share": "ratio",
    "graphs.paley_s": "s",
    "graphs.adjacency_s": "s",
    "graphs.graph6_s": "s",
    "graphs.graph6_chars": "count",
    "bounds.self_s": "s",
    "bounds.verdicts": "count",
    "bounds.max_equality_slack": "1",
    "constructions.self_s": "s",
    "constructions.calls": "count",
    "search.evals": "count",
    "search.self_s": "s",
    "search.block_ms": "ms",
    "search.block_ms_1t": "ms",
    "search.parallel_eff": "ratio",
    "search.step_ms.n16": "ms",
    "search.step_ms.n32": "ms",
    "search.step_ms.n64": "ms",
    "rng.draws": "count",
    "rng.draw_ns": "ns",
    "cli.self_s": "s",
    "cli.render_s": "s",
    "cli.out_bytes": "B",
    "trace_overhead": "ratio",
}

SETUP_SPAWNS = 7
SETUP_ARGV = ["construct", "hadamard", "2", "--json"]
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); from normsum.cli import main; "
    f"sys.exit(main({SETUP_ARGV!r}))"
)
# a run stops starting passes once the next would end past this
HARD_LIMIT_S = 150.0
BLOCK = 1 << 16  # graphs per exhaustive enumeration block
PROBE_REPEATS = 3
PROBE_DRAWS = 100_000

_ELAPSED = re.compile(r'"elapsed_ms": -?\d+')


def load_package(root: Path = ROOT):
    """Import normsum from the checkout's src, and nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        normsum = importlib.import_module("normsum")
        importlib.import_module("normsum.cli")
    except ImportError as exc:
        raise RuntimeError(f"cannot import normsum from {src}: {exc}") from exc
    if src not in Path(normsum.__file__).resolve().parents:
        raise RuntimeError(f"normsum was imported from {normsum.__file__}, not from {src}")
    return normsum


@dataclass
class Record:
    """One op execution. Past the first untraced pass only the digest of the
    output is kept, so that retained outputs do not grow the peak RSS."""

    rc: int | None
    out: str | None
    err: str
    seconds: float
    digest: str = ""


@dataclass
class Pass:
    records: list[Record]
    wall: float
    tag: str = ""
    spans: list[list] = field(default_factory=list)
    draws: int = 0


def run_pass(cli, ops, tracer=None, tag: str = "") -> Pass:
    """Run every op once, in order, each after the previous one returned."""
    records: list[Record] = []
    prev = ""
    clock = time.perf_counter
    start = clock()
    for i, op in enumerate(ops):
        argv = op.argv_after(prev)
        if tracer is not None:
            tracer.op = f"{tag}{i}"
        out, err = io.StringIO(), io.StringIO()
        t0 = clock()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.main(argv)
        except Exception:  # a crash is one failed op, not a stopped benchmark
            rc = None
            err.write(traceback.format_exc())
        records.append(Record(rc, out.getvalue(), err.getvalue(), clock() - t0))
        prev = records[-1].out
    ps = Pass(records, clock() - start, tag)
    for rec in records:
        rec.digest = hashlib.sha256(_normalized(rec.out).encode("utf-8")).hexdigest()
    return ps


def measure(normsum, ops, seconds: float, trace: bool) -> tuple[list[Pass], list[Pass]]:
    """Untraced passes, and with trace a traced pass after each, for about
    ``seconds``: at least two untraced passes, or one pair when tracing."""
    untraced: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    while True:
        untraced.append(run_pass(normsum.cli, ops))
        if len(untraced) > 1:
            for rec in untraced[-1].records:
                rec.out = None
        if trace:
            tracer = Tracer()
            tag = f"{len(traced)}:"
            with tracer.installed(normsum):
                ps = run_pass(normsum.cli, ops, tracer, tag)
            ps.spans, ps.draws = tracer.spans, tracer.draws
            traced.append(ps)
        rounds = len(untraced)
        projected = (time.perf_counter() - start) * (rounds + 1) / rounds
        if projected > HARD_LIMIT_S or (rounds >= (1 if trace else 2) and projected > seconds):
            return untraced, traced


def measure_setup(root: Path) -> tuple[float, int]:
    """Median seconds from a fresh interpreter to a first command answered,
    over SETUP_SPAWNS spawns after one unmeasured spawn; and the failed count."""
    times, failed = [], 0
    for i in range(SETUP_SPAWNS + 1):
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_CODE], cwd=root, capture_output=True, text=True, timeout=60
            )
            answered = proc.returncode == 0 and '"kind": "hadamard"' in proc.stdout
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            answered = False
        elapsed = time.perf_counter() - t0
        failed += not answered
        if i:
            times.append(elapsed)
    return statistics.median(times), failed


# ---------------------------------------------------------------------------
# checks


def _normalized(out: str) -> str:
    return _ELAPSED.sub('"elapsed_ms": 0', out)


def _run_check(op, out: str) -> list[str]:
    try:
        return op.check(out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]


def check_passes(ops, passes: list[Pass]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems). An op execution fails on a wrong exit
    code, on output that fails its reference check, or on output that differs
    from the first pass's in anything but elapsed_ms."""
    first = passes[0].records
    checked: dict[int, list[str]] = {}
    attempted = failed = 0
    problems: list[str] = []
    for p, ps in enumerate(passes):
        for i, (op, rec) in enumerate(zip(ops, ps.records)):
            attempted += 1
            found = []
            if rec.rc != 0:
                found.append(f"exit code {rec.rc}: {rec.err.strip()[-400:]}")
            elif rec.digest != first[i].digest:
                found.append("output differs from the first pass")
            else:
                if i not in checked:
                    checked[i] = _run_check(op, first[i].out)
                found += checked[i]
            if found:
                failed += 1
                problems += [f"pass {p} op {i} ({' '.join(op.argv[:3])}): {msg}" for msg in found]
    return attempted, failed, problems


# ---------------------------------------------------------------------------
# metrics


def _results(rec: Record) -> dict | None:
    try:
        return json.loads(rec.out)["results"]
    except (ValueError, KeyError, TypeError):
        return None


def _verdicts(op, results: dict | None) -> int:
    if results is None:
        return 0
    if op.argv[0] == "check":
        return 1
    if op.argv[0] == "sweep":
        return sum(r["trials"] for r in results["results"])
    return 0


def end_to_end(ops, untraced: list[Pass], setup_s: float, peak_rss_mb: float) -> tuple[dict, dict]:
    """The end-to-end metrics, and the REPORTED ones with sample counts.
    Verdicts and evaluations are counted in the first pass, whose outputs
    every later pass must repeat."""
    latencies = [r.seconds * 1000.0 for ps in untraced for r in ps.records]
    results = [_results(rec) for rec in untraced[0].records]
    verdicts = len(untraced) * sum(_verdicts(op, r) for op, r in zip(ops, results))
    evals = len(untraced) * sum(
        r["evaluations"] for op, r in zip(ops, results) if op.argv[0] == "search" and r is not None
    )
    search_s = sum(
        rec.seconds for ps in untraced for op, rec in zip(ops, ps.records) if op.argv[0] == "search"
    )
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(ps.wall for ps in untraced),
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {
        "evals_per_s": evals / search_s if search_s else 0.0,
        "verdicts_per_s": verdicts / sum(ps.wall for ps in untraced),
        "op_p50_ms": statistics.median(latencies),
        "op_p90_ms": statistics.quantiles(latencies, n=10)[8] if len(latencies) > 1 else latencies[0],
        "op_samples": len(latencies),
        "pass_walls": [ps.wall for ps in untraced],
    }
    return metrics, extra


def probes(normsum) -> dict[str, float]:
    """Single-thread probes: ms per 2^16 graphs from exhaustive_max(6) (2^15
    graphs on 6 vertices), and ns per SplitMix64 draw."""
    block, draw = [], []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        normsum.exhaustive_max(6, threads=1)
        block.append((time.perf_counter() - t0) * 1000.0 * BLOCK / (1 << 15))
        rng = normsum.SplitMix64(0x5EED)
        t0 = time.perf_counter()
        for _ in range(PROBE_DRAWS):
            rng.next64()
        draw.append((time.perf_counter() - t0) * 1e9 / PROBE_DRAWS)
    return {"search.block_ms_1t": statistics.median(block), "rng.draw_ns": statistics.median(draw)}


def per_layer(ops, ps: Pass, threads: int, probe: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced pass, and notes on metrics whose base
    is absent on this workload (those read 0)."""
    own = self_times(ps.spans)
    layer_self: dict[str, float] = defaultdict(float)
    name_self: dict[str, float] = defaultdict(float)
    name_dur: dict[str, float] = defaultdict(float)
    name_size: dict[str, float] = defaultdict(float)
    layer_calls: Counter = Counter()
    calls: Counter = Counter()
    op_span: dict[tuple[str, str], float] = {}
    for s in ps.spans:
        layer_self[s[LAYER]] += own[s[ID]]
        name_self[s[NAME]] += own[s[ID]]
        name_dur[s[NAME]] += s[END] - s[START]
        name_size[s[NAME]] += s[SIZE]
        layer_calls[s[LAYER]] += 1
        calls[s[NAME]] += 1
        op_span[(s[OP], s[NAME])] = s[END] - s[START]

    notes = []
    evals = out_bytes = 0
    slack, slack_n = 0.0, None
    blocks, exhaustive_s = 0, 0.0
    step_ms: dict[int, float] = {}
    for i, (op, rec) in enumerate(zip(ops, ps.records)):
        out_bytes += len(rec.out.encode("utf-8"))
        results = _results(rec)
        if results is None:
            continue
        if op.must_equal and abs(results["slack"]) >= slack:
            slack, slack_n = abs(results["slack"]), op.size
        if op.argv[0] != "search":
            continue
        evals += results["evaluations"]
        n, exhaustive = results["n"], results["method"] == "exhaustive"
        span_s = op_span.get((f"{ps.tag}{i}", "exhaustive_max" if exhaustive else "local_search_max"), 0.0)
        if exhaustive:
            blocks += math.ceil((1 << (n * (n - 1) // 2)) / BLOCK)
            exhaustive_s += span_s
        else:
            restarts = int(op.argv[op.argv.index("--restarts") + 1])
            steps = (results["evaluations"] / restarts - 1) / (n * (n - 1) // 2)
            step_ms[n] = span_s * 1000.0 / steps

    metrics = {
        "linalg.factorizations": calls["svd"] + calls["sym_eigen"],
        "linalg.self_s": layer_self["linalg"],
        "linalg.flops_computed": name_size["svd"] + name_size["sym_eigen"],
        "linalg.share": layer_self["linalg"] / ps.wall,
        "graphs.paley_s": name_self["paley_graph"],
        "graphs.adjacency_s": name_self["adjacency_matrix"],
        "graphs.graph6_s": name_self["graph6_encode"] + name_self["graph6_decode"],
        "graphs.graph6_chars": name_size["graph6_encode"] + name_size["graph6_decode"],
        "bounds.self_s": layer_self["bounds"],
        "bounds.verdicts": calls["check_bound"] + calls["equality_analysis"] + calls["weyl_complement_check"],
        "bounds.max_equality_slack": slack,
        "constructions.self_s": layer_self["constructions"],
        "constructions.calls": layer_calls["constructions"],
        "search.evals": evals,
        "search.self_s": layer_self["search"],
        "search.block_ms": exhaustive_s * 1000.0 / blocks if blocks else 0.0,
        "search.block_ms_1t": probe["search.block_ms_1t"],
        "search.parallel_eff": (
            blocks * probe["search.block_ms_1t"] / (exhaustive_s * 1000.0 * threads) if blocks else 0.0
        ),
        "rng.draws": ps.draws,
        "rng.draw_ns": probe["rng.draw_ns"],
        "cli.self_s": layer_self["cli"],
        "cli.render_s": name_dur["render_json"],
        "cli.out_bytes": out_bytes,
    }
    for n in (16, 32, 64):
        metrics[f"search.step_ms.n{n}"] = step_ms.get(n, 0.0)
        if n not in step_ms:
            notes.append(f"search.step_ms.n{n}: no local search at n = {n} on this workload")
    if not blocks:
        notes.append("search.block_ms, search.parallel_eff: no exhaustive search on this workload")
    if slack_n is None:
        notes.append("bounds.max_equality_slack: no instance on this workload must be an equality")
    else:
        notes.append(f"bounds.max_equality_slack: largest at n = {slack_n}")
    return metrics, notes


# ---------------------------------------------------------------------------
# one run


def _median_each(dicts: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, max_ops: int | None = None):
    """One benchmark run; returns (report, result). ``max_ops`` cuts the op
    list, for the benchmark's own smoke test."""
    normsum = load_package()
    import workloads  # imports normsum, so only after load_package

    if workload not in workloads.WORKLOADS:
        raise RuntimeError(f"unknown workload {workload!r}; expected one of {workloads.WORKLOADS}")
    threads = machine.threads()
    attempted = failed = 0
    problems: list[str] = []
    setup_s = None
    if not trace:
        setup_s, setup_failed = measure_setup(ROOT)
        attempted, failed = SETUP_SPAWNS + 1, setup_failed
        if setup_failed:
            problems.append(f"{setup_failed} setup spawns did not answer {SETUP_ARGV}")

    wl = workloads.build(workload, seed, threads)
    ops = wl.ops[:max_ops]
    for argv in wl.warmup:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            normsum.cli.main(argv)
    untraced, traced = measure(normsum, ops, seconds, trace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # before the checks
    n_att, n_failed, found = check_passes(ops, untraced + traced)
    attempted, failed, problems = attempted + n_att, failed + n_failed, problems + found

    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "threads": threads,
        "ops_per_pass": len(ops),
        "fingerprint": machine.fingerprint(ROOT),
    }
    e2e, extra = end_to_end(ops, untraced, setup_s if setup_s is not None else 0.0, peak_rss_mb)
    extra["fail_frac"] = failed / attempted
    if trace:
        probe = probes(normsum)
        layers, notes = zip(*(per_layer(ops, ps, threads, probe) for ps in traced))
        metrics = _median_each(list(layers))
        metrics["trace_overhead"] = (
            statistics.median(ps.wall for ps in traced) / statistics.median(ps.wall for ps in untraced) - 1.0
        )
        report["per_layer"] = {k: {"value": metrics[k], "unit": u} for k, u in PER_LAYER.items()}
        report["notes"] = notes[0]
        report["traced_passes"] = len(traced)
        result_metrics = report["per_layer"]
    else:
        report["end_to_end"] = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
        result_metrics = report["end_to_end"]
    report["reported"] = {k: {"value": extra[k], "unit": REPORTED[k]} for k in REPORTED}
    report["samples"] = {"pass_walls": extra["pass_walls"], "op_latencies": extra["op_samples"]}
    report["failures"] = problems[:50]

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    if trace:
        with open(OUT_DIR / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for ps in traced:
                for s in ps.spans:
                    fh.write(json.dumps(dict(zip(SPAN_FIELDS, s))) + "\n")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload named in BENCHMARK.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    try:
        report, result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
