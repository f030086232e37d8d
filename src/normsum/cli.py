"""Command-line front door.

Subcommands map one-to-one onto the library: construct (paley, hadamard,
kyfan-extremal, opnorm-extremal), spectrum, norms, check (every bound kind
of bounds.BOUND_KINDS, plus weyl and equality), search (exhaustive, local),
and sweep.

Exit codes: 0 success with all verdicts holding, 1 when a checked bound is
violated (a scientific alarm, not a crash), 2 for usage, domain or overflow errors.

Every subcommand offers json and text output, construct paley also graph6,
and the other constructs, spectrum, check and sweep also csv (refused at
run time by check weyl and equality, which have no verdict row); argparse
refuses any other format before a handler runs.

JSON output is a single RunReport document; identical invocations are
byte-identical except for elapsed_ms. Floats are printed with 17
significant digits so doubles round-trip exactly.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import time
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from . import __version__
from .bounds import BOUND_KINDS, EQUALITY_TOL, HOLD_TOL, check_bound, equality_analysis
from .bounds import weyl_complement_check
from .constructions import hadamard, kyfan_extremal_matrix, opnorm_extremal_matrix
from .errors import NormsumError
from .graphs import (
    Graph,
    adjacency_matrix,
    graph6_decode,
    graph6_encode,
    paley_adjacency,
    paley_graph,
)
from .linalg import DIMENSION_CAP, DenseMatrix, SingularSpectrum, SpectrumPair
from .linalg import ky_fan_norm, operator_norm, trace_norm
from .search import (
    EXHAUSTIVE_MAX_N,
    LOCAL_MAX_N,
    SWEEP_KINDS,
    SearchConfig,
    exhaustive_max,
    local_search_max,
    property_sweep,
)


# ---------------------------------------------------------------------------
# JSON with fixed float formatting


def format_float(x: float) -> str:
    """17 significant digits, so doubles round-trip exactly; "null" if not finite.

    %g drops trailing zeros and uses fixed notation below 1e17, so integral
    values below 1e16 print as integers; adding 0.0 turns -0.0 into 0.
    """
    if not math.isfinite(x):
        return "null"
    return "%.17g" % (x + 0.0)


def _format_floats(values, sep: str) -> str:
    """Finite floats formatted as format_float does, joined by sep, in one %
    operation."""
    return sep.join(["%.17g"] * len(values)) % tuple([v + 0.0 for v in values])


def _render_floats(items, pad: str) -> str | None:
    """The rendered list body if every item is a finite float, else None.

    A finite sum rules out infinities and NaN among the items.
    """
    if set(map(type, items)) != {float} or not math.isfinite(sum(items)):
        return None
    return pad + "  " + _format_floats(items, ",\n" + pad + "  ")


def render_json(obj) -> str:
    """The JSON text of obj, as a RunReport is printed.

    A non-empty dict, list or tuple puts one item per line, indented two
    spaces per level; keys keep their order and go through str. Strings are
    escaped to ASCII exactly as json.dumps escapes them. Floats and numpy
    floats print as format_float does: 17 significant digits, -0.0 as 0, NaN
    and the infinities as null. A list or tuple met again at the same indent
    is rendered once and its text repeated. Any other type raises TypeError.
    """
    out: list[str] = []
    _emit(obj, "", out, {})
    return "".join(out)


def _emit(obj, pad: str, out: list[str], seen: dict) -> None:
    """Append the text of obj, indented by pad, to out.

    seen maps (id, pad) of each list or tuple rendered so far to the slice of
    out that holds its text. Every object it names is reachable from the
    object given to render_json, so no id is reused while seen lives.
    """
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{\n" + inner
        for k, v in obj.items():
            out.append(sep + _quote(str(k)) + ": ")
            _emit(v, inner, out, seen)
            sep = ",\n" + inner
        out.append("\n" + pad + "}")
    elif isinstance(obj, (list, tuple)):
        key = (id(obj), pad)
        if key in seen:
            start, stop = seen[key]
            out.extend(out[start:stop])
            return
        start = len(out)
        body = _render_floats(obj, pad) if obj else None
        if body is not None:
            out.append("[\n" + body + "\n" + pad + "]")
        elif not obj:
            out.append("[]")
        else:
            inner = pad + "  "
            sep = "[\n" + inner
            for v in obj:
                out.append(sep)
                _emit(v, inner, out, seen)
                sep = ",\n" + inner
            out.append("\n" + pad + "]")
        seen[key] = start, len(out)
    elif obj is None:
        out.append("null")
    elif obj is True or obj is False:
        out.append("true" if obj else "false")
    elif isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    else:
        raise TypeError(f"cannot render {type(obj).__name__} as JSON")


# ---------------------------------------------------------------------------
# Input loading


def _strict(convert):
    """convert for ASCII text without '_' only: int and float also read "1_0"
    as 10, and digits of every script. argparse names the error by convert."""

    @functools.wraps(convert)
    def parse(text: str):
        if not text.isascii() or "_" in text:
            raise ValueError(f"invalid {convert.__name__} value: {text!r}")
        return convert(text)

    return parse


_int, _float = _strict(int), _strict(float)


def _load_matrix_file(path: str) -> DenseMatrix:
    # utf-8-sig skips the byte-order mark that "CSV UTF-8" files start with
    with open(path, "r", encoding="utf-8-sig") as fh:
        text = fh.read()
    if text.lstrip().startswith(("{", "[")):  # JSON; an array is refused by from_json
        return DenseMatrix.from_json(json.loads(text))
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            rows.append([_float(tok) for tok in line.split(",")])
    if not rows:
        raise ValueError(f"no matrix rows found in {path}")
    for i, row in enumerate(rows[1:], 2):
        if len(row) != len(rows[0]):
            raise ValueError(
                f"ragged matrix in {path}: row {i} has {len(row)} entries,"
                f" the first row has {len(rows[0])}"
            )
    return DenseMatrix(rows)


_SOURCES = ("paley", "graph6", "edges", "matrix")
# the flags of the equality witnesses that check kyfan and opnorm can take as
# their input instead of a source: the first selects it, the rest shape it
_WITNESS_FLAGS = {"kyfan": ("order", "p", "q"), "opnorm": ("rows", "cols", "orientation")}


def _resolve_input(args) -> SpectrumPair | DenseMatrix:
    """Build the one input the flags name: a source, or the check witness. A
    graph comes as the SpectrumPair of its adjacency X and J - I - X."""
    witness = _WITNESS_FLAGS.get(getattr(args, "kind", None), ())
    flags = _SOURCES + sum(_WITNESS_FLAGS.values(), ())
    given = [f for f in flags if getattr(args, f, None) is not None]
    if witness and witness[0] in given and set(given) <= set(witness):
        if args.kind == "kyfan":
            return kyfan_extremal_matrix(
                args.order, args.p if args.p is not None else 1, args.q if args.q is not None else 1
            )
        if args.cols is None or args.orientation is None:
            raise ValueError("--rows needs --cols and --orientation")
        return opnorm_extremal_matrix(args.rows, args.cols, args.orientation)
    if len(given) != 1 or given[0] not in _SOURCES:
        raise ValueError(
            "exactly one input source required: --paley, --graph6, --edges, or --matrix"
            + (f", or --{witness[0]} and its witness flags" if witness else "")
        )
    src = given[0]
    if src == "matrix":
        return _load_matrix_file(args.matrix)
    if src == "paley":
        return SpectrumPair(paley_adjacency(args.paley), graph=True)
    if src == "graph6":
        g = graph6_decode(args.graph6)
    else:
        with open(args.edges, "r", encoding="utf-8-sig") as fh:
            g = Graph.from_json(json.load(fh))
    return SpectrumPair(adjacency_matrix(g), graph=True)


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (results dict or record, failed verdict flag)


def cmd_construct(args):
    kind = args.what
    if kind == "paley":
        g = paley_graph(args.order)
        results = {
            "kind": "paley",
            "n": g.n,
            "edge_count": g.edge_count,
            "graph6": graph6_encode(g),
        }
        return results, False
    if kind == "hadamard":
        h = hadamard(args.order)
        return {"kind": "hadamard", "order": h.order, "matrix": h.entries.to_json()}, False
    if kind == "kyfan-extremal":
        mat = kyfan_extremal_matrix(args.order, args.p, args.q)
        results = {
            "kind": "kyfan-extremal",
            "k": args.order,
            "p": args.p,
            "q": args.q,
            "rows": mat.rows,
            "cols": mat.cols,
            "matrix": mat.to_json(),
        }
        return results, False
    mat = opnorm_extremal_matrix(args.rows, args.cols, args.orientation)
    results = {
        "kind": "opnorm-extremal",
        "rows": mat.rows,
        "cols": mat.cols,
        "orientation": args.orientation,
        "matrix": mat.to_json(),
    }
    return results, False


def _input_spectra(args) -> tuple[SpectrumPair, SingularSpectrum, dict]:
    """The input's spectrum pair, its singular values and its shape fields."""
    pair = _resolve_input(args)
    if not isinstance(pair, SpectrumPair):
        pair = SpectrumPair(pair, graph=False)
    return pair, pair.sing(0), {"rows": pair.x.rows, "cols": pair.x.cols}


def cmd_spectrum(args):
    pair, sing, results = _input_spectra(args)
    if pair.symmetric:
        results["eigenvalues"] = list(pair.eig(0).values)
        results["eigen_residual"] = pair.eig(0).offdiag_residual
    results["singular_values"] = list(sing.values)
    results["svd_residual"] = sing.residual
    return results, False


def cmd_norms(args):
    pair, sing, results = _input_spectra(args)
    results |= {"trace_norm": trace_norm(sing), "operator_norm": operator_norm(sing)}
    if args.k is not None:
        results["ky_fan_k"] = args.k
        results["ky_fan_norm"] = ky_fan_norm(sing, args.k)
    if pair.graph:
        results["complement_trace_norm"] = trace_norm(pair.sing(1))
        results["trace_sum"] = results["trace_norm"] + results["complement_trace_norm"]
    return results, False


def cmd_check(args):
    kind = args.kind
    if args.k is not None and kind in ("weyl", "equality"):
        raise ValueError(f"k applies only to bound kind 'kyfan', got k={args.k!r} for {kind!r}")
    obj = _resolve_input(args)
    # the kyfan witness is checked at its own index unless --k says otherwise
    k = args.k if args.k is not None else args.order
    # without --tol, the library's default for the kind applies
    tol = {} if args.tol is None else {"tol": args.tol}
    if kind == "equality":
        return equality_analysis(obj, **tol), False
    if kind == "weyl":
        wreport = weyl_complement_check(obj, **tol)
        return wreport, not wreport.ok
    verdict = check_bound(kind, obj, k=k, **tol)
    return verdict, not verdict.holds


def cmd_search(args):
    # no search reads more than one thread, so 'auto' means 1; the search checks an integer
    threads = 1 if args.threads in (None, "auto") else _int(args.threads)
    if args.mode == "exhaustive":
        result = exhaustive_max(args.n, k=args.k, threads=threads)
    else:
        cfg = SearchConfig(
            restarts=args.restarts,
            max_steps=args.steps,
            temperature_initial=args.t0,
            cooling=args.cooling,
            seed=args.seed if args.seed is not None else 0,
        )
        result = local_search_max(args.n, k=args.k, cfg=cfg, threads=threads)
    return result, False


def cmd_sweep(args):
    kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
    report = property_sweep(
        trials=args.trials,
        seed=args.seed if args.seed is not None else 0,
        n_range=(args.n_min, args.n_max),
        kinds=kinds,
        **({} if args.tol is None else {"tol": args.tol}),
    )
    return report, report.total_violations > 0


# ---------------------------------------------------------------------------
# Parser


_RUN_FLAGS = {
    "tol": dict(
        type=_float,
        default=None,
        help=f"verdict tolerance (default {HOLD_TOL}, or {EQUALITY_TOL} for check equality)",
    ),
    "seed": dict(type=_int, default=None, help="64-bit seed for randomized runs"),
    "threads": dict(
        default=None,
        help="an integer, which is checked, or 'auto'; searches run on one thread either way",
    ),
}


def _add_common(sub, formats, *run_flags):
    """The output flags, offering json and text and the subcommand's other
    formats, plus the named _RUN_FLAGS that this subcommand reads."""
    for name in run_flags:
        sub.add_argument(f"--{name}", **_RUN_FLAGS[name])
    # the default is the parser's, not the flags': argparse takes a flag whose
    # value *is* its default as absent, so "--format text --csv" would pass
    sub.set_defaults(format="text")
    fmt = sub.add_mutually_exclusive_group()
    fmt.add_argument(
        "--format",
        choices=("json", *formats, "text"),
        default=argparse.SUPPRESS,
        help="output format (default text)",
    )
    for name in ("json", "csv") if "csv" in formats else ("json",):
        fmt.add_argument(
            f"--{name}",
            action="store_const",
            const=name,
            dest="format",
            default=argparse.SUPPRESS,
            help=f"shorthand for --format {name}",
        )
    sub.add_argument("--out", default=None, help="write output to this path instead of stdout")


def _add_input_flags(sub):
    sub.add_argument(
        "--paley",
        type=_int,
        default=None,
        help=f"use the Paley graph of this order (at most {DIMENSION_CAP})",
    )
    sub.add_argument("--graph6", default=None, help="graph given as a graph6 string")
    sub.add_argument("--edges", default=None, help="path to a JSON edge-list file")
    sub.add_argument("--matrix", default=None, help="path to a JSON or CSV matrix file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normsum",
        description="Trace/Ky Fan/operator norm sums of graphs and matrices: "
        "constructions, bound checks, searches, sweeps.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("construct", help="build a named object")
    csub = p.add_subparsers(dest="what", required=True)
    cp = csub.add_parser(
        "paley", help=f"Paley graph of prime-power order q = 1 (mod 4), q <= {DIMENSION_CAP}"
    )
    cp.add_argument("order", type=_int)
    _add_common(cp, ("graph6",))
    ch = csub.add_parser("hadamard", help="Hadamard matrix of a supported order")
    ch.add_argument("order", type=_int)
    _add_common(ch, ("csv",))
    ck = csub.add_parser("kyfan-extremal", help="Ky Fan equality witness for index k")
    ck.add_argument("order", type=_int, help="the norm index k (needs a Hadamard of order k-1)")
    ck.add_argument("--p", type=_int, default=1, help="row block multiplicity")
    ck.add_argument("--q", type=_int, default=1, help="column block multiplicity")
    _add_common(ck, ("csv",))
    co = csub.add_parser("opnorm-extremal", help="half-ones operator norm equality witness")
    co.add_argument("rows", type=_int)
    co.add_argument("cols", type=_int)
    co.add_argument("--orientation", choices=("rows", "columns"), required=True)
    _add_common(co, ("csv",))

    p = subs.add_parser("spectrum", help="eigen/singular values of a graph or matrix")
    _add_input_flags(p)
    _add_common(p, ("csv",))

    p = subs.add_parser("norms", help="trace, operator, and Ky Fan norms")
    _add_input_flags(p)
    p.add_argument("--k", type=_int, default=None, help="also report the Ky Fan k-norm")
    _add_common(p, ())

    p = subs.add_parser("check", help="evaluate a bound or equality analysis")
    p.add_argument("kind", choices=BOUND_KINDS + ("weyl", "equality"))
    _add_input_flags(p)
    p.add_argument("--k", type=_int, default=None, help="Ky Fan index for kind kyfan")
    p.add_argument("--order", type=_int, default=None, help="kyfan: build the witness for this k")
    p.add_argument("--p", type=_int, default=None, help="kyfan witness row multiplicity")
    p.add_argument("--q", type=_int, default=None, help="kyfan witness column multiplicity")
    p.add_argument("--rows", type=_int, default=None, help="opnorm: build the witness, row count")
    p.add_argument("--cols", type=_int, default=None, help="opnorm witness column count")
    p.add_argument("--orientation", choices=("rows", "columns"), default=None)
    _add_common(p, ("csv",), "tol")

    p = subs.add_parser("search", help="maximize a norm sum over graphs")
    ssub = p.add_subparsers(dest="mode", required=True)
    se = ssub.add_parser(
        "exhaustive", help=f"every graph up to isomorphism, n <= {EXHAUSTIVE_MAX_N}"
    )
    sl = ssub.add_parser("local", help=f"seeded annealing over edge flips, n <= {LOCAL_MAX_N}")
    for sp in (se, sl):
        sp.add_argument("--n", type=_int, required=True)
        sp.add_argument("--k", type=_int, default=None, help="maximize kyfan_sum, not trace_sum")
    _add_common(se, (), "threads")
    cfg = SearchConfig()
    sl.add_argument("--restarts", type=_int, default=cfg.restarts)
    sl.add_argument("--steps", type=_int, default=cfg.max_steps)
    sl.add_argument("--t0", type=_float, default=cfg.temperature_initial)
    sl.add_argument("--cooling", type=_float, default=cfg.cooling)
    _add_common(sl, (), "seed", "threads")

    p = subs.add_parser("sweep", help="randomized property sweep over the checkers")
    p.add_argument("--trials", type=_int, required=True)
    p.add_argument(
        "--kinds",
        default=",".join(SWEEP_KINDS),
        help=f"comma-separated subset of {','.join(SWEEP_KINDS)}",
    )
    p.add_argument("--n-min", type=_int, default=4, dest="n_min")
    p.add_argument("--n-max", type=_int, default=12, dest="n_max")
    _add_common(p, ("csv",), "tol", "seed")

    return parser


_HANDLERS = {
    "construct": cmd_construct,
    "spectrum": cmd_spectrum,
    "norms": cmd_norms,
    "check": cmd_check,
    "search": cmd_search,
    "sweep": cmd_sweep,
}


def _plain(obj):
    """A record as the dict of its fields, a tuple of records as the list of
    their dicts, any other value as the same object (so a shared witness renders once)."""
    if dataclasses.is_dataclass(obj):
        return {f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, tuple) and obj and dataclasses.is_dataclass(obj[0]):
        return [_plain(item) for item in obj]
    return obj


def _csv(command: str, results: dict) -> str:
    """The CSV form of the results of a subcommand that offers csv: a
    construct's matrix rows; a spectrum's index, eigenvalue and singular
    value columns, the eigenvalue empty for a non-symmetric input; a bound
    check's verdict row; a sweep's row per kind."""
    if command == "construct":
        mat = results["matrix"]
        flat, cols = mat["entries"], mat["cols"]
        return "\n".join(_format_floats(flat[i : i + cols], ",") for i in range(0, len(flat), cols))
    if command == "spectrum":
        sing = results["singular_values"]
        eigs = results.get("eigenvalues", [""] * len(sing))
        header = ("index", "eigenvalue", "singular_value")
        lines = [header, *zip(range(1, len(sing) + 1), eigs, sing)]
    elif command == "check":
        header = ("kind", "lhs", "rhs", "slack", "holds", "equality")
        lines = [header, [results[h] for h in header]]
    else:
        header = ("kind", "trials", "passes", "violations", "worst_slack")
        lines = [header, *([r[h] for h in header] for r in results["results"])]
    return "\n".join(
        ",".join(format_float(v) if isinstance(v, float) else str(v) for v in row) for row in lines
    )


def _text_lines(results: dict, prefix: str = "") -> list[str]:
    lines = []
    for key, val in results.items():
        if isinstance(val, dict):
            lines.append(f"{prefix}{key}:")
            lines.extend(_text_lines(val, prefix + "  "))
        elif isinstance(val, (list, tuple)) and val and isinstance(val[0], dict):
            for i, item in enumerate(val):
                lines.append(f"{prefix}{key}[{i}]:")
                lines.extend(_text_lines(item, prefix + "  "))
        elif isinstance(val, (list, tuple)) and val and isinstance(val[0], (int, float)):
            body = " ".join(
                format_float(float(v)) if isinstance(v, float) else _text_scalar(v) for v in val
            )
            lines.append(f"{prefix}{key}: {body}")
        elif isinstance(val, (list, tuple)):
            lines.append(f"{prefix}{key}: {', '.join(_text_scalar(v) for v in val)}")
        elif isinstance(val, float):
            lines.append(f"{prefix}{key}: {format_float(val)}")
        else:
            lines.append(f"{prefix}{key}: {_text_scalar(val)}")
    return lines


def _text_scalar(val) -> str:
    """str(val), except that an absent value prints as JSON's null."""
    return "null" if val is None else str(val)


# built on first use and reused: parsing leaves the parser unchanged
_parser = functools.lru_cache(maxsize=1)(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # check offers csv, but only its bound kinds have a verdict row
    if args.format == "csv" and getattr(args, "kind", None) in ("weyl", "equality"):
        print("error: no CSV form for this subcommand", file=sys.stderr)
        return 2

    started = time.perf_counter()
    try:
        results, failed = _HANDLERS[args.command](args)
    except (NormsumError, ValueError, ArithmeticError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed_ms = int(round((time.perf_counter() - started) * 1000))
    results = _plain(results)

    if args.format == "json":
        inputs = {
            k: v
            for k, v in sorted(vars(args).items())
            if k not in ("command", "what", "mode", "format", "out") and v is not None
        }
        report = {
            "command": args.command if args.command != "construct" else f"construct {args.what}",
            "inputs": inputs,
            "results": results,
            "tool_version": __version__,
            "elapsed_ms": elapsed_ms,
        }
        out = render_json(report)
    elif args.format == "csv":
        out = _csv(args.command, results)
    elif args.format == "graph6":
        out = results["graph6"]
    else:
        out = "\n".join(_text_lines(results))

    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(out + "\n")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        print(out)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
