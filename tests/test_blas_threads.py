"""Determinism across BLAS thread counts: the same ops, run in one process
with OPENBLAS_NUM_THREADS=1 and in one with 2, print the same bytes apart
from elapsed_ms. The ops cover an annealing run long enough for its walk to
undo flips (the restored screen state), a dense eigh of order >= 128 with
the complement's spectrum derived from its eigenbasis, an SVD of a
non-symmetric matrix, the batched eigvalsh of the exhaustive search, and a
sweep. Only 1 and 2 threads are compared, as the test was written on a
2-vCPU machine: counts above 2 are untested."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import normsum
from normsum import Graph, graph6_encode

# runs each argv of the JSON list in sys.argv[1] through cli.main, and prints
# one JSON line: the BLAS thread count it ran with (None when OpenBLAS cannot
# be asked), then the exit code and the stdout, elapsed_ms removed, of each
CHILD = r"""
import ctypes, io, json, re, sys
from contextlib import redirect_stdout
from normsum import cli

def blas_threads():
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line}
    except OSError:  # no /proc: the count cannot be asked
        return None
    for path in sorted(paths):
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(path), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None

runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.main(argv)
    runs.append([rc, re.sub(r'"elapsed_ms": -?\d+', "", out.getvalue())])
print(json.dumps([blas_threads(), runs]))
"""


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    rng = np.random.default_rng(18)
    bits = int.from_bytes(rng.bytes(200 * 199 // 16), "little")  # a G(200, 1/2)
    matrix = tmp_path / "nonsymmetric.csv"
    np.savetxt(matrix, rng.random((40, 40)), delimiter=",", fmt="%.17g")
    argvs = [
        ["search", "local", "--n", "16", "--steps", "300", "--restarts", "2", "--seed", "3",
         "--json"],
        ["check", "main", "--graph6", graph6_encode(Graph(n=200, bits=bits)), "--json"],
        ["norms", "--matrix", str(matrix), "--k", "3", "--json"],
        ["search", "exhaustive", "--n", "6", "--json"],
        ["sweep", "--trials", "20", "--seed", "5", "--json"],
    ]
    src = str(Path(normsum.__file__).resolve().parents[1])
    children = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        children.append(
            subprocess.Popen(
                [sys.executable, "-c", CHILD, json.dumps(argvs)],
                env=env,
                stdout=subprocess.PIPE,
                text=True,
            )
        )
    (one, runs), (two, runs_two) = (json.loads(c.communicate(timeout=120)[0]) for c in children)
    assert [child.returncode for child in children] == [0, 0]
    if one is not None and len(os.sched_getaffinity(0)) >= 2:
        assert (one, two) == (1, 2)  # the children ran with the counts asked for
    assert [rc for rc, _ in runs] == [0] * len(argvs)
    assert runs == runs_two
