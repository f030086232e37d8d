"""Machine fingerprint recorded with every result.

The benchmark reads these settings and changes none of them: thread counts,
affinity and BLAS configuration are whatever the caller's environment gives.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np

_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# names the OpenBLAS thread query has in plain and in numpy's bundled builds
_BLAS_THREAD_SYMBOLS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
)


def threads() -> int:
    """Worker threads the benchmark gives a search: the affinity mask size."""
    return len(os.sched_getaffinity(0))


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_libraries() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):
        return {}
    return {
        kind: {"name": deps[kind].get("name"), "version": deps[kind].get("version")}
        for kind in ("blas", "lapack")
        if kind in deps
    }


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from its .git directory; None outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def fingerprint(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": threads(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_lapack": _blas_libraries(),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in _BLAS_ENV if k in os.environ},
        "git_commit": _git_commit(root),
    }
