"""Spans around the calls into normsum's public functions, from outside the
package.

Every function in ``normsum.__all__``, plus ``cli.main`` and
``cli.render_json``, is replaced by a recording wrapper at every
``normsum.*`` module attribute that references it, so calls made inside the
package are caught as well. A span is attributed to the module that defines
its function (``__module__``), so a function that moves keeps its layer.
A direct recursive call (``render_json`` on a nested value) stays inside its
caller's span. ``SplitMix64`` draws are counted without spans: a span would
cost more than the draw.
"""

from __future__ import annotations

import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


# Textbook operation counts (Golub and Van Loan) of the factorizations, plus
# the residual product each certificate computes. m >= n are the dimensions.
def _svd_flops(shape) -> float:
    m, n = max(shape), min(shape)
    return (14.0 + 2.0) * m * n * n + 8.0 * n**3


def _eigh_flops(shape) -> float:
    return (9.0 + 2.0) * shape[0] ** 3


def _first(args: tuple, kwargs: dict):
    return args[0] if args else next(iter(kwargs.values()))


# per-function size recorded on the span: computed flops or graph6 characters
_SIZES = {
    "svd": lambda args, kwargs, result: _svd_flops(np.shape(_first(args, kwargs))),
    "sym_eigen": lambda args, kwargs, result: _eigh_flops(np.shape(_first(args, kwargs))),
    "graph6_encode": lambda args, kwargs, result: len(result),
    "graph6_decode": lambda args, kwargs, result: len(_first(args, kwargs)),
}

# a span is a list of these fields; parent 0 means none
SPAN_FIELDS = ("id", "name", "layer", "start", "end", "parent", "op", "size")
ID, NAME, LAYER, START, END, PARENT, OP, SIZE = range(len(SPAN_FIELDS))


def public_functions(normsum) -> list:
    fns = [getattr(normsum, name) for name in normsum.__all__]
    fns += [normsum.cli.main, normsum.cli.render_json]
    return [fn for fn in fns if inspect.isfunction(fn)]


class Tracer:
    """Records spans and draw counts while installed. ``op`` tags new spans
    with the id of the op being run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        # itertools.count advances atomically under the interpreter lock,
        # which a shared int += 1 from the search's worker threads does not
        self._draws = itertools.count()
        self.draws = 0  # SplitMix64 draws, set when the tracer is removed
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn):
        name = fn.__name__
        layer = fn.__module__.rpartition(".")[2]
        size = _SIZES.get(name)
        local, spans, ids, clock = self._local, self.spans, self._ids, time.perf_counter

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack and stack[-1][NAME] is name:
                return fn(*args, **kwargs)
            span = [next(ids), name, layer, clock(), 0.0, stack[-1][ID] if stack else 0, self.op, 0]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                spans.append(span)
            if size is not None:
                span[SIZE] = size(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self, normsum):
        """Wrap the public functions and count draws for the duration."""
        wrappers = {id(fn): self._wrap(fn) for fn in public_functions(normsum)}
        try:
            for modname, module in list(sys.modules.items()):
                if modname != "normsum" and not modname.startswith("normsum."):
                    continue
                for attr, value in list(vars(module).items()):
                    wrapper = wrappers.get(id(value))
                    if wrapper is not None:
                        self._patches.append((module, attr, value))
                        setattr(module, attr, wrapper)
            cls = normsum.SplitMix64
            next64, draws = cls.next64, self._draws

            def counted_next64(rng):
                next(draws)
                return next64(rng)

            self._patches.append((cls, "next64", next64))
            cls.next64 = counted_next64
            yield self
        finally:
            for obj, attr, value in reversed(self._patches):
                setattr(obj, attr, value)
            self._patches.clear()
            self.draws = next(self._draws)


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s[PARENT]:
            covered[s[PARENT]] += s[END] - s[START]
    return {s[ID]: s[END] - s[START] - covered[s[ID]] for s in spans}
