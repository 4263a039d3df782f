"""Per-layer tracing of gaplab from outside the package.

Every public function of each gaplab module, and every private one that
another gaplab module imports by name, is replaced by a wrapper that counts
the call and times it.  The wrapper is bound wherever the original function
object is bound in a gaplab namespace, so names imported with `from ...
import` are covered too (klabel binds dirichlet's `phase_lift` and `_xi_grid`
that way).  Other private helpers are not wrapped; their time is their
caller's.  A call's self time is its duration minus the time of the traced
calls it made.  Counters that need a call's arguments or result
(points evaluated, integrator steps, matrix rows, ...) are taken at the same
boundary.  Aggregates are kept in memory and read out when the run ends.
"""

from __future__ import annotations

import inspect
import math
import os
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

MODULES = ("potentials", "prufer", "lattice", "spectrum", "rotation",
           "dirichlet", "klabel", "harness", "cli")


def _size(x) -> int:
    return int(np.size(x))


def _evaluate(tr, args, kwargs, result):
    tr.add("potentials.evaluate.points", _size(result))


def _theta_grid(tr, args, kwargs, result):
    theta = result[0] if isinstance(result, tuple) else result
    tr.add("prufer.theta_grid.components", _size(theta))
    if tr.active("dirichlet.trace_flow"):
        tr.add("dirichlet.trace_flow.passes", 1)


def _integrate(tr, args, kwargs, result):
    tr.add("prufer.integrate.steps", len(result.xs) - 1)


def _fd_tridiagonal(tr, args, kwargs, result):
    tr.add("lattice.fd_tridiagonal.rows", len(result[0]))


def _pi_trace(tr, args, kwargs, result):
    tr.add("klabel.pi_trace.ranks", sum(result.retained_counts))


def _trace_flow(tr, args, kwargs, result):
    fn = tr.original("dirichlet.trace_flow")
    bound = inspect.signature(fn).bind(*args, **kwargs).arguments
    span = float(bound["xi_to"]) - float(bound["xi_from"])
    dxi = float(bound["dxi"])
    # the returned curves are sampled on the grid of the last attempt, so
    # their spacing tells how often the offset step was halved
    spacings = [float(c.xi[1] - c.xi[0]) for c in result if len(c.xi) > 1]
    step = min(spacings) if spacings else dxi
    halvings = max(0, round(math.log2(dxi / step)))
    tr.add("dirichlet.trace_flow.halvings", halvings)
    tr.add("dirichlet.trace_flow.offsets", max(2, round(span / step) + 1))
    tr.add("dirichlet.trace_flow.curves", len(result))


def _persist(tr, args, kwargs, result):
    config = args[0] if args else kwargs["config"]
    out = config.out_dir
    tr.add("harness.persist.bytes",
           sum(os.path.getsize(os.path.join(out, f)) for f in os.listdir(out)))


EXTRA = {
    "potentials.evaluate": _evaluate,
    "prufer.theta_grid": _theta_grid,
    "prufer.integrate": _integrate,
    "lattice.fd_tridiagonal": _fd_tridiagonal,
    "klabel.pi_trace": _pi_trace,
    "dirichlet.trace_flow": _trace_flow,
    "harness.persist": _persist,
}


class Tracer:
    """Wraps gaplab's public functions while installed; see the module doc."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.self_seconds: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.top_level_s = 0.0
        self._stack: list[list[float]] = []
        self._active: Counter = Counter()
        self._originals: dict[str, types.FunctionType] = {}
        self._bindings: list[tuple[types.ModuleType, str, object]] = []

    def add(self, key: str, n) -> None:
        self.counts[key] += n

    def active(self, name: str) -> bool:
        return self._active[name] > 0

    def original(self, name: str):
        return self._originals[name]

    def _wrap(self, name: str, fn):
        stack = self._stack
        active = self._active
        extra = EXTRA.get(name)

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            active[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                active[name] -= 1
                self.calls[name] += 1
                self.seconds[name] += dt
                self.self_seconds[name] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                else:
                    self.top_level_s += dt
            if extra is not None:
                extra(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        gaplab_modules = [m for n, m in list(sys.modules.items())
                          if n == "gaplab" or n.startswith("gaplab.")]
        imported = {id(v) for m in gaplab_modules for v in vars(m).values()
                    if isinstance(v, types.FunctionType)
                    and v.__module__ != m.__name__}
        wrappers = {}
        for short in MODULES:
            module = sys.modules[f"gaplab.{short}"]
            for attr, fn in vars(module).items():
                if (isinstance(fn, types.FunctionType)
                        and fn.__module__ == module.__name__
                        and (not attr.startswith("_") or id(fn) in imported)):
                    name = f"{short}.{attr}"
                    self._originals[name] = fn
                    wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for module in gaplab_modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._bindings.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in self._bindings:
            setattr(module, attr, value)
        self._bindings.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
