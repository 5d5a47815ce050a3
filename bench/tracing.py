"""Per-layer tracing of swirlcurv from outside the package.

``install(tracer)`` rebinds the public functions of each module to wrappers
that record spans and counts.  A function imported by name into several
modules (``quad_real``, ``classify_criteria``, ...) is rebound in every one of
them, so each call is seen once, whichever module makes it.  Nothing under
``src/`` is edited; the wrappers live only in the tracing process.

Spans are kept in memory as ``[name, start, end, parent index]`` and
reduced to metrics by ``Tracer.metrics``; counters are plain integers.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from collections import Counter

import numpy as np

# span name -> (module, function names); one span name may cover several functions
SPANS = {
    "curvature.curvature_mode_closed": ("curvature", ["curvature_mode_closed"]),
    "curvature.curvature_mode_oracle": ("curvature", ["curvature_mode_oracle"]),
    "curvature.pressure_bvp_solve": ("curvature", ["pressure_bvp_solve"]),
    "curvature.curvature_normalized": ("curvature", ["curvature_normalized"]),
    "curvature.oscillation_study": ("curvature", ["oscillation_study"]),
    "modes.energy": ("modes", ["swirl_energy", "mode_energy", "cross_inner_product"]),
    "profile.classify_criteria": ("profile", ["classify_criteria"]),
    "jacobi.sl_spectrum": ("jacobi", ["sl_spectrum"]),
    "jacobi.assemble_jacobi": ("jacobi", ["assemble_jacobi"]),
    "jacobi.jacobi_residuals": ("jacobi", ["jacobi_residuals"]),
    "config.parse_config": ("config", ["parse_config"]),
    "cli.main": ("cli", ["main"]),
}

# counts that do not depend on the machine: two traced passes must agree exactly
EXACT_COUNTS = ("quadrature.evals", "radial.points", "bessel.evals",
                "jacobi.eigensolves", "jacobi.eigen_points")

BESSEL = ("i0e", "i1e", "k0e", "k1e")


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.stack = []
        self.counts = Counter()
        self.closed_pairs = set()
        self.solve_sizes = []    # distinct matrix sizes of each sl_spectrum call
        self.quad_depth = 0

    def reset(self):
        self.__init__()

    def span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
            self.stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[index][2] = time.perf_counter()
        return wrapper

    def metrics(self) -> dict:
        total = Counter()
        calls = Counter()
        child_time = Counter()
        for i, (name, start, end, parent) in enumerate(self.spans):
            total[name] += end - start
            calls[name] += 1
            if parent is not None:
                child_time[parent] += end - start
        main_self = sum(end - start - child_time[i]
                        for i, (name, start, end, _) in enumerate(self.spans)
                        if name == "cli.main")
        c = self.counts
        closed_calls = calls["curvature.curvature_mode_closed"]
        solves = sum(len(s) for s in self.solve_sizes)
        out = {f"{name}.s": float(total[name]) for name in SPANS if name != "cli.main"}
        out.update({
            "curvature.curvature_mode_closed.calls": closed_calls,
            # no call at all wastes nothing: report 1.0 rather than 0/0
            "curvature.closed_useful_ratio":
                len(self.closed_pairs) / closed_calls if closed_calls else 1.0,
            "curvature.pressure_bvp_solve.grid_points": c["curvature.grid_points"],
            "quadrature.calls": c["quadrature.calls"],
            "quadrature.evals": c["quadrature.evals"],
            "quadrature.nested_calls": c["quadrature.nested_calls"],
            "quadrature.accuracy_errors": c["quadrature.accuracy_errors"],
            "bessel.evals": c["bessel.evals"],
            "radial.calls": c["radial.calls"],
            "radial.points": c["radial.points"],
            "profile.classify_criteria.calls": calls["profile.classify_criteria"],
            "jacobi.sl_spectrum.calls": calls["jacobi.sl_spectrum"],
            "jacobi.eigensolves": c["jacobi.eigensolves"],
            "jacobi.eigen_points": c["jacobi.eigen_points"],
            "jacobi.grid_doublings": c["jacobi.grid_doublings"],
            "jacobi.useful_solve_ratio":
                sum(len(set(s)) for s in self.solve_sizes) / solves if solves else 1.0,
            "cli.self_s": main_self,
        })
        return out


def _rebind(package: str, original, replacement) -> None:
    """Point every ``package.*`` module attribute bound to ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == package or name.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _counted_calls(tracer: Tracer, calls_key, points_key, fn):
    @functools.wraps(fn)
    def wrapper(self, r, *args, **kwargs):
        tracer.counts[calls_key] += 1
        tracer.counts[points_key] += int(np.size(r))
        return fn(self, r, *args, **kwargs)
    return wrapper


class _CountingSpecial(types.ModuleType):
    """Stands in for ``scipy.special`` inside one module and counts Bessel values."""

    def __init__(self, real, tracer: Tracer):
        super().__init__(real.__name__)
        self._real = real
        for name in BESSEL:
            setattr(self, name, self._counted(getattr(real, name), tracer))

    @staticmethod
    def _counted(fn, tracer):
        def wrapper(x, *args, **kwargs):
            tracer.counts["bessel.evals"] += int(np.size(x))
            return fn(x, *args, **kwargs)
        return wrapper

    def __getattr__(self, name):
        return getattr(self._real, name)


def install(tracer: Tracer, package: str = "swirlcurv") -> None:
    """Wrap the package's layer boundaries; call once, after importing ``package.cli``."""
    mods = {name: sys.modules[f"{package}.{name}"]
            for name in ("cli", "config", "curvature", "modes", "profile", "jacobi",
                         "quadrature", "radial", "bessel", "errors")}

    for span_name, (mod, functions) in SPANS.items():
        for fn_name in functions:
            original = getattr(mods[mod], fn_name)
            _rebind(package, original, tracer.span(span_name, original))

    closed = mods["curvature"].curvature_mode_closed

    def closed_pairs(p, m, *args, **kwargs):
        # profile and mode objects live for one invocation, so their ids name a pair
        tracer.closed_pairs.add((tracer.counts["cli.invocations"], id(p), id(m)))
        return closed(p, m, *args, **kwargs)
    _rebind(package, closed, closed_pairs)

    solve_banded = mods["curvature"].solve_banded

    def counted_solve_banded(lu, ab, b, *args, **kwargs):
        tracer.counts["curvature.grid_points"] += len(b)
        return solve_banded(lu, ab, b, *args, **kwargs)
    mods["curvature"].solve_banded = counted_solve_banded

    main = mods["cli"].main

    def counted_main(*args, **kwargs):
        tracer.counts["cli.invocations"] += 1
        return main(*args, **kwargs)
    _rebind(package, main, counted_main)

    quad_real = mods["quadrature"].quad_real
    accuracy_error = mods["errors"].AccuracyError

    def traced_quad(fn, a, b, *args, **kwargs):
        tracer.counts["quadrature.calls"] += 1
        if tracer.quad_depth:
            tracer.counts["quadrature.nested_calls"] += 1

        def counted(x):
            tracer.counts["quadrature.evals"] += 1
            return fn(x)

        tracer.quad_depth += 1
        try:
            return quad_real(counted, a, b, *args, **kwargs)
        except accuracy_error:
            tracer.counts["quadrature.accuracy_errors"] += 1
            raise
        finally:
            tracer.quad_depth -= 1
    _rebind(package, quad_real, traced_quad)

    for mod in ("curvature", "bessel"):
        mods[mod].sp = _CountingSpecial(mods[mod].sp, tracer)

    jacobi = mods["jacobi"]
    eigh = jacobi.eigh_tridiagonal

    def counted_eigh(d, e, *args, **kwargs):
        tracer.counts["jacobi.eigensolves"] += 1
        tracer.counts["jacobi.eigen_points"] += len(d)
        if tracer.solve_sizes:
            tracer.solve_sizes[-1].append(len(d))
        return eigh(d, e, *args, **kwargs)
    jacobi.eigh_tridiagonal = counted_eigh

    spectrum = jacobi.sl_spectrum
    signature = inspect.signature(spectrum.__wrapped__)

    def counted_spectrum(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        tracer.solve_sizes.append([])
        result = spectrum(*args, **kwargs)
        doublings = int(round(np.log2(result.grid / bound.arguments["grid"])))
        tracer.counts["jacobi.grid_doublings"] += doublings
        return result
    _rebind(package, spectrum, counted_spectrum)

    for cls in (mods["radial"].PolynomialFunction, mods["radial"].ExpressionFunction,
                mods["radial"].TableFunction):
        for method in ("__call__", "derivative", "second_derivative"):
            setattr(cls, method, _counted_calls(tracer, "radial.calls", "radial.points",
                                                getattr(cls, method)))
