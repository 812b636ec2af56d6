"""Spans and call counters around the public functions of ``ncps``.

Everything here is applied from outside: the public functions are replaced,
in every ``ncps`` module that holds them, by wrappers that time the call, and
a few arithmetic methods by wrappers that count calls.  Nothing is patched
unless a traced worker calls :meth:`Tracer.install`, so the untraced runs
execute the package unmodified.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager
from importlib import import_module

# span name -> (module, attribute); "Class.method" patches a method
SPANS = {
    "symbols.dirac_symbol": ("ncps.symbols", "dirac_symbol"),
    "symbols.sqrt_symbol": ("ncps.symbols", "sqrt_symbol"),
    "symbols.invert_symbol": ("ncps.symbols", "invert_symbol"),
    "symbols.star_product": ("ncps.symbols", "star_product"),
    "heat.heat_coefficients": ("ncps.heat", "heat_coefficients"),
    "heat.mellin_inverse_power": ("ncps.heat", "mellin_inverse_power"),
    "functionals.wres": ("ncps.functionals", "wres"),
    "functionals.vanishing_level": ("ncps.functionals", "ResidueDensity.vanishing_level"),
    "numeric.build_operator": ("ncps.numeric", "build_operator"),
    "numeric.hermitian_eigenvalues": ("ncps.numeric", "hermitian_eigenvalues"),
    "numeric.heat_trace_operator": ("ncps.numeric", "heat_trace_operator"),
}

# counter name -> (module, "Class.method")
COUNTERS = {
    "scalars.mul_calls": ("ncps.scalars", "ExactScalar.__mul__"),
    "scalars.add_calls": ("ncps.scalars", "ExactScalar.__add__"),
    "scalars.scale_calls": ("ncps.scalars", "ExactScalar.scale"),
    "algebra.mul_calls": ("ncps.algebra", "AlgebraElement.__mul__"),
    "algebra.add_calls": ("ncps.algebra", "AlgebraElement.__add__"),
    "algebra.tau_is_zero_calls": ("ncps.algebra", "TauClass.is_zero"),
}


class Tracer:
    """Self time per span name and call counts, since the last :meth:`reset`.

    A span's self time is its duration minus the time of the spans nested in
    it, so the self times of one op add up to at most its wall time.
    """

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.self_s: dict[str, float] = {name: 0.0 for name in SPANS}
        self.total_s: dict[str, float] = {}
        self.counts = Counter({name: 0 for name in COUNTERS})
        self._child_s: list[float] = []

    @contextmanager
    def span(self, name: str):
        self._child_s.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - t0
            child = self._child_s.pop()
            self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
            self.total_s[name] = self.total_s.get(name, 0.0) + dur
            if self._child_s:
                self._child_s[-1] += dur

    def install(self) -> None:
        for name, (module, attr) in SPANS.items():
            _replace(module, attr, lambda fn, name=name: self._timed(name, fn))
        for name, (module, attr) in COUNTERS.items():
            _replace(module, attr, lambda fn, name=name: self._counted(name, fn))

    def _timed(self, name, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _replace(module: str, attr: str, make_wrapper) -> None:
    """Swap ``module.attr`` for a wrapper, wherever ``ncps`` refers to it."""
    owner = import_module(module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(owner, cls_name)
        setattr(cls, meth, make_wrapper(getattr(cls, meth)))
        return
    original = getattr(owner, attr)
    wrapper = make_wrapper(original)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "ncps" and getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapper)
