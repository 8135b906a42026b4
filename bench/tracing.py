"""Timing wrappers installed around darkfloquet's public functions.

Every function a darkfloquet module lists in ``__all__`` (or, for a module
without ``__all__``, every public function it defines) is replaced by a
wrapper wherever any darkfloquet module binds that name, so calls between
modules go through the wrapper too. A function's layer is the module that
defines it.

Two modes share the wrappers:

* untimed: no spans; only the time of the first call into ``harness`` (the
  end of set-up) and the invariant checks on returned objects. This is the
  mode of the timed runs.
* timed: one span per call (name, start, end, parent id), kept in memory
  until the run ends, plus counters and quality readings taken from the
  returned objects. The readings run after the span has ended, and their
  time is subtracted from the parent span, so they never count as work.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("cli", "harness", "floquet", "effective", "evolve", "linalg", "model")

# an invariant broken by more than this is an output failure
POPULATION_SUM_TOL = 1e-6


class StopAtHarness(Exception):
    """Raised by the first call into harness when only set-up is measured."""


def package_modules(package):
    """The package and every submodule, imported."""
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__):
        if not info.name.startswith("__"):
            mods.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return mods


def public_functions(modules):
    """Functions named in some module's ``__all__`` (or defined public in a
    module without one), keyed by identity."""
    found = {}
    for mod in modules:
        names = getattr(mod, "__all__", None)
        if names is None:
            names = [k for k, v in vars(mod).items()
                     if not k.startswith("_") and inspect.isfunction(v)
                     and v.__module__ == mod.__name__]
        for name in names:
            obj = getattr(mod, name, None)
            if inspect.isfunction(obj):
                found[id(obj)] = obj
    return found


class Tracer:
    def __init__(self, timed: bool, stop_at_harness: bool = False):
        self.timed = timed
        self.stop_at_harness = stop_at_harness
        self.first_harness_call = None
        self.first_harness_cpu = None
        self.spans = []   # [name, layer, start, end, parent, excluded]
        self._stack = []
        self.calls = Counter()
        self.errors = Counter()
        self.counters = Counter()
        self.readings = {}
        self.violations = []

    def install(self, package) -> None:
        """Rebind every public function, in every module of the package that
        binds it, to its wrapper."""
        modules = package_modules(package)
        wrappers = {key: self._wrap(fn) for key, fn in public_functions(modules).items()}
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, name, wrappers[id(obj)])

    def _wrap(self, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{fn.__name__}"
        if not self.timed:
            @functools.wraps(fn)
            def untimed(*args, **kwargs):
                if layer == "harness" and self.first_harness_call is None:
                    self._enter_harness()
                result = fn(*args, **kwargs)
                self.violations.extend(invariant_problems(result))
                return result
            return untimed

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if layer == "harness" and self.first_harness_call is None:
                self._enter_harness()
            parent = self._stack[-1] if self._stack else -1
            span = [name, layer, 0.0, 0.0, parent, 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[3] = time.perf_counter()
                self._stack.pop()
                self.errors[layer] += 1
                raise
            span[3] = time.perf_counter()
            self._stack.pop()
            self.calls[name] += 1
            self.violations.extend(invariant_problems(result))
            self._observe(layer, fn, args, kwargs, result)
            if parent >= 0:
                self.spans[parent][5] += time.perf_counter() - span[3]
            return result
        return timed

    def _enter_harness(self):
        self.first_harness_call = time.perf_counter()
        self.first_harness_cpu = time.process_time()
        if self.stop_at_harness:
            raise StopAtHarness

    def _reading(self, key: str, value: float, worst=max):
        value = float(value)
        self.readings[key] = worst(self.readings.get(key, value), value)

    def _observe(self, layer, fn, args, kwargs, result):
        """Counters and quality readings, from the returned object only
        (plus the call's own arguments where the object needs a reference)."""
        if layer == "evolve":
            if hasattr(result, "states") and hasattr(result, "times"):
                arrays = [result.times, result.states]
                self.counters["evolve.rk4_steps"] += len(result.times) - 1
                norms = np.linalg.norm(result.states, axis=-1)
                self._reading("evolve.norm_drift_max", np.max(np.abs(norms - 1.0)))
            elif isinstance(result, tuple):
                arrays = list(result)
                self.counters["evolve.rk4_steps"] += len(result[0]) - 1
                self._reading("evolve.unitarity_defect_max",
                              unitarity_defect(result[-1][..., -1, :, :]))
            else:
                # a bare propagator carries no time grid: take the step
                # count from the call's settings argument
                arrays = [result]
                bound = inspect.signature(fn).bind(*args, **kwargs)
                bound.apply_defaults()
                settings = bound.arguments.get("settings")
                self.counters["evolve.rk4_steps"] += getattr(settings, "steps_per_period", 0)
                self._reading("evolve.unitarity_defect_max", unitarity_defect(result))
            self.counters["evolve.bytes_kept"] = max(
                self.counters["evolve.bytes_kept"], sum(a.nbytes for a in arrays))
        elif hasattr(result, "eigenvalues") and hasattr(result, "eigenvectors"):
            a = np.asarray(args[0] if args else next(iter(kwargs.values())))
            vecs, vals = result.eigenvectors, result.eigenvalues
            self._reading("linalg.eigen_residual_max",
                          np.max(np.abs(a @ vecs - vecs * vals[None, :])))
        elif type(result).__name__ == "SweepResult":
            w = result.eigenvectors
            if len(w) > 1:
                overlap = np.abs(np.einsum("rjk,rjk->rk", w[:-1].conj(), w[1:]))
                self._reading("floquet.overlap_min", overlap.min(), worst=min)
        elif type(result).__name__ == "PropertyReport":
            self.counters["effective.checks"] += len(result.checks)

    def layer_summary(self) -> dict:
        """Self time per layer: span duration minus the time its child spans
        cover, minus the readings' time charged to it."""
        covered = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s = defaultdict(float)
        for i, (_, layer, start, end, _, excluded) in enumerate(self.spans):
            self_s[layer] += (end - start) - covered[i] - excluded
        layer_calls = Counter()
        for name, count in self.calls.items():
            layer_calls[name.split(".", 1)[0]] += count
        return {
            "self_s": {layer: self_s.get(layer, 0.0) for layer in LAYERS},
            "layer_calls": {layer: layer_calls.get(layer, 0) for layer in LAYERS},
            "errors": {layer: self.errors.get(layer, 0) for layer in LAYERS},
            "calls": dict(self.calls),
            "counters": dict(self.counters),
            "readings": self.readings,
            "spans": len(self.spans),
        }


def unitarity_defect(u: np.ndarray) -> float:
    u = np.asarray(u)
    eye = np.eye(u.shape[-1])
    return float(np.max(np.abs(np.swapaxes(u.conj(), -1, -2) @ u - eye)))


def invariant_problems(result) -> list[str]:
    """Invariants a returned object must satisfy on any input. Only the
    branch-tracked sweep carries values the CLI output does not show (the
    period-averaged populations), so it is the one object checked here."""
    if type(result).__name__ != "SweepResult":
        return []
    problems = []
    sums = np.asarray(result.avg_populations).sum(axis=-1)
    if not np.all(np.abs(sums - 1.0) <= POPULATION_SUM_TOL):
        problems.append("period-averaged populations do not sum to 1: worst "
                        f"{float(np.max(np.abs(sums - 1.0)))!r}")
    half = 0.5 * result.system_template.omega
    eps = np.asarray(result.quasi_energies)
    if not np.all((eps > -half) & (eps <= half)):
        problems.append("quasi-energy outside (-omega/2, omega/2]")
    return problems
