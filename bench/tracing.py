"""Spans around kaclab's public calls, recorded from outside the package.

Tracing works by replacing each traced function with a wrapper under every
name its callers look it up by: the defining module, every module that
imported it by name, and the class for methods.  Spans are kept in memory
as ``[name, start, end, parent, info]`` lists and written out at exit; the
untraced run never installs a wrapper.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
import weakref

import numpy as np


def _size(x) -> int:
    return int(np.size(x))


def _shape_info(args, kwargs, out):
    return {"size": int(out.shape[0]), "n": int(out.shape[1])}


def _level_info():
    seen: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def info(args, kwargs, out):
        ladder, n = args[0], int(args[1] if len(args) > 1 else kwargs["n"])
        built = seen.setdefault(ladder, {1})
        new = n not in built
        built.add(n)
        return {"n": n, "built": new, "grid": int(out.size)}

    return info


# (span name, owners, attribute, info) -- owners are "module" or
# "module:Class" strings; the first owner defines the function and the rest
# hold by-name imports of it.  Missing owners are skipped and reported.
def targets():
    return [
        ("sphere.uniform_sphere_batch",
         ["kaclab.sphere", "kaclab.process"], "uniform_sphere_batch",
         _shape_info),
        ("densities.GridDensity1D.__call__",
         ["kaclab.densities:GridDensity1D"], "__call__",
         lambda a, k, out: {"points": _size(out)}),
        ("normalization.NormalizationLadder.__init__",
         ["kaclab.normalization:NormalizationLadder"], "__init__", None),
        ("normalization.NormalizationLadder.level",
         ["kaclab.normalization:NormalizationLadder"], "level",
         _level_info()),
        ("normalization.NormalizationLadder.log_density",
         ["kaclab.normalization:NormalizationLadder"], "log_density",
         lambda a, k, out: {"points": _size(out)}),
        ("normalization.NormalizationLadder.log_z",
         ["kaclab.normalization:NormalizationLadder"], "log_z", None),
        ("normalization.clt_envelope",
         ["kaclab.normalization", "kaclab.cli"], "clt_envelope", None),
        ("normalization.lambda_profile",
         ["kaclab.normalization", "kaclab.inequalities"], "lambda_profile",
         None),
        ("conditioned.ConditionedFamily.__init__",
         ["kaclab.conditioned:ConditionedFamily"], "__init__", None),
        ("conditioned.ConditionedFamily.entropy",
         ["kaclab.conditioned:ConditionedFamily"], "entropy", None),
        ("conditioned.ConditionedFamily.production",
         ["kaclab.conditioned:ConditionedFamily"], "production", None),
        ("conditioned.ConditionedFamily.log_power_integral",
         ["kaclab.conditioned:ConditionedFamily"], "log_power_integral", None),
        ("conditioned.ConditionedFamily.sample",
         ["kaclab.conditioned:ConditionedFamily"], "sample",
         _shape_info),
        ("conditioned.ConditionedFamily.entropy_monte_carlo",
         ["kaclab.conditioned:ConditionedFamily"], "entropy_monte_carlo",
         None),
        ("conditioned.ConditionedFamily.production_monte_carlo",
         ["kaclab.conditioned:ConditionedFamily"], "production_monte_carlo",
         None),
        ("process.simulate", ["kaclab.process"], "simulate",
         lambda a, k, out: {"proposed": int(out.proposed),
                            "accepted": int(out.accepted)}),
        ("process.simulate_ensemble", ["kaclab.process", "kaclab.cli"],
         "simulate_ensemble",
         lambda a, k, out: {"replicas": int(out.shape[0]),
                            "n": int(out.shape[1])}),
        ("process.dirichlet_rayleigh", ["kaclab.process", "kaclab.cli"],
         "dirichlet_rayleigh", None),
        ("process.exact_gap_smalln", ["kaclab.process", "kaclab.cli"],
         "exact_gap_smalln",
         lambda a, k, out: {"n": int(a[0] if a else k["n"])}),
        ("process.generator_matrix_smalln", ["kaclab.process"],
         "generator_matrix_smalln", None),
        ("limit_eq.collision_operator", ["kaclab.limit_eq"],
         "collision_operator", None),
        ("limit_eq.limit_production", ["kaclab.limit_eq"], "limit_production",
         None),
        ("limit_eq.cercignani_ratio", ["kaclab.limit_eq", "kaclab.cli"],
         "cercignani_ratio", None),
        ("limit_eq.LimitSolver.__init__", ["kaclab.limit_eq:LimitSolver"],
         "__init__", None),
        ("limit_eq.LimitSolver.step", ["kaclab.limit_eq:LimitSolver"], "step",
         None),
        ("limit_eq.LimitSolver.entropy", ["kaclab.limit_eq:LimitSolver"],
         "entropy", None),
        ("limit_eq.LimitSolver.production", ["kaclab.limit_eq:LimitSolver"],
         "production", None),
        ("inequalities.gamma_ratio_sweep",
         ["kaclab.inequalities", "kaclab.cli"], "gamma_ratio_sweep", None),
        ("inequalities.moment_envelope", ["kaclab.inequalities"],
         "moment_envelope", None),
        ("inequalities.logpower_envelope",
         ["kaclab.inequalities", "kaclab.cli"], "logpower_envelope", None),
        ("inequalities.rescaled_inequality_check",
         ["kaclab.inequalities", "kaclab.cli"], "rescaled_inequality_check",
         None),
        ("cli.main", ["kaclab.cli"], "main",
         lambda a, k, out: {"command": (a[0] if a else k["argv"])[0],
                            "exit": int(out)}),
    ]


def _resolve(owner: str):
    mod_name, _, cls_name = owner.partition(":")
    obj = importlib.import_module(mod_name)
    return getattr(obj, cls_name) if cls_name else obj


class Tracer:
    """Installs wrappers, records spans and undoes the patching."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.missing: list[str] = []

    def span(self, name: str, fn, info=None):
        """Wrap ``fn`` so each call records a span under ``name``."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if info is not None:
                rec[4] = info(args, kwargs, out)
            return out

        return wrapper

    @contextlib.contextmanager
    def region(self, name: str):
        """A span around benchmark code."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def install(self) -> None:
        self.missing = []
        for name, owners, attr, info in targets():
            holders = []
            for owner in owners:
                try:
                    holder = _resolve(owner)
                except (ImportError, AttributeError):
                    continue
                if attr in vars(holder):
                    holders.append(holder)
            if not holders:
                self.missing.append(name)
                continue
            original = vars(holders[0])[attr]
            wrapped = self.span(name, original, info)
            for holder in holders:
                # only names bound to the same object are by-name imports
                if vars(holder)[attr] is original:
                    self._saved.append((holder, attr, original))
                    setattr(holder, attr, wrapped)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._saved):
            setattr(holder, attr, original)
        self._saved.clear()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [rec[2] - rec[1] for rec in spans]
    for rec in spans:
        if rec[3] >= 0:
            own[rec[3]] -= rec[2] - rec[1]
    return own
