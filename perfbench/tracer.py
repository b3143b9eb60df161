"""Per-layer tracing of the conewalks package, applied from outside.

Each module of ``src/conewalks`` is one layer.  ``Tracer.install`` wraps
the public functions of every module, the public and arithmetic methods
of the series, Laurent, Gaussian and closed-form classes, and the
property getters of the ``decompose`` pipelines.  It records a span
around each call and keeps for each span kind its call count and its
self time (span time minus the time of the spans it encloses).  It also keeps the exact work
counts the benchmark reports: DP frontiers yielded by ``walks._layers``,
residual evaluations made by ``engine.solve_algebraic``, term products of
Laurent multiplications, and the time to each verdict of ``verify``.

The package binds many functions by name (``from .walks import
count_walks``) and stores others in tables (``engine._BUILDERS``,
``identities.IDENTITIES``), so every such reference in every module is
replaced too; otherwise those calls would escape the trace.

Run as a script, it executes one ``conewalks`` command under the tracer
and prints one JSON object: exit code, captured standard output, and the
trace.

    PYTHONPATH=src python3 perfbench/tracer.py verify --suite all --order 16
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("walks", "laurent", "gaussian", "series", "engine", "decompose",
          "closedforms", "identities", "bfile", "cli")

# Classes whose methods get spans.  Methods of other classes (such as the
# per-cell ``walks.Region.contains``) run inside their caller's span, so
# that tracing costs little where calls are small and many.
CLASSES = {"Series1", "Series2", "LPoly", "LPoly2", "GaussianRational",
           "ClosedForm"}

ARITHMETIC = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__neg__", "__pow__", "__truediv__", "__rtruediv__"}

# Span kinds that get their own metric; every other span of a layer has
# the kind "other".  Property getters of ``decompose`` have kind "extract".
KINDS = {
    ("series", "__mul__"): "mul",
    ("series", "__rmul__"): "mul",
    ("series", "divide"): "divide",
    ("series", "__truediv__"): "divide",
    ("series", "inverse"): "divide",
    ("series", "compose"): "compose",
    ("series", "sqrt"): "sqrt",
    ("laurent", "__mul__"): "mul",
    ("laurent", "__rmul__"): "mul",
    ("engine", "solve_algebraic"): "solve",
    ("engine", "kernel_root_Y"): "kernel_root_Y",
    ("closedforms", "count"): "count",
}


def _nterms(value) -> int:
    """Number of terms of a Laurent factor; a scalar counts as a constant."""
    terms = getattr(value, "terms", None)
    if terms is not None:
        return len(terms)
    return 1 if value else 0


class Tracer:
    """Span and count accounting for one traced process."""

    def __init__(self):
        self.self_s = defaultdict(float)  # "layer.kind" -> self seconds
        self.calls = Counter()             # "layer.kind" -> span count
        self.counts = Counter()            # exact work counters
        self.verdict_s = []                # time to each verify verdict
        self._child_s = [0.0]              # enclosed span time, per open span
        self._frontiers = set()            # (model, layer index) yielded
        self._verdict_t0 = None
        self._closed_form = None

    # -- spans -----------------------------------------------------------

    def _span(self, fn, key, before=None, after=None):
        child_s = self._child_s
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            child_s.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - t0
                self_s[key] += span - child_s.pop()
                child_s[-1] += span
                calls[key] += 1
                if after is not None:
                    after()

        return traced

    def _hooks(self, layer, name):
        """Extra accounting (before, after) for the spans that need it."""
        if layer == "laurent" and name in ("__mul__", "__rmul__"):
            def before(args, kwargs):
                self.counts["laurent.mul.term_products"] += (
                    _nterms(args[0]) * _nterms(args[1]))
                return args, kwargs
            return before, None
        if layer == "engine" and name == "solve_algebraic":
            def before(args, kwargs):
                residual = args[0]

                def counted(G):
                    self.counts["engine.solve.residual_evals"] += 1
                    return residual(G)
                return (counted,) + tuple(args[1:]), kwargs
            return before, None
        if layer == "closedforms" and name == "count":
            def before(args, kwargs):
                # The closed-forms suite evaluates one catalog entry for
                # n = 0, 1, ...; a new entry means the previous verdict is in.
                if args[0] is not self._closed_form:
                    if self._closed_form is not None:
                        self._verdict()
                    self._closed_form = args[0]
                return args, kwargs
            return before, None
        if layer in ("engine", "identities") and name in ("run_check",
                                                          "run_identity"):
            return None, self._verdict
        if layer == "cli" and name == "run_suite":
            def before(args, kwargs):
                self._verdict_t0 = time.perf_counter()
                return args, kwargs

            def after():
                if self._closed_form is not None:
                    self._verdict()
                self._closed_form = None
                self._verdict_t0 = None
            return before, after
        return None, None

    def _verdict(self):
        if self._verdict_t0 is None:
            return
        now = time.perf_counter()
        self.verdict_s.append(now - self._verdict_t0)
        self._verdict_t0 = now

    def _layers(self, fn):
        """Count sweeps and frontiers of the DP generator (no span: its
        body runs inside the span of the function consuming it)."""

        @functools.wraps(fn)
        def counted(model, n):
            self.counts["walks.sweeps"] += 1
            for index, frontier in enumerate(fn(model, n)):
                self.counts["walks.layers"] += 1
                self._frontiers.add((model, index))
                yield frontier

        return counted

    # -- installation ----------------------------------------------------

    def _wrap(self, layer, name, fn, kind=None):
        before, after = self._hooks(layer, name)
        kind = kind or KINDS.get((layer, name), "other")
        return self._span(fn, f"{layer}.{kind}", before, after)

    def _wrap_class(self, layer, cls, replaced):
        for name, member in list(vars(cls).items()):
            if isinstance(member, property) and member.fget is not None:
                kind = "extract" if layer == "decompose" else None
                fget = self._wrap(layer, name, member.fget, kind)
                setattr(cls, name, property(fget, member.fset, member.fdel,
                                            member.__doc__))
            elif name.startswith("_") and name not in ARITHMETIC:
                continue
            elif isinstance(member, (classmethod, staticmethod)):
                wrapped = self._wrap(layer, name, member.__func__)
                replaced[member.__func__] = wrapped
                setattr(cls, name, type(member)(wrapped))
            elif inspect.isfunction(member):
                setattr(cls, name, self._wrap(layer, name, member))

    def install(self):
        """Wrap every layer of the ``conewalks`` package in place."""
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"conewalks.{layer}")
            except ModuleNotFoundError:
                continue
        replaced = {}  # original callable -> wrapper
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    if name in CLASSES or layer == "decompose":
                        self._wrap_class(layer, obj, replaced)
                elif name == "_layers" and layer == "walks":
                    replaced[obj] = self._layers(obj)
                elif callable(obj) and not name.startswith("_"):
                    replaced[obj] = self._wrap(layer, name, obj)
        # Rebind every reference: module attributes, names bound by
        # ``from ... import``, and functions held in module-level tables.
        for module in modules.values():
            namespace = vars(module)
            for name, obj in list(namespace.items()):
                if name.startswith("__"):
                    continue
                namespace[name] = self._rebind(obj, replaced)
                if isinstance(obj, dict):
                    for key, value in obj.items():
                        obj[key] = self._rebind(value, replaced)
        return self

    @staticmethod
    def _rebind(obj, replaced):
        try:
            if obj in replaced:
                return replaced[obj]
        except TypeError:  # unhashable
            return obj
        if isinstance(obj, tuple):
            return tuple(Tracer._rebind(item, replaced) for item in obj)
        func = getattr(obj, "__func__", None)
        if inspect.ismethod(obj) and func in replaced:
            return replaced[func].__get__(obj.__self__)
        return obj

    # -- results ---------------------------------------------------------

    def summary(self) -> dict:
        counts = dict(self.counts)
        counts["walks.layers_needed"] = len(self._frontiers)
        for key, n in self.calls.items():
            counts[f"{key}.calls"] = n
        return {
            "counts": counts,
            "self_s": dict(self.self_s),
            "verdict_s": self.verdict_s,
        }


def main(argv) -> int:
    tracer = Tracer().install()
    from conewalks import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    json.dump({"exit": code, "stdout": out.getvalue(), **tracer.summary()},
              sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
