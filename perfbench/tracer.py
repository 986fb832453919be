"""Per-layer tracing installed from outside the package.

``Tracer.install`` replaces each traced function, on every ``hahn_forge``
module namespace that binds it, with a wrapper that records a span (name,
start, end, parent span, operation id) in flat in-memory arrays and, for
a few functions, a work count.  The package source is not edited.
``assert_coverage`` then proves that no module still reaches an original.
Self time of a span is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# (defining module, attribute, metric prefix) -- the layer is the module
TARGETS = [
    ("series", "HahnSeries.__mul__", "series.mul"),
    ("series", "HahnSeries.__add__", "series.add"),
    ("series", "HahnSeries.truncate_below", "series.truncate_below"),
    ("series", "field_op", "series.field_op"),
    ("series", "invert", "series.invert"),
    ("series", "nth_root", "series.nth_root"),
    ("rv", "rv_lambda", "rv.rv_lambda"),
    ("rv", "ball_mates", "rv.ball_mates"),
    ("prepare", "puiseux_roots", "prepare.puiseux_roots"),
    ("prepare", "prepare_polynomial", "prepare.prepare_polynomial"),
    ("prepare", "verify_preparation", "prepare.verify_preparation"),
    ("prepare", "jacobian_probe", "prepare.jacobian_probe"),
    ("prepare", "strong_unit_probe", "prepare.strong_unit_probe"),
    ("analytic", "evaluate_analytic", "analytic.evaluate_analytic"),
    ("analytic", "hensel_root", "analytic.hensel_root"),
    ("analytic", "implicit_series", "analytic.implicit_series"),
    ("algebraic", "isolate_real_roots", "algebraic.isolate_real_roots"),
    ("algebraic", "rational_roots", "algebraic.rational_roots"),
    ("multiseries", "weierstrass_divide", "multiseries.weierstrass_divide"),
    ("multiseries", "ms_mul", "multiseries.ms_mul"),
    ("multiseries", "strong_split", "multiseries.strong_split"),
    ("terms", "parse_term", "terms.parse_term"),
    ("terms", "eval_term", "terms.eval_term"),
    ("cli", "run_cli", "cli.run_cli"),
]

SOLVERS = ("series.invert", "series.nth_root", "analytic.hensel_root")
PREPARE_CORE = ("prepare.verify_preparation", "prepare.puiseux_roots")
OP_SPAN = "op"


class CoverageError(RuntimeError):
    """A package namespace still reaches an unwrapped traced function."""


class Tracer:
    def __init__(self, hf):
        self.hf = hf
        self.labels = [OP_SPAN]
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.stack = []
        self.op_id = -1
        self.raised = {}  # (label, exception class name) -> count
        self.counts = {}
        self.patches = []  # (owner, attribute, original)
        self.originals = {}  # id(original) -> label

    # -- spans ---------------------------------------------------------------

    def _open(self, label_id):
        i = len(self.start)
        self.name.append(label_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.start.append(0.0)
        self.stack.append(i)
        return i

    def begin_op(self, op_id):
        self.op_id = op_id
        i = self._open(0)
        self.start[i] = time.perf_counter()

    def end_op(self):
        i = self.stack.pop()
        self.end[i] = time.perf_counter()

    def _bump(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def _wrap(self, label, fn, after=None):
        label_id = len(self.labels)
        self.labels.append(label)
        start, end, stack, raised = self.start, self.end, self.stack, self.raised
        clock, opener = time.perf_counter, self._open

        def wrapper(*args, **kwargs):
            i = opener(label_id)
            start[i] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[i] = clock()
                stack.pop()
                key = (label, type(exc).__name__)
                raised[key] = raised.get(key, 0) + 1
                raise
            end[i] = clock()
            stack.pop()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", label)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _after_mul(self, args, result):
        a, b = args
        self._bump("series.mul.pairs", len(a.terms) * len(b.terms))
        self._bump("series.mul.terms_out", len(result.terms))

    def _after_truncate(self, args, result):
        self._bump("series.truncate_below.terms_in", len(args[0].terms))
        self._bump("series.truncate_below.terms_kept", len(result.terms))

    # -- install / remove ----------------------------------------------------

    def package_modules(self):
        return [m for n, m in sorted(sys.modules.items()) if (n == "hahn_forge" or n.startswith("hahn_forge.")) and m]

    def install(self):
        hooks = {"series.mul": self._after_mul, "series.truncate_below": self._after_truncate}
        modules = self.package_modules()
        for modname, attr, label in TARGETS:
            owner = getattr(self.hf, modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self.originals[id(original)] = label
                self.patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(label, original, hooks.get(label)))
                continue
            original = getattr(owner, attr)
            self.originals[id(original)] = label
            wrapper = self._wrap(label, original, hooks.get(label))
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self.patches.append((module, name, original))
                        setattr(module, name, wrapper)
        self.assert_coverage()

    def remove(self):
        for owner, name, original in reversed(self.patches):
            setattr(owner, name, original)
        self.patches.clear()

    def assert_coverage(self):
        """Every traced name in every package module must resolve to its wrapper.

        Scans module globals, containers held in them, class dictionaries
        and function defaults for a reference to an original.
        """
        leaks = []

        def scan(where, value, depth=0):
            if id(value) in self.originals and value is not None:
                leaks.append(f"{where} -> {self.originals[id(value)]}")
            elif depth == 0 and isinstance(value, (dict, list, tuple, set, frozenset)):
                items = value.values() if isinstance(value, dict) else value
                for v in items:
                    scan(f"{where}[...]", v, 1)

        for module in self.package_modules():
            for name, value in vars(module).items():
                where = f"{module.__name__}.{name}"
                scan(where, value)
                if isinstance(value, type) and value.__module__.startswith("hahn_forge"):
                    for attr, member in vars(value).items():
                        scan(f"{where}.{attr}", member)
                defaults = (getattr(value, "__defaults__", None) or ()) + tuple(
                    (getattr(value, "__kwdefaults__", None) or {}).values()
                )
                for d in defaults:
                    scan(f"{where} default", d)
        if leaks:
            raise CoverageError("untraced references: " + ", ".join(sorted(leaks)))

    # -- results -------------------------------------------------------------

    def self_times(self):
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return dur, own

    def covered_share(self, labels):
        """Time inside the outermost spans of ``labels``, over operation time."""
        wanted = {self.labels.index(x) for x in labels if x in self.labels}
        inside = bytearray(len(self.start))
        covered = total = 0.0
        for i, (n, p) in enumerate(zip(self.name, self.parent)):
            d = self.end[i] - self.start[i]
            if n == 0:
                total += d
            if p >= 0 and (inside[p] or self.name[p] in wanted):
                inside[i] = 1
            elif n in wanted:
                covered += d
        return covered / total if total else 0.0

    def metrics(self):
        _, own = self.self_times()
        calls = [0] * len(self.labels)
        self_s = [0.0] * len(self.labels)
        for n, t in zip(self.name, own):
            calls[n] += 1
            self_s[n] += t
        out = {}
        for label_id, label in enumerate(self.labels):
            if label_id == 0:
                continue
            out[f"{label}.calls"] = (calls[label_id], "count")
            out[f"{label}.self_s"] = (self_s[label_id], "s")
            out[f"{label}.raised"] = (sum(v for (lab, _), v in self.raised.items() if lab == label), "count")
        c = self.counts
        out["series.mul.pairs"] = (c.get("series.mul.pairs", 0), "count")
        out["series.mul.terms_out"] = (c.get("series.mul.terms_out", 0), "count")
        terms_in = c.get("series.truncate_below.terms_in", 0)
        out["series.truncate_below.kept_ratio"] = (
            c.get("series.truncate_below.terms_kept", 0) / terms_in if terms_in else 1.0,
            "ratio",
        )
        out["rv.rv_lambda.insufficient"] = (self.raised.get(("rv.rv_lambda", "InsufficientPrecision"), 0), "count")
        out["trace.solver_share"] = (self.covered_share(SOLVERS), "ratio")
        out["trace.prepare_share"] = (self.covered_share(PREPARE_CORE), "ratio")
        out["trace.spans"] = (len(self.start), "count")
        return out

    def write(self, path):
        """Spans as a JSON header line followed by the raw arrays."""
        header = {
            "labels": self.labels,
            "count": len(self.start),
            "arrays": [["start", "d"], ["end", "d"], ["name", "i"], ["parent", "i"], ["op", "i"]],
            "raised": [[lab, cls, n] for (lab, cls), n in sorted(self.raised.items())],
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for arr in (self.start, self.end, self.name, self.parent, self.op):
                arr.tofile(handle)
