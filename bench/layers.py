"""Per-call times of the solver and root-expansion layers in two checkouts, written to one JSON file.

Usage (from anywhere)::

    python3 bench/layers.py PARENT_DIR CHANGE_DIR --out BENCH_layers.json --repeats 5

``PARENT_DIR`` and ``CHANGE_DIR`` are two checkouts of the repository.  The
calls are the ``invert``, ``nth_root`` and ``hensel_root`` operations (the
Catalan fixture counts as a ``hensel_root``) of ``ROUNDS`` rounds of the
benchmark's ``newton`` workload at ``SEED``, and the ``evaluate_analytic``
call of each ``exp``/``sin``/``cos``/``log1p`` ``eval`` command of
``ROUNDS`` rounds of its ``cli`` workload at ``SEED``, the ``eval_term``
call of each power ``eval`` command of those rounds, and the
``puiseux_roots`` calls of root expansion: for each ``prepare_polynomial``
operation of ``ROUNDS`` rounds of the ``prepare`` workload at ``SEED``, one
call per member of the polynomial's derivative chain at depth lam + 4, as
``preparing_set`` makes them, and the call of each ``roots`` command of the
``cli`` rounds.  The ``weierstrass_divide``, ``implicit_series`` and
``strong_unit_probe`` layers are the call of each ``divide``, each
``implicit`` and each ``probe-unit`` command of the ``cli`` rounds.  The
``poly_eval`` layer times, as one call per ``prepare_polynomial``
operation of those ``prepare`` rounds, every Horner
call that the operation makes (exact arguments); the ``hensel_poly_eval``
layer times, as one call per ``hensel_root`` operation of the ``newton``
rounds (the Catalan fixture included), the Horner calls of the residual
and the slope that ``hensel_root`` makes (inexact arguments).  The
``substitute`` layer times, as one call per ``prepare_polynomial``
operation of those ``prepare`` rounds and one per ``roots`` command of the
``cli`` rounds, every ``prepare._substitute`` call (the shift of root
expansion) that the operation or command makes, recorded from one run with
its arguments deep-copied as they were at the call.  The ``field_roots``
layer times the same way every ``prepare._field_roots`` call (the roots of
each edge polynomial), and the ``enclosure`` layer every
``prepare._make_root`` call (which encloses each algebraic coefficient of a
branch by refining its generator's interval); as an enclosure refines that
interval in place, each timed call first puts back every interval it
starts from.  All are
generated by the parent's ``perfbench/workloads.generate``, so both sides
time the same inputs.  The
child finds the arguments of an ``evaluate_analytic``, ``eval_term``,
``roots``, ``divide``, ``implicit`` or ``probe-unit`` call by running the
command once through ``run_cli`` and recording the call it makes
(``eval_term``, ``weierstrass_divide``, ``implicit_series`` and
``strong_unit_probe`` as ``cli`` calls them), and
those of the Horner and shift calls by running the operation once with
``prepare.poly_eval``, ``analytic.poly_eval`` or ``prepare._substitute``
patched to record them.

Each repeat runs one fresh interpreter per checkout, in alternating order
(parent first on even repeats, change first on odd ones).  The child
imports the package from the checkout's ``src``, parses every input, makes
each call once untimed, then times every call in ``PASSES`` passes and
keeps each call's median.  Across repeats a call's time is the median of
its per-process times.  Per layer the file records, for each side, the
median and quartiles of the per-call times and their sum (one pass over
all calls), and the median over calls of the change's time over the
parent's.

A whole child can run faster or slower than the next on a shared host, so
each child also times the parent's ``perfbench/calibrate.kernel()``, a
fixed piece of work that does not call the package, ``CONTROL_RUNS`` times
after each pass, and takes the median as that pass's control time.  A
call's time over control is the median over passes of its time over its
pass's control time.  Per layer and side the file also records the
quartiles over repeats of the layer's summed time over control, the ratio
of the change's median to the parent's, and the parent's spread
(interquartile range over median): a change smaller than that spread is
noise.

It exits 1, after writing the file, if the two sides' outputs differ: the
``format_series`` text of each result (for ``puiseux_roots`` and
``enclosure`` the JSON of the roots' ``to_dict``, for the division layers
the ``format_multiseries`` text of each part, for ``strong_unit_probe`` the
report's ``to_json()``, for ``substitute`` the
exponent, type and coordinates of every term, for ``field_roots`` each
root's value or coordinates with its generator's witness and interval, its
multiplicity, and the complex pairs), or the class and message of the
error it raised.  Children run with ``PYTHONDONTWRITEBYTECODE=1`` in a
temporary directory and the parent's ``perfbench`` is imported without
writing bytecode, so nothing is written into either checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path

sys.dont_write_bytecode = True
from pairs import quartiles  # noqa: E402 - after the bytecode switch

LAYERS = {"invert": "invert", "nth_root": "nth_root", "hensel_root": "hensel_root", "catalan": "hensel_root",
          "evaluate_analytic": "evaluate_analytic", "eval_term": "eval_term", "puiseux_roots": "puiseux_roots",
          "poly_eval": "poly_eval", "hensel_poly_eval": "hensel_poly_eval", "weierstrass_divide": "weierstrass_divide",
          "implicit_series": "implicit_series", "substitute": "substitute",
          "field_roots": "field_roots", "enclosure": "enclosure", "strong_unit_probe": "strong_unit_probe"}
EXPANSION = ("substitute", "field_roots", "enclosure")
SEED, ROUNDS, PASSES, CONTROL_RUNS = 7, 3, 5, 10


def solver_calls(checkout):
    """The solver operations of the ``newton`` workload, the analytic and power ``eval``, ``roots``,
    ``divide``, ``implicit`` and ``probe-unit`` commands of the ``cli`` workload, and the derivative chains and the
    preparations of the ``prepare`` workload's polynomials, as generated by the checkout's benchmark."""
    sys.path.insert(0, str(checkout / "perfbench"))
    import workloads

    specs = [spec for ops in workloads.generate("newton", SEED, ROUNDS) for spec in ops if spec["kind"] in LAYERS]
    specs += [{"kind": "hensel_poly_eval", "coeffs": spec["coeffs"], "prec": spec["prec"]}
              for spec in specs if LAYERS[spec["kind"]] == "hensel_root"]
    for ops in workloads.generate("cli", SEED, ROUNDS):
        for spec in ops:
            check = spec["check"]
            if check["type"] == "eval" and check["expr"][0] == "fn":
                specs.append({"kind": "evaluate_analytic", "argv": spec["argv"]})
            elif check["type"] == "eval" and check["expr"][0] == "pow":
                specs.append({"kind": "eval_term", "argv": spec["argv"]})
            elif check["type"] == "roots":
                specs.append({"kind": "puiseux_roots", "argv": spec["argv"]})
                specs += [{"kind": kind, "argv": spec["argv"]} for kind in EXPANSION]
            elif spec["argv"][0] == "divide":
                specs.append({"kind": "weierstrass_divide", "argv": spec["argv"]})
            elif spec["argv"][0] == "implicit":
                specs.append({"kind": "implicit_series", "argv": spec["argv"]})
            elif spec["argv"][0] == "probe-unit":
                specs.append({"kind": "strong_unit_probe", "argv": spec["argv"]})
    for ops in workloads.generate("prepare", SEED, ROUNDS):
        for spec in ops:
            if spec["kind"] == "prepare_polynomial":
                coeffs = spec["poly"]["coeffs"]
                specs += [{"kind": "puiseux_roots", "coeffs": coeffs, "order": k, "depth": spec["lam"] + 4}
                          for k in range(len(coeffs) - 1)]
                specs += [{"kind": kind, "coeffs": coeffs, "lam": spec["lam"], "trials": spec["trials"],
                           "seed": spec["seed"]} for kind in ("poly_eval", *EXPANSION)]
    return specs


def recorded_calls(run, module, name, keep=lambda args: args):
    """The arguments of every call of ``module.name`` that ``run()`` makes, recorded from one run as
    ``keep(args)``, taken before the call; keyword arguments follow the positional ones in ``args``."""
    recorded = []
    fn = getattr(module, name)
    setattr(module, name, lambda *args, **kw: recorded.append(keep(args + tuple(kw.values()))) or fn(*args, **kw))
    try:
        run()
    finally:
        setattr(module, name, fn)
    return recorded


def quiet_cli(argv):
    """``run_cli(argv)`` with its output discarded."""
    import contextlib
    import io

    from hahn_forge import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.run_cli(list(argv))


def recorded_call(argv, module, name):
    """The arguments of the one call of ``module.name`` that ``run_cli(argv)`` makes, recorded from a run."""
    recorded = recorded_calls(partial(quiet_cli, argv), module, name)
    if len(recorded) != 1:
        raise RuntimeError(f"{argv} made {len(recorded)} {name} calls, expected 1")
    return recorded[0]


def child(checkout):
    """Time the calls read from stdin with the checkout's package, and the control kernel from the directory
    named there; print per-call times, absolute and over control, the median control time and the outputs."""
    import copy
    import gc
    import time
    from fractions import Fraction

    job = json.load(sys.stdin)
    sys.path.insert(0, str(checkout / "src"))
    sys.path.insert(0, job["control"])
    import calibrate
    from hahn_forge import analytic, cli, multiseries, prepare, series, terms
    from hahn_forge.algebraic import RealAlgebraic

    ge = lambda q: series.GroupElement.scalar(Fraction(q))  # noqa: E731

    def horner(recorded):
        return [series.poly_eval(*args) for args in recorded]

    def shifts(recorded):
        return [prepare._substitute(*args) for args in recorded]

    def field_roots(recorded):
        return [prepare._field_roots(*args) for args in recorded]

    def with_intervals(args):
        """A deep copy of the arguments of ``_make_root``, with the interval of each generator in them."""
        args = copy.deepcopy(args)
        contexts = {id(c.ctx): c.ctx for _, c in args[0] if isinstance(c, RealAlgebraic)}.values()
        return args, [(ctx, ctx.lo, ctx.hi) for ctx in contexts]

    def enclosures(recorded):
        out = []
        for args, intervals in recorded:
            for ctx, lo, hi in intervals:
                ctx.lo, ctx.hi = lo, hi
            out.append(prepare._make_root(*args))
        return out

    def number(q):
        if not isinstance(q, RealAlgebraic):
            return str(q)
        return [[str(x) for x in q.coords], [str(x) for x in q.ctx.witness], str(q.ctx.lo), str(q.ctx.hi)]

    calls = []
    for spec in job["specs"]:
        if spec["kind"] == "invert":
            calls.append((series.invert, (series.parse_series(spec["a"]), ge(spec["prec"]))))
        elif spec["kind"] == "nth_root":
            calls.append((series.nth_root, (series.parse_series(spec["a"]), spec["n"], ge(spec["prec"]))))
        elif spec["kind"] == "evaluate_analytic":
            calls.append((analytic.evaluate_analytic, recorded_call(spec["argv"], terms, "evaluate_analytic")))
        elif spec["kind"] == "eval_term":
            calls.append((terms.eval_term, recorded_call(spec["argv"], cli, "eval_term")))
        elif spec["kind"] == "weierstrass_divide":
            calls.append((multiseries.weierstrass_divide, recorded_call(spec["argv"], cli, "weierstrass_divide")))
        elif spec["kind"] == "implicit_series":
            calls.append((analytic.implicit_series, recorded_call(spec["argv"], cli, "implicit_series")))
        elif spec["kind"] == "strong_unit_probe":
            calls.append((prepare.strong_unit_probe, recorded_call(spec["argv"], cli, "strong_unit_probe")))
        elif spec["kind"] == "puiseux_roots" and "argv" in spec:
            calls.append((prepare.puiseux_roots, recorded_call(spec["argv"], cli, "puiseux_roots")))
        elif spec["kind"] == "puiseux_roots":
            coeffs = [series.parse_series(c) for c in spec["coeffs"]]
            for _ in range(spec["order"]):
                coeffs = prepare.poly_derivative(coeffs)
            calls.append((prepare.puiseux_roots, (coeffs, Fraction(spec["depth"]))))
        elif spec["kind"] == "poly_eval":
            prepared = partial(prepare.prepare_polynomial, [series.parse_series(c) for c in spec["coeffs"]],
                               ge(spec["lam"]), spec["trials"], spec["seed"])
            calls.append((horner, (recorded_calls(prepared, prepare, "poly_eval"),)))
        elif spec["kind"] in EXPANSION:
            run = (partial(quiet_cli, spec["argv"]) if "argv" in spec else
                   partial(prepare.prepare_polynomial, [series.parse_series(c) for c in spec["coeffs"]],
                           ge(spec["lam"]), spec["trials"], spec["seed"]))
            f, name, keep = {"substitute": (shifts, "_substitute", copy.deepcopy),
                             "field_roots": (field_roots, "_field_roots", copy.deepcopy),
                             "enclosure": (enclosures, "_make_root", with_intervals)}[spec["kind"]]
            calls.append((f, (recorded_calls(run, prepare, name, keep),)))
        elif spec["kind"] == "hensel_poly_eval":
            solved = partial(analytic.hensel_root, [series.parse_series(c) for c in spec["coeffs"]], ge(spec["prec"]))
            calls.append((horner, (recorded_calls(solved, analytic, "poly_eval"),)))
        else:
            calls.append((analytic.hensel_root, ([series.parse_series(c) for c in spec["coeffs"]], ge(spec["prec"]))))

    def show(f, out):
        if f is prepare.puiseux_roots:
            return json.dumps([root.to_dict() for root in out])
        if f is horner:
            return "\n".join(map(series.format_series, out))
        if f is shifts:
            return json.dumps([[[str(e), type(q).__name__, [str(x) for x in q.coords] if isinstance(q, RealAlgebraic)
                                 else str(q)] for e, q in row.items()] for shifted in out for row in shifted])
        if f is field_roots:
            return json.dumps([[[number(q), mult] for q, mult, _ in roots] + [pairs] for roots, pairs in out])
        if f is enclosures:
            return json.dumps([root.to_dict() for root in out])
        if f is multiseries.weierstrass_divide:
            return "\n".join(map(multiseries.format_multiseries, [out[0], *out[1]]))
        if f is analytic.implicit_series:
            return multiseries.format_multiseries(out)
        if f is prepare.strong_unit_probe:
            return out.to_json()
        return series.format_series(out)

    outputs = []
    for f, args in calls:
        try:
            outputs.append(show(f, f(*args)))
        except Exception as exc:  # noqa: BLE001 - an error is an output, compared across sides
            outputs.append(f"{type(exc).__name__}: {exc}")
    times = [[] for _ in calls]
    control = []
    for _ in range(PASSES):
        gc.collect()
        for i, (f, args) in enumerate(calls):
            start = time.perf_counter_ns()
            try:
                f(*args)
            except Exception:  # noqa: BLE001 - the error is recorded in outputs
                pass
            times[i].append(time.perf_counter_ns() - start)
        control.append(statistics.median(calibrate.kernel() * 1e9 for _ in range(CONTROL_RUNS)))
    over = [statistics.median(ns / c for ns, c in zip(t, control)) for t in times]
    json.dump({"outputs": outputs, "ns": [statistics.median(t) for t in times], "over_control": over,
               "control_ns": statistics.median(control)}, sys.stdout)


def run_child(checkout, control, specs):
    with tempfile.TemporaryDirectory(prefix="layers-") as tmp:
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, str(Path(__file__).resolve()), "--child", str(checkout)]
        proc = subprocess.run(argv, cwd=tmp, env=env, input=json.dumps({"control": str(control), "specs": specs}),
                              capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def summarize(specs, per_call, runs):
    """Per layer: each side's per-call quartiles and sum in microseconds, the median time ratio, and the
    layer's summed time over control per repeat, with its ratio and the parent's spread."""
    out = {}
    for layer in dict.fromkeys(LAYERS.values()):
        idx = [i for i, spec in enumerate(specs) if LAYERS[spec["kind"]] == layer]
        entry = {"calls": len(idx)}
        for side in ("parent", "change"):
            us = [per_call[side][i] / 1000 for i in idx]
            q1, median, q3 = quartiles(us)
            entry[side] = {"median": median, "q1": q1, "q3": q3, "sum": sum(us)}
            q1, median, q3 = quartiles([sum(run["over_control"][i] for i in idx) for run in runs[side]])
            entry[side]["over_control"] = {"median": median, "q1": q1, "q3": q3}
        entry["median_ratio"] = statistics.median(per_call["change"][i] / per_call["parent"][i] for i in idx)
        parent, change = entry["parent"]["over_control"], entry["change"]["over_control"]
        entry["ratio_over_control"] = change["median"] / parent["median"]
        entry["parent_spread_over_control"] = (parent["q3"] - parent["q1"]) / parent["median"]
        out[layer] = entry
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, nargs="?")
    parser.add_argument("change", type=Path, nargs="?")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(args.child)
        return 0
    if args.parent is None or args.change is None or args.out is None:
        parser.error("PARENT_DIR, CHANGE_DIR and --out are required")

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    specs = solver_calls(checkouts["parent"])
    runs = {"parent": [], "change": []}
    outputs = {}
    for repeat in range(args.repeats):
        order = ("parent", "change") if repeat % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_child(checkouts[side], checkouts["parent"] / "perfbench", specs)
            outputs.setdefault(side, result.pop("outputs"))
            runs[side].append(result)
            print(f"repeat {repeat} {side}: {sum(result['ns']) / 1e6:.1f} ms per pass, control "
                  f"{result['control_ns'] / 1e6:.3f} ms", file=sys.stderr, flush=True)

    differ = [{"call": i, "kind": specs[i]["kind"], "parent": p, "change": c}
              for i, (p, c) in enumerate(zip(outputs["parent"], outputs["change"])) if p != c]
    per_call = {side: [statistics.median(r["ns"][i] for r in runs[side]) for i in range(len(specs))] for side in runs}
    report = {
        "command": f"python3 bench/layers.py PARENT CHANGE --repeats {args.repeats}",
        "calls": "invert, nth_root and hensel_root (with the Catalan fixture) operations of "
                 f"workloads.generate('newton', {SEED}, {ROUNDS}); the evaluate_analytic call of each "
                 f"exp/sin/cos/log1p eval command, the eval_term call of each power eval command, the "
                 f"puiseux_roots call of each roots command, the weierstrass_divide call of each divide command and "
                 f"the implicit_series call of each implicit command and the strong_unit_probe call of each probe-unit "
                 f"command of "
                 f"workloads.generate('cli', {SEED}, {ROUNDS}); puiseux_roots on the derivative chain, at "
                 "depth lam + 4, and the poly_eval calls, recorded from one run, of each prepare_polynomial "
                 f"operation of workloads.generate('prepare', {SEED}, {ROUNDS}); hensel_poly_eval: the poly_eval "
                 "calls, recorded from one run, of each hensel_root and catalan operation of the newton rounds; "
                 "substitute, field_roots and enclosure: the prepare._substitute, prepare._field_roots and "
                 "prepare._make_root calls, recorded from one run with deep-copied arguments, of each "
                 "prepare_polynomial operation of the prepare rounds and each roots command of the cli rounds; "
                 "each timed _make_root call first puts back the intervals of the generators it starts from",
        "control": f"per pass, the median of {CONTROL_RUNS} runs of the parent's perfbench/calibrate.kernel() after "
                   "it; a call's time over control is the median over passes of its time over its pass's control",
        "order": "one fresh interpreter per checkout per repeat; parent first on even repeats, change first on odd",
        "unit": "microseconds per call; per call the median of its passes, then of its repeats",
        "output_mismatches": differ,
        "summary": summarize(specs, per_call, runs),
        "per_call_ns": [{"kind": spec["kind"], "parent": per_call["parent"][i], "change": per_call["change"][i]}
                        for i, spec in enumerate(specs)],
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    if differ:
        print(f"error: {len(differ)} calls differ in output", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
