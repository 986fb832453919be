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
``cli`` rounds.  All are generated by the parent's
``perfbench/workloads.generate``, so both sides time the same inputs.  The
child finds the arguments of an ``evaluate_analytic``, ``eval_term`` or
``roots`` call by running the command once through ``run_cli`` and
recording the call it makes (``eval_term`` as ``cli`` calls it).

Each repeat runs one fresh interpreter per checkout, in alternating order
(parent first on even repeats, change first on odd ones).  The child
imports the package from the checkout's ``src``, parses every input, makes
each call once untimed, then times every call in ``PASSES`` passes and
keeps each call's median.  Across repeats a call's time is the median of
its per-process times.  Per layer the file records, for each side, the
median and quartiles of the per-call times and their sum (one pass over
all calls), and the median over calls of the change's time over the
parent's.

It exits 1, after writing the file, if the two sides' outputs differ: the
``format_series`` text of each result (for ``puiseux_roots`` the JSON of
the roots' ``to_dict``), or the class and message of the error it raised.  Children run with ``PYTHONDONTWRITEBYTECODE=1`` in a
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
from pathlib import Path

sys.dont_write_bytecode = True
from pairs import quartiles  # noqa: E402 - after the bytecode switch

LAYERS = {"invert": "invert", "nth_root": "nth_root", "hensel_root": "hensel_root", "catalan": "hensel_root",
          "evaluate_analytic": "evaluate_analytic", "eval_term": "eval_term", "puiseux_roots": "puiseux_roots"}
SEED, ROUNDS, PASSES = 7, 3, 5


def solver_calls(checkout):
    """The solver operations of the ``newton`` workload, the analytic and power ``eval`` and the ``roots``
    commands of the ``cli`` workload, and the derivative chains of the ``prepare`` workload's polynomials, as
    generated by the checkout's benchmark."""
    sys.path.insert(0, str(checkout / "perfbench"))
    import workloads

    specs = [spec for ops in workloads.generate("newton", SEED, ROUNDS) for spec in ops if spec["kind"] in LAYERS]
    for ops in workloads.generate("cli", SEED, ROUNDS):
        for spec in ops:
            check = spec["check"]
            if check["type"] == "eval" and check["expr"][0] == "fn":
                specs.append({"kind": "evaluate_analytic", "argv": spec["argv"]})
            elif check["type"] == "eval" and check["expr"][0] == "pow":
                specs.append({"kind": "eval_term", "argv": spec["argv"]})
            elif check["type"] == "roots":
                specs.append({"kind": "puiseux_roots", "argv": spec["argv"]})
    for ops in workloads.generate("prepare", SEED, ROUNDS):
        for spec in ops:
            if spec["kind"] == "prepare_polynomial":
                coeffs = spec["poly"]["coeffs"]
                specs += [{"kind": "puiseux_roots", "coeffs": coeffs, "order": k, "depth": spec["lam"] + 4}
                          for k in range(len(coeffs) - 1)]
    return specs


def recorded_call(argv, module, name):
    """The arguments of the one call of ``module.name`` that ``run_cli(argv)`` makes, recorded from a run."""
    import contextlib
    import io

    from hahn_forge import cli

    recorded = []
    fn = getattr(module, name)
    setattr(module, name, lambda *args: recorded.append(args) or fn(*args))
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.run_cli(list(argv))
    finally:
        setattr(module, name, fn)
    if len(recorded) != 1:
        raise RuntimeError(f"{argv} made {len(recorded)} {name} calls, expected 1")
    return recorded[0]


def child(checkout):
    """Time the calls read from stdin with the checkout's package; print per-call times and outputs."""
    import gc
    import time
    from fractions import Fraction

    sys.path.insert(0, str(checkout / "src"))
    from hahn_forge import analytic, cli, prepare, series, terms

    ge = lambda q: series.GroupElement.scalar(Fraction(q))  # noqa: E731
    calls = []
    for spec in json.load(sys.stdin):
        if spec["kind"] == "invert":
            calls.append((series.invert, (series.parse_series(spec["a"]), ge(spec["prec"]))))
        elif spec["kind"] == "nth_root":
            calls.append((series.nth_root, (series.parse_series(spec["a"]), spec["n"], ge(spec["prec"]))))
        elif spec["kind"] == "evaluate_analytic":
            calls.append((analytic.evaluate_analytic, recorded_call(spec["argv"], terms, "evaluate_analytic")))
        elif spec["kind"] == "eval_term":
            calls.append((terms.eval_term, recorded_call(spec["argv"], cli, "eval_term")))
        elif spec["kind"] == "puiseux_roots" and "argv" in spec:
            calls.append((prepare.puiseux_roots, recorded_call(spec["argv"], cli, "puiseux_roots")))
        elif spec["kind"] == "puiseux_roots":
            coeffs = [series.parse_series(c) for c in spec["coeffs"]]
            for _ in range(spec["order"]):
                coeffs = prepare.poly_derivative(coeffs)
            calls.append((prepare.puiseux_roots, (coeffs, Fraction(spec["depth"]))))
        else:
            calls.append((analytic.hensel_root, ([series.parse_series(c) for c in spec["coeffs"]], ge(spec["prec"]))))

    def show(f, out):
        if f is prepare.puiseux_roots:
            return json.dumps([root.to_dict() for root in out])
        return series.format_series(out)

    outputs = []
    for f, args in calls:
        try:
            outputs.append(show(f, f(*args)))
        except Exception as exc:  # noqa: BLE001 - an error is an output, compared across sides
            outputs.append(f"{type(exc).__name__}: {exc}")
    times = [[] for _ in calls]
    for _ in range(PASSES):
        gc.collect()
        for i, (f, args) in enumerate(calls):
            start = time.perf_counter_ns()
            try:
                f(*args)
            except Exception:  # noqa: BLE001 - the error is recorded in outputs
                pass
            times[i].append(time.perf_counter_ns() - start)
    json.dump({"outputs": outputs, "ns": [statistics.median(t) for t in times]}, sys.stdout)


def run_child(checkout, specs):
    with tempfile.TemporaryDirectory(prefix="layers-") as tmp:
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, str(Path(__file__).resolve()), "--child", str(checkout)]
        proc = subprocess.run(argv, cwd=tmp, env=env, input=json.dumps(specs), capture_output=True, text=True,
                              check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def summarize(specs, per_call):
    """Per layer: each side's per-call quartiles and sum in microseconds, and the median time ratio."""
    out = {}
    for layer in dict.fromkeys(LAYERS.values()):
        idx = [i for i, spec in enumerate(specs) if LAYERS[spec["kind"]] == layer]
        entry = {"calls": len(idx)}
        for side in ("parent", "change"):
            us = [per_call[side][i] / 1000 for i in idx]
            q1, median, q3 = quartiles(us)
            entry[side] = {"median": median, "q1": q1, "q3": q3, "sum": sum(us)}
        entry["median_ratio"] = statistics.median(per_call["change"][i] / per_call["parent"][i] for i in idx)
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
            result = run_child(checkouts[side], specs)
            runs[side].append(result["ns"])
            outputs.setdefault(side, result["outputs"])
            print(f"repeat {repeat} {side}: {sum(result['ns']) / 1e6:.1f} ms per pass", file=sys.stderr, flush=True)

    differ = [{"call": i, "kind": specs[i]["kind"], "parent": p, "change": c}
              for i, (p, c) in enumerate(zip(outputs["parent"], outputs["change"])) if p != c]
    per_call = {side: [statistics.median(r[i] for r in runs[side]) for i in range(len(specs))] for side in runs}
    report = {
        "command": f"python3 bench/layers.py PARENT CHANGE --repeats {args.repeats}",
        "calls": "invert, nth_root and hensel_root (with the Catalan fixture) operations of "
                 f"workloads.generate('newton', {SEED}, {ROUNDS}); the evaluate_analytic call of each "
                 f"exp/sin/cos/log1p eval command, the eval_term call of each power eval command and the "
                 f"puiseux_roots call of each roots command of "
                 f"workloads.generate('cli', {SEED}, {ROUNDS}); puiseux_roots on the derivative chain, at "
                 "depth lam + 4, of each prepare_polynomial operation of "
                 f"workloads.generate('prepare', {SEED}, {ROUNDS})",
        "order": "one fresh interpreter per checkout per repeat; parent first on even repeats, change first on odd",
        "unit": "microseconds per call; per call the median of its passes, then of its repeats",
        "output_mismatches": differ,
        "summary": summarize(specs, per_call),
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
