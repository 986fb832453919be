"""Per-call times of the package's layers in two checkouts, written to one JSON file.

Usage (from anywhere)::

    python3 bench/layers.py PARENT_DIR CHANGE_DIR --out BENCH_layers.json --repeats 5

``PARENT_DIR`` and ``CHANGE_DIR`` are two checkouts of the repository.  A
layer is a row of ``LAYERS`` (``puiseux_roots`` is two rows).  A row names
its operations as ``workload:label``, the label being an operation's kind,
a ``cli`` command's name, or ``eval pow``, ``eval div`` or ``eval fn`` by
the head of an ``eval`` command's term.  It names its function as the
module whose name the caller reads and that name.  Each child runs every
operation that a row selects of the parent's ``workloads.generate(workload,
SEED, ROUNDS)`` once, through the parent's ``inputs.parse_inputs`` and
``workloads.run_op`` and its own package, with the function of every row
that selects the operation patched to record its calls (keyword arguments
as keywords).  A ``grouped`` row times the calls of one operation as one
call; any other row times each call on its own, as the bare function call.
A call that changes its arguments has a ``keep`` that says how they are
kept; otherwise a call keeps the objects it was passed.

Each repeat runs one fresh interpreter per checkout, in alternating order
(parent first on even repeats, change first on odd ones); the two sides
must record the same calls of each layer, or the run stops with an error.
The child makes each call once untimed, for its output, then times every
call in ``PASSES`` passes and keeps each call's median.  Across repeats a
call's time is the median of its per-process times.  Per layer the file
records, for each side, the median and quartiles of the per-call times and
their sum (one pass over all calls), and the median over calls of the
change's time over the parent's.

Time cannot resolve a change of one layer below about 20% on such a host,
so after the timed passes each child replays every call once more under
``sys.setprofile`` and counts its ``call`` and ``c_call`` events: Python
and C function calls, which do not depend on the host's speed.  The counts
must be the same in every repeat of a side, or the run stops with an
error.  Per layer the file records each side's count over all calls and
the change's count over the parent's.

An output is a JSON form of the result, or the class and message of the
error raised; a grouped row's output is the list of its calls' outputs.
Where the two sides' outputs of a call differ, the call is listed under
``output_mismatches``, except a grouped call whose two lists differ in
length: that one made another number of calls, and is listed under
``call_count_changes`` with both counts.  The script exits 1, after
writing the file, if any output mismatch is listed.  Children run with
``PYTHONDONTWRITEBYTECODE=1`` in a temporary directory, so nothing is
written into either checkout.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import statistics
import subprocess
import sys
import tempfile
from collections import Counter, namedtuple
from pathlib import Path

SEED, ROUNDS, PASSES = 7, 3, 5


def as_called(fn, args, kw):
    """The call as it was made, with the objects passed."""
    return fn, args, kw


def deep_copy(fn, args, kw):
    """A deep copy of the arguments as they were at the call."""
    return (fn, *copy.deepcopy((args, kw)))


def _after(reset, fn):
    """``fn``, each call of it made after ``reset()``."""

    def call(*args, **kw):
        reset()
        return fn(*args, **kw)

    return call


def intervals(fn, args, kw):
    """A deep copy of the arguments; each replay first puts back the interval of each generator in
    them, which an enclosure refines in place."""
    fn, args, kw = deep_copy(fn, args, kw)
    saved = [(c.ctx, c.ctx.lo, c.ctx.hi) for _, c in args[0] if hasattr(c, "ctx")]

    def reset():
        for ctx, lo, hi in saved:
            ctx.lo, ctx.hi = lo, hi

    return _after(reset, fn), args, kw


def rng_state(fn, args, kw):
    """The arguments; each replay first puts back the state of the ``random.Random`` passed first."""
    rng, state = args[0], args[0].getstate()
    return _after(lambda: rng.setstate(state), fn), args, kw


Row = namedtuple("Row", "layer ops module name grouped keep", defaults=(False, as_called))
LAYERS = (
    Row("invert", ("newton:invert",), "series", "invert"),
    Row("nth_root", ("newton:nth_root",), "series", "nth_root"),
    Row("hensel_root", ("newton:hensel_root", "newton:catalan"), "analytic", "hensel_root"),
    Row("evaluate_analytic", ("cli:eval fn",), "terms", "evaluate_analytic"),
    Row("eval_term", ("cli:eval pow",), "cli", "eval_term"),
    Row("puiseux_roots", ("cli:roots",), "cli", "puiseux_roots"),
    Row("puiseux_roots", ("prepare:prepare_polynomial",), "prepare", "puiseux_roots"),
    Row("poly_eval", ("prepare:prepare_polynomial",), "prepare", "poly_eval", grouped=True),
    Row("hensel_poly_eval", ("newton:hensel_root", "newton:catalan"), "analytic", "poly_eval", grouped=True),
    Row("weierstrass_divide", ("cli:divide",), "cli", "weierstrass_divide"),
    Row("implicit_series", ("cli:implicit",), "cli", "implicit_series"),
    Row("substitute", ("prepare:prepare_polynomial", "cli:roots"), "prepare", "_substitute", True, deep_copy),
    Row("field_roots", ("prepare:prepare_polynomial", "cli:roots"), "prepare", "_field_roots", True, deep_copy),
    Row("enclosure", ("prepare:prepare_polynomial", "cli:roots"), "prepare", "_make_root", True, intervals),
    Row("strong_unit_probe", ("cli:probe-unit",), "cli", "strong_unit_probe"),
    Row("jacobian_probe", ("newton:jacobian_inv", "newton:jacobian_hensel"), "prepare", "jacobian_probe"),
    Row("polynomial_coeffs", ("cli:roots", "cli:polygon"), "cli", "polynomial_coeffs"),
    Row("field_op", ("prepare:verify_prepared",), "series", "field_op", grouped=True),
    Row("rv_lambda", ("prepare:verify_prepared",), "prepare", "rv_lambda", grouped=True),
    Row("near_sample", ("prepare:verify_prepared",), "prepare", "near_sample", True, rng_state),
    Row("verify_check", ("prepare:verify_prepared",), "prepare", "_first_disagreement", grouped=True),
)


def label(op):
    """An operation's kind; for a ``cli`` command its name, and for ``eval`` also the head of its term."""
    if op["kind"] != "cli":
        return op["kind"]
    return f"eval {op['check']['expr'][0]}" if op["argv"][0] == "eval" else op["argv"][0]


def recorder(fn, keep, log):
    """``fn``, appending ``keep(fn, args, kw)`` to ``log`` before each call."""

    def call(*args, **kw):
        log.append(keep(fn, args, kw))
        return fn(*args, **kw)

    return call


def record(hf, inputs, workloads):
    """``(layer, fn, args, kw)`` for every call to time, in the order of the operations recorded."""
    calls = []
    for workload in dict.fromkeys(op.split(":")[0] for row in LAYERS for op in row.ops):
        for ops in workloads.generate(workload, SEED, ROUNDS):
            rows = [[row for row in LAYERS if f"{workload}:{label(op)}" in row.ops] for op in ops]
            needed = {op.get("uses") for op, chosen in zip(ops, rows) if chosen}
            prior = {}
            for i, (op, chosen) in enumerate(zip(ops, rows)):
                if not chosen and i not in needed:
                    continue
                parsed, logs = inputs.parse_inputs(op, hf), [[] for _ in chosen]
                patched = [(getattr(hf, row.module), row.name, getattr(getattr(hf, row.module), row.name))
                           for row in chosen]
                for (module, name, fn), row, log in zip(patched, chosen, logs):
                    setattr(module, name, recorder(fn, row.keep, log))
                try:
                    prior[i] = workloads.run_op(op, parsed, hf, workloads.Stats(), prior)
                finally:
                    for module, name, fn in reversed(patched):
                        setattr(module, name, fn)
                for row, log in zip(chosen, logs):
                    calls += [(row.layer, replay, (log,), {})] if row.grouped else [(row.layer, *c) for c in log]
    return calls


def replay(calls):
    """The output of each ``(fn, args, kw)`` call, or the error it raised."""
    out = []
    for fn, args, kw in calls:
        try:
            out.append(fn(*args, **kw))
        except Exception as exc:  # noqa: BLE001 - an error is an output, compared across sides
            out.append(exc)
    return out


def show(out, hf):
    """A JSON form of an output, by its type; it holds no object address."""
    if isinstance(out, Exception):
        return f"{type(out).__name__}: {out}"
    if isinstance(out, (list, tuple)):
        return [show(x, hf) for x in out]
    if isinstance(out, dict):
        return [[show(k, hf), show(v, hf)] for k, v in out.items()]
    if hasattr(out, "to_dict"):
        return out.to_dict()
    if isinstance(out, hf.series.TruncatedSeries):
        return hf.series.format_series(out)
    if isinstance(out, hf.multiseries.MultiSeries):
        return hf.multiseries.format_multiseries(out)
    if isinstance(out, hf.algebraic.RealAlgebraic):
        return [show(out.coords, hf), show(out.ctx, hf)]
    if isinstance(out, hf.algebraic.AlgebraicContext):
        return [show(out.witness, hf), str(out.lo), str(out.hi)]
    return str(out)


def compare(layers, parent, change):
    """``(output_mismatches, call_count_changes)`` of two sides' outputs, each a JSON string per call
    of ``layers``: a grouped call whose lists differ in length goes to the second, with both lengths."""
    grouped = {row.layer for row in LAYERS if row.grouped}
    mismatches, counts = [], []
    for i, (layer, p, c) in enumerate(zip(layers, parent, change)):
        if p == c:
            continue
        lengths = [len(json.loads(out)) for out in (p, c)] if layer in grouped else [0, 0]
        if lengths[0] != lengths[1]:
            counts.append({"call": i, "kind": layer, "parent": lengths[0], "change": lengths[1]})
        else:
            mismatches.append({"call": i, "kind": layer, "parent": p, "change": c})
    return mismatches, counts


def profiled_calls(fn, args, kw):
    """The ``call`` and ``c_call`` events of one call ``fn(*args, **kw)`` under ``sys.setprofile``."""
    count = 0

    def tally(_frame, event, _arg):
        nonlocal count
        if event in ("call", "c_call"):
            count += 1

    sys.setprofile(tally)
    try:
        fn(*args, **kw)
    except Exception:  # noqa: BLE001 - the error is recorded in outputs
        pass
    finally:
        sys.setprofile(None)
    return count


def child(checkout):
    """Record the calls with the checkout's package in the parent's ``perfbench`` named on stdin and
    time them, then count each call's profiled calls; print per-call layers, times and profiled calls,
    and the outputs."""
    import gc
    import time

    sys.path.insert(0, json.load(sys.stdin)["perfbench"])
    import inputs
    import workloads

    hf = inputs.load_package(str(checkout))
    calls = record(hf, inputs, workloads)
    outputs = [json.dumps(show(out, hf)) for out in replay([call[1:] for call in calls])]
    times = [[] for _ in calls]
    for _ in range(PASSES):
        gc.collect()
        for i, (_, fn, args, kw) in enumerate(calls):
            start = time.perf_counter_ns()
            try:
                fn(*args, **kw)
            except Exception:  # noqa: BLE001 - the error is recorded in outputs
                pass
            times[i].append(time.perf_counter_ns() - start)
    counts = [profiled_calls(fn, args, kw) for _, fn, args, kw in calls]
    json.dump({"layers": [call[0] for call in calls], "outputs": outputs, "ns": [statistics.median(t) for t in times],
               "profiled_calls": counts}, sys.stdout)


def run_child(checkout, perfbench):
    with tempfile.TemporaryDirectory(prefix="layers-") as tmp:
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, str(Path(__file__).resolve()), "--child", str(checkout)]
        proc = subprocess.run(argv, cwd=tmp, env=env, input=json.dumps({"perfbench": str(perfbench)}),
                              capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def summarize(layers, per_call, counts):
    """Per layer: each side's per-call quartiles and sum in microseconds, the median time ratio, and
    each side's profiled calls, with their ratio."""
    from pairs import quartiles

    out = {}
    for layer in dict.fromkeys(row.layer for row in LAYERS):
        idx = [i for i, name in enumerate(layers) if name == layer]
        entry = {"calls": len(idx)}
        for side in ("parent", "change"):
            us = [per_call[side][i] / 1000 for i in idx]
            q1, median, q3 = quartiles(us)
            entry[side] = {"median": median, "q1": q1, "q3": q3, "sum": sum(us),
                           "profiled_calls": sum(counts[side][i] for i in idx)}
        entry["median_ratio"] = statistics.median(per_call["change"][i] / per_call["parent"][i] for i in idx)
        entry["profiled_calls_ratio"] = entry["change"]["profiled_calls"] / entry["parent"]["profiled_calls"]
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
    runs = {"parent": [], "change": []}
    outputs, layers = {}, {}
    for repeat in range(args.repeats):
        order = ("parent", "change") if repeat % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_child(checkouts[side], checkouts["parent"] / "perfbench")
            outputs.setdefault(side, result.pop("outputs"))
            layers.setdefault(side, result.pop("layers"))
            runs[side].append(result)
            print(f"repeat {repeat} {side}: {sum(result['ns']) / 1e6:.1f} ms per pass", file=sys.stderr, flush=True)
    if layers["parent"] != layers["change"]:
        raise RuntimeError(f"the sides record other calls: {Counter(layers['parent'])}, {Counter(layers['change'])}")
    counts = {}
    for side in runs:
        seen = {tuple(run.pop("profiled_calls")) for run in runs[side]}
        if len(seen) != 1:
            raise RuntimeError(f"the {side}'s profiled calls differ across repeats")
        counts[side] = seen.pop()

    calls = layers["parent"]
    differ, count_changes = compare(calls, outputs["parent"], outputs["change"])
    per_call = {side: [statistics.median(r["ns"][i] for r in runs[side]) for i in range(len(calls))] for side in runs}
    report = {
        "command": f"python3 bench/layers.py PARENT CHANGE --repeats {args.repeats}",
        "calls": f"recorded from one run of each operation of workloads.generate(workload, {SEED}, {ROUNDS}) "
                 "that a layer selects; " + "; ".join(
                     f"{row.layer}: {row.module}.{row.name} calls of {', '.join(row.ops)} (keep {row.keep.__name__}), "
                     + ("timed as one call per operation" if row.grouped else "each timed") for row in LAYERS),
        "order": "one fresh interpreter per checkout per repeat; parent first on even repeats, change first on odd",
        "profiled_calls": "per layer and side, the call and c_call events under sys.setprofile of one more replay "
                          "of every call after the timed passes, the same in every repeat",
        "unit": "microseconds per call; per call the median of its passes, then of its repeats",
        "output_mismatches": differ,
        "call_count_changes": count_changes,
        "summary": summarize(calls, per_call, counts),
        "per_call_ns": [{"kind": layer, "parent": per_call["parent"][i], "change": per_call["change"][i]}
                        for i, layer in enumerate(calls)],
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    if differ:
        print(f"error: {len(differ)} calls differ in output", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    sys.exit(main())
