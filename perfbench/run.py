"""hahn-forge benchmark: one workload, one seed, one closed-loop client.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload {prepare,newton,cli} --seed N --seconds S --trace {0,1}

With ``--trace 0`` the run times set-up in fresh interpreters, then runs
about ``S`` seconds of rounds of the workload, checking every result, and
reports the end-to-end metrics, with every time rescaled to the reference
machine speed (see ``calibrate``).  With ``--trace 1`` it runs half as
many rounds once untraced and once with the per-layer tracer installed,
and reports the per-layer metrics and the tracing overhead.  The last line of
stdout is the result object; the line before it records the run (seed,
Python, nproc, commit, output digest, counts and raw times), and is also
appended to ``.bench_out/results.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import inputs
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

# ROUND_SECONDS is one round's wall time, checks included, at the seed
# commit on a 2-CPU VM: an untraced run takes about --seconds of rounds; a
# traced run makes an untraced and a traced pass over half as many.
ROUND_SECONDS = {"prepare": 4.0, "newton": 3.4, "cli": 0.9}
REPEAT_COUNTS = ("series.mul.calls", "series.mul.pairs", "rv.rv_lambda.insufficient", "analytic.hensel_root.newton_steps")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


def per_layer_names():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for _, _, label in tracing.TARGETS:
        out += [(f"{label}.calls", "count", "lower"), (f"{label}.self_s", "s", "lower"),
                (f"{label}.raised", "count", "lower")]
    out += [
        ("series.mul.pairs", "count", "lower"),
        ("series.mul.terms_out", "count", "lower"),
        ("series.truncate_below.kept_ratio", "ratio", "higher"),
        ("rv.rv_lambda.insufficient", "count", "lower"),
        ("analytic.hensel_root.newton_steps", "count", "lower"),
        ("prepare.term.calls", "count", "lower"),
        ("prepare.term.raised", "count", "lower"),
        ("error_rate", "ratio", "lower"),
        ("trace.untraced_ops_per_s", "1/s", "higher"),
        ("trace.traced_ops_per_s", "1/s", "higher"),
        ("trace.overhead_share", "ratio", "lower"),
        ("trace.solver_share", "ratio", "lower"),
        ("trace.prepare_share", "ratio", "lower"),
        ("trace.spans", "count", "lower"),
    ]
    return out


class Runner:
    """Runs rounds of operations, timing, fingerprinting and checking each."""

    def __init__(self, hf, rounds):
        self.hf = hf
        self.rounds = rounds
        self.parsed = [[inputs.parse_inputs(s, hf) for s in r] for r in rounds]
        self.stats = workloads.Stats()
        self.fingerprints = {}
        self.verdicts = {}
        self.latencies = []
        self.kernel = []  # calibration kernel time taken just before each operation
        self.attempted = 0
        self.failures = []

    def fail(self, where, reason):
        self.failures.append(f"round {where[0]} op {where[1]} ({self.rounds[where[0]][where[1]]['kind']}): {reason}")

    def run_round(self, r, tracer=None):
        prior = []
        for i, spec in enumerate(self.rounds[r]):
            self.attempted += 1
            gc.collect()  # start every operation from the same collector state
            self.kernel.append(calibrate.kernel())
            if tracer is not None:
                tracer.begin_op(self.attempted)  # unique operation id
            t0 = time.perf_counter()
            try:
                out = workloads.run_op(spec, self.parsed[r][i], self.hf, self.stats, prior)
            except Exception as exc:  # any exception is a failed operation
                out = None
                self.fail((r, i), f"raised {type(exc).__name__}: {exc}")
            self.latencies.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.end_op()
            prior.append(out)
            if out is not None:
                self.judge((r, i), spec, out)

    def judge(self, where, spec, out):
        try:
            fp = workloads.fingerprint(spec, out, self.hf)
        except Exception as exc:
            self.fail(where, f"output cannot be formatted: {type(exc).__name__}: {exc}")
            return
        if where in self.fingerprints:
            # a repeat must reproduce the first output, which was checked
            if self.fingerprints[where] != fp:
                self.fail(where, "output differs from the same operation's first run")
            elif self.verdicts[where]:
                self.fail(where, self.verdicts[where])
            return
        try:
            reason = workloads.check(spec, out, self.hf)
        except Exception as exc:
            reason = f"check raised {type(exc).__name__}: {exc}"
        self.fingerprints[where], self.verdicts[where] = fp, reason
        if reason:
            self.fail(where, reason)

    def scaled(self, start=0):
        """Latencies from ``start`` on, rescaled to the reference machine speed."""
        return [t * f for t, f in zip(self.latencies[start:], calibrate.factors(self.kernel[start:]))]

    def digest(self, rounds):
        h = hashlib.sha256()
        for r in range(rounds):
            for i in range(len(self.rounds[r])):
                h.update(self.fingerprints.get((r, i), "<missing>").encode())
                h.update(b"\0")
        return h.hexdigest()


def measure_setup(specs, workload, seed):
    """Median fresh-interpreter set-up seconds (raw, rescaled), after one discarded run."""
    path = OUT / f"inputs-{workload}-{seed}.json"
    path.write_text(json.dumps(specs))
    child = [sys.executable, str(Path(__file__).with_name("setup_child.py")), str(ROOT), str(path)]
    raw, scaled = [], []
    try:
        for k in range(SETUP_REPEATS + 1):
            kernel = statistics.median(calibrate.kernel() for _ in range(calibrate.WINDOW))
            proc = subprocess.run(child, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up run failed: {proc.stderr.strip()}")
            if k:
                raw.append(float(proc.stdout.split()[-1]))
                scaled.append(raw[-1] * calibrate.REFERENCE_S / kernel)
    finally:
        path.unlink()
    return statistics.median(raw), statistics.median(scaled)


def commit_of(root):
    """The checkout's commit, read from .git when present (no git process)."""
    head = root / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            ref_path = root / ".git" / text[5:]
            if ref_path.exists():
                return ref_path.read_text().strip()
            for line in (root / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + text[5:]):
                    return line.split()[0]
            return None
        return text
    except OSError:
        return None


def source_digest(root):
    """SHA-256 over the package's source files: identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "hahn_forge").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def latency_metrics(latencies):
    lat = sorted(latencies)
    p90 = statistics.quantiles(lat, n=10)[-1] if len(lat) >= 2 else lat[0]
    return statistics.median(lat), p90, sum(1 for x in lat if x > p90)


def rounds_for(workload, seconds, trace):
    """Rounds that make about ``seconds`` of work at the seed commit."""
    return max(1, round(seconds / ROUND_SECONDS[workload] / (2 if trace else 1)))


def run(hf, workload, seed, seconds, trace, rounds=None):
    """One benchmark run; returns (result, record)."""
    rounds = rounds or rounds_for(workload, seconds, trace)
    specs = workloads.generate(workload, seed, rounds)
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit_of(ROOT),
        "source_sha256": source_digest(ROOT),
        "seconds": seconds,
        "rounds": rounds,
        "ops_per_round": len(specs[0]),
    }
    metrics = {}
    if not trace:
        record["raw_setup_s"], metrics["setup_s"] = measure_setup([s for r in specs for s in r], workload, seed)
    runner = Runner(hf, specs)
    # closed loop, one client: each operation starts when the last one is checked
    for r in range(rounds):
        runner.run_round(r)
    record["digest"] = runner.digest(rounds)
    if not trace:
        lat = runner.scaled()
        p50, p90, beyond = latency_metrics(lat)
        metrics["ops_per_s"] = (runner.attempted - len(runner.failures)) / sum(lat)
        metrics["op_p50_ms"] = p50 * 1000
        metrics["op_p90_ms"] = p90 * 1000
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        raw50, raw90, _ = latency_metrics(runner.latencies)
        record.update(samples=len(lat), samples_beyond_p90=beyond, raw_ops_per_s=len(lat) / sum(runner.latencies),
                      raw_op_p50_ms=raw50 * 1000, raw_op_p90_ms=raw90 * 1000,
                      speed=calibrate.REFERENCE_S / statistics.median(runner.kernel))
        units = dict(END_TO_END)
    else:
        untraced = runner.attempted
        untraced_ops_per_s = untraced / sum(runner.scaled())
        runner.stats.clear()
        t = tracing.Tracer(hf)
        t.install()
        try:
            for r in range(rounds):
                runner.run_round(r, tracer=t)
        finally:
            t.remove()
        traced_ops_per_s = (runner.attempted - untraced) / sum(runner.scaled(untraced))
        layer = t.metrics()
        for key in ("analytic.hensel_root.newton_steps", "prepare.term.calls", "prepare.term.raised"):
            layer[key] = (runner.stats.get(key, 0), "count")
        layer["error_rate"] = (len(runner.failures) / runner.attempted, "ratio")
        layer["trace.untraced_ops_per_s"] = (untraced_ops_per_s, "1/s")
        layer["trace.traced_ops_per_s"] = (traced_ops_per_s, "1/s")
        layer["trace.overhead_share"] = (1 - traced_ops_per_s / untraced_ops_per_s, "ratio")
        units = {}
        for name, unit, _ in per_layer_names():
            metrics[name], units[name] = layer[name][0], unit
        record["counts"] = {k: metrics[k] for k in REPEAT_COUNTS}
        record["term_raised_by_class"] = {k[len("prepare.term.raised."):]: v for k, v in sorted(runner.stats.items())
                                          if k.startswith("prepare.term.raised.")}
        spans = OUT / f"spans-{workload}-{seed}.bin"
        t.write(spans)
        record["spans_file"] = str(spans.relative_to(ROOT))
    record["failures"] = runner.failures[:5]
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        hf = inputs.load_package(str(ROOT))
    except inputs.MissingPackage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result, record = run(hf, args.workload, args.seed, args.seconds, bool(args.trace))
    line = json.dumps({"record": record})
    with open(OUT / "results.jsonl", "a") as handle:
        handle.write(line + "\n")
    print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
