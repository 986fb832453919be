"""Self-test of the benchmark itself.

Usage: ``python3 perfbench/selftest.py`` from the root of a checkout.  Takes
about two minutes.  It checks that

- one short round of each workload runs clean, untraced and traced, and
  reports exactly the metrics ``BENCHMARK.json`` declares;
- the named counts and the output digest repeat exactly across two traced
  runs with the same seed in fresh processes, and match the untraced digest;
- the gate flags a deliberately wrong result (a perturbed inverse) and the
  traced ``error_rate`` counts it;
- the tracer's coverage assertion catches an unwrapped reference.
"""

from __future__ import annotations

import json
import subprocess
import sys

import inputs
import run
import tracer as tracing
import workloads

SEED = 7
COUNTS = ("series.mul.calls", "series.mul.pairs", "rv.rv_lambda.insufficient", "analytic.hensel_root.newton_steps")


def check(condition, message):
    if not condition:
        raise AssertionError(message)
    print(f"ok  {message}", flush=True)


def declared():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    check([w["name"] for w in spec["workloads"]] == list(workloads.NAMES), "BENCHMARK.json lists the three workloads")
    check(end_to_end == run.END_TO_END, "BENCHMARK.json end_to_end matches the run's metrics")
    check(per_layer == run.per_layer_names(), "BENCHMARK.json per_layer matches the tracer's metrics")
    return dict(end_to_end), {n: u for n, u, _ in per_layer}


def traced_in_fresh_process(workload):
    proc = subprocess.run(
        [sys.executable, str(run.ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=180, cwd=run.ROOT, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def short_runs(hf, end_to_end, per_layer):
    for workload in workloads.NAMES:
        result, record = run.run(hf, workload, SEED, 0, False, rounds=1)
        check(result["correct"] and result["failed"] == 0 and result["attempted"] == record["ops_per_round"],
              f"{workload}: one untraced round runs clean ({result['attempted']} operations)")
        check({k: v["unit"] for k, v in result["metrics"].items()} == end_to_end,
              f"{workload}: untraced run reports every end-to-end metric with its unit")
        first, traced = traced_in_fresh_process(workload)
        second, _ = traced_in_fresh_process(workload)
        check(traced["correct"] and traced["metrics"]["error_rate"]["value"] == 0,
              f"{workload}: traced round runs clean")
        check({k: v["unit"] for k, v in traced["metrics"].items()} == per_layer,
              f"{workload}: traced run reports every per-layer metric with its unit")
        check(first["counts"] == second["counts"] and all(k in first["counts"] for k in COUNTS),
              f"{workload}: named counts repeat exactly {first['counts']}")
        check(first["digest"] == second["digest"] == record["digest"],
              f"{workload}: output digest repeats across processes and tracing")
        if workload == "prepare":
            check(traced["metrics"]["series.invert.calls"]["value"] == 0, "prepare: invert is never called")
        share = {"prepare": "trace.prepare_share", "newton": "trace.solver_share"}.get(workload)
        if share:
            check(traced["metrics"][share]["value"] > 0.5, f"{workload}: {share} is most of the operation time")


def gate_flags_wrong_inverse(hf):
    original = workloads.run_op

    def perturbed(spec, parsed, hf_, stats, prior):
        out = original(spec, parsed, hf_, stats, prior)
        if spec["kind"] == "invert":
            lead = out.approx.valuation()
            out = out + hf_.series.TruncatedSeries.monomial(1, lead)  # wrong leading coefficient
        return out

    workloads.run_op = perturbed
    try:
        result, _ = run.run(hf, "newton", SEED, 0, True, rounds=1)
    finally:
        workloads.run_op = original
    inverts = sum(1 for s in workloads.generate("newton", SEED, 1)[0] if s["kind"] == "invert")
    # the traced run executes the round twice: once untraced, once traced
    check(not result["correct"] and result["failed"] == 2 * inverts,
          f"gate flags every perturbed inverse ({result['failed']} of {result['attempted']})")
    rate = result["metrics"]["error_rate"]["value"]
    check(rate == result["failed"] / result["attempted"], f"error_rate counts them ({rate:.4f})")


def coverage_catches_leak(hf):
    t = tracing.Tracer(hf)
    t.install()
    try:
        original = next(orig for owner, name, orig in t.patches if name == "eval_term")
        hf.cli._leaked_eval_term = original
        try:
            t.assert_coverage()
        except tracing.CoverageError as exc:
            check("eval_term" in str(exc), "coverage assertion names an unwrapped reference")
        else:
            raise AssertionError("coverage assertion missed an unwrapped reference")
        finally:
            del hf.cli._leaked_eval_term
    finally:
        t.remove()
    check(hf.series.invert.__name__ == "invert" and not hasattr(hf.series.invert, "__wrapped__"),
          "tracer removal restores the originals")


def main():
    hf = inputs.load_package(str(run.ROOT))
    run.OUT.mkdir(exist_ok=True)
    end_to_end, per_layer = declared()
    coverage_catches_leak(hf)
    gate_flags_wrong_inverse(hf)
    short_runs(hf, end_to_end, per_layer)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
