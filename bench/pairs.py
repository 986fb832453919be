"""Paired parent/change runs of the benchmark, written to one BENCH JSON file.

Usage (from anywhere)::

    python3 bench/pairs.py PARENT_DIR CHANGE_DIR --out BENCH.json \\
        --workloads newton cli prepare --seeds 4001 4002 ... --seconds 25 [--trace 0]

``PARENT_DIR`` and ``CHANGE_DIR`` are two checkouts of the repository.  For
every workload and seed the script runs ``python3 perfbench/run.py`` once
in each checkout, in alternating order (parent first on even-numbered
seeds of the list, change first on odd ones), and reads the record line
and the result line of each run.  It exits 1, after writing the file, if
the two output digests of any pair differ or any run failed an operation.
With ``--trace 1`` each run's record also carries the work counts that
must repeat exactly (``series.mul.calls``, ``series.mul.pairs``,
``rv.rv_lambda.insufficient``, ``analytic.hensel_root.newton_steps``);
every pair whose counts differ is listed under ``count_mismatches``, for
the report only: it does not change the exit status.

The output holds every run (workload, seed, side, order, digest, attempted,
failed, metrics, and ``raw``: the uncalibrated ``raw_setup_s``,
``raw_ops_per_s``, ``raw_op_p50_ms`` and ``raw_op_p90_ms`` of the record
line, absent from a traced run) and, per workload and metric declared in
the parent's ``BENCHMARK.json`` and per raw reading, which is judged with
the unit, direction and bound of its calibrated metric: each side's
median and quartiles, the change's wins
over the parent (ties count for neither side), whether the medians differ
in the better direction by more than the parent's interquartile range,
and the relative change of the medians next to the metric's regression
bound with a verdict: ``within_bound``, ``worse``, or ``unresolved`` when
the parent's runs spread wider than the bound (IQR over median) and the
change's runs do not all read better than all of the parent's.  The
script reads
``perfbench/`` and ``BENCHMARK.json`` and writes only the output file; the
benchmark itself writes to each checkout's ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

# the record line's readings before calibration, each named after its calibrated metric
RAW = ("raw_setup_s", "raw_ops_per_s", "raw_op_p50_ms", "raw_op_p90_ms")


def run_once(checkout, workload, seed, seconds, trace):
    """One benchmark run in ``checkout``; returns (record, result)."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(argv)} in {checkout} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def quartiles(values):
    """(q1, median, q3); with a single value all three are that value."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(pairs, sign, bound, worse):
    """``unresolved`` when the parent's IQR over its median exceeds ``bound``
    and some change run reads no better than some parent run; else
    ``worse`` or ``within_bound`` by the median change."""
    parent, change = [p for p, _ in pairs], [c for _, c in pairs]
    q1, median, q3 = quartiles(parent)
    spread = (q3 - q1) / abs(median) if median else (0.0 if q3 == q1 else float("inf"))
    separated = all(sign * (c - p) > 0 for c in change for p in parent)
    if spread > bound and not separated:
        return "unresolved"
    return "worse" if worse else "within_bound"


def summarize(runs, declared):
    """Per workload and metric: side quartiles, wins and the median change."""
    out = {}
    for workload in sorted({r["workload"] for r in runs}):
        rows = [r for r in runs if r["workload"] == workload]
        seeds = sorted({r["seed"] for r in rows})
        side = {(r["seed"], r["side"]): {**r["metrics"], **r.get("raw", {})} for r in rows}
        table = {}
        for name, spec in declared.items():
            pairs = [(side[s, "parent"][name], side[s, "change"][name]) for s in seeds
                     if name in side[s, "parent"] and name in side[s, "change"]]
            if not pairs:
                continue
            sign = 1 if spec["better"] == "higher" else -1
            entry = {"unit": spec["unit"], "better": spec["better"], "pairs": len(pairs),
                     "wins": sum(1 for p, c in pairs if sign * (c - p) > 0)}
            for label, values in (("parent", [p for p, _ in pairs]), ("change", [c for _, c in pairs])):
                q1, med, q3 = quartiles(values)
                entry[label] = {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}
            base = entry["parent"]["median"]
            entry["median_change"] = (entry["change"]["median"] - base) / base if base else None
            entry["gain_beyond_parent_iqr"] = sign * (entry["change"]["median"] - base) > entry["parent"]["iqr"]
            if "bound" in spec:
                entry["bound"] = spec["bound"]
                worse = entry["median_change"] is not None and -sign * entry["median_change"] > spec["bound"]
                entry["within_bound"] = not worse
                entry["verdict"] = verdict(pairs, sign, spec["bound"], worse)
            table[name] = entry
        out[workload] = table
    return out


def declared_metrics(checkout):
    """Name -> {unit, better[, bound]} for every metric in BENCHMARK.json, and for
    each raw reading that of its calibrated metric."""
    spec = json.loads((Path(checkout) / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    declared.update({name: {**declared[name[4:]], "name": name} for name in RAW if name[4:] in declared})
    return declared


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs, mismatches, count_mismatches = [], [], []
    for workload in args.workloads:
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            digests, counts = {}, {}
            for position, side in enumerate(order):
                record, result = run_once(checkouts[side], workload, seed, args.seconds, args.trace)
                digests[side] = record["digest"]
                counts[side] = record.get("counts", {})
                runs.append({
                    "workload": workload, "seed": record["seed"], "side": side, "order": position,
                    "digest": record["digest"], "attempted": result["attempted"], "failed": result["failed"],
                    "metrics": {name: m["value"] for name, m in result["metrics"].items()},
                    "raw": {name: record[name] for name in RAW if name in record},
                })
                # traced results carry no end-to-end metrics, so no ops_per_s
                rate = result["metrics"].get("ops_per_s")
                print(f"{workload} seed {seed} {side}: digest {record['digest'][:12]} failed {result['failed']}"
                      + (f" ops_per_s {rate['value']}" if rate else ""), file=sys.stderr, flush=True)
            if digests["parent"] != digests["change"]:
                mismatches.append({"workload": workload, "seed": seed, **digests})
            for name in sorted(set(counts["parent"]) | set(counts["change"])):
                parent, change = counts["parent"].get(name), counts["change"].get(name)
                if parent != change:
                    count_mismatches.append({"workload": workload, "seed": seed, "count": name,
                                             "parent": parent, "change": change})

    report = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} --trace {args.trace}",
        "order": "per workload, seeds in list order; parent first on even list positions, change first on odd",
        "seeds": args.seeds,
        "digest_mismatches": mismatches,
        # untraced records carry no counts, so the comparison exists only when traced
        **({"count_mismatches": count_mismatches} if args.trace else {}),
        "failed_runs": sum(1 for r in runs if r["failed"]),
        "summary": summarize(runs, declared_metrics(checkouts["parent"])),
        "runs": runs,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    if mismatches or report["failed_runs"]:
        print(f"error: {len(mismatches)} digest mismatches, {report['failed_runs']} runs with failures",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
