"""Tier-1 test suite timed in two checkouts, written to one JSON file.

Usage (from anywhere)::

    python3 bench/tier1.py PARENT_DIR CHANGE_DIR --out BENCH_tier1.json --repeats 3

``PARENT_DIR`` and ``CHANGE_DIR`` are two checkouts of the repository.
Each repeat runs the Tier-1 command (``python -m pytest -q
--continue-on-collection-errors`` on the checkout's ``tests`` with its
``src`` on ``PYTHONPATH``) once in each checkout, in alternating order
(parent first on even repeats, change first on odd ones).  Every run has
``PYTHONDONTWRITEBYTECODE=1`` and ``-p no:cacheprovider``, starts in a
fresh temporary directory and writes its ``--junitxml`` there, so nothing
is written into either checkout.

From each junit file the script records the run's wall time; its passed,
failed, error and skipped counts; the time of each ``test_criterion_1`` to
``test_criterion_8``; and the summed time of ``test_golden.py``.  It then
writes each side's medians.  It exits 1, after writing the file, if any
run had a failure or an error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path

CRITERIA = [f"test_criterion_{i}" for i in range(1, 9)]


def run_once(checkout):
    """One Tier-1 run in ``checkout``; returns its wall time and junit tallies."""
    with tempfile.TemporaryDirectory(prefix="tier1-") as tmp:
        junit = Path(tmp) / "junit.xml"
        argv = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                f"--junitxml={junit}", str(checkout / "tests")]
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(checkout / "src"), env.get("PYTHONPATH")]))
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=tmp, env=env, capture_output=True, text=True, check=False)
        wall = time.perf_counter() - start
        if not junit.exists():
            raise RuntimeError(f"{' '.join(argv)} in {checkout} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        tally = read_junit(junit)
    return {"wall_s": wall, "returncode": proc.returncode, **tally}


def read_junit(path):
    """Counts, criterion times and the golden battery's summed time of a junit file."""
    counts = {"passed": 0, "failed": 0, "errors": 0, "skipped": 0}
    criteria, golden = {}, 0.0
    for case in ET.parse(path).getroot().iter("testcase"):
        outcome = "passed"
        for child in case:
            if child.tag in ("failure", "error", "skipped"):
                outcome = {"failure": "failed", "error": "errors", "skipped": "skipped"}[child.tag]
        counts[outcome] += 1
        name, seconds = case.get("name", ""), float(case.get("time", 0))
        for criterion in CRITERIA:
            if name == criterion or name.startswith(criterion + "_"):
                criteria[criterion] = seconds
        if case.get("classname", "").split(".")[-1] == "test_golden":
            golden += seconds
    return {**counts, "criteria": criteria, "golden_s": golden}


def medians(runs):
    """The median of every recorded number over one side's runs."""
    out = {key: statistics.median(r[key] for r in runs) for key in ("wall_s", "passed", "failed", "errors",
                                                                    "skipped", "golden_s")}
    out["criteria"] = {c: statistics.median(r["criteria"][c] for r in runs) for c in CRITERIA
                       if all(c in r["criteria"] for r in runs)}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = []
    for repeat in range(args.repeats):
        order = ("parent", "change") if repeat % 2 == 0 else ("change", "parent")
        for position, side in enumerate(order):
            result = run_once(checkouts[side])
            runs.append({"side": side, "repeat": repeat, "order": position, **result})
            print(f"repeat {repeat} {side}: {result['wall_s']:.1f} s, {result['passed']} passed, "
                  f"{result['failed']} failed, {result['errors']} errors", file=sys.stderr, flush=True)

    bad = [r for r in runs if r["failed"] or r["errors"]]
    report = {
        "command": "PYTHONDONTWRITEBYTECODE=1 PYTHONPATH=CHECKOUT/src python -m pytest -q "
                   "--continue-on-collection-errors -p no:cacheprovider --junitxml=TMP/junit.xml CHECKOUT/tests",
        "order": "parent first on even repeats, change first on odd",
        "repeats": args.repeats,
        "runs_with_failures": len(bad),
        "medians": {side: medians([r for r in runs if r["side"] == side]) for side in checkouts},
        "runs": runs,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    if bad:
        print(f"error: {len(bad)} runs with failures or errors", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
