"""The trajectory of the committed benchmark records, printed as text.

Usage (from anywhere)::

    python3 bench/history.py [DIR]

``DIR`` (default: the root of this checkout) holds the records that the
other scripts of ``bench/`` write; a ``DIR`` that is not a directory exits
2 with a usage message, and ``--help`` prints the usage.  In the order of
their number ``n``, the script prints

- for each ``BENCH_<n>.json`` (``bench/pairs.py``): per workload and
  metric, the parent's and the change's median and the verdict;
- for each ``BENCH_<n>_layers.json`` (``bench/layers.py``): per layer, the
  parent's and the change's ``profiled_calls``, where the record has them;
- for each ``LINECOV_<n>.json`` (``bench/linecov.py``): the executable and
  executed line totals;
- for each ``REACH_<n>.json`` (``bench/reach.py``): per group of cases, the
  cases caught of the total, overall and per hole.

Other files, such as ``BENCH_<n>_trace.json`` and ``BENCH_<n>_tier1.json``,
are skipped.  Older records lack some keys (no ``verdict`` before
``BENCH_8.json``, no ``profiled_calls`` before ``BENCH_26_layers.json``);
a missing value prints as ``-``.  The script uses the standard library only
and writes no file.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD = re.compile(r"BENCH_(\d+)(_layers)?\.json|(LINECOV|REACH)_(\d+)\.json")
# the order of a number's records
KINDS = ("pairs", "layers", "linecov", "reach")


def records(directory):
    """``(n, kind, path)`` of every record in ``directory``, sorted by number and then kind."""
    out = []
    for path in Path(directory).iterdir():
        match = RECORD.fullmatch(path.name)
        if match is None:
            continue
        bench, layers, other, number = match.groups()
        if other is not None:
            out.append((int(number), other.lower(), path))
        else:
            out.append((int(bench), "layers" if layers else "pairs", path))
    return sorted(out, key=lambda r: (r[0], KINDS.index(r[1])))


def _number(value):
    return "-" if value is None else f"{value:.6g}" if isinstance(value, float) else str(value)


def pairs_lines(record):
    for workload, metrics in record.get("summary", {}).items():
        for metric, s in metrics.items():
            parent, change = (s.get(side, {}).get("median") for side in ("parent", "change"))
            yield (f"  {workload:<8} {metric:<16} parent {_number(parent):>12}  change {_number(change):>12}  "
                   f"{s.get('verdict', '-')}")


def layers_lines(record):
    for layer, s in record.get("summary", {}).items():
        parent, change = (s.get(side, {}).get("profiled_calls") for side in ("parent", "change"))
        if parent is not None or change is not None:
            yield f"  {layer:<20} profiled_calls parent {_number(parent):>10}  change {_number(change):>10}"


def linecov_lines(record):
    total = record.get("total", {})
    yield f"  executable {_number(total.get('executable'))}  executed {_number(total.get('executed'))}"


def reach_lines(record):
    for group, tally in record.get("summary", {}).get("group", {}).items():
        holes = "  ".join(f"{hole} {h['caught']}/{h['total']}" for hole, h in tally.get("holes", {}).items())
        yield f"  {group:<16} caught {tally['caught']:>4} of {tally['total']:<4} {holes}"


LINES = {"pairs": pairs_lines, "layers": layers_lines, "linecov": linecov_lines, "reach": reach_lines}


def history(directory):
    """The printed trajectory, one string per line."""
    out = []
    for _, kind, path in records(directory):
        out.append(path.name)
        out.extend(LINES[kind](json.loads(path.read_text())))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("directory", metavar="DIR", type=Path, nargs="?", default=ROOT,
                        help="the directory of the records (default: the root of this checkout)")
    args = parser.parse_args(argv)
    if not args.directory.is_dir():
        parser.error(f"not a directory: {args.directory}")
    for line in history(args.directory):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
