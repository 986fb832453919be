"""Lines of ``src/hahn_forge`` that an in-process pytest run executes (measurement only).

Usage (from the root of a checkout)::

    python3 bench/linecov.py [--out LINECOV.json] [--diff REV] [--show] [-- PYTEST_ARGS...]

The script puts the checkout's ``src`` first on ``sys.path``, installs a
``sys.settrace`` line collector and runs ``pytest.main(PYTEST_ARGS)`` (by
default ``-q -p no:cacheprovider tests``) in this process.  Only frames of
files under ``src/hahn_forge`` get a local trace function, and each of their
line events is recorded once.  Tests that start a subprocess run untraced.

A file's executable lines are the line numbers that the code objects
compiled from its source carry (``co_lines``), nested code included, so a
function's docstring and blank or comment lines are not counted.  Per file
the report gives the executable and executed counts and the unexecuted line
numbers; ``--show`` prints each unexecuted line with its text.  With
``--diff REV`` it also lists, per file, the lines that ``git diff -U0 REV``
adds and that are executable but did not run: an empty list means every new
executable line ran.  The exit status is pytest's.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hahn_forge"


def executable_lines(path):
    """Line numbers carried by the code objects compiled from ``path``, nested ones included."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def added_lines(rev, path):
    """Line numbers of ``path`` that ``git diff -U0 rev`` adds."""
    diff = subprocess.run(["git", "diff", "-U0", rev, "--", str(path)], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout
    out = set()
    for start, count in re.findall(r"^@@ -\S+ \+(\d+)(?:,(\d+))? @@", diff, flags=re.M):
        out.update(range(int(start), int(start) + (1 if count == "" else int(count))))
    return out


def collect(pytest_args):
    """(pytest's exit status, {file name: executed line numbers}) for one in-process run."""
    executed = {}
    files = {}  # co_filename -> the executed lines of its package file, or None outside the package

    def local(frame, event, _arg):
        if event == "line":
            files[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, _arg):
        name = frame.f_code.co_filename
        if name not in files:
            path = Path(name).resolve()
            files[name] = executed.setdefault(path.name, set()) if path.parent == PACKAGE else None
        if files[name] is None:
            return None
        files[name].add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), executed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    parser.add_argument("--diff", metavar="REV")
    parser.add_argument("--show", action="store_true")
    parser.add_argument("pytest_args", nargs="*")
    args = parser.parse_args(argv)
    status, executed = collect(args.pytest_args or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])

    report = {"pytest_exit": status, "files": {}}
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        missed = sorted(lines - executed.get(path.name, set()))
        entry = {"executable": len(lines), "executed": len(lines) - len(missed), "unexecuted": missed}
        if args.diff:
            entry["added_unexecuted"] = sorted(added_lines(args.diff, path) & set(missed))
        report["files"][path.name] = entry
        if args.show and missed:
            text = path.read_text().splitlines()
            for line in missed:
                print(f"{path.name}:{line}: {text[line - 1].strip()}", file=sys.stderr)
    total = sum(e["executable"] for e in report["files"].values())
    ran = sum(e["executed"] for e in report["files"].values())
    report["total"] = {"executable": total, "executed": ran, "unexecuted": total - ran}
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
