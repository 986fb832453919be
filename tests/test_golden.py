"""Golden CLI battery: stdout bytes and exit codes of fixed commands.

Each entry of ``golden/commands.json`` names a command line and its exit
code; ``golden/<name>.out`` holds the exact stdout.  A change that alters
any byte of the output fails here.  After an intended output change, run
``python tests/test_golden.py --record`` from the root of the repository
to rewrite the exit codes and outputs of the listed commands, and review
the diff.
"""

import contextlib
import io
import json
import os
import sys

import pytest

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
MANIFEST = os.path.join(GOLDEN, "commands.json")

with open(MANIFEST) as _handle:
    COMMANDS = json.load(_handle)


def _run(argv):
    from hahn_forge.cli import run_cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run_cli(list(argv))
    return code, out.getvalue().encode()


@pytest.mark.parametrize("name", list(COMMANDS))
def test_golden_output(name):
    entry = COMMANDS[name]
    with open(os.path.join(GOLDEN, f"{name}.out"), "rb") as handle:
        expected = handle.read()
    code, stdout = _run(entry["argv"])
    assert code == entry["exit"]
    assert stdout == expected


def record():
    for name, entry in COMMANDS.items():
        entry["exit"], stdout = _run(entry["argv"])
        with open(os.path.join(GOLDEN, f"{name}.out"), "wb") as handle:
            handle.write(stdout)
    with open(MANIFEST, "w") as handle:
        json.dump(COMMANDS, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__" and "--record" in sys.argv:
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
    record()
