"""Command-line fuzz: every golden argv and its flag variants end with a documented exit code.

Each argv of ``golden/commands.json`` runs as recorded, with ``--rank 2``
appended, with ``--prec`` and ``--lambda`` each set to ``0``, ``-1``,
``-1/2``, ``1/0`` and ``abc``, with ``--at`` and ``--center`` set to a
value of negative leading coefficient, and with ``--trials 0``.  ``run_cli`` must not raise,
its exit code must be one of 0, 1, 2 and 3, and stderr must hold no
traceback.  The sampling commands get ``--trials 10`` first, to keep the
test short.  Every run is in process.
"""

import contextlib
import io
import json
import os

import pytest

from hahn_forge.cli import run_cli

with open(os.path.join(os.path.dirname(__file__), "golden", "commands.json")) as _handle:
    COMMANDS = json.load(_handle)

SAMPLING = {"prepare", "verify", "jacobian", "probe-unit"}
VARIANTS = [
    [],
    ["--rank", "2"],
    *([flag, value] for flag in ("--prec", "--lambda") for value in ("0", "-1", "-1/2", "1/0", "abc")),
    ["--at", "-1*t^(1)"],
    ["--center", "-2*t^(1/2)"],
    ["--trials", "0"],
    ["--inv-zero-is-zero"],
]


@pytest.mark.parametrize("name", list(COMMANDS))
def test_every_variant_ends_with_a_documented_exit_code(name):
    argv = COMMANDS[name]["argv"]
    if SAMPLING & set(argv):
        argv = [*argv, "--trials", "10"]
    for extra in VARIANTS:
        line = [*argv, *extra]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = run_cli(line)
            except Exception as exc:  # noqa: BLE001 - any escape from run_cli is the failure under test
                pytest.fail(f"{line} raised {type(exc).__name__}: {exc}")
        assert code in (0, 1, 2, 3), line
        assert "Traceback" not in err.getvalue(), line
