"""The examples of ``README.md`` run as written.

Each ``hahn-forge ...`` line of the CLI section followed by a ``# {...}``
line runs through ``run_cli`` in process, and its stdout must be that JSON.
The Library sketch runs as one block, and each of its ``print(...)  # ...``
comments must be the line printed.
"""

import contextlib
import io
import json
import os
import re
import shlex

import pytest
from test_golden import _run

README = os.path.join(os.path.dirname(__file__), "..", "README.md")

with open(README) as _handle:
    TEXT = _handle.read()


def _cli_examples():
    lines = TEXT.splitlines()
    return [(line, lines[i + 1][2:]) for i, line in enumerate(lines[:-1])
            if line.startswith("hahn-forge ") and lines[i + 1].startswith("# {")]


def test_every_documented_output_is_checked():
    assert len(_cli_examples()) >= 4


@pytest.mark.parametrize("command, output", _cli_examples())
def test_cli_example(command, output):
    code, stdout = _run(shlex.split(command)[1:])
    assert code == 0
    assert json.loads(stdout.decode()) == json.loads(output)


def test_library_sketch():
    block = re.search(r"## Library sketch\s+```python\n(.*?)```", TEXT, re.S).group(1)
    expected = [line.split("# ", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert expected and out.getvalue().splitlines() == expected
