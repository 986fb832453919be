"""One set-up measurement in a fresh interpreter.

Usage: ``python3 perfbench/setup_child.py <checkout root> <inputs.json>``.
Times importing ``hahn_forge``, building the default function registry
and parsing every generated input, and prints the seconds on stdout.
"""

import sys
import time

t0 = time.perf_counter()

import inputs  # noqa: E402  (imports nothing itself)

hf = inputs.load_package(sys.argv[1])
hf.analytic.default_registry()

import json  # noqa: E402  (already loaded by the package)

with open(sys.argv[2]) as handle:
    specs = json.load(handle)
for spec in specs:
    inputs.parse_inputs(spec, hf)
print(repr(time.perf_counter() - t0))
