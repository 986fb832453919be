"""The table of ``bench/layers.py`` against the package and the benchmark's workloads.

Each row of ``LAYERS`` names a function by the module its caller reads and
operations by ``workload:label``; a rename on either side fails here rather
than in the next layers run.  The comparison of two sides' outputs is
checked on synthetic outputs.  Loading the table starts no process and runs
no operation.
"""

import importlib
import importlib.util
import json
import os

_ROOT = os.path.join(os.path.dirname(__file__), "..")

_spec = importlib.util.spec_from_file_location("bench_layers", os.path.join(_ROOT, "bench", "layers.py"))
layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layers)


def test_every_layer_row_names_a_function_of_the_package():
    missing = [f"{row.module}.{row.name}" for row in layers.LAYERS
               if not callable(getattr(importlib.import_module(f"hahn_forge.{row.module}"), row.name, None))]
    assert not missing


def test_every_layer_row_selects_operations_the_workloads_generate(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(_ROOT, "perfbench"))
    workloads = importlib.import_module("workloads")
    labels = {f"{workload}:{layers.label(op)}" for workload in workloads.NAMES
              for ops in workloads.generate(workload, layers.SEED, 1) for op in ops}
    unknown = [op for row in layers.LAYERS for op in row.ops if op not in labels]
    assert not unknown


def test_profiled_calls_count_python_and_c_calls_and_repeat():
    def inner(x):
        return sorted(x)

    def outer(a, b):
        return inner(a) + inner(b) + [len(a)]

    counts = {layers.profiled_calls(outer, ([2, 1], [3]), {}) for _ in range(3)}
    # outer, inner twice, sorted twice, len, and the sys.setprofile(None) that ends the count
    assert counts == {7}


def test_a_grouped_call_of_another_length_is_a_call_count_change_not_a_mismatch():
    grouped = next(row.layer for row in layers.LAYERS if row.grouped)
    single = next(row.layer for row in layers.LAYERS if not row.grouped)
    dump = lambda *xs: json.dumps(list(xs))
    parent = [dump("a", "b"), dump("a", "b", "c"), dump("a", "b"), json.dumps("x"), json.dumps("y")]
    change = [dump("a", "b"), dump("a", "c"), dump("a", "z"), json.dumps("x"), json.dumps("z")]
    mismatches, counts = layers.compare([grouped] * 3 + [single] * 2, parent, change)
    assert counts == [{"call": 1, "kind": grouped, "parent": 3, "change": 2}]
    assert mismatches == [{"call": 2, "kind": grouped, "parent": parent[2], "change": change[2]},
                          {"call": 4, "kind": single, "parent": parent[4], "change": change[4]}]


def test_a_single_call_whose_list_changes_length_is_an_output_mismatch():
    single = next(row.layer for row in layers.LAYERS if not row.grouped)
    parent, change = [json.dumps([1, 2])], [json.dumps([1])]
    assert layers.compare([single], parent, change) == ([{"call": 0, "kind": single, "parent": parent[0],
                                                            "change": change[0]}], [])
