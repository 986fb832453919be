"""``bench/history.py`` on synthetic records: which files it reads, in what order, and the older key sets."""

import importlib.util
import json
import os

import pytest

_ROOT = os.path.join(os.path.dirname(__file__), "..")

_spec = importlib.util.spec_from_file_location("bench_history", os.path.join(_ROOT, "bench", "history.py"))
history = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(history)


def _metric(parent, change, verdict=None):
    out = {"parent": {"median": parent}, "change": {"median": change}}
    return out if verdict is None else {**out, "verdict": verdict}


def _write(directory, records):
    for name, record in records.items():
        (directory / name).write_text(json.dumps(record))


def test_the_trajectory_of_each_kind_of_record_in_number_order(tmp_path):
    _write(tmp_path, {
        "BENCH_10.json": {"summary": {"cli": {"ops_per_s": _metric(900.0, 1000.0, "within_bound")}}},
        "BENCH_7.json": {"summary": {"newton": {"op_p90_ms": _metric(1.5, 1.25)}}},
        "BENCH_10_layers.json": {"summary": {
            "invert": {"parent": {"median": 7.5, "profiled_calls": 120}, "change": {"median": 7.0, "profiled_calls": 96}},
            "older": {"parent": {"median": 2.0}, "change": {"median": 2.0}},
        }},
        "BENCH_9_layers.json": {"summary": {"invert": {"parent": {"median": 7.5}, "change": {"median": 7.0}}}},
        "LINECOV_10.json": {"pytest_exit": 0, "files": {}, "total": {"executable": 3124, "executed": 3114}},
        "REACH_10.json": {"summary": {"group": {"family": {"caught": 59, "total": 300, "holes": {
            "grid": {"caught": 59, "total": 72}, "step": {"caught": 0, "total": 156}}}}}, "cases": []},
        "REACH_9.json": {"summary": {"group": {}}},
        "BENCH_10_trace.json": {"summary": {"cli": {"ops_per_s": _metric(1.0, 2.0)}}},
        "BENCH_10_tier1.json": {"pairs": []},
        "BENCH_10_tier1_2843bbc.json": {"pairs": []},
        "notes.json": {},
    })
    before = sorted(os.listdir(tmp_path))
    lines = history.history(tmp_path)
    assert [line.split() for line in lines] == [
        ["BENCH_7.json"],
        ["newton", "op_p90_ms", "parent", "1.5", "change", "1.25", "-"],
        ["BENCH_9_layers.json"],
        ["REACH_9.json"],
        ["BENCH_10.json"],
        ["cli", "ops_per_s", "parent", "900", "change", "1000", "within_bound"],
        ["BENCH_10_layers.json"],
        ["invert", "profiled_calls", "parent", "120", "change", "96"],
        ["LINECOV_10.json"],
        ["executable", "3124", "executed", "3114"],
        ["REACH_10.json"],
        ["family", "caught", "59", "of", "300", "grid", "59/72", "step", "0/156"],
    ]
    assert sorted(os.listdir(tmp_path)) == before


def test_main_prints_the_trajectory(tmp_path, capsys):
    _write(tmp_path, {"LINECOV_3.json": {"total": {"executable": 10, "executed": 9}}})
    assert history.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "LINECOV_3.json\n  executable 10  executed 9\n"


def test_help_prints_the_usage(capsys):
    with pytest.raises(SystemExit) as exit_:
        history.main(["--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ")


def test_a_missing_directory_exits_2_with_a_message(tmp_path, capsys):
    missing = tmp_path / "absent"
    with pytest.raises(SystemExit) as exit_:
        history.main([str(missing)])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and f"not a directory: {missing}" in err
