"""The summary of ``bench/pairs.py`` on synthetic runs: calibrated metrics and raw readings side by side.

No benchmark runs here; the runs are made up so that each verdict is known.
"""

import importlib.util
import os

import pytest

_ROOT = os.path.join(os.path.dirname(__file__), "..")

_spec = importlib.util.spec_from_file_location("bench_pairs", os.path.join(_ROOT, "bench", "pairs.py"))
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def _runs(parent, change, raw_parent, raw_change):
    """One run per seed and side; ``raw_*`` None leaves the raw readings out, as a traced run does."""
    runs = []
    for seed, values in enumerate(zip(parent, change, raw_parent or parent, raw_change or change)):
        for side, metric, raw in (("parent", values[0], values[2]), ("change", values[1], values[3])):
            run = {"workload": "w", "seed": seed, "side": side, "metrics": {"setup_s": metric}}
            if raw_parent is not None:
                run["raw"] = {"raw_setup_s": raw}
            runs.append(run)
    return runs


def test_every_raw_reading_takes_the_declaration_of_its_calibrated_metric():
    declared = pairs.declared_metrics(_ROOT)
    for name in pairs.RAW:
        calibrated = declared[name[len("raw_"):]]
        assert declared[name] == {**calibrated, "name": name}
        assert "bound" in declared[name]


def test_raw_readings_get_their_own_quartiles_and_verdicts():
    declared = pairs.declared_metrics(_ROOT)
    # the calibrated set-up times spread over the 25% bound and overlap; the raw ones are tight and worse
    runs = _runs([1.0, 2.0, 1.0, 2.0, 1.5], [1.5, 1.5, 1.5, 1.5, 1.5],
                 [1.0, 1.0, 1.0, 1.0, 1.0], [1.3, 1.3, 1.3, 1.3, 1.3])
    table = pairs.summarize(runs, declared)["w"]
    calibrated, raw = table["setup_s"], table["raw_setup_s"]
    assert calibrated["verdict"] == "unresolved"
    assert raw["parent"] == {"median": 1.0, "q1": 1.0, "q3": 1.0, "iqr": 0.0}
    assert raw["change"]["median"] == 1.3 and raw["pairs"] == 5 and raw["wins"] == 0
    assert raw["median_change"] == pytest.approx(0.3)
    assert raw["bound"] == 0.25 and raw["verdict"] == "worse" and not raw["within_bound"]


def test_runs_without_raw_readings_report_only_calibrated_metrics():
    declared = pairs.declared_metrics(_ROOT)
    table = pairs.summarize(_runs([1.0, 1.0], [0.9, 0.9], None, None), declared)["w"]
    assert set(table) == {"setup_s"}
    assert table["setup_s"]["verdict"] == "within_bound" and table["setup_s"]["wins"] == 2
