"""``bench/reach.py`` on a tiny synthetic corpus, in process: the hole labels, the tallies and the record."""

import importlib.util
import json
import os
from collections import Counter
from fractions import Fraction

_ROOT = os.path.join(os.path.dirname(__file__), "..")

_spec = importlib.util.spec_from_file_location("bench_reach", os.path.join(_ROOT, "bench", "reach.py"))
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)


def test_the_hole_labels():
    assert reach.hole("verify_preparation", 1, (Fraction(1, 2),)) == "grid"
    assert reach.hole("verify_preparation", 1, (Fraction(1, 3),)) == "step"
    assert reach.hole("verify_preparation", 10, (Fraction(1),)) == "coefficient"
    assert reach.hole("verify_preparation", 1, (Fraction(3),)) == "range"
    assert reach.hole("verify_preparation", 1, (Fraction(3),), lam=Fraction(1)) == "grid"
    assert reach.hole("jacobian_probe", 1, (Fraction(3),)) == "grid"
    assert reach.hole("verify_preparation", 1, (Fraction(0), Fraction(1, 2))) == "rank"
    assert reach.hole("verify_preparation", 10, (Fraction(1, 3),)) == "several"


def test_the_family_covers_each_hole_as_measured():
    family = [case for case in reach.corpus() if case["group"] == "family"]
    assert len(family) == 300
    assert Counter(case["hole"] for case in family) == {"grid": 72, "step": 156, "coefficient": 18, "range": 8,
                                                        "several": 46}


def test_a_tiny_corpus_is_measured_and_tallied():
    cases = [
        reach._case("tiny", "verify_preparation", "x^2 - 1*t^(1)", 1, (Fraction(1, 2),), 40, 5,
                    poly=(2, Fraction(1), (Fraction(1),))),
        reach._case("tiny", "verify_preparation", "x^2 - 100*t^(1)", 10, (Fraction(1, 2),), 10, 77,
                    poly=(2, Fraction(100), (Fraction(1),))),
        reach._case("points", "check_prepares", "x > r, r = 1*t^(1/2)", 1, (Fraction(1, 2),), 60, 2,
                    point=(Fraction(1), Fraction(1, 2))),
        reach._case("points", "jacobian_probe", "(x - r)^2, r = 1*t^(1/2)", 1, (Fraction(1, 2),), 30, 5,
                    point=(Fraction(1), Fraction(1, 2))),
    ]
    record = reach.measure(cases, reach.load_package())
    verdicts = [(case["hole"], case["verdict"]) for case in record["cases"]]
    # the Jacobian probe misses r at 30 trials by sampling luck; at 1000 it catches it
    assert verdicts == [("grid", "fail"), ("coefficient", "pass"), ("grid", "fail"), ("grid", "pass")]
    assert all(case["checked"] > 0 for case in record["cases"])
    tiny = record["summary"]["group"]["tiny"]
    assert (tiny["caught"], tiny["total"]) == (1, 2)
    assert tiny["holes"] == {"grid": {"caught": 1, "total": 1}, "coefficient": {"caught": 0, "total": 1}}
    assert record["summary"]["sampler"]["verify_preparation"] == tiny
    assert record["summary"]["sampler"]["check_prepares"]["caught"] == 1
    assert json.loads(json.dumps(record))["cases"][0]["poly"] == [2, "1", ["1"]]


def test_the_ranges_and_the_pool_are_those_the_samplers_draw(monkeypatch):
    # each sampler runs one trial at lambda 0 through reach.run_case; the recording near_sample keeps the
    # schedule it is given and draws nothing, so every attempt resamples
    hf = reach.load_package()
    schedules = []

    def recording(rng, centers, lam, rows, *args, **kwargs):
        schedules.append(rows)
        return None

    for module in (hf.rv, hf.prepare):
        monkeypatch.setattr(module, "near_sample", recording)
    data = {"verify_preparation": {"poly": (2, Fraction(1), (Fraction(1),))},
            "jacobian_probe": {"point": (Fraction(1), Fraction(1, 2))},
            "check_prepares": {"point": (Fraction(1), Fraction(1, 2))}}
    assert set(data) == set(reach.RANGES)
    for sampler, datum in data.items():
        case = reach._case("schedule", sampler, sampler, 1, (Fraction(1, 2),), 1, 5, **datum)
        assert reach.run_case(case, hf) == ("undecided", 0)
        gammas = [gamma for gamma, _key, _base in schedules[-1]]
        assert all(gamma.rank == 1 for gamma in gammas)
        assert (gammas[0].first(), gammas[-1].first()) == reach.RANGES[sampler]
        assert {b.first() - a.first() for a, b in zip(gammas, gammas[1:])} == {Fraction(1, 2)}
    assert {abs(c) for c in hf.rv._COEFF_POOL} == set(reach.POOL)
