"""The sampling verifiers' reach: which sets that do not prepare their input they catch, per hole.

Usage (from anywhere)::

    python3 bench/reach.py --out REACH_<n>.json

The script puts the checkout's ``src`` first on ``sys.path`` and runs a
fixed corpus of cases in this process, each with a fixed seed.  Every case
is a set C that does not do its job: a root, a critical point or a
boundary point r != 0 of the input lies in K and C = {0}.  A case is
caught when its verifier reports ``fail``; a ``pass`` is a miss.  The
samplers draw gamma = v(x0 - c) on a grid of half steps in the first
coordinate over a fixed range, and leading coefficients from +-1..9
(ROADMAP item 19), so each case is labelled by the holes its point r lies
in:

- ``step``: v(r) is off the half-integer grid;
- ``coefficient``: the leading coefficient of r is not in +-1..9;
- ``range``: v(r) lies outside the sampler's range of gamma;
- ``rank``: v(r) has a nonzero coordinate after the first;

``grid`` when r lies in none, and ``several`` when it lies in two or more.

The corpus:

- ``family``: p = x^n - s^n t^(q e), the image under sigma_q of
  x^n - s^n t^e, for n in 2, 3, s in 1, 2, 3, 4, 10, e in 1/2, 1, 3/2, 2,
  3, 4 and q in 1, 2, 1/2, 2/3, 1/3 (300 polynomials, root s t^(q e / n)),
  each through ``verify_preparation`` at lambda 0, 300 trials, seed 5;
- ``table``: x^2 - t, x^2 - 100 t, x^3 - t, x^2 - 4 t^(2/3) and
  x^2 - t/4 at lambda 0, seed 77, 500 and 3000 trials;
- ``range``: x^2 - t^k for k in 4, 6, -4, -6 at lambda 0, seed 5, 3000
  trials;
- ``rank2``: x^2 - t^(0,1) and x^2 - t^(2,0) at lambda (0, 0), seed 1,
  1000 trials;
- ``jacobian``: (x - r)^2 through ``jacobian_probe``, whose shift
  v(f(x) - f(y)) - v(x - y) is not constant on the ball around r, and
- ``check_prepares``: the half-line x > r through ``check_prepares`` at
  lambda 0, each for six points r = c t^v, 1000 trials, seed 5.

``REACH_<n>.json`` holds every case (group, sampler, text, hole, trials,
seed, the polynomial or the point, the verdict and the ``checked`` count of
trials that ran to the end) and, per group and per sampler, ``caught`` and ``total``, overall and
per hole.  The script uses the standard library and the package only,
starts no process and exits 0: the record is a measure, not a gate.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the draws every sampler shares: leading coefficients +-1..9, gamma on
# half steps in the first coordinate, each sampler's range of gamma
POOL = range(1, 10)
RANGES = {"verify_preparation": (Fraction(-2), Fraction(2)), "jacobian_probe": (Fraction(-2), Fraction(3)),
          "check_prepares": (Fraction(-2), Fraction(5, 2))}


def hole(sampler, coefficient, valuation, lam=Fraction(0)):
    """The hole label of a point with leading ``coefficient`` and ``valuation`` (a tuple of Fractions)."""
    low, high = RANGES[sampler]
    holes = [name for name, off in (
        ("step", (2 * valuation[0]).denominator != 1),
        ("coefficient", abs(coefficient) not in POOL),
        ("range", not low <= valuation[0] <= high + (lam if sampler == "verify_preparation" else 0)),
        ("rank", any(valuation[1:])),
    ) if off]
    return "grid" if not holes else holes[0] if len(holes) == 1 else "several"


def _case(group, sampler, text, coefficient, valuation, trials, seed, **data):
    return {"group": group, "sampler": sampler, "text": text,
            "hole": hole(sampler, coefficient, valuation, data.get("lam", Fraction(0))),
            "trials": trials, "seed": seed, **data}


def _power_text(n, c, e):
    """The text of x^n - c t^(e) for a rank-1 or rank-2 exponent tuple e."""
    exponent = ",".join(str(q) for q in e)
    return f"x^{n} - {c}*t^({exponent})"


def corpus():
    """Every case of the record, as plain data: ``(n, c, e)`` polynomials x^n - c t^e or a point r."""
    cases = []
    for n in (2, 3):
        for s in (1, 2, 3, 4, 10):
            for e in (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3), Fraction(4)):
                for q in (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(2, 3), Fraction(1, 3)):
                    c, exp = Fraction(s) ** n, (q * e,)
                    cases.append(_case("family", "verify_preparation", _power_text(n, c, exp), s,
                                       (q * e / n,), 300, 5, poly=(n, c, exp)))
    for n, c, e, root in ((2, 1, 1, 1), (2, 100, 1, 10), (3, 1, 1, 1), (2, 4, Fraction(2, 3), 2),
                          (2, Fraction(1, 4), 1, Fraction(1, 2))):
        for trials in (500, 3000):
            cases.append(_case("table", "verify_preparation", _power_text(n, c, (Fraction(e),)), root,
                               (Fraction(e) / n,), trials, 77, poly=(n, Fraction(c), (Fraction(e),))))
    for k in (4, 6, -4, -6):
        cases.append(_case("range", "verify_preparation", _power_text(2, 1, (Fraction(k),)), 1, (Fraction(k, 2),),
                           3000, 5, poly=(2, Fraction(1), (Fraction(k),))))
    for e in ((Fraction(0), Fraction(1)), (Fraction(2), Fraction(0))):
        cases.append(_case("rank2", "verify_preparation", _power_text(2, 1, e), 1, tuple(q / 2 for q in e),
                           1000, 1, poly=(2, Fraction(1), e)))
    for sampler, group in (("jacobian_probe", "jacobian"), ("check_prepares", "check_prepares")):
        for c, v in ((1, Fraction(1, 2)), (1, Fraction(1, 3)), (10, Fraction(1)), (1, Fraction(4)),
                     (-3, Fraction(-1)), (12, Fraction(5, 3))):
            text = f"{'(x - r)^2' if group == 'jacobian' else 'x > r'}, r = {c}*t^({v})"
            cases.append(_case(group, sampler, text, c, (v,), 1000, 5, point=(Fraction(c), v)))
    return cases


def run_case(case, hf):
    """The case's report: ``(verdict, checked)``."""
    series, prepare = hf.series, hf.prepare
    if "poly" in case:
        n, c, e = case["poly"]
        rank = len(e)
        coeffs = [series.TruncatedSeries.monomial(-c, series.GroupElement(e))] + [
            series.TruncatedSeries.zero(rank)] * (n - 1) + [series.TruncatedSeries.one(rank)]
        lam = series.GroupElement.scalar(case.get("lam", Fraction(0)), rank)
        report = prepare.verify_preparation(lambda x, prec: series.poly_eval(coeffs, x, prec),
                                            [series.TruncatedSeries.zero(rank)], lam, case["trials"], case["seed"])
        return report.verdict, report.checked
    c, v = case["point"]
    r = series.TruncatedSeries.monomial(c, series.GroupElement.scalar(v))
    zero = [series.TruncatedSeries.zero()]
    if case["sampler"] == "jacobian_probe":
        coeffs = [r * r, r.scale(-2), series.TruncatedSeries.one()]
        report = prepare.jacobian_probe(lambda x, prec: series.poly_eval(coeffs, x, prec), zero, case["trials"],
                                        case["seed"])
    else:
        report = hf.rv.check_prepares(zero, lambda x: series.compare_sign(x - r) == series.POSITIVE,
                                      series.GroupElement.scalar(0), case["trials"], case["seed"])
    return report.verdict, report.checked


def _tally(cases):
    """``caught`` and ``total`` over the cases, overall and per hole."""
    out = {"caught": 0, "total": 0, "holes": {}}
    for case in cases:
        caught = case["verdict"] == "fail"
        for slot in (out, out["holes"].setdefault(case["hole"], {"caught": 0, "total": 0})):
            slot["caught"] += caught
            slot["total"] += 1
    return out


def summary(cases):
    """Per group and per sampler, the tallies of ``_tally``."""
    return {key: {name: _tally([c for c in cases if c[key] == name]) for name in dict.fromkeys(c[key] for c in cases)}
            for key in ("group", "sampler")}


def _plain(value):
    """JSON form of a case's data: Fractions as text."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return value


def measure(cases, hf):
    """Run every case; returns the record."""
    start = time.perf_counter()
    done = []
    for case in cases:
        verdict, checked = run_case(case, hf)
        done.append({**{k: _plain(v) for k, v in case.items()}, "verdict": verdict, "checked": checked})
    return {"seconds": round(time.perf_counter() - start, 1), "summary": summary(done), "cases": done}


def load_package():
    sys.path.insert(0, str(ROOT / "src"))
    import importlib
    import types

    return types.SimpleNamespace(**{name: importlib.import_module(f"hahn_forge.{name}")
                                    for name in ("series", "prepare", "rv")})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    record = measure(corpus(), load_package())
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for key, tallies in record["summary"].items():
        for name, tally in tallies.items():
            print(f"{key} {name}: caught {tally['caught']} of {tally['total']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
