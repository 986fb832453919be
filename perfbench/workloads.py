"""The three workloads: seeded input generation, operations and checks.

A workload is a list of rounds.  Every round holds one operation of each
stratum (operation type x input size), so any whole number of rounds has
the same mix whatever the seed; the seed only picks coefficients and
exponents inside each stratum.  Inputs are plain JSON data (text in the
package's own grammars), generated without importing the package.

Each operation is run through the package, its formatted output is kept
as a fingerprint, and its result is checked, independently of the package
where that is cheap (see ``reference``).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction

import reference as ref

NAMES = ("prepare", "newton", "cli")

_POOL = [c for c in range(-5, 6) if c]
_SMALL = [-3, -2, -1, 1, 2, 3]


def _q(x):
    return ref._q(Fraction(x))


def _rat(rng, pool=_POOL, dens=(1, 1, 2, 3)):
    return Fraction(rng.choice(pool), rng.choice(dens))


def generate(workload, seed, rounds):
    """``rounds`` rounds of operation specs for the workload, from the seed."""
    if workload == "cli":
        return [_cli_round(random.Random(f"{workload}:{seed}:{r}")) for r in range(rounds)]
    make = {"prepare": _prepare_round, "newton": _newton_round}[workload]
    return [make(random.Random(f"{workload}:{seed}:{r}"), r) for r in range(rounds)]


# ---------------------------------------------------------------------------
# newton: few long products at high precision


INVERT_STRATA = [(g, p) for g in ("1", "1/2", "1/3", "1/6") for p in (4, 8, 12)]
NTH_ROOT_STRATA = [
    (n, g, p)
    for n in (2, 3)
    for g, p in [("1", 4), ("1", 8), ("1/2", 4), ("1/2", 8), ("1/3", 4), ("1/3", 6), ("1/3", 7), ("1/3", 8), ("1/6", 4)]
]
HENSEL_STRATA = [(d, p) for d in (2, 3, 4, 5) for p in (6, 8, 10)]
# exponent offsets (in grid steps) above the leading term: 2 to 6 terms
SHAPES = [(1,), (1, 2), (1, 3, 4), (1, 2, 5, 6), (1, 2, 3, 4, 5)]
_SQUARES = {2: ["1", "4", "9", "1/4", "4/9"], 3: ["1", "8", "27", "1/8"]}


def _grid_series(rng, e0, grid, shape, lead):
    """``lead * t^e0`` plus terms at ``e0 + grid*k`` for k in shape.

    The stratum fixes the exponents, which set the cost (the leading
    exponent moves the relative precision); the seed picks coefficients.
    """
    s = {e0: Fraction(lead)}
    for k in shape:
        s[e0 + Fraction(grid) * k] = _rat(rng, _SMALL, (1,))
    return ref.fmt(s)


def _lead_exponent(k):
    """Leading exponent of stratum k, in (1/6)Z between -1/2 and 1/2."""
    return Fraction(k % 7 - 3, 6)


def _hensel_coeff(rng, i, p):
    """Infinitesimal coefficient a_i: 1 to 3 terms at fixed exponents in (1/2)Z."""
    v = Fraction(1 + (i + p) % 3, 2)
    s = {v: _rat(rng, dens=(1,))}
    for j in [(1,), (1, 3), ()][(i + p) % 3]:
        s[v + Fraction(j, 2)] = _rat(rng, dens=(1,))
    return ref.fmt(s)


def _newton_round(rng, r):
    ops = []
    for k, (g, p) in enumerate(INVERT_STRATA):
        a = _grid_series(rng, _lead_exponent(k), g, SHAPES[k % 5], _rat(rng, dens=(1,)))
        ops.append({"kind": "invert", "a": a, "prec": p})
    for k, (n, g, p) in enumerate(NTH_ROOT_STRATA):
        a = _grid_series(rng, _lead_exponent(k), g, SHAPES[k % 5], _SQUARES[n][k % len(_SQUARES[n])])
        ops.append({"kind": "nth_root", "a": a, "n": n, "prec": p})
    for d, p in HENSEL_STRATA:
        ops.append({"kind": "hensel_root", "coeffs": [_hensel_coeff(rng, i, p) for i in range(2, d + 1)], "prec": p})
    ops.append({"kind": "catalan", "coeffs": ["1*t^(1)"], "prec": 8})
    # the probes' only input is their sampling seed, and the sampled points
    # set their cost; the round number as seed makes them a fixed fixture
    ops.append({"kind": "jacobian_inv", "trials": 16, "seed": r})
    ops.append({"kind": "jacobian_hensel", "trials": 8, "seed": r})
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# prepare: many short products at low precision


def _distinct_roots(rng, count, grid):
    """Monomial roots a*t^g with distinct (g, a)."""
    seen = set()
    while len(seen) < count:
        seen.add((rng.choice(grid), rng.choice([c for c in range(-9, 10) if c])))
    return [ref.monomial(a, g) for g, a in sorted(seen)]


def _poly_spec(family, coeffs, roots, extra=None):
    out = {"family": family, "coeffs": [ref.fmt(c) for c in coeffs], "roots": [ref.fmt(r) for r in roots]}
    out.update(extra or {})
    return out


def _odd(rng, deg):
    """x^deg - deg*x + c t: odd degree, branches with irrational coefficients."""
    coeffs = [{} for _ in range(deg + 1)]
    coeffs[deg] = dict(ref.ONE)
    coeffs[1] = ref.monomial(-deg, 0)
    coeffs[0] = ref.monomial(rng.choice(_SMALL), 1)
    return _poly_spec(f"odd{deg}", coeffs, [])


def _prepare_polys(rng, r):
    """One polynomial per family; the family fixes degree and root layout."""
    polys = []
    # clustered roots (x - a)(x - a - t), alone and with a far third root
    for extra in ([], [ref.monomial(rng.choice([-4, 4, 5]), 0)]):
        a = ref.monomial(rng.choice(_SMALL), 0)
        roots = [a, ref.add(a, ref.monomial(1, 1))] + extra
        polys.append(_poly_spec(f"cluster{len(roots)}", ref.poly_from_roots(roots), roots))
    # irrational branches +-sqrt(c) t^(1/2), times a rational root; c sets
    # the cost (up to 4x between values), so it cycles with the round
    c = [2, 3, 5, 6, 7][r % 5]
    b = ref.monomial(rng.choice([-1, 1]), 0)
    coeffs = ref.poly_mul([ref.monomial(-c, 1), {}, dict(ref.ONE)], ref.poly_from_roots([b]))
    polys.append(_poly_spec("irrational", coeffs, [b], {"sqrt": [_q(c), "1/2"]}))
    polys.append(_odd(rng, 3))
    polys.append(_odd(rng, 5))
    # three split roots a_i t^i
    roots = [ref.monomial(rng.choice(_SMALL), g) for g in range(3)]
    polys.append(_poly_spec("split3", ref.poly_from_roots(roots), roots))
    return polys


# The undersized set {0} misses five roots a_i t^(i/2); a sampled ball next
# to 0 exposes one with probability about 1/50 per trial, so 1000 trials
# find a witness except with probability about e^-20.
UNDERSIZED_TRIALS = 1000


def _prepare_round(rng, r):
    ops = []
    for poly in _prepare_polys(rng, r):
        for lam in (0, 1, 2):
            ops.append({"kind": "prepare_polynomial", "poly": poly, "lam": lam, "trials": 40, "seed": rng.randint(0, 10**6)})
            # checks the set that the operation before it returned, with a fresh seed
            ops.append({"kind": "verify_prepared", "poly": poly, "lam": lam, "trials": 40, "seed": rng.randint(0, 10**6),
                        "uses": len(ops) - 1})
    roots = [ref.monomial(rng.choice(_SMALL), Fraction(k, 2)) for k in range(5)]
    poly = _poly_spec("split5", ref.poly_from_roots(roots), roots)
    ops.append({"kind": "verify_undersized", "poly": poly, "lam": 0, "trials": UNDERSIZED_TRIALS,
                "seed": rng.randint(0, 10**6)})
    return ops


# ---------------------------------------------------------------------------
# cli: the user's front door


_ANALYTIC = {
    "exp": lambda k: Fraction(1, _fact(k)),
    "sin": lambda k: Fraction(0) if k % 2 == 0 else Fraction((-1) ** (k // 2), _fact(k)),
    "cos": lambda k: Fraction(0) if k % 2 else Fraction((-1) ** (k // 2), _fact(k)),
    "log1p": lambda k: Fraction(0) if k == 0 else Fraction((-1) ** (k + 1), k),
}


def _fact(k):
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def _poly_text(coeffs):
    """Polynomial in x with rational coefficients, low to high."""
    parts = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        mono = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
        body = f"{_q(abs(c))}*{mono}" if mono else _q(abs(c))
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _point(rng, dens):
    """An infinitesimal evaluation point: terms at t^(1/d) for the stratum's d."""
    return ref.fmt({Fraction(1, d): Fraction(rng.choice([-2, -1, 1, 2])) for d in dens})


# eval strata: (exponent n, point exponents 1/d, --prec)
POW_STRATA = [(10, (3, 2), 3), (25, (4, 3), 4), (40, (5, 3), 5), (60, (7, 5), 3)]
DIV_STRATA = [((5, 4), 4), ((3, 2), 5)]
ANALYTIC_STRATA = [("exp", (5, 3), 3), ("sin", (4, 3), 4), ("cos", (3, 2), 5), ("log1p", (7, 5), 4)]


def _cli_round(rng):
    ops = []

    def add(argv, check):
        ops.append({"kind": "cli", "argv": argv, "check": check})

    def ev(text, expr, dens, prec):
        at = _point(rng, dens)
        add(["eval", "--prec", str(prec), text, "--at", at], {"type": "eval", "expr": expr, "at": at, "prec": prec})

    for n, dens, prec in POW_STRATA:
        base = [1, rng.choice([-2, -1, 1, 2])]
        ev(f"({_poly_text(base)})^{n}", ["pow", [_q(c) for c in base], n], dens, prec)
    for dens, prec in DIV_STRATA:
        num = [_rat(rng, _SMALL, (1,)) for _ in range(3)]
        den = [rng.choice([1, 2, 3])] + [_rat(rng, _SMALL, (1,)) for _ in range(2)]
        ev(f"({_poly_text(num)})/({_poly_text(den)})", ["div", [_q(c) for c in num], [_q(c) for c in den]], dens, prec)
    for fn, dens, prec in ANALYTIC_STRATA:
        inner = [0, rng.choice([-1, 1, 2]), rng.choice([-1, 1])]
        ev(f"{fn}({_poly_text(inner)})", ["fn", fn, [_q(c) for c in inner]], dens, prec)
    for lam in ("0", "1"):
        e0 = Fraction(rng.randint(-4, 8), 2)
        s = {e0 + Fraction(k, 2): _rat(rng) for k in [0] + rng.sample(range(1, 9), 3)}
        add(["rv", "--lambda", lam, ref.fmt(s)], {"type": "rv", "series": ref.fmt(s), "lam": lam})
    roots = [ref.monomial(rng.choice(_SMALL), g) for g in (0, 1)]
    c, k = rng.choice([-3, -2, 2, 3, 5]), rng.choice([1, 3])
    coeffs = ref.poly_mul(ref.poly_from_roots(roots), [ref.monomial(-c, k), {}, dict(ref.ONE)])
    add(["roots", _series_poly_text(coeffs), "--depth", "3"],
        {"type": "roots", "roots": [ref.fmt(x) for x in roots], "irrational_real": 2 if c > 0 else 0})
    roots = _distinct_roots(rng, 4, [Fraction(k, 2) for k in range(-2, 5)])
    add(["polygon", _series_poly_text(ref.poly_from_roots(roots))],
        {"type": "polygon", "valuations": [_q(ref.valuation(x)) for x in roots]})
    s = 2
    low = [f"[{_q(_rat(rng))}*t^({rng.randint(1, 3)})]*x1^{i}" if i else f"[{_q(_rat(rng))}*t^({rng.randint(1, 3)})]"
           for i in range(s)]
    g = " + ".join(f"[{_q(_rat(rng))}]*x1^{e}" if e else f"[{_q(_rat(rng))}]" for e in sorted(rng.sample(range(0, 6), 2)))
    add(["divide", " + ".join([f"[1]*x1^{s}"] + low), g, "--var", "1", "--degree", "5"],
        {"type": "keys", "keys": ["Q", "R"], "r_len": s})
    f = f"[1]*x2 + [{_q(_rat(rng))}]*x2^2 + [{_q(_rat(rng))}]*x1 + [{_q(_rat(rng))}]*x1^2"
    add(["implicit", f, "--degree", "4"], {"type": "keys", "keys": ["r"]})
    terms = ["[1]*x1*x2"] + [f"[{_q(_rat(rng))}*t^({rng.randint(0, 2)})]*x1^{i}*x2^{j}"
                             for i, j in rng.sample([(2, 0), (0, 2), (2, 1), (1, 2), (2, 2), (3, 0)], 2)]
    add(["split", " + ".join(terms)], {"type": "keys", "keys": ["f1", "f2", "Q"]})
    for inner in ("t^(2)", "t^(3)"):
        add(["probe-unit", "--center", "0", "--inner", inner, "--outer", "1",
             "--h", rng.choice(["exp", "sin", "cos"]), "--h-scale", "t^(1)", "--g", "sin", "--g-scale",
             f"{rng.randint(1, 3)}*t^(1)", "--trials", "20", "--seed", str(rng.randint(0, 10**6))],
            {"type": "verdict", "verdict": "pass"})
    rng.shuffle(ops)
    return ops


def _series_poly_text(coeffs):
    parts = [f"({ref.fmt(c)})" + ("" if i == 0 else ("*x" if i == 1 else f"*x^{i}")) for i, c in enumerate(coeffs) if c]
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# running and checking


class Stats(dict):
    """Counters the benchmark itself records (term callables, Newton steps)."""

    def bump(self, key, n=1):
        self[key] = self.get(key, 0) + n


def make_term(coeffs, hf, stats):
    """Benchmark-owned term callable: Horner with the package's field ops."""
    TS = hf.series.TruncatedSeries

    def term(x, prec):
        stats.bump("prepare.term.calls")
        try:
            total = TS.zero(x.rank)
            for c in reversed(coeffs):
                total = (total * x + c).truncate(prec)
            return total
        except Exception as exc:
            stats.bump("prepare.term.raised")
            stats.bump(f"prepare.term.raised.{type(exc).__name__}")
            raise

    return term


def _ge(hf, q):
    return hf.series.GroupElement.scalar(Fraction(q))


def run_op(spec, parsed, hf, stats, prior):
    """Run one operation through the package; returns its output object.

    ``prior`` holds the outputs of the earlier operations of the round.
    """
    kind = spec["kind"]
    if kind == "invert":
        return hf.series.invert(parsed["a"], _ge(hf, spec["prec"]))
    if kind == "nth_root":
        return hf.series.nth_root(parsed["a"], spec["n"], _ge(hf, spec["prec"]))
    if kind in ("hensel_root", "catalan"):
        trace = []
        root = hf.analytic.hensel_root(parsed["coeffs"], _ge(hf, spec["prec"]), trace=trace)
        stats.bump("analytic.hensel_root.newton_steps", len(trace))
        return root, trace
    if kind == "jacobian_inv":
        zero = [hf.series.TruncatedSeries.zero()]
        return hf.prepare.jacobian_probe(lambda x, p: hf.series.invert(x, p), zero, spec["trials"], spec["seed"])
    if kind == "jacobian_hensel":
        zero = [hf.series.TruncatedSeries.zero()]
        return hf.prepare.jacobian_probe(_hensel_map(hf, stats), zero, spec["trials"], spec["seed"])
    if kind == "prepare_polynomial":
        return hf.prepare.prepare_polynomial(parsed["coeffs"], _ge(hf, spec["lam"]), spec["trials"], spec["seed"])
    if kind == "verify_prepared":
        prep, _ = prior[spec["uses"]]
        term = make_term(parsed["coeffs"], hf, stats)
        return hf.prepare.verify_preparation(term, prep, _ge(hf, spec["lam"]), spec["trials"], spec["seed"])
    if kind == "verify_undersized":
        term = make_term(parsed["coeffs"], hf, stats)
        zero = [hf.series.TruncatedSeries.zero()]
        return hf.prepare.verify_preparation(term, zero, _ge(hf, spec["lam"]), spec["trials"], spec["seed"])
    if kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = hf.cli.run_cli(list(spec["argv"]))
        return code, out.getvalue()
    raise ValueError(f"unknown operation kind {kind!r}")


def _hensel_map(hf, stats):
    """a -> hensel_root([a], p): the lifted root of 1 + y + a y^2."""
    valuation, INFINITE = hf.series.valuation, hf.series.INFINITE

    def root_of(a, p):
        v = valuation(a)
        if not (v is not INFINITE and v > _ge(hf, 0)):
            raise hf.errors.NotInfinitesimal("coefficient must be infinitesimal")
        trace = []
        root = hf.analytic.hensel_root([a], p, trace=trace)
        stats.bump("analytic.hensel_root.newton_steps", len(trace))
        return root

    return root_of


def fingerprint(spec, out, hf):
    """Formatted output of an operation: what the digest covers."""
    kind = spec["kind"]
    fs = hf.series.format_series
    if kind in ("invert", "nth_root"):
        return fs(out)
    if kind in ("hensel_root", "catalan"):
        root, trace = out
        return f"{fs(root)}|steps={len(trace)}"
    if kind == "prepare_polynomial":
        prep, report = out
        return json.dumps({"set": prep.to_dict(), "report": report.to_dict()})
    if kind in ("verify_prepared", "verify_undersized", "jacobian_inv", "jacobian_hensel"):
        return out.to_json()
    if kind == "cli":
        code, stdout = out
        return f"exit={code}\n{stdout}"
    raise ValueError(kind)


def check(spec, out, hf):
    """None when the output is right, else a one-line reason."""
    kind = spec["kind"]
    fs = hf.series.format_series
    if kind == "invert":
        a, _ = ref.parse(spec["a"])
        x, _ = ref.parse(fs(out))
        res = ref.sub(ref.mul(a, x), ref.ONE)
        need = spec["prec"] - 2 * ref.valuation(a)
        return None if not res or ref.valuation(res) >= need else f"v(a*x - 1) = {ref.valuation(res)} < {need}"
    if kind == "nth_root":
        a, _ = ref.parse(spec["a"])
        y, prec = ref.parse(fs(out))
        res = ref.sub(ref.power(y, spec["n"]), a)
        if prec is None and res:
            return "exact root does not power back to a"
        if res and ref.valuation(res) < spec["prec"]:
            return f"v(y^n - a) = {ref.valuation(res)} < {spec['prec']}"
        return None if ref.lead(y)[1] > 0 else "root is not positive"
    if kind in ("hensel_root", "catalan"):
        root, _ = out
        y, _ = ref.parse(fs(root))
        coeffs = [dict(ref.ONE), dict(ref.ONE)] + [ref.parse(c)[0] for c in spec["coeffs"]]
        res = ref.poly_eval(coeffs, y)
        if res and ref.valuation(res) < spec["prec"]:
            return f"residual valuation {ref.valuation(res)} < {spec['prec']}"
        if y.get(Fraction(0)) != -1:
            return "standard part is not -1"
        if kind == "catalan":
            catalan = [1]
            for _ in range(spec["prec"] - 1):
                catalan.append(sum(catalan[i] * catalan[-1 - i] for i in range(len(catalan))))
            for k, c in enumerate(catalan):
                if y.get(Fraction(k), 0) != -c:
                    return f"coefficient of t^{k} is not -Catalan({k})"
        return None
    if kind in ("jacobian_inv", "jacobian_hensel"):
        report = out.to_dict()
        if report["verdict"] != "pass" or not report["shifts"]:
            return f"verdict {report['verdict']} with {len(report['shifts'])} shifts"
        for row in report["shifts"]:
            x0, _ = ref.parse(row["ball"])
            want = -2 * ref.valuation(x0) if kind == "jacobian_inv" else Fraction(0)
            if Fraction(row["shift"]) != want:
                return f"shift {row['shift']} at {row['ball']}, expected {want}"
        return None
    if kind == "prepare_polynomial":
        prep, report = out
        if not report.passed():
            return "preparation verdict is not pass"
        return _check_centers(spec["poly"], [ref.parse(fs(c))[0] for c in prep.centers()])
    if kind == "verify_prepared":
        return None if out.passed() else "returned set fails a fresh-seed verification"
    if kind == "verify_undersized":
        return _check_undersized(spec, out)
    if kind == "cli":
        return _check_cli(spec, out)
    raise ValueError(kind)


def _check_centers(poly, centers):
    for r in poly["roots"]:
        if ref.parse(r)[0] not in centers:
            return f"rational root {r} missing from the preparing set"
    if "sqrt" in poly:
        c, v = (Fraction(x) for x in poly["sqrt"])
        signs = {ref.lead(x)[1] > 0 for x in centers
                 if x and ref.valuation(x) == v and abs(ref.lead(x)[1] ** 2 - c) < Fraction(1, 1000)}
        if signs != {True, False}:
            return f"irrational branches +-sqrt({c}) t^({v}) missing"
    return None


def _check_undersized(spec, report):
    """A fail verdict whose first witnesses really disagree, by exact evaluation."""
    if report.passed() or not report.violations:
        return "undersized set was not rejected"
    coeffs = [ref.parse(c)[0] for c in spec["poly"]["coeffs"]]
    for v in report.violations[:3]:
        x, _ = ref.parse(v["x"])
        y, _ = ref.parse(v["y"])
        # at lambda = 0 the leading-term class is the leading term
        if ref.lead(x) != ref.lead(y):
            return "witness pair is not in one ball next to 0"
        if ref.lead(ref.poly_eval(coeffs, x)) == ref.lead(ref.poly_eval(coeffs, y)):
            return "witness pair has equal leading terms"
    return None


def _reference_eval(expr, x, prec):
    bound = Fraction(prec)
    if expr[0] == "pow":
        base = ref.poly_eval([ref.monomial(Fraction(c), 0) for c in expr[1]], x, bound)
        return ref.power(base, expr[2], bound)
    if expr[0] == "div":
        num = ref.poly_eval([ref.monomial(Fraction(c), 0) for c in expr[1]], x, bound)
        den = ref.poly_eval([ref.monomial(Fraction(c), 0) for c in expr[2]], x, bound)
        return ref.mul(num, ref.inverse_unit(den, bound), bound)
    _, fn, inner = expr
    u = ref.poly_eval([ref.monomial(Fraction(c), 0) for c in inner], x, bound)
    terms = int(bound / ref.valuation(u)) + 1
    return ref.taylor([_ANALYTIC[fn](k) for k in range(terms + 1)], u, bound)


def _check_cli(spec, out):
    code, stdout = out
    if code != 0:
        return f"exit code {code}"
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "stdout is not one JSON object"
    want = spec["check"]
    kind = want["type"]
    if kind == "eval":
        value, prec = ref.parse(payload["value"])
        x, _ = ref.parse(want["at"])
        expected = _reference_eval(want["expr"], x, want["prec"])
        if prec is not None and prec != want["prec"]:
            return f"precision O(t^({prec})) differs from the target {want['prec']}"
        return None if value == expected else "value differs from the reference evaluation"
    if kind == "rv":
        s, _ = ref.parse(want["series"])
        gamma = ref.valuation(s)
        lam = Fraction(want["lam"])
        jet = {e - gamma: c for e, c in s.items() if e - gamma <= lam}
        got = payload["rv"]
        if Fraction(got["gamma"]) != gamma or ref.parse(got["jet"])[0] != jet:
            return "rv class differs from the reference"
        return None
    if kind == "roots":
        real = [b for b in payload["roots"] if b["conjugacy"] == "real"]
        if len(real) != len(want["roots"]) + want["irrational_real"]:
            return f"{len(real)} real branches"
        exact = []
        for b in real:
            if b["depth"] == "inf" and all(isinstance(t["coeff"], str) for t in b["branch"]):
                exact.append(ref.clean({Fraction(t["exponent"]): Fraction(t["coeff"]) for t in b["branch"]}))
        for r in want["roots"]:
            if ref.parse(r)[0] not in exact:
                return f"root {r} has no exact branch"
        return None
    if kind == "polygon":
        got = sorted((Fraction(e["slope"]), e["multiplicity"]) for e in payload["polygon"])
        counts = {}
        for v in want["valuations"]:
            counts[Fraction(v)] = counts.get(Fraction(v), 0) + 1
        return None if got == sorted(counts.items()) else "polygon differs from the root valuations"
    if kind == "keys":
        if sorted(payload) != sorted(want["keys"]):
            return f"keys {sorted(payload)}"
        if "r_len" in want and len(payload["R"]) != want["r_len"]:
            return f"{len(payload['R'])} remainder coefficients, expected {want['r_len']}"
        return None
    if kind == "verdict":
        return None if payload["report"]["verdict"] == want["verdict"] else "verdict differs"
    raise ValueError(kind)
