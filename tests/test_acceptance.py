"""Acceptance criteria, one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass lines
and per-suite timings.
"""

import json
import random
import time
from fractions import Fraction
from math import factorial

from hahn_forge.analytic import default_registry, evaluate_analytic, hensel_root
from hahn_forge.cli import run_cli
from hahn_forge.errors import NotInfinitesimal
from hahn_forge.multiseries import (
    MultiSeries,
    gauss_data,
    in_truncation_ideal,
    ms_add,
    ms_mul,
    ms_sub,
)
from hahn_forge.prepare import (
    StrongUnitSpec,
    jacobian_probe,
    prepare_polynomial,
    strong_unit_probe,
    verify_preparation,
    _term_from_poly,
)
from hahn_forge.rv import ball_of, rv_lambda, sample_in_ball
from hahn_forge.series import (
    GroupElement,
    HahnSeries,
    INFINITE,
    TruncatedSeries,
    invert,
    parse_series,
    valuation,
)
from hahn_forge.terms import parse_term, polynomial_coeffs

ge = lambda x: GroupElement.scalar(Fraction(x))
s = parse_series


def _report(name, detail, started):
    print(f"ACCEPT {name}: PASS ({detail}, {time.time() - started:.1f}s)")


def _random_coeff(rng, pool, max_terms=2):
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        terms.append((ge(rng.choice(pool)), Fraction(rng.randint(-5, 5))))
    h = HahnSeries(terms)
    if h.is_zero():
        h = HahnSeries([(ge(rng.choice(pool)), Fraction(1))])
    return TruncatedSeries.exact(h)


QUARTER_GRID = [Fraction(k, 4) for k in range(-8, 17)]  # (1/4)Z intersected with [-2, 4]
NONNEG_GRID = [q for q in QUARTER_GRID if q >= 0]
POS_GRID = [q for q in QUARTER_GRID if q > 0]


def _division_instance(rng):
    nvars = rng.randint(1, 3)
    var = rng.randrange(nvars)
    s_deg = rng.randint(0, 3)
    d_out = rng.randint(max(s_deg, 1), 8)

    def axis(k):
        return tuple(k if i == var else 0 for i in range(nvars))

    lead_terms = [(ge(0), Fraction(rng.randint(1, 4)))]
    if rng.random() < 0.5:
        lead_terms.append((ge(rng.choice(POS_GRID)), Fraction(rng.randint(-4, 4))))
    coeffs = {axis(s_deg): TruncatedSeries.exact(HahnSeries(lead_terms))}
    for k in range(s_deg):
        if rng.random() < 0.6:
            coeffs[axis(k)] = _random_coeff(rng, POS_GRID)
    for _ in range(rng.randint(0, 4)):
        idx = tuple(rng.randint(0, 2) for _ in range(nvars))
        if sum(idx) == 0 or sum(idx) > 8:
            continue
        if all(e == 0 for i, e in enumerate(idx) if i != var) and idx[var] < s_deg:
            continue
        coeffs.setdefault(idx, _random_coeff(rng, NONNEG_GRID))
    f = MultiSeries(nvars, 8, coeffs)

    gcoeffs = {}
    for _ in range(rng.randint(1, 4)):
        idx = tuple(rng.randint(0, 2) for _ in range(nvars))
        if sum(idx) > 8:
            continue
        gcoeffs[idx] = _random_coeff(rng, QUARTER_GRID)
    g = MultiSeries(nvars, 8, gcoeffs)
    return f, g, var, d_out


def _division_defect(f, g, var, q, r_list, d_out):
    wide = 1 + max(
        d_out,
        g.max_degree(),
        f.max_degree() + q.max_degree(),
        max((r.max_degree() + i for i, r in enumerate(r_list)), default=0),
    )
    widen = lambda h: MultiSeries(h.nvars, wide, dict(h.coeffs), rank=h.rank)
    defect = ms_sub(widen(g), ms_mul(widen(q), widen(f), wide, None), wide, None)
    for i, r in enumerate(r_list):
        term = widen(r)
        mono = MultiSeries.variable(var, f.nvars, wide)
        for _ in range(i):
            term = ms_mul(term, mono, wide, None)
        defect = ms_sub(defect, term, wide, None)
    return defect


def test_criterion_1_weierstrass_division_suite():
    from hahn_forge.multiseries import weierstrass_divide

    started = time.time()
    rng = random.Random("acceptance-division")
    prec_out = ge(5)
    failures = 0
    for _ in range(200):
        f, g, var, d_out = _division_instance(rng)
        q, r = weierstrass_divide(f, g, var, d_out, prec_out)
        if not in_truncation_ideal(_division_defect(f, g, var, q, r, d_out), d_out, prec_out):
            failures += 1
        if not g.is_zero():
            ng, _ = gauss_data(g)
            for part in [q, *r]:
                if not part.is_zero():
                    np_, _ = gauss_data(part)
                    if not (np_ >= ng):
                        failures += 1
    assert failures == 0
    _report("1 weierstrass-division", "200 instances, exact defect + norm contract", started)


def test_criterion_2_strong_split_suite():
    from hahn_forge.multiseries import strong_split

    started = time.time()
    rng = random.Random("acceptance-split")
    failures = 0
    for _ in range(200):
        n = rng.randint(0, 2)
        nvars = n + 2
        coeffs = {}
        for _ in range(rng.randint(1, 7)):
            idx = tuple(rng.randint(0, 3) for _ in range(nvars))
            if sum(idx) > 8:
                continue
            coeffs[idx] = _random_coeff(rng, NONNEG_GRID)
        f = MultiSeries(nvars, 8, coeffs)
        f1, f2, q = strong_split(f)
        if not _split_defect_zero(f, f1, f2, q, n):
            failures += 1
    assert failures == 0
    _report("2 strong-split", "200 instances, identity exact", started)


def _split_defect_zero(f, f1, f2, q, n):
    big = n + 3
    deg = f.degree + 2

    def embed(h, positions):
        coeffs = {}
        for idx, c in h.coeffs.items():
            nidx = [0] * big
            for i, e in enumerate(idx):
                nidx[positions[i]] = e
            coeffs[tuple(nidx)] = c
        return MultiSeries(big, deg, coeffs, rank=h.rank)

    xi = list(range(n))
    f_b = embed(f, xi + [n, n + 1])
    f1_b = embed(f1, xi + [n, n + 2])
    f2_b = embed(f2, xi + [n + 1, n + 2])
    q_b = MultiSeries(big, deg, dict(q.coeffs), rank=q.rank)
    eta1 = MultiSeries.variable(n, big, deg)
    eta2 = MultiSeries.variable(n + 1, big, deg)
    eta3 = MultiSeries.variable(n + 2, big, deg)
    relation = ms_sub(ms_mul(eta1, eta2, deg, None), eta3, deg, None)
    total = ms_add(f1_b, ms_mul(eta2, f2_b, deg, None), deg, None)
    total = ms_add(total, ms_mul(q_b, relation, deg, None), deg, None)
    return ms_sub(f_b, total, deg, None).is_zero()


def test_criterion_3_hensel_implicit_suite():
    started = time.time()
    rng = random.Random("acceptance-hensel")
    target = ge(8)
    failures = 0
    for _ in range(100):
        degree = rng.randint(2, 5)
        coeffs = []
        for _ in range(degree - 1):
            v = Fraction(rng.choice([Fraction(1, 2), Fraction(1), Fraction(2)]))
            terms = [(ge(v), Fraction(rng.randint(-4, 4) or 1))]
            if rng.random() < 0.5:
                terms.append((ge(v + Fraction(rng.randint(1, 3), 2)), Fraction(rng.randint(-4, 4))))
            coeffs.append(TruncatedSeries.exact(HahnSeries(terms)))
        root = hensel_root(coeffs, target)
        poly = [TruncatedSeries.one(), TruncatedSeries.one(), *coeffs]
        total = TruncatedSeries.zero()
        for c in reversed(poly):
            total = total * root + c
        if not (total.approx.is_zero() or total.approx.valuation() >= target):
            failures += 1
    assert failures == 0

    # the coefficient fixture: convolution recurrence is the oracle
    catalan = [1]
    for _ in range(7):
        catalan.append(sum(catalan[i] * catalan[-1 - i] for i in range(len(catalan))))
    root = hensel_root([s("1*t^(1)")], target)
    for k in range(8):
        assert root.approx.coefficient(ge(k)) == -catalan[k]
    _report("3 hensel-implicit", "100 residuals at precision 8 + catalan fixture", started)


def test_criterion_4_analytic_invariants_suite():
    started = time.time()
    reg = default_registry()
    names = ["exp", "sin", "cos", "log1p"]
    rng = random.Random("acceptance-analytic")
    prec = ge(5)
    violations = 0

    # automatic continuity: values stay in the valuation ring
    for _ in range(1000):
        fn = reg.get(rng.choice(names))
        a = TruncatedSeries.exact(
            HahnSeries(
                [(ge(Fraction(rng.randint(1, 6), 2)), Fraction(rng.randint(-9, 9) or 1))]
            )
        )
        out = evaluate_analytic(fn, [a], prec)
        if out.approx.terms and out.approx.valuation() < ge(0):
            violations += 1

    # distance contraction: images are no farther apart than the points
    for _ in range(1000):
        fn = reg.get(rng.choice(names))
        a = TruncatedSeries.monomial(Fraction(rng.randint(1, 9)), ge(Fraction(rng.randint(1, 6), 2)))
        b = a + TruncatedSeries.monomial(
            Fraction(rng.randint(-9, 9) or 2), ge(Fraction(rng.randint(2, 9), 2))
        )
        gap = a - b
        image_gap = evaluate_analytic(fn, [a], prec) - evaluate_analytic(fn, [b], prec)
        if image_gap.approx.terms and image_gap.approx.valuation() < gap.approx.valuation():
            violations += 1

    # unit-jet invariance for invertible functions of one variable
    for trial in range(1000):
        fn = reg.get(rng.choice(["exp", "cos"]))
        lam = ge(rng.choice([0, 1]))
        gamma = ge(Fraction(rng.randint(1, 4), 2))
        x = TruncatedSeries.monomial(Fraction(rng.randint(-9, 9) or 3), gamma)
        ball = ball_of(x, TruncatedSeries.zero(), lam)
        y = sample_in_ball(ball, trial)
        window = gamma + lam + ge(3)
        if rv_lambda(evaluate_analytic(fn, [x], window), lam) != rv_lambda(
            evaluate_analytic(fn, [y], window), lam
        ):
            violations += 1

    # strong units on an annulus
    spec = StrongUnitSpec(h=reg.get("exp"), h_scale=s("1*t^(1)"), g=reg.get("sin"), g_scale=s("2*t^(1)"))
    annulus = (TruncatedSeries.zero(), s("1*t^(2)"), s("1"))
    report = strong_unit_probe(spec, annulus, ge(1), trials=1000, rng_seed=17)
    violations += len(report.violations)

    assert violations == 0
    _report("4 analytic-invariants", "4 x 1000 samples, 0 violations", started)


PREPARATION_CORPUS = [
    "x^2 - t^(1)",
    "x^2 - 2*t^(1)",
    "x^2 - (2 + t^(1))*x + 1 + t^(1)",  # (x-1)(x-1-t)
    "x - 1",
    "x - t^(1)",
    "x + 2",
    "x - 1 - t^(1)",
    "x + t^(1/2)",
    "2*x + 1",
    "3*x - t^(2)",
    "x^2 + t^(1)",
    "x^2 - 4",
    "x^2 - 2",
    "x^2 - t^(2)",
    "x^2 - t^(3)",
    "x^2 - 2*t^(1)*x + t^(2) - t^(5)",  # (x-t)^2 - t^5
    "x^2 + t^(1)*x - 1",
    "x^2 + x + t^(1)",
    "x^2 - (1 + t^(1))^2",
    "x^2 - 3",
    "x^2 + 3*x + 2",
    "x^2 - x - t^(2)",
    "x^2 + 4*t^(1)*x + t^(1)",
    "x^2 - t^(1/2)",
    "x^2 - t^(1)*x",
    "x^3 - t^(1)",
    "x^3 - t^(2)",
    "x^3 - x",
    "x^3 - x^2 + t^(1)",
    "x^3 - 6*x^2 + 11*x - 6",
    "x^3 + t^(1)*x + t^(1)",
    "x^3 - 2",
    "x^3 - 3*x + t^(1)",
    "x^3 + x^2 - t^(1)",
    "x^3 - 3*t^(1)*x - t^(1)",
    "x^3 - t^(1/2)*x + t^(2)",
    "x^3 + x",
    "x^4 - t^(1)",
    "x^4 - 5*x^2 + 4",
    "x^4 - t^(2)",
    "(x^2 - t^(1))*(x^2 - 4)",
    "(x - 1)*(x - 1 - t^(1))*(x + 2)",
    "x^4 + t^(1)",
    "x^4 - x",
    "x^5 - t^(1)",
    "x^5 - x - t^(1)",
    "x^5 - 5*x + t^(1)",
    "x^5 + x^3 + t^(1)*x",
    "2*x^3 - 3*x^2 + t^(1)",
    "(1 + t^(1))*x^2 - 1",
]


def _corpus_poly(text):
    coeffs = polynomial_coeffs(parse_term(text), 1)
    assert coeffs is not None
    return coeffs


def test_criterion_5_preparation_suite():
    started = time.time()
    assert len(PREPARATION_CORPUS) == 50
    failures = []
    for i, text in enumerate(PREPARATION_CORPUS):
        coeffs = _corpus_poly(text)
        assert len(coeffs) - 1 <= 5
        for lam_q in (0, 1, 2):
            prep, report = prepare_polynomial(coeffs, ge(lam_q), trials=500, rng_seed=1000 + i)
            if not report.passed():
                failures.append((text, lam_q))
    assert failures == []

    # the deliberately undersized set must fail with a witness
    undersized = verify_preparation(
        _term_from_poly(_corpus_poly("x^2 - t^(1)")),
        [TruncatedSeries.zero()],
        ge(0),
        trials=500,
        rng_seed=77,
    )
    assert not undersized.passed() and undersized.violations
    _report("5 preparation", "50 fixtures x lambda {0,1,2}, 500 trials each + undersized witness", started)


def test_criterion_6_jacobian_suite():
    started = time.time()
    zero_set = [TruncatedSeries.zero()]

    report = jacobian_probe(lambda x, p: x * x, zero_set, trials=500, rng_seed=21)
    assert report.passed()

    report = jacobian_probe(lambda x, p: invert(x, p), zero_set, trials=500, rng_seed=22)
    assert report.passed()

    def hensel_coefficient_root(a, p):
        # the lifted root of 1 + y + a y^2, as a function of the coefficient
        if not (valuation(a) is not INFINITE and valuation(a) > ge(0)):
            raise NotInfinitesimal("coefficient must be infinitesimal")
        return hensel_root([a], p)

    report = jacobian_probe(hensel_coefficient_root, zero_set, trials=500, rng_seed=23)
    assert report.passed()
    _report("6 jacobian", "x^2, 1/x, hensel-root coefficient map at 500 trials", started)


def test_criterion_7_counting_dimension_demo():
    started = time.time()
    rng = random.Random("acceptance-counting")
    exceptions = 0
    for s_height in (2, 3, 4):
        window = 2 * s_height
        exp_table = [Fraction(1, factorial(k)) for k in range(window + 1)]
        for _ in range(100):
            degree = rng.randint(1, s_height - 1)
            poly = [Fraction(0)] + [Fraction(rng.randint(-9, 9)) for _ in range(degree)]
            while not any(poly[1:]):
                poly = [Fraction(0)] + [Fraction(rng.randint(-9, 9)) for _ in range(degree)]
            # independent oracle: truncated polynomial composition
            oracle = _compose_trunc(exp_table, poly, window)
            arg = TruncatedSeries.exact(HahnSeries([(ge(k), c) for k, c in enumerate(poly) if c]))
            value = evaluate_analytic(default_registry().get("exp"), [arg], ge(window + 1))
            for k in range(window + 1):
                assert value.approx.coefficient(ge(k)) == oracle[k]
            if not any(oracle[k] for k in range(s_height, window + 1)):
                exceptions += 1
        # constant arguments give constant values: degree-0 composition
        for _ in range(100):
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            composed = _compose_trunc(exp_table, [c], window)
            if any(composed[1:]):
                exceptions += 1
    assert exceptions == 0
    _report("7 counting-dimension", "exp escapes every height window; constants stay constant", started)


def _compose_trunc(outer, inner, deg):
    out = [Fraction(0)] * (deg + 1)
    power = [Fraction(1)] + [Fraction(0)] * deg
    for k, c in enumerate(outer):
        if k:
            nxt = [Fraction(0)] * (deg + 1)
            for i, a in enumerate(power):
                if not a:
                    continue
                for j, b in enumerate(inner):
                    if i + j <= deg:
                        nxt[i + j] += a * b
            power = nxt
        for i, a in enumerate(power):
            out[i] += c * a
    return out


def test_criterion_8_determinism():
    started = time.time()

    def battery(capsys=None):
        import io
        from contextlib import redirect_stdout, redirect_stderr

        out = io.StringIO()
        err = io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            run_cli(["prepare", "--lambda", "1", "x^2 - t^(1)", "--seed", "9", "--trials", "120"])
            run_cli(["verify", "x^2 - t^(1)", "--with-C", "0", "--seed", "9", "--trials", "120"])
            run_cli(["jacobian", "x^2", "--with-C", "0", "--seed", "9", "--trials", "120"])
            run_cli(
                [
                    "probe-unit",
                    "--center",
                    "0",
                    "--inner",
                    "t^(2)",
                    "--outer",
                    "1",
                    "--h",
                    "exp",
                    "--h-scale",
                    "t^(1)",
                    "--seed",
                    "9",
                    "--trials",
                    "120",
                ]
            )
            run_cli(["roots", "x^2 - 2*t^(1)", "--depth", "3"])
        return out.getvalue().encode()

    first = battery()
    second = battery()
    assert first == second
    for line in first.decode().splitlines():
        json.loads(line)
    _report("8 determinism", "verification battery byte-identical across reruns", started)
