"""Newton polygon, branch expansion, preparing sets, and the probes."""

import os
import random
from fractions import Fraction
from math import ceil, floor, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from hahn_forge import algebraic as alg
from hahn_forge.algebraic import AlgebraicContext, RealAlgebraic
from hahn_forge.analytic import FunctionRegistry, evaluate_analytic, register_function
import hahn_forge.prepare as preparation
from hahn_forge.errors import (
    DepthExhausted,
    DivisionByZero,
    DomainViolation,
    HahnForgeError,
    InsufficientPrecision,
    UndecidedSign,
)
from hahn_forge.prepare import (
    IntervalCoeff,
    StrongUnitSpec,
    jacobian_probe,
    newton_polygon,
    poly_text,
    prepare_polynomial,
    puiseux_roots,
    strong_unit_probe,
    verify_preparation,
    _term_from_poly,
)
from hahn_forge.rv import VerificationReport, ball_mates, random_point, run_trials, rv_combine, rv_lambda
from hahn_forge.series import (
    GroupElement,
    HahnSeries,
    INFINITE,
    TruncatedSeries,
    format_series,
    invert,
    parse_series,
    poly_eval,
    valuation,
)

ge = lambda x: GroupElement.scalar(Fraction(x))
s = parse_series


def poly(*texts):
    return [s(t) for t in texts]


class TestNewtonPolygon:
    def test_square_root_edge(self):
        assert newton_polygon(poly("-1*t^(1)", "0", "1")) == [(ge(Fraction(1, 2)), 2)]

    def test_two_edges(self):
        assert newton_polygon(poly("1", "1", "1*t^(1)")) == [
            (ge(0), 1),
            (ge(-1), 1),
        ]

    def test_linear(self):
        assert newton_polygon(poly("-5", "1")) == [(ge(0), 1)]

    def test_rank_two_keeps_every_coordinate(self):
        # x^2 - t^(0,1) x + t^(1,0): roots of valuation (1,-1) and (0,1),
        # whose first coordinates alone would read 1 and 0
        coeffs = [parse_series(text, rank=2) for text in ("1*t^(1,0)", "-1*t^(0,1)", "1")]
        assert newton_polygon(coeffs) == [(GroupElement([1, -1]), 1), (GroupElement([0, 1]), 1)]
        # a middle point on the segment between the corners is no vertex
        coeffs = [parse_series(text, rank=2) for text in ("1*t^(2,-2)", "1*t^(1,-1)", "1")]
        assert newton_polygon(coeffs) == [(GroupElement([1, -1]), 2)]


class TestPuiseuxRoots:
    def test_rational_square_root(self):
        roots = puiseux_roots(poly("-1*t^(1)", "0", "1"), Fraction(3))
        series = sorted(format_series(r.to_series()) for r in roots)
        assert series == ["-1*t^(1/2)", "1*t^(1/2)"]
        assert all(r.depth is INFINITE and r.ramification == 2 for r in roots)

    def test_sqrt_two_branches(self):
        roots = puiseux_roots(poly("-2*t^(1)", "0", "1"), Fraction(3))
        assert len(roots) == 2
        for r in roots:
            e, c = r.branch[0]
            assert e == Fraction(1, 2)
            assert isinstance(c, IntervalCoeff)
            poly_w, interval = c.witness
            # the witness annihilates the coefficient: \pm sqrt(2)
            assert list(poly_w) == [-2, 0, 1]
            # back-substitution residual encloses zero: c^2 - 2 straddles 0
            lo, hi = c.refine(Fraction(1, 10**9))
            assert lo * lo <= 2 <= hi * hi or hi < 0 and hi * hi <= 2 <= lo * lo

    def test_complex_pair(self):
        roots = puiseux_roots(poly("1*t^(1)", "0", "1"), Fraction(3))
        assert len(roots) == 1 and roots[0].conjugacy_tag == "complex-pair"

    def test_back_substitution_residuals(self):
        rng = random.Random("backsub")
        fixtures = [
            poly("-1*t^(1)", "0", "1"),
            poly("1 + 1*t^(1)", "-2 - 1*t^(1)", "1"),
            poly("-1*t^(1)", "-3*t^(1)", "0", "1"),
            poly("-1*t^(2)", "1", "1"),
            poly("2*t^(1)", "-3", "0", "1"),
        ]
        for coeffs in fixtures:
            for root in puiseux_roots(coeffs, Fraction(4)):
                if not root.is_real() or any(isinstance(c, IntervalCoeff) for _, c in root.branch):
                    continue
                residual = poly_eval(coeffs, root.to_series())
                if root.depth is INFINITE:
                    assert residual.approx.is_zero()
                else:
                    assert residual.approx.is_zero() or residual.approx.valuation().first() >= root.depth

    def test_root_count(self):
        fixtures = [
            (poly("-1*t^(1)", "0", "1"), 2),
            (poly("1*t^(1)", "0", "1"), 2),
            (poly("1 + 1*t^(1)", "-2 - 1*t^(1)", "1"), 2),
            (poly("-1*t^(1)", "-3*t^(1)", "0", "1"), 3),
            (poly("0", "1", "0", "1"), 3),  # x(x^2 + 1)
        ]
        for coeffs, deg in fixtures:
            roots = puiseux_roots(coeffs, Fraction(3))
            count = sum(1 if r.is_real() else 2 for r in roots)
            assert count == deg

    def test_squarefree_reduction(self):
        # (x - t)^2 (x + 1) collapses to two branches
        p = poly("-1*t^(2)", "1*t^(2) - 2*t^(1)", "2*t^(1) - 1 + 1*t^(2)", "1 - 2*t^(1)", "1")
        # build exactly: (x-t)^2 (x+1) = (x^2 - 2tx + t^2)(x+1)
        a = poly("1*t^(2)", "-2*t^(1)", "1")
        b = poly("1", "1")
        prod = _poly_mul(a, b)
        roots = puiseux_roots(prod, Fraction(3))
        series = sorted(format_series(r.to_series()) for r in roots)
        assert series == ["-1", "1*t^(1)"]

    def test_nested_extension_rejected(self):
        # (x^2 - 2t)^2 - t^5 branches live in a second extension layer
        base = _poly_mul(poly("-2*t^(1)", "0", "1"), poly("-2*t^(1)", "0", "1"))
        base[0] = base[0] - s("1*t^(5)")
        with pytest.raises(UndecidedSign):
            puiseux_roots(base, Fraction(4))


def _poly_mul(a, b):
    out = [TruncatedSeries.zero() for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


# ---------------------------------------------------------------------------
# squarefree part against sympy (tests only; the package never imports it)

def monomials(d):
    return st.tuples(st.builds(Fraction, st.integers(0, 6), st.just(d)), st.integers(-3, 3).filter(bool))


@st.composite
def series_factors(draw, d):
    """A factor of x-degree 1 or 2 whose coefficients are sums of monomials c*t^(j/d).

    A lower coefficient is zero half the time: x^2 - c*t^e and c*t^e*x make the pseudo-remainders
    skip degrees, where a missing power of the leading coefficient leaves a division inexact.
    """
    degree = draw(st.integers(1, 2))
    lower = st.one_of(st.just([]), st.lists(monomials(d), min_size=1, max_size=2))
    factor = [HahnSeries(draw(lower)) for _ in range(degree)]
    factor.append(HahnSeries([draw(monomials(d))]))
    return [TruncatedSeries.exact(h) for h in factor]


@st.composite
def series_products(draw):
    """Products of one or two factors with exponent denominator d <= 6, half of them times a
    factor again.

    One d per product keeps the degrees in s = t^(1/d) small; products whose factors mix
    denominators are the golden ``roots_three_quadratics`` entry.
    """
    d = draw(st.integers(1, 6))
    factors = draw(st.lists(series_factors(d), min_size=1, max_size=2))
    if draw(st.booleans()):
        factors.append(draw(st.sampled_from(factors)))
    p = factors[0]
    for f in factors[1:]:
        p = _poly_mul(p, f)
    return p


def _squarefree_part(coeffs):
    """The squarefree part as exponent dicts, and whether the input came back as it was."""
    xsers = [preparation._xser_from_truncated(c) for c in coeffs]
    out = preparation._squarefree_series_poly(xsers)
    return out, out is xsers


def _exponent_lcm(*polys):
    n = 1
    for xsers in polys:
        for a in xsers:
            for e in a:
                n = lcm(n, e.denominator)
    return n


def _sympy_poly_in_x(xsers, n, s, x):
    """The polynomial over Q(s) with s = t^(1/n); n is a multiple of every exponent denominator."""
    sympy = pytest.importorskip("sympy")
    expr = sum(
        sympy.Rational(c.numerator, c.denominator) * s ** int(e * n) * x**i
        for i, a in enumerate(xsers)
        for e, c in a.items()
    )
    return sympy.Poly(expr, x, domain=sympy.QQ.frac_field(s))


class TestSquarefreeAgainstSympy:
    @settings(max_examples=60, deadline=None)
    @given(series_products())
    def test_squarefree_part(self, coeffs):
        sympy = pytest.importorskip("sympy")
        s, x = sympy.symbols("s x")
        xsers = [preparation._xser_from_truncated(c) for c in coeffs]
        part, unchanged = _squarefree_part(coeffs)
        n = _exponent_lcm(xsers, part)
        p = _sympy_poly_in_x(xsers, n, s, x)
        q = _sympy_poly_in_x(part, n, s, x)
        assert p.rem(q).is_zero
        assert q.gcd(q.diff(x)).degree() == 0
        assert q.degree() == p.sqf_part().degree()
        if p.gcd(p.diff(x)).degree() == 0:
            assert unchanged


# ---------------------------------------------------------------------------
# the shift p(c*t^nu + x) of root expansion against a naive expansion

# witness and isolating interval of the generator; None is Q itself
SHIFT_FIELDS = {
    "Q": None,
    "sqrt3": ([-3, 0, 1], 1, 2),
    "fourth root of 5": ([-5, 0, 0, 0, 1], 1, 2),
    "sqrt2 of (x^2-2)(x^2-3)": ([6, 0, -5, 0, 1], 1, Fraction(3, 2)),
    "sqrt3 of (x^2-2)(x^2-3)": ([6, 0, -5, 0, 1], Fraction(3, 2), 2),
    # a non-monic witness: the shift's remainders are over D*2^k
    "sqrt(3/2) of (2x^2-3)(x^2-2)": ([6, 0, -7, 0, 2], 1, Fraction(13, 10)),
}

shift_rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))
# coordinates times 1 or a factor of the reducible witness, so some numbers vanish at the generator
shift_coords = st.builds(lambda cs, f: [Fraction(c) for c in alg.pmul(cs, f)],
                         st.lists(shift_rationals, min_size=1, max_size=4),
                         st.sampled_from([[1], [-2, 0, 1], [-3, 0, 1]]))


@st.composite
def shift_cases(draw):
    """(field, coefficient specs, c spec, nu): a spec is ("q", Fraction) or ("a", coordinates)."""
    field = draw(st.sampled_from(list(SHIFT_FIELDS)))
    rational = shift_rationals.map(lambda q: ("q", q))
    algebraic = shift_coords.map(lambda cs: ("a", cs))
    if field == "Q":
        numbers, c = rational, draw(rational.filter(lambda spec: spec[1]))
    else:
        numbers = draw(st.sampled_from([rational, algebraic, st.one_of(rational, algebraic)]))
        c = draw(st.one_of(rational.filter(lambda spec: spec[1]), algebraic))
    exponents = st.builds(Fraction, st.integers(-4, 6), st.sampled_from([1, 2, 3, 4]))
    coeffs = draw(st.lists(st.dictionaries(exponents, numbers, max_size=3), min_size=2, max_size=5))
    nu = draw(st.builds(Fraction, st.integers(-3, 5), st.sampled_from([1, 2, 3, 5])))
    return field, coeffs, c, nu


def _naive_shift(coeffs, c, nu):
    """p(c*t^nu + x) by multiplying out (c*t^nu + x)^i as {x-degree: {exponent: number}} dicts.

    An algebraic c makes every term algebraic, the one of x^i included, as the shift does.
    """
    one = Fraction(1) if isinstance(c, Fraction) else RealAlgebraic(c.ctx, [1])
    out = [{} for _ in coeffs]
    power = {0: {Fraction(0): one}}
    for a in coeffs:
        for j, term in power.items():
            for e, q in term.items():
                for f, r in a.items():
                    out[j][e + f] = out[j].get(e + f, 0) + q * r
        times_x = {j + 1: dict(term) for j, term in power.items()}
        for j, term in power.items():
            row = times_x.setdefault(j, {})
            for e, q in term.items():
                row[e + nu] = row.get(e + nu, 0) + q * c
        power = times_x
    return [{e: q for e, q in row.items() if q != 0} for row in out]


class TestShiftAgainstNaiveExpansion:
    @settings(max_examples=300, deadline=None)
    @given(shift_cases())
    def test_same_terms_values_and_types(self, case):
        field, specs, c_spec, nu = case
        ctx = None if SHIFT_FIELDS[field] is None else AlgebraicContext(*SHIFT_FIELDS[field])

        def number(spec):
            kind, value = spec
            return value if kind == "q" else RealAlgebraic(ctx, value)

        coeffs = [{e: number(spec) for e, spec in a.items()} for a in specs]
        c = number(c_spec)
        got = preparation._substitute(coeffs, c, nu)
        # the terms made under the witness as it is now, before a zero test of the oracle can shrink it
        reduced = [q for row in got for q in row.values()
                   if isinstance(q, RealAlgebraic) and q._generation == ctx.generation]
        expected = _naive_shift(coeffs, c, nu)
        assert [sorted(row) for row in got] == [sorted(row) for row in expected]
        assert got == expected
        assert [{e: type(q) for e, q in row.items()} for row in got] == [
            {e: type(q) for e, q in row.items()} for row in expected
        ]
        assert all(q.coords == ctx.reduce(q.coords) for q in reduced)


class TestRvProductLaw:
    def test_real_branches(self):
        # rv(p(x)) = rv(lead) * prod rv(x - root) at sampled rational points
        coeffs = _poly_mul(poly("-1", "1"), poly("-1 - 1*t^(1)", "1"))
        roots = [s("1"), s("1 + 1*t^(1)")]
        rng = random.Random("rvprod")
        for lam_q in (0, 1):
            lam = ge(lam_q)
            for _ in range(40):
                x = TruncatedSeries.exact(
                    HahnSeries(
                        [(ge(Fraction(rng.randint(-4, 6), 2)), Fraction(rng.choice([1, 2, -3, 5])))]
                    )
                ) + TruncatedSeries.constant(Fraction(rng.randint(-3, 3)))
                value = poly_eval(coeffs, x)
                if value.approx.is_zero():
                    continue
                expected = rv_lambda(x - roots[0], lam)
                expected = rv_combine("mul", expected, rv_lambda(x - roots[1], lam))
                assert rv_lambda(value, lam) == expected

    def test_complex_quadratic_factor(self):
        # the conjugate pair contributes through its real quadratic factor
        quad = poly("1*t^(1)", "0", "1")
        coeffs = _poly_mul(quad, poly("-1", "1"))
        rng = random.Random("rvprodc")
        lam = ge(0)
        for _ in range(40):
            x = TruncatedSeries.exact(
                HahnSeries([(ge(Fraction(rng.randint(-2, 4), 2)), Fraction(rng.choice([1, -2, 3])))])
            )
            value = poly_eval(coeffs, x)
            if value.approx.is_zero():
                continue
            expected = rv_combine("mul", rv_lambda(poly_eval(quad, x), lam), rv_lambda(x - s("1"), lam))
            assert rv_lambda(value, lam) == expected


class TestPreparePolynomial:
    def test_pure_square(self):
        prep, report = prepare_polynomial(poly("0", "0", "1"), ge(1), trials=150, rng_seed=2)
        assert report.passed()
        assert [format_series(p.series) for p in prep.points] == ["0"]

    def test_square_root_set(self):
        prep, report = prepare_polynomial(poly("-1*t^(1)", "0", "1"), ge(0), trials=300, rng_seed=2)
        assert report.passed()
        assert sorted(format_series(p.series) for p in prep.points) == [
            "-1*t^(1/2)",
            "0",
            "1*t^(1/2)",
        ]

    def test_clustered_roots(self):
        prep, report = prepare_polynomial(
            poly("1 + 1*t^(1)", "-2 - 1*t^(1)", "1"), ge(1), trials=300, rng_seed=2
        )
        assert report.passed()
        got = sorted(format_series(p.series) for p in prep.points)
        assert got == ["1", "1 + 1*t^(1)", "1 + 1/2*t^(1)"]

    def test_derivative_chain_provenance(self):
        prep, _ = prepare_polynomial(poly("1 + 1*t^(1)", "-2 - 1*t^(1)", "1"), ge(0), trials=100, rng_seed=2)
        orders = {p.derivative_order for p in prep.points}
        assert orders == {0, 1}

    def test_undersized_set_fails(self):
        p = poly("-1*t^(1)", "0", "1")
        report = verify_preparation(_term_from_poly(p), [TruncatedSeries.zero()], ge(0), trials=500, rng_seed=3)
        assert not report.passed()
        witness = report.violations[0]
        assert witness["x"] != witness["y"]

    def test_dropping_cluster_point_fails(self):
        p = poly("1 + 1*t^(1)", "-2 - 1*t^(1)", "1")
        undersized = [s("1"), s("1 + 1/2*t^(1)")]  # missing 1 + t
        report = verify_preparation(_term_from_poly(p), undersized, ge(1), trials=500, rng_seed=4)
        assert not report.passed()

    def test_monotonicity(self):
        p = poly("-1*t^(1)", "0", "1")
        prep, _ = prepare_polynomial(p, ge(0), trials=200, rng_seed=5)
        bigger = prep.centers() + [s("7"), s("1*t^(2)")]
        report = verify_preparation(_term_from_poly(p), bigger, ge(0), trials=300, rng_seed=6)
        assert report.passed()

    def test_identity_term(self):
        report = verify_preparation(
            lambda x, prec=None: x, [TruncatedSeries.zero()], ge(1), trials=200, rng_seed=7
        )
        assert report.passed()

    def test_undecided_report_ends_the_search(self, monkeypatch):
        # deeper branch points cannot make skipped samples checkable
        calls = []

        def never_defined(x, prec=None):
            raise DivisionByZero("never defined")

        def all_skipped(term, prep, lam, trials, rng_seed):
            calls.append(lam)
            return verify_preparation(never_defined, prep, lam, trials, rng_seed)

        monkeypatch.setattr(preparation, "verify_preparation", all_skipped)
        with pytest.raises(DepthExhausted, match="undecided"):
            prepare_polynomial(poly("-1*t^(1)", "0", "1"), ge(0), trials=20, rng_seed=2, max_retries=3)
        assert len(calls) == 1

    def test_exhausted_search_reports_the_last_depth_tried(self, monkeypatch):
        calls = []

        def always_fails(term, prep, lam, trials, rng_seed):
            calls.append(lam)
            return VerificationReport("verify", lam, trials, rng_seed, violations=[{"witness": "forced"}])

        monkeypatch.setattr(preparation, "verify_preparation", always_fails)
        with pytest.raises(DepthExhausted, match="kept failing at depth 12;"):
            prepare_polynomial(poly("-1*t^(1)", "0", "1"), ge(0), trials=20, rng_seed=2, max_retries=3)
        assert len(calls) == 3
        with pytest.raises(ValueError, match="max_retries"):
            prepare_polynomial(poly("-1*t^(1)", "0", "1"), ge(0), trials=20, rng_seed=2, max_retries=0)


class TestJacobianProbe:
    def test_square(self):
        report = jacobian_probe(lambda x, prec: x * x, [TruncatedSeries.zero()], trials=300, rng_seed=5)
        assert report.passed()
        assert report.extra["shifts"]

    def test_identity_shift_zero(self):
        report = jacobian_probe(lambda x, prec: x, [TruncatedSeries.zero()], trials=200, rng_seed=5)
        assert report.passed()
        assert {entry["shift"] for entry in report.extra["shifts"]} == {"0"}

    def test_inverse(self):
        report = jacobian_probe(lambda x, prec: invert(x, prec), [TruncatedSeries.zero()], trials=300, rng_seed=5)
        assert report.passed()

    def test_all_samples_skipped_is_undecided(self):
        def fn(x, prec):
            raise DivisionByZero("never defined")

        report = jacobian_probe(fn, [TruncatedSeries.zero()], trials=20, rng_seed=5)
        assert report.checked == 0 and not report.violations
        assert report.verdict == "undecided" and not report.passed()
        assert report.to_dict() == {
            "op": "jacobian_probe",
            "lambda": "1",
            "trials": 20,
            "seed": 5,
            "violations": [],
            "verdict": "undecided",
            "shifts": [],
        }


class TestStrongUnitProbe:
    def test_scaled_unit_passes(self):
        reg = FunctionRegistry()
        spec = StrongUnitSpec(h=reg.get("exp"), h_scale=s("1*t^(1)"))
        annulus = (TruncatedSeries.zero(), s("1*t^(2)"), s("1"))
        report = strong_unit_probe(spec, annulus, ge(1), trials=150, rng_seed=8)
        assert report.passed()

    def test_zero_inner_radius_is_a_domain_violation(self):
        spec = StrongUnitSpec(h=FunctionRegistry().get("exp"))
        annulus = (TruncatedSeries.zero(), TruncatedSeries.zero(), s("1"))
        with pytest.raises(DomainViolation, match="annulus needs a nonzero inner radius"):
            strong_unit_probe(spec, annulus, ge(0), trials=10, rng_seed=0)

    def test_failed_outer_inverse_skips_every_point(self):
        # the outer radius is too blurred to invert at the probe's precision,
        # so each point is skipped
        spec = StrongUnitSpec(h=FunctionRegistry().get("exp"))
        annulus = (TruncatedSeries.zero(), s("1*t^(2)"), s("1 + O(t^(1))"))
        report = strong_unit_probe(spec, annulus, ge(0), trials=5, rng_seed=0)
        assert report.verdict == "undecided"

    def test_trivial_unit(self):
        spec = StrongUnitSpec()
        annulus = (TruncatedSeries.zero(), s("1*t^(2)"), s("1"))
        report = strong_unit_probe(spec, annulus, ge(0), trials=50, rng_seed=8)
        assert report.passed()

    def test_norm_violation_detected(self):
        # U(x) = x, built as 1 + h((x - 1)/1) with h(z) = z: not strong,
        # and the cancellation fibre near x - 1 = -1 witnesses it
        reg = FunctionRegistry()
        register_function({"name": "idz", "vars": 1, "radius": 2, "table": [0, 1]}, reg)
        spec = StrongUnitSpec(h=reg.get("idz"), h_scale=s("1"))
        annulus = (s("1"), s("1*t^(1)"), s("1"))
        report = strong_unit_probe(spec, annulus, ge(0), trials=400, rng_seed=9)
        assert not report.passed()
        # the whole report, witnesses included, is frozen byte for byte
        with open(os.path.join(os.path.dirname(__file__), "golden", "strong_unit_idz.json"), "rb") as handle:
            assert report.to_json().encode() == handle.read()

    # A zeroed part that raises still skips its point (exp of a non-infinitesimal argument, say), so only
    # parts that cannot raise are dropped here: the inner radius 9t leaves no annulus point with
    # v(x - 1) = 1, so sin's argument is always infinitesimal, and idz is a polynomial.
    @pytest.mark.parametrize("zeroed, kept", [
        (dict(g="sin", g_scale="0"), dict(h="idz", h_scale="1")),
        (dict(h="idz", h_scale="0"), dict(g="idz", g_scale="1*t^(1)")),
    ])
    def test_a_zero_scale_gives_the_report_without_a_part_that_cannot_raise(self, zeroed, kept):
        build = lambda parts: StrongUnitSpec(**{k: _UNIT_REGISTRY.get(v) if k in ("g", "h") else s(v)
                                                for k, v in parts.items()})
        annulus = (s("1"), s("9*t^(1)"), s("1"))
        with_zero = strong_unit_probe(build({**zeroed, **kept}), annulus, ge(0), trials=200, rng_seed=9)
        assert with_zero.to_json() == strong_unit_probe(build(kept), annulus, ge(0), trials=200, rng_seed=9).to_json()
        assert with_zero.checked == 200


def _reference_strong_unit_probe(spec, annulus, lam, trials, rng_seed):
    """``strong_unit_probe`` as it valued every point before its two rungs: sums at lam + 4, inverses at twice that."""
    center, inner, outer = annulus
    base_prec = lam + ge(4)

    def unit_value(x):
        total = TruncatedSeries.one(x.rank)
        diff = x - center
        if spec.g is not None:
            part = evaluate_analytic(spec.g, [inner * invert(diff, base_prec + base_prec)], base_prec)
            total = total + (spec.g_scale * part if spec.g_scale is not None else part)
        if spec.h is not None:
            part = evaluate_analytic(spec.h, [diff * invert(outer, base_prec + base_prec)], base_prec)
            total = total + (spec.h_scale * part if spec.h_scale is not None else part)
        return total

    lo, hi = valuation(outer).first(), valuation(inner).first()
    gammas = [Fraction(k, 4) for k in range(floor(lo * 4), ceil(hi * 4) + 1)]

    def draw(rng):
        x0 = center + random_point(rng, ge(rng.choice(gammas)), steps=2)
        if not preparation._inside_annulus(x0, center, inner, outer):
            return None
        inside = [m for m in ball_mates(rng, x0, [center], lam, count=2)
                  if preparation._inside_annulus(m, center, inner, outer)]
        return (x0, inside) if inside else None

    def check(x0, inside):
        return preparation._first_disagreement(lambda x: rv_lambda(unit_value(x), lam), x0, inside)

    report = VerificationReport("strong_unit_probe", lam, trials, rng_seed)
    return run_trials(report, "annulus", [center], draw, check, preparation._SKIP)


_UNIT_REGISTRY = FunctionRegistry()
register_function({"name": "idz", "vars": 1, "radius": 2, "table": [0, 1]}, _UNIT_REGISTRY)
_UNIT_FUNCTIONS = st.sampled_from([None, "exp", "sin", "cos", "log1p", "idz"])
_UNIT_SCALES = st.sampled_from([None, "0", "1", "-1", "1*t^(1)", "2*t^(1/2)", "1*t^(-4)", "1*t^(1) + O(t^(2))"])


def _traced(probe, *args):
    """The report of ``probe(*args)`` and, in the order valued, each point with its rv_lam or the skip it raised."""
    trace = []
    first = preparation._first_disagreement

    def recording(value, x0, mates):
        def traced(x):
            try:
                out = value(x)
            except preparation._SKIP as exc:
                trace.append((format_series(x), type(exc).__name__))
                raise
            trace.append((format_series(x), out.to_dict()))
            return out

        return first(traced, x0, mates)

    preparation._first_disagreement = recording
    try:
        return probe(*args), trace
    finally:
        preparation._first_disagreement = first


class TestStrongUnitProbeAgainstItsReference:
    """The two-rung probe against one that values every point at lam + 4: the same reports, witnesses
    included, and the same rv_lam or skip at every point valued."""

    @staticmethod
    def assert_same(lam, annulus, g, g_scale, h, h_scale, trials, seed):
        spec = StrongUnitSpec(
            g=_UNIT_REGISTRY.get(g) if g else None, g_scale=s(g_scale) if g and g_scale else None,
            h=_UNIT_REGISTRY.get(h) if h else None, h_scale=s(h_scale) if h and h_scale else None,
        )
        annulus, lam = tuple(map(s, annulus)), ge(Fraction(lam))
        (report, trace), (expected, expected_trace) = (_traced(probe, spec, annulus, lam, trials, seed)
                                                       for probe in (strong_unit_probe, _reference_strong_unit_probe))
        assert report.to_json() == expected.to_json()
        assert trace == expected_trace

    @settings(max_examples=80, deadline=None)
    @given(
        lam=st.sampled_from(["0", "1/2", "1", "2"]),
        center=st.sampled_from(["0", "1", "-2*t^(1/2)", "1 + O(t^(6))", "1*t^(1) + O(t^(9))"]),
        outer=st.sampled_from(["1", "1 + 1*t^(1)", "1*t^(1/2)", "1 + O(t^(5))", "1 + O(t^(12))"]),
        inner=st.integers(2, 6),
        g=_UNIT_FUNCTIONS, g_scale=_UNIT_SCALES, h=_UNIT_FUNCTIONS, h_scale=_UNIT_SCALES,
        seed=st.integers(0, 10**6),
    )
    # sin(t^6/(x - c)) t^(-4) is read below t^5, above rung 2's sums at lam + 4, which skip its points
    @example(lam="0", center="0", outer="1", inner=6, g="sin", g_scale="1*t^(-4)", h=None, h_scale=None, seed=1)
    # where v(x - c) >= 4, rung 2's inverse of x - c at 8 is not known above its valuation, and its points are skipped
    @example(lam="0", center="0", outer="1", inner=6, g="sin", g_scale="1*t^(1)", h=None, h_scale=None, seed=2)
    # exp of a non-infinitesimal argument under a zero scale skips a point as before
    @example(lam="0", center="0", outer="1", inner=2, g="exp", g_scale="0", h="cos", h_scale="1*t^(1)", seed=3)
    def test_same_report(self, lam, center, outer, inner, g, g_scale, h, h_scale, seed):
        self.assert_same(lam, (center, f"1*t^({inner})", outer), g, g_scale, h, h_scale, 12, seed)

    @settings(max_examples=30, deadline=None)
    @given(
        lam=st.sampled_from(["0", "1/2", "1"]),
        center=st.sampled_from(["0", "1", "1 + O(t^(8))"]),
        inner=st.integers(2, 3),
        g=_UNIT_FUNCTIONS, g_scale=_UNIT_SCALES, h_scale=st.sampled_from(["1", "-1"]),
        seed=st.integers(0, 10**6),
    )
    def test_same_witnesses_where_the_unit_fails(self, lam, center, inner, g, g_scale, h_scale, seed):
        # 1 +- (x - c)/t^(3/2) cancels where x - c = -+t^(3/2) + ..., so about a third of these reports fail
        self.assert_same(lam, (center, f"1*t^({inner})", "1*t^(3/2)"), g, g_scale, "idz", h_scale, 60, seed)


class TestPolyText:
    def test_render(self):
        assert poly_text(poly("-1*t^(1)", "0", "1")) == "(-1*t^(1)) + (1)*x^2"
        assert poly_text(poly("1", "1")) == "(1) + (1)*x"


class TestSerialization:
    def test_preparing_set_json_shape(self):
        prep, _ = prepare_polynomial(poly("-1*t^(1)", "0", "1"), ge(0), trials=100, rng_seed=1)
        data = prep.to_dict()
        assert set(data) == {"points"}
        entry = data["points"][0]
        assert list(entry.keys()) == ["series", "depth", "provenance"]
        assert list(entry["provenance"].keys()) == ["poly", "derivative_order"]
        # provenance polynomials re-parse through the term grammar
        from hahn_forge.terms import parse_term

        parse_term(entry["provenance"]["poly"])


class TestDocumentedErrors:
    def test_an_undetermined_coefficient_has_no_hull_point(self):
        with pytest.raises(InsufficientPrecision, match="coefficient 1"):
            newton_polygon(poly("1*t^(1)", "0 + O(t^(2))", "1"))

    def test_root_expansion_inputs(self):
        with pytest.raises(HahnForgeError, match="rank 1"):
            puiseux_roots([parse_series("1", 2), parse_series("1", 2)])
        with pytest.raises(InsufficientPrecision, match="exact coefficients"):
            puiseux_roots(poly("1*t^(1) + O(t^(2))", "1"))
        # a top coefficient that is exactly zero drops, and a constant has no roots
        assert puiseux_roots(poly("1*t^(1)", "0")) == []

    def test_a_constant_has_no_preparing_set(self):
        with pytest.raises(ValueError, match="nonconstant"):
            prepare_polynomial(poly("1", "0"), ge(1))

    def test_probes_need_a_nonempty_set(self):
        with pytest.raises(ValueError, match="nonempty"):
            verify_preparation(lambda x, p: x, [], ge(1))
        with pytest.raises(ValueError, match="nonempty"):
            jacobian_probe(lambda x, p: x, [])

    def test_a_point_at_an_undetermined_distance_lies_in_no_annulus(self):
        center = s("1 + O(t^(1))")
        assert not preparation._inside_annulus(s("1 + 1*t^(3/2)"), center, s("1*t^(2)"), s("1"))
        assert preparation._inside_annulus(s("1 + 1*t^(1/2)"), center, s("1*t^(2)"), s("1"))
