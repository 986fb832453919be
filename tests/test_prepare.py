"""Newton polygon, branch expansion, preparing sets, and the probes."""

import itertools
import json
import os
import random
import zlib
from collections import Counter
from fractions import Fraction
from math import ceil, floor, lcm
from types import SimpleNamespace

import pytest
from hypothesis import event, example, given, settings, strategies as st

from hahn_forge import algebraic as alg
from hahn_forge.algebraic import AlgebraicContext, RealAlgebraic
from hahn_forge.analytic import FunctionRegistry, evaluate_analytic, hensel_root, register_function
import hahn_forge.prepare as preparation
import hahn_forge.rv as rv_module
from hahn_forge.errors import (
    DepthExhausted,
    DivisionByZero,
    DomainViolation,
    HahnForgeError,
    InsufficientPrecision,
    NotInfinitesimal,
    PrecisionStall,
    UndecidableAtPrecision,
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
from hahn_forge.rv import (
    VerificationReport,
    _point_pairs,
    _schedule,
    ball_mates,
    check_prepares,
    near_sample,
    run_trials,
    rv_combine,
    rv_lambda,
)
from hahn_forge.series import (
    GroupElement,
    HahnSeries,
    INFINITE,
    TruncatedSeries,
    _exponent,
    _first_difference,
    _half_steps,
    _key_of,
    compare_sign,
    format_exponent,
    format_rational,
    format_series,
    invert,
    parse_series,
    poly_eval,
    valuation,
)
from hahn_forge.terms import App, Mono, Mul, eval_term, print_term
from test_terms import term_trees

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


# -- root expansion against roots known in advance: p = c (x - r_1)...(x - r_n), the r_i drawn off the
# samplers' grid (exponent denominators up to 6, coefficients that are not the integers 1..9 up to sign).
# The exponents of one polynomial share a denominator q <= 6: with an lcm up to 60 the squarefree part's
# subresultants over Z[t^(1/60)] alone took up to 50 s on a degree-7 draw (ROADMAP item 9).

_KNOWN_COEFFS = st.builds(Fraction, st.integers(10, 40), st.integers(1, 6)).filter(
    lambda q: q.denominator > 1 or q > 9).flatmap(lambda q: st.sampled_from([q, -q]))


def _known_series(q):
    return st.dictionaries(st.builds(Fraction, st.integers(-q, 3 * q), st.just(q)), _KNOWN_COEFFS, max_size=3)


def _exact(terms):
    return TruncatedSeries.exact(HahnSeries([(GroupElement.scalar(e), c) for e, c in terms.items()]))


@st.composite
def known_roots(draw):
    """``(coeffs, roots, pairs)``: p = c (x - r_1)...(x - r_n), times x^2 + s^2 when ``pairs`` is 1, and
    now and then times one of its linear factors again; ``roots`` are the distinct r_i as dicts."""
    series = _known_series(draw(st.integers(1, 6)))
    roots = draw(st.lists(series, min_size=1, max_size=3, unique_by=lambda r: frozenset(r.items())))
    factors = [[_exact(r).scale(-1), TruncatedSeries.one()] for r in roots]
    square = draw(st.none() | series.filter(bool))
    if square is not None:
        sq = _exact(square)
        factors.append([sq * sq, TruncatedSeries.zero(), TruncatedSeries.one()])
    if draw(st.booleans()):
        factors.append(draw(st.sampled_from(factors[:len(roots)])))
    coeffs = [TruncatedSeries.constant(draw(_KNOWN_COEFFS))]
    for factor in factors:
        coeffs = _poly_mul(coeffs, factor)
    return coeffs, roots, int(square is not None)


def _branch_follows(root, known):
    """The branch agrees with the known root through its last exponent and up to its depth:
    ``known - branch`` has valuation ``root.depth`` (INFINITE where the branch is the root)."""
    terms = dict(root.branch)
    last = root.branch[-1][0] if root.branch else None
    if terms != {e: c for e, c in known.items() if last is not None and e <= last}:
        return False
    rest = [e for e in known if last is None or e > last]
    return root.depth == (min(rest) if rest else INFINITE)


class TestRootExpansionFromKnownRoots:
    @settings(max_examples=150, deadline=None)
    @given(known_roots(), st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]))
    def test_each_known_root_has_its_branch(self, case, depth):
        coeffs, roots, pairs = case
        found = puiseux_roots(coeffs, depth)
        real = [r for r in found if r.is_real()]
        assert sum(1 for r in found if r.conjugacy_tag == "complex-pair") == pairs
        assert len(real) == len(roots)
        for known in roots:
            matches = [r for r in real if _branch_follows(r, known)]
            assert len(matches) == 1
            branch = matches[0]
            assert branch.depth is INFINITE or branch.branch[-1][0] >= depth


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


def _reference_jacobian_probe(fn, prep, trials, rng_seed):
    """``jacobian_probe`` as it read distances before the grid reader: v(x - y) and v(f(x) - f(y)) from
    the differences themselves."""
    centers = list(prep)
    lam, base_prec = ge(1), ge(10)
    shifts = []

    def check(x0, mates, _gamma):
        points = [x0, *mates]
        values = [fn(x, base_prec) for x in points]
        shift = bad = None
        for (x, fx), (y, fy) in itertools.combinations(zip(points, values), 2):
            gap = x - y
            if gap.approx.is_zero():
                continue
            vi = valuation(fx - fy)
            if vi is INFINITE:
                raise UndecidableAtPrecision("image gap vanished")
            delta = vi - valuation(gap)
            if shift is None:
                shift = delta
            elif delta != shift:
                bad = (x, y)
                break
        if shift is not None:
            shifts.append({"ball": format_series(x0), "shift": format_rational(shift.first())})
        return bad

    report = VerificationReport("jacobian_probe", lam, trials, rng_seed, extra={"shifts": shifts})
    rows = _schedule(-4, 6, 2, lam)
    draw = lambda rng: near_sample(rng, centers, lam, rows, steps=2, count=3)
    return run_trials(report, "jacobian", centers, draw, check, preparation._SKIP)


_JACOBIAN_MAPS = {
    "x": lambda x, prec: x,
    "x^2": lambda x, prec: x * x,
    "x^3 - x": lambda x, prec: x * x * x - x,
    "1/x": lambda x, prec: invert(x, prec),
    "t^2 x + 1": lambda x, prec: x * s("1*t^(2)") + s("1"),
    "exp(t x)": lambda x, prec: evaluate_analytic(_UNIT_REGISTRY.get("exp"), [x * s("1*t^(1)")], prec),
    "(x^2)(mod t^2)": lambda x, prec: (x * x).truncate(ge(2)),
    "1": lambda x, prec: s("1"),
    # not analytic: x^2 or x by the parity of the number of terms, so most probes find a witness
    "x^2 or x": lambda x, prec: x * x if len(x.approx.terms) % 2 else x,
}


class TestJacobianProbeAgainstItsReference:
    """The probe reading both distances off the grids against the one that forms the differences: the
    same reports, shifts and witnesses included."""

    @settings(max_examples=40, deadline=None)
    @given(fn=st.sampled_from(sorted(_JACOBIAN_MAPS)),
           centers=st.sampled_from([["0"], ["1"], ["1", "-1"], ["1*t^(1/2)", "1 + O(t^(4))"], ["0", "1*t^(2)"]]),
           seed=st.integers(0, 10**6))
    def test_same_report(self, fn, centers, seed):
        prep = [s(c) for c in centers]
        got = jacobian_probe(_JACOBIAN_MAPS[fn], prep, trials=8, rng_seed=seed)
        assert got.to_json() == _reference_jacobian_probe(_JACOBIAN_MAPS[fn], prep, 8, seed).to_json()


def _t10_jacobian_probe(fn, prep, trials, rng_seed):
    """``jacobian_probe`` with one rung: every point of a check valued once, at t^10, and both distances read
    off the grids."""
    centers = list(prep)
    rank = centers[0].rank
    lam, base_prec = GroupElement.scalar(1, rank), GroupElement.scalar(10, rank)
    shifts = []

    def check(x0, mates, _gamma):
        points = [x0, *mates]
        values = [fn(x, base_prec) for x in points]
        shift = bad = None
        for (x, fx), (y, fy) in itertools.combinations(zip(points, values), 2):
            gap = _first_difference(x, y)
            if gap is None:
                continue
            image = _first_difference(fx, fy)
            if image is None:
                raise UndecidableAtPrecision("image gap vanished")
            delta = _exponent(*image[:2]) - _exponent(*gap[:2])
            if shift is None:
                shift = delta
            elif delta != shift:
                bad = (x, y)
                break
        if shift is not None:
            shifts.append({"ball": format_series(x0), "shift": format_exponent(shift)})
        return bad

    report = VerificationReport("jacobian_probe", lam, trials, rng_seed, extra={"shifts": shifts})
    rows = _schedule(-4, 6, 2, lam)
    draw = lambda rng: near_sample(rng, centers, lam, rows, steps=2, count=3)
    return run_trials(report, "jacobian", centers, draw, check, preparation._SKIP)


def _hensel_coefficient_map(a, prec):
    """The lifted root of 1 + y + a y^2, as a function of the coefficient a."""
    v = valuation(a)
    if not (v is not INFINITE and v > GroupElement.zero(a.rank)):
        raise NotInfinitesimal("coefficient must be infinitesimal")
    return hensel_root([a], prec, a.rank)


def _below_t10_raises(x, prec):
    if prec < GroupElement.scalar(10, x.rank):
        raise InsufficientPrecision("only t^10 is served")
    return x * x


def _probe_outcome(probe, fn, centers, seed):
    """The report's JSON, or the class and message of the error the probe raised."""
    try:
        return probe(fn, centers, 8, seed).to_json()
    except Exception as exc:  # noqa: BLE001 - the error is the outcome compared
        return type(exc), str(exc)


@st.composite
def ladder_maps(draw, rank):
    """``(name, map)``: a map of the table (rank 1), the Hensel coefficient map, a map that raises below
    t^10, or ``eval_term`` of a random term, at times under exp, sin, cos or log1p of t times the term."""
    kind = draw(st.sampled_from(["table", "hensel", "term", "term", "applied"] if rank == 1 else
                                ["hensel", "term", "term", "applied"]))
    if kind == "table":
        name = draw(st.sampled_from(sorted(_JACOBIAN_MAPS)))
        return name, _JACOBIAN_MAPS[name]
    if kind == "hensel":
        return draw(st.sampled_from([("hensel", _hensel_coefficient_map), ("raises below t^10", _below_t10_raises)]))
    node = draw(term_trees(rank))
    if kind == "applied":
        name = draw(st.sampled_from(["exp", "sin", "cos", "log1p"]))
        node = App(name, (Mul(Mono(GroupElement.scalar(1, rank)), node),))
    return print_term(node), lambda x, prec: eval_term(node, x, prec)


class TestJacobianProbeLadder:
    """The probe that values exact points just above their deepest gap first against the one that values
    every point at t^10 alone."""

    @settings(max_examples=100, deadline=None)
    @given(ladder_maps(1),
           st.sampled_from([["0"], ["1"], ["1", "-1"], ["1*t^(1/2)", "1 + O(t^(4))"], ["0", "1*t^(2)"],
                            ["1 + O(t^(4))"], ["-2*t^(-1) + 1*t^(1/3)"], ["1*t^(1) + O(t^(3))", "0"]]),
           st.integers(0, 10**6))
    @example(("1/x", _JACOBIAN_MAPS["1/x"]), ["1*t^(1/2)", "1 + O(t^(4))"], 0)
    def test_same_report_or_error_in_rank_one(self, named, centers, seed):
        _, fn = named
        prep = [s(c) for c in centers]
        assert _probe_outcome(jacobian_probe, fn, prep, seed) == _probe_outcome(_t10_jacobian_probe, fn, prep, seed)

    @settings(max_examples=40, deadline=None)
    @given(ladder_maps(2),
           st.sampled_from([["0"], ["1"], ["1*t^(0,1)", "-1"], ["1 + O(t^(2,0))"], ["1*t^(1,0)", "0"]]),
           st.integers(0, 10**6))
    def test_same_report_in_rank_two_where_the_t10_probe_reports(self, named, centers, seed):
        _, fn = named
        prep = [s(c, rank=2) for c in centers]
        want, got = _probe_outcome(_t10_jacobian_probe, fn, prep, seed), _probe_outcome(jacobian_probe, fn, prep, seed)
        if isinstance(want, str):
            assert got == want
        else:
            event("t^10 raises; " + ("the ladder reports" if isinstance(got, str) else
                                     "the ladder raises the same" if got == want else "the ladder raises another"))

    def test_exact_points_call_the_map_below_t10_and_inexact_ones_at_t10(self):
        calls = []

        # a stall on a blurry coefficient is skipped, so that every trial runs
        def recorded(a, prec):
            calls.append(prec)
            try:
                return _hensel_coefficient_map(a, prec)
            except PrecisionStall as exc:
                raise InsufficientPrecision(str(exc)) from exc

        report = jacobian_probe(recorded, [s("0")], trials=20, rng_seed=23)
        assert report.passed()
        below = [p for p in calls if p < ge(10)]
        assert below and len(below) > len(calls) - len(below)
        calls.clear()
        jacobian_probe(recorded, [s("1 + O(t^(4))")], trials=20, rng_seed=23)
        assert calls and set(calls) == {ge(10)}

    @pytest.mark.parametrize("fn", [_below_t10_raises, lambda x, prec: (x * x).truncate(prec - ge(7))],
                             ids=["raises below t^10", "gap undetermined below t^10"])
    def test_a_lower_rung_that_decides_nothing_leaves_t10_to_decide(self, fn):
        prep = [s("0")]
        want = _t10_jacobian_probe(fn, prep, 20, 5)
        assert want.checked == 20 and want.extra["shifts"]
        assert jacobian_probe(fn, prep, 20, 5).to_json() == want.to_json()

    def test_an_undetermined_image_gap_at_p1_stops_the_rung(self):
        """Around 0, ``invert(x, P)`` is known below P - 3 gamma and 1/x - 1/y has valuation g - 2 gamma for
        the gap g of x and y.  The gaps of a sample lie in gamma + [3/2, 5/2], so at gamma >= 3/2 the first
        image gap, g - 2 gamma >= P1 - 3 gamma, is undetermined at P1: the rung values the two points of
        that pair only, then t^10 values all four."""
        calls = []

        def recorded(x, prec):
            calls.append((x, prec))
            return invert(x, prec)

        ten, seen = ge(10), 0
        for seed in range(40):
            calls.clear()
            jacobian_probe(recorded, [s("0")], trials=1, rng_seed=seed)
            x0 = calls[0][0]
            if x0.approx.valuation() < ge(Fraction(3, 2)):
                continue
            seen += 1
            precs = [prec for _, prec in calls]
            assert precs[0] == precs[1] < ten and precs[2:] == [ten] * 4
            assert calls[2][0] == x0
        assert seen >= 5

    def test_every_point_is_valued_at_p1_before_the_rung_decides(self):
        """A map with no constant shift, raising at every precision on some points: where the rung finds a
        disagreeing pair before it has valued such a point, the point's error at P1 still sends the sample
        to t^10, which skips it, as the probe that values every point at t^10 alone does."""

        def erratic(x, prec):
            mark = zlib.crc32(format_series(x).encode())
            if mark % 4 == 0:
                raise InsufficientPrecision("this point is never valued")
            return x * x * x if mark % 2 else x * x

        for seed in range(30):
            want = _probe_outcome(_t10_jacobian_probe, erratic, [s("0")], seed)
            assert _probe_outcome(jacobian_probe, erratic, [s("0")], seed) == want


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

    # The outer radius is too blurred to invert, so the h part cannot be formed at any point and a probe
    # that formed it would skip every point; under a zero scale it is left out, as if it were not given.
    @pytest.mark.parametrize("h", ["exp", "idz"])
    def test_a_zero_scale_gives_the_report_without_the_part(self, h):
        kept = dict(g=_UNIT_REGISTRY.get("idz"), g_scale=s("1*t^(1)"))
        annulus = (s("0"), s("1*t^(2)"), s("1 + O(t^(1))"))
        zeroed = StrongUnitSpec(**kept, h=_UNIT_REGISTRY.get(h), h_scale=s("0"))
        with_zero = strong_unit_probe(zeroed, annulus, ge(0), trials=100, rng_seed=9)
        assert with_zero.to_json() == strong_unit_probe(StrongUnitSpec(**kept), annulus, ge(0), trials=100,
                                                        rng_seed=9).to_json()
        assert with_zero.checked == 100

    def test_a_zero_scaled_part_skips_no_point(self):
        # exp(t^2/x) has a non-infinitesimal argument where v(x) = 2; under a zero scale those points are
        # valued, with the same rv_lam as without the part
        kept = dict(h=_UNIT_REGISTRY.get("cos"), h_scale=s("1*t^(1)"))
        annulus, lam = (s("0"), s("1*t^(2)"), s("1")), ge(0)
        zeroed = StrongUnitSpec(g=_UNIT_REGISTRY.get("exp"), g_scale=s("0"), **kept)
        (report, trace), (expected, expected_trace) = (_traced(strong_unit_probe, spec, annulus, lam, 12, 3)
                                                       for spec in (zeroed, StrongUnitSpec(**kept)))
        assert report.to_json() == expected.to_json() and trace == expected_trace
        assert any(valuation(s(x)) == ge(2) and isinstance(value, dict) for x, value in trace)
        assert not any(value == "NotInfinitesimal" for _, value in trace)

    def test_each_part_is_formed_at_most_once_per_point(self, monkeypatch):
        # the cli workload's probe: where v(x - c) is 0 or v(inner), one part is its constant and the other
        # cannot be formed, as its argument is not infinitesimal; each point still forms each part once
        spec = StrongUnitSpec(g=_UNIT_REGISTRY.get("sin"), g_scale=s("1*t^(1)"),
                              h=_UNIT_REGISTRY.get("exp"), h_scale=s("1*t^(1)"))
        formed, per_point = [], []
        evaluate, first = preparation.evaluate_analytic, preparation._first_disagreement

        def recording(fn, args, prec):
            if not args[0].is_exact_zero():
                formed.append(fn.name)
            return evaluate(fn, args, prec)

        def counting(value, x0, mates):
            def counted(x):
                start = len(formed)
                try:
                    return value(x)
                finally:
                    per_point.append((valuation(x), Counter(formed[start:])))

            return first(counted, x0, mates)

        monkeypatch.setattr(preparation, "evaluate_analytic", recording)
        monkeypatch.setattr(preparation, "_first_disagreement", counting)
        strong_unit_probe(spec, (s("0"), s("1*t^(2)"), s("1")), ge(0), trials=100, rng_seed=2)
        assert {ge(0), ge(2)} <= {v for v, _ in per_point}
        assert all(count <= 1 for _, counts in per_point for count in counts.values())


class TestSamplersInRankTwo:
    """The samplers build their precisions, depths and valuations in the rank of their input."""

    lam = GroupElement([0, 0])

    def test_the_branch_points_prepare_and_the_center_alone_does_not(self):
        term = _term_from_poly([s("-1*t^(2,0)", rank=2), s("0", rank=2), s("1", rank=2)])
        undersized = verify_preparation(term, [s("0", rank=2)], self.lam, trials=300, rng_seed=1)
        assert undersized.verdict == "fail"
        branch_points = [s(c, rank=2) for c in ("0", "1*t^(1,0)", "-1*t^(1,0)")]
        assert verify_preparation(term, branch_points, self.lam, trials=300, rng_seed=1).passed()

    def test_jacobian_shifts_are_written_in_the_rank(self):
        report = jacobian_probe(lambda x, prec: x * s("2*t^(1,0)", rank=2), [s("0", rank=2)], trials=20, rng_seed=1)
        assert report.passed() and report.lam == GroupElement([1, 0])
        assert {entry["shift"] for entry in report.extra["shifts"]} == {"1,0"}

    def test_a_strong_unit_passes(self):
        spec = StrongUnitSpec(h=_UNIT_REGISTRY.get("exp"), h_scale=s("1*t^(1,0)", rank=2))
        annulus = (s("0", rank=2), s("1*t^(2,0)", rank=2), s("1", rank=2))
        report = strong_unit_probe(spec, annulus, self.lam, trials=50, rng_seed=8)
        assert report.passed() and report.checked == 50


def _reference_inside_annulus(x, center, inner, outer):
    """Whether inner < |x - c| < outer, from the differences themselves; False where a sign is not determined."""
    try:
        d = x - center
        d = d if compare_sign(d) >= 0 else -d
        return compare_sign(outer - d) > 0 and compare_sign(d - inner) > 0
    except UndecidableAtPrecision:
        return False


def _random_point(rng, lead, steps):
    """A random finite-support point of valuation exactly ``lead``: a head at ``lead``, then a random tail."""
    return _half_steps(TruncatedSeries.zero(lead.rank), _key_of(lead), _point_pairs(rng, steps))


def _reference_strong_unit_probe(spec, annulus, lam, trials, rng_seed):
    """``strong_unit_probe`` as it valued every point before its constant unit: sums at lam + 4, inverses at
    twice that; and as it drew, deciding membership from x - c, |x - c| and both differences at every point."""
    center, inner, outer = annulus
    base_prec = lam + ge(4)
    # a part under an exact-zero scale is left out, as if its function were not given
    g, h = (None if scale is not None and scale.is_exact_zero() else fn
            for fn, scale in ((spec.g, spec.g_scale), (spec.h, spec.h_scale)))

    def unit_value(x):
        total = TruncatedSeries.one(x.rank)
        diff = x - center
        if g is not None:
            part = evaluate_analytic(g, [inner * invert(diff, base_prec + base_prec)], base_prec)
            total = total + (spec.g_scale * part if spec.g_scale is not None else part)
        if h is not None:
            part = evaluate_analytic(h, [diff * invert(outer, base_prec + base_prec)], base_prec)
            total = total + (spec.h_scale * part if spec.h_scale is not None else part)
        return total

    lo, hi = valuation(outer).first(), valuation(inner).first()
    gammas = [Fraction(k, 4) for k in range(floor(lo * 4), ceil(hi * 4) + 1)]

    def draw(rng):
        x0 = center + _random_point(rng, ge(rng.choice(gammas)), steps=2)
        if not _reference_inside_annulus(x0, center, inner, outer):
            return None
        inside = [m for m in ball_mates(rng, x0, [center], lam, count=2)
                  if _reference_inside_annulus(m, center, inner, outer)]
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
    """The probe with its constant unit against one that values every point at lam + 4: the same reports,
    witnesses included, and the same rv_lam or skip at every point valued."""

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
    # sin(t^6/(x - c)) t^(-4) is read below t^5, above the sums at lam + 4, which skip its points
    @example(lam="0", center="0", outer="1", inner=6, g="sin", g_scale="1*t^(-4)", h=None, h_scale=None, seed=1)
    # where v(x - c) >= 4, the inverse of x - c at 8 is not known above its valuation, and its points are skipped
    @example(lam="0", center="0", outer="1", inner=6, g="sin", g_scale="1*t^(1)", h=None, h_scale=None, seed=2)
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

    def test_a_unit_that_is_not_strong_is_formed_once(self, monkeypatch):
        # the golden probe_unit_not_strong: the constant U = 1 - cos(0) is 0 + O(...), which leaves rv_lam
        # undetermined; it is formed once, and every point forms its own U
        spec = StrongUnitSpec(h=_UNIT_REGISTRY.get("cos"), h_scale=s("-1"))
        read = []
        rv = preparation.rv_lambda
        monkeypatch.setattr(preparation, "rv_lambda", lambda x, lam: read.append(x) or rv(x, lam))
        report, trace = _traced(strong_unit_probe, spec, (s("0"), s("1*t^(2)"), s("1")), ge(0), 30, 10)
        with open(os.path.join(os.path.dirname(__file__), "golden", "probe_unit_not_strong.out")) as handle:
            assert report.to_json() == json.dumps(json.loads(handle.read())["report"])
        assert len(read) == len(trace) + 1


def _gap(v, lead, tail):
    """``lead t^v``, then ``b t^(v + w)`` for a tail ``(b, w)``."""
    return f"{lead}*t^({v})" + ("" if tail is None else f" + {tail[0]}*t^({v + tail[1]})")


_SIGNED_RADII = ["1*t^(2)", "-1*t^(2)", "2*t^(2) + 1*t^(5/2)", "-1*t^(3/2) + O(t^(3))", "0 + O(t^(3))", "0"]
_OUTER_RADII = ["1", "-1", "1*t^(1/2)", "-1*t^(1/2)", "1 + 1*t^(1)", "-1 + O(t^(5))", "0 + O(t^(1))", "1*t^(2)",
                "2*t^(2) + 1*t^(5/2)"]


@st.composite
def annulus_points(draw):
    """An annulus and points x = c + d, d exact and nonzero, v(d) often a radius' valuation."""
    center, inner, outer = (s(draw(st.sampled_from(texts))) for texts in (
        ["0", "1", "-2*t^(1/2)", "1 + O(t^(6))", "1*t^(1) + O(t^(9))"], _SIGNED_RADII, _OUTER_RADII))
    radius_valuations = [r.valuation_lower_bound().first() for r in (inner, outer) if not r.is_exact_zero()]
    valuations = st.sampled_from(radius_valuations) | st.sampled_from([Fraction(k, 2) for k in range(-2, 7)])
    gaps = draw(st.lists(st.builds(_gap, valuations, st.sampled_from([-2, -1, 1, 2]),
                                   st.sampled_from([None, (-1, Fraction(1, 2)), (1, Fraction(1, 2)), (3, 1)])),
                         min_size=1, max_size=6))
    return center, inner, outer, [s(gap) for gap in gaps]


_RANK2_CENTERS = ["0", "1", "-2*t^(1/2,0)", "1*t^(0,-1) + 1*t^(0,1)", "1 + O(t^(6,0))", "1*t^(0,1) + O(t^(1,0))"]
_RANK2_INNER = ["1*t^(2,0)", "-1*t^(2,0)", "1*t^(1,1)", "2*t^(1,-1) + 1*t^(1,0)", "-1*t^(1,0) + O(t^(2,0))",
                "0 + O(t^(3,0))", "0"]
_RANK2_OUTER = ["1", "-1", "1*t^(0,1)", "-1*t^(0,-1)", "1 + 1*t^(0,1)", "-1 + O(t^(1,0))", "0 + O(t^(0,2))",
                "1*t^(1,0)"]


@st.composite
def rank2_annulus_points(draw):
    """A rank-2 annulus and points x = c + d, d exact and nonzero, v(d) often a radius' valuation; a
    second term of d often differs from the lead only in the second coordinate."""
    center, inner, outer = (s(draw(st.sampled_from(texts)), rank=2)
                            for texts in (_RANK2_CENTERS, _RANK2_INNER, _RANK2_OUTER))
    radius_valuations = [r.valuation_lower_bound() for r in (inner, outer) if not r.is_exact_zero()]
    grid = [GroupElement([Fraction(a, 2), Fraction(b, 2)]) for a in range(-1, 5) for b in range(-2, 3)]
    valuations = st.sampled_from(radius_valuations) | st.sampled_from(grid)
    tails = st.sampled_from([None, (-1, (0, Fraction(1, 2))), (1, (0, 1)), (2, (1, -3)), (3, (0, 1))])
    gaps = draw(st.lists(st.tuples(valuations, st.sampled_from([-2, -1, 1, 2]), tails), min_size=1, max_size=6))
    return center, inner, outer, [TruncatedSeries.exact(HahnSeries(
        [(v, lead)] + ([] if tail is None else [(v + GroupElement(tail[1]), tail[0])]), 2)) for v, lead, tail in gaps]


class TestAnnulusMembership:
    """Membership read on the grids against the differences themselves."""

    @staticmethod
    def assert_same(center, inner, outer, gaps):
        inside = preparation._inside_annulus(center, inner, outer)
        for d in gaps:
            x = center + d
            assert inside(x) == _reference_inside_annulus(x, center, inner, outer)

    @settings(max_examples=300, deadline=None)
    @given(case=annulus_points())
    # |x - c| at the valuation of a radius of either sign: equal to it, and above or below it only in a later term
    @example(case=(s("0"), s("-1*t^(2)"), s("1"), [s("1*t^(2)"), s("-1*t^(2)"), s("2*t^(2)")]))
    @example(case=(s("1"), s("1*t^(2)"), s("-1"), [s("1*t^(0)"), s("-1*t^(0)"), s("1*t^(1)")]))
    @example(case=(s("0"), s("2*t^(2) + 1*t^(5/2)"), s("1 + 1*t^(1)"),
                   [s(gap) for gap in ("2*t^(2) + 1*t^(5/2)", "-2*t^(2) - 1*t^(5/2)", "2*t^(2) + 1*t^(3)",
                                       "-2*t^(2) - 1*t^(3)", "2*t^(2) + 2*t^(5/2)", "1 + 1*t^(1)", "-1 - 1*t^(1)",
                                       "1 + 1*t^(3/2)", "-1 - 1*t^(1/2)")]))
    def test_the_same_as_the_differences(self, case):
        self.assert_same(*case)

    @settings(max_examples=300, deadline=None)
    @given(case=rank2_annulus_points())
    # |x - c| equal to a radius, and above or below it only in its second coordinate or in a later term
    @example(case=(s("0", rank=2), s("1*t^(1,1)", rank=2), s("1*t^(0,1)", rank=2),
                   [s(gap, rank=2) for gap in ("1*t^(1,1)", "-1*t^(1,1)", "1*t^(1,1) + 1*t^(1,2)",
                                               "-1*t^(1,1) + 1*t^(1,2)", "1*t^(1,0)", "1*t^(0,1)", "-1*t^(0,1)",
                                               "1*t^(0,1) - 1*t^(0,2)", "1*t^(0,2)", "1*t^(0,0)")]))
    def test_rank_two_the_same_as_the_differences(self, case):
        self.assert_same(*case)


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

    @pytest.mark.parametrize("trials", [0, 3])
    @pytest.mark.parametrize("lam", [ge(-5), ge(Fraction(-1, 2)), GroupElement([0, -1])])
    def test_a_negative_depth_is_rejected_before_any_draw(self, lam, trials):
        # at -5 the schedules of verify_preparation and check_prepares are empty, so a draw would raise
        zero = TruncatedSeries.zero(lam.rank)
        samplers = [
            lambda: verify_preparation(lambda x, p: x, [zero], lam, trials),
            lambda: check_prepares([zero], lambda x: True, lam, trials),
            lambda: strong_unit_probe(StrongUnitSpec(), (zero, TruncatedSeries.monomial(1, GroupElement.scalar(
                2, lam.rank)), TruncatedSeries.one(lam.rank)), lam, trials),
        ]
        for sampler in samplers:
            with pytest.raises(ValueError, match="depth must be >= 0"):
                sampler()

    @pytest.mark.parametrize("trials", [0, 3])
    def test_centers_of_another_rank_are_rejected_before_any_draw(self, trials, monkeypatch):
        def no_draw(*_args):
            raise AssertionError("a trial was seeded")

        monkeypatch.setattr(rv_module, "random", SimpleNamespace(Random=no_draw))
        one, two = parse_series("1"), parse_series("1", 2)
        annulus = (TruncatedSeries.zero(2), TruncatedSeries.monomial(1, GroupElement.scalar(2, 2)),
                   TruncatedSeries.one(2))
        samplers = [
            lambda: check_prepares([two], lambda x: True, ge(0), trials),
            lambda: verify_preparation(lambda x, p: x, [two], ge(0), trials),
            lambda: jacobian_probe(lambda x, p: x, [one, two], trials),
            lambda: jacobian_probe(lambda x, p: x, [two, one], trials),
            lambda: strong_unit_probe(StrongUnitSpec(), annulus, ge(1), trials),
        ]
        for sampler in samplers:
            with pytest.raises(ValueError, match="rank mismatch"):
                sampler()

    def test_a_point_at_an_undetermined_distance_lies_in_no_annulus(self):
        center = s("1 + O(t^(1))")
        inside = preparation._inside_annulus(center, s("1*t^(2)"), s("1"))
        assert not inside(s("1 + 1*t^(3/2)"))
        assert inside(s("1 + 1*t^(1/2)"))
