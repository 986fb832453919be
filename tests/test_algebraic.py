"""Exact polynomial helpers over Q and over one real algebraic extension."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hahn_forge import algebraic
from hahn_forge.algebraic import (
    _PRIME,
    AlgebraicContext,
    _certified_coprime,
    RealAlgebraic,
    cauchy_bound,
    generic_real_root_count,
    isolate_real_roots,
    padd,
    pdeg,
    pdivmod,
    peval,
    pgcd,
    pmul,
    pneg,
    pscale,
    psub,
    rational_roots,
    squarefree_decomposition,
)


class TestRationalRoots:
    def test_linear_with_large_coefficients(self):
        # a prime-sized constant term: divisor enumeration by trial division
        # up to sqrt(n) would take about 10^8 steps
        a0, a1 = Fraction(-(10**16 + 61) * 7, 3), Fraction(10**16 + 69, 5)
        roots, rest = rational_roots([a0, a1])
        assert roots == [Fraction(-a0) / a1]
        assert rest == [a1]

    def test_linear_with_zero_root(self):
        roots, rest = rational_roots([Fraction(0), Fraction(-4), Fraction(6)])
        assert roots == [Fraction(0), Fraction(2, 3)]
        assert rest == [Fraction(6)]

    def test_linear_random(self):
        rng = random.Random("linear")
        for _ in range(200):
            a1 = Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**6), rng.randint(1, 50))
            root = Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**3))
            roots, rest = rational_roots([-root * a1, a1])
            assert roots == [root] and rest == [a1]

    def test_quadratic(self):
        # (2x - 1)(x + 3) and an irreducible factor x^2 - 2
        roots, rest = rational_roots([Fraction(-3), Fraction(5), Fraction(2)])
        assert sorted(roots) == [Fraction(-3), Fraction(1, 2)]
        roots, rest = rational_roots([Fraction(-2), Fraction(0), Fraction(1)])
        assert roots == [] and peval(rest, Fraction(1)) == -1


# ---------------------------------------------------------------------------
# differential tests against sympy (tests only; the package never imports it)

small_rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))


@st.composite
def rational_polys(draw):
    """Products of powers of small factors, so repeated and rational roots are common."""
    p = [draw(small_rationals.filter(bool))]
    for _ in range(draw(st.integers(1, 4))):
        factor = draw(st.lists(small_rationals, min_size=2, max_size=4))
        if not factor[-1]:
            factor[-1] = Fraction(1)
        for _ in range(draw(st.integers(1, 3))):
            p = pmul(p, factor)
    return p


def _sympy_poly(p):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p)], x, domain="QQ")


def _fractions(poly):
    return [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]


class TestAgainstSympy:
    @settings(max_examples=60, deadline=None)
    @given(rational_polys())
    def test_squarefree_decomposition(self, p):
        _, factors = _sympy_poly(p).sqf_list()
        expected = sorted((k, _fractions(f.monic())) for f, k in factors if f.degree() >= 1)
        assert sorted((k, f) for f, k in squarefree_decomposition(p)) == expected

    @settings(max_examples=60, deadline=None)
    @given(rational_polys())
    def test_rational_roots(self, p):
        _, factors = _sympy_poly(p).factor_list()
        expected = []
        for f, k in factors:
            if f.degree() == 1:
                c0, c1 = _fractions(f)
                expected += [-c0 / c1] * k
        roots, rest = rational_roots(p)
        assert sorted(roots) == sorted(expected)
        removed = [Fraction(1)]
        for r in roots:
            removed = pmul(removed, [-r, Fraction(1)])
        assert pmul(rest, removed) == p

    @settings(max_examples=60, deadline=None)
    @given(rational_polys())
    def test_isolate_real_roots(self, p):
        square_free = squarefree_decomposition(p)
        part = [Fraction(1)]
        for f, _ in square_free:
            part = pmul(part, f)
        poly = _sympy_poly(part)
        intervals = isolate_real_roots(part)
        assert len(intervals) == len(poly.real_roots())
        for lo, hi in intervals:
            assert lo < hi and peval(part, lo) and peval(part, hi)
            assert poly.count_roots(lo, hi) == 1
        for (_, hi), (lo, _) in zip(intervals, intervals[1:]):
            assert hi <= lo


class TestOverTheExtension:
    """The same polynomial helpers with coefficients in Q(sqrt 2)."""

    def _theta(self):
        ctx = AlgebraicContext([Fraction(-2), Fraction(0), Fraction(1)], Fraction(1), Fraction(2))
        return RealAlgebraic.generator(ctx)

    def test_squarefree_decomposition(self):
        theta = self._theta()
        x_minus, x_plus = [-theta, Fraction(1)], [theta, Fraction(1)]
        p = pmul(pmul(pmul(x_minus, x_minus), x_plus), [Fraction(3)])
        out = squarefree_decomposition(p)
        assert [k for _, k in out] == [1, 2]
        (f1, _), (f2, _) = out
        assert len(f1) == 2 and f1[0] == theta and f1[1] == 1
        assert len(f2) == 2 and f2[0] == -theta and f2[1] == 1

    def test_gcd_and_division(self):
        theta = self._theta()
        a = pmul([-theta, Fraction(1)], [Fraction(1), Fraction(0), Fraction(1)])
        b = pmul([-theta, Fraction(1)], [Fraction(5), Fraction(2)])
        g = pgcd(a, b)
        assert len(g) == 2 and g[0] == -theta and g[1] == 1
        q, r = pdivmod(a, g)
        assert r == [] and len(q) == 3 and q[0] == 1 and q[1] == 0 and q[2] == 1

    def test_real_root_count(self):
        theta = self._theta()
        # x^2 - sqrt 2 has two real roots, x^2 + sqrt 2 none
        assert generic_real_root_count([-theta, Fraction(0), Fraction(1)]) == 2
        assert generic_real_root_count([theta, Fraction(0), Fraction(1)]) == 0
        assert generic_real_root_count([theta * 3, Fraction(1)]) == 1


# Q(sqrt 2) and Q(cbrt 2): witnesses of degree 2 and 3 with isolating intervals
GENERATORS = {
    "sqrt2": ([-2, 0, 1], 1, 2),
    "cbrt2": ([-2, 0, 0, 1], 1, 2),
}

coord_lists = st.lists(st.fractions(max_denominator=12).map(lambda q: q.limit_denominator(10**6)), max_size=5)


def _is_reduced(x):
    return x.coords == x.ctx.reduce(x.coords) and all(type(c) is Fraction for c in x.coords)


class TestReducedArithmetic:
    """Sums, negations and rational multiples skip the reduction; products do not."""

    @pytest.mark.parametrize("name", list(GENERATORS))
    @given(a=coord_lists, b=coord_lists, q=st.fractions(max_denominator=9))
    def test_matches_the_reducing_constructor(self, name, a, b, q):
        ctx = AlgebraicContext(*GENERATORS[name])
        x, y = RealAlgebraic(ctx, a), RealAlgebraic(ctx, b)
        cases = [
            (x + y, padd(x.coords, y.coords)),
            (x - y, psub(x.coords, y.coords)),
            (-x, pneg(x.coords)),
            (x * q, pscale(x.coords, q)),
            (q * x, pscale(x.coords, q)),
            (x * q.numerator, pscale(x.coords, q.numerator)),
            (x + q, padd(x.coords, [q])),
            (q - x, psub([q], x.coords)),
            (x * y, pmul(x.coords, y.coords)),
        ]
        for got, raw in cases:
            assert _is_reduced(got)
            assert got.coords == RealAlgebraic(ctx, raw).coords

    @pytest.mark.parametrize("name", list(GENERATORS))
    def test_product_of_generators_is_reduced(self, name):
        ctx = AlgebraicContext(*GENERATORS[name])
        theta = RealAlgebraic.generator(ctx)
        power = theta
        for _ in range(ctx.degree()):
            power = power * theta
            assert _is_reduced(power)
        # theta^(n+1) = 2 theta for both witnesses x^n - 2
        assert power.coords == [Fraction(0), Fraction(2)]


# reducible squarefree witnesses, each with an interval that isolates one of its roots
REDUCIBLE = {
    "sqrt2 of (x^2-2)(x^2-3)": (pmul([-2, 0, 1], [-3, 0, 1]), 1, Fraction(3, 2)),
    "sqrt3 of (x^2-2)(x^2-3)": (pmul([-2, 0, 1], [-3, 0, 1]), Fraction(3, 2), 2),
    "cbrt2 of (x^2-2)(x^3-2)": (pmul([-2, 0, 1], [-2, 0, 0, 1]), 1, Fraction(13, 10)),
    "1 of (x-1)(x^2-2)": (pmul([-1, 1], [-2, 0, 1]), Fraction(1, 2), Fraction(5, 4)),
}


class TestInvariantsBehindTheDeletedBranches:
    """The facts that let ``isolate_real_roots`` and ``RealAlgebraic.inverse`` skip their retries."""

    @given(rational_polys())
    def test_the_cauchy_bound_is_never_a_root(self, p):
        assert peval(p, cauchy_bound(p)) != 0 and peval(p, -cauchy_bound(p)) != 0

    @pytest.mark.parametrize("name", list(REDUCIBLE))
    @given(coords=coord_lists)
    def test_a_nonzero_number_is_prime_to_the_witness(self, name, coords):
        ctx = AlgebraicContext(*REDUCIBLE[name])
        x = RealAlgebraic(ctx, coords)
        if x.is_zero():
            return
        assert pdeg(pgcd(x._sync(), ctx.witness)) == 0
        assert (x * x.inverse() - 1).is_zero()

    def test_inverse_on_a_factor_of_the_witness(self):
        # x^2 - 3 vanishes on the other factor only: is_zero shrinks the witness to x^2 - 2
        ctx = AlgebraicContext(*REDUCIBLE["sqrt2 of (x^2-2)(x^2-3)"])
        x = RealAlgebraic(ctx, [-3, 0, 1])
        assert x.inverse().coords == [Fraction(-1)]
        assert ctx.witness == [Fraction(-2), Fraction(0), Fraction(1)]


# ---------------------------------------------------------------------------
# the modular certificate in front of the exact gcd of a zero test

P = _PRIME
# rationals whose image modulo P is 0 or undefined, next to small ones
modular_rationals = st.one_of(
    small_rationals,
    st.builds(lambda k, d: Fraction(k * P, d), st.sampled_from([-1, 1, 2]), st.integers(1, 3)),
    st.builds(lambda k, d: Fraction(k, d * P), st.integers(-3, 3), st.integers(1, 2)),
)
modular_polys = st.lists(modular_rationals, min_size=1, max_size=4).filter(lambda p: p[-1])


class TestModularCertificate:
    @settings(max_examples=300, deadline=None)
    @given(modular_polys, modular_polys, modular_polys, st.booleans())
    def test_a_certificate_means_a_constant_gcd(self, a, w, shared, share):
        if share:
            a, w = pmul(a, shared), pmul(w, shared)
        if _certified_coprime(a, w):
            assert pdeg(pgcd(a, w)) == 0

    def test_a_nonzero_number_needs_no_exact_gcd(self, monkeypatch):
        ctx = AlgebraicContext(*REDUCIBLE["sqrt2 of (x^2-2)(x^2-3)"])
        x = RealAlgebraic(ctx, [Fraction(1, 3), 5, Fraction(-2, 7)])
        monkeypatch.setattr(algebraic, "pgcd", None)
        assert not x.is_zero()

    # g = x + 1/P and g = x + P share a root with the witness g*(x^2 - 2): modulo P the first is a
    # constant (its leading coefficient vanishes) and the second has no image (a denominator vanishes)
    @pytest.mark.parametrize("coords, root", [
        ([1, P], Fraction(-1, P)),
        ([1, Fraction(1, P)], Fraction(-P)),
    ])
    @pytest.mark.parametrize("at_the_shared_root", [True, False])
    def test_falls_back_to_the_exact_gcd(self, coords, root, at_the_shared_root):
        g = [Fraction(c) for c in coords]
        witness = pmul(g, [-2, 0, 1])
        lo, hi = (root - Fraction(1, 2 * P), root + Fraction(1, 2 * P)) if at_the_shared_root else (1, 2)
        ctx = AlgebraicContext(witness, lo, hi)
        x = RealAlgebraic(ctx, g)
        assert not _certified_coprime(x.coords, ctx.witness)
        assert x.is_zero() is at_the_shared_root
        monic = [c / g[-1] for c in g]
        assert ctx.witness == (monic if at_the_shared_root else pdivmod(witness, monic)[0])

    @pytest.mark.parametrize("coords, vanishes", [([-2, 0, 1], True), ([-3, 0, 1], False)])
    def test_a_factor_of_a_reducible_witness(self, coords, vanishes):
        ctx = AlgebraicContext(*REDUCIBLE["sqrt2 of (x^2-2)(x^2-3)"])
        x = RealAlgebraic(ctx, coords)
        assert not _certified_coprime(x.coords, ctx.witness)
        assert x.is_zero() is vanishes
        assert ctx.witness == [Fraction(-2), Fraction(0), Fraction(1)]
