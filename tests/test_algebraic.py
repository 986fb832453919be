"""Exact polynomial helpers over Q and over one real algebraic extension."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from hahn_forge import algebraic
from hahn_forge.algebraic import (
    _PRIME,
    AlgebraicContext,
    _coprime_images,
    RealAlgebraic,
    cauchy_bound,
    clear_denominators,
    generic_real_root_count,
    interval_eval,
    isolate_real_roots,
    padd,
    pdeg,
    pdivmod,
    pgcd,
    pmul,
    pneg,
    pscale,
    psub,
    rational_roots,
    squarefree_decomposition,
)
from hahn_forge.errors import UndecidedSign


def _horner(a, x):
    """a(x) by Fraction Horner: the reference for the int sign and interval kernels."""
    out = Fraction(0)
    for c in reversed(a):
        out = out * x + c
    return out


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
        assert roots == [] and _horner(rest, Fraction(1)) == -1


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
            assert lo < hi and _horner(part, lo) and _horner(part, hi)
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
        assert _horner(p, cauchy_bound(p)) != 0 and _horner(p, -cauchy_bound(p)) != 0

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


def _image(p):
    """The image modulo P of the int numerators of a rational polynomial over one denominator."""
    return [c % P for c in algebraic._over_one_denominator(p)[0]]


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
        if _coprime_images(_image(a), _image(w)):
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
        assert not _coprime_images(_image(x.coords), ctx.image)
        assert x.is_zero() is at_the_shared_root
        monic = [c / g[-1] for c in g]
        assert ctx.witness == (monic if at_the_shared_root else pdivmod(witness, monic)[0])

    @pytest.mark.parametrize("coords, vanishes", [([-2, 0, 1], True), ([-3, 0, 1], False)])
    def test_a_factor_of_a_reducible_witness(self, coords, vanishes):
        ctx = AlgebraicContext(*REDUCIBLE["sqrt2 of (x^2-2)(x^2-3)"])
        x = RealAlgebraic(ctx, coords)
        assert not _coprime_images(_image(x.coords), ctx.image)
        assert x.is_zero() is vanishes
        assert ctx.witness == [Fraction(-2), Fraction(0), Fraction(1)]


# ---------------------------------------------------------------------------
# the int kernels of the extension against Fraction arithmetic written here

int_or_fraction = st.one_of(st.integers(-30, 30), st.fractions(-30, 30, max_denominator=40))
endpoints = st.one_of(st.integers(-20, 20).map(Fraction), st.fractions(-20, 20, max_denominator=64))


def _fraction_interval_horner(a, lo, hi):
    alo = ahi = Fraction(0)
    for c in reversed(a):
        products = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        alo, ahi = min(products) + c, max(products) + c
    return alo, ahi


def _fraction_bisection(w, lo, hi, steps):
    """The (lo, hi) after each bisection step, read by Fraction Horner; "root" where a midpoint is one."""
    out = []
    for _ in range(steps):
        mid = (lo + hi) / 2
        at_mid = _horner(w, mid)
        if not at_mid:
            return out + ["root"]
        if _horner(w, lo) * at_mid < 0:
            hi = mid
        else:
            lo = mid
        out.append((lo, hi))
    return out


def _exact_zero_test(coords, witness, lo, hi):
    """(is zero, witness after) by the exact gcd over Q alone, as the zero test did before its certificate."""
    p = pdivmod(coords, witness)[1]
    if pdeg(p) < 1:
        return not p, witness
    g = pgcd(p, witness)
    if pdeg(g) < 1:
        return False, witness
    if _horner(g, lo) * _horner(g, hi) < 0:
        return True, g
    return False, pdivmod(witness, g)[0]


# non-monic witnesses: lead 2, 3 or 4 over small int or Fraction coefficients; 1/7919 and 7919/2 are no roots
non_monic_witnesses = st.builds(lambda tail, lead: tail + [lead],
                                st.lists(st.integers(-9, 9), min_size=1, max_size=4), st.sampled_from([2, 3, 4]))


class TestIntKernels:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(int_or_fraction, max_size=7), endpoints, endpoints)
    def test_interval_eval_matches_a_fraction_horner(self, a, x, y):
        lo, hi = min(x, y), max(x, y)
        got = interval_eval(a, lo, hi)
        assert got == _fraction_interval_horner(a, lo, hi)
        assert all(type(v) is Fraction for v in got)

    @pytest.mark.parametrize("a, lo, hi", [
        ([1, -2, 3], Fraction(-1, 3), Fraction(1, 2)),
        ([Fraction(1, 3), 0, Fraction(-5, 7), 2], Fraction(-3), Fraction(5, 4)),
        ([7], Fraction(-1), Fraction(1)),
        ([], Fraction(-1), Fraction(1)),
    ])
    def test_interval_eval_across_zero(self, a, lo, hi):
        assert interval_eval(a, lo, hi) == _fraction_interval_horner(a, lo, hi)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(int_or_fraction, min_size=1, max_size=5).filter(lambda w: w[-1]), endpoints, endpoints,
           st.integers(1, 30))
    def test_refine_matches_a_fraction_bisection(self, w, x, y, steps):
        lo, hi = min(x, y), max(x, y)
        assume(lo < hi and _horner(w, lo) and _horner(w, hi))
        ctx = AlgebraicContext(w, lo, hi)
        got = []
        for _ in range(steps):
            try:
                ctx.refine()
            except ValueError:
                got.append("root")
                break
            got.append((ctx.lo, ctx.hi))
        assert got == _fraction_bisection([Fraction(c) for c in w], lo, hi, steps)

    @settings(max_examples=300, deadline=None)
    @given(non_monic_witnesses, st.lists(int_or_fraction, max_size=9),
           st.one_of(st.none(), st.lists(int_or_fraction, min_size=2, max_size=4).filter(lambda f: f[-1])))
    def test_reduction_matches_fraction_division(self, witness, coords, factor):
        ctx = AlgebraicContext(witness, Fraction(1, 7919), Fraction(7919, 2))
        if factor is not None:
            ctx.shrink(factor)
        divisor = [Fraction(c) for c in (witness if factor is None else factor)]
        expected = pdivmod([Fraction(c) for c in coords], divisor)[1]
        got = ctx.reduce(coords)
        assert got == expected and all(type(c) is Fraction for c in got)
        assert RealAlgebraic(ctx, coords).coords == expected

    @settings(max_examples=300, deadline=None)
    @given(non_monic_witnesses, st.lists(st.integers(-50, 50), max_size=9))
    def test_pseudo_remainder(self, witness, a):
        # s*a = r modulo the witness, deg r below it, r trimmed and s a power of the witness's lead
        ctx = AlgebraicContext(witness, Fraction(1, 7919), Fraction(7919, 2))
        r, s = ctx.pseudo_remainder(a)
        assert s in [ctx.ints[-1] ** k for k in range(len(a) + 1)]
        assert len(r) < len(witness) and (not r or r[-1])
        assert not pdivmod([Fraction(c) for c in psub(pscale(a, s), r)], [Fraction(c) for c in witness])[1]

    @pytest.mark.parametrize("name", list(REDUCIBLE))
    @settings(max_examples=60, deadline=None)
    @given(coords=st.lists(modular_rationals, max_size=5), factor=st.sampled_from([[1], [-2, 0, 1], [-3, 0, 1]]))
    def test_zero_tests_match_the_exact_gcd(self, name, coords, factor):
        witness, lo, hi = REDUCIBLE[name]
        coords = pmul(coords, factor)
        ctx = AlgebraicContext(witness, lo, hi)
        assert (RealAlgebraic(ctx, coords).is_zero(), ctx.witness) == _exact_zero_test(
            [Fraction(c) for c in coords], [Fraction(c) for c in witness], Fraction(lo), Fraction(hi))

    @pytest.mark.parametrize("vanishes", [True, False])
    def test_a_denominator_that_is_a_multiple_of_p_falls_back_to_the_exact_gcd(self, vanishes, monkeypatch):
        # (x^2 - 3)/P over D = P: the int remainder shares the factor x^2 - 3 with the witness, so the
        # certificate fails and the exact gcd decides, with the shrink that the exact gcd alone makes
        name = "sqrt3 of (x^2-2)(x^2-3)" if vanishes else "sqrt2 of (x^2-2)(x^2-3)"
        witness, lo, hi = REDUCIBLE[name]
        ctx = AlgebraicContext(witness, lo, hi)
        coords = [Fraction(-3, P), 0, Fraction(1, P)]
        calls = []
        monkeypatch.setattr(algebraic, "pgcd", lambda a, b: calls.append(1) or pgcd(a, b))
        ints, den = [-3, 0, 1], P
        r, s = ctx.pseudo_remainder(ints)
        assert not _coprime_images(_image(r), ctx.image)
        assert ctx.vanishes(r) is vanishes and calls == [1]
        expected = _exact_zero_test(coords, [Fraction(c) for c in witness], Fraction(lo), Fraction(hi))
        assert (vanishes, ctx.witness) == expected
        assert den * s % P == 0

    def test_a_denominator_that_is_a_multiple_of_p_needs_no_inverse(self, monkeypatch):
        # the certificate reads the image of the int numerators, so a denominator P does not stop it
        ctx = AlgebraicContext(*REDUCIBLE["sqrt2 of (x^2-2)(x^2-3)"])
        monkeypatch.setattr(algebraic, "pgcd", None)
        assert not RealAlgebraic(ctx, [Fraction(1, P), Fraction(5, 3 * P), Fraction(2, 7 * P)]).is_zero()

    @pytest.mark.parametrize("name", list(REDUCIBLE))
    @given(coords=st.lists(small_rationals, max_size=5))
    def test_the_cached_witness_follows_every_shrink(self, name, coords):
        ctx = AlgebraicContext(*REDUCIBLE[name])
        for k in range(3):
            RealAlgebraic(ctx, pmul(coords, [-2 - k, 0, 1])).is_zero()
            assert ctx.ints == clear_denominators(ctx.witness) and ctx.ints[-1] > 0
            assert ctx.image == [c % P for c in ctx.ints]
            assert pdivmod(ctx.witness, [Fraction(c) for c in ctx.ints])[1] == []


# ---------------------------------------------------------------------------
# documented errors, fallbacks and degenerate inputs


class TestDocumentedErrors:
    def _ctx(self):
        return AlgebraicContext([Fraction(-2), Fraction(0), Fraction(1)], Fraction(1), Fraction(2))

    def test_division_by_the_zero_polynomial(self):
        with pytest.raises(ZeroDivisionError):
            pdivmod([Fraction(1)], [])

    def test_trailing_zeros_of_the_dividend(self):
        assert pdivmod([Fraction(1), Fraction(2), 0, 0], [Fraction(1), Fraction(1)]) == ([Fraction(2)], [Fraction(-1)])
        assert pdivmod([Fraction(3), 0], [Fraction(1), Fraction(1)]) == ([], [Fraction(3)])

    def test_constants_have_no_factors_and_no_roots(self):
        theta = RealAlgebraic.generator(self._ctx())
        assert squarefree_decomposition([Fraction(3)]) == []
        assert isolate_real_roots([Fraction(5)]) == []
        assert generic_real_root_count([theta]) == 0

    def test_an_endpoint_that_is_a_root(self):
        with pytest.raises(ValueError, match="endpoints must not be roots"):
            AlgebraicContext([Fraction(-1), Fraction(0), Fraction(1)], Fraction(1), Fraction(2))

    def test_a_rational_root_at_a_midpoint(self):
        # x^3 - 2x isolates its root 0 by (-1, 1), whose midpoint is that root
        ctx = AlgebraicContext([0, -2, 0, 1], -1, 1)
        with pytest.raises(ValueError, match="became rational"):
            ctx.refine()

    def test_mixing_generators(self):
        with pytest.raises(ValueError, match="different contexts"):
            RealAlgebraic.generator(self._ctx()) + RealAlgebraic.generator(self._ctx())

    def test_operands_that_are_not_numbers(self):
        theta = RealAlgebraic.generator(self._ctx())
        for op in (lambda: theta + "1", lambda: "1" + theta, lambda: theta - "1", lambda: theta * "1"):
            with pytest.raises(TypeError):
                op()
        assert theta != "1"
        with pytest.raises(TypeError, match="unhashable"):
            hash(theta)

    def test_zero(self):
        zero = RealAlgebraic(self._ctx(), [-2, 0, 1])
        assert zero.coords == [] and zero.sign() == 0
        assert algebraic.as_fraction_or_none(zero) == 0
        with pytest.raises(ZeroDivisionError, match="vanishing"):
            1 / zero

    def test_rational_values(self):
        ctx = self._ctx()
        assert algebraic.as_fraction_or_none(RealAlgebraic(ctx, [Fraction(3, 2)])) == Fraction(3, 2)
        assert algebraic.as_fraction_or_none(RealAlgebraic.generator(ctx)) is None

    def test_sign_refines_the_interval(self):
        ctx = self._ctx()
        assert RealAlgebraic(ctx, [Fraction(-7, 5), 1]).sign() == 1
        assert ctx.hi - ctx.lo < 1
        assert repr(RealAlgebraic.generator(ctx)) == f"RealAlgebraic(~[{ctx.lo}, {ctx.hi}])"

    def test_sign_and_enclosure_at_the_refinement_limit(self):
        # theta - q with |sqrt 2 - q| < 2^-300 needs about 300 bisections, more than the 160 allowed
        q = Fraction(math.isqrt(2 * 4**300), 2**300)
        with pytest.raises(UndecidedSign):
            RealAlgebraic(self._ctx(), [-q, 1]).sign()
        # 2^200 theta is known to 2^200 times the width of (lo, hi) after 160 bisections
        lo, hi = RealAlgebraic(self._ctx(), [0, 2**200]).enclosure()
        assert hi - lo >= Fraction(1, 2**24) and 0 < lo and lo**2 < 2 * 4**200 < hi**2
