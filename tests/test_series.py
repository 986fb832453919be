"""Field, order, and valuation behaviour of the series core."""

import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from hahn_forge.errors import (
    InsufficientPrecision,
    IrrationalLeadingCoefficient,
    NotInValuationRing,
    NotPositive,
    PrecisionStall,
    TermSyntaxError,
    UndecidableAtPrecision,
    ZeroOrUncertainLeadingTerm,
)
from hahn_forge.series import (
    INFINITE,
    NEGATIVE,
    POSITIVE,
    ZERO,
    GroupElement,
    _first_difference,
    _integer_nth_root,
    _key_of,
    HahnSeries,
    TruncatedSeries,
    compare_sign,
    field_op,
    format_series,
    invert,
    nth_root,
    parse_series,
    poly_eval,
    power,
    standard_part,
    valuation,
)


def q(x):
    return Fraction(x)


def ge(x):
    return GroupElement.scalar(Fraction(x))


def s(text):
    return parse_series(text)


def random_exact(rng, max_terms=4):
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        e = Fraction(rng.randint(-4, 8), rng.choice([1, 2, 4]))
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        terms.append((ge(e), c))
    return TruncatedSeries.exact(HahnSeries(terms))


class TestFieldOps:
    def test_add_cancellation(self):
        a = s("1*t^(-1) + 2")
        b = s("-1*t^(-1) + 1*t^(1)")
        assert format_series(a + b) == "2 + 1*t^(1)"

    def test_mul_polynomials(self):
        assert format_series(s("1 + 1*t^(1)") * s("1 - 1*t^(1)")) == "1 - 1*t^(2)"

    def test_mul_precision_shift(self):
        a = parse_series("1 + O(t^(3))")
        b = s("1*t^(2)")
        assert format_series(a * b) == "1*t^(2) + O(t^(5))"

    def test_add_precision_is_min(self):
        a = parse_series("1 + O(t^(2))")
        b = parse_series("1*t^(1) + O(t^(4))")
        out = field_op("add", a, b)
        assert out.prec == ge(2)

    def test_sub(self):
        assert (s("2 + 1*t^(1)") - s("2")).approx == s("1*t^(1)").approx


class TestInvert:
    def test_geometric(self):
        out = invert(s("1 - 1*t^(1)"), ge(3))
        assert format_series(out) == "1 + 1*t^(1) + 1*t^(2) + O(t^(3))"

    def test_monomial_exact(self):
        out = invert(s("1*t^(1)"), ge(3))
        assert out.is_exact()
        assert format_series(out) == "1*t^(-1)"

    def test_two_plus_t(self):
        # oracle: multiply back, residual valuation must reach the target
        out = invert(s("2 + 1*t^(1)"), ge(2))
        assert format_series(out) == "1/2 - 1/4*t^(1) + O(t^(2))"
        residual = s("2 + 1*t^(1)") * out - s("1")
        assert residual.approx.is_zero() and residual.prec >= ge(2)

    def test_zero_rejected(self):
        with pytest.raises(ZeroOrUncertainLeadingTerm):
            invert(TruncatedSeries.zero(), ge(2))
        with pytest.raises(ZeroOrUncertainLeadingTerm):
            invert(parse_series("0 + O(t^(5))"), ge(2))

    def test_rank_two_zero_first_coordinate(self):
        # the unit part's gap (0,1) shares the target's leading coordinate
        out = invert(parse_series("1 + 1*t^(0,1)", rank=2), GroupElement([0, 6]))
        assert format_series(out) == (
            "1 - 1*t^(0,1) + 1*t^(0,2) - 1*t^(0,3) + 1*t^(0,4) - 1*t^(0,5) + O(t^(0,6))"
        )

    def test_infinite_target_needs_a_unit_part_of_one(self):
        assert nth_root(s("4*t^(2)"), 2, INFINITE) == s("2*t^(1)")
        with pytest.raises(ValueError, match="finite target precision"):
            nth_root(s("1 + 1*t^(1)"), 2, INFINITE)
        a = parse_series("4*t^(2,-2)", rank=2)
        assert nth_root(a, 2, INFINITE) == parse_series("2*t^(1,-1)", rank=2)
        with pytest.raises(ValueError, match="finite target precision"):
            nth_root(parse_series("1 + 1*t^(0,1)", rank=2), 1, INFINITE)

    def test_rank_two_unreachable_target(self):
        # 2^k * (0,1) < (1,0) for every k: no finite schedule reaches the target
        with pytest.raises(PrecisionStall):
            invert(parse_series("1 + 1*t^(0,1)", rank=2), GroupElement([1, 0]))

    def test_negative_valuation_contract(self):
        a = s("1*t^(-2) + 1*t^(-1)")
        out = invert(a, ge(3))
        residual = a * out - s("1")
        # v(a x - 1) >= target - 2 v(a)
        assert residual.approx.is_zero() or residual.approx.valuation() >= ge(3) - ge(-2) - ge(-2)


class TestSignValuationStandardPart:
    def test_sign_infinitesimal(self):
        assert compare_sign(s("1/1000000 - 1*t^(1)")) == POSITIVE

    def test_sign_leading(self):
        assert compare_sign(s("-3*t^(1/2) + 1*t^(1)")) == NEGATIVE

    def test_sign_undecidable(self):
        with pytest.raises(UndecidableAtPrecision):
            compare_sign(parse_series("0 + O(t^(5))"))
        assert compare_sign(TruncatedSeries.zero()) == ZERO

    def test_valuation(self):
        assert valuation(s("3*t^(1/2) + 1*t^(1)")) == ge("1/2")
        assert valuation(TruncatedSeries.zero()) is INFINITE
        assert valuation(s("1*t^(-2) + 5")) == ge(-2)

    def test_standard_part(self):
        assert standard_part(s("2 + 1*t^(1)")) == 2
        assert standard_part(s("1*t^(1/3)")) == 0
        with pytest.raises(NotInValuationRing):
            standard_part(s("1*t^(-1)"))


class TestNthRoot:
    def test_monomial(self):
        out = nth_root(s("1*t^(1)"), 2, ge(3))
        assert out.is_exact()
        assert format_series(out) == "1*t^(1/2)"

    def test_one_plus_t(self):
        # oracle: square the output and check the residual valuation
        out = nth_root(s("1 + 1*t^(1)"), 2, ge(3))
        assert out.approx.coefficient(ge(0)) == 1
        assert out.approx.coefficient(ge(1)) == Fraction(1, 2)
        assert out.approx.coefficient(ge(2)) == Fraction(-1, 8)
        residual = out * out - s("1 + 1*t^(1)")
        assert residual.approx.is_zero() or residual.approx.valuation() >= ge(3)

    def test_scaled_monomial(self):
        out = nth_root(s("4*t^(2)"), 2, ge(5))
        assert out.is_exact()
        assert format_series(out) == "2*t^(1)"

    def test_negative_rejected(self):
        with pytest.raises(NotPositive):
            nth_root(s("-1*t^(2)"), 2, ge(3))

    def test_idempotence_exact(self):
        rng = random.Random("nth-root")
        found = 0
        while found < 20:
            a = random_exact(rng, 3)
            try:
                if compare_sign(a) != POSITIVE:
                    continue
            except UndecidableAtPrecision:
                continue
            n = rng.choice([2, 3])
            cube = a
            for _ in range(n - 1):
                cube = cube * a
            root = nth_root(cube, n, ge(24))
            assert root.is_exact() and root.approx == a.approx
            found += 1


class TestInvariants:
    @given(
        st.lists(
            st.tuples(st.integers(-4, 8), st.integers(-9, 9)),
            max_size=4,
        ),
        st.lists(
            st.tuples(st.integers(-4, 8), st.integers(-9, 9)),
            max_size=4,
        ),
    )
    def test_mul_commutes_and_valuation_adds(self, ta, tb):
        a = TruncatedSeries.exact(HahnSeries([(ge(Fraction(e, 2)), Fraction(c)) for e, c in ta]))
        b = TruncatedSeries.exact(HahnSeries([(ge(Fraction(e, 2)), Fraction(c)) for e, c in tb]))
        assert (a * b).approx == (b * a).approx
        va, vb, vab = (
            a.approx.valuation(),
            b.approx.valuation(),
            (a * b).approx.valuation(),
        )
        if va is INFINITE or vb is INFINITE:
            assert vab is INFINITE
        else:
            assert vab == va + vb

    def test_field_axioms_random(self):
        rng = random.Random("axioms")
        one = TruncatedSeries.one()
        for _ in range(60):
            a, b, c = (random_exact(rng) for _ in range(3))
            assert ((a + b) + c).approx == (a + (b + c)).approx
            assert ((a * b) * c).approx == (a * (b * c)).approx
            assert (a * (b + c)).approx == (a * b + a * c).approx
            if a.approx.terms:
                target = ge(12)
                res = a * invert(a, target) - one
                assert res.approx.is_zero() or res.approx.valuation() >= target - a.approx.valuation() - a.approx.valuation()

    def test_order_compatibility(self):
        rng = random.Random("order")
        checked = 0
        while checked < 60:
            a, b = random_exact(rng), random_exact(rng)
            try:
                sa, sb = compare_sign(a), compare_sign(b)
            except UndecidableAtPrecision:
                continue
            if sa == POSITIVE and sb == POSITIVE:
                assert compare_sign(a + b) == POSITIVE
                assert compare_sign(a * b) == POSITIVE
            assert compare_sign(a * a) != NEGATIVE
            checked += 1

    def test_valuation_ultrametric(self):
        rng = random.Random("ultrametric")
        for _ in range(80):
            a, b = random_exact(rng), random_exact(rng)
            va, vb = a.approx.valuation(), b.approx.valuation()
            vs = (a + b).approx.valuation()
            if va is INFINITE and vb is INFINITE:
                assert vs is INFINITE
                continue
            assert vs >= min(va, vb)
            if va != vb:
                assert vs == min(va, vb)

    def test_convexity(self):
        # 0 < a < b and v(b) >= 0 forces v(a) >= 0
        rng = random.Random("convex")
        zero = GroupElement.zero()
        checked = 0
        while checked < 60:
            a, b = random_exact(rng), random_exact(rng)
            try:
                if compare_sign(a) != POSITIVE or compare_sign(b - a) != POSITIVE:
                    continue
            except UndecidableAtPrecision:
                continue
            if b.approx.valuation() >= zero:
                assert a.approx.valuation() >= zero
            checked += 1


class TestTextFormat:
    CASES = [
        "0",
        "3/2*t^(-1/2) + 1 - 5*t^(2)",
        "1 + 1*t^(1) + 1/2*t^(2) + 1/6*t^(3) + O(t^(4))",
        "-2*t^(-3) + 1*t^(1)",
        "0 + O(t^(2))",
        "7",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_round_trip(self, text):
        assert format_series(parse_series(text)) == text

    def test_parse_bare_monomial(self):
        assert format_series(parse_series("t^(1/2)")) == "1*t^(1/2)"

    def test_rank_two(self):
        ts = parse_series("2*t^(1,-1/2) + t^(2,0)", rank=2)
        assert format_series(ts) == "2*t^(1,-1/2) + 1*t^(2,0)"

    def test_random_round_trip(self):
        rng = random.Random("roundtrip")
        for _ in range(50):
            a = random_exact(rng)
            assert parse_series(format_series(a)) == a

    # accepted spellings, README examples and golden argv, with their canonical form
    ACCEPTED = [
        ("3/ 2*t^(1)", 1, "3/2*t^(1)"),
        ("3 /2", 1, "3/2"),
        ("t^( 1 / 2 )", 1, "1*t^(1/2)"),
        ("1+O(t^(2))", 1, "1 + O(t^(2))"),
        ("-0", 1, "0"),
        ("0 + O(t^(3))", 1, "0 + O(t^(3))"),
        ("3/2*t^(-1/2) + 1 - 5*t^(2)", 1, "3/2*t^(-1/2) + 1 - 5*t^(2)"),
        ("3*t^(2) + 5*t^(3) + 7*t^(4)", 1, "3*t^(2) + 5*t^(3) + 7*t^(4)"),
        ("1 - 1*t^(1)", 1, "1 - 1*t^(1)"),
        ("-1*t^(1)", 1, "-1*t^(1)"),
        ("t^(2)", 1, "1*t^(2)"),
        ("t^(1/2) + 2*t^(1/3)", 1, "2*t^(1/3) + 1*t^(1/2)"),
        ("t^(1/2) - 3*t^(1/3)", 1, "-3*t^(1/3) + 1*t^(1/2)"),
        ("t^(1/2) + t^(2/3)", 1, "1*t^(1/2) + 1*t^(2/3)"),
        ("1*t^(1) + O(t^(2))", 1, "1*t^(1) + O(t^(2))"),
        ("t^(1/2,1) + 2*t^(1,-1)", 2, "1*t^(1/2,1) + 2*t^(1,-1)"),
        ("t^(1/2,1) - 3*t^(1,-1)", 2, "1*t^(1/2,1) - 3*t^(1,-1)"),
        ("t^(1/2) - 3/5*t^(1/3)", 1, "-3/5*t^(1/3) + 1*t^(1/2)"),
        ("2*t^(1)-3*t^(3/2)+t^(2)+5*t^(3)", 1, "2*t^(1) - 3*t^(3/2) + 1*t^(2) + 5*t^(3)"),
        ("t^(1/7) + t^(1/5)", 1, "1*t^(1/7) + 1*t^(1/5)"),
    ]

    @pytest.mark.parametrize("text, rank, canonical", ACCEPTED)
    def test_accepted_corpus(self, text, rank, canonical):
        a = parse_series(text, rank)
        assert format_series(a) == canonical
        assert parse_series(canonical, rank) == a

    @pytest.mark.parametrize("text", ["3/-2", "1 + O(t^(2)) + 3", "O(t^(2))", "1 + t ^(1)"])
    def test_rejected_corpus(self, text):
        with pytest.raises(TermSyntaxError):
            parse_series(text)

    @pytest.mark.parametrize("text", ["1 + O(t^(1.5))", "1 + O(t^(1e1))", "+ O(t^(2))", "", "1 +"])
    def test_precision_follows_the_exponent_grammar(self, text):
        # the O(...) exponent is read like every other one, after a term
        with pytest.raises(TermSyntaxError):
            parse_series(text)

    def test_newlines_are_whitespace(self):
        assert parse_series("1\n- 2*t^(1)\n+ O(t^(2))") == parse_series("1 - 2*t^(1) + O(t^(2))")
        with pytest.raises(TermSyntaxError) as err:
            parse_series("1 +\n2*t^(1.5)")
        assert (err.value.line, err.value.col) == (2, 7)


class TestNegativeValuationRoots:
    def test_nth_root_negative_valuation(self):
        a = s("1*t^(-2) + 1*t^(-1)")  # t^-2 (1 + t)
        out = nth_root(a, 2, ge(3))
        residual = out * out - a
        assert residual.approx.is_zero() or residual.approx.valuation() >= ge(3)
        assert out.approx.valuation() == ge(-1)

    def test_invert_requires_enough_input_precision(self):
        from hahn_forge.errors import InsufficientPrecision

        blurry = parse_series("1 + 1*t^(1) + O(t^(2))")
        with pytest.raises(InsufficientPrecision):
            invert(blurry, ge(5))


GRIDS = [1, 2, 3, 6]


@st.composite
def grid_series(draw, nonzero=False):
    """Exact series on the exponent grid (1/d)Z for a drawn d in GRIDS."""
    grid = draw(st.sampled_from(GRIDS))
    if nonzero:
        # a nonzero leading term below every other exponent
        lead = draw(st.integers(-3, 3))
        terms = [(lead, draw(st.integers(1, 9)) * draw(st.sampled_from([1, -1])))]
        terms += [(lead + k, c) for k, c in draw(st.lists(st.tuples(st.integers(1, 8), st.integers(-9, 9)), max_size=4))]
    else:
        terms = draw(st.lists(st.tuples(st.integers(-3, 9), st.integers(-9, 9)), max_size=5))
    return HahnSeries([(ge(Fraction(k, grid)), Fraction(c)) for k, c in terms])


@st.composite
def grid_bound(draw):
    return ge(Fraction(draw(st.integers(-6, 18)), draw(st.sampled_from(GRIDS))))


@st.composite
def rank2_series(draw):
    terms = draw(
        st.lists(st.tuples(st.integers(-2, 4), st.integers(-2, 4), st.integers(-5, 5)), max_size=5)
    )
    return HahnSeries([(GroupElement([Fraction(i, 2), Fraction(j, 2)]), Fraction(c)) for i, j, c in terms], rank=2)


# coefficient denominators of the rational strategies: small ones, and two
# large primes that a factor's common denominator must carry side by side
DENOMINATORS = [1, 2, 3, 7, 12, 10**9 + 7, 2**61 - 1]
LARGE_PRIMES = [10**9 + 7, 2**61 - 1]


@st.composite
def rational_coeffs(draw, n):
    """n nonzero rationals with numerators up to 10^40.

    On about half the draws the denominators cycle through the large primes,
    from a drawn start, so every factor of two or more terms carries both.
    """
    nums = draw(st.lists(st.integers(-(10**40), 10**40).filter(bool), min_size=n, max_size=n))
    if draw(st.booleans()):
        start = draw(st.integers(0, 1))
        dens = [LARGE_PRIMES[(start + i) % 2] for i in range(n)]
    else:
        dens = draw(st.lists(st.sampled_from(DENOMINATORS), min_size=n, max_size=n))
    return [Fraction(k, d) for k, d in zip(nums, dens)]


@st.composite
def rational_grid_series(draw, min_terms=0, max_terms=5):
    """Rational-coefficient series on the exponent grid (1/d)Z, d in GRIDS."""
    grid = draw(st.sampled_from(GRIDS))
    exps = draw(st.lists(st.integers(-3, 9), min_size=min_terms, max_size=max_terms, unique=True))
    coeffs = draw(rational_coeffs(len(exps)))
    return HahnSeries([(ge(Fraction(k, grid)), c) for k, c in zip(exps, coeffs)])


@st.composite
def rational_rank2_series(draw, min_terms=0, max_terms=5):
    exps = draw(
        st.lists(st.tuples(st.integers(-2, 4), st.integers(-2, 4)), min_size=min_terms, max_size=max_terms, unique=True)
    )
    coeffs = draw(rational_coeffs(len(exps)))
    return HahnSeries(
        [(GroupElement([Fraction(i, 2), Fraction(j, 2)]), c) for (i, j), c in zip(exps, coeffs)], rank=2
    )


@st.composite
def rank2_bound(draw):
    return GroupElement([Fraction(draw(st.integers(-4, 8)), 2), Fraction(draw(st.integers(-4, 8)), 2)])


def _oracle_product(a, b, bound=INFINITE):
    """Product by a dict of Fraction pair products, truncated at ``bound`` (test oracle)."""
    acc = {}
    for ea, ca in a.terms:
        for eb, cb in b.terms:
            e = tuple(x + y for x, y in zip(ea, eb))
            acc[e] = acc.get(e, Fraction(0)) + ca * cb
    return sorted((e, c) for e, c in acc.items() if c and (bound is INFINITE or e < tuple(bound)))


def _check_against_oracle(a, b, bound):
    # the drawn bound, no bound, and every exponent of the product as a bound
    for p in [bound, INFINITE] + [GroupElement(e) for e, _ in _oracle_product(a, b)]:
        for x, y in ((a, b), (b, a)):
            got = x._times(y, _key_of(p))
            assert [(tuple(e), c) for e, c in got.terms] == _oracle_product(a, b, p)
            assert all(type(e) is GroupElement and type(c) is Fraction for e, c in got.terms)


def _geometric_inverse(a, target):
    """Truncated inverse by the geometric series of the unit part (test oracle)."""
    g, c = a.approx.valuation(), a.approx.leading_coeff()
    if len(a.approx.terms) == 1 and a.is_exact():
        return TruncatedSeries.monomial(1 / c, -g)
    rel = target - g - g
    unit = a.approx.shift(-g).scale(1 / c)
    neg_u = HahnSeries.constant(1, a.rank) - unit
    acc = power = HahnSeries.constant(1, a.rank)
    while True:
        power = (power * neg_u).truncate_below(rel)
        if power.is_zero():
            break
        acc = acc + power
    return TruncatedSeries(acc.shift(-g).scale(1 / c), rel - g)


def _int_power(x, n):
    out = x
    for _ in range(n - 1):
        out = out * x
    return out


def _positive(approx):
    b = TruncatedSeries.exact(approx)
    return b if compare_sign(b) == POSITIVE else -b


def _check_bounded_mul(a, b, bound):
    full = a * b
    # the drawn bound, and every exponent of the product as a bound
    for p in [bound] + [e for e, _ in full.terms]:
        assert a._times(b, _key_of(p)) == full.truncate_below(p)


@st.composite
def mixed_denominator_series(draw, rank):
    """Up to six terms whose exponent coordinates have denominators 1, 2, 3 or 6, so that factors meet over
    a common denominator."""
    exps = draw(st.lists(st.tuples(*[st.builds(Fraction, st.integers(-6, 9), st.sampled_from([1, 2, 3, 6]))
                                     for _ in range(rank)]), max_size=6, unique=True))
    coeffs = draw(st.lists(st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 4)),
                           min_size=len(exps), max_size=len(exps)))
    return HahnSeries([(GroupElement(e), c) for e, c in zip(exps, coeffs)], rank)


@st.composite
def off_grid_bound(draw, rank):
    """A bound whose coordinates have denominators the factors do not share, so the cut is rounded after
    its first coordinate that is not an int on the keys."""
    return GroupElement([Fraction(draw(st.integers(-12, 18)), draw(st.sampled_from([1, 2, 5, 7])))
                         for _ in range(rank)])


class TestRankDProducts:
    """Products in ranks 2 and 3 whose factors meet over a common denominator, bounded off the keys' grid
    and unbounded, against the Fraction-dict product, with ``GroupElement`` keys that add as exponents in a
    further product."""

    @settings(max_examples=300)
    @given(st.integers(2, 3).flatmap(lambda rank: st.tuples(
        mixed_denominator_series(rank), mixed_denominator_series(rank), off_grid_bound(rank))))
    def test_products_match_the_fraction_dict_product(self, case):
        a, b, bound = case
        for p in (bound, INFINITE):
            got = a._times(b, _key_of(p))
            assert [(tuple(e), c) for e, c in got.terms] == _oracle_product(a, b, p)
            assert all(type(k) is GroupElement for k in got._grid[1])
        series = lambda terms: HahnSeries([(GroupElement(e), c) for e, c in terms], a.rank)  # noqa: E731
        assert (a * b) * a == series(_oracle_product(series(_oracle_product(a, b)), a))


class TestPrecisionBoundedProducts:
    @given(grid_series(), grid_series(), grid_bound())
    def test_bounded_mul_rank_one(self, a, b, bound):
        _check_bounded_mul(a, b, bound)

    @given(rank2_series(), rank2_series(), st.integers(-4, 8), st.integers(-4, 8))
    def test_bounded_mul_rank_two(self, a, b, i, j):
        _check_bounded_mul(a, b, GroupElement([Fraction(i, 2), Fraction(j, 2)]))

    @given(rational_grid_series(), rational_grid_series(), grid_bound())
    def test_rational_mul_rank_one_matches_oracle(self, a, b, bound):
        _check_against_oracle(a, b, bound)

    @given(rational_rank2_series(), rational_rank2_series(), rank2_bound())
    def test_rational_mul_rank_two_matches_oracle(self, a, b, bound):
        _check_against_oracle(a, b, bound)

    @given(rational_grid_series(min_terms=1, max_terms=1), rational_grid_series(), grid_bound())
    def test_rational_mul_single_term_rank_one(self, a, b, bound):
        _check_against_oracle(a, b, bound)

    @given(rational_rank2_series(min_terms=1, max_terms=1), rational_rank2_series(), rank2_bound())
    def test_rational_mul_single_term_rank_two(self, a, b, bound):
        _check_against_oracle(a, b, bound)

    def test_cancelled_exponent_is_absent(self):
        # (c1 + c2 t^(1/3))(c1 - c2 t^(1/3)) = c1^2 - c2^2 t^(2/3): at t^(1/3)
        # the pair sums c1(-c2) + c2 c1 vanish, over a denominator of two large primes
        c1 = Fraction(10**40 + 1, 2**61 - 1)
        c2 = Fraction(-7, 10**9 + 7)
        a = HahnSeries([(ge(0), c1), (ge(Fraction(1, 3)), c2)])
        b = HahnSeries([(ge(0), c1), (ge(Fraction(1, 3)), -c2)])
        expected = [(ge(0), c1 * c1), (ge(Fraction(2, 3)), -c2 * c2)]
        assert list((a * b).terms) == expected
        assert list(a._times(b, _key_of(ge(Fraction(2, 3)))).terms) == expected[:1]
        assert (a * b).coefficient(ge(Fraction(1, 3))) == 0
        _check_against_oracle(a, b, ge(1))

    @given(grid_series(nonzero=True), grid_bound())
    def test_newton_invert_matches_geometric_series(self, approx, target):
        a = TruncatedSeries.exact(approx)
        assert invert(a, target) == _geometric_inverse(a, target)

    @given(rank2_series(), st.integers(1, 6))
    def test_newton_invert_rank_two(self, approx, j):
        # v(a) = (0, 0) and every gap has a positive first coordinate or the
        # target's leading coordinate, so the geometric series terminates
        unit = HahnSeries([(e, c) for e, c in approx.terms if e > GroupElement.zero(2)], rank=2)
        a = TruncatedSeries.exact(HahnSeries.constant(1, 2) + unit)
        target = GroupElement([0, j])
        if unit.terms and unit.valuation()[0] > 0:
            target = GroupElement([j, 0])
        assert invert(a, target) == _geometric_inverse(a, target)

    @given(grid_series(nonzero=True), st.sampled_from([2, 3]))
    def test_nth_root_of_exact_power(self, approx, n):
        b = _positive(approx)
        power = _int_power(b, n)
        # the target lies above b's relative span, so the root is determined exactly
        span = b.approx.terms[-1][0] - b.approx.valuation()
        root = nth_root(power, n, power.approx.valuation() + span + ge(1))
        assert root.is_exact() and root == b

    @given(grid_series(nonzero=True), st.sampled_from([2, 3]), grid_bound())
    def test_nth_root_of_perturbed_power(self, approx, n, target):
        power = _int_power(_positive(approx), n)
        a = power + TruncatedSeries.monomial(1, power.approx.terms[-1][0] + ge(1))
        root = nth_root(a, n, target)
        residual = _int_power(root, n) - a
        if root.is_exact():
            assert residual.is_exact_zero()
        else:
            assert root.prec == target - a.approx.valuation() + a.approx.valuation() / n
            assert residual.approx.is_zero() or residual.approx.valuation() >= target


# exponent denominators of the grid strategies; shifts and bounds also use
# denominators off these grids, and rank-2 exponents draw each coordinate
# from both lists
EXPONENT_DENOMINATORS = [1, 2, 3, 7, 10**9 + 7]
OFF_GRID_DENOMINATORS = [5, 11, 10**9 + 9]
ALL_DENOMINATORS = EXPONENT_DENOMINATORS + OFF_GRID_DENOMINATORS
RANKS = (1, 2)


def _exponent(draw, denominators, lo=-30, hi=30):
    return Fraction(draw(st.integers(lo, hi)), draw(st.sampled_from(denominators)))


@st.composite
def grid_exponents(draw, rank, lo=-30, hi=30):
    """An exponent as a tuple of Fractions, each coordinate on its own drawn denominator."""
    return tuple(_exponent(draw, ALL_DENOMINATORS, lo, hi) for _ in range(rank))


@st.composite
def grid_dicts(draw, rank, max_terms=5):
    """A value as the dict {exponent tuple: coefficient} (the test oracle's form).

    Rank-2 first coordinates come from a pool of at most three, so equal
    first coordinates, decided by the second, are common.
    """
    if rank == 1:
        exps = st.builds(lambda e: (e,), st.builds(Fraction, st.integers(-30, 30),
                                                     st.sampled_from(EXPONENT_DENOMINATORS)))
    else:
        pool = draw(st.lists(st.builds(Fraction, st.integers(-3, 3), st.sampled_from(ALL_DENOMINATORS)),
                             min_size=1, max_size=3))
        exps = st.tuples(st.sampled_from(pool), st.builds(Fraction, st.integers(-30, 30),
                                                           st.sampled_from(ALL_DENOMINATORS)))
    keys = draw(st.lists(exps, max_size=max_terms, unique=True))
    return dict(zip(keys, draw(rational_coeffs(len(keys)))))


@st.composite
def related_dicts(draw, a, rank):
    """A second value sharing exponents with ``a``: equal, cancelling or other coefficients there."""
    out = draw(grid_dicts(rank, max_terms=3))
    for e, c in a.items():
        kind = draw(st.sampled_from(["absent", "cancel", "same", "other"]))
        if kind == "cancel":
            out[e] = -c
        elif kind == "same":
            out[e] = c
        elif kind == "other":
            out[e] = draw(rational_coeffs(1))[0]
    return out


@st.composite
def grid_scalars(draw):
    return Fraction(draw(st.integers(-(10**30), 10**30).filter(bool)), draw(st.sampled_from([1, 3, 7, 2**61 - 1])))


def _series_of(d, rank):
    # terms in descending order, each coefficient split in two, for the constructor to merge
    terms = []
    for e, c in sorted(d.items(), reverse=True):
        terms += [(GroupElement(e), c / 3), (GroupElement(e), c - c / 3)]
    return HahnSeries(terms, rank)


def _fraction_exponent(e):
    return type(e) is GroupElement and all(type(q) is Fraction for q in e)


def _check_value(got, d, rank):
    """``got`` holds exactly the value ``d`` of the given rank in canonical form."""
    expected = [(GroupElement(e), c) for e, c in sorted(d.items()) if c]
    assert got.rank == rank
    assert list(got.terms) == expected
    assert all(_fraction_exponent(e) and type(c) is Fraction for e, c in got.terms)
    built = HahnSeries(expected, rank)
    assert got == built and hash(got) == hash(built) and got.terms == built.terms
    assert got.is_zero() == (not expected) == (got == HahnSeries.zero(rank))
    assert got.valuation() == (expected[0][0] if expected else INFINITE)
    assert got.is_zero() or _fraction_exponent(got.valuation())
    assert got.leading_coeff() == (expected[0][1] if expected else 0)


def _vadd(e, f):
    return tuple(x + y for x, y in zip(e, f))


def _dict_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return out


def _dict_mul(a, b, bound=INFINITE):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = _vadd(ea, eb)
            if bound is INFINITE or e < bound:
                out[e] = out.get(e, Fraction(0)) + ca * cb
    return out


def _bounds_near(exponents, drawn):
    """Bounds to cut ``exponents`` at: ``drawn``, and at each exponent e
    itself, e just above and just below in its first and in its last
    coordinate (the later coordinates drawn when the first moves), and e's
    leading coordinates with the drawn last one."""
    eps = Fraction(1, 2**89 - 1)
    out = [drawn]
    for e in exponents:
        out += [e, e[:-1] + (e[-1] + eps,), e[:-1] + (e[-1] - eps,), e[:-1] + drawn[-1:],
                (e[0] + eps,) + drawn[1:], (e[0] - eps,) + drawn[1:]]
    return list(dict.fromkeys(out))


class TestIntegerGrid:
    """The grid arithmetic against the dict oracle, each example in rank 1 and rank 2."""

    @given(st.data())
    def test_sum_difference_and_negation_match_oracle(self, data):
        for rank in RANKS:
            a = data.draw(grid_dicts(rank))
            b = data.draw(related_dicts(a, rank))
            x, y = _series_of(a, rank), _series_of(b, rank)
            _check_value(x, a, rank)
            _check_value(x + y, _dict_add(a, b), rank)
            _check_value(y + x, _dict_add(a, b), rank)
            _check_value(-x, {e: -c for e, c in a.items()}, rank)
            _check_value(x - y, _dict_add(a, {e: -c for e, c in b.items()}), rank)
            _check_value(x - x, {}, rank)

    @given(grid_scalars(), st.data())
    def test_scale_and_shift_match_oracle(self, q, data):
        for rank in RANKS:
            a = data.draw(grid_dicts(rank))
            s = data.draw(st.one_of(st.just((Fraction(0),) * rank), grid_exponents(rank)))
            x = _series_of(a, rank)
            neg = tuple(-c for c in s)
            _check_value(x.scale(q), {e: c * q for e, c in a.items()}, rank)
            _check_value(x.scale(q).scale(1 / q), a, rank)
            _check_value(x.scale(0), {}, rank)
            _check_value(x.shift(GroupElement(s)), {_vadd(e, s): c for e, c in a.items()}, rank)
            _check_value(x.shift(GroupElement(s)).shift(GroupElement(neg)), a, rank)

    @given(st.data())
    def test_truncate_below_matches_oracle(self, data):
        for rank in RANKS:
            a = data.draw(grid_dicts(rank))
            drawn = data.draw(grid_exponents(rank))
            x = _series_of(a, rank)
            for p in _bounds_near(a, drawn):
                _check_value(x.truncate_below(GroupElement(p)), {e: c for e, c in a.items() if e < p}, rank)
            assert x.truncate_below(INFINITE) is x

    @given(st.data())
    def test_truncate_through_matches_oracle(self, data):
        for rank in RANKS:
            a = data.draw(grid_dicts(rank))
            drawn = data.draw(grid_exponents(rank))
            x = _series_of(a, rank)
            for hi in _bounds_near(a, drawn):
                got = x.truncate_through(GroupElement(hi))
                _check_value(got, {e: c for e, c in a.items() if e <= hi}, rank)
                assert got == HahnSeries([(e, c) for e, c in x.terms if e <= GroupElement(hi)], rank)

    def test_the_grid_is_the_only_stored_form(self):
        x = parse_series("1/2*t^(-1) + 3 + O(t^(2))").approx
        assert HahnSeries.__slots__ == ("rank", "_grid") and not hasattr(x, "__dict__")
        grid = x._grid
        assert x.terms == x.terms and x.terms is not x.terms and x._grid is grid

    @given(st.data())
    def test_coefficient_matches_a_scan_of_terms(self, data):
        # exponents on the support, next to it (denominators off the grid's),
        # and one on the grid's denominator; an empty draw is the zero series
        for rank in RANKS:
            a = data.draw(grid_dicts(rank))
            x = _series_of(a, rank)
            eden = x._grid[0]
            on_grid = tuple(Fraction(data.draw(st.integers(-30 * eden, 30 * eden)), eden) for _ in range(rank))
            for e in _bounds_near(a, data.draw(grid_exponents(rank))) + [on_grid]:
                got = x.coefficient(GroupElement(e))
                assert type(got) is Fraction and got == a.get(e, 0)
                assert got == next((c for f, c in x.terms if f == GroupElement(e)), 0)
            assert HahnSeries.zero(rank).coefficient(GroupElement(on_grid)) == 0

    @given(rational_rank2_series(), rank2_bound())
    def test_truncate_through_rank_two_matches_filter(self, x, bound):
        for hi in [bound] + [e for e, _ in x.terms]:
            kept = [(e, c) for e, c in x.terms if e <= hi]
            got = x.truncate_through(hi)
            assert list(got.terms) == kept and got == HahnSeries(kept, rank=2) and got.rank == 2

    @given(st.data())
    def test_product_matches_oracle(self, data):
        for rank in RANKS:
            a = data.draw(grid_dicts(rank, max_terms=4))
            b = data.draw(related_dicts(a, rank))
            drawn = data.draw(grid_exponents(rank, -60, 60))
            x, y = _series_of(a, rank), _series_of(b, rank)
            for p in [INFINITE] + _bounds_near(_dict_mul(a, b), drawn):
                bound = p if p is INFINITE else GroupElement(p)
                for u, v in ((x, y), (y, x)):
                    got = u._times(v, _key_of(bound))
                    _check_value(got, _dict_mul(a, b, p), rank)
                    assert got == (u * v).truncate_below(bound)

    def test_integer_first_coordinate_bound_rank_two(self):
        # bounds whose first coordinate is an integer shared with stored
        # exponents: the second coordinate alone decides the cut
        a = {(Fraction(1), Fraction(-5)): Fraction(2), (Fraction(1), Fraction(0)): Fraction(-3, 7),
             (Fraction(1, 2), Fraction(4, 3)): Fraction(5)}
        x = _series_of(a, 2)
        one = HahnSeries.constant(1, 2)
        for p in [(1, -3), (1, -5), (1, 0), (1, 1), (2, -9), (0, 9), (Fraction(2, 3), 9), (Fraction(4, 3), -9)]:
            p = tuple(map(Fraction, p))
            below = {e: c for e, c in a.items() if e < p}
            _check_value(x.truncate_below(GroupElement(p)), below, 2)
            _check_value(x._times(one, _key_of(GroupElement(p))), below, 2)
            _check_value(x.truncate_through(GroupElement(p)), {e: c for e, c in a.items() if e <= p}, 2)
        kept = x.truncate_below(GroupElement([1, -3])).terms
        assert [tuple(e) for e, _ in kept] == [(Fraction(1, 2), Fraction(4, 3)), (1, -5)]

    def test_rank_two_cuts_are_ints(self):
        # a rank-d bound meets the keys as ints: the last coordinate rounded
        # in place, an earlier one that is not an int rounded up, ending the cut
        from hahn_forge.series import _below_key, _through_key

        x = _series_of({(Fraction(0), Fraction(0)): Fraction(1), (Fraction(0), Fraction(1)): Fraction(2),
                        (Fraction(1, 2), Fraction(-3)): Fraction(5)}, 2)
        cases = [((0, Fraction(-1, 7)), 0, 0), ((0, 0), 0, 1), ((0, Fraction(1, 2)), 1, 1), ((0, 1), 1, 2),
                 ((Fraction(1, 3), -9), 2, 2), ((Fraction(1, 2), -3), 2, 3), ((Fraction(1, 2), Fraction(-5, 2)), 3, 3)]
        for p, below, through in cases:
            bound = GroupElement(p)
            assert len(x.truncate_below(bound).terms) == below
            assert len(x.truncate_through(bound).terms) == through
            assert len(x._times(HahnSeries.constant(1, 2), _key_of(bound)).terms) == below
            for key in (_below_key(_key_of(bound), 6), _through_key(_key_of(bound), 6)):
                assert type(key) is tuple and all(type(k) is int for k in key)
        assert _below_key(_key_of(GroupElement([Fraction(1, 4), 3])), 2) == (1,)
        assert _through_key(_key_of(GroupElement([Fraction(1, 4), 3])), 2) == (1,)
        assert _below_key(_key_of(GroupElement([1, Fraction(1, 4)])), 2) == (2, 1)
        assert _through_key(_key_of(GroupElement([1, Fraction(1, 4)])), 2) == (2, 0)

    @given(st.data())
    def test_exponents_have_fraction_coordinates(self, data):
        # int coordinates must not leak from the grid: GroupElement / int
        # would then divide int by int into a float
        for rank in RANKS:
            a = data.draw(grid_dicts(rank, max_terms=4))
            b = data.draw(related_dicts(a, rank))
            s = GroupElement(data.draw(grid_exponents(rank)))
            x, y = _series_of(a, rank), _series_of(b, rank)
            for v in (x, x + y, x - y, x * y, x.shift(s), (x * y).shift(s), x.scale(3), x.truncate_below(s)):
                assert all(_fraction_exponent(e) for e, _ in v.terms)
                assert v.is_zero() or _fraction_exponent(v.valuation())
            for e in [s] + [e for e, _ in (x * y).terms] + [e for e, _ in x.shift(s).terms]:
                for k in (0, 1, -2, 3):
                    assert _fraction_exponent(e * k) and _fraction_exponent(k * e)
                    assert e * k == GroupElement([q * k for q in e])
                assert _fraction_exponent(e * 3 / 3) and e * 3 / 3 == e

    def test_cancellation_to_exact_zero(self):
        big = 10**9 + 7
        a = {(Fraction(1, 2),): Fraction(3, 7), (Fraction(-1, big),): Fraction(-5, 2**61 - 1),
             (Fraction(2, 3),): Fraction(1)}
        x = _series_of(a, 1)
        _check_value(x + (-x), {}, 1)
        _check_value(x.scale(Fraction(-3, 7)) + x.scale(Fraction(3, 7)), {}, 1)
        _check_value(x.shift(ge(Fraction(1, 5))) - x.shift(ge(Fraction(1, 5))), {}, 1)
        # (1 + t^(1/2))(1 - t^(1/2)) = 1 - t: the product leaves the half grid
        one_plus = HahnSeries([(ge(0), 1), (ge(Fraction(1, 2)), 1)])
        one_minus = HahnSeries([(ge(0), 1), (ge(Fraction(1, 2)), -1)])
        _check_value(one_plus * one_minus, {(Fraction(0),): Fraction(1), (Fraction(1),): Fraction(-1)}, 1)
        _check_value(one_plus._times(one_minus, _key_of(ge(Fraction(1, 2)))), {(Fraction(0),): Fraction(1)}, 1)
        _check_value((one_plus * one_minus).truncate_below(ge(0)), {}, 1)


@st.composite
def truncated_grid_series(draw):
    """Rank-1 value, exact or known below a drawn precision; negative valuations included."""
    approx = draw(grid_series())
    if draw(st.booleans()):
        return TruncatedSeries.exact(approx)
    return TruncatedSeries(approx, draw(grid_bound()))


@st.composite
def truncated_rank2_series(draw):
    approx = draw(rank2_series())
    if draw(st.booleans()):
        return TruncatedSeries.exact(approx)
    return TruncatedSeries(approx, draw(rank2_bound()))


def _fold_product(x, k):
    """The k-fold product ``1 * x * ... * x`` by ``field_op``, untruncated (test oracle)."""
    out = TruncatedSeries.one(x.rank)
    for _ in range(k):
        out = field_op("mul", out, x)
    return out


def _check_power(x, k, prec):
    got = power(x, k, prec)
    full = _fold_product(x, k)
    if prec is INFINITE or k == 0:
        assert got == full
        return
    # a step truncated at prec can lower the precision of the next product
    # (by v(x) when v(x) < 0), never raise it; below its own precision the
    # result is the full product's
    assert got.prec is not INFINITE and got.prec <= prec
    assert full.prec is INFINITE or got.prec <= full.prec
    assert got == full.truncate(got.prec)
    if x.is_exact() and (x.approx.is_zero() or x.approx.valuation() >= GroupElement.zero(x.rank)):
        assert got == full.truncate(prec)


class TestPower:
    @given(truncated_grid_series(), st.integers(0, 4), st.one_of(st.just(INFINITE), grid_bound()))
    def test_power_matches_fold_rank_one(self, x, k, prec):
        _check_power(x, k, prec)

    @given(truncated_rank2_series(), st.integers(0, 4), st.one_of(st.just(INFINITE), rank2_bound()))
    def test_power_matches_fold_rank_two(self, x, k, prec):
        _check_power(x, k, prec)

    @given(st.lists(truncated_grid_series(), max_size=4), truncated_grid_series(),
           st.one_of(st.just(INFINITE), grid_bound()))
    def test_poly_eval_is_the_power_sum(self, coeffs, x, prec):
        got = poly_eval(coeffs, x, prec)
        full = TruncatedSeries.zero()
        for i, c in enumerate(coeffs):
            full = full + c * _fold_product(x, i)
        if prec is INFINITE:
            assert got == full
        else:
            assert got == full.truncate(got.prec)


@st.composite
def power_bases(draw, rank):
    """A base for ``power``: exact or inexact, exact zero and ``0 + O(t^p)`` included."""
    if rank == 1:
        approx, bound = draw(grid_series()), draw(grid_bound())
    else:
        approx = draw(st.one_of(rank2_series().filter(lambda a: len(a.terms) <= 3), st.just(GAP_BASE),
                                spread_rank2_series()))
        bound = draw(rank2_bound())
    kind = draw(st.sampled_from(["exact", "inexact", "exact zero", "zero below"]))
    if kind == "exact":
        return TruncatedSeries.exact(approx)
    if kind == "inexact":
        return TruncatedSeries(approx, bound)
    if kind == "exact zero":
        return TruncatedSeries.zero(rank)
    return TruncatedSeries(HahnSeries.zero(rank), bound)


# a rank-2 base whose leading gap (0,1) lies in a later coordinate than
# that of the generator (1,0)
GAP_BASE = parse_series("1*t^(1,0) + 1*t^(1,1) + 1*t^(2,0)", rank=2).approx


@st.composite
def spread_rank2_series(draw):
    """``c0 t^l + c1 t^(l + (0,a)) + c2 t^(l + (b,-c))``: a lexicographically larger
    sum of the two generators can weigh less than one of many small factors."""
    lead = GroupElement([Fraction(draw(st.integers(-1, 1)), 2), Fraction(draw(st.integers(-2, 2)), 2)])
    small = GroupElement([Fraction(0), Fraction(draw(st.integers(1, 2)), 2)])
    large = GroupElement([Fraction(draw(st.integers(1, 2)), 2), Fraction(-draw(st.integers(1, 10)), 2)])
    coeffs = [Fraction(draw(st.integers(1, 5)) * draw(st.sampled_from([1, -1])), draw(st.integers(1, 3)))
              for _ in range(3)]
    return HahnSeries(list(zip([lead, lead + small, lead + large], coeffs)), rank=2)


def _check_power_is_cut_fold(x, k, prec):
    got = power(x, k, prec)
    want = TruncatedSeries.one(x.rank) if k == 0 else _fold_product(x, k).truncate(prec)
    assert got == want
    assert got.prec == want.prec
    assert format_series(got) == format_series(want)


class TestPowerIsTheCutFold:
    """``power(x, k, prec)`` is the k-fold ``field_op`` product cut at ``prec``; ``x^0`` is the exact 1."""

    @given(power_bases(1), st.integers(0, 12), st.one_of(st.just(INFINITE), grid_bound()))
    def test_rank_one(self, x, k, prec):
        _check_power_is_cut_fold(x, k, prec)

    @given(power_bases(2), st.integers(0, 12), st.one_of(st.just(INFINITE), rank2_bound()))
    def test_rank_two(self, x, k, prec):
        _check_power_is_cut_fold(x, k, prec)

    @given(spread_rank2_series(), st.integers(2, 12), rank2_bound())
    def test_rank_two_out_of_lexicographic_order(self, approx, k, prec):
        _check_power_is_cut_fold(TruncatedSeries.exact(approx), k, prec)

    @pytest.mark.parametrize("k", range(13))
    @pytest.mark.parametrize("prec", [INFINITE, "2,0", "2,1", "3,0", "5,-1", "13,0"])
    def test_gap_in_a_later_coordinate(self, k, prec):
        prec = prec if prec is INFINITE else GroupElement([Fraction(q) for q in prec.split(",")])
        _check_power_is_cut_fold(TruncatedSeries.exact(GAP_BASE), k, prec)

    @pytest.mark.parametrize("text, rank, prec", [
        ("1*t^(1/7) + 1*t^(1/5)", 1, "3"),
        ("3*t^(1) + O(t^(4))", 1, "5"),
        ("0 + O(t^(1/2))", 1, "7"),
        ("-3*t^(1,-5) + 1*t^(2,0)", 2, "3,0"),
    ])
    def test_huge_exponent_beyond_the_target(self, text, rank, prec):
        # k v lies far above the target: the power is 0 + O(t^prec) at once,
        # with no coefficient raised to the power k
        prec = GroupElement([Fraction(q) for q in prec.split(",")])
        start = time.perf_counter()
        got = power(parse_series(text, rank), 10**8, prec)
        assert time.perf_counter() - start < 1.0
        assert got.approx.is_zero() and got.prec == prec

    def test_huge_exponent_in_a_later_coordinate(self):
        # k v = (0, 10^8) still lies below (1, 0); the rest of x^k does not
        got = power(parse_series("1*t^(0,1) - 3*t^(1,-2)", 2), 10**8, GroupElement([Fraction(1), Fraction(0)]))
        assert format_series(got) == "1*t^(0,100000000) + O(t^(1,0))"

    @pytest.mark.parametrize("text, k, prec", [
        ("2 + 1*t^(0,1/2) + 1*t^(1/2,0)", 5, "1/2,1/2"),
        ("2 + 1*t^(0,1) + 1*t^(1,-5)", 12, "1,0"),
        ("2 + 1*t^(0,1) + 1*t^(1,-5)", 12, "1,-2"),
        ("2*t^(1,0) + 1*t^(1,1) + 3*t^(2,0)", 7, "9,2"),
        ("2*t^(0,-1) + 1*t^(0,1) - 1/3*t^(1,-4)", 9, "2,-3"),
        ("2 + 1*t^(0,1) + 1*t^(1,-5) + O(t^(2,0))", 12, "1,3"),
    ])
    def test_sums_out_of_lexicographic_order(self, text, k, prec):
        # the lexicographically largest exponent of the unit power is not
        # the one of most generator factors, and the leading coefficient is
        # not 1, so the shared denominator must be sized by the latter
        prec = GroupElement([Fraction(q) for q in prec.split(",")])
        _check_power_is_cut_fold(parse_series(text, 2), k, prec)

    def test_square_of_the_gap_base(self):
        got = power(TruncatedSeries.exact(GAP_BASE), 2, GroupElement([Fraction(3), Fraction(0)]))
        assert format_series(got) == "1*t^(2,0) + 2*t^(2,1) + 1*t^(2,2) + O(t^(3,0))"


# -- constructions that arrive truncated ------------------------------------


def _oracle_min(*precs):
    finite = [p for p in precs if p is not INFINITE]
    return min(finite) if finite else INFINITE


def _oracle_field_op(kind, a, b):
    """Three precision sums, their min, then the cutting constructor (test oracle)."""
    if kind == "add":
        return TruncatedSeries(a.approx + b.approx, _oracle_min(a.prec, b.prec))
    if kind == "sub":
        return TruncatedSeries(a.approx - b.approx, _oracle_min(a.prec, b.prec))
    if a.is_exact_zero() or b.is_exact_zero():
        return TruncatedSeries.zero(a.rank)
    prec = _oracle_min(
        a.prec + b.valuation_lower_bound(), b.prec + a.valuation_lower_bound(), a.prec + b.prec
    )
    return TruncatedSeries(a.approx * b.approx, prec)


def _below_prec(x):
    return x.prec is INFINITE or all(e < x.prec for e, _ in x.approx.terms)


@st.composite
def truncated_pairs(draw, rank):
    """Two values of one rank: exact, known below a shared precision, or
    below precisions of their own; approx zero (``0 + O(t^p)``) included."""
    series = grid_series() if rank == 1 else rank2_series()
    bound = grid_bound() if rank == 1 else rank2_bound()
    shared = draw(bound)
    out = []
    for _ in range(2):
        approx = draw(st.one_of(series, st.just(HahnSeries.zero(rank))))
        prec = draw(st.sampled_from(["exact", "shared", "own"]))
        if prec == "exact":
            out.append(TruncatedSeries.exact(approx))
        else:
            out.append(TruncatedSeries(approx, shared if prec == "shared" else draw(bound)))
    return tuple(out)


def _check_trusted(a, b, q, e, p):
    for kind in ("add", "sub", "mul"):
        for x, y in ((a, b), (b, a)):
            got = field_op(kind, x, y)
            assert got == _oracle_field_op(kind, x, y) and _below_prec(got)
    for x in (a, b):
        cases = [
            (-x, TruncatedSeries(-x.approx, x.prec)),
            (x.scale(q), TruncatedSeries(x.approx.scale(q), x.prec)),
            (x.shift(e), TruncatedSeries(x.approx.shift(e), x.prec + e)),
            (x.truncate(p), TruncatedSeries(x.approx, _oracle_min(x.prec, p))),
            (x.truncate(INFINITE), x),
        ]
        for got, want in cases:
            assert got == want and _below_prec(got)


@st.composite
def difference_pairs(draw, rank):
    """Two values of one rank whose grids often agree: related (sharing, cancelling or changing
    coefficients), equal, or one a prefix of the other; each exact or known below a precision, often at
    one of their exponents or shared, so approx zero (``0 + O(t^p)``) and a first difference at a
    precision are common."""
    a = draw(grid_dicts(rank))
    kind = draw(st.sampled_from(["related", "equal", "prefix"]))
    if kind == "related":
        b = draw(related_dicts(a, rank))
    elif kind == "equal":
        b = dict(a)
    else:
        b = dict(sorted(a.items())[:draw(st.integers(0, len(a)))])
    near = sorted(set(a) | set(b)) or [(Fraction(0),) * rank]
    shared = draw(st.sampled_from(near))
    out = []
    for d in (a, b):
        prec = draw(st.sampled_from(["exact", "shared", "near", "own"]))
        approx = _series_of(d, rank)
        if prec == "exact":
            out.append(TruncatedSeries.exact(approx))
        else:
            p = shared if prec == "shared" else draw(st.sampled_from(near) if prec == "near" else grid_exponents(rank))
            out.append(TruncatedSeries(approx, GroupElement(p)))
    return tuple(out) if draw(st.booleans()) else tuple(reversed(out))


class TestFirstDifference:
    """``_first_difference`` against ``field_op`` subtraction: the valuation and sign of a - b, and None
    exactly where a - b is zero or ``0 + O(...)``; the same term, negated, for b - a."""

    @staticmethod
    def check(a, b):
        diff = field_op("sub", a, b)
        got = _first_difference(a, b)
        if diff.approx.is_zero():
            assert got is None and _first_difference(b, a) is None
            return
        eden, key, sign = got
        exponent = GroupElement(Fraction(k, eden) for k in ((key,) if type(key) is int else key))
        assert exponent == valuation(diff) and sign == compare_sign(diff) != ZERO
        eden, key, sign = _first_difference(b, a)
        assert GroupElement(Fraction(k, eden) for k in ((key,) if type(key) is int else key)) == exponent
        assert sign == -compare_sign(diff)

    @settings(max_examples=300)
    @given(st.data())
    def test_against_the_difference(self, data):
        for rank in RANKS:
            self.check(*data.draw(difference_pairs(rank)))

    @pytest.mark.parametrize("a, b", [
        ("1 + 1*t^(1)", "1 + 1*t^(1)"),
        ("1 + 1*t^(1)", "1"),
        ("1 + 1*t^(1) + O(t^(1))", "1"),
        ("1 + 1*t^(1)", "1 + O(t^(1))"),
        ("1 + 2*t^(1) + O(t^(2))", "1 + 1*t^(1)"),
        ("0 + O(t^(3))", "0"),
        ("0 + O(t^(3))", "1*t^(3)"),
        ("0 + O(t^(3))", "-1*t^(2)"),
        ("1/2*t^(1/3)", "1/3*t^(1/3)"),
        ("1*t^(1/2)", "1*t^(1/3)"),
        ("0", "0"),
    ])
    def test_equal_grids_prefixes_and_undetermined_differences(self, a, b):
        self.check(s(a), s(b))

    def test_rank_two(self):
        a, b = (parse_series(text, rank=2) for text in ("1*t^(0,1) + 2*t^(1,-3)", "1*t^(0,1) + 1*t^(1,-2)"))
        assert _first_difference(a, b) == (1, (1, -3), POSITIVE)
        assert _first_difference(a, TruncatedSeries(b.approx, GroupElement([1, -3]))) is None
        with pytest.raises(ValueError, match="rank mismatch"):
            _first_difference(a, s("1"))


class TestTrustedTruncation:
    """Results built without a second cut equal the cutting constructor's."""

    @given(truncated_pairs(1), st.fractions(max_denominator=6), grid_bound(), grid_bound())
    def test_rank_one(self, pair, q, e, p):
        _check_trusted(*pair, q, e, p)

    @given(truncated_pairs(2), st.fractions(max_denominator=6), rank2_bound(), rank2_bound())
    def test_rank_two(self, pair, q, e, p):
        _check_trusted(*pair, q, e, p)

    def test_sum_of_unequal_precisions_is_cut(self):
        a = parse_series("1 + 1*t^(2) + O(t^(3))")
        b = parse_series("0 + O(t^(1))")
        for got in (a + b, b + a, a - b, b - a):
            assert got.prec == ge(1) and _below_prec(got)
            assert format_series(got).startswith(("1 + O", "-1 + O"))

    def test_truncate_below_own_precision_cuts(self):
        a = parse_series("1 + 1*t^(1) + 1*t^(2) + O(t^(3))")
        assert format_series(a.truncate(ge(2))) == "1 + 1*t^(1) + O(t^(2))"
        assert a.truncate(ge(3)) is a and a.truncate(ge(5)) is a


# -- the n-th root against the full-precision Newton loop --------------------


def _int_root(m, n):
    r = round(m ** (1 / n))
    return next((x for x in (r - 1, r, r + 1) if x >= 0 and x**n == m), None)


def _full_precision_root(a, n, target_prec):
    """The n-th root by Newton's iteration for y^n = u, every step at the full
    target precision with one inverse of the derivative (test oracle)."""
    if compare_sign(a) != POSITIVE:
        raise NotPositive("n-th root requires a positive element")
    g = a.approx.valuation()
    c0 = a.approx.leading_coeff()
    num, den = _int_root(c0.numerator, n), _int_root(c0.denominator, n)
    if num is None or den is None:
        raise IrrationalLeadingCoefficient(f"{c0} has no rational {n}-th root")
    b = TruncatedSeries.monomial(Fraction(num, den), g / n)
    unit = TruncatedSeries(a.approx.shift(-g).scale(1 / c0), INFINITE if a.prec is INFINITE else a.prec - g)
    one = TruncatedSeries.one(a.rank)
    if unit == one:
        return b
    res_target = target_prec - g
    if a.prec is not INFINITE and a.prec - g < res_target:
        raise InsufficientPrecision("operand precision cannot support the requested root")
    y = one
    for _ in range(64):
        residual = power(y, n, res_target) - unit
        if residual.approx.is_zero() or residual.approx.valuation() >= res_target:
            break
        deriv = power(y, n - 1, res_target).scale(n)
        y = (y - residual * invert(deriv, res_target)).truncate(res_target)
    x = b * y
    if a.is_exact():
        terms = x.approx.terms
        top = a.approx.terms[-1][0]
        for cut in range(len(terms), 0, -1):
            if terms[cut - 1][0] * n == top:
                cand = TruncatedSeries.exact(HahnSeries(terms[:cut], a.rank))
                if power(cand, n).approx == a.approx:
                    return cand
    return x.truncate(res_target + g / n)


def _outcome(f, *args):
    """``f(*args)``, or the class of the error it raises."""
    try:
        return f(*args)
    except Exception as exc:  # noqa: BLE001 - compared by class against the oracle
        return type(exc)


def _check_root(a, n, target):
    got, want = _outcome(nth_root, a, n, target), _outcome(_full_precision_root, a, n, target)
    assert got == want
    if isinstance(want, TruncatedSeries):
        assert format_series(got) == format_series(want)
    return want


ROOT_COEFFS = [Fraction(1), Fraction(2), Fraction(1, 3), Fraction(3, 2)]


def _rank2_exponent(draw, lo, hi, firsts=(0, 1, 2)):
    return GroupElement([Fraction(draw(st.sampled_from(firsts)), 2), Fraction(draw(st.integers(lo, hi)), 2)])


@st.composite
def root_cases(draw, rank):
    """``(a, n, target)``: a positive, its leading coefficient an n-th power.

    The valuation may be negative.  ``a`` is exact, or known exactly up to
    the target (the least precision the root accepts), or beyond it.
    """
    n = draw(st.sampled_from([2, 3, 4, 5]))
    c0 = draw(st.sampled_from(ROOT_COEFFS)) ** n
    if rank == 1:
        grid = draw(st.sampled_from(GRIDS))
        g = ge(Fraction(draw(st.integers(-6, 4)), grid))
        tail = [(ge(Fraction(k, grid)), Fraction(c, draw(st.sampled_from([1, 2, 3]))))
                for k, c in draw(st.lists(st.tuples(st.integers(1, 8), st.integers(-9, 9)), max_size=4))]
        rel = ge(Fraction(draw(st.integers(1, 10)), draw(st.sampled_from(GRIDS))))
        above = ge(Fraction(draw(st.integers(1, 4)), draw(st.sampled_from(GRIDS))))
    else:
        g = _rank2_exponent(draw, -4, 4, (-2, 0, 1))
        # tail exponents lie above (0, 0): a first coordinate of 0 needs a positive second
        tail = [(e, Fraction(draw(st.integers(-9, 9)))) for e in
                (_rank2_exponent(draw, -4, 6) for _ in range(draw(st.integers(0, 4))))
                if e > GroupElement.zero(2)]
        rel = _rank2_exponent(draw, -2, 8)
        rel = rel if rel > GroupElement.zero(2) else GroupElement([0, 1])
        above = _rank2_exponent(draw, 1, 4)
    unit = HahnSeries([(GroupElement.zero(rank), 1)] + tail, rank)
    approx = unit.shift(g).scale(c0)
    target = g + rel
    kind = draw(st.sampled_from(["exact", "at guard", "above"]))
    if kind == "exact":
        return TruncatedSeries.exact(approx), n, target
    return TruncatedSeries(approx, target if kind == "at guard" else target + above), n, target


@st.composite
def perfect_powers(draw, rank):
    """``(b^n, n, target)`` for a positive exact b; the target lies below or above b^n's top."""
    n = draw(st.sampled_from([2, 3, 4, 5]))
    if rank == 1:
        b = _positive(draw(grid_series(nonzero=True)))
    else:
        lead = _rank2_exponent(draw, -4, 4, (-2, 0, 1))
        tail = [(lead + _rank2_exponent(draw, -4, 4), Fraction(draw(st.integers(-5, 5)))) for _ in range(draw(st.integers(0, 3)))]
        b = _positive(HahnSeries([(lead, Fraction(draw(st.sampled_from(ROOT_COEFFS))))]
                                 + [(e, c) for e, c in tail if e > lead], rank))
    a = _int_power(b, n)
    top = a.approx.terms[-1][0]
    rel = draw(st.sampled_from([ge(1), ge(Fraction(1, 2)), ge(3)])) if rank == 1 else _rank2_exponent(draw, 0, 4)
    target = draw(st.sampled_from([top + rel, a.approx.valuation() + rel]))
    return a, n, target


class TestNthRootAgainstFullPrecisionNewton:
    """``nth_root`` equals the full-precision Newton loop, outputs and errors alike."""

    @given(root_cases(1))
    def test_rank_one(self, case):
        _check_root(*case)

    @given(root_cases(2))
    def test_rank_two(self, case):
        _check_root(*case)

    @given(perfect_powers(1))
    def test_exact_perfect_powers_rank_one(self, case):
        _check_root(*case)

    @given(perfect_powers(2))
    def test_exact_perfect_powers_rank_two(self, case):
        _check_root(*case)

    def test_exact_root_within_target(self):
        a = s("1 + 2*t^(1/2) + 1*t^(1)")  # (1 + t^(1/2))^2
        assert _check_root(a, 2, ge(3)) == s("1 + 1*t^(1/2)")
        a = s("4*t^(-2) + 4*t^(-1) + 1")  # (2 t^(-1) + 1)^2
        assert _check_root(a, 2, ge(2)) == s("2*t^(-1) + 1")

    def test_truncated_root_deep_target(self):
        a = s("1 + 1*t^(1/3) + O(t^(9))")
        root = _check_root(a, 5, ge(9))
        assert root.prec == ge(9) and len(root.approx.terms) == 27

    def test_first_root_is_the_value(self):
        # no Newton step, so no stall in rank 2 either
        a = parse_series("1 + 1*t^(0,1)", rank=2)
        assert _check_root(a, 1, GroupElement([1, 0])) == a
        assert _check_root(a, 1, GroupElement([0, 1])) == a.truncate(GroupElement([0, 1]))
        assert _check_root(s("1 + 1*t^(1) + O(t^(3))"), 1, ge(2)) == s("1 + 1*t^(1) + O(t^(2))")

    def test_rank_two_unreachable_target(self):
        # the gap t^(0,1) never doubles up to the first coordinate
        a = parse_series("1 + 1*t^(0,1)", rank=2)
        target = GroupElement([1, 0])
        for f in (nth_root, _full_precision_root):
            with pytest.raises(PrecisionStall):
                f(a, 2, target)


# -- invert and nth_root against the Newton kernel they replaced --------------


def _newton_inverse_root(unit, n, rel_needed):
    """``w`` with ``v(1 - unit w^n) >= rel_needed`` by Newton doubling (test oracle).

    The division-free step ``w <- w + w (1 - unit w^n) / n`` at doubling
    precision, every product bounded at the precision reached, with the
    rank-d stall test in front.
    """
    one = HahnSeries.constant(1, unit.rank)
    reached = (unit - one).valuation()
    if reached < rel_needed and any(rel_needed[: next(i for i, q in enumerate(reached) if q)]):
        raise PrecisionStall(
            "leading gap of the unit part lies in a later coordinate than the target; "
            "Newton doubling cannot reach the requested depth in lexicographic rank > 1"
        )
    w = one
    while reached < rel_needed:
        reached = min(reached + reached, rel_needed)
        wn = unit
        for _ in range(n):
            wn = wn._times(w, _key_of(reached))
        step = w._times(one - wn, _key_of(reached))
        w = w + (step if n == 1 else step.scale(Fraction(1, n)))
    return w


def _newton_invert(a, target_prec):
    """``invert`` on the Newton kernel (test oracle)."""
    if a.approx.is_zero():
        raise ZeroOrUncertainLeadingTerm("no determined leading term to invert")
    g = a.approx.valuation()
    c = a.approx.leading_coeff()
    if a.prec is INFINITE and len(a.approx.terms) == 1:
        return TruncatedSeries.monomial(1 / c, -g)
    if target_prec is INFINITE:
        raise ValueError("invert needs a finite target precision for non-monomials")
    rel_needed = target_prec - g - g
    rel_have = INFINITE if a.prec is INFINITE else a.prec - g
    if rel_have is not INFINITE and rel_have < rel_needed:
        raise InsufficientPrecision("operand precision cannot support the requested inverse")
    x = _newton_inverse_root(a.approx.shift(-g).scale(1 / c), 1, rel_needed)
    return TruncatedSeries(x.shift(-g).scale(1 / c), rel_needed - g)


def _newton_nth_root(a, n, target_prec):
    """``nth_root`` as ``u w^(n-1)`` for ``w = u^(-1/n)`` from the Newton kernel (test oracle)."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    if compare_sign(a) != POSITIVE:
        raise NotPositive("n-th root requires a positive element")
    g = a.approx.valuation()
    c0 = a.approx.leading_coeff()
    num, den = _int_root(c0.numerator, n), _int_root(c0.denominator, n)
    if num is None or den is None:
        raise IrrationalLeadingCoefficient(f"{c0} has no rational {n}-th root; rational-coefficient values only")
    g_over_n = g / n
    b = TruncatedSeries.monomial(Fraction(num, den), g_over_n)
    unit = TruncatedSeries(a.approx.shift(-g).scale(1 / c0), INFINITE if a.prec is INFINITE else a.prec - g)
    if unit == TruncatedSeries.one(a.rank):
        return b
    if target_prec is INFINITE:
        raise ValueError("nth_root needs a finite target precision unless the unit part is 1")
    res_target = target_prec - g
    if a.prec is not INFINITE and a.prec - g < res_target:
        raise InsufficientPrecision("operand precision cannot support the requested root")
    y = unit.approx
    if n > 1:
        w = _newton_inverse_root(y, n, res_target)
        for _ in range(n - 1):
            y = y._times(w, _key_of(res_target))
    x = b * TruncatedSeries(y, res_target)
    if a.is_exact():
        terms = x.approx.terms
        top = a.approx.terms[-1][0]
        for cut in range(len(terms), 0, -1):
            if terms[cut - 1][0] * n != top:
                continue
            cand = TruncatedSeries.exact(HahnSeries(terms[:cut], a.rank))
            if power(cand, n).approx == a.approx:
                return cand
    return x.truncate(res_target + g_over_n)


def _same_as_newton(f, oracle, *args):
    """``f(*args)`` equals the oracle's value, or raises its class and message."""
    try:
        want = oracle(*args)
    except Exception as exc:  # noqa: BLE001 - compared by class and message against f
        with pytest.raises(Exception) as err:
            f(*args)
        assert type(err.value) is type(exc) and str(err.value) == str(exc)
        return None
    got = f(*args)
    assert got.prec == want.prec and got.approx == want.approx and got == want
    assert hash(got) == hash(want) and format_series(got) == format_series(want)
    return got


def _oracle_exponent(draw, rank, lo, hi, firsts=(-1, 0, 1)):
    """An exponent whose coordinates have denominators 1 to 7."""
    last = Fraction(draw(st.integers(lo, hi)), draw(st.integers(1, 7)))
    if rank == 1:
        return ge(last)
    return GroupElement([Fraction(draw(st.sampled_from(firsts)), draw(st.integers(1, 7))), last])


# nonzero rationals with numerators up to 9 and denominators 1 to 7
ORACLE_COEFFS = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 7))


@st.composite
def unit_operands(draw, rank, lead):
    """``(a, guard, scale)``: ``a = lead t^g (1 + h)`` for h of 0 to 7 terms.

    Every exponent has coordinate denominators 1 to 7; ``lead`` draws the
    leading coefficient.  ``guard`` maps the target to the least operand
    precision that supports it; ``a`` is exact, at that guard, above it or
    below it.  ``scale`` is the leading gap v(h) (a unit step when h = 0),
    so the targets built on it stay a few gaps deep and the monoid below
    them small.
    """
    zero = GroupElement.zero(rank)
    g = _oracle_exponent(draw, rank, -4, 4)
    gaps = [_oracle_exponent(draw, rank, 1 if rank == 1 else -6, 8 if rank == 1 else 6, (0, 1, 2))
            for _ in range(draw(st.integers(0, 7)))]
    gaps = [e for e in gaps if e > zero]
    unit = HahnSeries([(zero, 1)] + [(e, draw(ORACLE_COEFFS)) for e in gaps], rank)
    scale = min(gaps) if gaps else (ge(1) if rank == 1 else GroupElement([0, 1]))
    approx = unit.shift(g).scale(draw(lead))
    return approx, g, scale


def _oracle_target(draw, rank, scale):
    """A relative target of at most 6 leading gaps, in rank 2 at times one step
    higher in the first coordinate (a stall when the gap lies in the second)."""
    rel = scale * Fraction(draw(st.integers(-2, 24)), 4)
    if rank == 2 and draw(st.booleans()):
        rel = rel + GroupElement([Fraction(1, draw(st.integers(1, 7))), 0])
    return rel


def _oracle_operand(draw, approx, guard, scale):
    kind = draw(st.sampled_from(["exact", "at guard", "above", "below"]))
    if kind == "exact":
        return TruncatedSeries.exact(approx)
    step = scale * Fraction(draw(st.integers(1, 4)), 4)
    return TruncatedSeries(approx, {"at guard": guard, "above": guard + step, "below": guard - step}[kind])


@st.composite
def invert_oracle_cases(draw, rank):
    """``(a, target)`` for ``invert``: the guard is ``target - v(a)``."""
    approx, g, scale = draw(unit_operands(rank, ORACLE_COEFFS))
    target = g + g + _oracle_target(draw, rank, scale)
    return _oracle_operand(draw, approx, target - g, scale), target


@st.composite
def root_oracle_cases(draw, rank):
    """``(a, n, target)`` for ``nth_root``: the guard is the target itself.

    The leading coefficient is mostly an n-th power, at times any rational
    (irrational roots, negative operands).
    """
    n = draw(st.sampled_from([1, 2, 3, 4, 5]))
    powers = st.sampled_from(ROOT_COEFFS).map(lambda r: r**n)
    lead = st.integers(0, 3).flatmap(lambda k: powers if k else ORACLE_COEFFS)
    approx, g, scale = draw(unit_operands(rank, lead))
    target = g + _oracle_target(draw, rank, scale)
    return _oracle_operand(draw, approx, target, scale), n, target


class TestUnitPowersAgainstNewton:
    """``invert`` and ``nth_root`` equal the Newton kernel they replaced:
    value, precision, hash and text, or the exception class and message."""

    @settings(max_examples=200)
    @given(invert_oracle_cases(1))
    def test_invert_rank_one(self, case):
        _same_as_newton(invert, _newton_invert, *case)

    @settings(max_examples=200)
    @given(invert_oracle_cases(2))
    def test_invert_rank_two(self, case):
        _same_as_newton(invert, _newton_invert, *case)

    @settings(max_examples=200)
    @given(root_oracle_cases(1))
    def test_nth_root_rank_one(self, case):
        _same_as_newton(nth_root, _newton_nth_root, *case)

    @settings(max_examples=200)
    @given(root_oracle_cases(2))
    def test_nth_root_rank_two(self, case):
        _same_as_newton(nth_root, _newton_nth_root, *case)

    def test_rank_two_stall(self):
        # gap (0,1), target (1,0): the same PrecisionStall from invert,
        # nth_root and the rv jet inverse
        from hahn_forge.rv import _jet_invert

        a = parse_series("1 + 1*t^(0,1)", rank=2)
        target = GroupElement([1, 0])
        for f, oracle, args in ((invert, _newton_invert, (a, target)),
                                (nth_root, _newton_nth_root, (a, 2, target)),
                                (nth_root, _newton_nth_root, (a, 3, target))):
            with pytest.raises(PrecisionStall):
                oracle(*args)
            _same_as_newton(f, oracle, *args)
        with pytest.raises(PrecisionStall) as err:
            _jet_invert(a.approx, target)
        with pytest.raises(PrecisionStall) as want:
            _newton_invert(a, target + GroupElement([0, 1]))
        assert str(err.value) == str(want.value)

    @pytest.mark.parametrize("text, n, target", [
        ("1 + 2*t^(1/2) + 1*t^(1)", 2, 3),
        ("4*t^(-2) + 4*t^(-1) + 1", 2, 2),
        ("1 + 3*t^(1/3) + 3*t^(2/3) + 1*t^(1)", 3, 2),
        ("1/4 - 1*t^(1/7) + 1*t^(2/7)", 2, 1),
        ("8*t^(3) + 12*t^(7/2) + 6*t^(4) + 1*t^(9/2)", 3, 5),
        ("1 + 2*t^(1/2) + 1*t^(1)", 2, Fraction(1, 2)),
    ])
    def test_exact_perfect_powers(self, text, n, target):
        root = _same_as_newton(nth_root, _newton_nth_root, s(text), n, ge(target))
        assert root is not None

    @pytest.mark.parametrize("text, target", [
        ("1 + 1*t^(1) + 1/3*t^(1001/1000)", 20),
        ("1 + 1*t^(1) - 2/3*t^(100001/100000)", 12),
    ])
    def test_close_gaps_stay_cheap(self, text, target):
        # gaps 1 and 1 + 1/N: a coefficient takes at most about target
        # generator factors, so the shared denominator must stay that small
        # however large N is, not grow with N times the target
        a, target = s(text), ge(target)
        calls = ((invert, _newton_invert, (a, target)),
                 (nth_root, _newton_nth_root, (a, 2, target)),
                 (nth_root, _newton_nth_root, (a, 3, target)))
        start = time.perf_counter()
        for f, _, args in calls:
            f(*args)
        assert time.perf_counter() - start < 2.0
        for f, oracle, args in calls:
            _same_as_newton(f, oracle, *args)

    @pytest.mark.parametrize("text, rank, target", [
        ("1 + 1*t^(1/2) - 3*t^(5/7)", 1, 4),
        ("2*t^(1) + O(t^(3))", 1, 3),
        ("3*t^(-2) + O(t^(1))", 1, -1),
        ("5*t^(1,-1) + O(t^(2,0))", 2, (2, 0)),
        ("1 + 1*t^(0,1) - 1*t^(1,-2)", 2, (0, 5)),
    ])
    def test_n_one_and_unit_part_one(self, text, rank, target):
        a = parse_series(text, rank)
        target = ge(target) if rank == 1 else GroupElement(list(target))
        for n in (1, 2, 3):
            _same_as_newton(nth_root, _newton_nth_root, a, n, target)
        _same_as_newton(invert, _newton_invert, a, target)
        _same_as_newton(invert, _newton_invert, a, target + target - a.approx.valuation())

    @pytest.mark.parametrize("text", ["1*t^(-2) + 1*t^(-1)", "4*t^(-3/2) - 1*t^(-1/3) + 1/7*t^(2)",
                                      "9*t^(-1/7) + 2*t^(1/7) + O(t^(3))"])
    def test_negative_valuations(self, text):
        a = s(text)
        for target in (ge(-3), ge(0), ge(Fraction(5, 2)), ge(4)):
            _same_as_newton(invert, _newton_invert, a, target)
            for n in (2, 3):
                _same_as_newton(nth_root, _newton_nth_root, a, n, target)

    def test_zero_with_precision(self):
        for rank, text in ((1, "0 + O(t^(5))"), (2, "0 + O(t^(1,0))")):
            a = parse_series(text, rank)
            target = a.prec + a.prec
            _same_as_newton(invert, _newton_invert, a, target)
            for n in (1, 2):
                _same_as_newton(nth_root, _newton_nth_root, a, n, target)

    def test_infinite_target(self):
        for rank, text in ((1, "4*t^(2)"), (1, "4*t^(2) + O(t^(3))"), (1, "1 + 1*t^(1)"),
                           (2, "4*t^(2,-2)"), (2, "1 + 1*t^(0,1)")):
            a = parse_series(text, rank)
            _same_as_newton(invert, _newton_invert, a, INFINITE)
            for n in (1, 2):
                _same_as_newton(nth_root, _newton_nth_root, a, n, INFINITE)


@st.composite
def horner_operands(draw, rank, kinds=("exact", "inexact", "inexact", "exact zero", "zero below")):
    """A coefficient or argument of ``poly_eval``: exact, known below a precision,
    the exact zero or ``0 + O(t^p)``; rational coefficients, exponents of
    denominators 1 to 7, negative ones included."""
    kind = draw(st.sampled_from(kinds))
    if kind == "exact zero":
        return TruncatedSeries.zero(rank)
    prec = _oracle_exponent(draw, rank, -2, 14)
    if kind == "zero below":
        return TruncatedSeries(HahnSeries.zero(rank), prec)
    terms = [(_oracle_exponent(draw, rank, -4, 8), draw(ORACLE_COEFFS)) for _ in range(draw(st.integers(1, 4)))]
    approx = HahnSeries(terms, rank)
    return TruncatedSeries.exact(approx) if kind == "exact" else TruncatedSeries(approx, prec)


@st.composite
def horner_cases(draw, rank, kinds=("exact", "inexact", "inexact", "exact zero", "zero below"), min_size=0,
                 finite=False):
    """``(coeffs, x, prec)`` for ``poly_eval``; ``prec`` is INFINITE on about half the draws unless ``finite``."""
    coeffs = [draw(horner_operands(rank, kinds)) for _ in range(draw(st.integers(min_size, 5)))]
    x = draw(horner_operands(rank, kinds))
    if not finite and draw(st.booleans()):
        return coeffs, x, INFINITE
    return coeffs, x, _oracle_exponent(draw, rank, -2, 14)


def _fold_poly_eval(coeffs, x, prec=INFINITE):
    """Horner by ``field_op``, every step ``total x + c`` cut at ``prec``
    (test oracle: the loop ``poly_eval`` ran before it worked on the grid)."""
    total = TruncatedSeries.zero(x.rank)
    for c in reversed(coeffs):
        total = field_op("add", field_op("mul", total, x), c).truncate(prec)
    return total


class TestPolyEvalAgainstFold:
    """``poly_eval`` equals the ``field_op`` fold: value, precision, hash and
    text, or the exception class and message."""

    @settings(max_examples=300)
    @given(horner_cases(1))
    def test_rank_one(self, case):
        _same_as_newton(poly_eval, _fold_poly_eval, *case)

    @settings(max_examples=300)
    @given(horner_cases(2))
    def test_rank_two(self, case):
        _same_as_newton(poly_eval, _fold_poly_eval, *case)

    @pytest.mark.parametrize("coeffs, x, prec, rank", [
        ([], "1 + 1*t^(1) + O(t^(2))", 3, 1),
        ([], "0", INFINITE, 2),
        (["1", "2*t^(-1)", "0 + O(t^(2))"], "1*t^(-1/2) + O(t^(1/3))", 4, 1),
        (["1/3*t^(2)", "0", "-1/3*t^(2)"], "0", 1, 1),
        (["1", "-2*t^(1)", "1*t^(2)"], "1*t^(1)", INFINITE, 1),
        (["1 + O(t^(5,0))", "1/2*t^(0,-1)", "0 + O(t^(1,0))"], "1*t^(0,1) - 2/3*t^(1,-1) + O(t^(1,0))", (2, 0), 2),
        (["0 + O(t^(0,3))", "1*t^(-1,2)"], "0 + O(t^(1,-2))", (0, 1), 2),
    ])
    def test_fixed(self, coeffs, x, prec, rank):
        coeffs = [parse_series(c, rank) for c in coeffs]
        x = parse_series(x, rank)
        if prec is not INFINITE:
            prec = ge(prec) if rank == 1 else GroupElement(list(prec))
        _same_as_newton(poly_eval, _fold_poly_eval, coeffs, x, prec)

    def test_rank_mismatch(self):
        coeffs = [s("1"), parse_series("1*t^(0,1)", rank=2), s("2")]
        for prec in (INFINITE, ge(3)):
            with pytest.raises(ValueError, match="rank mismatch"):
                _fold_poly_eval(coeffs, s("1*t^(1)"), prec)
            _same_as_newton(poly_eval, _fold_poly_eval, coeffs, s("1*t^(1)"), prec)


def _oracle_poly_sum(coeffs, x):
    """``sum c_i x^i`` of exact operands by Fraction dicts over ``.terms`` (shares no code with
    ``poly_eval``): ``{exponent tuple: coefficient}`` without zero coefficients."""
    rank = x.rank
    xd = {tuple(e): c for e, c in x.approx.terms}
    total, power = {}, {(Fraction(0),) * rank: Fraction(1)}
    for c in coeffs:
        for e, a in c.approx.terms:
            for f, b in power.items():
                k = _vadd(tuple(e), f)
                total[k] = total.get(k, Fraction(0)) + a * b
        power = _dict_mul(power, xd)
    return {e: c for e, c in total.items() if c}


class TestPolyEvalOracle:
    """``poly_eval`` of exact operands against an independent sum of Fraction dicts."""

    def _check(self, coeffs, x, prec):
        want = sorted(_oracle_poly_sum(coeffs, x).items())
        exact = poly_eval(coeffs, x)
        assert exact.is_exact()
        assert [(tuple(e), c) for e, c in exact.approx.terms] == want
        cut = poly_eval(coeffs, x, prec)
        assert cut.prec is not INFINITE and cut.prec <= prec
        assert [(tuple(e), c) for e, c in cut.approx.terms] == [(e, c) for e, c in want if e < tuple(cut.prec)]
        if x.approx.is_zero() or x.approx.valuation() >= GroupElement.zero(x.rank):
            assert cut.prec == prec

    @settings(max_examples=200)
    @given(horner_cases(1, kinds=("exact", "exact", "exact zero"), min_size=1, finite=True))
    def test_rank_one(self, case):
        self._check(*case)

    @settings(max_examples=200)
    @given(horner_cases(2, kinds=("exact", "exact", "exact zero"), min_size=1, finite=True))
    def test_rank_two(self, case):
        self._check(*case)


class TestIntegerNthRoot:
    """``_integer_nth_root`` is Newton's iteration on ints, exact on coefficients of any size."""

    BIG = 2**100 + 2**40

    def test_a_large_square_leading_coefficient(self):
        a = parse_series(f"{self.BIG**2} + 1*t^(1)")
        root = nth_root(a, 2, ge(3))
        assert root.approx.leading_coeff() == self.BIG
        diff = root * root - a
        assert diff.approx.is_zero() or diff.approx.valuation() >= ge(3)

    def test_above_512_bits(self):
        assert _integer_nth_root(9 * 2**596, 2) == 3 * 2**298
        assert _integer_nth_root(9 * 2**596 + 1, 2) is None

    def test_a_non_square_neighbour(self):
        with pytest.raises(IrrationalLeadingCoefficient):
            nth_root(parse_series(f"{self.BIG**2 + 1} + 1*t^(1)"), 2, ge(3))

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError, match="positive integer"):
            nth_root(parse_series("4"), 0, ge(3))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 2**700), st.integers(1, 7), st.booleans())
    def test_exact_roots_and_the_floor(self, m, n, power_of_m):
        if power_of_m:
            m = m ** n
        floor, exact = sympy.integer_nthroot(m, n)
        assert floor**n <= m < (floor + 1)**n
        assert _integer_nth_root(m, n) == (floor if exact else None)


class TestDocumentedErrors:
    def test_the_infinite_valuation(self):
        assert INFINITE >= ge(5) and repr(INFINITE) == "Infinite"
        with pytest.raises(ArithmeticError, match="cannot negate"):
            -INFINITE

    def test_printing_and_immutability(self):
        assert repr(ge(Fraction(1, 2))) == "GroupElement('1/2')"
        x = s("1 + 1*t^(1)")
        with pytest.raises(AttributeError, match="HahnSeries is immutable"):
            x.approx.rank = 2
        with pytest.raises(AttributeError, match="TruncatedSeries is immutable"):
            x.rank = 2

    def test_an_unknown_field_op(self):
        with pytest.raises(ValueError, match="unknown field op 'pow'"):
            field_op("pow", s("1"), s("2"))
