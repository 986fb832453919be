"""Gauss data, division, splitting, and substitution on multivariate truncations."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hahn_forge.errors import NonUnitNorm, NotAUnit, NotRegular, TermSyntaxError
from hahn_forge.multiseries import (
    MultiSeries,
    format_multiseries,
    gauss_data,
    in_truncation_ideal,
    ms_add,
    ms_mul,
    ms_sub,
    ms_substitute,
    parse_multiseries,
    recenter_rescale,
    regular_degree,
    strong_split,
    unit_invert,
    weierstrass_divide,
)
from hahn_forge.series import INFINITE, GroupElement, HahnSeries, TruncatedSeries, parse_series

ge = lambda x: GroupElement.scalar(Fraction(x))
ms = parse_multiseries


def embed(f, positions, nvars):
    """Re-index the variables of f into a larger ring."""
    coeffs = {}
    for idx, c in f.coeffs.items():
        nidx = [0] * nvars
        for i, e in enumerate(idx):
            nidx[positions[i]] = e
        coeffs[tuple(nidx)] = c
    return MultiSeries(nvars, f.degree, coeffs, rank=f.rank)


def division_defect(f, g, var, q, r_list, d_out):
    wide = d_out + f.max_degree() + 1
    widen = lambda h: MultiSeries(h.nvars, wide, dict(h.coeffs), rank=h.rank)
    defect = ms_sub(widen(g), ms_mul(widen(q), widen(f), wide, None), wide, None)
    for i, r in enumerate(r_list):
        mono = MultiSeries.variable(var, f.nvars, wide)
        term = widen(r)
        for _ in range(i):
            term = ms_mul(term, mono, wide, None)
        defect = ms_sub(defect, term, wide, None)
    return defect


class TestGaussData:
    def test_norm_zero(self):
        norm, top = gauss_data(ms("[1]*x1 + [t^(1)]*x2"))
        assert norm == ge(0)
        assert top == ms("[1]*x1", nvars=2)

    def test_norm_positive(self):
        norm, top = gauss_data(ms("[t^(2)] + [t^(2)]*x1"))
        assert norm == ge(2)
        assert top == ms("[1] + [1]*x1")

    def test_norm_negative(self):
        norm, top = gauss_data(ms("[1*t^(-1)]*x1*x2 + [3]*x1"))
        assert norm == ge(-1)
        assert top == ms("[1]*x1*x2")


class TestRegularDegree:
    def test_degree_two(self):
        assert regular_degree(ms("[1]*x1^2 + [-1*t^(1)]"), 0) == 2

    def test_degree_zero(self):
        assert regular_degree(ms("[1] + [-1]*x1"), 0) == 0

    def test_not_regular(self):
        with pytest.raises(NotRegular):
            regular_degree(ms("[t^(1)]*x1 + [1]*x2"), 0)

    def test_norm_must_be_zero(self):
        from hahn_forge.errors import NormNotOne

        with pytest.raises(NormNotOne):
            regular_degree(ms("[t^(1)]*x1"), 0)


class TestWeierstrassDivide:
    def test_cubic_by_quadratic(self):
        f = ms("[1]*x1^2 + [-1*t^(1)]")
        g = ms("[1]*x1^3")
        q, r = weierstrass_divide(f, g, 0, 3, ge(6))
        assert q == ms("[1]*x1")
        assert r[0].is_zero()
        assert r[1] == ms("[t^(1)]")

    def test_geometric_quotient(self):
        f = ms("[1] + [-1]*x1")
        g = ms("[1]")
        q, r = weierstrass_divide(f, g, 0, 3, ge(4))
        assert q == ms("[1] + [1]*x1 + [1]*x1^2 + [1]*x1^3")
        assert r == []

    def test_linear_two_vars(self):
        f = ms("[1]*x1 + [t^(1)]*x2")
        g = ms("[1]*x1")
        q, r = weierstrass_divide(f, g, 0, 3, ge(4))
        assert q == ms("[1]", nvars=2)
        assert r[0] == ms("[-1*t^(1)]*x2", nvars=2)

    def test_random_division_identity(self):
        rng = random.Random("division")
        for _ in range(25):
            f, g, var, d_out = _random_division_instance(rng)
            prec = ge(5)
            q, r = weierstrass_divide(f, g, var, d_out, prec)
            defect = division_defect(f, g, var, q, r_list=r, d_out=d_out)
            assert in_truncation_ideal(defect, d_out, prec)
            # norms of quotient and remainders sit at or above the norm of g
            if not g.is_zero():
                ng, _ = gauss_data(g)
                for part in [q, *r]:
                    if not part.is_zero():
                        np_, _ = gauss_data(part)
                        assert np_ >= ng
            for part in r:
                assert part.var_degree(var) == 0

    def test_rejects_nonunit_norm(self):
        with pytest.raises(NonUnitNorm):
            weierstrass_divide(ms("[t^(1)]*x1"), ms("[1]"), 0, 2, ge(3))

    def test_deterministic(self):
        f = ms("[1]*x1^2 + [-1*t^(1)] + [t^(1/2)]*x1*x2")
        g = ms("[1]*x1^3 + [2]*x2")
        a = weierstrass_divide(f, g, 0, 4, ge(5))
        b = weierstrass_divide(f, g, 0, 4, ge(5))
        assert a[0] == b[0] and a[1] == b[1]


def _random_division_instance(rng):
    nvars = rng.randint(1, 3)
    var = rng.randrange(nvars)
    s = rng.randint(0, 3)
    d_out = rng.randint(max(s, 1), 6)
    exps = [Fraction(k, 4) for k in range(-8, 17)]
    pos_exps = [e for e in exps if e > 0]
    nonneg = [e for e in exps if e >= 0]

    def coeff(pool, terms=2):
        t = [(ge(rng.choice(pool)), Fraction(rng.randint(-5, 5))) for _ in range(rng.randint(1, terms))]
        from hahn_forge.series import HahnSeries

        h = HahnSeries(t)
        if h.is_zero():
            h = HahnSeries([(ge(rng.choice(pool)), Fraction(1))])
        return TruncatedSeries.exact(h)

    def axis_idx(k):
        return tuple(k if i == var else 0 for i in range(nvars))

    coeffs = {axis_idx(s): coeff(nonneg[: nonneg.index(Fraction(0)) + 1] and [Fraction(0)] or [Fraction(0)])}
    # leading axis coefficient: valuation exactly zero
    from hahn_forge.series import HahnSeries

    lead_terms = [(ge(0), Fraction(rng.randint(1, 4)))]
    if rng.random() < 0.5:
        lead_terms.append((ge(rng.choice(pos_exps)), Fraction(rng.randint(-4, 4))))
    coeffs[axis_idx(s)] = TruncatedSeries.exact(HahnSeries(lead_terms))
    for k in range(s):
        if rng.random() < 0.6:
            coeffs[axis_idx(k)] = coeff(pos_exps)
    for _ in range(rng.randint(0, 4)):
        idx = tuple(rng.randint(0, 2) for _ in range(nvars))
        if sum(idx) == 0 or sum(idx) > 6:
            continue
        if all(e == 0 for i, e in enumerate(idx) if i != var) and idx[var] < s:
            continue
        coeffs.setdefault(idx, coeff(nonneg))
    f = MultiSeries(nvars, max(6, s), coeffs)

    gcoeffs = {}
    for _ in range(rng.randint(1, 4)):
        idx = tuple(rng.randint(0, 2) for _ in range(nvars))
        if sum(idx) > 6:
            continue
        gcoeffs[idx] = coeff(exps)
    g = MultiSeries(nvars, 6, gcoeffs)
    return f, g, var, d_out


class TestStrongSplit:
    def test_pair(self):
        f1, f2, q = strong_split(ms("[1]*x1*x2"))
        assert f1 == ms("[1]*x2", nvars=2)  # eta3 sits in the second slot of (eta1, eta3)
        assert f2.is_zero()
        assert q == MultiSeries(3, 2, {(0, 0, 0): TruncatedSeries.one()})

    def test_square_pair(self):
        f1, f2, q = strong_split(ms("[1]*x1^2*x2"))
        assert f1 == ms("[1]*x1*x2", nvars=2)
        assert f2.is_zero()
        assert q == ms("[1]*x1", nvars=3)

    def test_disjoint(self):
        f1, f2, q = strong_split(ms("[1]*x1 + [1]*x2"))
        assert f1 == ms("[1]*x1", nvars=2)
        assert f2 == ms("[1]", nvars=2)
        assert q.is_zero()

    def test_identity_random(self):
        rng = random.Random("split")
        for _ in range(30):
            n = rng.randint(0, 1)
            nvars = n + 2
            coeffs = {}
            for _ in range(rng.randint(1, 6)):
                idx = tuple(rng.randint(0, 3) for _ in range(nvars))
                if sum(idx) > 6:
                    continue
                coeffs[idx] = TruncatedSeries.constant(Fraction(rng.randint(-5, 5)))
            f = MultiSeries(nvars, 6, coeffs)
            f1, f2, q = strong_split(f)
            assert _split_defect(f, f1, f2, q, n).is_zero()


def _split_defect(f, f1, f2, q, n):
    big = n + 3
    deg = f.degree + 2
    widen = lambda h, pos: MultiSeries(big, deg, embed(h, pos, big).coeffs, rank=h.rank)
    xi = list(range(n))
    f_b = widen(f, xi + [n, n + 1])
    f1_b = widen(f1, xi + [n, n + 2])
    f2_b = widen(f2, xi + [n + 1, n + 2])
    q_b = MultiSeries(big, deg, dict(q.coeffs), rank=q.rank)
    eta2 = MultiSeries.variable(n + 1, big, deg)
    relation = ms_sub(
        ms_mul(MultiSeries.variable(n, big, deg), eta2, deg, None),
        MultiSeries.variable(n + 2, big, deg),
        deg,
        None,
    )
    total = ms_add(f1_b, ms_mul(eta2, f2_b, deg, None), deg, None)
    total = ms_add(total, ms_mul(q_b, relation, deg, None), deg, None)
    return ms_sub(f_b, total, deg, None)


class TestUnitInvert:
    def test_geometric(self):
        out = unit_invert(ms("[1] + [1]*x1"), 3, ge(4))
        assert out == ms("[1] + [-1]*x1 + [1]*x1^2 + [-1]*x1^3")

    def test_with_series_constant(self):
        u = ms("[2 + 1*t^(1)] + [1]*x1")
        v = unit_invert(u, 3, ge(4))
        prod = ms_mul(u, v, 3, None)
        defect = ms_sub(prod, ms("[1]"), 3, None)
        assert in_truncation_ideal(defect, 3, ge(4))

    def test_not_a_unit(self):
        with pytest.raises(NotAUnit):
            unit_invert(ms("[1]*x1"), 3, ge(4))

    def test_matches_division_of_one(self):
        # reference: the quotient of 1 by the unit, which is regular of degree 0
        rng = random.Random("unit-invert")
        exps = [Fraction(k, d) for k in range(0, 7) for d in (1, 2, 3)]

        def coeff(lowest):
            terms = [(ge(rng.choice([e for e in exps if e >= lowest])), Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
                     for _ in range(rng.randint(1, 3))]
            approx = HahnSeries(terms)
            if rng.random() < 0.4:
                return TruncatedSeries(approx, ge(rng.choice([e for e in exps if e > lowest])))
            return TruncatedSeries.exact(approx)

        for _ in range(150):
            nvars = rng.randint(1, 3)
            coeffs = {(0,) * nvars: coeff(Fraction(1, 3)) + TruncatedSeries.constant(rng.choice([-3, -1, 1, 2]))}
            for _ in range(rng.randint(0, 4)):
                idx = tuple(rng.randint(0, 2) for _ in range(nvars))
                if any(idx):
                    coeffs[idx] = coeff(Fraction(0) if rng.random() < 0.5 else Fraction(1, 2))
            u = MultiSeries(nvars, 6, coeffs)
            d_out, prec_out = rng.randint(0, 5), ge(rng.randint(0, 5))
            one = MultiSeries.constant(TruncatedSeries.one(), nvars, d_out)
            try:
                want = format_multiseries(weierstrass_divide(u, one, 0, d_out, prec_out)[0])
            except Exception as exc:  # noqa: BLE001 - compared by class and message
                with pytest.raises(type(exc)) as err:
                    unit_invert(u, d_out, prec_out)
                assert str(err.value) == str(exc)
                continue
            assert format_multiseries(unit_invert(u, d_out, prec_out)) == want


class TestRecenterRescale:
    def test_shift_square(self):
        out = recenter_rescale(ms("[1]*x1^2"), [Fraction(1)], Fraction(1))
        assert out == ms("[1] + [2]*x1 + [1]*x1^2")

    def test_rescale(self):
        out = recenter_rescale(ms("[1]*x1"), [Fraction(0)], Fraction(1, 2))
        assert out == ms("[1/2]*x1")

    def test_composition_law(self):
        rng = random.Random("recenter")
        for _ in range(25):
            coeffs = {}
            for _ in range(rng.randint(1, 5)):
                idx = (rng.randint(0, 3), rng.randint(0, 2))
                if sum(idx) > 4:
                    continue
                coeffs[idx] = TruncatedSeries.constant(Fraction(rng.randint(-4, 4)))
            f = MultiSeries(2, 4, coeffs)
            a = [Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2))]
            b = [Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2))]
            lhs = recenter_rescale(recenter_rescale(f, a, Fraction(1)), b, Fraction(1))
            rhs = recenter_rescale(f, [x + y for x, y in zip(a, b)], Fraction(1))
            assert lhs == rhs


class TestSubstitutionAndEval:
    def test_substitute_linear(self):
        f = ms("[1]*x1^2 + [1]*x2")
        r = ms("[1]*x1 + [1]*x1^2", nvars=2)
        out = ms_substitute(f, 1, r, 4, ge(6))
        assert out == ms("[1]*x1 + [2]*x1^2", nvars=2)

    def test_substitute_square(self):
        f = ms("[1]*x2^2 + [1]*x1")
        r = ms("[1]*x1 + [1]*x1^2", nvars=2)
        out = ms_substitute(f, 1, r, 4, ge(6))
        # (x1 + x1^2)^2 + x1
        assert out == ms("[1]*x1 + [1]*x1^2 + [2]*x1^3 + [1]*x1^4", nvars=2)

    def test_text_round_trip(self):
        text = "[1 - 1*t^(1)]*x1^2 + [3/2]*x2"
        assert format_multiseries(ms(text)) == "[3/2]*x2 + [1 - 1*t^(1)]*x1^2"
        assert ms(format_multiseries(ms(text))) == ms(text)

    # accepted spellings, README examples and golden argv, with their canonical form
    ACCEPTED = [
        ("[1]*x1^2 + [-1*t^(1)]", "[-1*t^(1)] + [1]*x1^2"),
        ("[1]*x1^3", "[1]*x1^3"),
        ("[1]*x2 + [1]*x2^2 + [-1]*x1", "[1]*x2 + [-1]*x1 + [1]*x2^2"),
        ("[1]*x1*x2", "[1]*x1*x2"),
        ("[1 + O(t^(2))]*x1 + [0 + O(t^(3))]", "[0 + O(t^(3))] + [1 + O(t^(2))]*x1"),
        ("[-1]*x1 + [-3/2*t^(1/2)]", "[-3/2*t^(1/2)] + [-1]*x1"),
        ("[3/ 2]*x1 + [t^( 1 / 2 )]", "[1*t^(1/2)] + [3/2]*x1"),
    ]

    @pytest.mark.parametrize("text, canonical", ACCEPTED)
    def test_accepted_corpus(self, text, canonical):
        f = ms(text)
        assert format_multiseries(f) == canonical
        assert ms(canonical) == f

    @pytest.mark.parametrize("text", ["[1]*x1 - [2]", "[1 + O(t^(2)) + 3]", "[O(t^(2))]*x1", "[1]*x1 [2]"])
    def test_rejected_corpus(self, text):
        with pytest.raises(TermSyntaxError):
            ms(text)

    @pytest.mark.parametrize("text", ["[1]*x0", "[1]*x", "[1]*x1^", "[1]*x1^-1", "[1]*x-1", ""])
    def test_rejected_variables(self, text):
        with pytest.raises(TermSyntaxError):
            ms(text)

    def test_variable_beyond_nvars_is_rejected(self):
        with pytest.raises(TermSyntaxError, match="x3 is beyond the 2 variables"):
            parse_multiseries("[1]*x3 + [2]", nvars=2)
        assert parse_multiseries("[1]*x2 + [2]", nvars=2).nvars == 2
        assert parse_multiseries("[1]*x3 + [2]").nvars == 3

    def test_blanks_and_newlines_between_tokens(self):
        assert ms("[1] * x1 ^ 2 +\n[-1*t^(1)]") == ms("[1]*x1^2 + [-1*t^(1)]")

    def test_error_column_in_the_whole_text(self):
        with pytest.raises(TermSyntaxError) as err:
            ms("[1]*x1 + [2*t^(1.5)]")
        assert err.value.col == 17

    @given(st.data())
    def test_format_parse_round_trip(self, data):
        rank = data.draw(st.sampled_from([1, 2]))
        f = data.draw(multiseries(rank))
        assert parse_multiseries(format_multiseries(f), nvars=f.nvars, rank=f.rank) == f


@st.composite
def truncated_coefficients(draw, rank):
    """Exact and truncated series, ``0 + O(t^p)`` included."""
    exponent = st.builds(
        lambda num, den: Fraction(num, den), st.integers(-4, 8), st.sampled_from([1, 2, 3])
    )
    exps = draw(st.lists(st.tuples(*[exponent] * rank), max_size=4, unique=True))
    coeffs = [
        Fraction(draw(st.integers(-9, 9).filter(bool)), draw(st.integers(1, 4))) for _ in exps
    ]
    approx = HahnSeries([(GroupElement(e), c) for e, c in zip(exps, coeffs)], rank=rank)
    prec = draw(st.one_of(st.just(INFINITE), st.tuples(*[exponent] * rank).map(GroupElement)))
    return TruncatedSeries(approx, prec)


@st.composite
def multiseries(draw, rank):
    nvars = draw(st.integers(1, 3))
    degree = draw(st.integers(0, 3))
    monomials = st.tuples(*[st.integers(0, degree)] * nvars).filter(lambda idx: sum(idx) <= degree)
    idxs = draw(st.lists(monomials, max_size=4, unique=True))
    coeffs = {idx: draw(truncated_coefficients(rank)) for idx in idxs}
    return MultiSeries(nvars, degree, coeffs, rank=rank)


class TestTruncatedInputs:
    def test_divide_with_truncated_coefficients(self):
        # coefficients carrying finite precision flow through the division
        f = MultiSeries(
            1,
            4,
            {
                (2,): parse_series("1"),
                (0,): parse_series("-1*t^(1) + O(t^(6))"),
            },
        )
        g = ms("[1]*x1^3")
        q, r = weierstrass_divide(f, g, 0, 3, ge(5))
        assert q == ms("[1]*x1")
        assert r[1].coefficient((0,)).approx == parse_series("1*t^(1)").approx

    def test_divide_zero_dividend(self):
        f = ms("[1]*x1^2 + [-1*t^(1)]")
        q, r = weierstrass_divide(f, MultiSeries.zero(1, 4), 0, 3, ge(5))
        assert q.is_zero() and all(x.is_zero() for x in r)

    def test_parse_negative_coefficient(self):
        m = ms("[-1]*x1 + [-3/2*t^(1/2)]")
        assert m.coefficient((1,)).approx.leading_coeff() == Fraction(-1)
