"""Gauss data, division, splitting, and substitution on multivariate truncations."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hahn_forge import analytic, multiseries as multiseries_module
from hahn_forge.analytic import implicit_series, ms_drop_var
from hahn_forge.errors import NonUnitNorm, NormNotOne, NotAUnit, NotRegular, NotRegularDegreeOne, TermSyntaxError
from hahn_forge.multiseries import (
    MultiSeries,
    _clip,
    format_multiseries,
    gauss_data,
    in_truncation_ideal,
    ms_add,
    ms_mul,
    ms_neg,
    ms_pad,
    ms_scale,
    ms_sub,
    ms_substitute,
    parse_multiseries,
    recenter_rescale,
    regular_degree,
    strong_split,
    unit_invert,
    weierstrass_divide,
)
from hahn_forge.series import INFINITE, GroupElement, HahnSeries, TruncatedSeries, format_series, invert, parse_series

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

    @pytest.mark.parametrize("var", [-1, 2])
    def test_var_out_of_range(self, var):
        with pytest.raises(ValueError, match=f"variables 0 to 1, got var {var}$"):
            regular_degree(ms("[1]*x1^2 + [1]*x2"), var)


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

    @pytest.mark.parametrize("var", [-1, 2])
    def test_var_out_of_range(self, var):
        # the range is the dividend's two variables, not the divisor's one
        with pytest.raises(ValueError, match=f"variables 0 to 1, got var {var}$"):
            weierstrass_divide(ms("[1] + [1]*x1"), ms("[1]*x1*x2"), var, 3, ge(4))

    def test_var_of_the_dividend_alone(self):
        # the unit 1 + x1, padded to two variables, is regular of degree 0 in x2
        f, g = ms("[1] + [1]*x1"), ms("[1]*x2 + [1]*x1*x2")
        q, r = weierstrass_divide(f, g, 1, 3, ge(4))
        assert q == ms("[1]*x2") and r == []

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

    def test_infinite_precision_with_a_dividend_of_negative_norm(self):
        f = ms("[1]*x1^2 + [-1*t^(1)]")
        g = ms("[1*t^(-1)]*x1^3")
        q, r = weierstrass_divide(f, g, 0, 3, INFINITE)
        assert q == ms("[1*t^(-1)]*x1")
        assert r[0].is_zero() and r[1] == ms("[1]")
        assert [format_multiseries(x) for x in (q, *r)] == ["[1*t^(-1)]*x1", "[0]", "[1]"]
        assert (q, r) == weierstrass_divide(f, g, 0, 3, ge(20))
        defect = division_defect(f, g, 0, q, r_list=r, d_out=3)
        assert defect.is_zero() and in_truncation_ideal(defect, 3, INFINITE)

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


# In-test copy of the division before each step was made to run once: the
# divisor and every residual were re-clipped by ``_extract_low`` and
# ``_extract_high``, the last residual was recomputed after the loop, the
# remainder was split in one pass per power of the variable, and the unit's
# geometric series negated its ratio on every step.


def _old_clip_window(t, degree, prec, keep):
    return MultiSeries(t.nvars, degree, _clip(keep, degree, prec), rank=t.rank)


def _old_extract_high(t, var, s, degree, prec):
    high = {}
    for idx, c in t.coeffs.items():
        if idx[var] >= s:
            high[tuple(e - s if i == var else e for i, e in enumerate(idx))] = c
    return _old_clip_window(t, degree, prec, high)


def _old_extract_low(t, var, s, degree, prec):
    return _old_clip_window(t, degree, prec, {i: c for i, c in t.coeffs.items() if i[var] < s})


def _old_invert_unit(u, degree, prec):
    gamma = u.coeffs.get((0,) * u.nvars)
    if gamma is None or gamma.approx.is_zero() or not gamma.approx.valuation().is_zero():
        raise NotAUnit("constant coefficient is not a valuation-zero unit")
    gamma_inv = invert(gamma, prec)
    n = ms_sub(ms_scale(u, gamma_inv), MultiSeries.constant(TruncatedSeries.one(u.rank), u.nvars, degree), degree, prec)
    acc = power = MultiSeries.constant(TruncatedSeries.one(u.rank), u.nvars, degree)
    for _ in range(4096):
        power = ms_mul(power, ms_neg(n), degree, prec)
        if power.is_zero():
            break
        acc = ms_add(acc, power, degree, prec)
    else:
        raise RuntimeError("unit inversion did not stabilize; widen the precision window")
    return ms_scale(acc, gamma_inv)


def _old_regular_degree(f, var):
    norm, top = gauss_data(f)
    if not norm.is_zero():
        raise NormNotOne("regularity is defined at additive norm zero")
    best = None
    for idx in top.coeffs:
        if all(e == 0 for i, e in enumerate(idx) if i != var):
            if best is None or idx[var] < best:
                best = idx[var]
    if best is None:
        raise NotRegular(f"top slice vanishes on the x{var + 1} axis within degree {f.degree}")
    return best


def _old_divide(f, g, var, d_out, prec_out):
    norm, _ = gauss_data(f)
    if not norm.is_zero():
        raise NonUnitNorm("the divisor must have additive norm zero")
    s = _old_regular_degree(f, var)
    nvars = max(f.nvars, g.nvars)
    f, g = ms_pad(f, nvars), ms_pad(g, nvars)
    if g.is_zero():
        zero = MultiSeries.zero(nvars, d_out, rank=f.rank)
        return zero, [zero] * s
    d_work = d_out + s
    norm_g, _ = gauss_data(g)
    # an infinite prec_out stays infinite (the old loop raised TypeError here)
    deeper = prec_out is not INFINITE and norm_g < GroupElement.zero(norm_g.rank)
    prec_work = prec_out - norm_g if deeper else prec_out
    f_w = _old_clip_window(f, d_work, prec_work, dict(f.coeffs))
    w_part = _old_extract_low(f_w, var, s, d_work, prec_work)
    v_inv = _old_invert_unit(_old_extract_high(f_w, var, s, d_work, prec_work), d_work, prec_work)
    g_w = _old_clip_window(g, d_work, prec_work, dict(g.coeffs))
    q = MultiSeries.zero(f.nvars, d_work, rank=f.rank)
    for _ in range(4096):
        t = ms_sub(g_w, ms_mul(q, w_part, d_work, prec_work), d_work, prec_work)
        q_next = ms_mul(v_inv, _old_extract_high(t, var, s, d_work, prec_work), d_work, prec_work)
        if q_next == q:
            break
        q = q_next
    else:
        raise RuntimeError("division did not stabilize; widen the precision window")
    t = ms_sub(g_w, ms_mul(q, w_part, d_work, prec_work), d_work, prec_work)
    remainder = _old_extract_low(t, var, s, d_out, prec_out)
    r_list = []
    for i in range(s):
        coeffs = {}
        for idx, c in remainder.coeffs.items():
            if idx[var] == i:
                coeffs[tuple(0 if j == var else e for j, e in enumerate(idx))] = c
        r_list.append(MultiSeries(f.nvars, d_out, coeffs, rank=f.rank))
    return _old_clip_window(q, d_out, prec_out, dict(q.coeffs)), r_list


def _old_unit_invert(u, d_out, prec_out):
    norm, top = gauss_data(u)
    if not norm.is_zero():
        raise NotAUnit("a unit must have additive norm zero")
    if (0,) * u.nvars not in top.coeffs:
        raise NotAUnit("top slice vanishes at the origin")
    inv = _old_invert_unit(_old_clip_window(u, d_out, prec_out, dict(u.coeffs)), d_out, prec_out)
    return _old_clip_window(u, d_out, prec_out, dict(inv.coeffs))


def _old_implicit_series(f, d_out, prec_out):
    norm, _ = gauss_data(f)
    if not norm.is_zero():
        raise NotRegularDegreeOne("implicit solving needs additive norm zero")
    yvar = f.nvars - 1
    s = _old_regular_degree(f, yvar)
    if s != 1:
        raise NotRegularDegreeOne(f"regular of degree {s}, need degree 1")
    g = MultiSeries.variable(yvar, f.nvars, max(f.degree, d_out), rank=f.rank)
    r = _old_divide(f, g, yvar, d_out, prec_out)[1][0]
    const = r.coefficient((0,) * r.nvars)
    if not const.approx.is_zero() and not (const.approx.valuation() > GroupElement.zero(r.rank)):
        raise NotRegularDegreeOne("root value at the origin is not infinitesimal")
    return ms_drop_var(r, yvar)


def _old_in_truncation_ideal(f, degree, prec):
    for idx, c in f.coeffs.items():
        if sum(idx) > degree:
            continue
        if not c.approx.is_zero():
            if c.approx.valuation() < prec:
                return False
        elif c.prec is not INFINITE and c.prec < prec:
            return False
    return True


def _outcome(fn, *args):
    """The text and degrees of a result, or the class and message of the error raised."""
    try:
        out = fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared by class and message
        return type(exc).__name__, str(exc)
    if isinstance(out, int):
        return out
    parts = [out[0], *out[1]] if isinstance(out, tuple) else [out]
    return [(format_multiseries(p), p.nvars, p.degree) for p in parts]


def _division_corpus(seed, count):
    """Divisors regular of degree 0-3 in a random variable (a third in the last variable with degree 1, a
    third units), some broken on purpose; dividends of negative norm; exact and inexact coefficients."""
    rng = random.Random(seed)
    exps = [Fraction(k, d) for k in range(-2, 7) for d in (1, 2, 3)]

    def coeff(lowest, inexact=0.3):
        terms = [(ge(rng.choice([e for e in exps if e >= lowest])), Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
                 for _ in range(rng.randint(1, 3))]
        approx = HahnSeries(terms)
        if rng.random() < inexact:
            return TruncatedSeries(approx, ge(rng.choice([e for e in exps if e > lowest])))
        return TruncatedSeries.exact(approx)

    for case in range(count):
        nvars = rng.randint(1, 3)
        var, s = [(rng.randrange(nvars), rng.randint(0, 3)), (nvars - 1, 1), (rng.randrange(nvars), 0)][case % 3]
        axis = lambda k: tuple(k if i == var else 0 for i in range(nvars))  # noqa: E731
        coeffs = {axis(s): coeff(Fraction(1, 3)) + TruncatedSeries.constant(rng.choice([-3, -1, 1, 2]))}
        for k in range(s):
            if rng.random() < 0.6:
                coeffs[axis(k)] = coeff(Fraction(1, 2))
        for _ in range(rng.randint(0, 4)):
            idx = tuple(rng.randint(0, 2) for _ in range(nvars))
            if idx[var] >= s or any(e for i, e in enumerate(idx) if i != var):
                coeffs.setdefault(idx, coeff(Fraction(0)))
        broken = rng.random()
        if broken < 0.06:
            del coeffs[axis(s)]
        elif broken < 0.1:
            coeffs[axis(s + 1)] = coeff(Fraction(-1), inexact=0)
        elif broken < 0.13:
            coeffs[axis(s + 1)] = TruncatedSeries(HahnSeries([]), ge(0))
        f = MultiSeries(nvars, 6, coeffs)
        g_vars = rng.randint(1, nvars)
        g_coeffs = {}
        for _ in range(rng.randint(0, 4)):
            idx = tuple(rng.randint(0, 2) for _ in range(g_vars))
            if sum(idx) <= 4:
                g_coeffs[idx] = coeff(Fraction(-2) if rng.random() < 0.3 else Fraction(0))
        g = MultiSeries(g_vars, 4, g_coeffs)
        prec = INFINITE if rng.random() < 0.05 else ge(Fraction(rng.randint(-2, 10), 2))
        yield f, g, var, rng.randint(0, 3), prec


class TestDivisionAgainstParentLoop:
    """The division computes each step once and gives the text, degrees and errors of the old loop."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_same_outcomes(self, seed):
        for f, g, var, d_out, prec in _division_corpus(seed, 110):
            assert _outcome(weierstrass_divide, f, g, var, d_out, prec) == _outcome(_old_divide, f, g, var, d_out, prec)
            assert _outcome(unit_invert, f, d_out, prec) == _outcome(_old_unit_invert, f, d_out, prec)
            assert _outcome(implicit_series, f, d_out, prec) == _outcome(_old_implicit_series, f, d_out, prec)
            assert _outcome(regular_degree, f, var) == _outcome(_old_regular_degree, f, var)
            for x in (f, g):
                for degree in range(4):
                    assert in_truncation_ideal(x, degree, prec) == _old_in_truncation_ideal(x, degree, prec)

    @given(multiseries(1), st.integers(-1, 4), st.integers(-4, 8))
    def test_in_truncation_ideal_against_its_old_body(self, f, degree, prec):
        assert in_truncation_ideal(f, degree, ge(prec)) == _old_in_truncation_ideal(f, degree, ge(prec))

    def test_gauss_data_once_per_operand(self, monkeypatch):
        seen = []

        def counted(x):
            seen.append(x)
            return gauss_data(x)

        monkeypatch.setattr(multiseries_module, "gauss_data", counted)
        monkeypatch.setattr(analytic, "gauss_data", counted)
        f = ms("[1]*x1^2 + [-1*t^(1) + O(t^(3))]*x2 + [1/2*t^(1/2)]*x1*x2")
        g = ms("[1]*x1^3 + [2 + O(t^(2))]*x2^2")
        weierstrass_divide(f, g, 0, 3, ge(3))
        assert len(seen) == 2 and seen[0] is f and seen[1] is g
        seen.clear()
        f = ms("[1 + O(t^(2))]*x2 + [1/2*t^(1)]*x2^2 + [-1]*x1 + [1*t^(1)]*x1*x2")
        implicit_series(f, 3, ge(2))
        # once on f, once on the dividend x2 inside the division
        assert len(seen) == 2 and seen[0] is f and seen[1] is not f


class TestDocumentedErrors:
    def test_a_monomial_above_the_degree_bound(self):
        with pytest.raises(ValueError, match="degree bound"):
            MultiSeries(1, 1, {(2,): TruncatedSeries.one()})

    def test_immutable_hashable_and_printable(self):
        f = ms("[1]*x1 + [2]*x2^2")
        with pytest.raises(AttributeError, match="immutable"):
            f.degree = 3
        assert hash(f) == hash(ms("[2]*x2^2 + [1]*x1"))
        assert repr(f) == f"MultiSeries({format_multiseries(f)!r})"

    def test_variable_counts(self):
        f, g = ms("[1]*x1", nvars=1), ms("[1]*x1", nvars=2)
        with pytest.raises(ValueError, match="cannot drop variables"):
            ms_pad(g, 1)
        for op in (ms_add, ms_mul):
            with pytest.raises(ValueError, match="variable count mismatch"):
                op(f, g)
        with pytest.raises(ValueError, match="two distinguished variables"):
            strong_split(f)

    def test_recentering_arguments(self):
        f = ms("[1]*x1 + [1]*x2")
        with pytest.raises(ValueError, match="scale must be positive"):
            recenter_rescale(f, [0, 0], 0)
        with pytest.raises(ValueError, match="center length"):
            recenter_rescale(f, [0], 1)

    def test_substitution_needs_no_constant_term(self):
        with pytest.raises(ValueError, match="vanish at the origin"):
            ms_substitute(ms("[1]*x2"), 1, ms("[1] + [1]*x1", nvars=2), 4, ge(6))

    def test_substitution_stops_at_a_vanishing_power(self):
        # x1^3 is 0 at degree 2, so x2^3 and x2^4 add nothing
        f = ms("[1]*x2 + [1]*x2^3 + [1]*x2^4")
        out = ms_substitute(f, 1, ms("[1]*x1", nvars=2), 2, ge(6))
        assert out == ms("[1]*x1", nvars=2)


def _univariate_text(coeffs):
    """``{j: {e: c}}``, the coefficient of x1^j as terms ``c t^e``, as multiseries text."""
    parts = []
    for j, terms in sorted(coeffs.items()):
        body = " + ".join(f"{c}*t^({e})" for e, c in sorted(terms.items()) if c) or "0"
        parts.append(f"[{body}]" + (f"*x1^{j}" if j else ""))
    return " + ".join(parts)


@st.composite
def monic_divisions(draw):
    """A divisor x1^s + sum a_i x1^i, each a_i a polynomial in t of positive valuation, and a dividend whose
    coefficients are polynomials in t; the degree bound covers the dividend."""
    small = st.dictionaries(st.integers(0, 5), st.fractions(-3, 3, max_denominator=3), max_size=3)
    s = draw(st.integers(1, 3))
    divisor = {s: {0: Fraction(1)}}
    for i in range(s):
        divisor[i] = {e + 1: c for e, c in draw(small).items()}
    dividend = draw(st.dictionaries(st.integers(0, 5), small, min_size=1, max_size=4))
    return divisor, dividend, max(dividend) + draw(st.integers(0, 1)), draw(st.integers(1, 9))


def _divided_by_sympy(divisor, dividend, d_out, prec):
    """Each coefficient of Q at x1^0 .. x1^d_out and of R, as ``weierstrass_divide`` gives it (None where it
    leaves the monomial out), with ``sympy.div``'s exact one less its approx, a polynomial in ``t``."""
    sympy = pytest.importorskip("sympy")
    t, x = sympy.symbols("t x")

    def expr(coeffs):
        return sum(sympy.Rational(c.numerator, c.denominator) * t**e * x**j
                   for j, terms in coeffs.items() for e, c in terms.items())

    q_exact, r_exact = (sympy.Poly(part, x) for part in sympy.div(expr(dividend), expr(divisor), x))
    q, r = weierstrass_divide(ms(_univariate_text(divisor)), ms(_univariate_text(dividend)), 0, d_out, ge(prec))
    assert q_exact.degree() <= d_out and len(r) == max(divisor)
    pairs = [(q.coeffs.get((j,)), q_exact.coeff_monomial(x**j)) for j in range(d_out + 1)]
    pairs += [(part.coeffs.get((0,)), r_exact.coeff_monomial(x**j)) for j, part in enumerate(r)]
    return [(value, sympy.Poly(exact - sum((sympy.Rational(c.numerator, c.denominator) * t**e.first()
                                            for e, c in (value.approx.terms if value is not None else ())), 0), t))
            for value, exact in pairs]


class TestDivisionAgainstSympy:
    """Q and R of a monic divisor with polynomial coefficients against ``sympy.div``: every coefficient agrees
    below t^prec, and one printed with ``O(t^p)`` has p >= prec.  A monomial left out lies in the truncation
    ideal: its coefficient is 0 below t^prec."""

    @settings(max_examples=60, deadline=None)
    @given(monic_divisions())
    def test_quotient_and_remainder(self, case):
        divisor, dividend, d_out, prec = case
        for value, gap in _divided_by_sympy(divisor, dividend, d_out, prec):
            assert gap.is_zero or min(e for (e,) in gap.monoms()) >= prec
            assert value is None or value.is_exact() or value.prec >= ge(prec)

    def test_a_quotient_term_above_the_precision_keeps_its_marker(self):
        # the golden divide_precision_marker: sympy's Q has a term at t^9 in its constant coefficient
        divisor = {2: {0: Fraction(1)}, 1: {3: Fraction(1, 3)}, 0: {2: Fraction(-5, 2)}}
        value, gap = _divided_by_sympy(divisor, {4: {0: Fraction(-4)}, 5: {0: Fraction(2)}}, 5, 8)[0]
        assert format_series(value) == "-10*t^(2) - 10/3*t^(5) - 4/9*t^(6) + O(t^(8))"
        assert str(gap.as_expr()) == "-2*t**9/27"
