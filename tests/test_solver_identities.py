"""Identity oracles for ``invert``, ``nth_root`` and ``power``.

Each solver is checked against the identity it promises, formed with
``field_op`` products only, so no check shares code with the unit-power
kernel the three solvers call:

- ``v(x invert(x, T) - 1) >= T - 2 v(x)``, with the inverse known below
  ``T - 3 v(x)``;
- ``nth_root(a, n, T)^n`` agrees with a below T, and the root is exact
  exactly when a is the exact n-th power of a series whose terms lie below
  the root's precision;
- ``x^j x^k = x^(j+k)`` for an exact x, also cut at a positive precision
  when v(x) >= 0, and ``x^k`` of an x known below p is known below
  ``min(p + (k-1) v(x), prec)``.

Every result must also keep its stored exponents below its precision.
Operands have rational coefficients other than 1, signed where the solver
allows it, in ranks 1 and 2, exact and known below a precision.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from hahn_forge.series import (
    INFINITE,
    GroupElement,
    HahnSeries,
    TruncatedSeries,
    field_op,
    invert,
    nth_root,
    power,
)

COEFFS = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 7))
# leading coefficients with a rational n-th root for every n
ROOT_COEFFS = [Fraction(1), Fraction(2), Fraction(1, 3), Fraction(3, 2)]
DENS = [1, 2, 3, 5]


def _exponent(draw, rank, lo, hi, firsts=(-1, 0, 1)):
    den = draw(st.sampled_from(DENS))
    last = Fraction(draw(st.integers(lo, hi)), den)
    if rank == 1:
        return GroupElement([last])
    return GroupElement([Fraction(draw(st.sampled_from(firsts)), den), last])


def _gaps(draw, rank, size):
    """Up to ``size`` distinct exponents above zero; in rank 2 some have first coordinate 0."""
    zero = GroupElement.zero(rank)
    drawn = [_exponent(draw, rank, 1 if rank == 1 else -4, 6, (0, 1, 2)) for _ in range(draw(st.integers(0, size)))]
    return sorted({e for e in drawn if e > zero})


def _series(lead, g, gaps, coeffs):
    rank = len(g)
    return HahnSeries([(g, lead)] + [(g + e, c) for e, c in zip(gaps, coeffs)], rank)


@st.composite
def signed_series(draw, rank, size=4):
    """``c t^g (1 + h)`` with signed rational coefficients and h of at most ``size`` terms."""
    g = _exponent(draw, rank, -3, 3)
    gaps = _gaps(draw, rank, size)
    return _series(draw(COEFFS), g, gaps, [draw(COEFFS) for _ in gaps])


def _gap(approx):
    """The least relative exponent above the leading one; None for a monomial."""
    terms = approx.terms
    return terms[1][0] - terms[0][0] if len(terms) > 1 else None


def _relative_target(draw, rank, gap):
    """A relative precision of -1 to 6 leading gaps, at or below 0 at times.

    In rank 2 a gap with first coordinate 0 gets a target with first
    coordinate 0 too: the monoid the gaps generate below a target of
    larger first coordinate is infinite, which the solvers refuse.
    """
    unit = gap if gap is not None else (GroupElement([1]) if rank == 1 else GroupElement([0, 1]))
    rel = unit * Fraction(draw(st.integers(-4, 24)), 4)
    if rank == 2 and unit[0] and draw(st.booleans()):
        rel = rel + GroupElement([Fraction(1, draw(st.sampled_from(DENS))), 0])
    return rel


def _below_precision(x):
    return x.is_exact() or all(e < x.prec for e, _ in x.approx.terms)


def _vanishes_below(x, bound):
    """Every known term of ``x`` lies at or above ``bound``, and x is known below it."""
    assert x.is_exact() or x.prec >= bound
    return x.approx.is_zero() or x.approx.valuation() >= bound


def _fold(x, n):
    out = x
    for _ in range(n - 1):
        out = field_op("mul", out, x)
    return out


# -- invert ------------------------------------------------------------------


@st.composite
def invert_cases(draw, rank):
    """``(x, T)``: x exact, or known below ``T - v(x)`` (the least it may be) or above it."""
    approx = draw(signed_series(rank))
    v = approx.valuation()
    target = v + v + _relative_target(draw, rank, _gap(approx))
    kind = draw(st.sampled_from(["exact", "at guard", "above"]))
    if kind == "exact":
        return TruncatedSeries.exact(approx), target
    prec = target - v
    if kind == "above" or not prec > v:  # a precision at or below v(x) leaves no leading term
        prec = max(prec, v) + _exponent(draw, rank, 1, 4, (0, 1))
    return TruncatedSeries(approx, prec), target


def _check_invert(x, target):
    y = invert(x, target)
    v = x.approx.valuation()
    assert _below_precision(y)
    if x.is_exact() and len(x.approx.terms) == 1:
        assert y.is_exact() and field_op("mul", x, y) == TruncatedSeries.one(x.rank)
        return
    assert y.prec == target - v - v - v
    residual = field_op("sub", field_op("mul", x, y), TruncatedSeries.one(x.rank))
    assert _vanishes_below(residual, target - v - v)


class TestInvertIdentity:
    @settings(max_examples=150)
    @given(invert_cases(1))
    def test_rank_one(self, case):
        _check_invert(*case)

    @settings(max_examples=150)
    @given(invert_cases(2))
    def test_rank_two(self, case):
        _check_invert(*case)

    def test_target_at_the_valuation(self):
        # the relative target is 0: nothing of the inverse is known
        x = TruncatedSeries.exact(HahnSeries([(GroupElement([0]), Fraction(-3, 2)), (GroupElement([1]), 1)]))
        y = invert(x, GroupElement([0]))
        assert y.approx.is_zero() and y.prec == GroupElement([0])


# -- nth_root ----------------------------------------------------------------


@st.composite
def root_cases(draw, rank):
    """``(a, n, T, b)``: a positive ``a`` and ``b`` when a is exactly ``b^n``, else None.

    ``a`` is an exact n-th power, an exact power plus a monomial above its
    top term (for n > 1 no n-th power of a series c: the top term of c^n
    would be the added one, while ``c^n - b^n`` has at least two terms), or
    known below a precision at or above T.
    """
    n = draw(st.sampled_from([1, 2, 3, 4]))
    g = _exponent(draw, rank, -3, 3)
    gaps = _gaps(draw, rank, 3)
    b = TruncatedSeries.exact(_series(draw(st.sampled_from(ROOT_COEFFS)), g, gaps, [draw(COEFFS) for _ in gaps]))
    a = _fold(b, n)
    top = a.approx.terms[-1][0]
    kind = draw(st.sampled_from(["power", "perturbed", "inexact"]))
    if kind == "perturbed":
        a = field_op("add", a, TruncatedSeries.monomial(draw(COEFFS), top + _exponent(draw, rank, 1, 3, (0, 1))))
        if n == 1:
            b, kind = a, "power"
    v, gap = a.approx.valuation(), _gap(a.approx)
    span = b.approx.terms[-1][0] - g  # the root is exact once its relative precision passes this
    rel = _relative_target(draw, rank, gap)
    if draw(st.booleans()) and not (rank == 2 and gap is not None and gap[0] == 0 and span[0]):
        rel = span + _exponent(draw, rank, 0, 2, (0,))
    target = v + rel
    if kind == "inexact":
        a = TruncatedSeries(a.approx, max(target, v + _exponent(draw, rank, 1, 8, (0, 1))))
    return a, n, target, b if kind == "power" else None


def _check_root(a, n, target, b):
    r = nth_root(a, n, target)
    assert _below_precision(r)
    v = a.approx.valuation()
    exact_root = b is not None and (len(b.approx.terms) == 1 or b.approx.terms[-1][0] < target - v + v / n)
    assert r.is_exact() == exact_root
    if r.is_exact():
        assert r == b and field_op("sub", _fold(r, n), a).is_exact_zero()
        return
    assert r.prec == target - v + v / n
    if r.approx.is_zero():  # a root known to no term: its leading term v/n lies at or above the precision
        assert r.prec <= v / n
    else:
        assert _vanishes_below(field_op("sub", _fold(r, n), a), target)


class TestNthRootIdentity:
    @settings(max_examples=200)
    @given(root_cases(1))
    def test_rank_one(self, case):
        _check_root(*case)

    @settings(max_examples=200)
    @given(root_cases(2))
    def test_rank_two(self, case):
        _check_root(*case)

    def test_exact_square_with_a_coefficient_other_than_one(self):
        b = TruncatedSeries.exact(HahnSeries([(GroupElement([-1]), Fraction(3, 2)), (GroupElement([Fraction(1, 3)]), -2)]))
        a = field_op("mul", b, b)
        for target in (GroupElement([1]), GroupElement([Fraction(-2, 3)])):
            _check_root(a, 2, target, b)


# -- power -------------------------------------------------------------------


class TestPowerIdentity:
    @settings(max_examples=150)
    @given(st.integers(1, 2).flatmap(signed_series), st.integers(0, 4), st.integers(0, 4))
    def test_exponents_add(self, approx, j, k):
        x = TruncatedSeries.exact(approx)
        assert power(x, 0) == TruncatedSeries.one(x.rank) and power(x, 1) == x
        assert field_op("mul", power(x, j), power(x, k)) == power(x, j + k)

    @settings(max_examples=150)
    @given(st.integers(1, 2).flatmap(signed_series), st.integers(1, 6), st.integers(1, 6), st.data())
    def test_exponents_add_below_a_precision(self, approx, j, k, data):
        # with v(x) >= 0 and prec > 0 the cut powers multiply to the cut power
        x = TruncatedSeries.exact(approx.shift(-approx.valuation()))
        prec = _exponent(data.draw, x.rank, 1, 12, (0, 1, 2))
        assert field_op("mul", power(x, j, prec), power(x, k, prec)).truncate(prec) == power(x, j + k, prec)

    @settings(max_examples=150)
    @given(st.integers(1, 2).flatmap(signed_series), st.integers(1, 5), st.data())
    def test_precision_in_closed_form(self, approx, k, data):
        rank, v = approx.rank, approx.valuation()
        p = v + _exponent(data.draw, rank, 1, 12, (0, 1))
        fold = p + v * (k - 1)  # the precision of the k-fold product
        prec = data.draw(st.sampled_from([INFINITE, fold, v * k, p + p]))
        for x in (TruncatedSeries(approx, p), TruncatedSeries.exact(approx)):
            got = power(x, k, prec)
            assert _below_precision(got)
            if x.is_exact():
                assert got.prec == prec and got == power(x, k).truncate(prec)
            else:
                assert got.prec == (fold if prec is INFINITE else min(fold, prec))
                assert got == field_op("mul", power(x, k - 1), x).truncate(prec)
