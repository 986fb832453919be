"""The precision-refinement relation: an output at a precision P is the output at any P' > P, cut at P.

The exactness contract says two things: an output is right below its
printed precision, and a value printed without ``O(...)`` is exact.  So a
solver run at P < P' must agree with itself below the lesser printed
precision, and a value printed exact at P must print the same at P'.  A
run at P' may raise where the run at P returns only when an inexact input
cannot support P' (``InsufficientPrecision``, or ``PrecisionStall`` for
``hensel_root``'s blurred coefficients), or in rank 2 with
``PrecisionStall`` where P' lies beyond a unit gap in a later coordinate,
the documented limit of the power kernel.  The relation needs no second
implementation; it tests the precision bookkeeping, which sigma_q cannot,
since sigma_q scales every precision with the value (Segura et al., IEEE
TSE 42(9), 2016, for metamorphic relations).

Checked here: ``invert``, ``nth_root`` and ``power`` on units on both sides
of the power kernel's counted support, ``hensel_root``, ``eval_term`` and
``evaluate_analytic`` in ranks 1 and 2; ``rv_lambda``, where two points
with equal classes at a depth lam' have equal classes at every lam < lam',
in ranks 1 and 2; and ``puiseux_roots``, whose branches at a depth d are
prefixes of those at d' > d, and which returns at d' wherever it returns
at d.  Two relations fail today and are strict xfails:
``weierstrass_divide`` and ``implicit_series`` against the wider pair
(d_out + 4, prec_out + 3), cut to d_out (ROADMAP item 22).
"""

from fractions import Fraction

import pytest
from hypothesis import event, example, given, settings, strategies as st
from test_automorphisms import _depth, analytic_terms, hensel_cases, operands, polynomials
from test_multiseries import _division_corpus
from test_series import _blurred, split_power_operands
from test_terms import eval_points, term_trees

from hahn_forge.analytic import default_registry, evaluate_analytic, hensel_root, implicit_series
from hahn_forge.errors import InsufficientPrecision, PrecisionStall
from hahn_forge.multiseries import parse_multiseries, weierstrass_divide
from hahn_forge.prepare import puiseux_roots
from hahn_forge.rv import rv_lambda
from hahn_forge.series import (
    INFINITE,
    GroupElement,
    TruncatedSeries,
    format_series,
    invert,
    nth_root,
    parse_series,
    power,
)
from hahn_forge.terms import eval_term


def _outcome(solve):
    try:
        return solve()
    except Exception as exc:  # noqa: BLE001 - the error class is the outcome
        return type(exc)


def _refines(coarse, fine, deeper=False):
    """``fine`` agrees with ``coarse`` below the lesser of their precisions, and a ``coarse`` printed exact
    prints the same as ``fine``; with ``deeper``, ``fine`` is known at least as deep."""
    if coarse.is_exact():
        assert format_series(fine) == format_series(coarse)
        return
    if deeper:
        assert fine.is_exact() or fine.prec >= coarse.prec
    cut = coarse.prec if fine.is_exact() or coarse.prec <= fine.prec else fine.prec
    assert format_series(fine.truncate(cut)) == format_series(coarse.truncate(cut))


def _check_solver(solve, coarse_prec, fine_prec, operand):
    """The solver at the coarse and the fine precision: both return and refine, or raise alike, or only the
    fine run raises: ``InsufficientPrecision`` on an inexact operand, or in rank 2 ``PrecisionStall``, when
    the fine target lies beyond a unit gap in a later coordinate."""
    coarse, fine = _outcome(lambda: solve(coarse_prec)), _outcome(lambda: solve(fine_prec))
    if isinstance(coarse, type):
        assert fine is coarse
    elif isinstance(fine, type):
        assert (fine is InsufficientPrecision and not operand.is_exact()) or (
            fine is PrecisionStall and operand.rank == 2)
    else:
        _refines(coarse, fine, deeper=True)


def _finer(draw, prec, rank):
    """``prec`` plus 1 to 6 half units, plus at times a step in the second coordinate in rank 2."""
    step = GroupElement.scalar(Fraction(draw(st.integers(1, 6)), 2), rank)
    if rank == 2 and draw(st.booleans()):
        step = GroupElement([0, draw(st.integers(1, 3))]) if draw(st.booleans()) else step + GroupElement([0, -1])
    return prec + step


class TestSolvers:
    """``invert``, ``nth_root`` and ``power`` at P < P', on units whose exponents the power kernel counts
    and on units whose exponents it enumerates, exact and blurred near the guard."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 2).flatmap(split_power_operands), st.data())
    def test_invert(self, case, data):
        approx, g, scale = case
        target = g + g + scale * Fraction(data.draw(st.integers(-1, 8)), 2)
        a = _blurred(data.draw, approx, target - g, scale)
        _check_solver(lambda p: invert(a, p), target, _finer(data.draw, target, a.rank), a)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 2), st.sampled_from([2, 3]), st.data())
    def test_nth_root(self, rank, n, data):
        root_c = data.draw(st.builds(Fraction, st.integers(1, 4), st.integers(1, 3)))
        approx, g, scale = data.draw(split_power_operands(rank, st.just(root_c**n)))
        target = g + scale * Fraction(data.draw(st.integers(-1, 8)), 2)
        a = _blurred(data.draw, approx, target, scale)
        _check_solver(lambda p: nth_root(a, n, p), target, _finer(data.draw, target, rank), a)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 2).flatmap(split_power_operands), st.integers(1, 5), st.data())
    def test_power(self, case, k, data):
        approx, g, scale = case
        x = _blurred(data.draw, approx, approx.terms[-1][0] + scale, scale)
        prec = g * k + scale * Fraction(data.draw(st.integers(-1, 2 * k + 3)), 2)
        _check_solver(lambda p: power(x, k, p), prec, _finer(data.draw, prec, x.rank), x)

    @pytest.mark.parametrize("text, n", [("1 + 2*t^(1/2) + 1*t^(1)", 2), ("1 + 3*t^(1) + 3*t^(2) + 1*t^(3)", 3)])
    def test_an_exact_root_stays_exact(self, text, n):
        a = TruncatedSeries.exact(parse_multiseries(f"[{text}]").coefficient((0,)).approx)
        for target in (GroupElement.scalar(Fraction(k, 2)) for k in range(7, 12)):
            _check_solver(lambda p: nth_root(a, n, p), target, target + GroupElement.scalar(3), a)
            assert nth_root(a, n, target).is_exact()


class TestHenselRoot:
    """The root at T' > T, cut at T, is the root at T, or T' asks more than a blurred coefficient holds."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 2).flatmap(hensel_cases), st.data())
    def test_refines(self, case, data):
        coeffs, target = case
        rank = target.rank
        finer = _finer(data.draw, target, rank)
        coarse = _outcome(lambda: hensel_root(coeffs, target, rank))
        fine = _outcome(lambda: hensel_root(coeffs, finer, rank))
        if isinstance(coarse, type):
            assert fine is coarse or fine is PrecisionStall
        elif isinstance(fine, type):
            assert fine is PrecisionStall and not all(c.is_exact() for c in coeffs)
        else:
            assert coarse.is_exact() or coarse.prec == target
            _refines(coarse, fine, deeper=True)


class TestEvalTerm:
    """``eval_term`` at P and P' = P + k/2 agrees below the lesser printed precision; the run at P' may raise
    ``InsufficientPrecision`` only at an inexact point."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 2), st.booleans(), st.data())
    def test_refines(self, rank, analytic, data):
        node = data.draw(analytic_terms(rank) if analytic else term_trees(rank))
        x = data.draw(eval_points(rank))
        prec = GroupElement([Fraction(data.draw(st.integers(-2, 8)), data.draw(st.sampled_from([1, 2, 3])))]
                            + [Fraction(data.draw(st.integers(-4, 4)), 2) for _ in range(rank - 1)])
        finer = prec + GroupElement.scalar(Fraction(data.draw(st.integers(1, 6)), 2), rank)
        coarse = _outcome(lambda: eval_term(node, x, prec))
        fine = _outcome(lambda: eval_term(node, x, finer))
        if isinstance(coarse, type):
            return
        if isinstance(fine, type):
            assert fine is InsufficientPrecision and not x.is_exact()
        else:
            _refines(coarse, fine)


class TestEvaluateAnalytic:
    """``evaluate_analytic`` alone at P < P': the functions of the default registry on infinitesimal
    arguments, exact and known below a precision."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 2).flatmap(lambda rank: operands(rank, lo=0, firsts=(0, 1))),
           st.sampled_from(["exp", "sin", "cos", "log1p"]), st.data())
    def test_refines(self, a, name, data):
        fn, target = default_registry().get(name), _depth(data.draw, a.rank, -2)
        _check_solver(lambda p: evaluate_analytic(fn, [a], p), target, _finer(data.draw, target, a.rank), a)


class TestRvLambda:
    """Two points with equal ``rv_lambda`` at lam' have equal ``rv_lambda`` at lam < lam', and a point whose
    class is determined at lam' has it determined at lam.  The second point is the first plus a monomial near
    its valuation plus lam', so that the classes at lam' agree about as often as they differ."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 2).flatmap(operands), st.data())
    def test_equal_classes_stay_equal_at_a_lesser_depth(self, x, data):
        rank = x.rank
        lam = _depth(data.draw, rank, 0)
        finer = _finer(data.draw, lam, rank)
        bump = GroupElement.scalar(Fraction(data.draw(st.integers(-2, 3)), 2), rank)
        y = x + TruncatedSeries.monomial(data.draw(st.sampled_from([1, -2, Fraction(1, 3)])),
                                         x.approx.valuation() + finer + bump)
        coarse = [_outcome(lambda p=p: rv_lambda(p, lam)) for p in (x, y)]
        fine = [_outcome(lambda p=p: rv_lambda(p, finer)) for p in (x, y)]
        for c, f in zip(coarse, fine):
            assert isinstance(f, type) or not isinstance(c, type)
        if not any(isinstance(f, type) for f in fine) and fine[0] == fine[1]:
            event("equal at lam'")
            assert coarse[0] == coarse[1]


def _prefix(short, long):
    """``short`` is a prefix of ``long``; an irrational coefficient compares by its interval and witness."""
    return len(short) <= len(long) and all(a == b for a, b in zip(short, long))


_DEPTHS = st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)])


class TestPuiseuxRoots:
    """The branches at depth d are those at d' > d, in the same order and with the same conjugacy, each a
    prefix of its deeper one; the ramification may grow with the branch, so it is not compared."""

    @settings(max_examples=60, deadline=None)
    @given(polynomials(1, exact=True), _DEPTHS, st.integers(1, 6))
    def test_branches_are_prefixes_of_the_deeper_ones(self, coeffs, depth, more):
        coarse = _outcome(lambda: puiseux_roots(coeffs, depth))
        fine = _outcome(lambda: puiseux_roots(coeffs, depth + Fraction(more, 2)))
        if isinstance(coarse, type):
            assert fine is coarse
        elif not isinstance(fine, type):  # the deeper run raising alone is the test below
            assert [f.conjugacy_tag for f in fine] == [c.conjugacy_tag for c in coarse]
            assert all(_prefix(c.branch, f.branch) for c, f in zip(coarse, fine))

    @settings(max_examples=60, deadline=None)
    @given(polynomials(1, exact=True), _DEPTHS, st.integers(1, 6))
    @example([parse_series(c) for c in ("-1 - 1*t^(1/100)", "0", "1")], Fraction(1), 2)
    def test_a_deeper_expansion_returns_where_a_shallower_one_does(self, coeffs, depth, more):
        if not isinstance(_outcome(lambda: puiseux_roots(coeffs, depth)), type):
            assert not isinstance(_outcome(lambda: puiseux_roots(coeffs, depth + Fraction(more, 2))), type)


# -- the multiseries solvers: a wider pair cut to d_out ------------------------


def _agrees_below(narrow, wide, degree, prec, wide_prec):
    """Each coefficient of the multiseries ``narrow`` at a monomial of total degree at most ``degree`` refines
    into ``wide``'s; an absent coefficient is zero below its side's working precision."""
    rank = narrow.rank
    monomials = set(narrow.coeffs) | {idx for idx in wide.coeffs if sum(idx) <= degree}
    for idx in monomials:
        coarse = narrow.coeffs.get(idx, TruncatedSeries.zero(rank).truncate(prec))
        fine = wide.coeffs.get(idx, TruncatedSeries.zero(rank).truncate(wide_prec))
        _refines(coarse, fine)


def _wider(prec):
    return prec if prec is INFINITE else prec + GroupElement.scalar(3, prec.rank)


def _ms(text):
    return parse_multiseries(text)


@st.composite
def division_cases(draw):
    """``(f, g, var, d_out, prec)`` from the division corpus of ``test_multiseries``."""
    index = draw(st.integers(0, 2))
    return list(_division_corpus(draw(st.integers(0, 10**6)), index + 1))[index]


@st.composite
def implicit_cases(draw):
    """``(f, d_out, prec)``: the corpus' divisors regular of degree one in their last variable."""
    f, _, _, d_out, prec = list(_division_corpus(draw(st.integers(0, 10**6)), 2))[1]
    return f, d_out, prec


class TestMultiseriesSolvers:
    """The division and the implicit solution at (d_out, prec_out) against (d_out + 4, prec_out + 3)."""

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the division clips before x^s lowers degrees (ROADMAP item 22)")
    @settings(max_examples=100, deadline=None)
    @given(division_cases())
    @example((_ms("[-1*t^(1)] + [1]*x1"), _ms("[1]*x1^2"), 0, 0, GroupElement.scalar(3)))
    def test_weierstrass_divide(self, case):
        f, g, var, d_out, prec = case
        narrow = _outcome(lambda: weierstrass_divide(f, g, var, d_out, prec))
        wide = _outcome(lambda: weierstrass_divide(f, g, var, d_out + 4, _wider(prec)))
        if isinstance(narrow, type) or isinstance(wide, type):
            return
        for coarse, fine in zip((narrow[0], *narrow[1]), (wide[0], *wide[1]), strict=True):
            _agrees_below(coarse, fine, d_out, prec, _wider(prec))

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="implicit_series divides through the clip of ROADMAP item 22")
    @settings(max_examples=100, deadline=None)
    @given(implicit_cases())
    @example((_ms("[1]*x2 + [-3*t^(3/2)] + [-2*t^(1/2)]*x2^2"), 0, GroupElement.scalar(6)))
    def test_implicit_series(self, case):
        f, d_out, prec = case
        narrow = _outcome(lambda: implicit_series(f, d_out, prec))
        wide = _outcome(lambda: implicit_series(f, d_out + 4, _wider(prec)))
        if isinstance(narrow, type) or isinstance(wide, type):
            return
        _agrees_below(narrow, wide, d_out, prec, _wider(prec))
