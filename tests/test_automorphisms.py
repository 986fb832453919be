"""The solvers commute with the field automorphisms sigma_q: t -> t^q.

For a rational q > 0, multiplying every exponent by q is an
order-preserving automorphism of the value group Q^d (each coordinate
scaled), so ``sigma_q(sum c_e t^e) = sum c_e t^(q e)`` is an automorphism
of the Hahn field that takes a series known below p to one known below
q p.  A solver that uses only the field operations and the order must
satisfy

- ``invert(sigma_q x, q T) = sigma_q invert(x, T)``;
- ``nth_root(sigma_q a, n, q T) = sigma_q nth_root(a, n, T)``;
- ``hensel_root(sigma_q a, q T) = sigma_q hensel_root(a, T)``, and the
  trace of residual valuations is the trace scaled by q;
- ``evaluate_analytic(f, [sigma_q a], q T) = sigma_q evaluate_analytic(f,
  [a], T)`` for f in exp, sin, cos and log1p, whose coefficients are
  rational,

value and precision alike, or raise the same class of error on both
sides.  The leading-term structure is carried along: ``rv_lambda(sigma_q
x, q lam)`` has the valuation of ``rv_lambda(x, lam)`` times q and its jet
under sigma_q.  The same holds one level up, with every exponent argument
scaled and every count left alone:

- ``eval_term`` of a term whose ``t^(e)`` atoms become ``t^(q e)``, at the
  image point and target;
- ``puiseux_roots`` at depth q d: each branch exponent and the depth of
  each branch times q, the coefficients unchanged;
- ``newton_polygon``: each edge's valuation times q, its multiplicity
  unchanged;
- ``weierstrass_divide`` at precision q p and the same degree bound, as
  sigma_q acts on the coefficients and fixes the variables.

These relations need no second implementation of any solver.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st
from test_multiseries import _random_division_instance
from test_terms import eval_points, term_trees

from hahn_forge.analytic import default_registry, evaluate_analytic, hensel_root
from hahn_forge.multiseries import MultiSeries, weierstrass_divide
from hahn_forge.prepare import newton_polygon, preparing_set, puiseux_roots, verify_preparation
from hahn_forge.rv import rv_lambda
from hahn_forge.series import (INFINITE, GroupElement, HahnSeries, TruncatedSeries, format_series, invert, nth_root,
                               parse_series, poly_eval, power)
from hahn_forge.terms import Add, App, Lit, Mono, Mul, Neg, Pow, Sub, Var, eval_term

QS = [Fraction(2), Fraction(1, 2), Fraction(2, 3), Fraction(3)]
DENS = [1, 2, 3, 5]
COEFFS = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 4))
# leading coefficients with a rational n-th root, and one without
ROOT_LEADS = {2: [Fraction(1), Fraction(4), Fraction(9, 4), Fraction(1, 9), Fraction(2)],
              3: [Fraction(1), Fraction(8), Fraction(27, 8), Fraction(1, 27), Fraction(2)]}


def sigma_approx(h, q):
    """``sigma_q h`` of an exact series: every exponent times q."""
    return HahnSeries([(e * q, c) for e, c in h.terms], h.rank)


def sigma(x, q):
    """``sigma_q x``: every exponent and the precision times q."""
    return TruncatedSeries(sigma_approx(x.approx, q), INFINITE if x.is_exact() else x.prec * q)


def _exponent(draw, rank, lo, hi, firsts=(-1, 0, 1)):
    den = draw(st.sampled_from(DENS))
    last = Fraction(draw(st.integers(lo, hi)), den)
    if rank == 1:
        return GroupElement([last])
    return GroupElement([Fraction(draw(st.sampled_from(firsts)), den), last])


@st.composite
def operands(draw, rank, leads=None, lo=-3, firsts=(-1, 0, 1)):
    """``c t^g (1 + h)`` with h of up to three terms, exact or known below a precision above g.

    g's last coordinate is drawn from ``lo`` to 3 over a small denominator,
    and in rank 2 its first from ``firsts``.  In rank 2 some of h's
    exponents have first coordinate 0.
    """
    g = _exponent(draw, rank, lo, 3, firsts)
    zero = GroupElement.zero(rank)
    gaps = sorted({e for e in (_exponent(draw, rank, -2 if rank == 2 else 1, 6, (0, 1)) for _ in range(draw(
        st.integers(0, 3)))) if e > zero})
    lead = draw(st.sampled_from(leads) if leads else COEFFS)
    approx = HahnSeries([(g, lead)] + [(g + e, draw(COEFFS)) for e in gaps], rank)
    if draw(st.booleans()):
        return TruncatedSeries.exact(approx)
    return TruncatedSeries(approx, approx.terms[-1][0] + _exponent(draw, rank, 1, 4, (0, 1)))


def _depth(draw, rank, lo):
    """A depth of ``lo`` to 6 half units, plus 0 to 2 in the last coordinate in rank 2."""
    depth = GroupElement.scalar(Fraction(draw(st.integers(lo, 6)), 2), rank)
    return depth + GroupElement([0, draw(st.integers(0, 2))]) if rank == 2 else depth


def _target(draw, x):
    """A target near the operand: its valuation plus -1 to 6 units, plus a second coordinate at times in rank 2."""
    rank = x.rank
    shift = GroupElement.scalar(Fraction(draw(st.integers(-2, 8)), 2), rank)
    if rank == 2 and draw(st.booleans()):
        shift = shift + GroupElement([0, draw(st.integers(-2, 3))])
    return x.approx.valuation() * 2 + shift


def _outcome(solve):
    try:
        return solve()
    except Exception as exc:  # noqa: BLE001 - the error class is the outcome
        return type(exc)


def _check(solve, q, transport=sigma):
    """``solve(q)`` is the solver on the sigma_q image; it must equal ``transport(solve(1), q)``, by default
    sigma_q of the series."""
    image, plain = _outcome(lambda: solve(q)), _outcome(lambda: solve(Fraction(1)))
    if isinstance(plain, type):
        assert image is plain
    else:
        assert image == transport(plain, q)


class TestInvert:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 2).flatmap(operands), st.sampled_from(QS), st.data())
    def test_commutes_with_sigma(self, x, q, data):
        target = _target(data.draw, x)
        _check(lambda r: invert(sigma(x, r), target * r), q)


class TestNthRoot:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 2), st.sampled_from([2, 3]), st.sampled_from(QS), st.data())
    def test_commutes_with_sigma(self, rank, n, q, data):
        a = data.draw(operands(rank, ROOT_LEADS[n]))
        target = _target(data.draw, a)
        _check(lambda r: nth_root(sigma(a, r), n, target * r), q)


@st.composite
def hensel_cases(draw, rank):
    """``(coeffs, T)``: one to four infinitesimal coefficients, exact (zero at times) or known below T or
    above it."""
    target = _exponent(draw, rank, 1, 6, (1, 2))
    coeffs = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["exact", "exact", "at target", "above"]))
        exps = {_exponent(draw, rank, 1 if rank == 1 else -2, 6, (0, 1, 1)) for _ in range(draw(st.integers(0, 3)))}
        exps = sorted(e for e in exps if e > GroupElement.zero(rank) and (kind == "exact" or e < target))
        approx = HahnSeries([(e, draw(COEFFS)) for e in exps], rank)
        # an inexact coefficient with no term below its precision has no valuation
        if kind == "exact" or not exps:
            coeffs.append(TruncatedSeries.exact(approx))
        else:
            coeffs.append(TruncatedSeries(approx, target + (GroupElement.zero(rank) if kind == "at target" else
                                                            _exponent(draw, rank, 1, 3, (0, 1)))))
    return coeffs, target


class TestHenselRoot:
    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 2).flatmap(hensel_cases), st.sampled_from(QS))
    def test_commutes_with_sigma(self, case, q):
        coeffs, target = case
        rank = target.rank
        traces = {}

        def solve(r):
            traces[r] = trace = []
            return hensel_root([sigma(a, r) for a in coeffs], target * r, rank, trace)

        _check(solve, q)
        assert traces[q] == [v if v is INFINITE else v * q for v in traces[Fraction(1)]]


class TestRvLambda:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 2).flatmap(operands), st.sampled_from(QS), st.data())
    def test_scales_gamma_and_jet(self, x, q, data):
        lam = _depth(data.draw, x.rank, 0)
        image, plain = _outcome(lambda: rv_lambda(sigma(x, q), lam * q)), _outcome(lambda: rv_lambda(x, lam))
        if isinstance(plain, type):
            assert image is plain
        else:
            assert (image.lam, image.gamma, image.jet) == (lam * q, plain.gamma * q, sigma_approx(plain.jet, q))


class TestAnalyticFunctions:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 2).flatmap(lambda rank: operands(rank, lo=0, firsts=(0, 1))),
           st.sampled_from(["exp", "sin", "cos", "log1p"]), st.sampled_from(QS), st.data())
    def test_commute_with_sigma(self, a, name, q, data):
        fn, target = default_registry().get(name), _depth(data.draw, a.rank, -2)
        _check(lambda r: evaluate_analytic(fn, [sigma(a, r)], target * r), q)


def sigma_term(node, q):
    """``sigma_q`` of a term: every ``t^(e)`` atom becomes ``t^(q e)``."""
    if isinstance(node, Mono):
        return Mono(node.exponent * q)
    if isinstance(node, (Lit, Var)):
        return node
    if isinstance(node, Neg):
        return Neg(sigma_term(node.operand, q))
    if isinstance(node, Pow):
        return Pow(sigma_term(node.base, q), node.exponent)
    if isinstance(node, App):
        return App(node.name, tuple(sigma_term(a, q) for a in node.args))
    return type(node)(sigma_term(node.left, q), sigma_term(node.right, q))


@st.composite
def analytic_terms(draw, rank):
    """A ``term_trees`` tree joined to one or two applications of exp, sin, cos or log1p.

    Half of the arguments are multiplied by ``t^(1)``, so that many of them
    are infinitesimal at the drawn point.
    """
    node = draw(term_trees(rank, 2))
    for _ in range(draw(st.integers(1, 2))):
        arg = draw(term_trees(rank, 2))
        if draw(st.booleans()):
            arg = Mul(Mono(GroupElement.scalar(1, rank)), arg)
        app = App(draw(st.sampled_from(["exp", "sin", "cos", "log1p"])), (arg,))
        node = draw(st.sampled_from([Add, Sub, Mul]))(node, app)
    return node


class TestEvalTerm:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 2), st.sampled_from(QS), st.data())
    def test_commutes_with_sigma(self, rank, q, data):
        node, x = data.draw(analytic_terms(rank)), data.draw(eval_points(rank))
        target = GroupElement([Fraction(data.draw(st.integers(-2, 8)), data.draw(st.sampled_from([1, 2, 3])))]
                              + [Fraction(data.draw(st.integers(-4, 4)), 2) for _ in range(rank - 1)])
        _check(lambda r: eval_term(sigma_term(node, r), sigma(x, r), target * r), q)


@st.composite
def polynomials(draw, rank, exact=False):
    """Coefficients of a polynomial of degree 2 to 4: ``operands``, some exact zeros, a nonzero leading one."""
    zero = TruncatedSeries.zero(rank)
    coeffs = [draw(st.one_of(st.just(zero), operands(rank))) for _ in range(draw(st.integers(2, 4)))]
    coeffs.append(draw(operands(rank)))
    return [TruncatedSeries.exact(c.approx) for c in coeffs] if exact else coeffs


def _branches(roots):
    """Each root's branch, depth and conjugacy; the ramification is the lcm of the branch exponents'
    denominators, so it is left out."""
    return [(r.branch, r.depth, r.conjugacy_tag) for r in roots]


def _scaled_branches(branches, q):
    """``_branches`` under sigma_q: every branch exponent and finite depth times q."""
    return [(tuple((e * q, c) for e, c in b), d if d is INFINITE else d * q, tag) for b, d, tag in branches]


class TestPuiseuxRoots:
    @settings(max_examples=100, deadline=None)
    @given(polynomials(1, exact=True), st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)]),
           st.sampled_from(QS))
    def test_commutes_with_sigma(self, coeffs, depth, q):
        _check(lambda r: _branches(puiseux_roots([sigma(c, r) for c in coeffs], depth * r)), q, _scaled_branches)


def _point_texts(prep, q=Fraction(1)):
    """Each point of a preparing set under sigma_q: its series' text, its depth times q and its derivative order."""
    return [(format_series(sigma(p.series, q)), p.depth if p.depth is INFINITE else p.depth * q, p.derivative_order)
            for p in prep.points]


def irrational_branch_polynomial(n, c):
    """The coefficients of x^n - n x + c t, lowest first: its branches at 0 and +-n^(1/(n-1)) for n = 3, 5."""
    coeffs = [TruncatedSeries.zero()] * (n + 1)
    coeffs[0], coeffs[1], coeffs[n] = (TruncatedSeries.monomial(a, GroupElement.scalar(e)) for a, e in (
        (Fraction(c), 1), (Fraction(-n), 0), (Fraction(1), 0)))
    return coeffs


class TestPreparingSet:
    """``preparing_set([sigma_q p], q d)`` has exactly the points sigma_q of ``preparing_set([p], d)``, in
    order: the same text under sigma_q, the depth times q and the same derivative order.  The branches'
    irrational coefficients enter as the same rational proxies on both sides."""

    @staticmethod
    def assert_commutes(coeffs, depth, q):
        image = _outcome(lambda: preparing_set([[sigma(c, q) for c in coeffs]], depth * q))
        plain = _outcome(lambda: preparing_set([coeffs], depth))
        if isinstance(plain, type):
            assert image is plain
        else:
            assert _point_texts(image) == _point_texts(plain, q)

    @settings(max_examples=50, deadline=None)
    @given(polynomials(1, exact=True), st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)]),
           st.sampled_from(QS))
    def test_commutes_with_sigma(self, coeffs, depth, q):
        self.assert_commutes(coeffs, depth, q)

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("c", [1, -2, Fraction(1, 3)])
    def test_irrational_branches_commute_with_sigma(self, n, c):
        for depth, q in product((Fraction(4), Fraction(5)), QS):
            self.assert_commutes(irrational_branch_polynomial(n, c), depth, q)


class TestNewtonPolygon:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 2).flatmap(polynomials), st.sampled_from(QS), st.booleans())
    def test_scales_the_edge_valuations(self, coeffs, q, blur):
        if blur:
            # a coefficient known only as O(t^(1)) has no determined valuation
            coeffs = [TruncatedSeries(HahnSeries([], coeffs[0].rank), GroupElement.scalar(1, coeffs[0].rank))] + coeffs
        _check(lambda r: newton_polygon([sigma(c, r) for c in coeffs]), q,
               lambda edges, r: [(nu * r, m) for nu, m in edges])


def sigma_multiseries(f, q):
    """``sigma_q`` of a multiseries: on each coefficient, leaving the variables and degrees alone."""
    return MultiSeries(f.nvars, f.degree, {i: sigma(c, q) for i, c in f.coeffs.items()}, rank=f.rank)


class TestWeierstrassDivide:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 12), st.sampled_from(QS))
    def test_commutes_with_sigma(self, seed, prec, q):
        f, g, var, d_out = _random_division_instance(random.Random(seed))
        target = GroupElement.scalar(Fraction(prec, 2))

        def divide(r):
            return weierstrass_divide(sigma_multiseries(f, r), sigma_multiseries(g, r), var, d_out, target * r)

        _check(divide, q, lambda out, r: (sigma_multiseries(out[0], r), [sigma_multiseries(h, r) for h in out[1]]))


# ---------------------------------------------------------------------------
# witness transport: a violation of verify_preparation(p, C, lam) is a pair
# (x, y) in one ball lam-next to C whose rv_lam(p(.)) differ.  Both facts are
# exact, so each automorphism carries the pair to a violation of the image,
# checked here by evaluating rv_lambda, with no sampling.

# x^n - s^n t^e of ROADMAP item 19's family, {0} preparing none of them: where the
# verifier draws a ball next to a root, it records violations to carry
FAMILY = [(n, s, e) for n in (2, 3) for s in (1, 2, 3) for e in (1, 2, 3, 4, Fraction(3, 2))]
# (a, b) of x -> a x + b per rank; a is a monomial, so (z - b)/a is exact
AFFINE = {1: [("2", "0"), ("-1/3", "1"), ("1*t^(1)", "-2*t^(1/2)"), ("-2*t^(-1/2)", "1 + 1*t^(1)")],
          2: [("2", "0"), ("-1/3*t^(0,1)", "1"), ("1*t^(1,-1)", "-2*t^(1/2,0)"), ("-2*t^(0,-1)", "1 + 1*t^(1,0)")]}


def family_polynomial(n, s, e, rank):
    """The coefficients of x^n - s^n t^e, lowest first."""
    zero = TruncatedSeries.zero(rank)
    return [TruncatedSeries.monomial(-Fraction(s) ** n, GroupElement.scalar(e, rank))] + [zero] * (n - 1) + [
        TruncatedSeries.one(rank)]


def _is_violation(coeffs, centers, lam, x, y):
    """x and y share every ball lam-next to the centers, and rv_lam(p(x)) differs from rv_lam(p(y))."""
    same_balls = all(rv_lambda(x - c, lam) == rv_lambda(y - c, lam) for c in centers)
    return same_balls and rv_lambda(poly_eval(coeffs, x), lam) != rv_lambda(poly_eval(coeffs, y), lam)


def _violations(coeffs, centers, lam):
    report = verify_preparation(lambda x, prec: poly_eval(coeffs, x, prec), centers, lam, trials=120, rng_seed=5)
    return [(parse_series(v["x"], lam.rank), parse_series(v["y"], lam.rank)) for v in report.violations]


def _composed(coeffs, a, b):
    """The coefficients of p(a x + b), expanded: sum over i >= j of c_i binom(i, j) a^j b^(i-j) at x^j."""
    rank = a.rank
    out = []
    for j in range(len(coeffs)):
        total = TruncatedSeries.zero(rank)
        for i in range(j, len(coeffs)):
            total = total + coeffs[i] * power(a, j) * power(b, i - j).scale(comb(i, j))
        out.append(total)
    return out


class TestWitnessTransport:
    """Under sigma_q the image pair (sigma x, sigma y) violates the preparation of sigma p by sigma C at
    q lam; under x -> a x + b the pair ((x - b)/a, (y - b)/a) violates that of p(a x + b), its coefficients
    expanded, by (C - b)/a at lam."""

    @pytest.mark.parametrize("rank", [1, 2])
    def test_violations_map_to_violations(self, rank):
        centers, checked = [TruncatedSeries.zero(rank)], Counter()
        for member, lam in product(FAMILY, (GroupElement.scalar(0, rank), GroupElement.scalar(1, rank))):
            coeffs = family_polynomial(*member, rank)
            for x, y in _violations(coeffs, centers, lam):
                assert _is_violation(coeffs, centers, lam, x, y)
                for q in QS:
                    image = [sigma(c, q) for c in coeffs]
                    assert _is_violation(image, [sigma(c, q) for c in centers], lam * q, sigma(x, q), sigma(y, q))
                for a_text, b_text in AFFINE[rank]:
                    a, b = (parse_series(text, rank) for text in (a_text, b_text))
                    inverse = invert(a, GroupElement.scalar(0, rank))
                    back = lambda z: (z - b) * inverse  # noqa: E731 - the preimage under x -> a x + b
                    assert _is_violation(_composed(coeffs, a, b), [back(c) for c in centers], lam, back(x), back(y))
                checked[member] += 1
        # the on-grid members of both degrees give pairs to carry
        assert len(checked) >= 6 and {n for n, _, _ in checked} == {2, 3}


class TestVerdictRelation:
    """A set prepares p at lam exactly when its image under sigma_q prepares sigma_q p at q lam, so the
    verifier must fail on one side exactly when it fails on the other.  {0} does not prepare x^2 - t at
    lam = 0: the verifier fails there, drawing gamma = 1/2 at the roots +-t^(1/2).  The roots t^(q/2) of the
    images for q in 1/2, 1/3 and 2/3 lie off the samplers' half-integer grid, so no ball next to them is
    drawn and the images pass."""

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the samplers draw gamma only on the half-integer grid (ROADMAP item 19)")
    @pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)])
    def test_one_side_fails_exactly_when_the_other_does(self, q):
        coeffs, zero = family_polynomial(2, 1, 1, 1), TruncatedSeries.zero()

        def verdict(r):
            image = [sigma(c, r) for c in coeffs]
            return verify_preparation(lambda x, prec: poly_eval(image, x, prec), [sigma(zero, r)],
                                      GroupElement.scalar(0) * r, trials=500, rng_seed=5).verdict

        assert (verdict(Fraction(1)) == "fail") == (verdict(q) == "fail")
