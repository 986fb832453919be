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
  trace of residual valuations is the trace scaled by q,

value and precision alike, or raise the same class of error on both
sides.  These relations need no second implementation of any solver.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from hahn_forge.analytic import hensel_root
from hahn_forge.series import INFINITE, GroupElement, HahnSeries, TruncatedSeries, invert, nth_root

QS = [Fraction(2), Fraction(1, 2), Fraction(2, 3), Fraction(3)]
DENS = [1, 2, 3, 5]
COEFFS = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 4))
# leading coefficients with a rational n-th root, and one without
ROOT_LEADS = {2: [Fraction(1), Fraction(4), Fraction(9, 4), Fraction(1, 9), Fraction(2)],
              3: [Fraction(1), Fraction(8), Fraction(27, 8), Fraction(1, 27), Fraction(2)]}


def sigma(x, q):
    """``sigma_q x``: every exponent and the precision times q."""
    approx = HahnSeries([(e * q, c) for e, c in x.approx.terms], x.rank)
    return TruncatedSeries(approx, INFINITE if x.is_exact() else x.prec * q)


def _exponent(draw, rank, lo, hi, firsts=(-1, 0, 1)):
    den = draw(st.sampled_from(DENS))
    last = Fraction(draw(st.integers(lo, hi)), den)
    if rank == 1:
        return GroupElement([last])
    return GroupElement([Fraction(draw(st.sampled_from(firsts)), den), last])


@st.composite
def operands(draw, rank, leads=None):
    """``c t^g (1 + h)`` with h of up to three terms, exact or known below a precision above g.

    In rank 2 some of h's exponents have first coordinate 0.
    """
    g = _exponent(draw, rank, -3, 3)
    zero = GroupElement.zero(rank)
    gaps = sorted({e for e in (_exponent(draw, rank, -2 if rank == 2 else 1, 6, (0, 1)) for _ in range(draw(
        st.integers(0, 3)))) if e > zero})
    lead = draw(st.sampled_from(leads) if leads else COEFFS)
    approx = HahnSeries([(g, lead)] + [(g + e, draw(COEFFS)) for e in gaps], rank)
    if draw(st.booleans()):
        return TruncatedSeries.exact(approx)
    return TruncatedSeries(approx, approx.terms[-1][0] + _exponent(draw, rank, 1, 4, (0, 1)))


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


def _check(solve, q):
    """``solve(q)`` is the solver on the sigma_q image; it must equal sigma_q of ``solve(1)``."""
    image, plain = _outcome(lambda: solve(q)), _outcome(lambda: solve(Fraction(1)))
    if isinstance(plain, type):
        assert image is plain
    else:
        assert image == sigma(plain, q)


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
