"""Leading-term classes, balls, and the sampling verifier."""

import os
import random
import signal
from fractions import Fraction

import pytest

from hahn_forge.errors import InsufficientPrecision, PrecisionStall, SingletonBall, ZeroInverse
from hahn_forge.rv import (
    angular_component,
    ball_of,
    check_prepares,
    rv_combine,
    rv_lambda,
    sample_in_ball,
)
from hahn_forge.series import (
    GroupElement,
    HahnSeries,
    TruncatedSeries,
    compare_sign,
    parse_series,
    standard_part,
)

ge = lambda x: GroupElement.scalar(Fraction(x))
s = parse_series


def random_exact(rng, max_terms=4):  # may still be zero after cancellation
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        e = Fraction(rng.randint(-4, 8), 2)
        c = Fraction(rng.randint(-9, 9))
        if c:
            terms.append((ge(e), c))
    ts = TruncatedSeries.exact(HahnSeries(terms))
    return ts


class TestRvLambda:
    def test_depth_one(self):
        out = rv_lambda(s("3*t^(2) + 5*t^(3) + 7*t^(4)"), ge(1))
        assert out.gamma == ge(2)
        assert out.jet == s("3 + 5*t^(1)").approx

    def test_depth_zero(self):
        out = rv_lambda(s("3*t^(2) + 5*t^(3)"), ge(0))
        assert out.gamma == ge(2) and out.jet == s("3").approx

    def test_zero(self):
        assert rv_lambda(TruncatedSeries.zero(), ge(1)).is_zero()

    def test_refinement(self):
        # the coarser class is a function of the finer one: truncate the jet
        rng = random.Random("refine")
        for _ in range(50):
            x = random_exact(rng)
            if x.approx.is_zero():
                continue
            fine = rv_lambda(x, ge(2))
            coarse = rv_lambda(x, ge("1/2"))
            assert fine.jet.truncate_through(ge("1/2")) == coarse.jet


class TestRvCombine:
    def test_mul_representatives(self):
        a = rv_lambda(s("1*t^(1)"), ge(1))
        b = rv_lambda(s("1 + 1*t^(1)"), ge(1))
        assert rv_combine("mul", a, b) == rv_lambda(s("1*t^(1) + 1*t^(2)"), ge(1))

    def test_inverse(self):
        out = rv_combine("inv", rv_lambda(s("2*t^(1)"), ge(1)))
        assert out.gamma == ge(-1) and out.jet == s("1/2").approx

    def test_zero_inverse(self):
        with pytest.raises(ZeroInverse):
            rv_combine("inv", rv_lambda(TruncatedSeries.zero(), ge(1)))

    def test_multiplicative_on_products(self):
        # rv(xy) is determined by rv(x) and rv(y); checked on random pairs
        rng = random.Random("rvmul")
        for _ in range(1000):
            x, y = random_exact(rng), random_exact(rng)
            lam = ge(rng.choice([0, Fraction(1, 2), 1, 2]))
            left = rv_combine("mul", rv_lambda(x, lam), rv_lambda(y, lam))
            assert left == rv_lambda(x * y, lam)

    def test_inverse_consistent_with_field(self):
        from hahn_forge.series import invert

        rng = random.Random("rvinv")
        for _ in range(50):
            x = random_exact(rng)
            if x.approx.is_zero():
                continue
            lam = ge(rng.choice([0, 1]))
            inv = invert(x, x.approx.valuation() * 2 + lam + ge(1))
            assert rv_combine("inv", rv_lambda(x, lam)) == rv_lambda(inv, lam)

    def test_inverse_rank_two(self):
        # the gap of the jet lies in the coordinate of lam: a finite jet
        cases = [
            ("1 + 1*t^(0,1)", (0, 3), "1 - 1*t^(0,1) + 1*t^(0,2) - 1*t^(0,3)"),
            ("2 + 1*t^(1/2,5)", (1, 0), "1/2 - 1/4*t^(1/2,5)"),
            ("3*t^(1,-1) + 6*t^(3/2,0)", (1, 2), "1/3 - 2/3*t^(1/2,1) + 4/3*t^(1,2)"),
        ]
        for text, lam, jet in cases:
            out = rv_combine("inv", rv_lambda(parse_series(text, rank=2), GroupElement(lam)))
            assert out.jet == parse_series(jet, rank=2).approx

    def test_inverse_stalls_when_the_gap_is_in_a_later_coordinate(self):
        # 1/(1 + t^(0,1)) has terms t^(0,k) for every k, all below lam = (1,0):
        # no finite jet exists, so the inverse raises instead of looping
        x = rv_lambda(parse_series("1 + 1*t^(0,1)", rank=2), GroupElement([1, 0]))
        signal.signal(signal.SIGALRM, _timed_out)
        signal.alarm(10)
        try:
            with pytest.raises(PrecisionStall):
                rv_combine("inv", x)
        finally:
            signal.alarm(0)


def _timed_out(*_):
    raise TimeoutError("rv_combine('inv') did not return")


class TestAngularComponent:
    def test_leading(self):
        assert angular_component(s("-2*t^(-3) + 1*t^(1)")) == -2

    def test_monomials_map_to_one(self):
        assert angular_component(s("t^(7/2)")) == 1
        assert angular_component(s("t^(-2)")) == 1

    def test_multiplicative(self):
        rng = random.Random("ac")
        for _ in range(100):
            x, y = random_exact(rng), random_exact(rng)
            assert angular_component(x * y) == angular_component(x) * angular_component(y)

    def test_residue_on_units(self):
        # on valuation zero the angular component is the residue
        rng = random.Random("acres")
        for _ in range(50):
            x = random_exact(rng)
            if x.approx.terms and x.approx.valuation() == ge(0):
                assert angular_component(x) == standard_part(x)


class TestBalls:
    def test_ball_of_basic(self):
        b = ball_of(s("1*t^(1)"), TruncatedSeries.zero(), ge(0))
        assert b.datum.gamma == ge(1) and b.datum.jet == s("1").approx

    def test_singleton(self):
        c = s("2 + 1*t^(1)")
        b = ball_of(c, c, ge(3))
        assert b.datum.is_zero()
        with pytest.raises(SingletonBall):
            sample_in_ball(b, 7)

    def test_perturbation_below_depth(self):
        x = s("3*t^(1) + 1*t^(2)")
        lam = ge(1)
        y = x + s("5*t^(7/2)")  # v(x) + lam + 1 > exponents beyond depth
        assert ball_of(x, TruncatedSeries.zero(), lam) == ball_of(y, TruncatedSeries.zero(), lam)

    def test_sample_membership(self):
        rng = random.Random("ballmember")
        center = s("1 + 1*t^(1)")
        for seed in range(30):
            x = TruncatedSeries.exact(
                HahnSeries([(ge(Fraction(rng.randint(-3, 5), 2)), Fraction(rng.choice([1, -2, 3])))])
            )
            lam = ge(rng.choice([0, 1]))
            b = ball_of(center + x, center, lam)
            y = sample_in_ball(b, seed)
            assert ball_of(y, center, lam) == b

    def test_samples_distinct_across_seeds(self):
        b = ball_of(s("1 + 1*t^(1)"), TruncatedSeries.zero(), ge(0))
        x, y = sample_in_ball(b, 1), sample_in_ball(b, 2)
        assert x != y
        assert ball_of(x, TruncatedSeries.zero(), ge(0)) == b
        assert ball_of(y, TruncatedSeries.zero(), ge(0)) == b


class TestCheckPrepares:
    def test_valuation_ring_is_prepared(self):
        def member(x):
            v = x.approx.valuation()
            return (v >= GroupElement.zero(1)) if x.approx.terms else True

        report = check_prepares([TruncatedSeries.zero()], member, ge(0), trials=120, rng_seed=3)
        assert report.passed()

    def test_positivity_is_prepared(self):
        member = lambda x: compare_sign(x) > 0
        for lam in (0, 1):
            report = check_prepares([TruncatedSeries.zero()], member, ge(lam), trials=120, rng_seed=4)
            assert report.passed()

    def test_order_interval_needs_more_centers(self):
        # membership in the K-interval [0, 1] flips within one fibre at the
        # endpoint: 1 - t and 1 + t share rv_0 but straddle the cut
        def member(x):
            if compare_sign(x) < 0:
                return False
            return compare_sign(s("1") - x) >= 0

        report = check_prepares([TruncatedSeries.zero()], member, ge(0), trials=400, rng_seed=5)
        assert not report.passed()
        assert report.violations[0]["x"] != report.violations[0]["y"]
        assert report.to_dict()["verdict"] == "fail"
        # the whole report, witnesses included, is frozen byte for byte
        with open(os.path.join(os.path.dirname(__file__), "golden", "check_prepares_interval.json"), "rb") as handle:
            assert report.to_json().encode() == handle.read()

    def test_all_samples_skipped_is_undecided(self):
        def member(x):
            raise InsufficientPrecision("never decidable")

        report = check_prepares([TruncatedSeries.zero()], member, ge(0), trials=20, rng_seed=1)
        assert report.checked == 0 and not report.violations
        assert report.verdict == "undecided" and not report.passed()
        assert report.to_dict()["verdict"] == "undecided"

    def test_report_schema(self):
        report = check_prepares([TruncatedSeries.zero()], lambda x: True, ge(0), trials=5, rng_seed=1)
        data = report.to_dict()
        assert list(data.keys()) == ["op", "lambda", "trials", "seed", "violations", "verdict"]


class TestMultiCenterBalls:
    def test_check_prepares_two_centers(self):
        # membership below the cluster scale is decided by both centers
        c1, c2 = parse_series("1"), parse_series("1 + 1*t^(1)")

        def member(x):
            return compare_sign(x - c1) >= 0

        report = check_prepares([c1, c2], member, ge(1), trials=150, rng_seed=12)
        # sign flips exactly inside a fibre next to c1: must be caught...
        # unless every sampled ball is uniform; the pair (c1 anchored) makes
        # the cut visible
        assert report.to_dict()["op"] == "check_prepares"
        # the positivity cut at c1 is prepared by {c1}: no ball next to both
        # centers straddles it
        assert report.passed()
