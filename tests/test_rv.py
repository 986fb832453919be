"""Leading-term classes, balls, and the sampling verifier."""

import os
import random
import signal
from fractions import Fraction
from functools import partial
from math import ceil, floor

import pytest
from hypothesis import event, given, settings, strategies as st

import hahn_forge.prepare as preparation
import hahn_forge.rv as rv
from hahn_forge.errors import InsufficientPrecision, PrecisionStall, SingletonBall, ZeroInverse
from hahn_forge.rv import (
    _mates_at,
    angular_component,
    ball_mates,
    ball_of,
    check_prepares,
    near_sample,
    random_point,
    random_tail,
    rv_combine,
    rv_lambda,
    sample_in_ball,
)
from hahn_forge.series import (
    GroupElement,
    HahnSeries,
    TruncatedSeries,
    _exponent,
    _first_difference,
    _key_lt,
    _key_of,
    _key_sum,
    compare_sign,
    format_series,
    parse_series,
    standard_part,
    valuation,
)
from test_prepare import _reference_inside_annulus

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

    def test_a_disagreement_before_a_skip_is_recorded(self, monkeypatch):
        # the points are compared in turn, so the second mate, which would raise, is never asked
        x0, y1, y2 = s("1"), s("1 + 1*t^(1)"), s("1 + 2*t^(1)")
        monkeypatch.setattr(rv, "near_sample", lambda *args, **kw: (x0, [y1, y2], ge(0)))
        asked = []

        def member(x):
            asked.append(x)
            if x is y2:
                raise InsufficientPrecision("undecidable")
            return x is x0

        report = check_prepares([TruncatedSeries.zero()], member, ge(0), trials=1, rng_seed=1)
        assert asked == [x0, y1] and report.checked == 1
        assert [(v["x"], v["y"]) for v in report.violations] == [("1", "1 + 1*t^(1)")]

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


class TestDocumentedErrors:
    def test_the_zero_class(self):
        zero = rv_lambda(TruncatedSeries.zero(), ge(1))
        assert zero.to_dict() == {"zero": True} and repr(zero) == "RvElement(0)"
        assert repr(rv_lambda(s("2*t^(1) + 3*t^(2)"), ge(1))) == "RvElement(gamma=1, jet='2 + 3*t^(1)')"

    def test_combining_classes(self):
        a, b = rv_lambda(s("1"), ge(1)), rv_lambda(s("1"), ge(2))
        with pytest.raises(ValueError, match="depth mismatch"):
            rv_combine("mul", a, b)
        with pytest.raises(ValueError, match="unknown rv op 'div'"):
            rv_combine("div", a, a)

    def test_an_undetermined_leading_coefficient(self):
        with pytest.raises(InsufficientPrecision):
            angular_component(s("0 + O(t^(1))"))

    def test_ball_descriptor_text(self):
        ball = ball_of(s("1*t^(1)"), TruncatedSeries.zero(), ge(0))
        assert ball.to_dict() == {"center": "0", "datum": {"gamma": "1", "jet": "1"}}

    def test_sampling_needs_a_nonempty_set(self):
        with pytest.raises(ValueError, match="nonempty"):
            check_prepares([], lambda x: True, ge(1))

    def test_ranks_must_match(self):
        with pytest.raises(ValueError, match="rank mismatch"):
            ball_mates(random.Random(0), s("1"), [parse_series("1", 2)], ge(1))


# ---------------------------------------------------------------------------
# the draw stream: every sampler's draw against copies of the draw as it was
# built before it went onto one grid, term by term and joined by field_op

_POOL = [c for c in range(-9, 10) if c]


def _series_half_steps(base, pairs):
    rank = len(base)
    return HahnSeries([(base + GroupElement.scalar(Fraction(k, 2), rank), c) for k, c in pairs], rank)


def _series_tail_steps(rng, steps):
    return [(k, rng.choice(_POOL)) for k in range(1, steps + 1) if rng.random() < 0.5]


def series_random_tail(rng, base, steps=4):
    pairs = _series_tail_steps(rng, steps) or [(rng.randint(1, steps), rng.choice(_POOL))]
    return _series_half_steps(base, pairs)


def series_random_point(rng, lead, steps=4):
    head = (0, rng.choice(_POOL))
    return TruncatedSeries.exact(_series_half_steps(lead, [head, *_series_tail_steps(rng, steps)]))


def series_ball_mates(rng, x0, centers, lam, count=2, steps=3):
    depth = None
    for c in centers:
        first = _first_difference(x0, c)
        if first is None:
            return None
        if depth is None or _key_lt(depth, first):
            depth = first
    return series_mates_at(rng, x0, _exponent(*depth[:2]), lam, count, steps)


def series_mates_at(rng, x0, depth, lam, count, steps):
    return [x0 + TruncatedSeries.exact(series_random_tail(rng, depth + lam, steps=steps)) for _ in range(count)]


def series_near_sample(rng, centers, lam, grid, steps, count, mate_steps=3):
    anchor = rng.choice(centers)
    gamma = GroupElement.scalar(Fraction(rng.randint(*grid), 2), anchor.rank)
    x0 = anchor + series_random_point(rng, gamma, steps=steps)
    mates = series_ball_mates(rng, x0, centers, lam, count=count, steps=mate_steps)
    return None if mates is None else (x0, mates, gamma)


def series_probe_draw(rng, center, gammas, lam, inside):
    """``strong_unit_probe``'s draw, with membership ``inside(x)`` at every point."""
    gamma = rng.choice(gammas)
    x0 = center + series_random_point(rng, gamma, steps=2)
    if not inside(x0):
        return None
    mates = [m for m in series_mates_at(rng, x0, gamma, lam, 2, 3) if inside(m)]
    return (x0, mates) if mates else None


def same_point(x, y):
    return x == y and x.prec == y.prec and format_series(x) == format_series(y)


def same_points(xs, ys):
    return len(xs) == len(ys) and all(same_point(x, y) for x, y in zip(xs, ys))


def _exponents(draw, rank, lo=-6, hi=9):
    first = Fraction(draw(st.integers(lo, hi)), draw(st.sampled_from([1, 2, 3])))
    return GroupElement([first] + [Fraction(draw(st.integers(-2, 2)), draw(st.sampled_from([1, 2])))
                                   for _ in range(rank - 1)])


@st.composite
def exact_centers(draw, rank):
    terms = [(_exponents(draw, rank), Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 3))))
             for _ in range(draw(st.integers(0, 4)))]
    return TruncatedSeries.exact(HahnSeries(terms, rank))


@st.composite
def center_sets(draw, rank):
    """``(kind, centers)``: exact centers; centers known below a precision; two centers at equal distance
    from every point drawn near either below t^3; or the kind ``collision``, exact centers of which the
    test turns one into a drawn point."""
    kind = draw(st.sampled_from(["exact", "inexact", "equal distance", "collision"]))
    if kind == "equal distance":
        a, step = draw(exact_centers(rank)), GroupElement.scalar(draw(st.sampled_from([3, 4, 10])), rank)
        bump = TruncatedSeries.monomial(1, step)
        return kind, [a + bump, a - bump]
    centers = draw(st.lists(exact_centers(rank), min_size=1, max_size=3))
    if kind == "inexact":
        centers = [c if draw(st.booleans()) else TruncatedSeries(c.approx, _exponents(draw, rank, -4, 12))
                   for c in centers]
    if kind == "collision":
        centers = [centers[0], centers[0]]
    return kind, centers


@st.composite
def draw_cases(draw):
    rank = draw(st.sampled_from([1, 2]))
    kind, centers = draw(center_sets(rank))
    lam = GroupElement([Fraction(draw(st.integers(0, 4)), 2)] + [draw(st.integers(-1, 2)) for _ in range(rank - 1)])
    grid = (draw(st.integers(-4, 0)), draw(st.integers(0, 8)))
    sizes = [draw(st.integers(1, 3)) for _ in range(3)]
    return kind, centers, lam, grid, sizes, draw(st.integers(0, 10**6))


class TestDrawStream:
    """The draw on one grid gives the points of the draw built from series, with the same ``random`` calls:
    the same ``(x0, mates, gamma)`` by ``==``, precision and text, or None on both sides, and the same
    generator state afterwards."""

    @settings(max_examples=300, deadline=None)
    @given(draw_cases())
    def test_near_sample_and_its_parts(self, case):
        kind, centers, lam, grid, (steps, count, mate_steps), seed = case
        if kind == "collision":
            # x0 drawn next to the first center becomes the other one, which the replay draws again
            first = series_near_sample(random.Random(seed), centers, lam, grid, steps, count, mate_steps)
            index = random.Random(seed).choice([0, 1])
            centers = [centers[0], first[0]] if index == 0 else [first[0], centers[0]]
        new, old = random.Random(seed), random.Random(seed)
        got = near_sample(new, centers, lam, grid, steps, count, mate_steps)
        want = series_near_sample(old, centers, lam, grid, steps, count, mate_steps)
        assert new.getstate() == old.getstate()
        if kind == "collision":
            assert want is None
        event(f"rank {lam.rank}, {kind}: " + ("None" if want is None else "drawn"))
        if want is None:
            assert got is None
        else:
            assert same_point(got[0], want[0]) and same_points(got[1], want[1]) and got[2] == want[2]
        # the parts, each on the generator where the draw left it
        gamma = GroupElement.scalar(Fraction(new.randint(*grid), 2), lam.rank)
        old.randint(*grid)
        assert same_point(random_point(new, gamma, steps), series_random_point(old, gamma, steps))
        tail = random_tail(new, gamma, steps)
        assert tail == series_random_tail(old, gamma, steps) and not tail.is_zero()
        x0 = centers[-1] + series_random_point(random.Random(seed), gamma, steps)
        got, want = ball_mates(new, x0, centers, lam, count, mate_steps), series_ball_mates(old, x0, centers, lam,
                                                                                            count, mate_steps)
        assert (got is None and want is None) or same_points(got, want)
        got = _mates_at(new, x0, _key_sum(_key_of(gamma), _key_of(lam)), count, mate_steps)
        assert same_points(got, series_mates_at(old, x0, gamma, lam, count, mate_steps))
        assert new.getstate() == old.getstate()

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([1, 2]), st.data(), st.booleans(), st.integers(0, 10**6))
    def test_the_probe_unit_draw(self, rank, data, inexact, seed):
        center = data.draw(exact_centers(rank))
        if inexact:
            center = TruncatedSeries(center.approx, _exponents(data.draw, rank, 0, 12))
        lo = data.draw(st.integers(-2, 2))
        inner, outer = (TruncatedSeries.monomial(data.draw(st.sampled_from([1, -1, Fraction(1, 2), 3])),
                                                 GroupElement.scalar(e, rank)) for e in (lo + data.draw(
                                                     st.integers(1, 3)), lo))
        lam = GroupElement.scalar(data.draw(st.integers(0, 2)), rank)
        captured = {}

        def capture(report, tag, centers, draw, check, skip):
            captured["draw"] = draw
            return report

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(preparation, "run_trials", capture)
            preparation.strong_unit_probe(preparation.StrongUnitSpec(), (center, inner, outer), lam)
        # the copy reads membership from the differences themselves, not from the grids
        inside = partial(_reference_inside_annulus, center=center, inner=inner, outer=outer)
        lo4, hi4 = floor(valuation(outer).first() * 4), ceil(valuation(inner).first() * 4)
        gammas = [GroupElement.scalar(Fraction(k, 4), rank) for k in range(lo4, hi4 + 1)]
        new, old = random.Random(seed), random.Random(seed)
        for _ in range(6):
            got, want = captured["draw"](new), series_probe_draw(old, center, gammas, lam, inside)
            assert new.getstate() == old.getstate()
            event(f"rank {rank}, " + ("inexact" if inexact else "exact") + (": None" if want is None else ": drawn"))
            assert (got is None and want is None) or (same_point(got[0], want[0]) and same_points(got[1], want[1]))
