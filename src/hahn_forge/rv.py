"""Leading-term structure to a chosen depth, and the ball geometry it induces.

``rv_lambda(x, lam)`` records the valuation of x together with the unit jet
of x to depth lam: the coefficients of ``t^(-v(x)) * x`` at exponents in
``[0, lam]``.  Two elements share their image exactly when they lie in the
same multiplicative coset ``x (1 + {v > lam})``, so the fibres of
``x -> rv_lambda(x - c)`` are the balls lam-next to c.

The sampling utilities below draw reproducible finite-support points from
these fibres on the integer grid of ``series``, by one path for every rank
and every exact or inexact center.  Each sampler builds its schedule once
per call with ``_schedule``: the rows ``(gamma, key, base)`` of the
gammas = v(x0 - c) it may draw, each with the grid key of gamma and of
gamma + lam, so a draw picks a row by ``rng.choice`` and converts nothing.
``_half_steps`` merges the few drawn terms ``c t^(base + k/2)`` straight
into the grid of the center (for x0) or of x0 (for a mate), cutting them
at an inexact center's precision as ``field_op`` cuts a sum; the
``random`` calls come in the same order as when the points were built as
series and added.  ``ball_mates`` reads the key of ``v(x0 - c)`` at the
first difference of the two grids and keeps the largest, and
``rv_lambda`` compares its depth and cuts its jet on the grid keys.
``strong_unit_probe`` draws through the same helpers.

``run_trials`` is the one trial loop of every sampling verifier in the
package: it seeds each trial from the verifier's tag and seed, so that a
seed pins the whole run, resamples undecidable draws, counts the checked
trials and records witnesses.  ``_first_disagreement`` is the one
comparison of sampled classes that ``check_prepares``,
``verify_preparation`` and ``strong_unit_probe`` make: it values x0, then
each mate in turn, and stops at the first mate whose class differs, so a
point after a disagreement is never valued.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InsufficientPrecision, SingletonBall, UndecidableAtPrecision, ZeroInverse
from .series import (
    GroupElement,
    HahnSeries,
    TruncatedSeries,
    _first_difference,
    _half_steps,
    _key_lt,
    _key_of,
    _key_sum,
    _unit_jet,
    format_exponent,
    format_series,
    invert,
)


@dataclass(frozen=True)
class RvElement:
    """Valuation plus unit jet; ``gamma is None`` encodes the zero class."""

    lam: GroupElement
    gamma: GroupElement | None
    jet: HahnSeries | None

    def is_zero(self):
        return self.gamma is None

    def to_dict(self):
        if self.is_zero():
            return {"zero": True}
        return {
            "gamma": format_exponent(self.gamma),
            "jet": format_series(TruncatedSeries.exact(self.jet)),
        }

    def __repr__(self):
        if self.is_zero():
            return "RvElement(0)"
        return f"RvElement(gamma={format_exponent(self.gamma)}, jet={format_series(TruncatedSeries.exact(self.jet))!r})"


def rv_lambda(x, lam):
    """Class of x in the leading-term structure of depth lam."""
    if lam < (0,) * len(lam):
        raise ValueError("depth must be >= 0")
    if x.is_exact_zero():
        return RvElement(lam, None, None)
    if x.approx.is_zero():
        raise InsufficientPrecision("valuation of the argument is not determined")
    jet = _unit_jet(x, lam)
    if jet is None:
        raise InsufficientPrecision("unit jet is not determined to the requested depth")
    return RvElement(lam, x.approx.valuation(), jet)


def _jet_invert(jet, lam):
    """The jet of ``1/jet`` through lam.

    The truncated inverse is unique, so its terms through lam are those of
    ``invert`` at any target above lam; the target is lam + (0, ..., 0, 1).
    In rank > 1, when the gap of the jet lies in a later coordinate than
    lam, the inverse has infinitely many terms through lam and ``invert``
    raises ``PrecisionStall``.
    """
    step = GroupElement([0] * (lam.rank - 1) + [1])
    return invert(TruncatedSeries.exact(jet), lam + step).approx.truncate_through(lam)


def rv_combine(kind, a, b=None):
    """Product or inverse on leading-term classes; well-defined on cosets."""
    if kind == "mul":
        if a.lam != b.lam:
            raise ValueError("depth mismatch")
        if a.is_zero() or b.is_zero():
            return RvElement(a.lam, None, None)
        return RvElement(a.lam, a.gamma + b.gamma, (a.jet * b.jet).truncate_through(a.lam))
    if kind == "inv":
        if a.is_zero():
            raise ZeroInverse("the zero class has no inverse")
        return RvElement(a.lam, -a.gamma, _jet_invert(a.jet, a.lam))
    raise ValueError(f"unknown rv op {kind!r}")


def angular_component(x):
    """Leading coefficient; the angular component for the monomial section.

    Every pure power of t maps to 1, and the map is multiplicative.
    """
    if x.is_exact_zero():
        return Fraction(0)
    if x.approx.is_zero():
        raise InsufficientPrecision("leading coefficient is not determined")
    return x.approx.leading_coeff()


@dataclass(frozen=True)
class BallDescriptor:
    """The ball lam-next to ``center`` containing a given point.

    A zero datum denotes the singleton {center}; otherwise the descriptor
    names the fibre ``{x : rv_lambda(x - center) = datum}``.
    """

    center: TruncatedSeries
    datum: RvElement

    def to_dict(self):
        return {"center": format_series(self.center), "datum": self.datum.to_dict()}


def ball_of(x, center, lam):
    return BallDescriptor(center, rv_lambda(x - center, lam))


_COEFF_POOL = [c for c in range(-9, 10) if c]


def _tail_steps(rng, steps):
    """The ``(k, c)`` of the terms ``c t^(base + k/2)``, each k in 1..steps kept with probability 1/2."""
    return [(k, rng.choice(_COEFF_POOL)) for k in range(1, steps + 1) if rng.random() < 0.5]


def _tail_pairs(rng, steps):
    """The ``(k, c)`` of a random tail: ``_tail_steps``, or one drawn term when none is kept."""
    return _tail_steps(rng, steps) or [(rng.randint(1, steps), rng.choice(_COEFF_POOL))]


def _point_pairs(rng, steps):
    """The ``(k, c)`` of a random point: a head at k = 0, then ``_tail_steps``."""
    return [(0, rng.choice(_COEFF_POOL)), *_tail_steps(rng, steps)]


def random_tail(rng, base, steps=4):
    """Random terms at exponents ``base + {1/2, 1, ...}``; one drawn term when none is kept."""
    return _half_steps(TruncatedSeries.zero(len(base)), _key_of(base), _tail_pairs(rng, steps)).approx


def sample_in_ball(ball, rng_seed, extra_depth=Fraction(2)):
    """Deterministic random point of the given ball.

    The point is the center plus the datum read back as a series, plus a
    nonempty random tail strictly below depth ``gamma + lam``.
    """
    if ball.datum.is_zero():
        raise SingletonBall("the ball is the single point at its center")
    rng = random.Random(f"ball:{rng_seed}")
    gamma, lam = ball.datum.gamma, ball.datum.lam
    body = ball.datum.jet.shift(gamma)
    steps = max(1, int(2 * Fraction(extra_depth)))
    tail = random_tail(rng, gamma + lam, steps=steps)
    return ball.center + TruncatedSeries.exact(body + tail)


def ball_mates(rng, x0, centers, lam, count=2, steps=3):
    """Points sharing with x0 every ball lam-next to each given center.

    Perturbs below ``max_c v(x0 - c) + lam``, which fixes all the jets at
    once.  Returns None when x0 collides with a center (singleton fibre).
    """
    depth = None
    for c in centers:
        first = _first_difference(x0, c)
        if first is None:
            return None
        if depth is None or _key_lt(depth, first):
            depth = first
    return _mates_at(rng, x0, _key_sum(depth[:2], _key_of(lam)), count, steps)


def _mates_at(rng, x0, base, count, steps):
    """``count`` points x0 + tail, each tail random at exponents above the key ``base``, merged onto x0's grid."""
    return [_half_steps(x0, base, _tail_pairs(rng, steps)) for _ in range(count)]


@dataclass
class VerificationReport:
    """Outcome of a sampled check; serializes to the frozen JSON layout.

    ``checked`` counts the trials whose check ran to the end; it is kept
    out of the JSON so that the key order stays frozen.
    """

    op: str
    lam: GroupElement
    trials: int
    seed: int
    violations: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    checked: int = 0

    @property
    def verdict(self):
        if self.violations:
            return "fail"
        return "pass" if self.checked else "undecided"

    def passed(self):
        return self.verdict == "pass"

    def to_dict(self):
        out = {
            "op": self.op,
            "lambda": format_exponent(self.lam),
            "trials": self.trials,
            "seed": self.seed,
            "violations": self.violations,
            "verdict": self.verdict,
        }
        out.update(self.extra)
        return out

    def to_json(self):
        return json.dumps(self.to_dict())


def _ball_payload(x0, centers, lam):
    return {"base": format_series(x0), "data": [ball_of(x0, c, lam).to_dict() for c in centers]}


def _first_disagreement(value, x0, mates):
    """``(x0, y)`` for the first mate y whose ``value`` differs from x0's, or None; each point is
    valued in turn, up to the first disagreement."""
    v0 = value(x0)
    for y in mates:
        if value(y) != v0:
            return x0, y
    return None


def run_trials(report, tag, centers, draw, check, skip):
    """The seeded trial loop behind every sampling verifier.

    Trial k draws from ``random.Random(f"{tag}:{seed}:{k}")`` and makes up
    to 16 attempts.  ``draw(rng)`` returns a sample whose first item is the
    ball base x0, or None to resample; ``check(*sample)`` returns a
    disagreeing pair or None, and an exception in ``skip`` resamples.  The
    first attempt whose check completes ends the trial and counts as
    checked; a disagreeing pair is recorded with the balls of x0 lam-next
    to ``centers``.  A negative trial count or depth ``report.lam``, or a
    center of another rank than ``report.lam``, is a ValueError, raised
    before any draw.
    """
    if report.trials < 0:
        raise ValueError(f"trials must be at least 0, got trials {report.trials}")
    if report.lam < (0,) * len(report.lam):
        raise ValueError("depth must be >= 0")
    if any(c.rank != len(report.lam) for c in centers):
        raise ValueError("rank mismatch")
    for trial in range(report.trials):
        rng = random.Random(f"{tag}:{report.seed}:{trial}")
        for _attempt in range(16):
            sample = draw(rng)
            if sample is None:
                continue
            try:
                pair = check(*sample)
            except skip:
                continue
            report.checked += 1
            if pair is not None:
                ball = _ball_payload(sample[0], centers, report.lam)
                report.violations.append({"ball": ball, "x": format_series(pair[0]), "y": format_series(pair[1])})
            break
    return report


def _schedule(lo, hi, den, lam):
    """The rows ``(gamma, key, base)`` a sampler draws gamma = v(x0 - c) from, built once per call.

    gamma is (k/den, 0, ..., 0) in the rank of lam for k in ``lo..hi``,
    ``key`` its grid key and ``base`` the grid key of gamma + lam.
    """
    gammas = (GroupElement.scalar(Fraction(k, den), lam.rank) for k in range(lo, hi + 1))
    return tuple((gamma, key := _key_of(gamma), _key_sum(key, _key_of(lam))) for gamma in gammas)


def near_sample(rng, centers, lam, rows, steps, count, mate_steps=3):
    """A point x0 near a random center, and its ball-mates.

    ``v(x0 - center)`` is the gamma of a row drawn from the schedule
    ``rows`` (``_schedule``).  Returns ``(x0, mates, gamma)``, or None
    when x0 collides with a center.
    """
    anchor = rng.choice(centers)
    gamma, key, _ = rng.choice(rows)
    x0 = _half_steps(anchor, key, _point_pairs(rng, steps))
    mates = ball_mates(rng, x0, centers, lam, count=count, steps=mate_steps)
    return None if mates is None else (x0, mates, gamma)


def check_prepares(C, membership, lam, trials=200, rng_seed=0, gamma_span=2):
    """Sample balls lam-next to C and test that membership is constant on each.

    ``membership`` is any predicate on finite-support points; a verdict of
    fail carries witness pairs.  Sampling artifacts (undecidable queries)
    are resampled, never reported.  gamma = v(x0 - c) is drawn as k/2 for
    k from ``-2 gamma_span`` to ``int(2 (2 + lam)) + 1``; a negative
    ``gamma_span`` is a ValueError.
    """
    if not C:
        raise ValueError("the preparing set must be nonempty")
    if gamma_span < 0:
        raise ValueError(f"gamma_span must be at least 0, got gamma_span {gamma_span}")
    rows = _schedule(-2 * gamma_span, int(2 * (2 + lam.first())) + 1, 2, lam)

    def check(x0, mates, _gamma):
        return _first_disagreement(lambda p: bool(membership(p)), x0, mates)

    report = VerificationReport("check_prepares", lam, trials, rng_seed)
    draw = lambda rng: near_sample(rng, C, lam, rows, steps=3, count=2)
    return run_trials(report, "prepare", C, draw, check, (UndecidableAtPrecision, InsufficientPrecision))
