"""Oracles for the parts of a verifier trial: precision, samples and rv_lambda.

Each oracle is a plain copy of the textbook formulas on ``GroupElement``s of
``Fraction``s: a result precision is ``min(p_a + v(b), p_b + v(a))`` or the
min of the operand precisions, a value is cut below its precision, and
``v(x0 - c)`` is the valuation of the truncated difference.  The package
must give the same precisions, values, equality, hashes and text, and the
samplers must draw the same points with the same random calls.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hahn_forge.errors import InsufficientPrecision
from hahn_forge.rv import ball_mates, random_point, random_tail, rv_lambda
from hahn_forge.series import (
    INFINITE,
    GroupElement,
    HahnSeries,
    TruncatedSeries,
    field_op,
    format_exponent,
    format_rational,
    format_series,
    parse_series,
)

POOL = [c for c in range(-9, 10) if c]


def ge(*coords):
    return GroupElement([Fraction(q) for q in coords])


# ---------------------------------------------------------------------------
# precision oracles


def _min(p, q):
    if p is INFINITE:
        return q
    if q is INFINITE:
        return p
    return p if p < q else q


def _vlb(x):
    return x.prec if x.approx.is_zero() else x.approx.valuation()


def _cut(approx, prec):
    return approx if prec is INFINITE else approx.truncate_below(prec)


def oracle_field_op(kind, a, b):
    """``(approx, prec)`` of a field operation by the precision formulas."""
    if kind in ("add", "sub"):
        prec = _min(a.prec, b.prec)
        approx = a.approx + b.approx if kind == "add" else a.approx - b.approx
        return _cut(approx, prec), prec
    if (a.prec is INFINITE and a.approx.is_zero()) or (b.prec is INFINITE and b.approx.is_zero()):
        return HahnSeries.zero(a.rank), INFINITE
    pa, pb = a.prec, b.prec
    if pa is INFINITE and pb is INFINITE:
        prec = INFINITE
    elif pa is INFINITE:
        prec = pb + _vlb(a)
    elif pb is INFINITE:
        prec = pa + _vlb(b)
    else:
        prec = _min(pa + _vlb(b), pb + _vlb(a))
    return _cut(a.approx * b.approx, prec), prec


def oracle_truncate(x, p):
    if p is INFINITE or (x.prec is not INFINITE and p >= x.prec):
        return x.approx, x.prec
    return x.approx.truncate_below(p), p


def oracle_text(approx, prec):
    """The series text by a walk over the ``(GroupElement, Fraction)`` pairs of ``.terms``."""
    zero = GroupElement.zero(approx.rank)
    parts = []
    for i, (e, c) in enumerate(approx.terms):
        body = format_rational(abs(c)) if e == zero else f"{format_rational(abs(c))}*t^({format_exponent(e)})"
        if i == 0:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if c > 0 else f" - {body}")
    body = "".join(parts) or "0"
    return body if prec is INFINITE else f"{body} + O(t^({format_exponent(prec)}))"


def assert_matches(got, approx, prec):
    """``got`` has the oracle's value, precision, equality, hash and text."""
    if prec is INFINITE:
        assert got.prec is INFINITE
    else:
        assert type(got.prec) is GroupElement and got.prec == prec
        assert all(type(q) is Fraction for q in got.prec)
    assert got.approx == approx
    assert got.is_exact() == (prec is INFINITE)
    rebuilt = TruncatedSeries(approx, prec)
    assert got == rebuilt and rebuilt == got
    assert hash(got) == hash(rebuilt)
    assert format_series(got) == oracle_text(approx, prec)


def rank1_exponent(draw):
    return ge(Fraction(draw(st.integers(-6, 12)), draw(st.sampled_from([1, 2, 3, 6]))))


def rank2_exponent(draw):
    second = Fraction(draw(st.integers(-4, 8)), draw(st.sampled_from([1, 3])))
    return ge(Fraction(draw(st.integers(-4, 8)), 2), second)


@st.composite
def operand(draw, rank):
    """An exact, a truncated, or a ``0 + O(t^p)`` operand of the given rank."""
    exponent = rank1_exponent if rank == 1 else rank2_exponent
    shape = draw(st.sampled_from(["exact", "truncated", "zero_o", "exact_zero"]))
    if shape == "exact_zero":
        return TruncatedSeries.zero(rank)
    if shape == "zero_o":
        return TruncatedSeries(HahnSeries.zero(rank), exponent(draw))
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        terms.append((exponent(draw), Fraction(draw(st.integers(-9, 9)), draw(st.sampled_from([1, 2, 7])))))
    approx = HahnSeries(terms, rank)
    return TruncatedSeries(approx, INFINITE if shape == "exact" else exponent(draw))


KINDS = st.sampled_from(["add", "sub", "mul"])


class TestTextOracle:
    """``format_series`` and ``repr`` write from the grid; ``oracle_text`` walks ``.terms``."""

    @given(st.sampled_from([1, 2]).flatmap(operand))
    def test_format_series_matches_the_oracle(self, x):
        assert format_series(x) == oracle_text(x.approx, x.prec)
        assert repr(x) == f"TruncatedSeries({oracle_text(x.approx, x.prec)!r})"
        assert repr(x.approx) == f"HahnSeries({oracle_text(x.approx, INFINITE)!r})"

    @pytest.mark.parametrize("text, rank", [
        ("-3/7*t^(-1/2) + 1/2 - 5*t^(3/4) + O(t^(7/6))", 1),
        ("-1*t^(0,-2) + 3/2 + 1*t^(0,1/3) - 2*t^(1/2,-5) + O(t^(1,-1/3))", 2),
        ("-4 + 1*t^(0,1)", 2),
        ("0 + O(t^(-1/2))", 1),
        ("0 + O(t^(0,-2/3))", 2),
        ("0", 1),
        ("0", 2),
    ])
    def test_fixed_shapes(self, text, rank):
        x = parse_series(text, rank)
        assert format_series(x) == oracle_text(x.approx, x.prec) == text


def check_chain(a, b, c, kind1, kind2, cut, shift, scale):
    """Two field operations, a truncation, negation, scale and shift, each against its oracle."""
    approx, prec = oracle_field_op(kind1, a, b)
    first = field_op(kind1, a, b)
    assert_matches(first, approx, prec)
    # the result's own precision feeds the next operation
    approx, prec = oracle_field_op(kind2, first, c)
    second = field_op(kind2, first, c)
    assert_matches(second, approx, prec)
    approx, prec = oracle_field_op(kind2, c, first)
    assert_matches(field_op(kind2, c, first), approx, prec)
    for x in (a, first, second):
        approx, prec = oracle_truncate(x, cut)
        assert_matches(x.truncate(cut), approx, prec)
        assert_matches(x.truncate(INFINITE), x.approx, x.prec)
        assert_matches(-x, -x.approx, x.prec)
        assert_matches(x.scale(scale), x.approx.scale(scale), x.prec)
        assert_matches(x.shift(shift), x.approx.shift(shift), x.prec if x.prec is INFINITE else x.prec + shift)
    # equality is equality of value and precision
    for x, y in ((a, b), (first, second), (a, a.truncate(cut))):
        finite = x.prec is not INFINITE and y.prec is not INFINITE
        same = x.approx == y.approx and (x.prec is y.prec or (finite and x.prec == y.prec))
        assert (x == y) == same
        if same:
            assert hash(x) == hash(y)


class TestPrecisionOracle:
    @given(operand(1), operand(1), operand(1), KINDS, KINDS, st.data())
    def test_rank_one(self, a, b, c, kind1, kind2, data):
        bound = st.builds(lambda n, d: ge(Fraction(n, d)), st.integers(-6, 14), st.sampled_from([1, 2, 5]))
        cut = data.draw(st.one_of(st.just(INFINITE), bound))
        shift = ge(Fraction(data.draw(st.integers(-5, 5)), data.draw(st.sampled_from([1, 2, 3]))))
        scale = Fraction(data.draw(st.integers(-9, 9)), data.draw(st.sampled_from([1, 4])))
        check_chain(a, b, c, kind1, kind2, cut, shift, scale)

    @given(operand(2), operand(2), operand(2), KINDS, KINDS, st.data())
    def test_rank_two(self, a, b, c, kind1, kind2, data):
        bound = st.builds(lambda i, j: ge(Fraction(i, 2), Fraction(j, 3)), st.integers(-4, 10), st.integers(-6, 6))
        cut = data.draw(st.one_of(st.just(INFINITE), bound))
        shift = ge(Fraction(data.draw(st.integers(-3, 3)), 2), data.draw(st.integers(-3, 3)))
        scale = Fraction(data.draw(st.integers(-9, 9)), data.draw(st.sampled_from([1, 4])))
        check_chain(a, b, c, kind1, kind2, cut, shift, scale)

    def test_horner_steps_match_the_oracle(self):
        # the shape of every verifier trial: Horner through field_op, each step cut at prec
        rng = random.Random("horner-oracle")
        for _ in range(200):
            rank = rng.choice([1, 1, 2])
            coeffs = [random_series(rng, rank, inexact=rng.random() < 0.3) for _ in range(rng.randint(1, 5))]
            x = random_series(rng, rank, inexact=rng.random() < 0.3)
            prec = random_exponent(rng, rank)
            total = TruncatedSeries.zero(rank)
            o_approx, o_prec = HahnSeries.zero(rank), INFINITE
            for c in reversed(coeffs):
                oracle_total = TruncatedSeries(o_approx, o_prec)
                o_approx, o_prec = oracle_field_op("mul", oracle_total, x)
                o_approx, o_prec = oracle_field_op("add", TruncatedSeries(o_approx, o_prec), c)
                o_approx, o_prec = oracle_truncate(TruncatedSeries(o_approx, o_prec), prec)
                total = (total * x + c).truncate(prec)
                assert_matches(total, o_approx, o_prec)


# ---------------------------------------------------------------------------
# sampler oracles: copies of the Fraction-level samplers


def oracle_random_tail(rng, base, steps=4, prob=0.5, force_one=False):
    rank = base.rank
    terms = []
    for k in range(1, steps + 1):
        if rng.random() < prob:
            terms.append((base + GroupElement.scalar(Fraction(k, 2), rank), Fraction(rng.choice(POOL))))
    if force_one and not terms:
        k = rng.randint(1, steps)
        terms.append((base + GroupElement.scalar(Fraction(k, 2), rank), Fraction(rng.choice(POOL))))
    return HahnSeries(terms, rank)


def oracle_random_point(rng, lead, steps=4, prob=0.5):
    head = HahnSeries.monomial(Fraction(rng.choice(POOL)), lead)
    return TruncatedSeries.exact(head + oracle_random_tail(rng, lead, steps, prob))


def oracle_ball_mates(rng, x0, centers, lam, count=2, steps=3):
    depth = None
    for c in centers:
        diff, _ = oracle_field_op("sub", x0, c)
        if diff.is_zero():
            return None
        v = diff.valuation()
        if depth is None or v > depth:
            depth = v
    mates = []
    for _ in range(count):
        tail = oracle_random_tail(rng, depth + lam, steps=steps, prob=0.5, force_one=True)
        mates.append(oracle_field_op("add", x0, TruncatedSeries.exact(tail)))
    return mates


def oracle_rv_lambda(x, lam):
    """``(gamma, jet)``, None for the zero class, or the exception class raised."""
    if lam < GroupElement.zero(lam.rank):
        return ValueError
    if x.prec is INFINITE and x.approx.is_zero():
        return None
    if x.approx.is_zero():
        return InsufficientPrecision
    gamma = x.approx.valuation()
    if x.prec is not INFINITE and not (x.prec > gamma + lam):
        return InsufficientPrecision
    return gamma, x.approx.shift(-gamma).truncate_through(lam)


def random_exponent(rng, rank):
    first = Fraction(rng.randint(-6, 10), rng.choice([1, 2, 3]))
    if rank == 1:
        return ge(first)
    return ge(first, Fraction(rng.randint(-4, 4), rng.choice([1, 2])))


def random_series(rng, rank, inexact=False, max_terms=4):
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        terms.append((random_exponent(rng, rank), Fraction(rng.choice(POOL), rng.choice([1, 1, 2, 3]))))
    approx = HahnSeries(terms, rank)
    return TruncatedSeries(approx, random_exponent(rng, rank) if inexact else INFINITE)


def random_lam(rng, rank, allow_negative=False):
    q = Fraction(rng.randint(-2 if allow_negative else 0, 4), rng.choice([1, 2]))
    if rank == 1:
        return ge(q)
    return ge(q, rng.randint(-2, 2))


def twin_rngs(seed):
    return random.Random(f"oracle:{seed}"), random.Random(f"oracle:{seed}")


def same_value(x, y):
    return x == y and format_series(x) == format_series(y) and x.approx._grid == y.approx._grid


SEEDS = range(2000)


class TestSamplerOracles:
    def test_random_tail_and_point(self):
        for seed in SEEDS:
            setup = random.Random(seed)
            rank = setup.choice([1, 1, 2])
            base = random_exponent(setup, rank)
            steps = setup.randint(1, 5)
            prob = setup.choice([0.0, 0.3, 0.5, 1.0])
            force = setup.random() < 0.5
            r1, r2 = twin_rngs(seed)
            got = random_tail(r1, base, steps=steps, prob=prob, force_one=force)
            want = oracle_random_tail(r2, base, steps=steps, prob=prob, force_one=force)
            assert got == want and got._grid == want._grid and got.rank == rank
            assert r1.getstate() == r2.getstate()
            got = random_point(r1, base, steps=steps, prob=prob)
            want = oracle_random_point(r2, base, steps=steps, prob=prob)
            assert same_value(got, want) and got.is_exact()
            assert r1.getstate() == r2.getstate()

    def test_ball_mates(self):
        outcomes = {"none": 0, "mates": 0, "inexact": 0}
        for seed in SEEDS:
            setup = random.Random(seed)
            rank = setup.choice([1, 1, 2])
            centers = [random_series(setup, rank, inexact=setup.random() < 0.4) for _ in range(setup.randint(1, 3))]
            anchor = setup.choice(centers)
            lead = random_exponent(setup, rank)
            shape = setup.random()
            if shape < 0.1:
                x0 = anchor  # collides with a center
            elif shape < 0.2 and anchor.prec is not INFINITE:
                # agrees with an inexact center below its precision
                x0 = anchor + TruncatedSeries.exact(HahnSeries.monomial(1, anchor.prec))
            else:
                x0 = anchor + oracle_random_point(setup, lead, steps=setup.randint(1, 3))
            lam = random_lam(setup, rank)
            count, steps = setup.randint(1, 3), setup.randint(1, 3)
            r1, r2 = twin_rngs(seed)
            got = ball_mates(r1, x0, centers, lam, count=count, steps=steps)
            want = oracle_ball_mates(r2, x0, centers, lam, count=count, steps=steps)
            assert r1.getstate() == r2.getstate()
            if want is None:
                assert got is None
                outcomes["none"] += 1
                continue
            outcomes["mates"] += 1
            outcomes["inexact"] += any(c.prec is not INFINITE for c in centers)
            assert len(got) == count
            for mate, (approx, prec) in zip(got, want):
                assert_matches(mate, approx, prec)
        # every branch is reached
        assert min(outcomes.values()) > 100

    def test_rv_lambda(self):
        outcomes = {}
        for seed in SEEDS:
            setup = random.Random(seed)
            rank = setup.choice([1, 1, 2])
            shape = setup.random()
            if shape < 0.05:
                x = TruncatedSeries.zero(rank)
            elif shape < 0.1:
                x = TruncatedSeries(HahnSeries.zero(rank), random_exponent(setup, rank))
            else:
                x = random_series(setup, rank, inexact=setup.random() < 0.5, max_terms=6)
            lam = random_lam(setup, rank, allow_negative=True)
            want = oracle_rv_lambda(x, lam)
            try:
                got = rv_lambda(x, lam)
            except (ValueError, InsufficientPrecision) as exc:
                assert type(exc) is want
                outcomes[want.__name__] = outcomes.get(want.__name__, 0) + 1
                continue
            if want is None:
                assert got.is_zero() and got.lam == lam
                outcomes["zero"] = outcomes.get("zero", 0) + 1
                continue
            gamma, jet = want
            assert got.lam == lam and got.gamma == gamma and type(got.gamma) is GroupElement
            assert got.jet == jet and got.jet._grid == jet._grid and got.jet.rank == rank
            assert got.to_dict() == {"gamma": format_exponent(gamma), "jet": format_series(TruncatedSeries.exact(jet))}
            outcomes["class"] = outcomes.get("class", 0) + 1
        assert set(outcomes) == {"ValueError", "InsufficientPrecision", "zero", "class"}
        assert min(outcomes.values()) > 20
