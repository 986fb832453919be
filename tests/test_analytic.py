"""Analytic evaluation, Hensel lifting, and implicit solving."""

import math
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from hahn_forge.analytic import (
    FunctionRegistry,
    default_registry,
    evaluate_analytic,
    hensel_root,
    implicit_series,
    load_registry_line,
    register_function,
    sqrt_shifted,
)
from hahn_forge.errors import (
    DuplicateName,
    MalformedRule,
    NotInfinitesimal,
    NotRegularDegreeOne,
    PrecisionStall,
)
from hahn_forge.multiseries import (
    MultiSeries,
    in_truncation_ideal,
    ms_add,
    ms_mul,
    ms_sub,
    parse_multiseries,
)
from hahn_forge.rv import ball_of, rv_lambda, sample_in_ball
from hahn_forge.series import (
    GroupElement,
    HahnSeries,
    INFINITE,
    TruncatedSeries,
    format_series,
    parse_series,
    valuation,
)

ge = lambda x: GroupElement.scalar(Fraction(x))
s = parse_series
ms = parse_multiseries


def poly_compose_trunc(outer, inner, deg):
    """Plain-rational truncated composition, the independent oracle."""
    out = [Fraction(0)] * (deg + 1)
    power = [Fraction(1)] + [Fraction(0)] * deg
    for k, c in enumerate(outer):
        if k > deg:
            break
        if k:
            nxt = [Fraction(0)] * (deg + 1)
            for i, a in enumerate(power):
                if not a:
                    continue
                for j, b in enumerate(inner):
                    if i + j <= deg:
                        nxt[i + j] += a * b
            power = nxt
        for i, a in enumerate(power):
            out[i] += c * a
    return out


class TestRegistry:
    def test_builtins_present(self):
        reg = FunctionRegistry()
        assert reg.names() == ["cos", "exp", "log1p", "sin"]

    def test_register_and_duplicate(self):
        reg = FunctionRegistry()
        register_function({"name": "inv1p", "vars": 1, "radius": Fraction(3, 2), "table": [1, -1, 1]}, reg)
        with pytest.raises(DuplicateName):
            register_function({"name": "inv1p", "vars": 1, "radius": 2, "table": [1]}, reg)

    def test_radius_gate(self):
        reg = FunctionRegistry()
        with pytest.raises(MalformedRule):
            register_function({"name": "geometric", "vars": 1, "radius": 1, "rule": lambda idx: Fraction(1)}, reg)

    def test_table_with_zero_tail(self):
        reg = FunctionRegistry()
        fn = register_function({"name": "halfsq", "vars": 1, "radius": 2, "table": [1, 0, Fraction(-1, 2)]}, reg)
        assert fn.polynomial
        out = evaluate_analytic(fn, [s("2")], ge(6))
        assert out == s("-1")  # 1 - (1/2)*4

    def test_registry_line(self):
        reg = FunctionRegistry()
        fn = load_registry_line("name bump vars 1 radius 3/2 rule table: 1 0 -1/2 norm1", reg)
        assert fn.norm_bound and fn.table == (Fraction(1), Fraction(0), Fraction(-1, 2))
        fn2 = load_registry_line("name exp2 vars 1 radius 100 rule exp", reg)
        assert fn2.coefficient(3) == Fraction(1, 6)


class TestEvaluate:
    def test_exp_at_t(self):
        fn = default_registry().get("exp")
        out = evaluate_analytic(fn, [s("1*t^(1)")], ge(4))
        assert out == parse_series("1 + 1*t^(1) + 1/2*t^(2) + 1/6*t^(3) + O(t^(4))")

    def test_exp_at_composite(self):
        fn = default_registry().get("exp")
        out = evaluate_analytic(fn, [s("1*t^(1) + 1*t^(2)")], ge(4))
        oracle = poly_compose_trunc(
            [Fraction(1, factorial(k)) for k in range(4)], [Fraction(0), Fraction(1), Fraction(1)], 3
        )
        assert [out.approx.coefficient(ge(k)) for k in range(4)] == oracle
        assert oracle[2] == Fraction(3, 2) and oracle[3] == Fraction(7, 6)

    def test_sin_at_zero(self):
        fn = default_registry().get("sin")
        assert evaluate_analytic(fn, [TruncatedSeries.zero()], ge(4)) == s("0")

    def test_rejects_unit_size_argument(self):
        fn = default_registry().get("exp")
        with pytest.raises(NotInfinitesimal):
            evaluate_analytic(fn, [s("1")], ge(4))

    def test_infinite_target_needs_a_zero_argument(self):
        fn = default_registry().get("exp")
        with pytest.raises(ValueError, match="finite target precision"):
            evaluate_analytic(fn, [s("1*t^(1)")], INFINITE)
        assert evaluate_analytic(fn, [TruncatedSeries.zero()], INFINITE) == s("1")

    def test_automatic_continuity_sampled(self):
        # norm-bounded functions take valuation-ring values at infinitesimals
        rng = random.Random("cont")
        reg = default_registry()
        for _ in range(100):
            fn = reg.get(rng.choice(["exp", "sin", "cos", "log1p"]))
            x = TruncatedSeries.monomial(Fraction(rng.randint(-9, 9) or 1), ge(Fraction(rng.randint(1, 4), 2)))
            out = evaluate_analytic(fn, [x], ge(5))
            if out.approx.terms:
                assert out.approx.valuation() >= ge(0)

    def test_lipschitz_sampled(self):
        rng = random.Random("lip")
        reg = default_registry()
        for _ in range(60):
            fn = reg.get(rng.choice(["exp", "sin", "cos", "log1p"]))
            a = TruncatedSeries.monomial(Fraction(rng.randint(1, 9)), ge(Fraction(rng.randint(1, 4), 2)))
            b = a + TruncatedSeries.monomial(Fraction(rng.randint(-9, 9) or 2), ge(Fraction(rng.randint(2, 8), 2)))
            fa = evaluate_analytic(fn, [a], ge(6))
            fb = evaluate_analytic(fn, [b], ge(6))
            diff = fa - fb
            gap = a - b
            if diff.approx.terms and gap.approx.terms:
                assert diff.approx.valuation() >= gap.approx.valuation()

    def test_unit_jet_invariance_sampled(self):
        # an invertible function of x has its leading jet pinned by the jet of x
        rng = random.Random("rvunit")
        fn = default_registry().get("exp")
        lam = ge(1)
        for seed in range(40):
            gamma = ge(Fraction(rng.randint(1, 4), 2))
            x = TruncatedSeries.monomial(Fraction(rng.randint(-9, 9) or 3), gamma)
            ball = ball_of(x, TruncatedSeries.zero(), lam)
            y = sample_in_ball(ball, seed)
            fx = evaluate_analytic(fn, [x], gamma + lam + ge(3))
            fy = evaluate_analytic(fn, [y], gamma + lam + ge(3))
            assert rv_lambda(fx, lam) == rv_lambda(fy, lam)

    def test_derivative_finite_difference(self):
        # derivative rule against an exact finite difference at step t^6
        reg = default_registry()
        for name in ["exp", "sin", "cos", "log1p"]:
            fn = reg.get(name)
            dfn = fn.derivative()
            x0 = s("1*t^(1) + 2*t^(2)")
            h = s("1*t^(6)")
            lhs = (evaluate_analytic(fn, [x0 + h], ge(10)) - evaluate_analytic(fn, [x0], ge(10))) * s("1*t^(-6)")
            rhs = evaluate_analytic(dfn, [x0], ge(4))
            diff = lhs - rhs
            assert diff.approx.is_zero() or diff.approx.valuation() >= ge(4)


class TestHensel:
    def test_catalan_fixture(self):
        # oracle: the coefficients satisfy the convolution recurrence
        catalan = [1]
        for _ in range(5):
            catalan.append(sum(catalan[i] * catalan[-1 - i] for i in range(len(catalan))))
        root = hensel_root([s("1*t^(1)")], ge(4))
        for k in range(4):
            assert root.approx.coefficient(ge(k)) == -catalan[k]

    def test_back_substitution(self):
        root = hensel_root([s("1*t^(1)")], ge(4))
        p = s("1") + root + s("1*t^(1)") * root * root
        assert p.approx.is_zero() or p.approx.valuation() >= ge(4)

    def test_degree_one_edge(self):
        root = hensel_root([], ge(4))
        assert root == s("-1")

    def test_cubic(self):
        root = hensel_root([TruncatedSeries.zero(), s("1*t^(1)")], ge(6))
        p = s("1") + root + s("1*t^(1)") * root * root * root
        assert p.approx.is_zero() or p.approx.valuation() >= ge(6)
        from hahn_forge.series import standard_part

        assert standard_part(root) == -1

    def test_residual_doubling(self):
        # residual valuation after k steps is at least min(target, 2^k v_0)
        trace = []
        hensel_root([s("1*t^(1)"), s("2*t^(1/2)")], ge(8), trace=trace)
        v0 = trace[0].first()
        for k, v in enumerate(trace):
            if v is INFINITE:
                break
            assert v.first() >= min(Fraction(8), (2**k) * v0)

    def test_rejects_non_infinitesimal(self):
        with pytest.raises(NotInfinitesimal):
            hensel_root([s("1")], ge(4))


class TestImplicit:
    def test_linear(self):
        r = implicit_series(ms("[-1]*x1 + [1]*x2"), 4, ge(6))
        assert r == ms("[1]*x1")

    def test_catalan_series(self):
        # y + y^2 = x has the alternating-sign convolution solution
        f = ms("[1]*x2 + [1]*x2^2 + [-1]*x1")
        r = implicit_series(f, 4, ge(6))
        assert r == ms("[1]*x1 + [-1]*x1^2 + [2]*x1^3 + [-5]*x1^4")
        composed = ms_substitute_into(f, r, 4)
        assert in_truncation_ideal(composed, 4, ge(6))

    def test_already_solved(self):
        f = ms("[1]*x2 + [-1]*x1^2 + [-1*t^(1)]*x1")
        r = implicit_series(f, 4, ge(6))
        assert r == ms("[1]*x1^2 + [t^(1)]*x1")

    def test_rejects_degree_two(self):
        with pytest.raises(NotRegularDegreeOne):
            implicit_series(ms("[1]*x2^2 + [-1]*x1"), 4, ge(6))


def ms_substitute_into(f, r, d_out):
    from hahn_forge.multiseries import ms_substitute, ms_pad

    r2 = ms_pad(r, f.nvars)
    return ms_substitute(f, f.nvars - 1, r2, d_out, ge(6))


class TestSqrtShifted:
    def test_unit_epsilon(self):
        r = sqrt_shifted(Fraction(1), 3)
        assert r == ms("[1/2]*x1 + [-1/8]*x1^2 + [1/16]*x1^3")

    def test_vanishes_at_origin(self):
        for eps in [Fraction(1, 2), Fraction(1), Fraction(3)]:
            r = sqrt_shifted(eps, 4)
            assert (0,) not in r.coeffs

    @pytest.mark.parametrize("eps", [Fraction(1, 2), Fraction(1), Fraction(2)])
    def test_square_identity(self, eps):
        d = 5
        r = sqrt_shifted(eps, d)
        wide = MultiSeries(1, d + 2, dict(r.coeffs))
        shifted = ms_add(wide, MultiSeries.constant(TruncatedSeries.constant(eps), 1, d + 2), d + 2, None)
        square = ms_mul(shifted, shifted, d + 2, None)
        expect = ms_add(
            MultiSeries.variable(0, 1, d + 2),
            MultiSeries.constant(TruncatedSeries.constant(eps * eps), 1, d + 2),
            d + 2,
            None,
        )
        defect = ms_sub(square, expect, d + 2, None)
        assert in_truncation_ideal(defect, d, ge(10**6))


class TestRegistryFile:
    def test_load_registry_file(self, tmp_path):
        from hahn_forge.analytic import load_registry_file

        path = tmp_path / "functions.txt"
        path.write_text(
            "# comment line\n"
            "name bump2 vars 1 radius 3/2 rule table: 1 0 -1/2 norm1\n"
            "name exp3 vars 1 radius 100 rule exp\n"
        )
        reg = FunctionRegistry()
        loaded = load_registry_file(path, reg)
        assert [f.name for f in loaded] == ["bump2", "exp3"]
        assert reg.get("bump2").polynomial and reg.get("exp3").coefficient(2) == Fraction(1, 2)


class TestMultiVariable:
    def test_two_variable_rule(self):
        reg = FunctionRegistry()
        fn = register_function(
            {
                "name": "exp2d",
                "vars": 2,
                "radius": 100,
                "rule": lambda idx: Fraction(1, factorial(idx[0]) * factorial(idx[1])),
            },
            reg,
        )
        out = evaluate_analytic(fn, [s("1*t^(1)"), s("1*t^(2)")], ge(4))
        single = default_registry().get("exp")
        expected = evaluate_analytic(single, [s("1*t^(1)")], ge(4)) * evaluate_analytic(
            single, [s("1*t^(2)")], ge(4)
        )
        assert out.approx == expected.truncate(ge(4)).approx

    def test_zero_argument_among_several(self):
        reg = FunctionRegistry()
        fn = register_function(
            {
                "name": "mix",
                "vars": 2,
                "radius": 2,
                "rule": lambda idx: Fraction(1) if sum(idx) <= 2 else Fraction(0),
            },
            reg,
        )
        from hahn_forge.series import TruncatedSeries

        out = evaluate_analytic(fn, [TruncatedSeries.zero(), s("1*t^(1)")], ge(3))
        # only powers of the second argument survive
        assert out.approx == s("1 + 1*t^(1) + 1*t^(2)").approx


class TestPrecisionStall:
    def test_hensel_blurred_input(self):
        from hahn_forge.errors import PrecisionStall

        with pytest.raises(PrecisionStall):
            hensel_root([parse_series("1*t^(1) + O(t^(2))")], ge(6))


# -- the term-by-term walk that summed Taylor expansions before the grid
# kernel, kept here as the oracle of TestTaylorKernelAgainstWalk


def _walk_evaluate(fn, args, target_prec):
    if len(args) != fn.nvars:
        raise ValueError(f"{fn.name} takes {fn.nvars} arguments")
    rank = args[0].rank if args else 1
    vals = []
    for a in args:
        v = valuation(a)
        if not fn.polynomial and not (v is INFINITE or v > GroupElement.zero(rank)):
            raise NotInfinitesimal(f"{fn.name} needs infinitesimal arguments in exact mode")
        vals.append(v)
    if fn.polynomial:
        bound = len(fn.table) - 1 if fn.nvars == 1 else None
        if bound is None:
            raise MalformedRule("polynomial evaluation needs a finite table")
        return _walk_sum(fn, args, vals, None, bound, rank, prune=False)
    finite_vals = [v for v in vals if v is not INFINITE]
    if not finite_vals:
        c0 = fn.coefficient((0,) * fn.nvars)
        return TruncatedSeries.constant(c0, rank)
    min_v = min(finite_vals)
    if min_v.first() <= 0:
        raise PrecisionStall(
            "argument valuation has zero first coordinate; "
            "the expansion degree cannot be bounded in lexicographic rank > 1"
        )
    t1 = target_prec.first()
    bound = max(0, math.ceil(t1 / min_v.first()))
    return _walk_sum(fn, args, vals, target_prec, bound, rank, prune=True)


def _walk_sum(fn, args, vals, target_prec, bound, rank, prune):
    total = TruncatedSeries.zero(rank)
    nvars = fn.nvars
    one = TruncatedSeries.one(rank)

    def clip(x):
        return x if target_prec is None else x.truncate(target_prec)

    def walk(i, idx, product, vsum):
        nonlocal total
        if i == nvars:
            c = fn.coefficient(idx)
            if c:
                total = total + product.scale(c)
            return
        a, va = args[i], vals[i]
        cur = product
        for e in range(0, bound - sum(idx) + 1):
            if e:
                if va is INFINITE:
                    break
                new_v = vsum + va * e
                if prune and not (new_v < target_prec):
                    break
                cur = clip(cur * a)
                if cur.is_exact_zero():
                    break
                walk(i + 1, idx + (e,), cur, new_v)
            else:
                walk(i + 1, idx + (e,), cur, vsum)

    walk(0, (), one, GroupElement.zero(rank))
    return clip(total)


def _outcome(evaluate, fn, args, target):
    """What an evaluation shows a caller: the value in every form, or the error."""
    try:
        out = evaluate(fn, args, target)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc), str(exc)
    return out.prec, out.approx, out, hash(out), format_series(out)


_POSITIVE = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2),
             Fraction(3)]
# a first coordinate 0 now and then: not infinitesimal in rank 1, a stall in rank 2
_FIRST = _POSITIVE * 2 + [Fraction(0)]
_LATER = [Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]
_COEFFS = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2), Fraction(3, 4), Fraction(-5, 3)]


def _exponents(rank, first=_FIRST):
    return st.tuples(st.sampled_from(first), *[st.sampled_from(_LATER)] * (rank - 1)).map(GroupElement)


@st.composite
def _argument(draw, rank, first=_FIRST, exact=False):
    """An argument of 1 to 3 terms: exact, exact zero, ``0 + O(...)``, or inexact.

    An inexact argument has its precision a step above its top term, or
    one drawn on its own, which may cut some or all of its terms.
    """
    exps = draw(st.lists(_exponents(rank, first), min_size=1, max_size=3, unique=True))
    approx = HahnSeries([(e, draw(st.sampled_from(_COEFFS))) for e in exps], rank)
    kind = "exact" if exact else draw(st.sampled_from(["exact"] * 3 + ["above"] * 4 + ["drawn"] * 2 + ["zero", "blur"]))
    if kind == "exact":
        return TruncatedSeries.exact(approx)
    if kind == "zero":
        return TruncatedSeries.zero(rank)
    if kind == "blur":
        return TruncatedSeries(HahnSeries.zero(rank), draw(_exponents(rank)))
    if kind == "above":
        step = draw(st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2)]))
        return TruncatedSeries(approx, max(exps) + GroupElement.scalar(step, rank))
    return TruncatedSeries(approx, draw(_exponents(rank)))


@st.composite
def _target(draw, rank, args):
    """A target at, below or above some argument's precision, or drawn on its own."""
    precs = [a.prec for a in args if a.prec is not INFINITE]
    target = draw(st.sampled_from(precs) if precs and draw(st.booleans()) else _exponents(rank))
    moves = [Fraction(0), Fraction(-1, 3), Fraction(-1, 2), Fraction(-1)] + [Fraction(1), Fraction(2)] * 2
    move = draw(st.sampled_from(moves))
    return target + GroupElement.scalar(move, rank)


@st.composite
def _rule_function(draw):
    """A 1-, 2- or 3-variable rule whose coefficients vanish on runs of degrees and first indices."""
    nvars = draw(st.integers(1, 3))
    zero_degrees = draw(st.frozensets(st.integers(0, 6)))
    zero_first = draw(st.frozensets(st.integers(0, 4)))

    def rule(idx):
        if sum(idx) in zero_degrees or idx[0] in zero_first:
            return Fraction(0)
        return Fraction((-1) ** sum(idx), 1 + idx[0] + 2 * idx[-1])

    return register_function({"name": "zeroruns", "vars": nvars, "radius": 2, "rule": rule}, FunctionRegistry())


class TestTaylorKernelAgainstWalk:
    """``evaluate_analytic`` against the term-by-term walk, value and precision alike."""

    @settings(max_examples=300)
    @given(st.sampled_from(["exp", "sin", "cos", "log1p"]), st.integers(1, 2), st.data())
    def test_builtins(self, name, rank, data):
        fn = default_registry().get(name)
        args = [data.draw(_argument(rank))]
        target = data.draw(_target(rank, args))
        assert _outcome(evaluate_analytic, fn, args, target) == _outcome(_walk_evaluate, fn, args, target)

    @settings(max_examples=200)
    @given(_rule_function(), st.integers(1, 2), st.data())
    def test_rule_functions(self, fn, rank, data):
        args = [data.draw(_argument(rank)) for _ in range(fn.nvars)]
        target = data.draw(_target(rank, args))
        assert _outcome(evaluate_analytic, fn, args, target) == _outcome(_walk_evaluate, fn, args, target)

    @settings(max_examples=150)
    @given(st.lists(st.sampled_from(_COEFFS + [Fraction(0)] * 3), min_size=1, max_size=5), st.integers(1, 2),
           st.booleans(), st.data())
    def test_polynomial_tables(self, table, rank, exact, data):
        fn = register_function({"name": "table", "vars": 1, "radius": 2, "table": table}, FunctionRegistry())
        # exact arguments of valuation <= 0, or any argument
        first = [Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(0)] if exact else _FIRST
        args = [data.draw(_argument(rank, first, exact))]
        target = data.draw(_target(rank, args))
        assert _outcome(evaluate_analytic, fn, args, target) == _outcome(_walk_evaluate, fn, args, target)
