"""Analytic evaluation, Hensel lifting, and implicit solving."""

import math
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from hahn_forge.analytic import (
    AnalyticFunction,
    FunctionRegistry,
    default_registry,
    evaluate_analytic,
    hensel_root,
    implicit_series,
    load_registry_line,
    ms_drop_var,
    register_function,
    sqrt_shifted,
)
from hahn_forge.errors import (
    DuplicateName,
    MalformedRule,
    NotInfinitesimal,
    NotRegularDegreeOne,
    PrecisionStall,
    UndecidableAtPrecision,
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
    invert,
    parse_series,
    poly_derivative,
    poly_eval,
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

    def test_target_at_or_below_the_first_correction(self):
        # the root of 1 + y + t y^2 is -1 - t - 2t^2 - ...: the residual of -1
        # is t, cut to 0 + O(...) at these targets, yet -1 is not the root
        for target in (ge(1), ge(Fraction(1, 2))):
            root = hensel_root([s("1*t^(1)")], target)
            assert not root.is_exact() and root.prec == target and root.approx == s("-1").approx
        with pytest.raises(UndecidableAtPrecision):
            hensel_root([s("1*t^(1)")], ge(0))  # known to no term
        # -1 solves 1 + y + 0 y^2 exactly, and 1 + y + (t^3 + O(t^5)) y^2 only below t^3
        assert hensel_root([TruncatedSeries.zero()], ge(1)) == s("-1")
        assert hensel_root([s("1*t^(3) + O(t^(5))")], ge(1)) == s("-1 + O(t^(1))")

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


class TestDocumentedErrors:
    @pytest.mark.parametrize("spec, message", [
        ({"vars": 1, "radius": 2, "rule": lambda idx: 1}, "nonempty name"),
        ({"name": "f", "vars": 0, "radius": 2, "rule": lambda idx: 1}, "at least one variable"),
        ({"name": "f", "vars": 2, "radius": 2, "table": [1, 2]}, "one-variable only"),
        ({"name": "f", "vars": 1, "radius": 2, "rule": "exp"}, "callable rule or a coefficient table"),
    ])
    def test_malformed_specifications(self, spec, message):
        with pytest.raises(MalformedRule, match=message):
            register_function(spec, FunctionRegistry())

    @pytest.mark.parametrize("line, message", [
        ("name f vars 1 radius 2 rule tan", "unknown builtin rule 'tan'"),
        ("name f vars 1 radius 2 colour red", "unknown registration token 'colour'"),
    ])
    def test_malformed_registry_lines(self, line, message):
        with pytest.raises(MalformedRule, match=message):
            load_registry_line(line, FunctionRegistry())

    def test_registry_lines_without_a_function(self):
        assert load_registry_line("   ", FunctionRegistry()) is None

    def test_norm1_after_a_builtin_rule(self):
        fn = load_registry_line("name e1 vars 1 radius 2 rule exp norm1", FunctionRegistry())
        assert fn.norm_bound and fn.coefficient(2) == Fraction(1, 2)

    def test_argument_count(self):
        with pytest.raises(ValueError, match="takes 1 arguments"):
            evaluate_analytic(default_registry().get("exp"), [s("1*t^(1)"), s("1*t^(1)")], ge(3))

    def test_a_polynomial_in_two_variables(self):
        fn = AnalyticFunction("p2", 2, lambda idx: 1, Fraction(2), polynomial=True)
        with pytest.raises(MalformedRule, match="finite table"):
            evaluate_analytic(fn, [s("1"), s("2")], ge(3))

    def test_dropping_a_variable_that_occurs(self):
        with pytest.raises(ValueError, match="still occurs"):
            ms_drop_var(ms("[1]*x1*x2"), 1)

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            sqrt_shifted(0, 3)


# -- the Newton loop that formed the slope and its inverse at the full
# target, kept here as the oracle of TestHenselAgainstFullPrecisionSlope


def _full_precision_hensel(coeffs, target_prec, rank=1, trace=None):
    for a in coeffs:
        v = valuation(a)
        if not (v is INFINITE or v > GroupElement.zero(rank)):
            raise NotInfinitesimal("higher coefficients must be infinitesimal")
        if a.prec is not INFINITE and a.prec < target_prec:
            raise PrecisionStall("input coefficients are blurrier than the requested root")
    p = [TruncatedSeries.one(rank), TruncatedSeries.one(rank), *coeffs]
    dp = poly_derivative(p)
    y = TruncatedSeries.constant(Fraction(-1), rank)
    for _ in range(64):
        residual = poly_eval(p, y, target_prec)
        if trace is not None:
            trace.append(INFINITE if residual.approx.is_zero() else residual.approx.valuation())
        if residual.approx.is_zero():
            if y.is_exact() and not poly_eval(p, y).is_exact_zero():
                y = y.truncate(target_prec)
            break
        slope = poly_eval(dp, y, target_prec)
        y = (y - residual * invert(slope, target_prec)).truncate(target_prec)
    else:
        raise PrecisionStall("Newton iteration failed to reach the target")
    valuation(y)
    return y


def _hensel_outcome(solve, coeffs, target, rank):
    """The root in every form with the trace, or the error's class and text."""
    trace = []
    try:
        root = solve(coeffs, target, rank, trace)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc), str(exc)
    return root.prec, root.approx, format_series(root), trace


def _residual_below(coeffs, root, target):
    """The terms below ``target`` of ``1 + y + sum a_i y^i`` at the known terms, as an exponent -> Fraction dict.

    Every factor has only exponents at or above 0, so a product cut at the
    target keeps each term below it.
    """
    def mul(f, g):
        out = {}
        for e, c in f.items():
            for e2, c2 in g.items():
                if e + e2 < target:
                    out[e + e2] = out.get(e + e2, 0) + c * c2
        return out

    y = dict(root.approx.terms)
    total = {GroupElement.zero(root.rank): Fraction(1)}
    for e, c in y.items():
        total[e] = total.get(e, 0) + c
    power = y
    for a in coeffs:
        power = mul(power, y)
        for e, c in mul(dict(a.approx.terms), power).items():
            total[e] = total.get(e, 0) + c
    return {e: c for e, c in total.items() if c and e < target}


_HENSEL_EXPONENTS = {
    1: [(Fraction(1, 3),), (Fraction(1, 2),), (Fraction(1),), (Fraction(3, 2),), (Fraction(2),)],
    # a first coordinate 0 gives a unit gap in a later coordinate than most targets
    2: [(0, 1), (0, 2), (Fraction(1, 2), 0), (1, -3), (1, -1)],
}
# few coefficients, so that the residual of -1 cancels now and then
_HENSEL_COEFFS = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2)]
_HENSEL_TARGETS = {
    1: [(Fraction(1, 2),), (1,), (2,), (3,), (Fraction(9, 2),), (6,)],
    2: [(0, 3), (Fraction(1, 2), 0), (1, -2), (1, 0), (2, 0)],
}


@st.composite
def _hensel_cases(draw, rank):
    """``(coeffs, target)`` for a polynomial of degree 2 to 5.

    Coefficients are sums of one to three monomials from a short list, so
    that sums cancel now and then; each is exact, exactly zero, known below
    the target or above it, or blurrier than the target.  An echo is the
    leading term of the coefficient before it, which cancels that term in
    the residual of -1.  Half the rank-2 cases start with a_3 the echo of
    a_2 = c t^(0,k) + (terms at the target's first coordinate): the full
    slope's unit gap t^(0,k) stalls there, and the residual of -1 lies at
    the target's first coordinate.
    """
    target = GroupElement(draw(st.sampled_from(_HENSEL_TARGETS[rank])))
    coeffs = []
    if rank == 2 and target[0] and draw(st.booleans()):
        gap = GroupElement([0, draw(st.sampled_from([1, 2]))])
        lead = HahnSeries([(gap, draw(st.sampled_from(_HENSEL_COEFFS)))], 2)
        seconds = draw(st.lists(st.sampled_from([-3, -1, 0, 1]), min_size=1, max_size=2, unique=True))
        rest = HahnSeries([(GroupElement([target[0], j]), draw(st.sampled_from(_HENSEL_COEFFS))) for j in seconds], 2)
        coeffs = [TruncatedSeries.exact(lead + rest), TruncatedSeries.exact(lead)]
    for _ in range(draw(st.integers(0 if coeffs else 1, 2 if coeffs else 4))):
        exps = draw(st.lists(st.sampled_from(_HENSEL_EXPONENTS[rank]), min_size=1, max_size=3, unique=True))
        approx = HahnSeries([(GroupElement(e), draw(st.sampled_from(_HENSEL_COEFFS))) for e in exps], rank)
        kind = draw(st.sampled_from(["exact"] * 4 + ["zero", "at target", "above", "blurred", "echo"]))
        if kind == "echo" and coeffs and not coeffs[-1].approx.is_zero():
            coeffs.append(TruncatedSeries.exact(HahnSeries(coeffs[-1].approx.terms[:1], rank)))
        elif kind == "zero":
            coeffs.append(TruncatedSeries.zero(rank))
        elif kind in ("exact", "echo"):
            coeffs.append(TruncatedSeries.exact(approx))
        else:
            step = {"at target": 0, "above": 1, "blurred": Fraction(-1, 2)}[kind]
            coeffs.append(TruncatedSeries(approx, target + GroupElement.scalar(step, rank)))
    return coeffs, target


class TestHenselAgainstFullPrecisionSlope:
    """``hensel_root`` reads the slope and its inverse below T - v(r) only; the loop above reads them below T."""

    @settings(max_examples=300, deadline=None)
    @given(_hensel_cases(1))
    def test_rank_one_is_identical(self, case):
        coeffs, target = case
        assert _hensel_outcome(hensel_root, coeffs, target, 1) == _hensel_outcome(
            _full_precision_hensel, coeffs, target, 1)

    @settings(max_examples=300, deadline=None)
    @given(_hensel_cases(2))
    def test_rank_two_stalls_less(self, case):
        coeffs, target = case
        reference = _hensel_outcome(_full_precision_hensel, coeffs, target, 2)
        got = _hensel_outcome(hensel_root, coeffs, target, 2)
        if reference[0] is not PrecisionStall:
            assert got == reference
        elif got[0] is not PrecisionStall:
            # a stall the lower precision spares: the root is known below T and solves p there
            root = hensel_root(coeffs, target, 2)
            assert root.prec == target and _residual_below(coeffs, root, target) == {}

    def test_a_stall_the_lower_precision_spares(self):
        # the residual of -1 is t^(1,-3), so N = (0,3): the slope's gap t^(0,1)
        # lies in the first coordinate of N, not in a later one
        coeffs = [s("1*t^(0,1) + 1*t^(1,-3)", 2), s("1*t^(0,1)", 2)]
        target = GroupElement([1, 0])
        with pytest.raises(PrecisionStall, match="later coordinate"):
            _full_precision_hensel(coeffs, target, 2)
        root = hensel_root(coeffs, target, rank=2)
        assert format_series(root) == "-1 - 1*t^(1,-3) + 1*t^(1,-2) - 1*t^(1,-1) + O(t^(1,0))"
        assert _residual_below(coeffs, root, target) == {}
