"""Term parsing, printing, evaluation, and term-level preparation."""

import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, strategies as st

import hahn_forge.prepare as preparation
from hahn_forge import terms
from hahn_forge.analytic import default_registry, evaluate_analytic
from hahn_forge.errors import (
    ArityMismatch,
    BudgetExhausted,
    DivisionByZero,
    DomainError,
    HahnForgeError,
    NotInfinitesimal,
    TermSyntaxError,
    UndecidableAtPrecision,
    UnknownFunction,
)
from hahn_forge.series import (
    INFINITE,
    GroupElement,
    HahnSeries,
    TruncatedSeries,
    field_op,
    format_series,
    invert,
    parse_series,
    poly_eval,
)
from hahn_forge.terms import (
    Add,
    App,
    Div,
    Lit,
    Mono,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    _poly_add,
    _poly_mul,
    _poly_neg,
    _skeleton,
    candidate_polynomials,
    eval_term,
    parse_term,
    polynomial_coeffs,
    prepare_term,
    print_term,
)

ge = lambda x: GroupElement.scalar(Fraction(x))
s = parse_series


class TestParse:
    def test_division_tree(self):
        node = parse_term("1/(1 - x)")
        assert node == Div(Lit(Fraction(1)), Sub(Lit(Fraction(1)), Var()))

    def test_application_and_monomial(self):
        node = parse_term("exp(x^2) * t^(1/2)")
        assert node == Mul(App("exp", (Pow(Var(), 2),)), Mono(ge("1/2")))

    def test_syntax_error_position(self):
        with pytest.raises(TermSyntaxError) as err:
            parse_term("exp(x")
        assert err.value.col == 6

    @pytest.mark.parametrize("text", ["exp(x", "1 + t ^(1)", "x^", "t^(1.5)", "t^(1,2)"])
    def test_rejected_corpus(self, text):
        with pytest.raises(TermSyntaxError):
            parse_term(text)

    def test_unknown_function(self):
        with pytest.raises(UnknownFunction):
            parse_term("mystery(x)")

    def test_arity(self):
        with pytest.raises(ArityMismatch):
            parse_term("exp(x, x)")
        with pytest.raises(ArityMismatch):
            parse_term("inv(x, x)")

    def test_literal_fraction_power(self):
        node = parse_term("3/2^2")
        assert node == Pow(Lit(Fraction(3, 2)), 2)


ROUND_TRIP_CORPUS = [
    "x",
    "1/2",
    "-x",
    "x^2 - t^(1)",
    "1/(1 - x)",
    "exp(x^2)*t^(1/2)",
    "inv(x + 1)",
    "x*x*x - 3/2*x + 7",
    "sin(x) + cos(x)*x",
    "exp(x)*x - log1p(x^3)",
    "(x + 1)^4/(x - t^(2))",
    "-(x - 1)*(x + 1)",
    "2 - -x",
    "x^2^3",
    "t^(-1/2)*x + t^(3)",
]


class TestPrintRoundTrip:
    @pytest.mark.parametrize("text", ROUND_TRIP_CORPUS)
    def test_reparse_fixed_point(self, text):
        tree = parse_term(text)
        printed = print_term(tree)
        assert parse_term(printed) == tree
        assert print_term(parse_term(printed)) == printed

    # accepted spellings, README examples and golden argv, with their rank
    ACCEPTED = [
        ("x/-2", 1),
        ("x\n+1", 1),
        ("exp(x)", 1),
        ("inv(x-x)", 1),
        ("x^2", 1),
        ("t^(1)*x^2 + x + 1", 1),
        ("x^2 - 2*t^(1)", 1),
        ("inv(1 + x)", 1),
        ("(1 + x)/(1 - x)", 1),
        ("x/(t^(1) + x^2)", 1),
        ("inv(x)", 1),
        ("(x^2-2*t^(1))*(x^2+t^(2)*x+t^(3))", 1),
        ("(x-t^(1))^3*x-t^(5)", 1),
        ("(1 + x)^12 - x^5", 1),
        ("x^3-t^(1)*x+t^(3)", 1),
        ("(1 + x)^3 - x/7", 1),
        ("inv(1 + x)", 2),
        ("(1 + x)^3 - x", 2),
        ("x*x - t^(1,0)", 2),
        ("x^2 - t^(0,1)*x + t^(1,0)", 2),
    ]

    @pytest.mark.parametrize("text, rank", ACCEPTED)
    def test_accepted_corpus(self, text, rank):
        tree = parse_term(text, rank=rank)
        printed = print_term(tree)
        assert parse_term(printed, rank=rank) == tree
        assert print_term(parse_term(printed, rank=rank)) == printed

    def test_division_by_a_negative_literal(self):
        assert parse_term("x/-2") == Div(Var(), Neg(Lit(Fraction(2))))
        assert parse_term("x\n+1") == Add(Var(), Lit(Fraction(1)))

    def test_random_trees(self):
        rng = random.Random("terms")
        reg = default_registry()

        def build(depth):
            if depth == 0:
                return rng.choice(
                    [Var(), Lit(Fraction(rng.randint(-5, 5), rng.randint(1, 3))), Mono(ge(Fraction(rng.randint(-2, 4), 2)))]
                )
            kind = rng.randrange(7)
            if kind == 0:
                return Add(build(depth - 1), build(depth - 1))
            if kind == 1:
                return Sub(build(depth - 1), build(depth - 1))
            if kind == 2:
                return Mul(build(depth - 1), build(depth - 1))
            if kind == 3:
                return Div(build(depth - 1), build(depth - 1))
            if kind == 4:
                return Pow(build(depth - 1), rng.randint(0, 4))
            if kind == 5:
                return App("exp", (build(depth - 1),))
            from hahn_forge.terms import Neg

            return Neg(build(depth - 1))

        for i in range(120):
            # constructed trees may normalize once (negative literals become
            # negations); after that, print and parse are mutually inverse
            tree = parse_term(print_term(build(rng.randint(1, 4))), reg)
            printed = print_term(tree)
            assert parse_term(printed, reg) == tree, printed
            assert print_term(parse_term(printed, reg)) == printed


class TestEval:
    def test_geometric(self):
        node = parse_term("1/(1-x)")
        out = eval_term(node, s("1*t^(1)"), ge(3))
        assert format_series(out) == "1 + 1*t^(1) + 1*t^(2) + O(t^(3))"

    def test_exp_composite(self):
        node = parse_term("exp(x)")
        out = eval_term(node, s("1*t^(1) + 1*t^(2)"), ge(4))
        assert format_series(out) == "1 + 1*t^(1) + 3/2*t^(2) + 7/6*t^(3) + O(t^(4))"

    def test_domain_error(self):
        node = parse_term("exp(x)")
        with pytest.raises(DomainError):
            eval_term(node, s("1"), ge(4))

    def test_division_by_zero_flag(self):
        node = parse_term("1/x")
        with pytest.raises(DivisionByZero):
            eval_term(node, TruncatedSeries.zero(), ge(4))
        out = eval_term(node, TruncatedSeries.zero(), ge(4), inv_zero_is_zero=True)
        assert out.is_exact_zero()

    def test_undetermined_denominator_is_undecidable(self):
        # 0 + O(t^(2)) may be zero or not, whatever the zero-inverse convention
        blurry = s("0 + O(t^(2))")
        for text in ("1/x", "inv(x)", "1/(x - x)", "x^-1"):
            for flag in (False, True):
                with pytest.raises(UndecidableAtPrecision):
                    eval_term(parse_term(text), blurry, ge(3), inv_zero_is_zero=flag)

    def test_evaluation_homomorphism(self):
        rng = random.Random("homo")
        for _ in range(40):
            a = parse_term(rng.choice(ROUND_TRIP_CORPUS[:8]))
            b = parse_term(rng.choice(ROUND_TRIP_CORPUS[:8]))
            x = s("2*t^(1) + 1*t^(2)")
            prec = ge(5)
            try:
                va = eval_term(a, x, prec)
                vb = eval_term(b, x, prec)
                vsum = eval_term(Add(a, b), x, prec)
                vmul = eval_term(Mul(a, b), x, prec)
            except (DomainError, DivisionByZero):
                continue
            assert (va + vb).truncate(vsum.prec) == vsum.truncate((va + vb).prec)
            lhs = (va * vb).truncate(vmul.prec)
            assert lhs.approx.truncate_below(lhs.prec) == vmul.approx.truncate_below(lhs.prec)

    def test_power_negative(self):
        node = parse_term("x^-1")
        out = eval_term(node, s("2*t^(1)"), ge(3))
        assert out.approx.coefficient(ge(-1)) == Fraction(1, 2)


def _reference_eval_term(node, x, target_prec, registry=None, inv_zero_is_zero=False):
    """``eval_term`` as it was before powers were cut at the target (test oracle).

    Every ``Pow`` is the exact repeated product, and the value is clipped
    at the target only at the end.
    """
    registry = registry if registry is not None else default_registry()
    rank = x.rank

    def repeated_product(base, k):
        out = TruncatedSeries.one(rank)
        for _ in range(k):
            out = field_op("mul", out, base)
        return out

    def ev(node):
        if isinstance(node, Lit):
            return TruncatedSeries.constant(node.value, rank)
        if isinstance(node, Mono):
            return TruncatedSeries.monomial(Fraction(1), node.exponent)
        if isinstance(node, Var):
            return x
        if isinstance(node, Add):
            return ev(node.left) + ev(node.right)
        if isinstance(node, Sub):
            return ev(node.left) - ev(node.right)
        if isinstance(node, Mul):
            return ev(node.left) * ev(node.right)
        if isinstance(node, Neg):
            return -ev(node.operand)
        if isinstance(node, Div):
            return divide(ev(node.left), ev(node.right))
        if isinstance(node, Pow):
            value = repeated_product(ev(node.base), abs(node.exponent))
            return value if node.exponent >= 0 else divide(TruncatedSeries.one(rank), value)
        if isinstance(node, App):
            if node.name == "inv":
                return divide(TruncatedSeries.one(rank), ev(node.args[0]))
            fn = registry.get(node.name)
            if fn is None:
                raise UnknownFunction(f"function {node.name!r} is not registered")
            args = [ev(a) for a in node.args]
            try:
                return evaluate_analytic(fn, args, target_prec)
            except NotInfinitesimal as exc:
                raise DomainError(str(exc)) from exc
        raise TypeError(f"not a term node: {node!r}")

    def divide(a, b):
        if b.approx.is_zero():
            if b.is_exact():
                if inv_zero_is_zero:
                    return TruncatedSeries.zero(rank)
                raise DivisionByZero("exact zero denominator")
            raise UndecidableAtPrecision(f"denominator {format_series(b)} has no determined leading term")
        return a * invert(b, target_prec)

    value = ev(node)
    if any(e >= target_prec for e, _ in value.approx.terms):
        value = value.truncate(target_prec)
    return value


def _outcome(evaluate, *args):
    try:
        return format_series(evaluate(*args))
    except Exception as exc:  # noqa: BLE001 - the error is the outcome compared
        return type(exc), str(exc)


@st.composite
def eval_points(draw, rank):
    """A point of rank 1 or 2, exact or inexact, with small terms of either sign of valuation."""
    den = draw(st.sampled_from([1, 2, 3, 5]))
    terms = draw(st.lists(st.tuples(st.lists(st.integers(-2, 6), min_size=rank, max_size=rank),
                                    st.integers(-3, 3)), max_size=3))
    approx = HahnSeries([(GroupElement([Fraction(q, den) for q in e]), c) for e, c in terms], rank)
    if draw(st.booleans()):
        return TruncatedSeries.exact(approx)
    return TruncatedSeries(approx, GroupElement([Fraction(draw(st.integers(-2, 10)), den)] + [0] * (rank - 1)))


@st.composite
def term_trees(draw, rank, depth=3):
    """A tree of Add/Sub/Mul/Neg/Div/Pow over literals, monomials and x; sums that cancel included."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        leaf = draw(st.sampled_from(["var", "lit", "mono"]))
        if leaf == "var":
            return Var()
        if leaf == "lit":
            return Lit(Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3))))
        return Mono(GroupElement([Fraction(draw(st.integers(-2, 4)), 2)] + [0] * (rank - 1)))
    sub = term_trees(rank, depth - 1)
    kind = draw(st.sampled_from(["add", "sub", "mul", "neg", "div", "pow", "pow", "cancel"]))
    if kind == "neg":
        return Neg(draw(sub))
    if kind == "pow":
        return Pow(draw(sub), draw(st.integers(-3, 8)))
    if kind == "cancel":
        # (a + b) - a, with a a power whose top terms cancel
        a = Pow(draw(sub), draw(st.integers(1, 6)))
        return Sub(Add(a, draw(sub)), a)
    node = {"add": Add, "sub": Sub, "mul": Mul, "div": Div}[kind]
    return node(draw(sub), draw(sub))


class TestEvalAgainstRepeatedProducts:
    """``eval_term`` prints what the exact repeated product clipped at the end prints, or raises alike."""

    @given(st.data(), st.sampled_from([1, 2]), st.booleans())
    def test_random_terms(self, data, rank, inv_zero_is_zero):
        node = data.draw(term_trees(rank))
        x = data.draw(eval_points(rank))
        prec = GroupElement([Fraction(data.draw(st.integers(-4, 12)), data.draw(st.sampled_from([1, 2, 3])))]
                            + [Fraction(data.draw(st.integers(-4, 4)), 2) for _ in range(rank - 1)])
        args = (node, x, prec, None, inv_zero_is_zero)
        assert _outcome(eval_term, *args) == _outcome(_reference_eval_term, *args)

    @pytest.mark.parametrize("text, at, prec", [
        ("(1 + x)^40", "t^(1/7) + t^(1/5)", "3"),
        ("(1 + x)^2 - x^2 - 2*x", "t^(2)", "1"),
        ("x^2", "t^(1) + O(t^(5))", "3"),
        ("x^2", "1 + t^(2) + O(t^(3))", "5/2"),
        ("x^7", "t^(-1) + 2*t^(1)", "-2"),
        ("(x - x + 1)^5", "t^(1)", "0"),
        ("(t^(1) - t^(1))^3", "t^(1)", "2"),
        ("x^0", "t^(1)", "-1"),
        ("(1 + x)^-5", "t^(1/7) + t^(1/5)", "1"),
    ])
    def test_fixed_terms(self, text, at, prec):
        args = (parse_term(text), s(at), ge(prec))
        assert _outcome(eval_term, *args) == _outcome(_reference_eval_term, *args)

    @pytest.mark.parametrize("text, at, prec", [
        ("x^12", "2 + t^(0,1) + t^(1,-5)", "1,0"),
        ("x^5", "2 + t^(0,1/2) + t^(1/2,0)", "1/2,1/2"),
        ("x^5", "2 + t^(0,1/2) + t^(1/2,0) + O(t^(1,0))", "1/2,1/2"),
    ])
    def test_fixed_terms_rank_two(self, text, at, prec):
        at = parse_series(at, rank=2)
        prec = GroupElement([Fraction(q) for q in prec.split(",")])
        args = (parse_term(text, rank=2), at, prec)
        assert _outcome(eval_term, *args) == _outcome(_reference_eval_term, *args)


def _dense_pad(a, b, rank):
    n = max(len(a), len(b))
    zero = TruncatedSeries.zero(rank)
    return list(a) + [zero] * (n - len(a)), list(b) + [zero] * (n - len(b))


def _dense_mul(left, right, rank):
    out = [TruncatedSeries.zero(rank) for _ in range(len(left) + len(right) - 1)]
    for i, a in enumerate(left):
        for j, b in enumerate(right):
            out[i + j] = out[i + j] + a * b
    return out


def _dense_power(base, k, rank):
    out = [TruncatedSeries.one(rank)]
    for _ in range(k):
        out = _dense_mul(out, base, rank)
    return out


def _dense_poly_of(node, rank):
    """Dense coefficient lists, exact zeros padded in: the reference for the sparse dicts of ``_skeleton``."""
    if isinstance(node, Lit):
        return [TruncatedSeries.constant(node.value, rank)]
    if isinstance(node, Mono):
        return [TruncatedSeries.monomial(Fraction(1), node.exponent)]
    if isinstance(node, Var):
        return [TruncatedSeries.zero(rank), TruncatedSeries.one(rank)]
    if isinstance(node, (Add, Sub, Mul)):
        left, right = _dense_poly_of(node.left, rank), _dense_poly_of(node.right, rank)
        if left is None or right is None:
            return None
        if isinstance(node, Mul):
            return _dense_mul(left, right, rank)
        op = (lambda a, b: a + b) if isinstance(node, Add) else (lambda a, b: a - b)
        return [op(a, b) for a, b in zip(*_dense_pad(left, right, rank))]
    if isinstance(node, Neg):
        inner = _dense_poly_of(node.operand, rank)
        return None if inner is None else [-c for c in inner]
    if isinstance(node, Pow):
        base = None if node.exponent < 0 else _dense_poly_of(node.base, rank)
        return None if base is None else _dense_power(base, node.exponent, rank)
    return None


def _trimmed(coeffs):
    while coeffs and coeffs[-1].is_exact_zero():
        coeffs.pop()
    return [format_series(c) for c in coeffs]


def _dense(poly, rank):
    return [poly.get(k, TruncatedSeries.zero(rank)) for k in range(max(poly, default=-1) + 1)]


_COEFFS = {1: ["0", "0 + O(t^(2))", "1", "-1", "2*t^(1/2)", "1 + O(t^(1))", "-1*t^(1) + O(t^(3))", "1*t^(-1)"],
           2: ["0", "0 + O(t^(1,0))", "1", "1*t^(0,1)", "-1 + 1*t^(0,-1) + O(t^(1,0))", "2*t^(1/2,3)"]}


class TestSparsePolynomials:
    """The sparse coefficient dicts against the dense lists they replace: the same printed coefficients."""

    @given(st.data(), st.sampled_from([1, 2]))
    def test_terms_as_dense_lists(self, data, rank):
        node = data.draw(term_trees(rank))
        coeffs, reference = polynomial_coeffs(node, rank), _dense_poly_of(node, rank)
        assert (coeffs is None) == (reference is None)
        if coeffs is not None:
            assert [format_series(c) for c in coeffs] == _trimmed(reference)

    @pytest.mark.parametrize("text", ["0", "(0)*x^3 + x", "(x - x)^2", "x^0", "(0)^0", "x - x^2 + x^2", "-(1 - x)^3",
                                      "(1 + x)*(1 - x)"])
    def test_fixed_terms(self, text):
        node = parse_term(text)
        assert [format_series(c) for c in polynomial_coeffs(node, 1)] == _trimmed(_dense_poly_of(node, 1))
        assert not any(c.is_exact_zero() for c in _skeleton(node, 1)[0].values())

    # inexact coefficients, 0 + O(...) among them, come from no term but meet the same sums and products
    @given(st.data(), st.sampled_from([1, 2]), st.integers(0, 3))
    def test_inexact_coefficients(self, data, rank, k):
        lists = [[parse_series(c, rank) for c in data.draw(st.lists(st.sampled_from(_COEFFS[rank]), min_size=1,
                                                                      max_size=4))] for _ in range(2)]
        left, right = ({i: c for i, c in enumerate(cs) if not c.is_exact_zero()} for cs in lists)
        padded = _dense_pad(*lists, rank)
        cases = [
            (_poly_add(left, right), [a + b for a, b in zip(*padded)]),
            (_poly_add(left, _poly_neg(right)), [a - b for a, b in zip(*padded)]),
            (_poly_mul(left, right), _dense_mul(*lists, rank)),
            (_poly_neg(left), [-c for c in lists[0]]),
        ]
        power = {0: TruncatedSeries.one(rank)}
        for _ in range(k):
            power = _poly_mul(power, left)
        cases.append((power, _dense_power(lists[0], k, rank)))
        for sparse, dense in cases:
            assert not any(c.is_exact_zero() for c in sparse.values())
            assert _trimmed(_dense(sparse, rank)) == _trimmed(dense)


class TestCandidates:
    def test_polynomial_subterm(self):
        node = parse_term("x^2 - t^(1)")
        cands = candidate_polynomials(node)
        assert len(cands) == 1 and len(cands[0]) == 3

    def test_denominator_collected(self):
        node = parse_term("1/(x - 1)")
        cands = candidate_polynomials(node)
        assert any(len(c) == 2 for c in cands)

    def test_analytic_argument_collected(self):
        node = parse_term("exp(x^2 - t^(1))")
        cands = candidate_polynomials(node)
        assert len(cands) == 1

    @pytest.mark.parametrize("text", ["x^2 + 1", "x*x - t^(1,0)", "1 - x^3 + t^(0,1)*x"])
    def test_rank_two_sum_of_unequal_degrees(self, text):
        # the shorter operand is padded with zeros of the term's rank
        coeffs = polynomial_coeffs(parse_term(text, rank=2), 2)
        assert coeffs and all(c.rank == 2 for c in coeffs)
        x = parse_series("1*t^(1/3,1) + 2*t^(1,0)", rank=2)
        value = eval_term(parse_term(text, rank=2), x, INFINITE)
        assert poly_eval(coeffs, x) == value


@st.composite
def applied_term_trees(draw, rank, depth=3):
    """``term_trees`` under applications of exp, sin and inv, sums, products, quotients and powers."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(term_trees(rank, draw(st.integers(0, 2))))
    sub = applied_term_trees(rank, depth - 1)
    kind = draw(st.sampled_from(["exp", "sin", "inv", "add", "sub", "mul", "div", "neg", "pow"]))
    if kind in ("exp", "sin", "inv"):
        return App(kind, (draw(sub),))
    if kind == "neg":
        return Neg(draw(sub))
    if kind == "pow":
        return Pow(draw(sub), draw(st.integers(-2, 4)))
    return {"add": Add, "sub": Sub, "mul": Mul, "div": Div}[kind](draw(sub), draw(sub))


def _reference_candidates(node, rank):
    """The walk that ``candidate_polynomials`` replaced: ``polynomial_coeffs`` of each node in pre-order, the
    subterms of a node that is not polynomial visited in turn."""
    out = []

    def visit(node):
        coeffs = polynomial_coeffs(node, rank)
        if coeffs is not None:
            if len(coeffs) >= 2:
                out.append(coeffs)
            return
        if isinstance(node, (Add, Sub, Mul, Div)):
            visit(node.left)
            visit(node.right)
        elif isinstance(node, Neg):
            visit(node.operand)
        elif isinstance(node, Pow):
            visit(node.base)
        elif isinstance(node, App):
            for a in node.args:
                visit(a)

    visit(node)
    return out


class TestCandidateOrder:
    """``candidate_polynomials`` gives the lists of the walk it replaced, in its order: ``preparing_set`` keeps a
    point's first provenance, so the order reaches ``prepare``'s output."""

    @given(st.data(), st.sampled_from([1, 2]))
    def test_random_terms(self, data, rank):
        node = data.draw(applied_term_trees(rank))
        got = [[format_series(c) for c in p] for p in candidate_polynomials(node, rank)]
        assert got == [[format_series(c) for c in p] for p in _reference_candidates(node, rank)]

    @pytest.mark.parametrize("text, products", [
        ("exp(x) + exp(x) + exp(x) + exp(x) + exp(x) + exp(x) + (1 + x)^12*(x - t^(1))", 13),
        ("exp((1 + x)^8)/((x^2 - t^(1))^3*sin(x))", 13),
    ])
    def test_each_product_is_formed_once(self, monkeypatch, text, products):
        # the products of the polynomial parts alone: no ancestor forms its parts' products again
        calls = []
        monkeypatch.setattr(terms, "_poly_mul", lambda a, b, mul=terms._poly_mul: calls.append(1) or mul(a, b))
        candidate_polynomials(parse_term(text))
        assert len(calls) == products


class TestPrepareTerm:
    def test_square_minus_t(self):
        node = parse_term("x^2 - t^(1)")
        prep, report = prepare_term(node, ge(0), trials=300, rng_seed=11)
        assert report.passed()
        got = sorted(format_series(p.series) for p in prep.points)
        assert got == ["-1*t^(1/2)", "0", "1*t^(1/2)"]

    def test_identity(self):
        prep, report = prepare_term(parse_term("x"), ge(1), trials=150, rng_seed=11)
        assert report.passed()
        assert [format_series(p.series) for p in prep.points] == ["0"]

    def test_exp_times_x(self):
        node = parse_term("exp(x)*x")
        prep, report = prepare_term(node, ge(0), trials=250, rng_seed=11)
        assert report.passed()
        assert [format_series(p.series) for p in prep.points] == ["0"]

    def test_a_budget_below_one_is_rejected(self):
        with pytest.raises(ValueError, match="budget must be at least 1, got budget 0$"):
            prepare_term(parse_term("x^2 - t^(1)"), ge(0), budget=0)

    def test_undecided_report_ends_the_search(self, monkeypatch):
        # every sample of 1/(x - x) is skipped; deepening cannot change that
        calls = []
        verify = preparation.verify_preparation

        def counting(*args):
            calls.append(args)
            return verify(*args)

        monkeypatch.setattr(preparation, "verify_preparation", counting)
        with pytest.raises(BudgetExhausted) as info:
            prepare_term(parse_term("inv(x-x)"), ge(0), budget=3, trials=20, rng_seed=11)
        assert len(calls) == 1
        assert info.value.report.verdict == "undecided"

    def test_the_term_callable_carries_the_convention(self):
        # without the convention no sample of this term can be checked, as for inv(x-x) above
        node = parse_term("inv(x-x) + x")
        term = partial(eval_term, node, inv_zero_is_zero=True)
        prep, report = prepare_term(node, ge(0), trials=20, rng_seed=11, term=term)
        assert report.passed()
        assert [format_series(p.series) for p in prep.points] == ["0"]

    def test_a_rank_two_term_gets_candidates_of_its_rank(self, monkeypatch):
        # root expansion is rank 1 only, so it still raises; the candidates it gets are all of rank 2
        seen = []
        deepen = preparation.deepen

        def recording(polys, *args):
            seen.extend(polys)
            return deepen(polys, *args)

        monkeypatch.setattr(preparation, "deepen", recording)
        with pytest.raises(HahnForgeError, match="^root expansion works over exponent rank 1$"):
            prepare_term(parse_term("x^2 - t^(1,0)", rank=2), GroupElement([0, 0]), trials=20, rng_seed=11)
        assert seen and {c.rank for p in seen for c in p} == {2}


class TestLiteralZeroDenominator:
    def test_rejected_at_parse(self):
        with pytest.raises(TermSyntaxError):
            parse_term("1/0")
        with pytest.raises(TermSyntaxError):
            parse_term("x/-0")
        with pytest.raises(TermSyntaxError):
            parse_term("inv(0)")
        # a vanishing but non-literal denominator parses; evaluation decides
        parse_term("1/(x - x)")


class TestDocumentedErrors:
    @pytest.mark.parametrize("text, message", [
        ("x)", "trailing input after the term"),
        ("x +", "unexpected end of input"),
        ("x + #", "unexpected character '#'"),
    ])
    def test_syntax_errors(self, text, message):
        with pytest.raises(TermSyntaxError, match=message):
            parse_term(text)

    def test_objects_that_are_not_terms(self):
        with pytest.raises(TypeError, match="not a term node"):
            print_term("x")
        with pytest.raises(TypeError, match="not a term node"):
            eval_term("x", parse_series("1"), GroupElement.scalar(2))
        for read in (polynomial_coeffs, candidate_polynomials):
            with pytest.raises(TypeError, match="not a term node"):
                read(Add(Var(), "x"), 1)

    def test_a_function_missing_from_the_evaluating_registry(self):
        with pytest.raises(UnknownFunction, match="'nope'"):
            eval_term(App("nope", (Var(),)), parse_series("1*t^(1)"), GroupElement.scalar(2))

    @pytest.mark.parametrize("text", ["exp(x) + x", "x^-1", "exp(x)^2"])
    def test_terms_that_are_not_polynomials(self, text):
        assert polynomial_coeffs(parse_term(text), 1) is None

    def test_candidates_under_a_negation_and_a_power(self):
        found = candidate_polynomials(parse_term("-exp(x^2 + x) + exp(x - 1*t^(1))^2"))
        assert [[format_series(c) for c in p] for p in found] == [["0", "1", "1"], ["-1*t^(1)", "1"]]
