"""One-variable term language over the series field.

Grammar (sums of products of signed powers of atoms):

    term  := sum
    sum   := prod (('+'|'-') prod)*
    prod  := unary (('*'|'/') unary)*
    unary := atom | '-' unary
    atom  := rational | 't^(' exp ')' | 'x' | ident '(' term (',' term)* ')'
           | '(' term ')' | atom '^' integer

Application arities are checked against the function registry at parse
time; ``inv`` is the built-in field inversion.  The printer emits a
canonical spacing that the parser maps back to the identical tree.

Tokens come from the one scanner of the package, ``series._Scanner``;
``t^(exp)`` atoms are read by its ``exponent``, exactly as in series text.

A term's polynomial parts (its maximal polynomial subterms, denominators
and analytic arguments) come from one bottom-up walk, ``_skeleton``, that
forms each subterm's coefficients once; ``polynomial_coeffs`` and
``candidate_polynomials`` both read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from . import prepare as preparation
from .analytic import default_registry, evaluate_analytic
from .errors import (
    ArityMismatch,
    BudgetExhausted,
    DivisionByZero,
    DomainError,
    NotInfinitesimal,
    UndecidableAtPrecision,
    UnknownFunction,
)
from .series import (
    INFINITE,
    GroupElement,
    TruncatedSeries,
    _Scanner,
    format_exponent,
    format_rational,
    format_series,
    invert,
    power,
)


class Term:
    __slots__ = ()


@dataclass(frozen=True)
class Lit(Term):
    value: Fraction


@dataclass(frozen=True)
class Mono(Term):
    exponent: GroupElement


@dataclass(frozen=True)
class Var(Term):
    pass


@dataclass(frozen=True)
class Add(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Sub(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Mul(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Div(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Neg(Term):
    operand: Term


@dataclass(frozen=True)
class Pow(Term):
    base: Term
    exponent: int


@dataclass(frozen=True)
class App(Term):
    name: str
    args: tuple


class _Parser:
    def __init__(self, text, registry, rank):
        self.sc = _Scanner(text)
        self.registry = registry
        self.rank = rank

    def parse(self):
        node = self.sum()
        if not self.sc.at_end():
            self.sc.error("trailing input after the term")
        return node

    def sum(self):
        node = self.prod()
        while True:
            ch = self.sc.peek()
            if ch == "+":
                self.sc.pos += 1
                node = Add(node, self.prod())
            elif ch == "-":
                self.sc.pos += 1
                node = Sub(node, self.prod())
            else:
                return node

    def prod(self):
        node = self.unary()
        while True:
            ch = self.sc.peek()
            if ch == "*":
                self.sc.pos += 1
                node = Mul(node, self.unary())
            elif ch == "/":
                self.sc.pos += 1
                denom = self.unary()
                if _is_literal_zero(denom):
                    self.sc.error("division by the literal zero")
                node = Div(node, denom)
            else:
                return node

    def unary(self):
        if self.sc.peek() == "-":
            self.sc.pos += 1
            return Neg(self.unary())
        return self.atom_with_power()

    def atom_with_power(self):
        node = self.atom()
        while self.sc.peek() == "^":
            self.sc.pos += 1
            node = Pow(node, self.sc.integer())
        return node

    def atom(self):
        ch = self.sc.peek()
        if ch == "(":
            self.sc.pos += 1
            node = self.sum()
            self.sc.take(")")
            return node
        if ch.isdigit():
            return Lit(self.sc.rational())
        if ch == "t" and self.sc.startswith("t^("):
            return Mono(self.sc.exponent(self.rank))
        if ch == "x" and not self._ident_continues(1):
            self.sc.pos += 1
            return Var()
        if ch.isalpha() or ch == "_":
            start = self.sc.pos
            name = self.sc.ident()
            if self.sc.peek() != "(":
                self.sc.error(f"unknown atom {name!r}", pos=start)
            self.sc.take("(")
            args = [self.sum()]
            while self.sc.peek() == ",":
                self.sc.pos += 1
                args.append(self.sum())
            self.sc.take(")")
            self._check_application(name, args, start)
            return App(name, tuple(args))
        self.sc.error(f"unexpected character {ch!r}" if ch else "unexpected end of input")

    def _ident_continues(self, offset):
        pos = self.sc.pos + offset
        return pos < len(self.sc.text) and (self.sc.text[pos].isalnum() or self.sc.text[pos] == "_")

    def _check_application(self, name, args, pos):
        if name == "inv":
            if len(args) != 1:
                raise ArityMismatch("inv takes exactly one argument")
            if _is_literal_zero(args[0]):
                self.sc.error("inversion of the literal zero")
            return
        fn = self.registry.get(name)
        if fn is None:
            raise UnknownFunction(f"function {name!r} is not registered")
        if fn.nvars != len(args):
            raise ArityMismatch(f"{name} takes {fn.nvars} arguments, got {len(args)}")


def _is_literal_zero(node):
    if isinstance(node, Lit):
        return node.value == 0
    if isinstance(node, Neg):
        return _is_literal_zero(node.operand)
    return False


def parse_term(text, registry=None, rank=1):
    registry = registry if registry is not None else default_registry()
    return _Parser(text, registry, rank).parse()


_SUM, _PROD, _UNARY, _POW, _ATOM = range(5)


def print_term(node, level=_SUM):
    if isinstance(node, Lit):
        body = format_rational(node.value)
        needs = _ATOM if node.value >= 0 else _UNARY
        return _wrap(body, needs, level)
    if isinstance(node, Mono):
        return f"t^({format_exponent(node.exponent)})"
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Add):
        return _wrap(f"{print_term(node.left, _SUM)} + {print_term(node.right, _PROD)}", _SUM, level)
    if isinstance(node, Sub):
        return _wrap(f"{print_term(node.left, _SUM)} - {print_term(node.right, _PROD)}", _SUM, level)
    if isinstance(node, Mul):
        return _wrap(f"{print_term(node.left, _PROD)}*{print_term(node.right, _UNARY)}", _PROD, level)
    if isinstance(node, Div):
        right = print_term(node.right, _UNARY)
        if right[0].isdigit():
            # keep the divisor from lexing as the tail of a rational literal
            right = f"({right})"
        return _wrap(f"{print_term(node.left, _PROD)}/{right}", _PROD, level)
    if isinstance(node, Neg):
        return _wrap(f"-{print_term(node.operand, _UNARY)}", _UNARY, level)
    if isinstance(node, Pow):
        return _wrap(f"{print_term(node.base, _ATOM)}^{node.exponent}", _POW, level)
    if isinstance(node, App):
        args = ", ".join(print_term(a, _SUM) for a in node.args)
        return f"{node.name}({args})"
    raise TypeError(f"not a term node: {node!r}")


def _wrap(body, have, want):
    return body if have >= want else f"({body})"


def eval_term(node, x, target_prec, registry=None, inv_zero_is_zero=False):
    """Exact-mode evaluation at a point, precision propagated per operation."""
    registry = registry if registry is not None else default_registry()
    rank = x.rank

    def ev(node, root=False):
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
            return _divide(ev(node.left), ev(node.right))
        if isinstance(node, Pow):
            base = ev(node.base)
            cut = INFINITE
            if root and node.exponent >= 0 and base.is_exact():
                # at the root, the top term of an exact base^k is top(base)^k:
                # when it lies at or above the target the clip below cuts there
                # anyway, so the power is cut as it is formed.  Above the root a
                # sum may cancel that term and leave an exact value, so no other
                # power is cut.
                top = base.approx.top_exponent()
                if top is not None and top * node.exponent >= target_prec:
                    cut = target_prec
            value = power(base, abs(node.exponent), cut)
            return value if node.exponent >= 0 else _divide(TruncatedSeries.one(rank), value)
        if isinstance(node, App):
            if node.name == "inv":
                return _divide(TruncatedSeries.one(rank), ev(node.args[0]))
            fn = registry.get(node.name)
            if fn is None:
                raise UnknownFunction(f"function {node.name!r} is not registered")
            args = [ev(a) for a in node.args]
            try:
                return evaluate_analytic(fn, args, target_prec)
            except NotInfinitesimal as exc:
                raise DomainError(str(exc)) from exc
        raise TypeError(f"not a term node: {node!r}")

    def _divide(a, b):
        if b.approx.is_zero():
            if b.is_exact():
                if inv_zero_is_zero:
                    return TruncatedSeries.zero(rank)
                raise DivisionByZero("exact zero denominator")
            raise UndecidableAtPrecision(f"denominator {format_series(b)} has no determined leading term")
        return a * invert(b, target_prec)

    value = ev(node, True)
    # clip stored data to the target, keeping exact values exact
    top = value.approx.top_exponent()
    if top is not None and top >= target_prec:
        value = value.truncate(target_prec)
    return value


# ---------------------------------------------------------------------------
# polynomial skeleton extraction and preparation


def _skeleton(node, rank):
    """``(poly, parts)`` of a subterm, from one bottom-up walk that forms each subterm's poly once.

    ``poly`` is ``{degree: coefficient}`` when the subterm is polynomial in
    x, else None; no coefficient is the exact zero.  An exact zero adds and
    multiplies as the identity and the annihilator of ``field_op``, so
    leaving it out gives the sums and pair products of the dense
    coefficient lists.  A power stays a repeated product, as the precision
    of a product is not associative once leading terms cancel.

    ``parts`` is empty when the subterm is polynomial: it is then its own
    part.  Otherwise it lists, in pre-order, the dense coefficient lists of
    degree at least 1 of the subterm's maximal polynomial subterms: the
    operands, denominators and analytic arguments that are polynomial, and
    the parts of those that are not.  A node that is not a term is a
    TypeError, as in ``print_term`` and ``eval_term``.
    """
    if isinstance(node, Lit):
        return ({0: TruncatedSeries.constant(node.value, rank)} if node.value else {}), []
    if isinstance(node, Mono):
        return {0: TruncatedSeries.monomial(Fraction(1), node.exponent)}, []
    if isinstance(node, Var):
        return {1: TruncatedSeries.one(rank)}, []
    # Add, Sub and Mul come before Div so that a polynomial node tests no more types than it needs
    if isinstance(node, (Add, Sub, Mul)):
        kids = (_skeleton(node.left, rank), _skeleton(node.right, rank))
        (left, _), (right, _) = kids
        if left is not None and right is not None:
            if isinstance(node, Mul):
                return _poly_mul(left, right), []
            return _poly_add(left, right if isinstance(node, Add) else _poly_neg(right)), []
    elif isinstance(node, Neg):
        kids = (_skeleton(node.operand, rank),)
        if kids[0][0] is not None:
            return _poly_neg(kids[0][0]), []
    elif isinstance(node, Pow):
        kids = (_skeleton(node.base, rank),)
        if kids[0][0] is not None and node.exponent >= 0:
            out = {0: TruncatedSeries.one(rank)}
            for _ in range(node.exponent):
                out = _poly_mul(out, kids[0][0])
            return out, []
    elif isinstance(node, Div):
        kids = (_skeleton(node.left, rank), _skeleton(node.right, rank))
    elif isinstance(node, App):
        kids = [_skeleton(a, rank) for a in node.args]
    else:
        raise TypeError(f"not a term node: {node!r}")
    return None, _parts(kids, rank)


def _parts(kids, rank):
    """The parts of subterms given as ``(poly, parts)``, in order: a polynomial one's dense list when its
    degree is at least 1, and the parts of any other."""
    out = []
    for poly, parts in kids:
        if poly is None:
            out += parts
        elif max(poly, default=0) >= 1:
            zero = TruncatedSeries.zero(rank)
            out.append([poly.get(k, zero) for k in range(max(poly) + 1)])
    return out


def _poly_neg(poly):
    return {k: -c for k, c in poly.items()}


def _poly_add(left, right):
    """Sum of two sparse coefficient dicts."""
    out = dict(left)
    for k, c in right.items():
        if k in out:
            c = out[k] + c
            if c.is_exact_zero():
                del out[k]
                continue
        out[k] = c
    return out


def _poly_mul(left, right):
    """Product of two sparse coefficient dicts."""
    out = {}
    for i, a in left.items():
        for j, b in right.items():
            k = i + j
            out[k] = out[k] + a * b if k in out else a * b
    return {k: c for k, c in out.items() if not c.is_exact_zero()}


def polynomial_coeffs(node, rank):
    """Coefficients of the term as a polynomial in x, top zeros trimmed; None if it is not one."""
    coeffs, _ = _skeleton(node, rank)
    if coeffs is None:
        return None
    zero = TruncatedSeries.zero(rank)
    return [coeffs.get(k, zero) for k in range(max(coeffs, default=-1) + 1)]


def candidate_polynomials(node, rank=1):
    """Maximal polynomial subterms, denominators, and analytic arguments of degree at least 1, in pre-order.

    One walk forms them all (``_skeleton``); a polynomial term of degree at
    least 1 is its own one candidate.
    """
    return _parts([_skeleton(node, rank)], rank)


def prepare_term(node, lam, budget=3, trials=300, rng_seed=0, term=None):
    """Preparing set for a term: candidate points from its polynomial parts.

    The candidate set is the union of the polynomial preparing sets of all
    maximal polynomial subterms, denominators, and analytic arguments; it
    is returned only with a passing verification report, deepening within
    the budget otherwise; a budget below 1 attempt is a ValueError.  An
    ``undecided`` report (no sample checked) ends the search at once:
    deeper branch points cannot make skipped samples checkable.

    ``term`` is the callable ``term(x, prec)`` that the verification
    samples, and it must evaluate ``node``; it carries the evaluation
    settings, such as a registry or ``eval_term``'s ``inv_zero_is_zero``
    convention.  By default it is ``eval_term`` of ``node`` under the
    default registry, with the convention off.
    """
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got budget {budget}")
    term = term if term is not None else partial(eval_term, node)
    prep, report, _ = preparation.deepen(candidate_polynomials(node, lam.rank), term, lam, budget, trials, rng_seed)
    if report.passed():
        return prep, report
    raise BudgetExhausted("preparation budget exhausted", report=report)

