"""Restricted analytic functions and the solvers built on them.

Functions are stored as Taylor rules (multi-index to rational coefficient)
with a declared convergence radius.  In exact mode a function with an
infinite tail is only evaluated at infinitesimal arguments, where the
expansion is finite within any precision window.  There it is summed by
one kernel on the integer grid, ``series._taylor_sum``: the target alone
bounds the monomials, the powers of the arguments are int products, every
term is added into one dict of int numerators, and the precision of the
sum is found in closed form from the precisions and valuations of the
arguments.  Finite tables are polynomials and evaluate anywhere, by the
package's one Horner loop, ``series.poly_eval``.

The solvers are the workhorses built on top: a Newton lift for roots of
``1 + y + a_2 y^2 + ... + a_d y^d`` with infinitesimal higher coefficients,
an implicit-function solver for series regular of degree one, and the
shifted square root used to turn order statements into square witnesses.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DuplicateName,
    MalformedRule,
    NotInfinitesimal,
    NotRegularDegreeOne,
    PrecisionStall,
)
from .multiseries import MultiSeries, _axis_degree, _divide, gauss_data
from .series import (
    GroupElement,
    INFINITE,
    TruncatedSeries,
    _taylor_sum,
    invert,
    poly_derivative,
    poly_eval,
    valuation,
)


@dataclass(frozen=True)
class AnalyticFunction:
    """Named Taylor rule with radius metadata.

    ``rule`` maps a multi-index tuple to an exact rational coefficient and
    is total up to any degree.  ``polynomial`` marks a finite table with
    zero tail, which lifts the infinitesimal-argument restriction.
    """

    name: str
    nvars: int
    rule: object
    radius: Fraction
    norm_bound: bool = False
    polynomial: bool = False
    table: tuple = ()

    def coefficient(self, idx):
        if isinstance(idx, int):
            idx = (idx,)
        q = self.rule(idx)
        return q if isinstance(q, Fraction) else Fraction(q)


@functools.cache
def _exp_rule(idx):
    return Fraction(1, math.factorial(idx[0]))


@functools.cache
def _sin_rule(idx):
    k = idx[0]
    if k % 2 == 0:
        return Fraction(0)
    return Fraction((-1) ** (k // 2), math.factorial(k))


@functools.cache
def _cos_rule(idx):
    k = idx[0]
    if k % 2 == 1:
        return Fraction(0)
    return Fraction((-1) ** (k // 2), math.factorial(k))


@functools.cache
def _log1p_rule(idx):
    k = idx[0]
    if k == 0:
        return Fraction(0)
    return Fraction((-1) ** (k + 1), k)


_ENTIRE = Fraction(10**6)

# the builtin rules by name, each with its declared radius; log1p is evaluated
# only at infinitesimals in exact mode, where the declared radius is metadata
# rather than a convergence claim
_BUILTINS = {
    "exp": (_exp_rule, _ENTIRE),
    "sin": (_sin_rule, _ENTIRE),
    "cos": (_cos_rule, _ENTIRE),
    "log1p": (_log1p_rule, Fraction(2)),
}


class FunctionRegistry:
    """Append-only name table; registration is atomic."""

    def __init__(self, builtins=True):
        self._functions = {}
        self._lock = threading.Lock()
        if builtins:
            for name, (rule, radius) in _BUILTINS.items():
                self._functions[name] = AnalyticFunction(name, 1, rule, radius, norm_bound=True)

    def get(self, name):
        return self._functions.get(name)

    def names(self):
        return sorted(self._functions)

    def add(self, fn):
        with self._lock:
            if fn.name in self._functions:
                raise DuplicateName(f"function {fn.name!r} already registered")
            self._functions[fn.name] = fn
        return fn


def register_function(spec, registry=None):
    """Validate a function specification and add it to the registry.

    ``spec`` is a mapping with keys name, vars, radius, and either
    ``rule`` (a callable; ``load_registry_line`` reads a builtin's name into
    its rule) or ``table`` (finite coefficient list, zero tail); optional
    ``norm_bound``.
    """
    registry = registry if registry is not None else default_registry()
    name = spec.get("name")
    if not name or not isinstance(name, str):
        raise MalformedRule("a function needs a nonempty name")
    nvars = int(spec.get("vars", 1))
    if nvars < 1:
        raise MalformedRule("a function needs at least one variable")
    radius = Fraction(spec.get("radius", 0))
    if radius <= 1:
        raise MalformedRule(f"radius must exceed 1, got {radius}")
    norm_bound = bool(spec.get("norm_bound", False))
    table = spec.get("table")
    rule = spec.get("rule")
    if table is not None:
        if nvars != 1:
            raise MalformedRule("coefficient tables are one-variable only")
        table = tuple(Fraction(c) for c in table)
        fn = AnalyticFunction(
            name,
            1,
            lambda idx, _t=table: _t[idx[0]] if idx[0] < len(_t) else Fraction(0),
            radius,
            norm_bound=norm_bound,
            polynomial=True,
            table=table,
        )
    elif callable(rule):
        fn = AnalyticFunction(name, nvars, rule, radius, norm_bound=norm_bound)
    else:
        raise MalformedRule("need either a callable rule or a coefficient table")
    return registry.add(fn)


_DEFAULT = None
_DEFAULT_LOCK = threading.Lock()


def default_registry():
    global _DEFAULT
    with _DEFAULT_LOCK:
        if _DEFAULT is None:
            _DEFAULT = FunctionRegistry()
    return _DEFAULT


def load_registry_line(line, registry=None):
    """Parse ``name <n> vars <k> radius <a> rule <builtin|table: c...> [norm1]``."""
    tokens = line.split()
    if not tokens:
        return None
    spec = {}
    i = 0
    while i < len(tokens):
        key = tokens[i]
        if key == "name":
            spec["name"] = tokens[i + 1]
            i += 2
        elif key == "vars":
            spec["vars"] = int(tokens[i + 1])
            i += 2
        elif key == "radius":
            spec["radius"] = Fraction(tokens[i + 1])
            i += 2
        elif key == "rule":
            if tokens[i + 1] == "table:":
                spec["table"] = [Fraction(t) for t in tokens[i + 2 :] if t != "norm1"]
                if tokens[-1] == "norm1":
                    spec["norm_bound"] = True
                i = len(tokens)
            else:
                if tokens[i + 1] not in _BUILTINS:
                    raise MalformedRule(f"unknown builtin rule {tokens[i + 1]!r}")
                spec["rule"] = _BUILTINS[tokens[i + 1]][0]
                i += 2
        elif key == "norm1":
            spec["norm_bound"] = True
            i += 1
        else:
            raise MalformedRule(f"unknown registration token {key!r}")
    return register_function(spec, registry)


def load_registry_file(path, registry=None):
    out = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            out.append(load_registry_line(line, registry))
    return out


def evaluate_analytic(fn, args, target_prec):
    """Sum the Taylor expansion at the given point, truncated at target_prec.

    Exact mode: arguments must be infinitesimal unless the function is a
    polynomial.  Every argument valuation must be positive in its first
    coordinate (``PrecisionStall`` otherwise), so a monomial's valuation
    grows with its degree and the target alone ends the expansion.

    The sum is ``series._taylor_sum``, one int pass on the grid.  Its
    precision is ``P = min(T, min of p_i + V(idx) - v_i)`` over the summed
    monomials idx != 0 with a nonzero coefficient and their variables i
    with e_i >= 1, where ``V(idx) = sum e_i v_i`` and a_i has valuation
    v_i and precision p_i; an exact argument adds no term.  With one
    argument this is ``min(T, p + (k0 - 1) v)``, k0 the first index >= 1
    with a nonzero coefficient.  A polynomial table has no T: it is
    ``poly_eval`` of its coefficients at the argument, of any valuation,
    known below the ``field_op`` fold's precision, the least
    ``p + (k - 1) v`` over the indices k >= 1 with a nonzero coefficient.
    """
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
        if fn.nvars != 1:
            raise MalformedRule("polynomial evaluation needs a finite table")
        return poly_eval([TruncatedSeries.constant(fn.coefficient(k), rank) for k in range(len(fn.table))], args[0])
    finite_vals = [v for v in vals if v is not INFINITE]
    if not finite_vals:
        c0 = fn.coefficient((0,) * fn.nvars)
        return TruncatedSeries.constant(c0, rank)
    if target_prec is INFINITE:
        raise ValueError(f"{fn.name} needs a finite target precision for a nonzero argument")
    min_v = min(finite_vals)
    if min_v.first() <= 0:
        raise PrecisionStall(
            "argument valuation has zero first coordinate; "
            "the expansion degree cannot be bounded in lexicographic rank > 1"
        )
    return _taylor_sum(fn.coefficient, args, target_prec)


def hensel_root(coeffs, target_prec, rank=1, trace=None):
    """Root of ``1 + y + sum a_i y^i`` with standard part -1.

    ``coeffs`` lists a_2..a_d, all infinitesimal.  Newton iteration from -1;
    the residual valuation at least doubles each step, recorded in ``trace``
    when a list is supplied.

    A step with a nonzero residual r = p(y), known below some P <= T for
    the target T, forms the slope p'(y) and its inverse w only below
    N = T - v(r) (Brent and Kung, J. ACM 25, 1978).  The slope's standard
    part is 1, so v(w) = 0, and the product r w is known below
    min(P + v(w), N + v(r)) = P, as it is with w known below T.  Its terms
    below P read w only below P - v(r) <= N, so the update ``(y - r w)``
    cut at T, every residual, the trace and the step count are those of
    the full-precision slope.  In lexicographic rank > 1 the lower
    precision can also spare the inverse the stall of a unit gap in a later
    coordinate than T: N's first coordinate may be 0 where T's is not, and
    such a root is then returned.
    """
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
                y = y.truncate(target_prec)  # p(-1) vanished only below the target
            break
        needed = target_prec - residual.approx.valuation()
        y = (y - residual * invert(poly_eval(dp, y, needed), needed)).truncate(target_prec)
    else:
        raise PrecisionStall("Newton iteration failed to reach the target")
    valuation(y)  # raises UndecidableAtPrecision when the target leaves no term of the root known
    return y


def ms_drop_var(f, var):
    """Forget a variable that no monomial uses."""
    if f.var_degree(var):
        raise ValueError("variable still occurs")
    coeffs = {}
    for idx, c in f.coeffs.items():
        coeffs[idx[:var] + idx[var + 1 :]] = c
    return MultiSeries(f.nvars - 1, f.degree, coeffs, rank=f.rank)


def implicit_series(f, d_out, prec_out):
    """Solve ``f(x, y) = 0`` for y when f is regular of degree one in y.

    The last variable is the solved one.  Division of y by f yields
    ``y = Q f + r(x)``, and since Q is a unit near the origin the root is
    exactly r; its value at 0 is infinitesimal.  A negative ``d_out`` is a
    ValueError, raised by the division.
    """
    norm, top = gauss_data(f)
    if not norm.is_zero():
        raise NotRegularDegreeOne("implicit solving needs additive norm zero")
    yvar = f.nvars - 1
    s = _axis_degree(top, yvar)
    if s != 1:
        raise NotRegularDegreeOne(f"regular of degree {s}, need degree 1")
    g = MultiSeries.variable(yvar, f.nvars, max(f.degree, d_out), rank=f.rank)
    _, remainder = _divide(f, g, yvar, 1, d_out, prec_out)
    r = remainder[0]
    const = r.coefficient((0,) * r.nvars)
    if not const.approx.is_zero() and not (const.approx.valuation() > GroupElement.zero(r.rank)):
        raise NotRegularDegreeOne("root value at the origin is not infinitesimal")
    return ms_drop_var(r, yvar)


def sqrt_shifted(epsilon, d_out):
    """The series r with ``(r + epsilon)^2 = x + epsilon^2`` and r(0) = 0."""
    eps = epsilon if isinstance(epsilon, Fraction) else Fraction(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    deg = max(2, d_out)
    one = TruncatedSeries.one(1)
    h = MultiSeries(
        2,
        deg,
        {
            (1, 0): one,
            (0, 1): TruncatedSeries.constant(-2 * eps, 1),
            (0, 2): TruncatedSeries.constant(Fraction(-1), 1),
        },
    )
    return implicit_series(h, d_out, INFINITE)
