"""Independent exact arithmetic used only to check the program's results.

A series here is a plain dict ``{Fraction exponent: Fraction coefficient}``
over exponent rank 1 with no zero coefficients.  Nothing in this module
calls the package under test, so a defect in its products, sums or
printer cannot hide from a check built on these functions.
"""

from __future__ import annotations

import re
from fractions import Fraction

ONE = {Fraction(0): Fraction(1)}


def clean(s):
    return {e: c for e, c in s.items() if c}


def add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return clean(out)


def scale(a, q):
    return clean({e: c * q for e, c in a.items()})


def sub(a, b):
    return add(a, scale(b, -1))


def mul(a, b, bound=None):
    """Product, dropping exponents >= bound (exact when both factors have
    nonnegative valuation or bound is None)."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            if bound is None or e < bound:
                out[e] = out.get(e, 0) + ca * cb
    return clean(out)


def power(a, n, bound=None):
    out = dict(ONE)
    for _ in range(n):
        out = mul(out, a, bound)
    return out


def truncate(a, bound):
    return {e: c for e, c in a.items() if e < bound}


def valuation(a):
    return min(a) if a else None


def lead(a):
    """Leading (exponent, coefficient), or None for zero."""
    if not a:
        return None
    e = min(a)
    return e, a[e]


def monomial(c, e):
    return clean({Fraction(e): Fraction(c)})


def poly_eval(coeffs, x, bound=None):
    """Horner evaluation of a polynomial with series coefficients."""
    total = {}
    for c in reversed(coeffs):
        total = add(mul(total, x, bound), c)
    return total if bound is None else truncate(total, bound)


def inverse_unit(b, bound):
    """Inverse of a series with nonzero constant term and positive tail."""
    c0 = b.get(Fraction(0))
    if not c0 or valuation(b) != 0:
        raise ValueError("not a unit")
    u = scale(sub(b, monomial(c0, 0)), -1 / c0)  # b = c0 (1 - u)
    acc, term = dict(ONE), dict(ONE)
    while True:
        term = mul(term, u, bound)
        if not term:
            return scale(acc, 1 / c0)
        acc = add(acc, term)


def taylor(coefficients, u, bound):
    """Sum of ``coefficients[k] * u^k`` truncated below bound; u infinitesimal."""
    total, term = {}, dict(ONE)
    for c in coefficients:
        if not term:
            break
        total = add(total, scale(term, c))
        term = mul(term, u, bound)
    return truncate(total, bound)


_TERM = re.compile(r"^(?P<coeff>\d+(?:/\d+)?)(?:\*t\^\((?P<exp>-?\d+(?:/\d+)?)\))?$")
_BARE = re.compile(r"^t\^\((?P<exp>-?\d+(?:/\d+)?)\)$")


def parse(text):
    """Parse the package's printed rank-1 series: returns (series, prec or None)."""
    text = text.strip()
    prec = None
    m = re.search(r" \+ O\(t\^\((-?\d+(?:/\d+)?)\)\)$", text)
    if m:
        prec = Fraction(m.group(1))
        text = text[: m.start()]
    elif text.startswith("O(t^("):
        return {}, Fraction(text[5:-2])
    if text == "0":
        return {}, prec
    out = {}
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    for i, piece in enumerate(re.split(r" ([+-]) ", text)):
        if i % 2:
            sign = 1 if piece == "+" else -1
            continue
        m = _TERM.match(piece)
        if m:
            c = Fraction(m.group("coeff"))
            e = Fraction(m.group("exp")) if m.group("exp") else Fraction(0)
        else:
            m = _BARE.match(piece)
            if not m:
                raise ValueError(f"unparseable term {piece!r}")
            c, e = Fraction(1), Fraction(m.group("exp"))
        if e in out:
            raise ValueError(f"repeated exponent in {text!r}")
        out[e] = sign * c
    return clean(out), prec


def fmt(a):
    """Series text in the package's input grammar (accepted by its parser)."""
    if not a:
        return "0"
    parts = []
    for e in sorted(a):
        c = a[e]
        body = _q(abs(c)) if e == 0 else f"{_q(abs(c))}*t^({_q(e)})"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(parts)


def _q(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def poly_from_roots(roots):
    """Coefficients (low to high) of prod (x - r) for series roots r."""
    coeffs = [dict(ONE)]
    for r in roots:
        nxt = [{} for _ in range(len(coeffs) + 1)]
        for i, c in enumerate(coeffs):
            nxt[i + 1] = add(nxt[i + 1], c)
            nxt[i] = sub(nxt[i], mul(c, r))
        coeffs = nxt
    return coeffs


def poly_mul(p, q):
    out = [{} for _ in range(len(p) + len(q) - 1)]
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = add(out[i + j], mul(a, b))
    return out
