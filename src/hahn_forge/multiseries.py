"""Degree-truncated multivariate power series with Hahn-series coefficients.

A ``MultiSeries`` stores the coefficients of monomials up to a total degree
bound; each coefficient is itself a ``TruncatedSeries``.  Results of the
operations here are stated modulo the *truncation ideal*: monomials of
total degree above the working bound plus coefficient terms at or above
the working precision.

The division algorithm follows the classical fixed-point scheme: split the
divisor once into a unit times the distinguished-variable power plus a part
that is small in the combined (degree, valuation) grading, then iterate
the division map until the quotient stabilizes; the remainder is the rest
of the last residual.  Stabilization is exact because each pass pushes the
correction further out in the grading and the working window is finite.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .errors import (
    InsufficientPrecision,
    NonUnitNorm,
    NormNotOne,
    NotAUnit,
    NotRegular,
)
from .series import GroupElement, INFINITE, TruncatedSeries, _Scanner, format_series, invert

_MAX_FIXPOINT_ITERATIONS = 4096


class MultiSeries:
    """Truncated power series in ``nvars`` variables over Hahn coefficients."""

    __slots__ = ("nvars", "degree", "coeffs", "rank")

    def __init__(self, nvars, degree, coeffs, rank=1):
        cleaned = {}
        for idx, c in coeffs.items():
            if sum(idx) > degree:
                raise ValueError("monomial exceeds the degree bound")
            if c.is_exact_zero():
                continue
            cleaned[idx] = c
            rank = c.rank
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", cleaned)
        object.__setattr__(self, "rank", rank)

    def __setattr__(self, *a):
        raise AttributeError("MultiSeries is immutable")

    @classmethod
    def zero(cls, nvars, degree, rank=1):
        return cls(nvars, degree, {}, rank=rank)

    @classmethod
    def constant(cls, value, nvars, degree):
        return cls(nvars, degree, {(0,) * nvars: value}, rank=value.rank)

    @classmethod
    def variable(cls, var, nvars, degree, rank=1):
        idx = tuple(1 if i == var else 0 for i in range(nvars))
        return cls(nvars, degree, {idx: TruncatedSeries.one(rank)}, rank=rank)

    def is_zero(self):
        return not self.coeffs

    def coefficient(self, idx):
        return self.coeffs.get(idx, TruncatedSeries.zero(self.rank))

    def max_degree(self):
        return max((sum(i) for i in self.coeffs), default=0)

    def var_degree(self, var):
        return max((i[var] for i in self.coeffs), default=0)

    def __eq__(self, other):
        return (
            isinstance(other, MultiSeries)
            and self.nvars == other.nvars
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.coeffs.items(), key=lambda kv: kv[0]))))

    def __repr__(self):
        return f"MultiSeries({format_multiseries(self)!r})"


def ms_pad(f, nvars):
    """View f inside a ring with more variables (new ones at the end)."""
    if nvars == f.nvars:
        return f
    if nvars < f.nvars:
        raise ValueError("cannot drop variables")
    pad = (0,) * (nvars - f.nvars)
    return MultiSeries(nvars, f.degree, {idx + pad: c for idx, c in f.coeffs.items()}, rank=f.rank)


def ms_add(a, b, degree=None, prec=None):
    if a.nvars != b.nvars:
        raise ValueError("variable count mismatch")
    degree = min(a.degree, b.degree) if degree is None else degree
    out = dict(a.coeffs)
    for idx, c in b.coeffs.items():
        cur = out.get(idx)
        out[idx] = c if cur is None else cur + c
    return MultiSeries(a.nvars, degree, _clip(out, degree, prec), rank=a.rank)


def ms_neg(a):
    return MultiSeries(a.nvars, a.degree, {i: -c for i, c in a.coeffs.items()}, rank=a.rank)


def ms_sub(a, b, degree=None, prec=None):
    return ms_add(a, ms_neg(b), degree, prec)


def ms_scale(a, factor):
    """Multiply every coefficient by a TruncatedSeries."""
    out = {i: c * factor for i, c in a.coeffs.items()}
    return MultiSeries(a.nvars, a.degree, out, rank=a.rank)


def ms_mul(a, b, degree=None, prec=None):
    if a.nvars != b.nvars:
        raise ValueError("variable count mismatch")
    degree = min(a.degree, b.degree) if degree is None else degree
    acc = {}
    for ia, ca in a.coeffs.items():
        for ib, cb in b.coeffs.items():
            idx = tuple(x + y for x, y in zip(ia, ib))
            if sum(idx) > degree:
                continue
            term = ca * cb
            cur = acc.get(idx)
            acc[idx] = term if cur is None else cur + term
    return MultiSeries(a.nvars, degree, _clip(acc, degree, prec), rank=a.rank)


def _clip(coeffs, degree, prec):
    out = {}
    for idx, c in coeffs.items():
        if sum(idx) > degree:
            continue
        if prec is not None and not c.approx.is_zero() and c.approx.top_exponent() >= prec:
            c = c.truncate(prec)
        if c.is_exact_zero():
            continue
        if c.approx.is_zero() and prec is not None and not (c.prec < prec):
            # entirely below the working precision: in the truncation ideal
            continue
        out[idx] = c
    return out


def _window(f, degree, prec):
    """f cut to the truncation window at ``(degree, prec)``."""
    return MultiSeries(f.nvars, degree, _clip(f.coeffs, degree, prec), rank=f.rank)


def in_truncation_ideal(f, degree, prec):
    """True when every stored monomial of degree <= bound is below ``prec``."""
    return not _clip(f.coeffs, degree, prec)


def gauss_data(f):
    """Gauss norm (additive) and the rational top slice at that level."""
    if f.is_zero():
        raise ValueError("the zero series has no Gauss norm")
    norm = None
    undetermined = []
    for idx, c in f.coeffs.items():
        if not c.approx.is_zero():
            v = c.approx.valuation()
            if norm is None or v < norm:
                norm = v
        else:
            undetermined.append(c.prec)
    if norm is None:
        raise InsufficientPrecision("no coefficient has a determined leading term")
    for p in undetermined:
        if not (p > norm):
            raise InsufficientPrecision("an undetermined coefficient could reach the norm level")
    # every precision now lies above the norm: stored exponents lie below their precision
    top = {}
    for idx, c in f.coeffs.items():
        q = c.approx.coefficient(norm)
        if q:
            top[idx] = TruncatedSeries.constant(q, f.rank)
    return norm, MultiSeries(f.nvars, f.degree, top, rank=f.rank)


def _axis_degree(top, var):
    """Least axis degree in ``var`` of a top slice, or NotRegular."""
    axis = [idx[var] for idx in top.coeffs if all(e == 0 for i, e in enumerate(idx) if i != var)]
    if not axis:
        raise NotRegular(f"top slice vanishes on the x{var + 1} axis within degree {top.degree}")
    return min(axis)


def _check_var(var, nvars):
    if not 0 <= var < nvars:
        raise ValueError(f"var must name one of the variables 0 to {nvars - 1}, got var {var}")


def regular_degree(f, var):
    """Least axis degree of the top slice in the given variable, or NotRegular."""
    _check_var(var, f.nvars)
    norm, top = gauss_data(f)
    if not norm.is_zero():
        raise NormNotOne("regularity is defined at additive norm zero")
    return _axis_degree(top, var)


def _invert_unit(u, degree, prec):
    """Inverse of a norm-zero series with invertible constant coefficient."""
    zero_idx = (0,) * u.nvars
    gamma = u.coeffs.get(zero_idx)
    if gamma is None or gamma.approx.is_zero() or not gamma.approx.valuation().is_zero():
        raise NotAUnit("constant coefficient is not a valuation-zero unit")
    gamma_inv = invert(gamma, prec)
    acc = MultiSeries.constant(TruncatedSeries.one(u.rank), u.nvars, degree)
    # u / gamma = 1 - m, so its inverse is the geometric series in m
    m = ms_neg(ms_sub(ms_scale(u, gamma_inv), acc, degree, prec))
    power = acc
    for _ in range(_MAX_FIXPOINT_ITERATIONS):
        power = ms_mul(power, m, degree, prec)
        if power.is_zero():
            break
        acc = ms_add(acc, power, degree, prec)
    else:
        raise RuntimeError("unit inversion did not stabilize; widen the precision window")
    return ms_scale(acc, gamma_inv)


def _over_power(x, var, s):
    """The terms of x divisible by ``x_var^s``, divided by it: degrees only drop, so no clip is needed."""
    high = {tuple(e - s if i == var else e for i, e in enumerate(idx)): c
            for idx, c in x.coeffs.items() if idx[var] >= s}
    return MultiSeries(x.nvars, x.degree, high, rank=x.rank)


def weierstrass_divide(f, g, var, d_out, prec_out):
    """Division with remainder by a series regular in the given variable.

    Returns ``(Q, [R_0, ..., R_{s-1}])`` with ``g = Q f + sum R_i x_var^i``
    modulo the truncation ideal at ``(d_out, prec_out)``; the remainder
    coefficients do not involve the distinguished variable, and the norms
    of Q and the R_i are no larger than the norm of g.  A divisor in fewer
    variables than g is read in all of g's, so ``var`` ranges over those.
    A negative ``d_out`` is a ValueError.
    """
    _check_var(var, max(f.nvars, g.nvars))
    f = ms_pad(f, max(f.nvars, g.nvars))
    norm, top = gauss_data(f)
    if not norm.is_zero():
        raise NonUnitNorm("the divisor must have additive norm zero")
    return _divide(f, g, var, _axis_degree(top, var), d_out, prec_out)


def _divide(f, g, var, s, d_out, prec_out):
    """``weierstrass_divide`` by f of norm zero, regular of degree s: split f once as ``w + x_var^s u``,
    iterate ``q = u^-1 H(g - q w)`` with H the division by ``x_var^s``, and split the last residual."""
    if d_out < 0:
        raise ValueError(f"d_out must be at least 0, got d_out {d_out}")
    nvars = max(f.nvars, g.nvars)
    f, g = ms_pad(f, nvars), ms_pad(g, nvars)
    if g.is_zero():
        zero = MultiSeries.zero(nvars, d_out, rank=f.rank)
        return zero, [zero] * s
    d_work = d_out + s
    # a dividend of negative norm shifts every correction down by its norm,
    # so the iteration has to run that much deeper to certify prec_out; an
    # infinite prec_out stays infinite
    norm_g, _ = gauss_data(g)
    deeper = prec_out is not INFINITE and norm_g < GroupElement.zero(norm_g.rank)
    prec_work = prec_out - norm_g if deeper else prec_out
    f_w = _window(f, d_work, prec_work)
    w_part = MultiSeries(nvars, d_work, {i: c for i, c in f_w.coeffs.items() if i[var] < s}, rank=f.rank)
    v_inv = _invert_unit(_over_power(f_w, var, s), d_work, prec_work)
    g_w = _window(g, d_work, prec_work)

    q = MultiSeries.zero(nvars, d_work, rank=f.rank)
    for _ in range(_MAX_FIXPOINT_ITERATIONS):
        t = ms_sub(g_w, ms_mul(q, w_part, d_work, prec_work), d_work, prec_work)
        q_next = ms_mul(v_inv, _over_power(t, var, s), d_work, prec_work)
        if q_next == q:
            break
        q = q_next
    else:
        raise RuntimeError("division did not stabilize; widen the precision window")

    # t is the residual of the final q: split its low part by the power of x_var
    r_coeffs = [{} for _ in range(s)]
    for idx, c in _clip({i: c for i, c in t.coeffs.items() if i[var] < s}, d_out, prec_out).items():
        r_coeffs[idx[var]][tuple(0 if j == var else e for j, e in enumerate(idx))] = c
    return _window(q, d_out, prec_out), [MultiSeries(nvars, d_out, r, rank=f.rank) for r in r_coeffs]


def unit_invert(u, d_out, prec_out):
    """Reciprocal of a unit modulo the truncation ideal at ``(d_out, prec_out)``."""
    norm, top = gauss_data(u)
    if not norm.is_zero():
        raise NotAUnit("a unit must have additive norm zero")
    if (0,) * u.nvars not in top.coeffs:
        raise NotAUnit("top slice vanishes at the origin")
    return _window(_invert_unit(_window(u, d_out, prec_out), d_out, prec_out), d_out, prec_out)


def strong_split(f):
    """Rewrite a series in (xi, eta1, eta2) against the relation eta1*eta2 = eta3.

    Returns ``(f1, f2, q)`` in variables (xi, eta1, eta3), (xi, eta2, eta3)
    and (xi, eta1, eta2, eta3) with
    ``f = f1 + eta2*f2 + q*(eta1*eta2 - eta3)`` exactly on polynomials:
    in each monomial every available eta1*eta2 pair is telescoped into eta3.
    """
    n = f.nvars - 2
    if n < 0:
        raise ValueError("need at least the two distinguished variables")
    f1 = {}
    f2 = {}
    q = {}
    for idx, c in f.coeffs.items():
        xi, i, j = idx[:n], idx[n], idx[n + 1]
        m = min(i, j)
        for k in range(m):
            # eta1^(i-1-k) eta2^(j-1-k) eta3^k picks up the relation once
            qidx = xi + (i - 1 - k, j - 1 - k, k)
            cur = q.get(qidx)
            q[qidx] = c if cur is None else cur + c
        if j - m == 0:
            tidx = xi + (i - m, m)
            cur = f1.get(tidx)
            f1[tidx] = c if cur is None else cur + c
        else:
            tidx = xi + (j - m - 1, m)
            cur = f2.get(tidx)
            f2[tidx] = c if cur is None else cur + c
    deg = f.degree
    return (
        MultiSeries(n + 2, deg, f1, rank=f.rank),
        MultiSeries(n + 2, deg, f2, rank=f.rank),
        MultiSeries(n + 3, deg, q, rank=f.rank),
    )


def recenter_rescale(f, center, scale=Fraction(1)):
    """Exact polynomial substitution ``x_i <- scale*x_i + center_i`` on the truncation."""
    scale = scale if isinstance(scale, Fraction) else Fraction(scale)
    if scale <= 0:
        raise ValueError("scale must be positive")
    center = [a if isinstance(a, Fraction) else Fraction(a) for a in center]
    if len(center) != f.nvars:
        raise ValueError("center length must match the number of variables")
    acc = {}
    for idx, c in f.coeffs.items():
        weights = {(0,) * f.nvars: Fraction(1)}
        for i, e in enumerate(idx):
            new_weights = {}
            for part, w in weights.items():
                for k in range(e + 1):
                    factor = comb(e, k) * scale**k * center[i] ** (e - k)
                    if not factor:
                        continue
                    nidx = tuple(p + (k if j == i else 0) for j, p in enumerate(part))
                    new_weights[nidx] = new_weights.get(nidx, Fraction(0)) + w * factor
            weights = new_weights
        for nidx, w in weights.items():
            term = c.scale(w)
            cur = acc.get(nidx)
            acc[nidx] = term if cur is None else cur + term
    return MultiSeries(f.nvars, f.degree, acc, rank=f.rank)


def ms_substitute(f, var, r, degree, prec):
    """Compose ``x_var := r`` where r is a MultiSeries in the remaining variables.

    Requires r to have no constant term, so powers gain degree and the
    composition is finite within the window.
    """
    if (0,) * r.nvars in r.coeffs:
        raise ValueError("substituted series must vanish at the origin")
    by_power = {}
    for idx, c in f.coeffs.items():
        k = idx[var]
        rest = tuple(0 if i == var else e for i, e in enumerate(idx))
        by_power.setdefault(k, {})[rest] = c
    out = MultiSeries.zero(f.nvars, degree, rank=f.rank)
    r_power = MultiSeries.constant(TruncatedSeries.one(f.rank), f.nvars, degree)
    for k in range(0, max(by_power) + 1 if by_power else 0):
        if k:
            r_power = ms_mul(r_power, r, degree, prec)
            if r_power.is_zero():
                break
        layer = by_power.get(k)
        if layer:
            part = MultiSeries(f.nvars, degree, layer, rank=f.rank)
            out = ms_add(out, ms_mul(part, r_power, degree, prec), degree, prec)
    return out


# ---------------------------------------------------------------------------
# text format


def format_multiseries(f):
    if f.is_zero():
        return "[0]"
    parts = []
    for idx in sorted(f.coeffs, key=lambda i: (sum(i), i)):
        c = f.coeffs[idx]
        body = f"[{format_series(c)}]"
        for i, e in enumerate(idx):
            if e == 1:
                body += f"*x{i + 1}"
            elif e > 1:
                body += f"*x{i + 1}^{e}"
        parts.append(body)
    return " + ".join(parts)


def parse_multiseries(text, nvars=None, degree=None, rank=1):
    """Parse ``[series]*x<i>^<e>...`` terms joined by ``+``, with i >= 1.

    The coefficients are read by the series scanner, so errors inside them
    carry their line and column in the whole text.
    """
    sc = _Scanner(text)
    terms = []
    while True:
        sc.take("[")
        coeff = sc.series(rank)
        sc.take("]")
        powers = {}
        while sc.peek() == "*":
            sc.pos += 1
            sc.take("x")
            var = sc.integer(signed=False) - 1
            if var < 0:
                sc.error("variables are numbered from x1")
            if nvars is not None and var >= nvars:
                sc.error(f"x{var + 1} is beyond the {nvars} variables")
            e = 1
            if sc.peek() == "^":
                sc.pos += 1
                e = sc.integer(signed=False)
            powers[var] = powers.get(var, 0) + e
        terms.append((powers, coeff))
        if sc.at_end():
            break
        if sc.peek() == "-":
            sc.error("use signed coefficients instead of '-' between terms")
        sc.take("+")
    if nvars is None:
        nvars = max((max(p, default=-1) for p, _ in terms), default=-1) + 1
        nvars = max(nvars, 1)
    coeffs = {}
    for powers, c in terms:
        idx = tuple(powers.get(i, 0) for i in range(nvars))
        cur = coeffs.get(idx)
        coeffs[idx] = c if cur is None else cur + c
    if degree is None:
        degree = max((sum(i) for i in coeffs), default=0)
    return MultiSeries(nvars, degree, coeffs, rank=rank)
