"""Root expansion over the value group and leading-term preparation.

The expansion engine follows the Newton polygon: each polygon edge names a
candidate root valuation, the edge polynomial names the possible leading
coefficients, and substitution recurses until every branch is separated.
Coefficients stay exact: rational when the branch is rational, otherwise
elements of a single real-algebraic extension carried per branch (nested
extensions are rejected; see puiseux_roots).  The expansion starts from the
squarefree part, taken by one subresultant sequence over Z[s] with s a root
of t (see _squarefree_series_poly).

A preparing set for a one-variable term is the truncated branch set of the
polynomial together with the whole derivative chain.  Its defining
property, that the leading-term class of the term is constant on every
ball next to the set, is enforced by the sampling verifier before a set is
returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, partial
from fractions import Fraction
from itertools import combinations
from math import ceil, comb, floor, gcd, lcm

from . import algebraic as alg
from .algebraic import (
    AlgebraicContext,
    RealAlgebraic,
    as_fraction_or_none,
)
from .analytic import evaluate_analytic
from .errors import (
    DepthExhausted,
    DivisionByZero,
    DomainError,
    DomainViolation,
    HahnForgeError,
    InsufficientPrecision,
    NotInfinitesimal,
    UndecidableAtPrecision,
    UndecidedSign,
    ZeroOrUncertainLeadingTerm,
)
from .rv import (
    VerificationReport,
    _first_disagreement,
    _mates_at,
    _point_pairs,
    _schedule,
    near_sample,
    run_trials,
    rv_lambda,
)
from .series import (
    GroupElement,
    HahnSeries,
    INFINITE,
    TruncatedSeries,
    _exponent,
    _first_difference,
    _half_steps,
    format_exponent,
    format_rational,
    format_series,
    invert,
    poly_derivative,
    poly_eval,
    valuation,
)

_LEVEL_CAP = 128


# ---------------------------------------------------------------------------
# public types


@dataclass
class IntervalCoeff:
    """Rational enclosure of a real algebraic branch coefficient.

    ``witness`` is an integer-coefficient annihilator with an isolating
    interval for the generator; refinement bisects against it, so sign
    queries on nonzero values always terminate.
    """

    lower: Fraction
    upper: Fraction
    witness: tuple
    value: RealAlgebraic = field(repr=False, compare=False, default=None)

    def refine(self, width=Fraction(1, 2**40)):
        lo, hi = self.value.enclosure(width)
        self.lower, self.upper = lo, hi
        return lo, hi

    def proxy(self):
        """Deterministic rational stand-in, used when a point of the base
        field is needed.

        Kept at a small denominator: no point of the base field is
        valuatively close to an irrational branch anyway, and compact
        numerators keep downstream arithmetic fast.
        """
        lo, hi = self.refine(Fraction(1, 2**24))
        return ((lo + hi) / 2).limit_denominator(10**4)

    def to_dict(self):
        poly, interval = self.witness
        return {
            "lower": format_rational(self.lower),
            "upper": format_rational(self.upper),
            "witness": {
                "poly": [str(c) for c in poly],
                "interval": [format_rational(interval[0]), format_rational(interval[1])],
            },
        }


@dataclass
class PuiseuxRoot:
    """One real branch (or one complex-conjugate pair) of a polynomial."""

    ramification: int
    branch: tuple
    depth: object  # Fraction, or INFINITE for an exactly terminated branch
    conjugacy_tag: str = "real"

    def is_real(self):
        return self.conjugacy_tag == "real"

    def to_series(self):
        """Truncation as an exact point of the base field.

        Irrational coefficients are replaced by their deterministic
        rational proxies; the result is a point, not an approximation.
        """
        terms = []
        for e, c in self.branch:
            q = c.proxy() if isinstance(c, IntervalCoeff) else c
            if q:
                terms.append((GroupElement.scalar(e), q))
        return TruncatedSeries.exact(HahnSeries(terms))

    def to_dict(self):
        return {
            "ramification": self.ramification,
            "branch": [
                {
                    "exponent": format_rational(e),
                    "coeff": format_rational(c) if isinstance(c, Fraction) else c.to_dict(),
                }
                for e, c in self.branch
            ],
            "depth": "inf" if self.depth is INFINITE else format_rational(self.depth),
            "conjugacy": self.conjugacy_tag,
        }


@dataclass
class PreparingPoint:
    series: TruncatedSeries
    depth: object
    poly_text: str
    derivative_order: int

    def to_dict(self):
        return {
            "series": format_series(self.series),
            "depth": "inf" if self.depth is INFINITE else format_rational(self.depth),
            "provenance": {"poly": self.poly_text, "derivative_order": self.derivative_order},
        }


@dataclass
class PreparingSet:
    points: list

    def centers(self):
        return [p.series for p in self.points]

    def to_dict(self):
        return {"points": [p.to_dict() for p in self.points]}


# ---------------------------------------------------------------------------
# polynomials over the series field


def poly_text(coeffs):
    """Render a coefficient list in the one-variable term grammar."""
    parts = []
    for i, c in enumerate(coeffs):
        if c.is_exact_zero():
            continue
        body = f"({format_series(c)})"
        if i == 1:
            body += "*x"
        elif i > 1:
            body += f"*x^{i}"
        parts.append(body)
    return " + ".join(parts) if parts else "0"


def newton_polygon(coeffs):
    """Candidate root valuations from the lower hull of (i, v(a_i)).

    Returns (valuation, multiplicity) pairs, one per hull edge, in hull
    order; the valuations are the negated edge slopes, ``GroupElement``s of
    the coefficients' rank.
    """
    points = []
    for i, c in enumerate(coeffs):
        if c.is_exact_zero():
            continue
        if c.approx.is_zero():
            raise InsufficientPrecision(f"coefficient {i} has no determined valuation")
        points.append((i, c.approx.valuation()))
    return [(nu, i2 - i1) for nu, i1, i2, _ in _hull_edges(points, None)]


# ---------------------------------------------------------------------------
# exact series plumbing for the expansion engine

# an "xser" is a dict {Fraction exponent: number}; numbers are Fractions or
# RealAlgebraic elements sharing one context per branch.  No stored number
# is zero: each is zero-tested once, where _substitute creates it.  Inside
# _substitute an xser is held on ints: an exponent e as the key e*E, a
# number as int coordinates over one denominator D (a Fraction as one
# coordinate), reduced by int pseudo-division and zero-tested on the int
# remainder; Fractions are built once per term, from that remainder.


def _xser_from_truncated(ts):
    if ts.rank != 1:
        raise HahnForgeError("root expansion works over exponent rank 1")
    if not ts.is_exact():
        raise InsufficientPrecision("root expansion needs exact coefficients")
    return {e.first(): c for e, c in ts.approx.terms}


def _substitute(coeffs, c, nu):
    """Coefficients of p(c*t^nu + x) from those of p(x), by the binomial expansion on ints.

    E is the lcm of the denominators of nu and of every exponent.  D is the
    lcm of the coefficients' denominators times the lcm of the denominators
    of c^0, ..., c^n, which are reduced modulo the witness.  Each pair
    a_i[e] * binom(i, j) * c^(i-j) is one int ``pmul``, added unreduced to
    the term of x^j at e + (i-j)*nu.  An algebraic term is then reduced
    once by int pseudo-division (a remainder r over D*L^k, L the lead of the
    witness's ints), zero-tested once on r and converted to Fractions once.
    The remainder is that of summing reduced products: reduction modulo the
    witness is linear with a canonical remainder, and no zero test runs
    before the last sum, so the witness cannot shrink in between.

    A term is a RealAlgebraic when an algebraic number entered it, and an
    algebraic c enters every term, that of x^i included; otherwise it is a
    Fraction.  Terms keep the order in which the pairs first reach them.
    """
    n = len(coeffs) - 1
    every_term_algebraic = isinstance(c, RealAlgebraic)
    ctx = c.ctx if every_term_algebraic else next(
        (q.ctx for a in coeffs for q in a.values() if isinstance(q, RealAlgebraic)), None)
    if every_term_algebraic:
        powers = [[Fraction(1)]]
        for _ in range(n):
            powers.append(ctx.reduce(alg.pmul(powers[-1], c._sync())))
    else:
        powers = [[Fraction(c) ** k] for k in range(n + 1)]
    numbers = [[(e, q._sync() if isinstance(q, RealAlgebraic) else [q], isinstance(q, RealAlgebraic))
                for e, q in a.items()] for a in coeffs]
    eden = lcm(nu.denominator, *(e.denominator for a in coeffs for e in a))
    qden = lcm(*(x.denominator for a in numbers for _, p, _ in a for x in p))
    cden = lcm(*(x.denominator for p in powers for x in p))
    den = qden * cden
    power_ints = [[x.numerator * (cden // x.denominator) for x in p] for p in powers]
    step = nu.numerator * (eden // nu.denominator)
    sums = [{} for _ in range(n + 1)]
    algebraic = [set() for _ in range(n + 1)]
    for i, a in enumerate(numbers):
        terms = [(e.numerator * (eden // e.denominator), [x.numerator * (qden // x.denominator) for x in p], is_alg)
                 for e, p, is_alg in a]
        for j in range(i + 1):
            factor = [comb(i, j) * x for x in power_ints[i - j]]
            shift = step * (i - j)
            row = sums[j]
            for key, p, is_alg in terms:
                key += shift
                pair = alg.pmul(p, factor)
                total = row.get(key)
                row[key] = pair if total is None else alg.padd(total, pair)
                if is_alg:
                    algebraic[j].add(key)
    out = []
    for row, marked in zip(sums, algebraic):
        s = {}
        for key, p in row.items():
            if every_term_algebraic or key in marked:
                r, scale = ctx.pseudo_remainder(p)
                # made before the test: a term kept across a shrink re-reduces lazily
                q = RealAlgebraic._reduced(ctx, [Fraction(x, den * scale) for x in r])
                if ctx.vanishes(r):
                    continue
            else:
                q = Fraction(p[0], den) if p else Fraction(0)
                if not q:
                    continue
            s[Fraction(key, eden)] = q
        out.append(s)
    return out


def _poly_points(coeffs):
    return [(i, min(a)) for i, a in enumerate(coeffs) if a]


def _hull_edges(points, floor):
    """Lower-hull edges ``(nu, i1, i2, v1)`` with valuation nu strictly above ``floor``.

    ``points`` are ``(i, v)`` in ascending i, with v a Fraction or a
    ``GroupElement`` (ordered lexicographically); nu is the negated slope of
    the edge from ``(i1, v1)`` to ``(i2, v2)``.
    """
    if len(points) < 2:
        return []
    hull = [points[0]]
    for pt in points[1:]:
        while len(hull) >= 2:
            (i1, v1), (i2, v2) = hull[-2], hull[-1]
            # keep the lower hull: drop the middle point when it lies on or
            # above the segment to the new point
            if (v2 - v1) * (pt[0] - i1) >= (pt[1] - v1) * (i2 - i1):
                hull.pop()
            else:
                break
        hull.append(pt)
    edges = []
    for (i1, v1), (i2, v2) in zip(hull, hull[1:]):
        nu = (v1 - v2) / (i2 - i1)
        if floor is None or nu > floor:
            edges.append((nu, i1, i2, v1))
    return edges


def _edge_polynomial(coeffs, nu, i1, i2, v1):
    """Coefficients of the edge polynomial, z^0 at the left corner.

    Both corners are hull points, so the end coefficients are nonzero.
    """
    return [coeffs[i].get(v1 - nu * (i - i1), Fraction(0)) for i in range(i1, i2 + 1)]


def _field_roots(phi, ctx):
    """Roots of the edge polynomial with multiplicity, plus complex pairs.

    Returns (roots, pairs): roots are (value, mult, ctx-for-value), and
    pairs are (number of complex-conjugate pairs, mult), one per factor
    that has any.  Raises when a root would need a second generator.
    """
    rational_coeffs = []
    for c in phi:
        q = c if isinstance(c, (int, Fraction)) else as_fraction_or_none(c)
        if q is None:
            rational_coeffs = None
            break
        rational_coeffs.append(Fraction(q))

    roots = []
    pairs = []
    if rational_coeffs is not None:
        for factor, mult in alg.squarefree_decomposition(rational_coeffs):
            rat, rest = alg.rational_roots(factor)
            for r in rat:
                roots.append((r, mult, ctx))
            if alg.pdeg(rest) >= 1:
                intervals = alg.isolate_real_roots(rest)
                if intervals and ctx is not None:
                    raise UndecidedSign(
                        "branch needs a second algebraic generator; "
                        "nested real-algebraic extensions are not supported"
                    )
                witness = alg.clear_denominators(rest)
                for lo, hi in intervals:
                    new_ctx = AlgebraicContext(witness, lo, hi)
                    roots.append((RealAlgebraic.generator(new_ctx), mult, new_ctx))
                complex_count = alg.pdeg(rest) - len(intervals)
                if complex_count:
                    pairs.append((complex_count // 2, mult))
        return roots, pairs

    # coefficients genuinely involve the generator
    for factor, mult in alg.squarefree_decomposition(phi):
        if alg.pdeg(factor) == 1:
            # squarefree factors come back monic
            roots.append((-factor[0], mult, ctx))
            continue
        real_count = alg.generic_real_root_count(factor)
        if real_count:
            raise UndecidedSign(
                "branch needs a second algebraic generator; "
                "nested real-algebraic extensions are not supported"
            )
        pairs.append((alg.pdeg(factor) // 2, mult))
    return roots, pairs


def _expand(coeffs, floor, prefix, ctx, depth_target, level, out):
    if level > _LEVEL_CAP:
        raise RuntimeError("root expansion recursed too deeply")
    if not coeffs[0]:
        # the current center is an exact root; the polygon edges below
        # still enumerate the branches passing nearby
        out.append(_make_root(prefix, INFINITE))
    for nu, i1, i2, v1 in _hull_edges(_poly_points(coeffs), floor):
        phi = _edge_polynomial(coeffs, nu, i1, i2, v1)
        roots, pairs = _field_roots(phi, ctx)
        for count, mult in pairs:
            for _ in range(count * mult):
                out.append(_make_root(prefix, nu, tag="complex-pair"))
        for value, mult, root_ctx in roots:
            new_prefix = prefix + ((nu, value),)
            shifted = _substitute(coeffs, value, nu)
            if mult == 1 and nu >= depth_target:
                nxt = _next_exponent(shifted)
                out.append(_make_root(new_prefix, nxt if nxt is not None else INFINITE))
            else:
                _expand(shifted, nu, new_prefix, root_ctx, depth_target, level + 1, out)


def _next_exponent(coeffs):
    """Valuation of the Newton correction for a simple root at the origin."""
    if not coeffs[0] or len(coeffs) < 2 or not coeffs[1]:
        return None
    return min(coeffs[0]) - min(coeffs[1])


def _make_root(prefix, depth, tag="real"):
    branch = []
    denominators = [1]
    for e, c in prefix:
        denominators.append(e.denominator)
        if isinstance(c, RealAlgebraic):
            q = as_fraction_or_none(c)
            if q is not None:
                c = q
            else:
                lo, hi = c.enclosure()
                witness = (tuple(c.ctx.ints), (c.ctx.lo, c.ctx.hi))
                c = IntervalCoeff(lo, hi, witness, c)
        branch.append((e, c))
    depth_val = depth if depth is INFINITE else Fraction(depth)
    return PuiseuxRoot(lcm(*denominators), tuple(branch), depth_val, tag)


def _squarefree_series_poly(xsers):
    """Squarefree part of a polynomial whose coefficients are xsers of rank 1.

    With s = t^(1/N), N the lcm of the exponent denominators, and m the least
    exponent, the polynomial is c*t^m*P(s, x) with P in Z[s][x], stored as a
    list over x of int lists over s.  G, the last nonzero term of the
    subresultant sequence of P and P_x (Collins), is their gcd up to a factor
    in Z[s]; every division in the sequence is exact in Z[s], so no content is
    taken along the way.  When G has x-degree 0 the input list is returned as
    it is.  Otherwise the result is P / pp(G), mapped back by s^k -> t^(k/N + m).

    The result is fixed only up to a factor c*t^k (c rational), and the branch
    expansion does not see such a factor: the hull slopes and the exponent of
    the Newton correction are the same, and each edge polynomial is scaled by
    c, which the monic squarefree factors and ``clear_denominators`` remove.
    """
    if len(xsers) <= 2:
        return xsers
    n, m, den = 1, None, 1
    for a in xsers:
        for e, c in a.items():
            n, den = lcm(n, e.denominator), lcm(den, c.denominator)
            m = e if m is None or e < m else m
    p = []
    for a in xsers:
        dense = [0] * (max((int((e - m) * n) for e in a), default=-1) + 1)
        for e, c in a.items():
            dense[int((e - m) * n)] = int(c * den)
        p.append(dense)
    g = _last_subresultant(p, [[k * c for c in a] for k, a in enumerate(p)][1:])
    if len(g) == 1:
        return xsers
    content = []
    for c in g:
        if c:
            content = alg.pgcd(content, [Fraction(x) for x in c])
    content = alg.clear_denominators(content)
    g = [_divexact(c, content) for c in g]
    whole = gcd(*(x for c in g for x in c))
    g = [[x // whole for x in c] for c in g]
    # long division of p by the primitive g; Gauss's lemma keeps it in Z[s][x]
    top = len(g) - 1
    q = [[] for _ in range(len(p) - top)]
    for k in range(len(q) - 1, -1, -1):
        q[k] = c = _divexact(p[k + top], g[-1])
        for i in range(top):
            p[k + i] = alg.psub(p[k + i], alg.pmul(c, g[i]))
    if any(p[:top]):
        raise ArithmeticError("the gcd does not divide the polynomial")
    return [{Fraction(k, n) + m: Fraction(c) for k, c in enumerate(a) if c} for a in q]


def _last_subresultant(a, b):
    """Last nonzero term of the subresultant sequence of a and b, lists over x of Z[s] lists."""
    g = h = [1]
    while len(b) > 1:
        delta = len(a) - len(b)
        r = _prem(a, b)
        if not r:
            return b
        scale = alg.pmul(g, _ppow(h, delta))
        a, b = b, [_divexact(c, scale) for c in r]
        g = a[-1]
        h = _divexact(_ppow(g, delta), _ppow(h, delta - 1))
    return b


def _prem(a, b):
    """lc(b)^(deg a - deg b + 1) * a modulo b: one multiplication by lc(b) per quotient degree."""
    lead, top = b[-1], len(b) - 1
    for k in range(len(a) - len(b), -1, -1):
        c = a[k + top]
        a = [alg.pmul(x, lead) for x in a[: k + top]]
        if c:
            for i in range(top):
                a[k + i] = alg.psub(a[k + i], alg.pmul(c, b[i]))
    while a and not a[-1]:
        a.pop()
    return a


def _ppow(a, k):
    out = [1]
    for _ in range(k):
        out = alg.pmul(out, a)
    return out


def _divexact(a, b):
    """a / b for int lists over s; raises ArithmeticError on a remainder."""
    a = list(a)
    top = len(b) - 1
    q = [0] * max(0, len(a) - top)
    for k in range(len(q) - 1, -1, -1):
        c, r = divmod(a[k + top], b[-1])
        if r:
            raise ArithmeticError("inexact division in Z[s]")
        q[k] = c
        if c:
            for i, x in enumerate(b):
                a[k + i] -= c * x
    if any(a):
        raise ArithmeticError("inexact division in Z[s]")
    return alg.ptrim(q)


def puiseux_roots(coeffs, depth=Fraction(4)):
    """All real-closure branches of the polynomial, expanded past separation.

    Real branches carry exact coefficients (rational, or interval-certified
    in a single algebraic extension); complex pairs record the shared real
    prefix and are tagged.  Each returned branch is simple; together with
    multiplicity-two complex pairs they count the degree of the squarefree
    part.
    """
    depth = Fraction(depth)
    coeffs = list(coeffs)
    while coeffs and coeffs[-1].is_exact_zero():
        coeffs.pop()
    if len(coeffs) < 2:
        return []
    xsers = _squarefree_series_poly([_xser_from_truncated(c) for c in coeffs])
    out = []
    _expand(xsers, None, (), None, depth, 0, out)
    return out


# ---------------------------------------------------------------------------
# preparation and the probes


def _term_from_poly(coeffs):
    """The callable ``term(x, prec)`` of a polynomial, exact without ``prec``."""
    return partial(poly_eval, coeffs)


def preparing_set(polys, depth):
    """Real branch points, to ``depth``, of each polynomial and all its derivatives.

    The first provenance of a repeated point is kept; with no point at all
    the set is the zero point.
    """
    seen = {}
    for coeffs in polys:
        chain = list(coeffs)
        order = 0
        while len(chain) >= 2:
            text = poly_text(chain)
            for root in puiseux_roots(chain, depth):
                if root.is_real():
                    series = root.to_series()
                    seen.setdefault(series, PreparingPoint(series, root.depth, text, order))
            chain = poly_derivative(chain)
            order += 1
    if not seen:
        return PreparingSet([PreparingPoint(TruncatedSeries.zero(), INFINITE, "0", 0)])
    return PreparingSet(list(seen.values()))


def prepare_polynomial(p, lam, trials=300, rng_seed=0, max_retries=3):
    """Preparing set for a polynomial: branch points of p and all derivatives.

    The set is returned only after the sampling verifier confirms that the
    leading-term class of p is constant on every sampled ball next to it;
    on failure the branch depth is increased and the set rebuilt (see
    ``deepen``).
    """
    if all(c.is_exact_zero() for c in p[1:]):
        raise ValueError("the polynomial must be nonconstant")
    if max_retries < 1:
        raise ValueError("max_retries must be at least 1")
    prep, report, depth = deepen([p], _term_from_poly(p), lam, max_retries, trials, rng_seed)
    if report.passed():
        return prep, report
    if report.verdict == "undecided":
        raise DepthExhausted(f"preparation undecided at depth {depth}; report: {report.to_json()}")
    raise DepthExhausted(f"preparation kept failing at depth {depth}; last report: {report.to_json()}")


def deepen(polys, term, lam, attempts, trials, rng_seed):
    """Build and verify the preparing set of ``polys`` at depths lam + 4, lam + 8, ...

    Returns ``(prep, report, depth)`` of the first attempt whose report does
    not fail, or of the last of ``attempts`` attempts.  An ``undecided``
    report (no sample checked) ends the search at once: deeper branch points
    cannot make skipped samples checkable.
    """
    for attempt in range(1, attempts + 1):
        depth = lam.first() + 4 * attempt
        prep = preparing_set(polys, depth)
        report = verify_preparation(term, prep, lam, trials, rng_seed)
        if report.verdict != "fail":
            break
    return prep, report, depth


_SKIP = (
    UndecidableAtPrecision,
    InsufficientPrecision,
    ZeroOrUncertainLeadingTerm,
    DivisionByZero,
    DomainError,
    NotInfinitesimal,
    UndecidedSign,
)


def _rv_of_term(term, x, lam, base_prec, step):
    prec = base_prec
    for _ in range(4):
        value = term(x, prec)
        try:
            return rv_lambda(value, lam)
        except InsufficientPrecision:
            prec = prec + step
    raise InsufficientPrecision("term value never became sharp enough")


def _centers(prep):
    centers = prep.centers() if isinstance(prep, PreparingSet) else list(prep)
    if not centers:
        raise ValueError("the preparing set must be nonempty")
    return centers


def verify_preparation(term, prep, lam, trials=300, rng_seed=0):
    """Sample ball-mates next to the set and compare leading-term classes.

    ``term`` is a callable ``term(x, prec)``; the report records witness
    pairs for every sampled disagreement.
    """
    centers = _centers(prep)
    rows = _schedule(-4, int(2 * lam.first()) + 4, 2, lam)
    six, ten = (GroupElement.scalar(c, lam.rank) for c in (6, 10))

    def check(x0, mates, gamma):
        base_prec = lam + six
        if gamma.first() < 0:
            base_prec = base_prec + gamma * 6
        return _first_disagreement(lambda x: _rv_of_term(term, x, lam, base_prec, ten), x0, mates)

    report = VerificationReport("verify_preparation", lam, trials, rng_seed)
    draw = lambda rng: near_sample(rng, centers, lam, rows, steps=2, count=1, mate_steps=2)
    return run_trials(report, "verify", centers, draw, check, _SKIP)


class _ValuedOnRead(dict):
    """The value ``fn(points[i], prec)`` under the key i, made on the first read of i."""

    def __init__(self, fn, points, prec):
        super().__init__()
        self.fn, self.points, self.prec = fn, points, prec

    def __missing__(self, i):
        self[i] = value = self.fn(self.points[i], self.prec)
        return value


def jacobian_probe(fn, prep, trials=300, rng_seed=0):
    """Check the constant-shift law for valuative distances on each ball.

    On every sampled ball 1-next to the set, the first pair of points
    estimates the shift ``v(f(x) - f(y)) - v(x - y)``; the remaining pairs
    must reproduce it exactly.  The per-ball shifts are reported.  Both
    distances are read off the grids at their first difference, so no
    difference series is formed; an image gap that is zero or
    ``0 + O(...)`` leaves the shift undetermined, and the sample is skipped.

    The map is read at t^10, but where every point of a sample is exact
    it is first evaluated at P1 = g + (1/2, 0, ..., 0), g the largest
    point gap, if P1 lies below t^10.  That rung decides the sample when
    every image gap it reads, up to the first disagreeing pair, is
    determined.  It values the points in the order the pairs read them
    and goes to t^10 at the first undetermined image gap, leaving the
    points after it unvalued there; it decides only once every point is
    valued at P1, so that an error at P1 still sends the sample to t^10.
    At an exact point the package's maps return the unique
    truncation of f(x), so the values at P1 and at t^10 agree below P1,
    and an image gap determined below P1 is the one t^10 gives: the shift,
    the witness and the report are those of t^10 alone.  An inexact point
    is valued at t^10 only: there a map may raise at t^10 where it returns
    at P1 (``invert`` raises ``InsufficientPrecision``), and t^10's skip
    must stand.  An undetermined gap or an error at P1 says nothing of
    t^10, so the sample is then valued at t^10, and its gaps, errors and
    skips decide as if P1 had not been tried.  The argument needs a map
    that, at an exact point, returns at t^10 wherever it returns at P1; a
    map that raises at t^10 alone gets a sample decided that a probe at
    t^10 alone would skip or stop at.
    """
    centers = _centers(prep)
    rank = centers[0].rank
    lam, base_prec = GroupElement.scalar(1, rank), GroupElement.scalar(10, rank)
    half = GroupElement.scalar(Fraction(1, 2), rank)
    shifts = []

    # (shift, disagreeing pair) from the values, or None at the first
    # undetermined image gap
    def compare(points, values, gaps):
        shift = bad = None
        for i, j, gap in gaps:
            image = _first_difference(values[i], values[j])
            if image is None:
                return None
            delta = _exponent(*image[:2]) - gap
            if shift is None:
                shift = delta
            elif delta != shift:
                bad = (points[i], points[j])
                break
        return shift, bad

    def check(x0, mates, _gamma):
        points = [x0, *mates]
        gaps = [(i, j, _exponent(*gap[:2])) for (i, x), (j, y) in combinations(enumerate(points), 2)
                if (gap := _first_difference(x, y)) is not None]
        outcome = None
        if gaps and all(x.is_exact() for x in points):
            low = max(gap for _, _, gap in gaps) + half
            if low < base_prec:
                values = _ValuedOnRead(fn, points, low)
                try:
                    outcome = compare(points, values, gaps)
                    if outcome is not None:
                        for i in range(len(points)):
                            values[i]
                except HahnForgeError:
                    outcome = None
        if outcome is None:
            outcome = compare(points, [fn(x, base_prec) for x in points], gaps)
            if outcome is None:
                raise UndecidableAtPrecision("image gap vanished")
        shift, bad = outcome
        if shift is not None:
            shifts.append({"ball": format_series(x0), "shift": format_exponent(shift)})
        return bad

    report = VerificationReport("jacobian_probe", lam, trials, rng_seed, extra={"shifts": shifts})
    rows = _schedule(-4, 6, 2, lam)
    draw = lambda rng: near_sample(rng, centers, lam, rows, steps=2, count=3)
    return run_trials(report, "jacobian", centers, draw, check, _SKIP)


@dataclass
class StrongUnitSpec:
    """Unit of the annulus ring: 1 + g(inner/(x-c)) + h((x-c)/outer).

    The scales multiply the two analytic parts; a genuinely strong unit
    has both parts of positive additive norm (infinitesimal scales for
    rational-coefficient functions).
    """

    g: object = None
    g_scale: TruncatedSeries = None
    h: object = None
    h_scale: TruncatedSeries = None


def strong_unit_probe(spec, annulus, lam, trials=200, rng_seed=0):
    """Sample annulus points with equal leading data and compare unit values.

    ``unit_value(diff)`` forms U = 1 + g_s g(inner/(x-c)) + h_s h((x-c)/outer)
    from diff = x - c: each part g(A), A = num/den, is a Taylor sum at
    B = lam + 4 with ``invert(den)`` at 2B.  A part under an exact-zero scale
    adds nothing to U, so it is left out, as if its function were not given.
    Each point gets the rv_lam or the skip that this U gives it, so the
    ``random`` calls, trials, skips and report are those of a probe that
    forms U at every point.

    The draw fixes v = v(x - c): x0 = c + d for a random d of valuation
    gamma, and each mate adds to x0 a tail above gamma + lam, so
    v(x - c) = gamma for all three wherever x - c is determined.  Each
    point's membership is read on the grids (``_inside_annulus``).  Whether
    U is constant reads only v, so it is decided once per gamma, in the row
    that the draw picks.  With T = lam + 1 - v(s) the precision that rv_lam
    reads of a part under scale s (lam + 1 without one), U is constant at v
    where, in rank 1 with an exact center and outer, every given part has
    v(A) > 0, T <= v(A) and v(den) < B.  An inexact center or outer could
    make an inverse raise, and so could ``PrecisionStall`` in rank > 1;
    here the inverses raise nothing, and A is known above its valuation,
    as 2B - 3 v(den) + v(num) > v(A), so the sum is known below
    min(B, v(A)) >= min(T, B), where it is g(0).  The constant
    U = 1 + sum s g(0), each g(0) known below min(T, B), is therefore the
    point's U cut at some precision, and its rv_lam, where it is determined,
    is the point's.  It is formed once, at the first point that needs it;
    where forming it raises a skip, each such point forms its own U.
    """
    center, inner, outer = annulus
    v_in = valuation(inner)
    if v_in is INFINITE:
        raise DomainViolation("annulus needs a nonzero inner radius")
    v_out = valuation(outer)
    if not (v_in > v_out):
        raise DomainViolation("annulus needs v(inner) > v(outer)")
    rank = center.rank
    base_prec = lam + GroupElement.scalar(4, rank)
    read = lam + GroupElement.scalar(1, rank)
    given = [(None, None) if s is not None and s.is_exact_zero() else (fn, s)
             for fn, s in ((spec.g, spec.g_scale), (spec.h, spec.h_scale))]
    demands = [read if s is None else read - s.valuation_lower_bound() for _, s in given]

    # the same for every point; a failed inverse is not cached, so each
    # point raises it again and is skipped
    @cache
    def outer_inverse():
        return invert(outer, base_prec + base_prec)

    # U at x = c + diff; with diff None, the constant U
    def unit_value(diff):
        total = TruncatedSeries.one(rank)
        arguments = (lambda: inner * invert(diff, base_prec + base_prec), lambda: diff * outer_inverse())
        for (fn, scale), argument, need in zip(given, arguments, demands):
            if fn is None:
                continue
            if diff is None:
                cap = min(need, base_prec)
                part = evaluate_analytic(fn, [TruncatedSeries.zero(rank)], cap).truncate(cap)
            else:
                part = evaluate_analytic(fn, [argument()], base_prec)
            total = total + (scale * part if scale is not None else part)
        return total

    # the constant U's rv_lam, or None where forming it raised a skip; an
    # error that is not a skip is not cached
    @cache
    def constant_rv():
        try:
            return rv_lambda(unit_value(None), lam)
        except _SKIP:
            return None

    fast = center.is_exact() and outer.is_exact() and rank == 1
    zero = GroupElement.zero(rank)

    def all_constant(v):
        return fast and all(fn is None or zero < v_arg and need <= v_arg and v_den < base_prec
                            for (fn, _), need, v_arg, v_den in zip(given, demands, (v_in - v, v - v_out), (v, v_out)))

    inside = _inside_annulus(center, inner, outer)
    # the schedule on quarter steps over [v(outer), v(inner)], each row with
    # its all_constant flag; the boundary valuations are included, as points
    # there can still sit strictly inside the annulus when their leading
    # coefficient is small enough
    rows = [(key, base, all_constant(gamma))
            for gamma, key, base in _schedule(floor(v_out.first() * 4), ceil(v_in.first() * 4), 4, lam)]

    def draw(rng):
        key, base, constant = rng.choice(rows)
        x0 = _half_steps(center, key, _point_pairs(rng, 2))
        if not inside(x0):
            return None
        # inside the annulus, x0 - center has a decided sign, so its valuation is gamma
        mates = [m for m in _mates_at(rng, x0, base, 2, 3) if inside(m)]
        return (x0, mates, constant) if mates else None

    def check(x0, mates, constant):
        value = constant and constant_rv()
        return _first_disagreement(lambda x: value or rv_lambda(unit_value(x - center), lam), x0, mates)

    report = VerificationReport("strong_unit_probe", lam, trials, rng_seed)
    return run_trials(report, "annulus", [center], draw, check, _SKIP)


def _inside_annulus(center, inner, outer):
    """The test ``inside(x)``: inner < |x - c| < outer, read on the grids; False where a sign is not
    determined.

    With s the sign of x - c, outer - |x - c| = s (c + s outer - x) and
    |x - c| - inner = s (x - (c + s inner)), so x is inside exactly where
    both of these differences have the sign s.  Each sign is read at the
    first difference of two grids (``_first_difference``), which honours
    the precisions of its operands as ``field_op`` would.  The four points
    c +- inner and c +- outer are formed once.
    """
    bounds = {1: (center + outer, center + inner), -1: (center - outer, center - inner)}

    def sign(a, b):
        first = _first_difference(a, b)
        return None if first is None else first[2]

    def inside(x):
        s = sign(x, center)
        if s is None:
            return False
        far, near = bounds[s]
        return sign(far, x) == s == sign(x, near)

    return inside
