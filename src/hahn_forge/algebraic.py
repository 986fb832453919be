"""Exact arithmetic for real algebraic numbers, sized for root expansion.

A number is a polynomial in one generator theta, reduced modulo a
squarefree integer annihilator of theta; theta itself is pinned by an
isolating interval with rational endpoints.  Ring operations are exact.
Reduction is int pseudo-division of the coordinates, put over one
denominator, by the witness as primitive ints.  A zero test first tries a
modular certificate: a number whose int remainder has an image modulo the
prime 2^61 - 1 coprime to the witness's image (cached per witness) is
nonzero (``_coprime_images``).  Otherwise it runs a gcd against the
witness over Q, and any nontrivial gcd lets us shrink the witness to the
factor that actually vanishes at theta, so the representation sharpens as
it is used.  Sign queries bisect the interval by the sign of a homogeneous
int Horner, and enclosures are interval Horners on ints over the
endpoints' common denominator.

Polynomials here are dense coefficient lists, lowest degree first.  The
helpers are generic over the coefficient field: plain rationals or the
algebraic numbers themselves (for resultant-free Sturm counting in an
extension).  The ring operations ``padd``, ``psub``, ``pneg`` and ``pmul``
start from int 0, so they also serve int lists, the ring Z[s] of the
subresultant sequence in ``prepare``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import UndecidedSign

_MAX_REFINE = 160
_PRIME = 2**61 - 1


def ptrim(p):
    while p and number_is_zero(p[-1]):
        p.pop()
    return p


def pdeg(p):
    return len(p) - 1


def padd(a, b):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = out[i] + c
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return ptrim(out)


def pneg(a):
    return [-c for c in a]


def psub(a, b):
    return padd(a, pneg(b))


def pmul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return ptrim(out)


def pscale(a, q):
    if not q:
        return []
    return [c * q for c in a]


def pdivmod(a, b):
    """Exact field division with remainder."""
    a = ptrim(list(a))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv_lead = 1 / b[-1]
    while len(a) >= len(b):
        c = a[-1] * inv_lead
        k = len(a) - len(b)
        q[k] = c
        for i, bc in enumerate(b):
            a[k + i] = a[k + i] - c * bc
        ptrim(a)
    return ptrim(q), a


def pgcd(a, b):
    """Monic gcd by the Euclidean algorithm."""
    a, b = ptrim(list(a)), ptrim(list(b))
    while b:
        _, r = pdivmod(a, b)
        a, b = b, r
    if a:
        inv = 1 / a[-1]
        a = [c * inv for c in a]
    return a


def _over_one_denominator(a):
    """(ints, den) with a == [n / den for n in ints]; den is the lcm of the denominators."""
    den = lcm(*(c.denominator for c in a))
    return [c.numerator * (den // c.denominator) for c in a], den


def _coprime_images(a, b):
    """True only if nonzero int polynomials A and B with images a and b modulo p = _PRIME are coprime over Q.

    A rational polynomial put over one denominator gives its int numerators
    with the same gcd.  The certificate holds when neither leading
    coefficient maps to 0 and Euclid over GF(p), on pseudo-remainders, ends
    in a nonzero constant; neither list is changed.  Why that suffices: A
    and B lie in Z_(p)[x], Z_(p) the rationals with denominators prime to
    p.  Let g be their gcd over Q, scaled to be primitive over Z_(p) (some
    coefficient a unit).  Gauss's lemma over Z_(p) gives A = g*A1 with A1 in
    Z_(p)[x], so modulo p, a = g'*A1'.  Reduction never raises a degree, and
    deg a = deg A, so deg g' = deg g; likewise for B.  Then g' divides
    gcd(a, b), whose degree is at least deg g.  A constant gcd modulo p thus
    makes g constant.  False means only that no certificate was found.
    """
    if not a[-1] or not b[-1]:
        return False
    while b:
        lead, top = b[-1], len(b) - 1
        while len(a) > top:
            c, a = a[-1], [x * lead % _PRIME for x in a[:-1]]
            k = len(a) - top
            for i in range(top):
                a[k + i] = (a[k + i] - c * b[i]) % _PRIME
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) == 1


def pderiv(a):
    return ptrim([c * k for k, c in enumerate(a)][1:])


def squarefree_decomposition(a):
    """Yun's algorithm: list of (factor, multiplicity), factors squarefree monic."""
    a = ptrim(list(a))
    if pdeg(a) < 1:
        return []
    g = pgcd(a, pderiv(a))
    if pdeg(g) < 1:
        inv = 1 / a[-1]
        return [([c * inv for c in a], 1)]
    w, _ = pdivmod(a, g)
    y, _ = pdivmod(pderiv(a), g)
    z = psub(y, pderiv(w))
    out = []
    k = 1
    while pdeg(w) >= 1:
        f = pgcd(w, z)
        if pdeg(f) >= 1:
            out.append((f, k))
        w, _ = pdivmod(w, f)
        y, _ = pdivmod(z, f)
        z = psub(y, pderiv(w))
        k += 1
        if k > 80:
            raise RuntimeError("squarefree decomposition looped")
    return out


def clear_denominators(a):
    """Primitive int version of a rational polynomial, positive leading."""
    ints, _ = _over_one_denominator(a)
    g = gcd(*ints)
    if ints and ints[-1] < 0:
        g = -g
    return [c // g for c in ints] if g else ints


def _sign_at(a, x):
    """Sign of the rational polynomial a at x = n/d: a homogeneous int Horner of den*d^deg(a)*a(x)."""
    n, d = x.numerator, x.denominator
    acc, scale = 0, 1
    for c in reversed(_over_one_denominator(a)[0]):
        acc = acc * n + c * scale
        scale *= d
    return (acc > 0) - (acc < 0)


def cauchy_bound(a):
    lead = abs(a[-1])
    m = max((abs(c) for c in a[:-1]), default=Fraction(0))
    return 1 + m / lead


def sturm_chain(a):
    chain = [ptrim(list(a)), pderiv(a)]
    while chain[-1]:
        _, r = pdivmod(chain[-2], chain[-1])
        if not r:
            break
        chain.append(pneg(r))
    return [c for c in chain if c]


def _sign_changes(values):
    signs = [1 if v > 0 else -1 for v in values if v]
    return sum(1 for x, y in zip(signs, signs[1:]) if x != y)


def sturm_count(chain, lo, hi):
    return _sign_changes([_sign_at(c, lo) for c in chain]) - _sign_changes([_sign_at(c, hi) for c in chain])


def rational_roots(a):
    """All rational roots with multiplicity, dividing them out.

    Returns (roots, remaining) where remaining has no rational roots.
    """
    a = ptrim(list(a))
    roots = []
    # x = 0 roots
    while a and not a[0]:
        roots.append(Fraction(0))
        a = a[1:]
    if pdeg(a) < 1:
        return roots, a
    if pdeg(a) == 1:
        # no divisor enumeration: trial division up to sqrt|a0| is slow on big coefficients
        root = Fraction(-a[0]) / a[1]
        roots.append(root)
        a, _ = pdivmod(a, [-root, Fraction(1)])
        return roots, a
    ints = clear_denominators(a)
    lead = int(ints[-1])
    tail = int(ints[0])

    def divisors(n):
        n = abs(n)
        out = set()
        d = 1
        while d * d <= n:
            if n % d == 0:
                out.add(d)
                out.add(n // d)
            d += 1
        return out

    candidates = set()
    for p in divisors(tail):
        for q in divisors(lead):
            candidates.add(Fraction(p, q))
            candidates.add(Fraction(-p, q))
    for c in sorted(candidates):
        while pdeg(a) >= 1 and not _sign_at(a, c):
            roots.append(c)
            a, _ = pdivmod(a, [-c, Fraction(1)])
    return roots, a


def isolate_real_roots(a):
    """Disjoint rational intervals, one per real root of a squarefree polynomial.

    Endpoints are never roots.  Root-free input yields the empty list.
    """
    a = ptrim(list(a))
    if pdeg(a) < 1:
        return []
    chain = sturm_chain(a)
    # every root lies strictly inside the Cauchy bound, so neither end is a root
    bound = cauchy_bound(a)
    lo, hi = -bound, bound
    out = []
    stack = [(lo, hi, sturm_count(chain, lo, hi))]
    while stack:
        lo, hi, count = stack.pop()
        if count == 0:
            continue
        if count == 1:
            out.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        while not _sign_at(a, mid):
            mid = (mid + hi) / 2
        left = sturm_count(chain, lo, mid)
        stack.append((lo, mid, left))
        stack.append((mid, hi, count - left))
    return sorted(out)


def interval_eval(a, lo, hi):
    """Interval Horner with rational coefficients: after k steps the bounds are ints over den*d^k."""
    if not a:
        return Fraction(0), Fraction(0)
    ints, den = _over_one_denominator(a)
    d = lcm(lo.denominator, hi.denominator)
    l, h = lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator)
    alo = ahi = ints[-1]
    scale = 1
    for c in reversed(ints[:-1]):
        scale *= d
        products = (alo * l, alo * h, ahi * l, ahi * h)
        alo, ahi = min(products) + c * scale, max(products) + c * scale
    return Fraction(alo, den * scale), Fraction(ahi, den * scale)


class AlgebraicContext:
    """A single generator theta: squarefree witness plus isolating interval.

    The witness is kept as Fractions (``witness``), as primitive ints with a
    positive lead (``ints``, which leave every remainder as it is) and as
    their image modulo _PRIME (``image``), all set together by ``shrink``.
    The witness may shrink when gcd computations expose a proper factor
    vanishing at theta; all numbers sharing the context re-reduce lazily.
    """

    __slots__ = ("witness", "ints", "image", "lo", "hi", "generation")

    def __init__(self, witness, lo, hi):
        self.lo = Fraction(lo)
        self.hi = Fraction(hi)
        self.generation = -1  # shrink sets the witness and makes this generation 0
        self.shrink(witness)
        if not _sign_at(self.ints, self.lo) or not _sign_at(self.ints, self.hi):
            raise ValueError("isolating interval endpoints must not be roots")

    def degree(self):
        return pdeg(self.witness)

    def refine(self):
        mid = (self.lo + self.hi) / 2
        wmid = _sign_at(self.ints, mid)
        if not wmid:
            raise ValueError("witness root became rational; should have been extracted")
        if _sign_at(self.ints, self.lo) * wmid < 0:
            self.hi = mid
        else:
            self.lo = mid

    def contains_root_of(self, g):
        """Does theta satisfy g?  Valid for divisors of the witness."""
        return _sign_at(g, self.lo) * _sign_at(g, self.hi) < 0

    def shrink(self, factor):
        self.witness = ptrim([Fraction(c) for c in factor])
        self.ints = clear_denominators(self.witness)
        self.image = [c % _PRIME for c in self.ints]
        self.generation += 1

    def pseudo_remainder(self, a):
        """(r, s) with s*a = r modulo the witness, for an int list a: s is L^k, L the lead of ``ints``."""
        w, lead, s = self.ints, self.ints[-1], 1
        top = len(w) - 1
        a = list(a)
        while len(a) > top:
            c = a.pop()
            if c:
                if lead != 1:
                    a = [x * lead for x in a]
                    s *= lead
                k = len(a) - top
                for i in range(top):
                    a[k + i] -= c * w[i]
        while a and not a[-1]:
            a.pop()
        return a, s

    def reduce(self, coords):
        ints, den = _over_one_denominator(coords)
        r, s = self.pseudo_remainder(ints)
        return [Fraction(x, den * s) for x in r]

    def vanishes(self, r):
        """Is r(theta) zero, for an int list r reduced modulo the witness?  A shared factor shrinks the witness."""
        if len(r) < 2:
            return not r
        if _coprime_images([c % _PRIME for c in r], self.image):
            return False
        g = pgcd([Fraction(c) for c in r], self.witness)
        if pdeg(g) < 1:
            return False
        if self.contains_root_of(g):
            self.shrink(g)
            return True
        self.shrink(pdivmod(self.witness, g)[0])
        return False


class RealAlgebraic:
    """Element of the ring generated by one isolated real algebraic number."""

    __slots__ = ("ctx", "coords", "_generation")

    def __init__(self, ctx, coords):
        self.ctx = ctx
        self.coords = ctx.reduce([Fraction(c) for c in coords])
        self._generation = ctx.generation

    @classmethod
    def generator(cls, ctx):
        return cls(ctx, [Fraction(0), Fraction(1)])

    @classmethod
    def _reduced(cls, ctx, coords):
        """The number of trimmed Fraction ``coords`` already reduced modulo the witness.

        Trusted: ``ctx.reduce`` is not called.  Sums, negations and rational
        multiples of reduced coordinates stay reduced; products of two
        algebraic numbers do not.
        """
        out = object.__new__(cls)
        out.ctx = ctx
        out.coords = coords
        out._generation = ctx.generation
        return out

    def _sync(self):
        if self._generation != self.ctx.generation:
            self.coords = self.ctx.reduce(self.coords)
            self._generation = self.ctx.generation
        return self.coords

    def _coerce(self, other):
        if isinstance(other, RealAlgebraic):
            if other.ctx is not self.ctx:
                raise ValueError("mixing generators from different contexts")
            return other
        if isinstance(other, (int, Fraction)):
            return RealAlgebraic(self.ctx, [Fraction(other)])
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RealAlgebraic._reduced(self.ctx, padd(self._sync(), other._sync()))

    __radd__ = __add__

    def __neg__(self):
        return RealAlgebraic._reduced(self.ctx, pneg(self._sync()))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RealAlgebraic._reduced(self.ctx, psub(self._sync(), other._sync()))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RealAlgebraic._reduced(self.ctx, pscale(self._sync(), Fraction(other)))
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RealAlgebraic(self.ctx, pmul(self._sync(), other._sync()))

    __rmul__ = __mul__

    def __rtruediv__(self, other):
        return self.inverse() * other

    def is_zero(self):
        return self.ctx.vanishes(_over_one_denominator(self._sync())[0])

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverting a vanishing algebraic number")
        # is_zero left the squarefree witness prime to this number, so the gcd is a constant
        g, u = _ext_euclid(self._sync(), self.ctx.witness)
        if pdeg(g) > 0:
            raise RuntimeError("the witness shares a factor with a nonzero number; it is not squarefree")
        return RealAlgebraic(self.ctx, pscale(u, 1 / g[0]))

    def sign(self):
        if self.is_zero():
            return 0
        for _ in range(_MAX_REFINE):
            lo, hi = interval_eval(self._sync(), self.ctx.lo, self.ctx.hi)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            self.ctx.refine()
        raise UndecidedSign("interval refinement hit the depth limit")

    def enclosure(self, width=Fraction(1, 2**24)):
        for _ in range(_MAX_REFINE):
            lo, hi = interval_eval(self._sync(), self.ctx.lo, self.ctx.hi)
            if hi - lo < width:
                return lo, hi
            self.ctx.refine()
        return interval_eval(self._sync(), self.ctx.lo, self.ctx.hi)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, RealAlgebraic)):
            diff = self - other
            if isinstance(diff, RealAlgebraic):
                return diff.is_zero()
        return NotImplemented

    def __hash__(self):
        raise TypeError("algebraic numbers are unhashable; compare via is_zero")

    def __repr__(self):
        lo, hi = interval_eval(self._sync(), self.ctx.lo, self.ctx.hi)
        return f"RealAlgebraic(~[{lo}, {hi}])"


def _ext_euclid(a, w):
    """(g, u) with u*a = g modulo w and g the monic gcd."""
    r0, r1 = ptrim(list(w)), ptrim(list(a))
    u0, u1 = [], [Fraction(1)]
    while r1:
        q, r = pdivmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, psub(u0, pmul(q, u1))
    if r0:
        inv = 1 / r0[-1]
        r0 = [c * inv for c in r0]
        u0 = pscale(u0, inv)
    return r0, u0


def sign_of(x):
    if isinstance(x, RealAlgebraic):
        return x.sign()
    return (x > 0) - (x < 0)


def number_is_zero(x):
    if isinstance(x, RealAlgebraic):
        return x.is_zero()
    return not x


def as_fraction_or_none(x):
    """The rational value of the algebraic number x, or None when it involves the generator."""
    p = x._sync()
    if not p:
        return Fraction(0)
    if pdeg(p) == 0:
        return p[0]
    return None


def generic_real_root_count(a):
    """Number of real roots of a squarefree polynomial over the extension.

    Sturm chain with signs at minus and plus infinity read off the leading
    coefficients.
    """
    a = ptrim(list(a))
    if pdeg(a) < 1:
        return 0
    at_minus = []
    at_plus = []
    for c in sturm_chain(a):
        lead = sign_of(c[-1])
        at_plus.append(lead)
        at_minus.append(lead if pdeg(c) % 2 == 0 else -lead)
    return _sign_changes(at_minus) - _sign_changes(at_plus)
