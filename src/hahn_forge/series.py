"""Exact arithmetic for ordered Hahn series with finite support.

The scalar field is the rationals; exponents live in the group Q^d with
lexicographic order (rank d fixed per value, default 1).  A value of the
field is stored as a finite sum of monomials plus an optional precision
bound: ``TruncatedSeries(approx, prec)`` represents any x with
``v(x - approx) >= prec``.  All stored exponents sit strictly below the
precision bound, so arithmetic never has to guess hidden terms.

The order is the one that makes t a positive infinitesimal: the sign of a
nonzero element is the sign of its lowest-exponent coefficient.

A series of every rank is stored as one integer grid ``(eden, keys, cden,
nums)``: the term ``nums[i]/cden * t^(keys[i]/eden)`` for each i, keys
strictly ascending, no num zero, and ``eden`` and ``cden`` the least
denominators of the exponents and of the coefficients (both 1 for zero).
A rank-1 key is an int; a rank-d key is a ``GroupElement`` of ints, every
coordinate over the one ``eden``, so keys compare and add as their
exponents do.  This form is canonical, so equal values have equal grids.
Sums, products, truncation, shifts and scaling run on the ints and divide
out one gcd per result; no ``Fraction`` is built per term.
The grid is the only stored form: ``HahnSeries.terms`` is the same value
as ``(GroupElement, Fraction)`` pairs, built on each read and never kept,
and ``format_series`` writes each term from its key and numerator over
``eden`` and ``cden``; no int key leaves this module.
Only the key helpers, from ``_key_of`` to ``_half_steps``, tell the
ranks apart, once per call.

Truncation comes in two forms: ``truncate_below(p)`` keeps the exponents
< p (the open bound of a precision), and ``truncate_through(hi)`` keeps
those <= hi (the closed window of a leading-term jet).  On the grid both
are one ``bisect`` at the bound's key put on the keys as ints: rank 1
rounds it onto the ints, and rank d cuts it after its first coordinate that
is not an int, rounded (see ``_int_cut``).

A ``TruncatedSeries`` keeps every stored exponent below its precision.
The public constructor ``TruncatedSeries(approx, prec)`` and
``truncate(p)`` for ``p`` below the current precision cut the approx at
``prec``.  The other constructions arrive truncated already and are built
by the trusted ``_truncated`` without a second cut: bounded products, sums
and differences of operands with equal precisions, negation, ``scale``
and ``shift``.  A sum of operands with different precisions still cuts at
the lower one, and ``truncate(p)`` at or above the precision returns the
value itself.

A ``TruncatedSeries`` keeps its precision once, as the key ``(den, key)``
of ``_key_of``, least like a grid and None for INFINITE; ``prec`` is built
from it on each read.  Every bound meets the grid as a key, so the
precision of a product, ``min(p_a + v(b), p_b + v(a))``, is an int sum and
an int comparison, with ``v`` read off the first key of a grid.  The parts
of a verifier trial read the grid too: ``_half_steps`` merges the drawn
terms ``c t^(base + k/2)`` into a point's grid, cut at its precision as
``field_op`` cuts a sum, ``_first_difference`` reads the key and
sign of the lowest term of ``a - b`` at the first difference of two grids,
below both precisions, and ``_unit_jet`` cuts the jet of ``rv_lambda`` in
one pass.  Every comparison of the samplers, a distance ``v(a - b)`` or an
order ``a < b``, is one such read and forms no difference series.

``poly_eval`` is the one Horner loop of the package, ``total <- total x + c``
from the top coefficient down, every step cut at an optional precision and
exact without one.  It runs in one int loop on the grid, with no
``field_op`` and no series per step: x, the coefficients and every
precision sit over one exponent denominator, and the running total's
numerators over ``C X^m`` (C the lcm of the coefficients' denominators, X
that of x).  Each step's precision is ``field_op``'s in closed form,
``min(p_T + v(x), p_x + v(T), p_c, prec)`` for the total T, x and the
coefficient c, with v of ``0 + O(t^p)`` read as p, an exact zero factor
giving an exact zero product, and an exact operand adding no term.  One
dict sums the pairs of T and x and the terms of c below that key.

Text is read by one tokenizer, ``_Scanner``, for all three grammars of
the package: its ``series`` method is the series grammar (terms, then an
optional ``+ O(t^(p))`` whose ``p`` is read like every other exponent),
the term parser of ``terms`` reads its ``t^(...)`` atoms with its
``exponent``, and ``multiseries.parse_multiseries`` reads bracketed
``series`` coefficients with it.  Blanks, tabs and newlines between tokens
are skipped, and every error carries its line and column.

``invert``, ``nth_root`` and ``power`` take ``x^(a/b)`` for a/b = -1, 1/n
and k >= 0 by one call each to ``_split_power``: ``x = c t^v u`` on the
grid, ``u^(a/b)`` of the unit ``u = 1 + h`` by ``_unit_power``, then
``c^(a/b) t^(v a/b)`` put back.  ``_unit_power`` is J. C. P. Miller's
coefficient recurrence (Knuth, *The Art of Computer Programming*, vol. 2,
4.7) on the grid's ints: each coefficient comes from at most as many
earlier ones as h has terms, so N output terms cost O(N m) int operations
for an m-term h, and no series product is formed.  The ints stay raw
from the split to the cut: the unit goes in over x's denominators, the
power comes back over its own, and ``_split_power`` takes one gcd on the
keys and one on the numerators after the shift and the scale.  The
recurrence runs over a set of exponents that holds the power's support;
in rank 1, where the leading gap of h divides every other exponent of h,
that set is every multiple of the gap below the target, counted with no
enumeration.  The recurrence is exact on any such set, so the test of the
gap guards only the cost: with gaps 1 and 1 + 1/N the multiples of the
gcd below the target would be about N times as many as the monoid, which
is enumerated instead.

``_taylor_sum`` sums a Taylor expansion ``sum c_idx a^idx`` at
infinitesimal series arguments in one pass on the grid: the monomials are
enumerated on the arguments' leading keys up to the target, which alone
bounds them, since every argument's valuation is positive in its first
coordinate; the precision of the sum is found in closed form from the
arguments' precisions and valuations, the arguments are cut there once,
their powers are int products under one bound, and every term is added
into one dict of int numerators over one denominator.

Products run on ints in every rank.  Each factor's coefficients are put
over the lcm of their denominators, so the pair loop multiplies and sums
plain ints; both denominators are positive, so an int sum is zero exactly
when the rational sum is (the content and primitive part of von zur
Gathen & Gerhard, *Modern Computer Algebra*, ch. 6).
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import chain, product
from math import factorial, gcd, lcm
from operator import itemgetter

from .errors import (
    InsufficientPrecision,
    IrrationalLeadingCoefficient,
    NotInValuationRing,
    NotPositive,
    PrecisionStall,
    TermSyntaxError,
    UndecidableAtPrecision,
    ZeroOrUncertainLeadingTerm,
)

NEGATIVE = -1
ZERO = 0
POSITIVE = 1


class _Infinite:
    """Top element adjoined to the value group (valuation of zero)."""

    __slots__ = ()

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is INFINITE

    def __gt__(self, other):
        return other is not INFINITE

    def __ge__(self, other):
        return True

    def __add__(self, other):
        return INFINITE

    __radd__ = __add__

    def __neg__(self):
        raise ArithmeticError("cannot negate the infinite valuation")

    def __repr__(self):
        return "Infinite"


INFINITE = _Infinite()


class GroupElement(tuple):
    """Point of Q^d with lexicographic order and componentwise addition.

    Subclasses tuple so comparisons and hashing run at C speed; ``+`` is
    redefined componentwise (no tuple concatenation on these).
    """

    __slots__ = ()

    def __new__(cls, coords):
        return tuple.__new__(cls, (q if isinstance(q, Fraction) else Fraction(q) for q in coords))

    @classmethod
    def zero(cls, rank=1):
        return cls([Fraction(0)] * rank)

    @classmethod
    def scalar(cls, q, rank=1):
        """Embed a rational as (q, 0, ..., 0)."""
        q = q if isinstance(q, Fraction) else Fraction(q)
        return cls([q] + [Fraction(0)] * (rank - 1))

    @property
    def rank(self):
        return len(self)

    def __add__(self, other):
        if isinstance(other, _Infinite):
            return INFINITE
        if len(self) == 1:
            return tuple.__new__(GroupElement, (self[0] + other[0],))
        return tuple.__new__(GroupElement, tuple(a + b for a, b in zip(self, other)))

    __radd__ = __add__

    def __sub__(self, other):
        if len(self) == 1:
            return tuple.__new__(GroupElement, (self[0] - other[0],))
        return tuple.__new__(GroupElement, tuple(a - b for a, b in zip(self, other)))

    def __neg__(self):
        return tuple.__new__(GroupElement, tuple(-a for a in self))

    def __mul__(self, k):
        return tuple.__new__(GroupElement, tuple(a * k for a in self))

    __rmul__ = __mul__

    def __truediv__(self, k):
        return GroupElement(a / k for a in self)

    def is_zero(self):
        return not any(self)

    def first(self):
        return self[0]

    def __repr__(self):
        return f"GroupElement({format_exponent(self)!r})"


def _sign(q):
    return (q > 0) - (q < 0)


_first = itemgetter(0)


def _collect(pairs):
    """Merge equal keys of (key, coeff) pairs sorted by key; drop zero sums."""
    out = []
    if not pairs:
        return out
    last_k, acc = pairs[0]
    for k, c in pairs[1:]:
        if k == last_k:
            acc += c
        else:
            if acc:
                out.append((last_k, acc))
            last_k, acc = k, c
    if acc:
        out.append((last_k, acc))
    return out


def _int_products(ka, na, kb, nb, bound):
    """The product of two ascending series given as keys and int numerators.

    Forms the pairs ``(ka[i] + kb[j], na[i] * nb[j])`` with key below
    ``bound``, sums equal keys and drops zero sums; returns the ascending
    ``(keys, nums)``.  A bound above the top pair cuts nothing, so no pair
    is compared with it.  Otherwise ``kb`` ascends, so the key ascends along
    the inner loop, which stops at the first key at or above ``bound``.
    """
    if bound is INFINITE or ka[-1] + kb[-1] < bound:
        pairs = [(x + y, ca * cb) for x, ca in zip(ka, na) for y, cb in zip(kb, nb)]
    else:
        pairs = []
        append = pairs.append
        for x, ca in zip(ka, na):
            for y, cb in zip(kb, nb):
                k = x + y
                if k >= bound:
                    break
                append((k, ca * cb))
    pairs.sort(key=_first)
    merged = _collect(pairs)
    return tuple(map(_first, merged)), tuple(c for _, c in merged)


# -- the rank decision: exponents and bounds on the grid of keys -------------


def _key_of(e):
    """``(den, key)``: the exponent ``e`` as a key over its least denominator; None for INFINITE."""
    if e is INFINITE:
        return None
    if len(e) == 1:
        q = e[0]
        return q.denominator, q.numerator
    den = lcm(*(q.denominator for q in e))
    return den, tuple.__new__(GroupElement, tuple(q.numerator * (den // q.denominator) for q in e))


def _exponent(eden, key):
    """The exponent, a ``GroupElement`` of Fractions, of ``key`` over ``eden``."""
    if type(key) is int:
        return tuple.__new__(GroupElement, (Fraction(key, eden),))
    return tuple.__new__(GroupElement, tuple(Fraction(q, eden) for q in key))


def _below_key(bound, eden):
    """The key ``bound`` put on the keys over ``eden``: an exponent lies below
    that of ``bound`` exactly when its key lies below the result (rounded up)."""
    den, key = bound
    if type(key) is int:
        return -((-key * eden) // den)
    return _int_cut(bound, eden, up=True)


def _through_key(hi, eden):
    """The key ``hi`` put on the keys over ``eden``: an exponent is at most
    that of ``hi`` exactly when its key is at most the result (rounded down)."""
    den, key = hi
    if type(key) is int:
        return key * eden // den
    return _int_cut(hi, eden, up=False)


def _int_cut(bound, eden, up):
    """The rank-d key ``bound`` put on the keys over ``eden`` as a tuple of ints.

    The coordinates ``k*eden/den`` are ints up to the first that is not.
    The last coordinate is rounded in place, ``up`` or down as in rank 1.
    An earlier one is rounded up and ends the tuple: a key that matches the
    ints before it lies below the cut exactly when its own coordinate lies
    below ``k*eden/den``, and no key, being longer, equals the cut.
    Rounding an earlier coordinate in place would cut past keys that share
    the coordinates before it.
    """
    den, key = bound
    out = []
    last = len(key) - 1
    for i, k in enumerate(key):
        num = k * eden
        if i < last and num % den:
            out.append(num // den + 1)
            break
        out.append(-(-num // den) if up else num // den)
    return tuple(out)


def _least(den, nums):
    """``(den, nums)`` divided by ``gcd(den, *nums)``: den becomes least.

    ``nums`` are ints or rank-d keys, which divide in every coordinate.
    """
    if den == 1:
        return den, nums
    if not nums or type(nums[0]) is int:
        g = gcd(den, *nums)
        if g == 1:
            return den, nums
        return den // g, tuple(n // g for n in nums)
    g = gcd(den, *chain.from_iterable(nums))
    if g == 1:
        return den, nums
    return den // g, tuple(tuple.__new__(GroupElement, tuple(q // g for q in k)) for k in nums)


def _key_sum(a, b):
    """The key ``(den, key)`` of the sum of the exponents of two keys, over its least denominator."""
    (da, ka), (db, kb) = a, b
    if da == db:
        den, key = da, ka + kb
    else:
        den = lcm(da, db)
        key = ka * (den // da) + kb * (den // db)
    if type(key) is int:
        g = gcd(den, key)
        return (den, key) if g == 1 else (den // g, key // g)
    den, (key,) = _least(den, (key,))
    return den, key


def _key_lt(a, b):
    """Whether the exponent of the key ``a`` lies below that of ``b``."""
    return a[1] * b[0] < b[1] * a[0]


def _half_steps(x, base, pairs):
    """``x + sum c t^(base + k/2)`` for the key ``base`` and one or more ``(k, c)`` pairs, merged onto x's grid.

    The ints ``k >= 0`` ascend and the int coefficients ``c`` are nonzero,
    so the keys ``base + k/2``, over the lcm of 2, the denominator of
    ``base`` and that of x, ascend too; each is put into x's keys by one
    bisection.  The sum is ``field_op``'s: an inexact x keeps its precision
    key, and the terms at or above it are cut.
    """
    eden, keys, cden, nums = x.approx._grid
    bden, bkey = base
    new = lcm(eden, bden, 2)
    half, bkey = new // 2, bkey * (new // bden)
    if type(bkey) is int:
        steps = [bkey + k * half for k, _ in pairs]
    else:
        steps = [tuple.__new__(GroupElement, (bkey[0] + k * half, *bkey[1:])) for k, _ in pairs]
    if x._pkey is not None:
        del steps[bisect_left(steps, _below_key(x._pkey, new)):]
    keys, nums = list(_over(eden, new, keys)), list(nums)
    for key, (_, c) in zip(steps, pairs):
        i = bisect_left(keys, key)
        if i < len(keys) and keys[i] == key:
            nums[i] += c * cden
            if not nums[i]:
                del keys[i], nums[i]
        else:
            keys.insert(i, key)
            nums.insert(i, c * cden)
    return _truncated(_on_grid((*_least(new, tuple(keys)), *_least(cden, tuple(nums))), x.rank), x._pkey)


def _over(den, new, nums):
    """``nums`` over the denominator ``den`` put over the multiple ``new``."""
    return nums if new == den else tuple(n * (new // den) for n in nums)


_ZERO_GRID = (1, (), 1, ())
_set = object.__setattr__


class HahnSeries:
    """Finite sum of monomials ``c * t^e`` with strictly ascending exponents.

    Immutable.  Zero has no terms.  ``rank`` is the rank of the exponent
    group and is carried explicitly so that the zero series knows where it
    lives.  The value is its canonical integer grid in every rank (see the
    module docstring), and it is the only stored form: ``terms`` is a
    read-only view of it as ``(GroupElement, Fraction)`` pairs, built on
    each read, and the text is written from the grid.
    """

    __slots__ = ("rank", "_grid")

    def __init__(self, terms, rank=1):
        acc = {}
        for e, c in terms:
            if not isinstance(e, GroupElement):
                e = GroupElement.scalar(e, rank)
            c = c if isinstance(c, Fraction) else Fraction(c)
            acc[e] = acc.get(e, Fraction(0)) + c
        pairs = sorted((e, c) for e, c in acc.items() if c)
        keys = [_key_of(e) for e, _ in pairs]
        eden = lcm(*(den for den, _ in keys))
        cden = lcm(*(c.denominator for _, c in pairs))
        _set(self, "rank", rank)
        _set(self, "_grid", (eden, tuple(key * (eden // den) for den, key in keys),
                             cden, tuple(c.numerator * (cden // c.denominator) for _, c in pairs)))

    def __setattr__(self, *a):
        raise AttributeError("HahnSeries is immutable")

    @classmethod
    def zero(cls, rank=1):
        return _on_grid(_ZERO_GRID, rank)

    @classmethod
    def constant(cls, q, rank=1):
        return cls.monomial(q, GroupElement.zero(rank))

    @classmethod
    def monomial(cls, coeff, exponent):
        coeff = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
        if not coeff:
            return cls.zero(exponent.rank)
        eden, key = _key_of(exponent)
        return _on_grid((eden, (key,), coeff.denominator, (coeff.numerator,)), exponent.rank)

    @property
    def terms(self):
        """The ``(GroupElement, Fraction)`` pairs in ascending exponent order."""
        eden, keys, cden, nums = self._grid
        return tuple((_exponent(eden, k), Fraction(n, cden)) for k, n in zip(keys, nums))

    def is_zero(self):
        return not self._grid[1]

    def valuation(self):
        """Least exponent of the support; INFINITE for the zero series."""
        grid = self._grid
        return _exponent(grid[0], grid[1][0]) if grid[1] else INFINITE

    def top_exponent(self):
        """Greatest exponent of the support; None for the zero series."""
        grid = self._grid
        return _exponent(grid[0], grid[1][-1]) if grid[1] else None

    def leading_coeff(self):
        _, _, cden, nums = self._grid
        return Fraction(nums[0], cden) if nums else Fraction(0)

    def coefficient(self, exponent):
        """The coefficient at ``exponent``: its key over ``eden``, found by bisection."""
        eden, keys, cden, nums = self._grid
        den, key = _key_of(exponent)
        if eden % den:
            return Fraction(0)
        key = key * (eden // den)
        i = bisect_left(keys, key)
        return Fraction(nums[i], cden) if i < len(keys) and keys[i] == key else Fraction(0)

    def truncate_below(self, bound):
        """Drop all terms with exponent >= bound."""
        return self._below(_key_of(bound))

    def truncate_through(self, hi):
        """Drop all terms with exponent > hi."""
        grid = self._grid
        return self._prefix(bisect_right(grid[1], _through_key(_key_of(hi), grid[0])))

    def _below(self, bound):
        """Drop all terms with exponent at or above that of the key ``bound``; None drops none."""
        if bound is None:
            return self
        grid = self._grid
        return self._prefix(bisect_left(grid[1], _below_key(bound, grid[0])))

    def _prefix(self, cut):
        """The series of the ``cut`` lowest terms."""
        eden, keys, cden, nums = self._grid
        if cut == len(keys):
            return self
        if not cut:
            return _on_grid(_ZERO_GRID, self.rank)
        return _on_grid((*_least(eden, keys[:cut]), *_least(cden, nums[:cut])), self.rank)

    def __add__(self, other):
        ea, ka, ca, na = self._grid
        eb, kb, cb, nb = other._grid
        if not ka:
            return other
        if not kb:
            return self
        eden = ea if ea == eb else lcm(ea, eb)
        cden = ca if ca == cb else lcm(ca, cb)
        ka, kb = _over(ea, eden, ka), _over(eb, eden, kb)
        na, nb = _over(ca, cden, na), _over(cb, cden, nb)
        keys, nums = [], []
        i = j = 0
        la, lb = len(ka), len(kb)
        while i < la and j < lb:
            x, y = ka[i], kb[j]
            if x < y:
                keys.append(x)
                nums.append(na[i])
                i += 1
            elif y < x:
                keys.append(y)
                nums.append(nb[j])
                j += 1
            else:
                n = na[i] + nb[j]
                if n:
                    keys.append(x)
                    nums.append(n)
                i += 1
                j += 1
        keys.extend(ka[i:] if i < la else kb[j:])
        nums.extend(na[i:] if i < la else nb[j:])
        # a sum at a shared key may lower a denominator or vanish
        return _on_grid((*_least(eden, tuple(keys)), *_least(cden, tuple(nums))), self.rank)

    def __neg__(self):
        eden, keys, cden, nums = self._grid
        return _on_grid((eden, keys, cden, tuple(-n for n in nums)), self.rank)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return self._times(other, None)

    def _times(self, other, bound):
        """The product below the key ``bound``, None for no bound: ``(a * b).truncate_below(p)``
        for the key of ``p``, with no pair at or above it formed.

        Coefficients are multiplied as ints: each factor's numerators sit
        over its least common coefficient denominator, ``da`` and ``db``, so
        every pair product and every sum at an equal exponent is an int
        operation.  As ``da*db > 0``, an int sum is zero exactly when the
        rational sum is, so the support and the coefficients are those of
        the rational product.  The keys of both factors are put over the
        lcm of their exponent denominators, and ``bound`` onto those keys
        (see ``_below_key``).
        """
        ea, ka, ca, na = self._grid
        eb, kb, cb, nb = other._grid
        if not ka or not kb:
            return _on_grid(_ZERO_GRID, self.rank)
        eden = ea if ea == eb else lcm(ea, eb)
        ka, kb = _over(ea, eden, ka), _over(eb, eden, kb)
        bound = INFINITE if bound is None else _below_key(bound, eden)
        if len(ka) > len(kb):
            ka, na, kb, nb = kb, nb, ka, na
        keys, nums = _int_products(ka, na, kb, nb, bound)
        if not keys:
            return _on_grid(_ZERO_GRID, self.rank)
        return _on_grid((*_least(eden, keys), *_least(ca * cb, nums)), self.rank)

    def scale(self, q):
        q = q if isinstance(q, Fraction) else Fraction(q)
        if not q:
            return HahnSeries.zero(self.rank)
        eden, keys, cden, nums = self._grid
        if not keys:
            return self
        p = q.numerator
        return _on_grid((eden, keys, *_least(cden * q.denominator, tuple(n * p for n in nums))), self.rank)

    def shift(self, exponent):
        """Multiply by the monomial t^exponent."""
        eden, keys, cden, nums = self._grid
        if not keys:
            return self
        sden, step = _key_of(exponent)
        new = lcm(eden, sden)
        step = step * (new // sden)
        keys = tuple(k + step for k in _over(eden, new, keys))
        return _on_grid((*_least(new, keys), cden, nums), self.rank)

    def __eq__(self, other):
        return isinstance(other, HahnSeries) and self.rank == other.rank and self._grid == other._grid

    def __hash__(self):
        return hash((self._grid, self.rank))

    def __repr__(self):
        return f"HahnSeries({_grid_text(self._grid)!r})"


def _on_grid(grid, rank):
    """The series of a canonical grid."""
    out = object.__new__(HahnSeries)
    _set(out, "rank", rank)
    _set(out, "_grid", grid)
    return out


class TruncatedSeries:
    """A Hahn series known below a precision bound.

    Represents any field element x with ``v(x - approx) >= prec``.  With
    ``prec`` INFINITE the value is exact.  Stored exponents are strictly
    below ``prec``: this constructor cuts ``approx`` there, while field
    operations, ``-``, ``scale`` and ``shift`` build results that already
    lie below their precision without cutting again (see the module
    docstring).
    """

    __slots__ = ("approx", "rank", "_pkey")

    def __init__(self, approx, prec=INFINITE):
        pkey = _key_of(prec)
        _set(self, "approx", approx._below(pkey))
        _set(self, "rank", approx.rank)
        _set(self, "_pkey", pkey)

    def __setattr__(self, *a):
        raise AttributeError("TruncatedSeries is immutable")

    @classmethod
    def exact(cls, approx):
        return cls(approx, INFINITE)

    @classmethod
    def zero(cls, rank=1):
        return cls(HahnSeries.zero(rank), INFINITE)

    @classmethod
    def one(cls, rank=1):
        return cls(HahnSeries.constant(1, rank), INFINITE)

    @classmethod
    def constant(cls, q, rank=1):
        return cls(HahnSeries.constant(q, rank), INFINITE)

    @classmethod
    def monomial(cls, coeff, exponent):
        return cls(HahnSeries.monomial(coeff, exponent), INFINITE)

    @property
    def prec(self):
        """The precision bound, a ``GroupElement``; INFINITE when exact."""
        return INFINITE if self._pkey is None else _exponent(*self._pkey)

    def is_exact(self):
        return self._pkey is None

    def is_exact_zero(self):
        return self._pkey is None and self.approx.is_zero()

    def valuation_lower_bound(self):
        """v of the true value is at least this (exactly v(approx) if nonempty)."""
        return self.prec if self.approx.is_zero() else self.approx.valuation()

    def truncate(self, prec):
        key = _key_of(prec)
        if key is None or (self._pkey is not None and not _key_lt(key, self._pkey)):
            return self
        return _truncated(self.approx._below(key), key)

    def __add__(self, other):
        return field_op("add", self, other)

    def __sub__(self, other):
        return field_op("sub", self, other)

    def __mul__(self, other):
        return field_op("mul", self, other)

    def __neg__(self):
        return _truncated(-self.approx, self._pkey)

    def scale(self, q):
        return _truncated(self.approx.scale(q), self._pkey)

    def shift(self, exponent):
        pkey = self._pkey
        return _truncated(self.approx.shift(exponent), None if pkey is None else _key_sum(pkey, _key_of(exponent)))

    def __eq__(self, other):
        return isinstance(other, TruncatedSeries) and self._pkey == other._pkey and self.approx == other.approx

    def __hash__(self):
        return hash((self.approx, self._pkey))

    def __repr__(self):
        return f"TruncatedSeries({format_series(self)!r})"


def _truncated(approx, pkey):
    """The ``TruncatedSeries`` of an approx whose exponents all lie below the precision key ``pkey``.

    Trusted: nothing is cut.  For results whose construction already keeps
    every exponent below the precision; ``pkey`` is None for an exact value.
    """
    out = object.__new__(TruncatedSeries)
    _set(out, "approx", approx)
    _set(out, "rank", approx.rank)
    _set(out, "_pkey", pkey)
    return out


def field_op(kind, a, b):
    """Ring operation with precision propagation.

    add/sub: result precision is min of the operand precisions; with equal
    precisions both operands, and so their sum, already lie below it.
    mul: the unknown tail of one factor meets the known part of the other
    at ``prec_a + v(b)`` (and symmetrically), and the two tails meet at
    ``prec_a + prec_b``; the result precision is the min of these.  As
    ``v(b) <= prec_b``, the tail-by-tail sum is never below
    ``prec_a + v(b)``, so only the sums of inexact factors are formed.  The
    product is bounded at the result precision and arrives truncated.
    """
    if a.rank != b.rank:
        raise ValueError("rank mismatch")
    if kind == "add" or kind == "sub":
        ka, kb = a._pkey, b._pkey
        approx = a.approx + b.approx if kind == "add" else a.approx - b.approx
        if ka == kb:
            return _truncated(approx, ka)
        low = ka if kb is None or (ka is not None and _key_lt(ka, kb)) else kb
        return _truncated(approx._below(low), low)
    if kind == "mul":
        if a.is_exact_zero() or b.is_exact_zero():
            return TruncatedSeries.zero(a.rank)
        ka, kb = a._pkey, b._pkey
        key = None if ka is None else _key_sum(ka, _lead_key(b))
        if kb is not None:
            other = _key_sum(kb, _lead_key(a))
            if key is None or _key_lt(other, key):
                key = other
        return _truncated(a.approx._times(b.approx, key), key)
    raise ValueError(f"unknown field op {kind!r}")


def _lead_key(x):
    """The key of ``v(x)``, read off the grid; the key of the precision of ``0 + O(...)``."""
    eden, keys, _, _ = x.approx._grid
    return (eden, keys[0]) if keys else x._pkey


def _first_difference(a, b):
    """``(eden, key, sign)`` of the lowest term of ``a - b``, read off the two grids at their first difference.

    The term lies at the exponent of ``key`` over ``eden`` and has the sign
    ``sign``.  None when ``a - b`` is zero or ``0 + O(...)``: the grids
    agree, or first differ at or above the lower precision, which cuts
    ``a - b``.  The term sits at the lower of the two keys where the grids
    first differ, with the difference of the coefficients where both keys
    are equal, or at the next key of the longer grid where the shorter one
    ends.
    """
    if a.rank != b.rank:
        raise ValueError("rank mismatch")
    ea, ka, ca, na = a.approx._grid
    eb, kb, cb, nb = b.approx._grid
    eden = ea if ea == eb else lcm(ea, eb)
    ka, kb = _over(ea, eden, ka), _over(eb, eden, kb)
    i, n = 0, min(len(ka), len(kb))
    while i < n and ka[i] == kb[i] and na[i] * cb == nb[i] * ca:
        i += 1
    if i < n and ka[i] == kb[i]:
        key, num = ka[i], na[i] * cb - nb[i] * ca
    elif i < len(ka) and (i == len(kb) or ka[i] < kb[i]):
        key, num = ka[i], na[i]
    elif i < len(kb):
        key, num = kb[i], -nb[i]
    else:
        return None
    for p in (a._pkey, b._pkey):
        if p is not None and not _key_lt((eden, key), p):
            return None
    return eden, key, _sign(num)


def _unit_jet(x, lam):
    """The unit jet of ``x`` through ``lam``, in one pass over the grid.

    The terms of ``t^(-v(x)) x`` at exponents in ``[0, lam]`` for an ``x``
    with a nonzero approx, or None when the precision of ``x`` does not lie
    above ``v(x) + lam``.
    """
    eden, keys, cden, nums = x.approx._grid
    lead, lam = keys[0], _key_of(lam)
    if x._pkey is not None and not _key_lt(_key_sum((eden, lead), lam), x._pkey):
        return None
    shifted = [k - lead for k in keys]
    cut = bisect_right(shifted, _through_key(lam, eden))
    return _on_grid((*_least(eden, tuple(shifted[:cut])), *_least(cden, nums[:cut])), x.rank)


def compare_sign(a):
    """Sign of the element: the sign of its leading coefficient.

    Zero only for the exact zero series; an all-unknown truncation cannot
    be signed and raises instead of guessing.
    """
    if not a.approx.is_zero():
        return _sign(a.approx.leading_coeff())
    if a.is_exact():
        return ZERO
    raise UndecidableAtPrecision("sign of 0 + O(...) is not determined")


def valuation(a):
    """Least exponent of the support; INFINITE for exact zero."""
    if not a.approx.is_zero():
        return a.approx.valuation()
    if a.is_exact():
        return INFINITE
    raise UndecidableAtPrecision("valuation of 0 + O(...) is not determined")


def standard_part(a):
    """The rational closest to a finite element: its coefficient at exponent 0.

    The constant term is known: a determined valuation v >= 0 lies below the
    precision.
    """
    zero_exp = GroupElement.zero(a.rank)
    if valuation(a) < zero_exp:
        raise NotInValuationRing("element has negative valuation")
    return a.approx.coefficient(zero_exp)


def invert(a, target_prec):
    """Multiplicative inverse with residual ``v(a*x - 1) >= target_prec - 2 v(a)``.

    Exact monomials invert exactly.  Otherwise ``_split_power`` takes the
    power -1 with ``c^(-1) = 1/c``: long division by the unit part on the
    grid.  The inverse truncated at a given precision is unique, so the
    result is that of any other method.
    """
    if a.approx.is_zero():
        raise ZeroOrUncertainLeadingTerm("no determined leading term to invert")
    g = a.approx.valuation()
    c = a.approx.leading_coeff()
    if a.is_exact() and len(a.approx._grid[1]) == 1:
        return TruncatedSeries.monomial(1 / c, -g)
    if target_prec is INFINITE:
        raise ValueError("invert needs a finite target precision for non-monomials")
    rel_needed = target_prec - g - g  # relative precision of the unit part
    if not a.is_exact() and a.prec - g < rel_needed:
        raise InsufficientPrecision("operand precision cannot support the requested inverse")
    return _split_power(a.approx, 1 / c, -1, 1, rel_needed)


def _unit_power(eden, keys, cden, nums, a, b, rel_needed):
    """``u^(a/b)`` below ``rel_needed`` for a unit ``u = 1 + h`` with v(h) > 0,
    on raw ints in and out.

    The unit is ``nums[i]/cden * t^(keys[i]/eden)`` with ``keys[0]`` the
    zero key and ``nums[0] = cden``; neither denominator need be least.
    The result ``(eden, keys, den, nums)`` is over the same ``eden``, every
    coefficient over ``den``, and is not least either: the caller divides
    out the gcds once.  ``rel_needed`` may be INFINITE for a whole power
    (b = 1, a >= 0), which is then exact.  A target at or below 0 leaves no
    term, not even the constant 1.

    J. C. P. Miller's recurrence for a power series raised to a rational
    power (Knuth, *The Art of Computer Programming*, vol. 2, 4.7), run on
    the grid.  Let phi be an additive map from exponents to the ints, so
    ``D(t^e) = phi(e) t^e`` is a derivation, and ``w = u^(a/b)`` solves
    ``b u D(w) = a w D(u)``.  At the exponent e this reads
    ``b phi(e) w_e = sum_k (a phi(k) - b phi(e-k)) h_k w_(e-k)`` over the
    generators k <= e, the support of h.  The support of w lies in the
    monoid that the generators span, and every element of it that is summed
    has ``phi >= 1`` (see below), so each coefficient comes from at most m
    earlier ones, m the number of terms of h: O(N m) int operations for N
    output terms.  For the inverse, a = -1 and b = 1, the factor is
    ``-phi(e)`` and the step is long division by u.

    The recurrence runs over a set S of exponents below the bound, in
    ascending order, and reads ``w_(e-k)`` only where e - k lies in S.  It
    is exact on any S that holds the support of w below the bound: at an
    e of S outside that support it gives 0, and a point e - k outside S has
    ``w = 0``.  So S only sets the cost, which is its size.  S is the
    monoid below the bound, enumerated from the generators; in rank 1, when
    the leading gap divides every generator (it is then their gcd), every
    multiple of it below the bound is a power of the gap, so S is counted as
    ``range(0, bound, gap)`` with no enumeration.  For a whole power that
    holds only where no such multiple takes more than a factors, the
    enumeration's limit below.  Where the gap divides not every generator,
    as for gaps 1 and 1 + 1/N, the monoid is sparse below the bound and is
    enumerated; counting every lattice point there would cost about N
    times as much.

    Every w_e is an int over one denominator: ``cden^top`` for every b = 1
    (``cden^min(top, a)`` for a whole power), and ``(cden b)^top top!``
    otherwise.  The term of w_e that takes m generator factors is
    ``binomial(a/b, m)`` times a product of m coefficients of h, over
    ``(cden b)^m m!``, or over ``cden^m`` for b = 1, where the binomial
    ``binomial(a, m)`` is an int for every int a.  Every
    generator's phi is at least that of the leading gap, so m is at most
    top, the largest phi over S divided by the gap's, and each step is an
    exact int division.

    A whole power ``u^a`` is a polynomial in h: its support is the sums of
    at most a generators, so the enumeration stops there and m is at most
    a.  Its phi is the weight ``sum e_i W^(d-1-i)`` with W above twice the
    largest |coordinate| of a generator, positive on every generator and so
    on every sum of them; in rank 1 it is the exponent itself, and
    ``e // step`` is read with no call per element.  That set is finite in
    every rank.

    Otherwise phi takes an exponent to its coordinate where the leading gap
    v(h) has its first nonzero one.  In rank d > 1 a gap in a later
    coordinate than the target leaves infinitely many exponents below the
    target, so that case raises ``PrecisionStall``.  Otherwise every
    exponent of the monoid below the target shares the target's zero
    coordinates before the gap's, so its phi is positive and there are
    finitely many of them.
    """
    whole = b == 1 and a >= 0
    if not whole and len(keys) > 1:
        reached = _exponent(eden, keys[1])
        if reached < rel_needed and any(rel_needed[: next(i for i, q in enumerate(reached) if q)]):
            # the text of this error is part of the package's output and stays as it was
            raise PrecisionStall(
                "leading gap of the unit part lies in a later coordinate than the target; "
                "Newton doubling cannot reach the requested depth in lexicographic rank > 1"
            )
    zero = keys[0]
    if rel_needed is INFINITE:
        # with no target, a whole power u^a reaches no key above a times the top one
        bound = keys[-1] * (a + 1)
    else:
        bound = _below_key(_key_of(rel_needed), eden)
        if not zero < bound:
            return eden, (), 1, ()
    gens = [(k, n) for k, n in zip(keys[1:], nums[1:]) if k < bound]
    if not gens:
        return eden, (zero,), 1, (1,)
    gap = gens[0][0]
    rank_one = type(gap) is int
    if rank_one:
        phi = lambda key: key  # noqa: E731
    elif whole:
        width = 2 * max(abs(q) for k, _ in gens for q in k) + 1
        weights = [width**i for i in reversed(range(len(gap)))]
        phi = lambda key: sum(q * w for q, w in zip(key, weights))  # noqa: E731
    else:
        phi = itemgetter(next(i for i, q in enumerate(gap) if q))
    step = gcd(*(phi(k) for k, _ in gens))
    if rank_one and gap == step and (not whole or (bound - 1 - zero) // gap <= a):
        support = range(zero, bound, gap)
    else:
        # the monoid below the bound (sums of at most a generators for a
        # whole power); gens ascend, so a row stops at the bound
        seen = {zero}
        frontier = [zero]
        factors = 0
        while frontier and (not whole or factors < a):
            factors += 1
            grown = []
            for s in frontier:
                for k, _ in gens:
                    e = s + k
                    if e >= bound:
                        break
                    if e not in seen:
                        seen.add(e)
                        grown.append(e)
            frontier = grown
        support = sorted(seen)
    # the weight of a whole power in rank > 1 follows lexicographic order on
    # the generators but not on their sums, so its largest value is searched
    # for; every other phi is largest on the last exponent
    top = (max(map(phi, support)) if whole and not rank_one else phi(support[-1])) // phi(gap)
    if b == 1:
        den = cden ** (min(top, a) if whole else top)
    else:
        den = (cden * b) ** top * factorial(top)
    # each generator as its key, numerator and (a + b) phi / step
    gens = [(k, n, (a + b) * (phi(k) // step)) for k, n in gens]
    w = {zero: den}
    for e in support[1:]:
        # phi is the identity in rank 1, read with no call per element
        bpe = b * (e // step if rank_one else phi(e) // step)
        total = 0
        for k, n, apj in gens:
            if e < k:
                break
            s = w.get(e - k)
            if s:
                total += (apj - bpe) * n * s
        w[e] = total // (bpe * cden)
    out = [e for e in support if w[e]]
    return eden, tuple(out), den, tuple(w[e] for e in out)


def _split_power(x, coeff, a, b, rel):
    """``x^(a/b)`` of a nonzero series ``x = c t^v u``, for ``coeff = c^(a/b)``,
    known below ``rel + v a/b``; INFINITE ``rel`` gives an exact whole power.

    The unit ``u = 1 + h`` goes to ``_unit_power`` as raw ints, x's keys
    less the lead over x's ``eden`` and its numerators signed over
    ``|c|``'s, with no gcd taken; its power comes back raw, is shifted by
    ``v a/b`` and scaled by ``coeff`` on the ints, and is put on the grid
    with one ``_least`` on the keys and one on the numerators.
    ``_unit_power`` returns no term at or above its target, so the result
    is cut at its precision already.
    """
    eden, keys, cden, nums = x._grid
    lead, n0 = keys[0], nums[0]
    sign = 1 if n0 > 0 else -1
    _, wkeys, wcden, wnums = _unit_power(eden, tuple(key - lead for key in keys), sign * n0,
                                         tuple(sign * n for n in nums), a, b, rel)
    # the exponents of u^(a/b) are sums of those of u, over eden; over eden b
    # the shift v a/b is an int
    shift = lead * a
    wkeys = tuple(key * b + shift for key in wkeys)
    p, q = coeff.numerator, coeff.denominator
    out = _on_grid((*_least(eden * b, wkeys), *_least(wcden * q, tuple(n * p for n in wnums))), x.rank)
    return _truncated(out, None if rel is INFINITE else _key_sum(_key_of(rel), (eden * b, shift)))


def _taylor_sum(coefficient, args, target_prec):
    """``sum c_idx a^idx`` over the monomials that reach below the target, in one int pass.

    ``coefficient(idx)`` is the Taylor coefficient of a multi-index, and
    each argument a_i is exact or has a nonzero approx, with valuation v_i
    and precision p_i (INFINITE when exact); every v_i is positive in its
    first coordinate.

    Which terms: the constant and the monomials whose valuation
    ``V(idx) = sum e_i v_i`` lies below the target T.  The target alone
    bounds them: the first coordinate of V(idx) is at least |idx| times
    the least first coordinate of a v_i, so the powers of each argument
    leave the target after finitely many steps.  An exact zero argument
    takes no power above 0.

    Their precision, in closed form.  A product ``X a_i`` of a factor X of
    valuation V and precision q is known below ``min(q + v_i, p_i + V)``
    (``field_op``), and its leading term, the product of the two leading
    terms, lies below that.  So every power keeps its leading term, and by
    induction ``a^idx`` is known below ``min over i with e_i >= 1 of
    p_i + V(idx) - v_i``; cutting a factor at T, then multiplying by a
    factor of positive valuation, stays at or above T.  A sum is known
    below the least precision of its terms, so the sum is known below

        P = min(T, min over idx != 0 with c_idx != 0 of
                   min over i with e_i >= 1 of p_i + V(idx) - v_i).

    For each i, ``p_i - v_i`` is fixed, so its part of the min is
    ``p_i - v_i`` plus the least V(idx) of a summed monomial with
    e_i >= 1; with one variable, ``P = min(T, p + (k0 - 1) v)``, k0 the
    first index >= 1 with a nonzero coefficient.  An exact argument adds no
    term.

    The sum.  The arguments sit over one exponent denominator and one
    coefficient denominator C, so ``A_i^e`` has int numerators over
    ``C^e``, formed by ``_int_products`` with no gcd per step.  Every
    v_i > 0, so a term of an argument at or above P reaches only products
    at or above P: each argument is cut below P once and every product is
    bounded there.  The numerators of each ``c_idx A^idx`` are added into
    one dict over ``L C^N``, L the lcm of the coefficient denominators and
    N the largest degree summed; the sum is cut below P and put on the grid
    with one ``_least``.
    """
    rank = args[0].rank
    grids = [a.approx._grid for a in args]
    eden = lcm(*(g[0] for g in grids))
    cden = lcm(*(g[2] for g in grids))
    keys = [_over(g[0], eden, g[1]) for g in grids]
    nums = [_over(g[2], cden, g[3]) for g in grids]
    leads = [k[0] if k else None for k in keys]
    zero = _key_of(GroupElement.zero(rank))[1]
    pkey = _key_of(target_prec)
    reach = _below_key(pkey, eden)

    def top(lead):
        """The highest power of one argument below the target."""
        e, key = 0, zero
        while lead is not None and key + lead < reach:
            e, key = e + 1, key + lead
        return e

    summed = []  # (idx, coefficient, key of V(idx), degree)
    for idx in product(*(range(top(lead) + 1) for lead in leads)):
        degree = sum(idx)
        key = zero
        for e, lead in zip(idx, leads):
            if e:
                key = key + lead * e
        if degree and not key < reach:
            continue
        c = coefficient(idx)
        if c:
            summed.append((idx, c, key, degree))

    for i, a in enumerate(args):
        least = None if a.is_exact() else min((key for idx, _, key, _ in summed if idx[i]), default=None)
        if least is not None:
            p = _key_sum(a._pkey, (eden, least - leads[i]))
            if _key_lt(p, pkey):
                pkey = p
    cut = _below_key(pkey, eden)
    for i, k in enumerate(keys):
        n = bisect_left(k, cut)
        keys[i], nums[i] = k[:n], nums[i][:n]

    one = ((zero,), (1,))
    powers = [[one, (k, n)] for k, n in zip(keys, nums)]

    def power(i, e):
        pw = powers[i]
        while len(pw) <= e:
            k, n = pw[-1]
            pw.append(_int_products(keys[i], nums[i], k, n, cut) if k else ((), ()))
        return pw[e]

    lden = lcm(*(c.denominator for _, c, _, _ in summed))
    most = max((degree for *_, degree in summed), default=0)
    acc = {}
    for idx, c, _, degree in summed:
        factors = [power(i, e) for i, e in enumerate(idx) if e] or [one]
        k, n = factors[0]
        for fkeys, fnums in factors[1:]:
            k, n = _int_products(fkeys, fnums, k, n, cut) if k and fkeys else ((), ())
        scale = c.numerator * (lden // c.denominator) * cden ** (most - degree)
        for key, num in zip(k, n):
            acc[key] = acc.get(key, 0) + scale * num
    out = sorted(key for key, num in acc.items() if num)
    out = tuple(out[: bisect_left(out, cut)])
    grid = (*_least(eden, out), *_least(lden * cden**most, tuple(acc[k] for k in out)))
    return _truncated(_on_grid(grid, rank), pkey)


def _integer_nth_root(m, n):
    """Exact integer n-th root of m > 0, or None.

    Integer Newton iteration from 2^ceil(bits/n), which is at least the
    root, falls to the floor of the root and stops there (Brent and
    Zimmermann, Modern Computer Arithmetic, section 1.5).
    """
    x = 1 << -(-m.bit_length() // n)
    while True:
        y = ((n - 1) * x + m // x ** (n - 1)) // n
        if y >= x:
            return x if x ** n == m else None
        x = y


def _rational_nth_root(q, n):
    num = _integer_nth_root(q.numerator, n)
    den = _integer_nth_root(q.denominator, n)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def nth_root(a, n, target_prec):
    """Unique positive n-th root of a positive element.

    The power 1/n of ``_split_power``, whose truncation is unique.  It is
    exact only as the exact root of an exact input: a prefix p of the
    result x with ``p^n = a`` is the root, which then has no term at or
    above the precision of x, so p = x.  Then x^n and a share their top
    term, and one ``power`` call decides.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if compare_sign(a) != POSITIVE:
        raise NotPositive("n-th root requires a positive element")
    g = a.approx.valuation()
    c0 = a.approx.leading_coeff()
    root_c = _rational_nth_root(c0, n)
    if root_c is None:
        raise IrrationalLeadingCoefficient(
            f"{c0} has no rational {n}-th root; rational-coefficient values only"
        )
    if a.is_exact() and len(a.approx._grid[1]) == 1:
        return TruncatedSeries.monomial(root_c, g / n)
    if target_prec is INFINITE:
        raise ValueError("nth_root needs a finite target precision unless the unit part is 1")
    res_target = target_prec - g  # relative precision of the unit part
    if not a.is_exact() and a.prec - g < res_target:
        raise InsufficientPrecision("operand precision cannot support the requested root")
    x = _split_power(a.approx, root_c, 1, n, res_target)
    if a.is_exact():
        xe, xkeys, _, _ = x.approx._grid
        ae, akeys, _, _ = a.approx._grid
        if xkeys and xkeys[-1] * (ae * n) == akeys[-1] * xe:
            root = _truncated(x.approx, None)
            if power(root, n).approx == a.approx:
                return root
    return x


def power(x, k, prec=INFINITE):
    """``x^k`` for an int k >= 0: the k-fold ``field_op`` product, cut at ``prec``.

    With ``x = c t^v u`` for a unit ``u = 1 + h``, ``x^k = c^k t^(kv) u^k``,
    and ``_split_power`` raises u to the power k by Miller's recurrence, so
    no series product is formed.  The precision is the product's in closed
    form: a factor known below p leaves its unknown tail at
    ``p + (k-1) v`` (see ``field_op``), ``0 + O(t^p)`` gives ``k p``, and an
    exact x an exact power; the result is cut at ``prec``.  When ``k v``
    lies at or above that precision the power is ``0 + O(...)`` at once.
    ``x^0`` is the exact 1.
    """
    if k == 0:
        return TruncatedSeries.one(x.rank)
    approx, xprec = x.approx, x.prec
    if approx.is_zero():
        return TruncatedSeries(approx, xprec if xprec is INFINITE else xprec * k).truncate(prec)
    rel = INFINITE
    if xprec is not INFINITE or prec is not INFINITE:
        v = approx.valuation()
        top = INFINITE if xprec is INFINITE else xprec + v * (k - 1)
        if prec < top:
            top = prec
        rel = top - v * k
        if not rel > GroupElement.zero(x.rank):
            return TruncatedSeries(HahnSeries.zero(x.rank), top)
    return _split_power(approx, approx.leading_coeff() ** k, k, 1, rel)


def poly_eval(coeffs, x, prec=INFINITE):
    """Horner evaluation of ``sum coeffs[i] x^i``: ``total <- total x + c``
    from the top coefficient down, each step cut at ``prec``.

    The result is that of the ``field_op`` fold, built in one int loop.
    Every exponent and precision is an int key over one denominator E (a
    ``GroupElement`` of ints in rank d), and the total's numerators sit over
    ``C X^m``: C the lcm of the coefficients' denominators, X that of x and
    m the products formed since the total was last empty.  A step's key is
    ``field_op``'s in closed form: the product of a total T known below p_T
    and x known below p_x is known below ``min(p_T + v(x), p_x + v(T))``,
    with v of ``0 + O(t^p)`` read as p and the terms of an exact factor left
    out, and is the exact zero when a factor is; adding c and cutting at
    ``prec`` lower that to the least of it, c's precision and ``prec``.  One
    dict takes the pairs of T and x below the key, each row of x cut by one
    bisection, and c's terms below it, scaled by ``X^m``; its nonzero keys
    are sorted once per step, and one grid is built at the end.
    """
    rank = x.rank
    if any(c.rank != rank for c in coeffs):
        raise ValueError("rank mismatch")
    xden, xkeys, xcden, xnums = x.approx._grid
    pkeys = [x._pkey, _key_of(prec)]
    steps = []
    for c in reversed(coeffs):
        steps.append(c.approx._grid)
        pkeys.append(c._pkey)
    eden = lcm(xden, *(g[0] for g in steps), *(k[0] for k in pkeys if k is not None))
    cden = lcm(*(g[2] for g in steps))
    px, top, *pkeys = [None if k is None else k[1] * (eden // k[0]) for k in pkeys]
    xpairs = list(zip(_over(xden, eden, xkeys), xnums))
    vx = xpairs[0][0] if xpairs else px
    keys, nums, ptot, scale = [], [], None, 1
    for (den, ckeys, ccden, cnums), bound in zip(steps, pkeys):
        if vx is not None and (keys or ptot is not None):
            prod = None if ptot is None else ptot + vx
            if px is not None:
                other = px + (keys[0] if keys else ptot)
                if prod is None or other < prod:
                    prod = other
            if bound is None or (prod is not None and prod < bound):
                bound = prod
        if top is not None and (bound is None or top < bound):
            bound = top
        acc = {}
        get = acc.get
        if keys:
            scale *= xcden
            row = xpairs
            for a, na in zip(keys, nums):
                if bound is not None:
                    row = xpairs[:bisect_left(xpairs, (bound - a,))]
                    if not row:
                        break
                for b, nb in row:
                    k = a + b
                    acc[k] = get(k, 0) + na * nb
        else:
            scale = 1
        ckeys = _over(den, eden, ckeys)
        lift = scale * (cden // ccden)
        for k, n in zip(ckeys, cnums):
            if bound is not None and k >= bound:
                break
            acc[k] = get(k, 0) + n * lift
        keys = [k for k, n in acc.items() if n]
        keys.sort()
        nums = [acc[k] for k in keys]
        ptot = bound
    grid = (*_least(eden, tuple(keys)), *_least(cden * scale, tuple(nums)))
    if ptot is not None:
        den, (ptot,) = _least(eden, (ptot,))
        ptot = (den, ptot)
    return _truncated(_on_grid(grid, rank), ptot)


def poly_derivative(coeffs):
    """The coefficients of the derivative of ``sum coeffs[i] x^i``."""
    return [c.scale(k) for k, c in enumerate(coeffs)][1:]


# ---------------------------------------------------------------------------
# text format


def format_rational(q):
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def format_exponent(e):
    return ",".join(format_rational(q) for q in e)


def _ratio_text(num, den):
    """``num/den`` as ``format_rational`` writes it, by one gcd."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def _key_text(den, key):
    """The exponent of ``key`` over ``den`` as ``format_exponent`` writes it."""
    if type(key) is int:
        return _ratio_text(key, den)
    return ",".join(_ratio_text(q, den) for q in key)


def _grid_text(grid):
    """The terms of a grid as text, each written from its key and numerator."""
    eden, keys, cden, nums = grid
    if not keys:
        return "0"
    zero = 0 if type(keys[0]) is int else (0,) * len(keys[0])
    text = "".join(
        f"{' + ' if n > 0 else ' - '}{_ratio_text(abs(n), cden)}"
        + ("" if key == zero else f"*t^({_key_text(eden, key)})")
        for key, n in zip(keys, nums)
    )
    return text[3:] if nums[0] > 0 else f"-{text[3:]}"


def format_series(ts):
    body = _grid_text(ts.approx._grid)
    if ts.is_exact():
        return body
    return f"{body} + O(t^({_key_text(*ts._pkey)}))"


_INTEGER = re.compile(r"[+-]?\d+")
_NATURAL = re.compile(r"\d+")
# a '/' starts a denominator only when digits follow it, so the term
# grammar still reads ``x/-2`` as a division
_DENOMINATOR = re.compile(r"[ \t\n]*/[ \t]*(\d+)")


class _Scanner:
    """The one tokenizer of the series, term and multiseries grammars.

    Blanks, tabs and newlines between tokens are skipped; errors carry the
    line and column of the whole text.  ``exponent``, ``term`` and
    ``series`` read the series grammar; the term parser and
    ``parse_multiseries`` build theirs on the same methods.
    """

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def error(self, message, pos=None):
        pos = self.pos if pos is None else pos
        line = self.text.count("\n", 0, pos) + 1
        raise TermSyntaxError(message, line, pos - self.text.rfind("\n", 0, pos))

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t\n":
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def startswith(self, literal):
        self.skip_ws()
        return self.text.startswith(literal, self.pos)

    def take(self, literal):
        if not self.startswith(literal):
            self.error(f"expected {literal!r}")
        self.pos += len(literal)

    def at_end(self):
        return self.peek() == ""

    def integer(self, signed=True):
        """A decimal integer; a sign, if allowed, sits right before the digits."""
        self.skip_ws()
        match = (_INTEGER if signed else _NATURAL).match(self.text, self.pos)
        if match is None:
            self.error("expected an integer")
        self.pos = match.end()
        return int(match.group())

    def rational(self):
        num = self.integer()
        match = _DENOMINATOR.match(self.text, self.pos)
        if match is None:
            return Fraction(num)
        self.pos = match.end()
        den = int(match.group(1))
        if not den:
            self.error("denominator must be positive")
        return Fraction(num, den)

    def ident(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
            self.pos += 1
        return self.text[start : self.pos]

    def exponent(self, rank):
        """``t^(q1,...,qd)`` with one rational per rank."""
        self.take("t^(")
        coords = [self.rational()]
        while self.peek() == ",":
            self.pos += 1
            coords.append(self.rational())
        self.take(")")
        if len(coords) != rank:
            self.error(f"exponent rank {len(coords)}, expected {rank}")
        return GroupElement(coords)

    def term(self, rank):
        """``(exponent, coefficient)`` of ``coeff``, ``coeff*t^(e)`` or ``t^(e)``."""
        if self.peek() == "t":
            return self.exponent(rank), Fraction(1)
        coeff = self.rational()
        if self.peek() == "*":
            self.pos += 1
            return self.exponent(rank), coeff
        return GroupElement.zero(rank), coeff

    def series(self, rank):
        """Terms joined by ``+``/``-``, then an optional ``+ O(t^(p))``."""
        terms = [self.term(rank)]
        prec = INFINITE
        while self.peek() in ("+", "-"):
            op = self.text[self.pos]
            self.pos += 1
            if op == "+" and self.startswith("O("):
                self.pos += 2
                prec = self.exponent(rank)
                self.take(")")
                break
            e, c = self.term(rank)
            terms.append((e, -c if op == "-" else c))
        return TruncatedSeries(HahnSeries(terms, rank), prec)


def parse_series(text, rank=1):
    """Parse the series text grammar (``_Scanner.series``) and nothing after it."""
    sc = _Scanner(text)
    value = sc.series(rank)
    if not sc.at_end():
        sc.error("trailing input after the series")
    return value
