"""Exact rational-polynomial helpers."""

import random
from fractions import Fraction

from hahn_forge.algebraic import peval, rational_roots


class TestRationalRoots:
    def test_linear_with_large_coefficients(self):
        # a prime-sized constant term: divisor enumeration by trial division
        # up to sqrt(n) would take about 10^8 steps
        a0, a1 = Fraction(-(10**16 + 61) * 7, 3), Fraction(10**16 + 69, 5)
        roots, rest = rational_roots([a0, a1])
        assert roots == [Fraction(-a0) / a1]
        assert rest == [a1]

    def test_linear_with_zero_root(self):
        roots, rest = rational_roots([Fraction(0), Fraction(-4), Fraction(6)])
        assert roots == [Fraction(0), Fraction(2, 3)]
        assert rest == [Fraction(6)]

    def test_linear_random(self):
        rng = random.Random("linear")
        for _ in range(200):
            a1 = Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**6), rng.randint(1, 50))
            root = Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**3))
            roots, rest = rational_roots([-root * a1, a1])
            assert roots == [root] and rest == [a1]

    def test_quadratic(self):
        # (2x - 1)(x + 3) and an irreducible factor x^2 - 2
        roots, rest = rational_roots([Fraction(-3), Fraction(5), Fraction(2)])
        assert sorted(roots) == [Fraction(-3), Fraction(1, 2)]
        roots, rest = rational_roots([Fraction(-2), Fraction(0), Fraction(1)])
        assert roots == [] and peval(rest, Fraction(1)) == -1
