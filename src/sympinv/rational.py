"""Exact scalar helpers: dual numbers over the rationals.

``Dual(re, eps)`` models re + eps*E with E^2 = 0 and rational components.
Running the whole evaluation pipeline over duals gives exact first-order
variations: pushing a polynomial jet through the point map ``id + E*X`` of an
algebra element and reading the eps-component of an invariant yields its exact
Lie derivative, which must vanish for true invariants.

A dual is stored as three Python ints ``(a, b, d)`` on one denominator:
re = a/d and eps = b/d, with d > 0 and gcd(a, b, d) = 1.  That form is unique,
so equal duals have equal triples and ``==`` compares ints.  A sum or a
product is a few int operations and one three-argument ``math.gcd``, where a
pair of ``Fraction``s took three or four ``Fraction`` operations, each with its
own gcd.  An int or ``Fraction`` operand is lifted to a dual first.  ``re`` and
``eps`` are read as ``Fraction``s.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

_new = object.__new__


def _make(a, b, d):
    """The dual (a + b*E)/d of a reduced triple, d > 0."""
    x = _new(Dual)
    x._a = a
    x._b = b
    x._d = d
    return x


def _reduce(a, b, d):
    """The dual (a + b*E)/d for any ints with d > 0."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    return _make(a, b, d)


def _as_fraction(x):
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"cannot build an exact dual from {type(x).__name__}")


class Dual:
    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re, eps=0):
        re, eps = _as_fraction(re), _as_fraction(eps)
        p, q = re.numerator, re.denominator
        r, s = eps.numerator, eps.denominator
        # over d = lcm(q, s) the triple is reduced: the full power of a prime
        # in d divides q or s, and so not the numerator over that denominator
        d = q * s // gcd(q, s)
        self._a = p * (d // q)
        self._b = r * (d // s)
        self._d = d

    @property
    def re(self):
        return Fraction(self._a, self._d)

    @property
    def eps(self):
        return Fraction(self._b, self._d)

    def __repr__(self):
        return f"Dual({self.re}, {self.eps})"

    def _lift(self, other):
        if isinstance(other, Dual):
            return other
        if isinstance(other, (int, Fraction)):
            return Dual(other)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        a, b, d = self._a, self._b, self._d
        return _reduce(a * o._d + o._a * d, b * o._d + o._b * d, d * o._d)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self._a, -self._b, self._d)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + -o

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o + -self

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        a, b, d = self._a, self._b, self._d
        return _reduce(a * o._a, a * o._b + b * o._a, d * o._d)

    __rmul__ = __mul__

    def reciprocal(self):
        a, b, d = self._a, self._b, self._d
        if a == 0:
            raise ZeroDivisionError("dual number with zero real part")
        # d / (a + b*E) = (d*a - d*b*E) / a^2
        return _reduce(d * a, -d * b, a * a)

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.reciprocal()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self.reciprocal()

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.reciprocal() ** (-n)
        if n == 0:
            return _make(1, 0, 1)
        # (a + b*E)^n = a^n + n*a^(n-1)*b*E
        a, b, d = self._a, self._b, self._d
        lower = a ** (n - 1)
        return _reduce(lower * a, n * lower * b, d**n)

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self._a == o._a and self._b == o._b and self._d == o._d

    def __hash__(self):
        return hash((self.re, self.eps))

    def __abs__(self):
        # ordering proxy used only for pivot selection
        return abs(self.re)

    def __float__(self):
        return self._a / self._d
