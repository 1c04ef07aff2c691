"""``rational.Dual`` against the Fraction-pair dual it replaced.

``FractionPairDual`` is the earlier class, kept as the reference model: it
stores re and eps as two ``Fraction``s and runs every operation through
``Fraction`` arithmetic.  ``Dual`` stores one integer triple (a, b, d) with
re = a/d, eps = b/d, d > 0 and gcd(a, b, d) = 1, and must give the same value,
repr, hash, ``abs`` and ``float`` for every operation and operand order, raise
where the reference raises, and keep its triple in that canonical form.
"""

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympinv.rational import Dual


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot build an exact dual from {type(x).__name__}")


class FractionPairDual:
    __slots__ = ("re", "eps")

    def __init__(self, re, eps=0):
        self.re = _as_fraction(re)
        self.eps = _as_fraction(eps)

    def __repr__(self):
        return f"Dual({self.re}, {self.eps})"

    def _lift(self, other):
        if isinstance(other, FractionPairDual):
            return other
        if isinstance(other, (int, Fraction)):
            return FractionPairDual(other)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return FractionPairDual(self.re + o.re, self.eps + o.eps)

    __radd__ = __add__

    def __neg__(self):
        return FractionPairDual(-self.re, -self.eps)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return FractionPairDual(self.re - o.re, self.eps - o.eps)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return FractionPairDual(o.re - self.re, o.eps - self.eps)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return FractionPairDual(self.re * o.re, self.re * o.eps + self.eps * o.re)

    __rmul__ = __mul__

    def reciprocal(self):
        if self.re == 0:
            raise ZeroDivisionError("dual number with zero real part")
        inv = Fraction(1) / self.re
        return FractionPairDual(inv, -self.eps * inv * inv)

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
        out = FractionPairDual(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.eps == o.eps

    def __hash__(self):
        return hash((self.re, self.eps))

    def __abs__(self):
        return abs(self.re)

    def __float__(self):
        return float(self.re)


# --- strategies -----------------------------------------------------------------

rationals = st.one_of(st.integers(-10**12, 10**12),
                      st.fractions(max_denominator=10**6),
                      st.sampled_from([0, 1, -1, Fraction(0), Fraction(1, 2)]))


@st.composite
def operands(draw):
    """(Dual, reference) for a dual operand, or (x, x) for an int or Fraction."""
    if draw(st.booleans()):
        re, eps = draw(rationals), draw(rationals)
        return Dual(re, eps), FractionPairDual(re, eps)
    x = draw(rationals)
    return x, x


def outcome(fn, *args):
    try:
        return fn(*args)
    except ZeroDivisionError as err:
        return ZeroDivisionError, str(err)


def assert_canonical(x):
    a, b, d = x._a, x._b, x._d
    assert all(type(v) is int for v in (a, b, d))
    assert d > 0 and math.gcd(a, b, d) == 1
    assert (Fraction(a, d), Fraction(b, d)) == (x.re, x.eps)


def assert_agrees(got, want):
    """``got`` (a Dual) matches ``want`` (a reference dual) in every reading."""
    if isinstance(want, FractionPairDual):
        assert type(got) is Dual
        assert (got.re, got.eps) == (want.re, want.eps)
        assert type(got.re) is Fraction and type(got.eps) is Fraction
        assert repr(got) == repr(want)
        assert hash(got) == hash(want)
        assert abs(got) == abs(want) and type(abs(got)) is Fraction
        assert float(got) == float(want)
        assert_canonical(got)
    else:  # a raised ZeroDivisionError and its message
        assert got == want


BINARY = (operator.add, operator.sub, operator.mul, operator.truediv)


class TestAgainstTheReference:
    @settings(max_examples=400, deadline=None)
    @given(operands(), operands())
    def test_binary_operations_in_both_orders(self, x, y):
        (xn, xr), (yn, yr) = x, y
        if not isinstance(xr, FractionPairDual) and not isinstance(yr, FractionPairDual):
            return  # no dual among the operands
        for op in BINARY:
            assert_agrees(outcome(op, xn, yn), outcome(op, xr, yr))
            assert_agrees(outcome(op, yn, xn), outcome(op, yr, xr))
        assert (xn == yn) == (xr == yr)
        assert (yn == xn) == (yr == xr)
        assert (xn != yn) == (xr != yr)

    @settings(max_examples=300, deadline=None)
    @given(rationals, rationals, st.integers(-6, 6))
    def test_unary_operations_and_powers(self, re, eps, n):
        x, ref = Dual(re, eps), FractionPairDual(re, eps)
        assert_agrees(x, ref)
        assert_agrees(-x, -ref)
        assert_agrees(outcome(Dual.reciprocal, x), outcome(FractionPairDual.reciprocal, ref))
        assert_agrees(outcome(operator.pow, x, n), outcome(operator.pow, ref, n))
        assert (x == re) == (ref == re) and (re == x) == (re == ref)

    @settings(max_examples=300, deadline=None)
    @given(rationals, rationals, st.integers(1, 10**6), st.integers(1, 10**6))
    def test_equal_values_have_one_triple(self, re, eps, k, m):
        """The same value built four ways: directly, from two parts, from a
        scaled pair and through a product and its quotient."""
        x = Dual(re, eps)
        ways = [Dual(re) + Dual(0, eps),
                Dual(Fraction(re) * k, Fraction(eps) * k) / k,
                Dual(re, eps) * Dual(m, Fraction(m, k)) / Dual(m, Fraction(m, k))]
        for y in ways:
            assert (y._a, y._b, y._d) == (x._a, x._b, x._d)
            assert y == x and hash(y) == hash(x)
        assert_canonical(x)

    def test_zero_triples(self):
        for x in (Dual(0), Dual(5, 3) - Dual(5, 3), Dual(Fraction(1, 3)) * 0,
                  Dual(0, Fraction(2, 7)) ** 2):
            assert (x._a, x._b, x._d) == (0, 0, 1)
            assert x == 0 and 0 == x and x == Fraction(0)

    def test_other_types_are_rejected_as_before(self):
        for bad in (0.5, "1", None, Dual(1)):
            with pytest.raises(TypeError) as got:
                Dual(bad)
            with pytest.raises(TypeError) as want:
                FractionPairDual(bad if not isinstance(bad, Dual) else FractionPairDual(1))
            assert str(got.value) == str(want.value).replace("FractionPairDual", "Dual")
        for op in (*BINARY, operator.pow):
            with pytest.raises(TypeError):
                op(Dual(1, 2), 0.5)
            with pytest.raises(TypeError):
                op(0.5, Dual(1, 2))
        with pytest.raises(TypeError):
            Dual(4, 1) ** Fraction(1, 2)
        assert (Dual(1) == 1.0) is False and Dual(1) != 1.0
