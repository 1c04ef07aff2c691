"""Truncated power-series scalars carrying derivative data.

`MultiJet` stores the Taylor coefficients c_sigma = d^sigma f / sigma! of a
function of p variables around a basepoint, over the graded-lex monomials of
:mod:`sympinv._tables`, and implements exact truncated arithmetic through its
order.  Every jet is a `MultiJet`: a curve's jets are the one-variable ones,
``MultiJet(1, order, coeffs, (t0,))``, whose coefficient k is f^(k)(t0)/k!, and
d/dt is ``partial(0)``.  Two coefficient modes exist:

* float mode - coefficients in a float64 numpy vector, products computed by
  the numpy kernel of :mod:`sympinv.kernels`;
* exact mode - coefficients in a plain list of objects supporting field
  operations (``fractions.Fraction``, dual numbers, ...), used by the
  exact-rational oracles.

Every downstream invariant evaluator is written against ordinary ``+ - * /``
scalars, so the same formula runs on numbers and on jets of either mode.

Arithmetic results are built by ``_new``, which skips the public
constructor's conversions and passes the left operand's basepoint object
along; operands that share that object skip the basepoint tolerance check.
Public construction rejects a non-finite basepoint, so a shared object is
always a valid one.

The reciprocal runs the graded recurrence r_0 = 1/a_0,
r_d = -(sum_{e>=1} a_e r_{d-e})_d / a_0 over homogeneous parts (Griewank and
Walther, *Evaluating Derivatives*, 2nd ed., ch. 13): degree d of a * r
vanishes for d >= 1, and its pairs with e = 0 hold r_d alone.

Composition with an inner map g takes the monomial jets h^sigma of
h = g - g(0) once and evaluates every outer against them (``compose_many``):
the inversion composes all p components of its nonlinear part with the same
inner map on each pass, and a pushforward all dependent jets.  In float mode
both run on coefficient arrays, not on jets: the monomial jets are the rows
of one array, built and met by the outers in one private routine
(``_compose_rows``) through one ``np.einsum`` contraction rather than a BLAS
``gemm``, so results do not depend on the BLAS thread count.  A row of
degree d vanishes below degree d, and h has an exact zero constant term, so
its product runs over the pairs of the product table whose left factor has
degree >= d - 1 and whose right factor is not the constant monomial
(``_tables.suffix_tables``).  For finite coefficients every skipped pair
adds +-0, so every coefficient keeps the bits of the whole-table product.

``invert_series`` runs its growing-order passes on one (p, ncoeff) float64
array and builds the p result jets once at the end; exact mode keeps the
jet-level passes, which are the oracle of the float arithmetic.

The frames do linear algebra over one ring of scalars (floats, fractions,
duals or jets of either mode), and this module keeps the helpers they share:
``_sum`` (a left-to-right sum), ``_matvec`` (a float matrix times a vector of
scalars, skipping zero entries), ``_const_float`` (the float of a constant
term, the real part of a dual), ``_one_like`` (the ring's one) and
``_is_exact``.  A sum is seeded with its first term, never with 0, because
``0.0 + (-0.0)`` is ``+0.0``; and every product keeps its operand order,
because a jet product sums its pairs in table order.  The helpers are
private: the benchmark's tracer wraps every public function of the frame
modules that import them.
"""
from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

import numpy as np

from . import _tables
from .errors import (
    BasepointMismatch,
    DivisionByZeroJet,
    DomainError,
    OrderExhausted,
    SingularLinearPart,
)
from .kernels import mul_table
from .rational import Dual

_DIV_FLOOR = 1e-300  # constant terms below this are machine-degenerate divisors


def _is_plain_number(x):
    return isinstance(x, (int, float, np.integer, np.floating))


def _same_base(a, b, exact):
    if exact:
        return a == b
    return abs(a - b) <= 1e-9 * (1.0 + abs(a) + abs(b))


def _check_basepoint(basepoint):
    """Reject NaN and infinite coordinates, which no basepoint check would catch
    once both operands share the basepoint object."""
    for c in basepoint:
        if _is_plain_number(c) and not math.isfinite(c):
            raise DomainError(f"non-finite basepoint {basepoint!r}")


def _factorial_multi(sigma):
    out = 1
    for e in sigma:
        out *= math.factorial(e)
    return out


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------

class MultiJet:
    """Dense truncated series in one or several variables over graded-lex monomials."""

    __slots__ = ("nvars", "order", "coeffs", "basepoint", "exact")

    def __init__(self, nvars, order, coeffs, basepoint, exact=None):
        self.nvars = nvars
        self.order = order
        if exact is None:
            exact = not all(_is_plain_number(c) for c in coeffs)
        if exact:
            self.coeffs = list(coeffs)
        else:
            self.coeffs = np.asarray(coeffs, dtype=np.float64)
        if len(self.coeffs) != _tables.count(nvars, order):
            raise ValueError("coefficient vector does not match the dense layout")
        self.basepoint = tuple(basepoint)
        _check_basepoint(self.basepoint)
        self.exact = exact

    # -- construction -------------------------------------------------------

    @classmethod
    def constant(cls, value, nvars, order, basepoint, exact=False):
        zero = value * 0
        n = _tables.count(nvars, order)
        return cls(nvars, order, [value] + [zero] * (n - 1), basepoint,
                   exact=exact or not _is_plain_number(value))

    @classmethod
    def variable(cls, i, nvars, order, basepoint, exact=False):
        one = Fraction(1) if exact else 1.0
        zero = one * 0
        n = _tables.count(nvars, order)
        coeffs = [zero] * n
        coeffs[0] = basepoint[i]
        if order >= 1:
            pos = _tables.index_of(nvars, order)[
                tuple(1 if k == i else 0 for k in range(nvars))
            ]
            coeffs[pos] = one
        return cls(nvars, order, coeffs, basepoint, exact=exact)

    @classmethod
    def from_partials(cls, partials, nvars, order, basepoint, exact=False):
        """Build from a map multi-index -> partial derivative value."""
        n = _tables.count(nvars, order)
        zero = Fraction(0) if exact else 0.0
        coeffs = [zero] * n
        pos = _tables.index_of(nvars, order)
        for sigma, val in partials.items():
            fac = _factorial_multi(sigma)
            if exact and isinstance(val, (int, Fraction)):
                coeffs[pos[tuple(sigma)]] = Fraction(val, fac)
            else:
                coeffs[pos[tuple(sigma)]] = val / fac
        return cls(nvars, order, coeffs, basepoint, exact=exact)

    # -- queries --------------------------------------------------------------

    def value(self):
        return self.coeffs[0]

    def coefficient(self, sigma):
        return self.coeffs[_tables.index_of(self.nvars, self.order)[tuple(sigma)]]

    def partial_at(self, sigma):
        """Partial derivative d^sigma f at the basepoint."""
        if sum(sigma) > self.order:
            raise OrderExhausted(f"partial {sigma} of an order-{self.order} jet")
        return self.coefficient(sigma) * _factorial_multi(sigma)

    def truncate(self, new_order):
        if new_order >= self.order:
            return self
        n = _tables.count(self.nvars, new_order)
        return self._new(self.coeffs[:n], new_order, self.exact)

    def partial(self, direction):
        """Jet of df/dx_direction (one order lower)."""
        if self.order < 1:
            raise OrderExhausted("cannot differentiate an order-0 jet")
        src, dst, mult = _tables.partial_table(self.nvars, self.order, direction)
        n = _tables.count(self.nvars, self.order - 1)
        if self.exact:
            zero = _zero_like(self.coeffs[0])
            out = [zero] * n
            for s, d, m in zip(src, dst, mult):
                out[d] = out[d] + self.coeffs[s] * int(m)
            return self._new(out, self.order - 1, True)
        out = np.zeros(n)
        out[dst] = self.coeffs[src] * mult
        return self._new(out, self.order - 1, False)

    def __repr__(self):
        return (f"MultiJet(nvars={self.nvars}, order={self.order}, "
                f"basepoint={self.basepoint!r})")

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MultiJet):
            if other.nvars != self.nvars:
                raise TypeError("variable counts differ")
            exact = self.exact or other.exact
            if (other.basepoint is not self.basepoint
                    and not all(_same_base(a, b, exact)
                                for a, b in zip(self.basepoint, other.basepoint))):
                raise BasepointMismatch(
                    f"basepoints {self.basepoint!r} and {other.basepoint!r}"
                )
            n_ord = min(self.order, other.order)
            a = self.truncate(n_ord)
            b = other.truncate(n_ord)
            return a, b, n_ord, exact
        return None

    def _new(self, coeffs, order, exact):
        """Result at this jet's basepoint object, bypassing ``__init__``.

        ``coeffs`` must already be a list (exact) or a float64 vector (float).
        """
        if len(coeffs) != _tables.count(self.nvars, order):
            raise ValueError("coefficient vector does not match the dense layout")
        out = MultiJet.__new__(MultiJet)
        out.nvars = self.nvars
        out.order = order
        out.coeffs = coeffs
        out.basepoint = self.basepoint
        out.exact = exact
        return out

    def __add__(self, other):
        pair = self._coerce(other)
        if pair is not None:
            a, b, n_ord, exact = pair
            if exact:
                return self._new([x + y for x, y in zip(a.coeffs, b.coeffs)], n_ord, True)
            return self._new(a.coeffs + b.coeffs, n_ord, False)
        coeffs = list(self.coeffs) if self.exact else self.coeffs.copy()
        coeffs[0] = coeffs[0] + other
        return self._new(coeffs, self.order, self.exact)

    __radd__ = __add__

    def __neg__(self):
        if self.exact:
            return self._new([-c for c in self.coeffs], self.order, True)
        return self._new(-self.coeffs, self.order, False)

    def __sub__(self, other):
        return self + (-other if isinstance(other, MultiJet) else -1 * other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        pair = self._coerce(other)
        if pair is not None:
            a, b, n_ord, exact = pair
            pi, pj, pr = _tables.product_table(self.nvars, n_ord)
            if exact:
                ac, bc = a.coeffs, b.coeffs
                zero = _zero_like(ac[0] * bc[0])
                out = [zero] * _tables.count(self.nvars, n_ord)
                for i, j, r in zip(pi, pj, pr):
                    out[r] = out[r] + ac[i] * bc[j]
                return self._new(out, n_ord, True)
            n = _tables.count(self.nvars, n_ord)
            return self._new(mul_table(a.coeffs, b.coeffs, pi, pj, pr, n), n_ord, False)
        if self.exact:
            return self._new([c * other for c in self.coeffs], self.order, True)
        return self._new(self.coeffs * float(other), self.order, False)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, MultiJet):
            return self * other.reciprocal()
        return self * _scalar_reciprocal(other, self.exact)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def reciprocal(self):
        """1/f by the graded recurrence, one homogeneous degree at a time.

        r_0 = 1/a_0 and r_d = -(sum_{e>=1} a_e r_{d-e})_d / a_0, over the
        pairs of ``_tables.reciprocal_plan``: O(one product) work and no
        intermediate jets.  Float mode sums each degree with one
        ``np.bincount`` and divides it by a_0; in one variable this is the
        scalar Taylor recurrence r_k = -(a_1 r_{k-1} + ... + a_k r_0) / a_0,
        bit for bit.
        """
        a = self.coeffs
        c0 = a[0]
        plan = _tables.reciprocal_plan(self.nvars, self.order)
        if self.exact:
            if c0 == 0:
                raise DivisionByZeroJet("exact divisor with zero constant term")
            r = [_scalar_reciprocal(c0, True)]
            zero = _zero_like(c0 * r[0])
            for pi, pj, pr, width in plan:
                acc = [zero] * width
                for i, j, k in zip(pi, pj, pr):
                    acc[k] = acc[k] + a[i] * r[j]
                r.extend(-s / c0 for s in acc)
            return self._new(r, self.order, True)
        if abs(c0) < _DIV_FLOOR:
            raise DivisionByZeroJet(f"divisor constant term {c0!r}")
        r = np.empty(len(a))
        r[0] = 1.0 / c0
        start = 1
        for pi, pj, pr, width in plan:
            r[start:start + width] = -np.bincount(pr, weights=a[pi] * r[pj], minlength=width) / c0
            start += width
        return self._new(r, self.order, False)

    def __pow__(self, expo):
        return _jet_pow(self, expo)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _zero_like(x):
    return x * 0


def _scalar_reciprocal(x, exact):
    if isinstance(x, (int, Fraction)) and exact:
        return Fraction(1, 1) / x
    if hasattr(x, "reciprocal"):
        return x.reciprocal()
    return 1.0 / float(x)


def _one_like(x):
    """The one of x's ring: a constant jet for a jet, 1.0 for a plain number."""
    if isinstance(x, MultiJet):
        return _const_like(x, _one_like(x.coeffs[0]))
    if isinstance(x, Fraction):
        return Fraction(1)
    if _is_plain_number(x):
        return 1.0
    return x * 0 + 1


# _sum(terms): terms[0] + terms[1] + ... from the left, seeded with the first
# term.  A partial, not a def, so that a call adds no Python frame.
_sum = functools.partial(functools.reduce, operator.add)


def _matvec(matrix, vec):
    """``matrix @ vec`` for a float matrix and a vector of scalars or jets.

    Each row sums ``vec[j] * m`` over its nonzero entries m in column order;
    a row without one gives ``vec[0] * 0.0``.
    """
    out = []
    for row in matrix:
        terms = [x * m for x, m in zip(vec, row) if m != 0.0]
        out.append(_sum(terms) if terms else vec[0] * 0.0)
    return out


def _const_float(x):
    """The float of the constant term of a scalar or jet; a dual gives its real part."""
    c = x.coeffs[0] if isinstance(x, MultiJet) else x
    return float(getattr(c, "re", c))


def _is_exact(values):
    """Whether any value is exact: a Fraction, a Dual or an exact-mode jet."""
    for v in values:
        if isinstance(v, (Fraction, Dual)) or (isinstance(v, MultiJet) and v.exact):
            return True
    return False


def divide_all(values, divisor):
    """``[v / divisor for v in values]``, with one reciprocal for a jet divisor.

    On a jet divisor d, ``v / d`` is ``v * d.reciprocal()`` for a jet v and
    ``d.reciprocal() * v`` for a scalar v, so the results are the same bits.
    A scalar divisor keeps ``/``: float a / b and a * (1 / b) differ.
    """
    if not _is_jet(divisor):
        return [v / divisor for v in values]
    inv = divisor.reciprocal()
    return [v * inv if _is_jet(v) else inv * v for v in values]


def _const_like(jet, value):
    return MultiJet.constant(value, jet.nvars, jet.order, jet.basepoint, exact=jet.exact)


def _horner(jet_h, series_coeffs):
    """Sum series_coeffs[k] * jet_h^k, jet_h nilpotent, by Horner from the top."""
    res = _const_like(jet_h, series_coeffs[-1])
    for c in reversed(series_coeffs[:-1]):
        res = res * jet_h + c
    return res


def _jet_pow(x, expo):
    if isinstance(expo, (int, np.integer)):
        expo = int(expo)
        if expo < 0:
            return x.reciprocal() ** (-expo)
        res = _one_like(x)
        base = x
        while expo:
            if expo & 1:
                res = res * base
            base = base * base if expo > 1 else base
            expo >>= 1
        return res
    if isinstance(expo, Fraction):
        if expo.denominator == 1:
            return x ** int(expo)
        return _binomial_series(x, expo)
    if isinstance(expo, float) and float(expo).is_integer():
        return x ** int(expo)
    raise DomainError(f"unsupported exponent {expo!r}: integer or Fraction required")


def _nth_root_scalar(c0, q, exact):
    """Real q-th root of the constant term; exact mode demands a perfect power."""
    if exact:
        fr = Fraction(c0)
        if fr < 0 and q % 2 == 0:
            raise DomainError("even root of a negative constant term")
        sign = -1 if fr < 0 else 1
        num = _int_root(abs(fr.numerator), q)
        den = _int_root(fr.denominator, q)
        if num is None or den is None:
            raise DomainError(
                f"{c0!r} is not a perfect {q}-th power; exact mode needs one"
            )
        return Fraction(sign * num, den)
    c0 = float(c0)
    if c0 < 0:
        if q % 2 == 0:
            raise DomainError("even root of a negative constant term")
        return -((-c0) ** (1.0 / q))
    return c0 ** (1.0 / q)


def _int_root(n, q):
    if n == 0:
        return 0
    r = round(n ** (1.0 / q))
    for cand in (r - 1, r, r + 1):
        if cand >= 0 and cand**q == n:
            return cand
    return None


def _binomial_series(x, expo):
    """x**expo for a non-integer rational exponent via (1+h)^expo around c0."""
    c0 = x.coeffs[0]
    exact = x.exact
    if exact:
        if c0 == 0:
            raise DomainError("rational power of a jet with zero constant term")
        root = _nth_root_scalar(c0, expo.denominator, True)
        lead = root ** expo.numerator
    else:
        if abs(c0) < _DIV_FLOOR:
            raise DomainError("rational power of a jet with zero constant term")
        if c0 < 0 and expo.denominator % 2 == 0:
            raise DomainError("even root of a negative constant term")
        root = _nth_root_scalar(c0, expo.denominator, False)
        lead = root ** expo.numerator
    order = x.order
    h = x / c0 - 1
    coeffs = _binomial_coeffs(expo, order, exact)
    return _horner(h, coeffs) * lead


def _binomial_coeffs(expo, order, exact):
    """binom(expo, k) for k = 0..order in the requested scalar mode."""
    one = Fraction(1) if exact else 1.0
    e = expo if exact else float(expo)
    coeffs = [one]
    acc = one
    for k in range(1, order + 1):
        acc = acc * (e - (k - 1)) / k
        coeffs.append(acc)
    return coeffs


def _is_jet(x):
    return isinstance(x, MultiJet)


def _analytic(x, float_fn, series_fn, exact_ok=False, name=""):
    if _is_jet(x):
        if x.exact and not exact_ok:
            raise DomainError(f"{name} is not available in exact mode")
        c0 = x.coeffs[0]
        if not x.exact and not math.isfinite(c0):
            raise DomainError(f"{name} of a non-finite value")
        coeffs = series_fn(c0, x.order, x.exact)
        return _horner(x - c0, coeffs)
    if isinstance(x, Fraction) and not exact_ok:
        raise DomainError(f"{name} is not available in exact mode")
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"{name} of a non-finite value")
    return float_fn(x)


def exp(x):
    def series(c0, order, exact):
        e0 = math.exp(float(c0))
        return [e0 / math.factorial(k) for k in range(order + 1)]
    return _analytic(x, math.exp, series, name="exp")


def log(x):
    def series(c0, order, exact):
        c0 = float(c0)
        if c0 <= 0:
            raise DomainError("log of a non-positive constant term")
        out = [math.log(c0)]
        for k in range(1, order + 1):
            out.append((-1) ** (k + 1) / (k * c0**k))
        return out
    if not _is_jet(x) and float(x) <= 0:
        raise DomainError("log of a non-positive argument")
    return _analytic(x, math.log, series, name="log")


def sin(x):
    def series(c0, order, exact):
        s, c = math.sin(float(c0)), math.cos(float(c0))
        cycle = [s, c, -s, -c]
        return [cycle[k % 4] / math.factorial(k) for k in range(order + 1)]
    return _analytic(x, math.sin, series, name="sin")


def cos(x):
    def series(c0, order, exact):
        s, c = math.sin(float(c0)), math.cos(float(c0))
        cycle = [c, -s, -c, s]
        return [cycle[k % 4] / math.factorial(k) for k in range(order + 1)]
    return _analytic(x, math.cos, series, name="cos")


def sqrt(x):
    if _is_jet(x):
        if not x.exact and float(x.coeffs[0]) < 0:
            raise DomainError("sqrt of a negative constant term")
        return _binomial_series(x, Fraction(1, 2))
    if isinstance(x, Fraction):
        return _nth_root_scalar(x, 2, True)
    if float(x) < 0:
        raise DomainError("sqrt of a negative argument")
    return math.sqrt(float(x))


def cbrt(x):
    if _is_jet(x):
        return _binomial_series(x, Fraction(1, 3))
    if isinstance(x, Fraction):
        return _nth_root_scalar(x, 3, True)
    return _nth_root_scalar(float(x), 3, False)


# ---------------------------------------------------------------------------
# composition and inversion
# ---------------------------------------------------------------------------

def compose_many(outers, inners):
    """Jets of outer(g_1(y),...,g_p(y)) for every MultiJet outer in p variables.

    With h = g - g(0), the composite is sum_sigma c_sigma h^sigma, and the
    monomial jets h^sigma depend on the inners alone: they are built once,
    each as h^parent * h_first along ``_tables.compose_plan``, and every
    outer is evaluated against them.  Result i has order
    min(outers[i].order, order of the inners), the basepoint object of the
    first inner.

    Float mode stacks the outers' coefficients into one array and the
    inners' h into another and hands both to ``_compose_rows``, the array
    routine the float inversion uses too: it builds the monomial jets as the
    rows of one array, each over the product-table pairs of
    ``_tables.suffix_tables`` (no pair below the row's degree, none with the
    constant monomial of h), and takes all outers in one contraction.  For
    finite coefficients each result has the bits of the whole-table build.
    Exact mode sums ``acc + h^sigma * c_sigma`` in monomial order on jets.
    A non-finite float inner value raises ``DomainError``: the basepoint
    tolerance check alone passes an infinite one (``inf <= inf``).
    """
    outers = list(outers)
    inners = list(inners)
    p = len(inners)
    exact = any(o.exact for o in outers) or any(g.exact for g in inners)
    if not exact and not all(math.isfinite(g.value()) for g in inners):
        raise DomainError(f"non-finite inner value {[g.value() for g in inners]!r}")
    for outer in outers:
        if outer.nvars != p:
            raise TypeError(f"outer expects {outer.nvars} inner jets, got {p}")
        for c, g in zip(outer.basepoint, inners):
            if not _same_base(g.value(), c, exact):
                raise BasepointMismatch(
                    f"inner value {g.value()!r} != outer basepoint coordinate {c!r}"
                )
    if not outers:
        return []
    inner_order = min(g.order for g in inners)
    orders = [min(o.order, inner_order) for o in outers]
    order = max(orders)

    if exact:
        hs = [(g - g.value()).truncate(order) for g in inners]
        first, parent = _tables.compose_plan(p, order)
        monos = [None] * len(first)
        for r in range(1, len(first)):
            h = hs[first[r]]
            monos[r] = h if parent[r] == 0 else monos[parent[r]] * h
        out = []
        for outer, k in zip(outers, orders):
            acc = _const_like(hs[0].truncate(k), outer.coeffs[0])
            for r in range(1, _tables.count(p, k)):
                acc = acc + monos[r].truncate(k) * outer.coeffs[r]
            out.append(acc)
        return out

    nvars = inners[0].nvars
    n_cols = _tables.count(nvars, order)
    h = np.stack([g.coeffs[:n_cols] for g in inners])
    h[:, 0] -= h[:, 0]  # g - g(0): +0.0 for a finite value
    stacked = np.zeros((len(outers), _tables.count(p, order)))
    for i, (outer, k) in enumerate(zip(outers, orders)):
        m = _tables.count(p, k)
        stacked[i, :m] = outer.coeffs[:m]
    res = _compose_rows(stacked, h, nvars, order)
    return [inners[0]._new(row[: _tables.count(nvars, k)], k, False)
            for row, k in zip(res, orders)]


def _compose_rows(stacked, h, nvars, order):
    """``stacked @ M`` for the monomial jets M[sigma] = h^sigma, on float arrays.

    ``stacked`` is a C-contiguous (outers, count(p, order)) array of outer
    coefficients in p variables; ``h`` holds p inner rows in the order-``order``
    layout of ``nvars`` variables, each with a zero constant term.  Row sigma
    of M is h^parent * h_first (``_tables.compose_plan``); for degree d >= 2
    the product runs over ``_tables.suffix_tables(nvars, order)[d - 1]``.  The
    product is the ``mul_table`` of this module, looked up at call time.
    ``np.einsum`` without ``optimize`` sums in numpy's own fixed loop order.
    """
    first, parent = _tables.compose_plan(h.shape[0], order)
    deg = _tables.degrees(h.shape[0], order)
    suffixes = _tables.suffix_tables(nvars, order)
    n_cols = h.shape[1]
    basis = np.zeros((len(first), n_cols))
    basis[0, 0] = 1.0
    for r in range(1, len(first)):
        if parent[r] == 0:
            basis[r] = h[first[r]]
        else:
            basis[r] = mul_table(basis[parent[r]], h[first[r]], *suffixes[deg[r] - 1], n_cols)
    return np.einsum("km,mn->kn", stacked, basis)


def _linear_part_matrix(jets):
    p = len(jets)
    pos = _tables.index_of(p, jets[0].order)
    rows = []
    for s in jets:
        rows.append([s.coeffs[pos[tuple(1 if k == j else 0 for k in range(p))]]
                     for j in range(p)])
    return rows


def invert_series(jets):
    """Inverse of a jet map through its order.

    Takes a sequence of p jets in p variables and returns the p jets of the
    inverse map centered at the image point, so
    ``compose_many(jets, invert_series(jets))`` is the identity through order K.
    The p results share one basepoint tuple.

    Writing s(x) = b + L(x - a) + N(x - a) with N of order >= 2, the inverse
    t solves t = a + L^-1 (y - b - N(t - a)).  Starting from the affine t_1,
    pass k = 2..K evaluates the right-hand side at order k only: N's order-k
    terms depend on t through order k - 1 alone, so pass k fixes the order-k
    coefficients and only the last pass works at full order (Griewank and
    Walther, *Evaluating Derivatives*, 2nd ed., ch. 13).  Exact-mode results
    equal those of K - 1 full-order passes.

    Float mode runs the passes on one (p, ncoeff) float64 array and keeps the
    bits of the jet-level passes that exact mode still runs: the affine step
    adds ``rhs[j] * Linv[i, j]`` in j order onto rows holding a_i at slot 0
    and a_i * 0 elsewhere, as a constant jet does; N is s with slots 0..p
    set to +0.0 (the jet-level N may hold -0.0 there, but y - N(t) gives the
    same bits for either zero); pass k zero-pads the order-(k-1) rows and
    composes through ``_compose_rows``.  A non-finite coefficient of
    the map raises ``DomainError`` before the linear part is inverted, and so
    does an inverse that overflows, so no non-finite jet is returned.
    """
    jets = list(jets)
    p = len(jets)
    if any(g.nvars != p for g in jets):
        raise TypeError("need p jets in p variables")
    order = min(g.order for g in jets)
    jets = [g.truncate(order) for g in jets]
    if any(g.exact for g in jets):
        return _invert_exact(jets, order)

    s = np.stack([g.coeffs for g in jets])
    if not np.isfinite(s).all():
        raise DomainError(f"non-finite coefficient in a jet map with value {s[:, 0].tolist()}")
    a = np.array(jets[0].basepoint, dtype=np.float64)
    linv = _invert_matrix(s[:, 1:p + 1], False)  # monomial x_j sits at index 1 + j
    n_part = s.copy()
    n_part[:, :p + 1] = 0.0

    def affine_step(rhs):
        t = np.zeros(rhs.shape)
        t[:, 0] = 1.0
        t *= a[:, None]
        for j in range(p):
            t += linv[:, j, None] * rhs[j]
        return t

    # y - b is the identity; pass k zero-pads the order-(k-1) rows into h,
    # whose slot 0 keeps +0.0: t - t(0) for a finite t
    t = affine_step(np.eye(p, p + 1, 1))
    for k in range(2, order + 1):
        n_k = _tables.count(p, k)
        h = np.zeros((p, n_k))
        h[:, 1:t.shape[1]] = t[:, 1:]
        n_of_t = _compose_rows(n_part[:, :n_k].copy(), h, p, k)
        t = affine_step(np.eye(p, n_k, 1) - n_of_t)
    if not np.isfinite(t).all():
        raise DomainError("the inverse of the jet map overflows")
    base = tuple(s[:, 0])
    return [MultiJet(p, order, row, base, exact=False) for row in t]


def _invert_exact(jets, order):
    """``invert_series`` on jets: the growing-order passes of exact mode."""
    p = len(jets)
    a = jets[0].basepoint
    b = tuple(g.value() for g in jets)
    lin = _linear_part_matrix(jets)
    linv = _invert_matrix(lin, True)

    # target-space coordinate jets
    ys = [MultiJet.variable(j, p, order, b, exact=True) for j in range(p)]
    y_shift = [ys[j] - b[j] for j in range(p)]

    def affine_step(rhs):
        out = []
        for i in range(p):
            acc = _const_like(rhs[0], a[i])
            for j in range(p):
                acc = acc + rhs[j] * linv[i][j]
            out.append(acc)
        return out

    # nonlinear parts N_i = s_i - b_i - L(x - a)
    xs = [MultiJet.variable(j, p, order, a, exact=True) for j in range(p)]
    n_parts = []
    for i in range(p):
        lin_i = _const_like(xs[0], b[i] * 0)
        for j in range(p):
            lin_i = lin_i + (xs[j] - a[j]) * lin[i][j]
        n_parts.append(jets[i] - b[i] - lin_i)

    # growing order: pass k runs at order k on the order-(k-1) result padded
    # with zeros, which cannot reach the order-k terms of N(t)
    t_cur = affine_step([y.truncate(1) for y in y_shift])
    for k in range(2, order + 1):
        n = _tables.count(p, k)
        t_in = [t._new(t.coeffs + [_zero_like(t.coeffs[0])] * (n - len(t.coeffs)), k, True)
                for t in t_cur]
        n_of_t = compose_many(n_parts, t_in)
        t_cur = affine_step([y_shift[j] - n_of_t[j] for j in range(p)])
    return t_cur


def _invert_matrix(rows, exact):
    p = len(rows)
    if not exact:
        mat = np.asarray(rows, dtype=np.float64)
        sv = np.linalg.svd(mat, compute_uv=False)
        if sv[-1] <= 1e-12 * max(sv[0], 1e-300):
            raise SingularLinearPart(f"relative smallest singular value {sv[-1]/max(sv[0],1e-300):.3e}")
        return np.linalg.inv(mat)
    # exact Gauss-Jordan; pivots must be invertible (nonzero "real" part for
    # dual numbers), but elimination must clear every nonzero entry including
    # pure-epsilon ones
    aug = [list(r) + [_one_like(r[0]) if i == j else _zero_like(r[0])
                      for j in range(p)] for i, r in enumerate(rows)]
    for col in range(p):
        piv = None
        for r in range(col, p):
            if not _exact_is_zero(aug[r][col]):
                piv = r
                break
        if piv is None:
            raise SingularLinearPart("exact linear part is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        pval = aug[col][col]
        aug[col] = [v / pval for v in aug[col]]
        for r in range(p):
            if r != col and not _fully_zero(aug[r][col]):
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [row[p:] for row in aug]


def _exact_is_zero(x):
    """Not invertible in the exact scalar ring (zero real part)."""
    re = getattr(x, "re", x)
    return re == 0


def _fully_zero(x):
    return x == 0 or (getattr(x, "re", 1) == 0 and getattr(x, "eps", 1) == 0)


# ---------------------------------------------------------------------------
# names bound by bench/tracer.py, their only user
# ---------------------------------------------------------------------------
# The benchmark's tracer wraps these by name and stops when one is missing;
# nothing in sympinv calls them.

TaylorJet = MultiJet


def compose(outer, inner):
    return compose_many([outer], [inner])[0]


def compose_multi(outer, inners):
    return compose_many([outer], inners)[0]
