"""Truncated power-series scalars carrying derivative data.

`MultiJet` stores the Taylor coefficients c_sigma = d^sigma f / sigma! of a
function of p variables around a basepoint, over the graded-lex monomials of
:mod:`sympinv._tables`, and implements exact truncated arithmetic through its
order.  Every jet is a `MultiJet`: a curve's jets are the one-variable ones,
``MultiJet(1, order, coeffs, (t0,))``, whose coefficient k is f^(k)(t0)/k!, and
d/dt is ``partial(0)``.

The coefficients of one jet are one 1-D numpy array, in one of two dtypes:

* float mode - ``float64``;
* exact mode - ``object``, holding elements of a field (``int`` and
  ``fractions.Fraction`` values, dual numbers, ...), used by the
  exact-rational oracles.

Truncated Taylor arithmetic is an operation on coefficient vectors, whatever
the scalar ring (Griewank and Walther, *Evaluating Derivatives*, 2nd ed.,
ch. 13), so every operation has one code path for both dtypes.  The two
modes never combine: an operation, composition or inversion with a float and
an exact operand raises ``TypeError``.  The modes differ where the scalars
do: a float product calls the ``mul_table`` kernel of :mod:`sympinv.kernels`,
which this module looks up at call time, while an object product sums its
pairs with ``np.add.at`` onto the int 0, which keeps the ring of its terms; a
scalar operand of a float jet goes through ``float()``; an exact derivative
scales by int, not float, multipliers; the near-zero-divisor and finiteness
tests are float tests, and an exact divisor is zero when the real part of its
constant term is (a ``Dual(0, e)`` too).
Every downstream invariant evaluator is written against ordinary ``+ - * /``
scalars, so the same formula runs on numbers and on jets of either mode.

The layout of a lower order is a prefix of that of a higher one, so an
operation on jets of orders k <= m reads the first count(p, k) coefficients of
both.  Its result is built by ``_new``, which skips the public constructor's
conversions and passes the left operand's basepoint object along; operands
that share that object skip the basepoint check.  Public construction
rejects a non-finite basepoint and one whose length is not the variable
count, so a shared object is always a valid one in the same variables.
``a - b`` is one subtraction, also with a scalar b: IEEE arithmetic defines
x - y as x + (-y) for every non-NaN operand.  Integer powers square and
multiply from the base itself, not from the one jet: a product never holds
-0.0 and ``1 * y`` is y for a finite y, so powers >= 2 keep the bits of a
start from one.

The reciprocal runs the graded recurrence r_0 = 1/a_0,
r_d = -(sum_{e>=1} a_e r_{d-e})_d / a_0 over homogeneous parts: degree d of
a * r vanishes for d >= 1, and its pairs with e = 0 hold r_d alone.  A float
jet in one variable runs it on Python floats, each degree summed from +0.0 in
the order of ``np.bincount``, so with the same bits.

Composition with an inner map g takes the monomial jets h^sigma of
h = g - g(0) once and evaluates every outer against them (``compose_many``).
It runs on coefficient arrays, not on jets: the monomial jets are the rows of
one array, which one filler (``_fill_degree``) builds one degree at a time
along ``_tables.basis_plan``, and the outers meet them in one ``np.einsum``
contraction (``_contract``) rather than a BLAS ``gemm``, so results do not
depend on the BLAS thread count.  A row of degree d vanishes below degree d,
and h has an exact zero constant term, so its product runs over the pairs of
the product table whose left factor has degree >= d - 1 and whose right
factor is not the constant monomial.  For finite coefficients every skipped
pair adds +-0, so every coefficient keeps the bits of the whole-table
product.  ``invert_series`` keeps one such basis across its growing-order
passes, each adding one degree to it, and a pushforward contracts its
dependent jets against the same basis in the same call (``outers``), so
every Taylor coefficient of every monomial jet is computed once.

A float jet may also be a batch of B jets at B basepoints ("vector forward
mode", Griewank and Walther, ch. 13): coefficients of shape (ncoeff, B), the
batch axis last, and a basepoint of column arrays, one (B,) array per
coordinate.  ``len(a)``, ``a[:n]`` and ``a[0]`` keep their meaning, so
``+ - neg``, scalar operations and the unbatched path run the same code.  A
scalar operand may be a column array (one float per column).  Column c of
every result has the bits of the same operation on jet c alone: the
elementwise IEEE operations are the same, a product is one bincount over the
slots ``pr * B + column`` (``kernels.mul_table``), a derivative scales by
``mult[:, None]``, the one-variable reciprocal runs the Taylor recurrence on
rows, ``_analytic`` and ``_binomial_series`` compute their series per column
with ``math`` on Python floats (numpy's vector ``exp``/``power`` may round
differently), and ``compose_many`` and ``invert_series`` carry the batch axis
through ``np.einsum`` and a stack of SVDs and inverses.  A batch never mixes
with an unbatched jet or one of another width (``TypeError``): batched
constructors take the width from the basepoint, and ``_check_operand``
compares the widths of jets at different basepoint objects.  Exact jets are
never batched.

A batch branches where a single jet would: the zero-divisor, finiteness and
basepoint tests, the domain checks of ``log``, ``sqrt`` and rational powers,
and, in the frames, ``jetlinalg.is_negligible``, pivot choices and rank
tests.  ``_decide`` takes such a condition per column: when every column
agrees the batch goes on as one (and raises for all of them), and when they
differ it raises the private ``_Split``, on which the sampler evaluates its
chunk one sample at a time.  A pivot choice that differs across columns does
not split, since the hypersurface and surface frames make one in nearly
every chunk of generic samples: ``_gather`` takes each column's own row, at
the lowest order of the candidates (a truncation that keeps every remaining
coefficient's bits, so the sampler answers an ``OrderExhausted`` of a batch
with the per-sample loop too).
A per-column scalar computation that raises splits too (``_per_column``).

The frames do linear algebra over one ring of scalars (floats, fractions,
duals or jets of either mode), and this module keeps the helpers they share:
``_sum`` (a left-to-right sum), ``_matvec`` (a float matrix times a vector of
scalars, skipping zero entries), ``_const_float`` (the float of a constant
term, the real part of a dual, a column array for a batch), ``_one_like``
(the ring's one), ``_is_exact`` and the batch helpers ``_decide``, ``_max``,
``_argmax``, ``_first_above`` and ``_gather``.  A sum is seeded with its
first term, never with 0, because ``0.0 + (-0.0)`` is ``+0.0``; and every
product keeps its operand order, because a jet product sums its pairs in
table order.  The helpers are
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
    JetError,
    OrderExhausted,
    SingularLinearPart,
)
from .kernels import mul_table, slot_sums
from .rational import Dual

_DIV_FLOOR = 1e-300  # constant terms below this are machine-degenerate divisors


def _is_plain_number(x):
    return isinstance(x, (int, float, np.integer, np.floating))


# --- batches -------------------------------------------------------------------

class _Split(Exception):
    """A branch point whose batch columns disagree.

    Not a ``JetError``: no degeneracy handler catches it, and the sampler
    answers it by evaluating the chunk one sample at a time.
    """


def _is_batch(x):
    """Whether x is a float array: batched coefficients or one float per column."""
    return isinstance(x, np.ndarray) and x.dtype == np.float64


def _batch_width(basepoint):
    """B for a basepoint of column arrays (a batch of B jets), else None."""
    first = basepoint[0] if basepoint else None
    return len(first) if isinstance(first, np.ndarray) else None


def _decide(cond):
    """A branch condition: a bool, or a bool array with one entry per batch
    column, which must agree (``_Split`` otherwise)."""
    if isinstance(cond, np.ndarray):
        if cond.all():
            return True
        if cond.any():
            raise _Split
        return False
    return cond


def _nonfinite(x):
    """Whether a float, or every column of a column array, is NaN or infinite."""
    if isinstance(x, np.ndarray):
        return _decide(~np.isfinite(x))
    return not math.isfinite(x)


def _has_nonfinite(rows):
    """Whether (p, ncoeff) rows hold a NaN or an infinity; for a batch
    (p, ncoeff, B), whether every column does (``_Split`` if only some do)."""
    if rows.ndim == 2:
        return not np.isfinite(rows).all()
    return _decide(~np.isfinite(rows).all(axis=(0, 1)))


def _per_column(fn, column):
    """``[fn(c) for c in column]`` on the Python floats of a column array.

    An unbatched jet computes these scalars with ``math`` on floats; numpy's
    vector kernels for the same functions may round differently.  A column
    where fn raises sends the chunk to the per-sample loop.
    """
    try:
        return [fn(c) for c in column.tolist()]
    except (ArithmeticError, ValueError, JetError) as err:
        raise _Split from err


def _same_base(a, b, exact):
    if exact:
        return a == b
    return _decide(abs(a - b) <= 1e-9 * (1.0 + abs(a) + abs(b)))


def _check_basepoint(basepoint):
    """Reject NaN and infinite coordinates, which no basepoint check would catch
    once both operands share the basepoint object."""
    for c in basepoint:
        if _is_plain_number(c):
            if not math.isfinite(c):
                raise DomainError(f"non-finite basepoint {basepoint!r}")
        elif _is_batch(c) and _decide(~np.isfinite(c)):
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
    # numpy defers to the jet's reflected operator, so column array * jet
    # is a batched jet, not an object array of jets
    __array_ufunc__ = None

    def __init__(self, nvars, order, coeffs, basepoint, exact=None):
        self.nvars = nvars
        self.order = order
        if exact is None:
            exact = not (_is_batch(coeffs) or all(_is_plain_number(c) for c in coeffs))
        if exact:
            self.coeffs = np.array(coeffs, dtype=object)
        else:
            self.coeffs = np.asarray(coeffs, dtype=np.float64)
        self.basepoint = tuple(basepoint)
        if len(self.basepoint) != nvars:
            raise ValueError(f"basepoint {self.basepoint!r} of a jet in {nvars} variables")
        n = _tables.count(nvars, order)
        width = _batch_width(self.basepoint)
        layout = (n,) if width is None else (n, width)
        if self.coeffs.shape != layout or exact and width is not None:
            raise ValueError("coefficient vector does not match the dense layout")
        _check_basepoint(self.basepoint)
        self.exact = exact

    # -- construction -------------------------------------------------------

    @classmethod
    def constant(cls, value, nvars, order, basepoint, exact=False):
        zero = value * 0
        n = _tables.count(nvars, order)
        width = _batch_width(basepoint)
        if width is not None:  # value: a float or one per column
            coeffs = np.empty((n, width))
            coeffs[0] = value
            coeffs[1:] = zero
            return cls(nvars, order, coeffs, basepoint, exact=False)
        return cls(nvars, order, [value] + [zero] * (n - 1), basepoint,
                   exact=exact or not _is_plain_number(value))

    @classmethod
    def variable(cls, i, nvars, order, basepoint, exact=False):
        one = Fraction(1) if exact else 1.0
        zero = one * 0
        n = _tables.count(nvars, order)
        width = _batch_width(basepoint)
        coeffs = [zero] * n if width is None else np.zeros((n, width))
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
        src, mult = _tables.partial_table(self.nvars, self.order, direction)
        coeffs = self.coeffs[src]
        if self.exact:
            mult = mult.astype(np.int64)  # a float multiplier makes a float coefficient
        elif coeffs.ndim == 2:
            mult = mult[:, None]
        return self._new(coeffs * mult, self.order - 1, self.exact)

    def __repr__(self):
        return (f"MultiJet(nvars={self.nvars}, order={self.order}, "
                f"basepoint={self.basepoint!r})")

    # -- arithmetic -----------------------------------------------------------

    def _new(self, coeffs, order, exact):
        """Result at this jet's basepoint object, bypassing ``__init__``.

        ``coeffs`` must already be the 1-D float64 (float) or object (exact)
        array of the order's layout.
        """
        out = MultiJet.__new__(MultiJet)
        out.nvars = self.nvars
        out.order = order
        out.coeffs = coeffs
        out.basepoint = self.basepoint
        out.exact = exact
        return out

    def _check_operand(self, other):
        """Raise unless ``other``, a jet at another basepoint object, has this
        jet's variables, mode and batch width and an equal basepoint."""
        if other.nvars != self.nvars:
            raise TypeError("variable counts differ")
        if other.exact != self.exact:
            raise TypeError("a float jet and an exact jet do not mix")
        if other.coeffs.shape[1:] != self.coeffs.shape[1:]:
            raise TypeError("batch widths differ")
        if not all(_same_base(a, b, self.exact)
                   for a, b in zip(self.basepoint, other.basepoint)):
            raise BasepointMismatch(f"basepoints {self.basepoint!r} and {other.basepoint!r}")

    def _scalar(self, x):
        """A scalar operand of a float jet that is not a float (a numpy float
        is one) as a float, or for a batched jet a column array (one float per
        column)."""
        if isinstance(x, np.ndarray):
            if x.shape != self.coeffs.shape[1:]:
                raise TypeError("a column array needs a batched jet of its width")
            return x
        return float(x)

    def __add__(self, other):
        if isinstance(other, MultiJet):
            if other.basepoint is not self.basepoint:
                self._check_operand(other)
            a, b = self.coeffs, other.coeffs
            if len(a) <= len(b):
                return self._new(a + b[:len(a)], self.order, self.exact or other.exact)
            return self._new(a[:len(b)] + b, other.order, self.exact or other.exact)
        coeffs = self.coeffs.copy()
        coeffs[0] = coeffs[0] + (other if self.exact or isinstance(other, float)
                                 else self._scalar(other))
        return self._new(coeffs, self.order, self.exact)

    __radd__ = __add__

    def __neg__(self):
        return self._new(-self.coeffs, self.order, self.exact)

    def __sub__(self, other):
        if isinstance(other, MultiJet):
            if other.basepoint is not self.basepoint:
                self._check_operand(other)
            a, b = self.coeffs, other.coeffs
            if len(a) <= len(b):
                return self._new(a - b[:len(a)], self.order, self.exact or other.exact)
            return self._new(a[:len(b)] - b, other.order, self.exact or other.exact)
        coeffs = self.coeffs.copy()
        coeffs[0] = coeffs[0] - (other if self.exact or isinstance(other, float)
                                 else self._scalar(other))
        return self._new(coeffs, self.order, self.exact)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, MultiJet):
            if other.basepoint is not self.basepoint:
                self._check_operand(other)
            # the pairs of the lower order index only its layout, a prefix
            # of both operands' coefficients
            a, b = self.coeffs, other.coeffs
            if len(a) <= len(b):
                n, order = len(a), self.order
            else:
                n, order = len(b), other.order
            pi, pj, pr = _tables.product_table(self.nvars, order)
            if self.exact or other.exact:
                return self._new(_mul_object(a, b, pi, pj, pr, n), order, True)
            return self._new(mul_table(a, b, pi, pj, pr, n), order, False)
        if not (self.exact or isinstance(other, float)):
            other = self._scalar(other)
        return self._new(self.coeffs * other, self.order, self.exact)

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
        intermediate jets.  Each degree's sum is one ``kernels.slot_sums`` in
        float mode and one ``_mul_object`` in exact mode.  In one variable the
        pairs of degree k are (i, k - i), i = 1..k, so float mode runs the
        scalar Taylor recurrence r_k = -(0.0 + a_1 r_{k-1} + ... + a_k r_0) / a_0
        on Python floats, or on coefficient rows for a batch
        (``_taylor_reciprocal``): the same sum from the same +0.0 in the same
        order, so the same bits.  An exact constant term is a zero divisor
        when its real part is zero (``_exact_is_zero``).
        """
        a = self.coeffs
        c0 = a[0]
        if _exact_is_zero(c0) if self.exact else _decide(abs(c0) < _DIV_FLOOR):
            raise DivisionByZeroJet(f"divisor constant term {c0!r}")
        if self.nvars == 1 and not self.exact:
            rows = a.tolist() if a.ndim == 1 else list(a)
            return self._new(np.array(_taylor_reciprocal(rows)), self.order, False)
        r = np.empty_like(a)
        r[0] = _scalar_reciprocal(c0, self.exact)
        start = 1
        for pi, pj, pr, width in _tables.reciprocal_plan(self.nvars, self.order):
            if self.exact:
                s = _mul_object(a, r, pi, pj, pr, width)
            else:
                s = slot_sums(pr, a[pi] * r[pj], width)
            r[start:start + width] = -s / c0
            start += width
        return self._new(r, self.order, self.exact)

    def __pow__(self, expo):
        return _jet_pow(self, expo)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _mul_object(a, b, pi, pj, pr, n_out):
    """``kernels.mul_table`` on object arrays.

    Each slot sums its pairs in table order onto the int 0, which takes the
    ring of the terms; a slot without a pair keeps the int 0.
    """
    out = np.zeros(n_out, dtype=object)
    np.add.at(out, pr, a[pi] * b[pj])
    return out


def _scalar_reciprocal(x, exact):
    if isinstance(x, (int, Fraction)) and exact:
        return Fraction(1, 1) / x
    if hasattr(x, "reciprocal"):
        return x.reciprocal()
    if isinstance(x, np.ndarray):
        if _decide(x == 0):
            raise ZeroDivisionError("float division by zero")
        return 1.0 / x
    return 1.0 / float(x)


def _taylor_reciprocal(a):
    """Coefficients of 1/f in one variable from those of f: Python floats, or
    the coefficient rows of a batch.

    ``np.bincount`` sums a degree's pairs a_i r_{k-i}, i = 1..k, in that
    order onto +0.0, and so does this loop; ``-s / a_0`` is the last step of
    the array recurrence, so each r_k has the bits of the graded plan.
    """
    c0 = a[0]
    r = [1.0 / c0]
    for k in range(1, len(a)):
        s = 0.0
        for i in range(1, k + 1):
            s += a[i] * r[k - i]
        r.append(-s / c0)
    return r


def _one_like(x):
    """The one of x's ring: a constant jet for a jet, 1.0 for a plain number.

    An exact jet's one is ``c0 * 0 + 1`` for its constant term c0, so a jet
    with ``int`` coefficients gets the exact ``1``.
    """
    if isinstance(x, MultiJet):
        return _const_like(x, x.coeffs[0] * 0 + 1 if x.exact else 1.0)
    if isinstance(x, Fraction):
        return Fraction(1)
    if _is_plain_number(x) or _is_batch(x):
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
    """The float of the constant term of a scalar or jet; a dual gives its real
    part, and a batched jet or a column array one float per column."""
    c = x.coeffs[0] if isinstance(x, MultiJet) else x
    if isinstance(c, np.ndarray):
        return c
    return float(getattr(c, "re", c))


def _max(values):
    """``max(values)``, the first value that no later one exceeds under ``>``;
    with column arrays among them, that value for each column."""
    try:
        return max(values)
    except ValueError:  # comparing column arrays has no single truth value
        out = values[0]
        for v in values[1:]:
            out = np.where(v > out, v, out)
        return out


def _argmax(values):
    """The index of the first largest value, as ``np.argmax`` finds it (a NaN
    counts as largest); for column arrays, one index per column, or one int
    when the columns agree."""
    return _agreed(np.argmax(values, axis=0))


def _first_above(values, floor):
    """The index of the first value above ``floor`` and every earlier value,
    the scan ``if v > best`` keeps, or None if no value exceeds ``floor``.

    For column arrays: one index per column, or one int (or None) when the
    columns agree; columns that disagree on None raise ``_Split``.
    """
    try:
        found, best = None, floor
        for i, v in enumerate(values):
            if v > best:
                found, best = i, v
        return found
    except ValueError:  # comparing column arrays has no single truth value
        found, best = -1, floor
    for i, v in enumerate(values):
        above = v > best
        found = np.where(above, i, found)
        best = np.where(above, v, best)
    if _decide(found < 0):
        return None
    return _agreed(found)


def _agreed(index):
    """An int for a scalar index or a column array of one value, else the array."""
    if index.ndim and (index != index[0]).any():
        return index
    return int(index.flat[0])


def _gather(index, options):
    """``options[index]``; for an index per batch column, the column-wise choice.

    The options are batched jets, or floats and column arrays.  Jets are
    chosen at the lowest order among them: truncation keeps the bits of every
    remaining coefficient, so it can only make a later step raise
    ``OrderExhausted``, which the sampler answers as it answers ``_Split``.
    A choice between a jet and a scalar raises ``_Split``.
    """
    if not isinstance(index, int):
        index = _agreed(index)
    if isinstance(index, int):
        return options[index]
    if all(_is_jet(o) for o in options):
        order = min(o.order for o in options)
        n = _tables.count(options[0].nvars, order)
        coeffs = np.choose(index, [o.coeffs[:n] for o in options])
        return options[0]._new(coeffs, order, False)
    if any(_is_jet(o) for o in options):
        raise _Split
    return np.choose(index, options)


def _gather_rows(index, rows):
    """``rows[index]`` for rows of scalars or jets, column-wise as ``_gather``."""
    if not isinstance(index, int):
        index = _agreed(index)
    if isinstance(index, int):
        return rows[index]
    return [_gather(index, entries) for entries in zip(*rows)]


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
        if expo == 0:
            return _one_like(x)
        # square and multiply from x itself, not from the one jet
        res = None
        base = x
        while expo:
            if expo & 1:
                res = base if res is None else res * base
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
    q = expo.denominator
    if exact:
        if c0 == 0:
            raise DomainError("rational power of a jet with zero constant term")
        lead = _nth_root_scalar(c0, q, True) ** expo.numerator
    else:
        if _decide(abs(c0) < _DIV_FLOOR):
            raise DomainError("rational power of a jet with zero constant term")
        if q % 2 == 0 and _decide(c0 < 0):
            raise DomainError("even root of a negative constant term")

        def lead_of(c):
            return _nth_root_scalar(c, q, False) ** expo.numerator

        lead = lead_of(c0) if c0.ndim == 0 else np.array(_per_column(lead_of, c0))
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
        if not x.exact and _nonfinite(c0):
            raise DomainError(f"{name} of a non-finite value")
        if x.coeffs.ndim == 1:
            coeffs = series_fn(c0, x.order, x.exact)
        else:  # one series per column, on Python floats
            columns = _per_column(lambda c: series_fn(c, x.order, False), c0)
            coeffs = [np.array(k) for k in zip(*columns)]
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
    if _is_jet(x):
        if not x.exact and _decide(x.coeffs[0] <= 0):
            raise DomainError("log of a non-positive constant term")
    elif float(x) <= 0:
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
        if not x.exact and _decide(x.coeffs[0] < 0):
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
    as the rows of one array, one degree at a time (``_fill_degree``), and
    every outer is contracted against them (``_contract``).  Result i has
    order min(outers[i].order, order of the inners), the basepoint object of
    the first inner, and is exact when any outer or inner is.  For finite
    coefficients each float result has the bits of the whole-table build.  A
    non-finite float inner value raises ``DomainError``: the basepoint
    tolerance check alone passes an infinite one (``inf <= inf``).
    ``invert_series`` composes with an inverse map through the same basis
    it builds for the inversion.
    """
    outers = list(outers)
    inners = list(inners)
    p = len(inners)
    exact = inners[0].exact if inners else False
    batch = inners[0].coeffs.shape[1:] if inners else ()
    if any(g.exact != exact or g.coeffs.shape[1:] != batch for g in inners):
        raise TypeError("float and exact jets, or batches of different widths, do not mix")
    if not exact and any(_nonfinite(g.value()) for g in inners):
        raise DomainError(f"non-finite inner value {[g.value() for g in inners]!r}")
    _check_outers(outers, [g.value() for g in inners], exact, batch)
    if not outers:
        return []
    inner_order = min(g.order for g in inners)
    order = min(max(o.order for o in outers), inner_order)
    nvars = inners[0].nvars
    n_cols = _tables.count(nvars, order)
    # rows through degree 1 even at order 0, so that h has its p rows
    basis = np.zeros((_tables.count(p, max(order, 1)), n_cols) + batch,
                     dtype=object if exact else np.float64)
    basis[0, 0] = 1
    h = basis[1:p + 1]
    for row, g in zip(h, inners):
        row[...] = g.coeffs[:n_cols]
    h[:, 0] -= h[:, 0]  # g - g(0): +0.0 for a finite float value
    plan = _tables.basis_plan(p, nvars, order)
    mul = _mul_object if exact else mul_table
    for e in range(2, order + 1):
        _fill_degree(basis, plan[e], mul)
    return _contract(outers, basis, inner_order, inners[0])


def _check_outers(outers, values, exact, batch):
    """Raise unless every outer has the mode and batch width given, one
    variable per inner value and a basepoint equal to those values."""
    if any(o.exact != exact or o.coeffs.shape[1:] != batch for o in outers):
        raise TypeError("float and exact jets, or batches of different widths, do not mix")
    for outer in outers:
        if outer.nvars != len(values):
            raise TypeError(f"outer expects {outer.nvars} inner jets, got {len(values)}")
        for c, v in zip(outer.basepoint, values):
            if not _same_base(v, c, exact):
                raise BasepointMismatch(f"inner value {v!r} != outer basepoint coordinate {c!r}")


def _fill_degree(basis, entry, mul):
    """Fill the degree-e slots of the rows of degree 2..e of a monomial basis.

    ``basis`` holds the monomial jets h^sigma as rows, ``entry`` is entry e
    of ``_tables.basis_plan``: each step writes one row's slots of degree e
    as one product h^parent * h_first over its pairs, which read the two
    factors below degree e only.  So once the rows of degree 1 hold h
    through degree e - 1, and every row its slots below degree e, the rows
    of degree >= 2 are complete through degree e, with the bits of a
    whole-table build.  ``mul`` is ``mul_table`` for floats and
    ``_mul_object`` for object arrays; a batch adds a last axis to
    ``basis``.
    """
    start, width, steps = entry
    stop = start + width
    for r, a, b, pi, pj, pr in steps:
        basis[r, start:stop] = mul(basis[a], basis[b], pi, pj, pr, width)


def _contract(outers, basis, inner_order, like):
    """The composites of the outers with the map whose monomial jets are the
    rows of ``basis``, at the basepoint object of the jet ``like``.

    Result i has order min(outers[i].order, inner_order); the outers are
    zero-padded to the highest of these orders and contracted against the
    leading block of the basis in one ``np.einsum`` rather than a BLAS
    ``gemm``, so results do not depend on the BLAS thread count.  Without
    ``optimize`` it sums in numpy's own fixed loop order, over m from 0.0 in
    m order, in each batch column as for one jet.
    """
    p, nvars = outers[0].nvars, like.nvars
    orders = [min(o.order, inner_order) for o in outers]
    order = max(orders)
    stacked = np.zeros((len(outers), _tables.count(p, order)) + basis.shape[2:],
                       dtype=basis.dtype)
    for i, (outer, k) in enumerate(zip(outers, orders)):
        m = _tables.count(p, k)
        stacked[i, :m] = outer.coeffs[:m]
    block = basis[:stacked.shape[1], :_tables.count(nvars, order)]
    res = np.einsum("km...,mn...->kn...", stacked, block)
    return [like._new(row[:_tables.count(nvars, k)], k, like.exact)
            for row, k in zip(res, orders)]


def invert_series(jets, outers=()):
    """Inverse of a jet map through its order, and composites with it.

    Takes a sequence of p jets in p variables and returns the p jets of the
    inverse map centered at the image point, so
    ``compose_many(jets, invert_series(jets))`` is the identity through order K,
    followed by ``compose_many(outers, inverse)``: the outers are jets in p
    variables at the inverse's value (the map's basepoint), and composite i
    has order min(outers[i].order, K).  All results share one basepoint
    tuple, and are exact when any jet is.  A map of order 0 has no linear
    part to invert (``OrderExhausted``).

    Writing s(x) = b + L(x - a) + N(x - a) with N of order >= 2, the inverse
    t solves t = a + L^-1 (y - b - N(t - a)).  Starting from the affine t_1,
    pass k = 2..K evaluates the right-hand side at order k only: N's order-k
    terms depend on t through order k - 1 alone, so pass k fixes the order-k
    coefficients and only the last pass works at full order (Griewank and
    Walther, *Evaluating Derivatives*, 2nd ed., ch. 13).  The results equal
    those of K - 1 full-order passes.

    The monomial jets h^sigma of h = t - t(0) are the rows of one
    (count(p, K), count(p, K)) array kept across the passes, and each pass
    adds one degree to them: pass k writes the degree-(k - 1) coefficients
    of t into the rows of degree 1, fills the degree-k slots of the rows of
    degree 2..k (``_fill_degree``), and contracts N against the leading
    order-k block, so every coefficient of every row is computed once.
    After the last pass the rows of degree 1 take t's degree-K coefficients,
    which no row of degree >= 2 reads, and the outers are contracted
    against the same basis (``_contract``).  Each result has the bits of the
    inversion followed by ``compose_many``.

    The passes run on (p, ncoeff) arrays, float64 or object.  In float mode
    they keep the bits of the same passes on jets: the affine step adds
    ``rhs[j] * Linv[i, j]`` in j order onto rows holding a_i at slot 0 and
    a_i * 0 elsewhere, as a constant jet does; N is s with slots 0..p set to
    zero (the jet-level N may hold -0.0 there, but y - N(t) gives the same
    bits for either zero); pass k composes the order-(k-1) t, zero-padded.
    A non-finite float coefficient of the map raises ``DomainError`` before
    the linear part is inverted, and so does an inverse that overflows, so
    no non-finite jet is returned.  The outers are checked as
    ``compose_many`` checks them, after the inversion.
    """
    jets = list(jets)
    outers = list(outers)
    p = len(jets)
    if any(g.nvars != p for g in jets):
        raise TypeError("need p jets in p variables")
    exact = jets[0].exact
    batch = jets[0].coeffs.shape[1:]
    if any(g.exact != exact or g.coeffs.shape[1:] != batch for g in jets):
        raise TypeError("float and exact jets, or batches of different widths, do not mix")
    order = min(g.order for g in jets)
    if order < 1:
        raise OrderExhausted("inverting a jet map of order 0, which has no linear part")
    dtype = object if exact else np.float64

    n = _tables.count(p, order)
    s = np.stack([g.coeffs[:n] for g in jets]).astype(dtype, copy=False)
    if not exact and _has_nonfinite(s):
        raise DomainError(f"non-finite coefficient in a jet map with value {s[:, 0].tolist()}")
    a = np.array(jets[0].basepoint, dtype=dtype)
    linv = _invert_matrix(s[:, 1:p + 1], exact)  # monomial x_j sits at index 1 + j
    n_part = s.copy()
    n_part[:, :p + 1] = 0

    def affine_step(rhs):
        t = np.zeros((p, rhs.shape[1]) + batch, dtype=dtype)
        t[:, 0] = 1
        t *= a[:, None]
        for j in range(p):
            t += linv[:, j, None] * rhs[j]
        return t

    def eye(cols):
        """The rows of y - b: the identity map's, broadcast over a batch."""
        rows = np.eye(p, cols, 1, dtype=dtype)
        return rows[..., None] if batch else rows

    # the rows of degree 1 are h = t - t(0): slot 0 keeps its zero, and a
    # slot of degree k stays zero until pass k + 1 writes it
    basis = np.zeros((n, n) + batch, dtype=dtype)
    basis[0, 0] = 1
    h = basis[1:p + 1]
    plan = _tables.basis_plan(p, p, order)
    mul = _mul_object if exact else mul_table
    t = affine_step(eye(p + 1))
    for k in range(2, order + 1):
        lo, n_k = _tables.count(p, k - 2), _tables.count(p, k)
        h[:, lo:t.shape[1]] = t[:, lo:]
        _fill_degree(basis, plan[k], mul)
        stacked = n_part[:, :n_k].copy()
        n_of_t = np.einsum("km...,mn...->kn...", stacked, basis[:n_k, :n_k])
        t = affine_step(eye(n_k) - n_of_t)
    if not exact and _has_nonfinite(t):
        raise DomainError("the inverse of the jet map overflows")
    base = tuple(s[:, 0])
    inverse = [MultiJet(p, order, row, base, exact=exact) for row in t]
    _check_outers(outers, list(t[:, 0]), exact, batch)
    if not outers:
        return inverse
    lo = _tables.count(p, order - 1)
    h[:, lo:] = t[:, lo:]
    return inverse + _contract(outers, basis, order, inverse[0])


def _invert_matrix(rows, exact):
    """The inverse of a square matrix: an SVD-checked float64 array, or in
    exact mode an object array over the entries' ring.  A (p, p, B) float
    batch is inverted as a stack of B matrices, each by the LAPACK calls of
    one matrix."""
    p = len(rows)
    if not exact:
        mat = np.asarray(rows, dtype=np.float64)
        if mat.ndim == 3:  # a batch: one matrix per column
            mat = np.moveaxis(mat, 2, 0)
        sv = np.linalg.svd(mat, compute_uv=False)
        small, large = sv[..., -1], np.maximum(sv[..., 0], 1e-300)
        if _decide(small <= 1e-12 * large):
            raise SingularLinearPart(f"relative smallest singular value {np.min(small / large):.3e}")
        inv = np.linalg.inv(mat)
        return inv if inv.ndim == 2 else np.moveaxis(inv, 0, 2)
    # exact Gauss-Jordan; pivots must be invertible (nonzero "real" part for
    # dual numbers), but elimination must clear every nonzero entry including
    # pure-epsilon ones.  The one and zero are r[0] * 0 + 1 and r[0] * 0, and a
    # row is scaled by the pivot's exact reciprocal, so int entries stay exact.
    aug = [list(r) + [r[0] * 0 + 1 if i == j else r[0] * 0 for j in range(p)]
           for i, r in enumerate(rows)]
    for col in range(p):
        piv = None
        for r in range(col, p):
            if not _exact_is_zero(aug[r][col]):
                piv = r
                break
        if piv is None:
            raise SingularLinearPart("exact linear part is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = _scalar_reciprocal(aug[col][col], True)
        aug[col] = [v * inv for v in aug[col]]
        for r in range(p):
            if r != col and not _fully_zero(aug[r][col]):
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return np.array([row[p:] for row in aug], dtype=object)


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
