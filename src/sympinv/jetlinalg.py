"""Small dense linear algebra over generic scalars (numbers or jets).

Used by the frame constructions: entries are series along a submanifold, so
pivoting decisions look only at constant terms.  Callers translate the raised
``_PivotFailure`` into their geometry-specific degeneracy errors.
"""

from __future__ import annotations

from .jets import _const_float, _is_exact, _is_jet, _one_like, divide_all


class _PivotFailure(Exception):
    pass


def magnitude(x):
    """Float size of the constant part, used to rank pivots."""
    return abs(_const_float(x))


def is_negligible(x, scale=1.0, tol=1e-10):
    if _is_exact([x]):
        return _const_float(x) == 0
    return abs(_const_float(x)) <= tol * max(scale, 1e-30)


def _row_reduce(a, ncols, tol):
    """Gauss-Jordan elimination of the rows `a` in place over their first
    `ncols` columns, pivoting on constant-term magnitude; a column whose best
    pivot is negligible against the largest entry of `a` is skipped.  Returns
    the pivot columns in order: row i ends with a 1 in the i-th of them and
    0 in the others."""
    scale = max((magnitude(e) for r in a for e in r), default=1.0)
    piv_cols = []
    row = 0
    for col in range(ncols):
        piv, piv_mag = None, 0.0
        for r in range(row, len(a)):
            m = magnitude(a[r][col])
            if m > piv_mag:
                piv, piv_mag = r, m
        if piv is None or is_negligible(a[piv][col], scale, tol):
            continue
        a[row], a[piv] = a[piv], a[row]
        a[row] = divide_all(a[row], a[row][col])
        for r in range(len(a)):
            if r != row:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[row])]
        piv_cols.append(col)
        row += 1
        if row == len(a):
            break
    return piv_cols


def solve(rows, rhs, tol=1e-10):
    """Solve A x = b by Gaussian elimination with constant-term pivoting."""
    n = len(rows)
    a = [list(r) + [v] for r, v in zip(rows, rhs)]
    piv_cols = _row_reduce(a, n, tol)
    if len(piv_cols) < n:
        missing = next(c for c in range(n) if c not in piv_cols)
        raise _PivotFailure(f"no usable pivot in column {missing}")
    return [a[i][n] for i in range(n)]


def _ring_one(rows):
    """The one of the entries' ring: that of the first jet entry, else that of
    the first entry, so rows of plain ``Fraction``s keep exact arithmetic."""
    first = rows[0][0] if rows and rows[0] else 1.0
    return _one_like(next((e for r in rows for e in r if _is_jet(e)), first))


def kernel_vector(rows, tol=1e-10):
    """A nonzero kernel vector of a rank-deficient square matrix.

    Intended for matrices of generic corank one (e.g. a skew form restricted
    to an odd-dimensional space).
    """
    n = len(rows)
    a = [list(r) for r in rows]
    piv_cols = _row_reduce(a, n, tol)
    free = [c for c in range(n) if c not in piv_cols]
    if not free:
        raise _PivotFailure("matrix has full rank; no kernel vector")
    f0 = free[0]
    vec = [None] * n
    one = _ring_one(rows)
    zero = one * 0
    for c in range(n):
        vec[c] = one if c == f0 else zero
    for r, c in enumerate(piv_cols):
        vec[c] = -a[r][f0] * one
    return vec


def nullspace_basis(rows, ncols, tol=1e-10):
    """Basis of {v : rows . v = 0} for a short full-rank system of covectors."""
    a = [list(r) for r in rows]
    piv_cols = _row_reduce(a, ncols, tol)
    if len(piv_cols) < len(rows):
        raise _PivotFailure("covector system is rank-deficient")
    one = _ring_one(rows)
    zero = one * 0
    basis = []
    for free in range(ncols):
        if free in piv_cols:
            continue
        vec = [zero] * ncols
        vec[free] = one
        for r, c in enumerate(piv_cols):
            vec[c] = -a[r][free] * one
        basis.append(vec)
    return basis
