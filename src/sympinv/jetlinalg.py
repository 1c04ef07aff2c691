"""Small dense linear algebra over generic scalars (numbers or jets).

Used by the frame constructions: entries are series along a submanifold, so
pivoting decisions look only at constant terms.  Callers translate the raised
``_PivotFailure`` into their geometry-specific degeneracy errors.  On batched
jets each negligibility test must agree across the batch columns, or
``jets._Split`` sends the batch to the per-sample loop; a pivot row may differ
from column to column (``_swap``).
"""

from __future__ import annotations

import numpy as np

from .jets import (_const_float, _decide, _first_above, _gather, _gather_rows, _is_exact,
                   _is_jet, _max, _one_like, divide_all)


class _PivotFailure(Exception):
    pass


def magnitude(x):
    """Float size of the constant part, used to rank pivots."""
    return abs(_const_float(x))


def is_negligible(x, scale=1.0, tol=1e-10):
    if _is_exact([x]):
        return _const_float(x) == 0
    size = abs(_const_float(x))
    if isinstance(size, np.ndarray) or isinstance(scale, np.ndarray):
        return _decide(size <= tol * _max((scale, 1e-30)))
    return size <= tol * max(scale, 1e-30)


def _row_reduce(a, ncols, tol):
    """Gauss-Jordan elimination of the rows `a` in place over their first
    `ncols` columns, pivoting on constant-term magnitude; a column whose best
    pivot is negligible against the largest entry of `a` is skipped.  Returns
    the pivot columns in order: row i ends with a 1 in the i-th of them and
    0 in the others.  Batch columns that pivot on different rows each swap
    their own (``_swap``), so every column runs the elimination it would run
    alone.  A batch scans from the negligibility bound, not from 0: alone, a
    column with no nonzero entry and one with only negligible entries are
    both skipped, and this way the scan finds a pivot in neither (a NaN bound
    scans from 0, since ``is_negligible`` then passes every pivot)."""
    mags = [magnitude(e) for r in a for e in r]
    scale = _max(mags) if mags else 1.0
    floor = 0.0
    if isinstance(scale, np.ndarray):
        bound = tol * _max((scale, 1e-30))
        floor = np.where(np.isnan(bound), 0.0, bound)
    piv_cols = []
    row = 0
    for col in range(ncols):
        piv = _first_above([magnitude(a[r][col]) for r in range(row, len(a))], floor)
        if piv is None:
            continue
        pivot = (a[row + piv][col] if isinstance(piv, int)
                 else _gather(piv, [r[col] for r in a[row:]]))
        if is_negligible(pivot, scale, tol):
            continue
        _swap(a, row, piv + row)
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


def _swap(a, row, piv):
    """Exchange rows ``row`` and ``piv`` of ``a``; for a pivot index per batch
    column, in each column the rows of its own pivot."""
    if isinstance(piv, int):
        a[row], a[piv] = a[piv], a[row]
        return
    top = a[row]
    a[row] = _gather_rows(piv - row, a[row:])
    for r in range(row + 1, len(a)):
        hit = piv == r
        if hit.any():
            a[r] = _gather_rows(hit.astype(np.intp), [a[r], top])


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
