"""Cached multi-index layouts for dense truncated multivariate series.

Coefficients of a series in ``p`` variables truncated at total order ``K`` are
stored as a flat vector over the graded-lex monomial list produced here.  The
product table enumerates every ordered coefficient pair that contributes to the
truncated product; :func:`sympinv.kernels.mul_table` consumes it.  The compose
plan gives each monomial's parent in the recursion that builds the monomial
jets of a composition.
"""

import math
from functools import lru_cache

import numpy as np


def _monomials_of_degree(nvars, deg):
    if nvars == 1:
        return [(deg,)]
    out = []
    for first in range(deg, -1, -1):
        for rest in _monomials_of_degree(nvars - 1, deg - first):
            out.append((first,) + rest)
    return out


@lru_cache(maxsize=None)
def monomials(nvars, order):
    """All exponent tuples with total degree <= order, graded-lex ordered."""
    out = []
    for deg in range(order + 1):
        out.extend(_monomials_of_degree(nvars, deg))
    return tuple(out)


@lru_cache(maxsize=None)
def index_of(nvars, order):
    return {m: i for i, m in enumerate(monomials(nvars, order))}


@lru_cache(maxsize=None)
def count(nvars, order):
    return len(monomials(nvars, order))


@lru_cache(maxsize=None)
def product_table(nvars, order):
    """Ordered pairs (i, j) with deg_i + deg_j <= order and their target slot r.

    Returns three int64 arrays (pi, pj, pr) such that the truncated product is
    out[pr[t]] += a[pi[t]] * b[pj[t]] over all t.
    """
    mons = monomials(nvars, order)
    pos = index_of(nvars, order)
    pi, pj, pr = [], [], []
    for i, a in enumerate(mons):
        da = sum(a)
        for j, b in enumerate(mons):
            if da + sum(b) > order:
                continue
            pi.append(i)
            pj.append(j)
            pr.append(pos[tuple(x + y for x, y in zip(a, b))])
    return (
        np.asarray(pi, dtype=np.int64),
        np.asarray(pj, dtype=np.int64),
        np.asarray(pr, dtype=np.int64),
    )


def pair_count(nvars, order):
    """Length of ``product_table(nvars, order)`` without building it.

    A pair of monomials with total degree <= order is one monomial in
    2 * nvars variables, so there are C(2 * nvars + order, order) of them.
    """
    return math.comb(2 * nvars + order, order)


@lru_cache(maxsize=None)
def compose_plan(nvars, order):
    """The monomial recursion under composition, as (first, parent) tuples.

    For the graded-lex monomial at index r >= 1, ``first[r]`` is its first
    variable with a positive exponent and ``parent[r]`` the index of the
    monomial with that exponent lowered by one, so that
    h^sigma = h^parent * h_first.  Index 0 (the constant) has both set to -1.
    Parents come before their children, and the plan of a lower order is a
    prefix of the plan of a higher one.
    """
    pos = index_of(nvars, order)
    first, parent = [-1], [-1]
    for sigma in monomials(nvars, order)[1:]:
        k = next(i for i, e in enumerate(sigma) if e > 0)
        first.append(k)
        parent.append(pos[sigma[:k] + (sigma[k] - 1,) + sigma[k + 1:]])
    return tuple(first), tuple(parent)


@lru_cache(maxsize=None)
def partial_table(nvars, order, direction):
    """Index maps realizing d/dx_i on dense coefficients.

    Returns (src, dst, mult): for every monomial sigma of the order-K layout
    with sigma_i >= 1, the coefficient at src lands at position dst of the
    order-(K-1) layout scaled by mult = sigma_i.
    """
    mons = monomials(nvars, order)
    pos_lower = index_of(nvars, order - 1)
    src, dst, mult = [], [], []
    for i, m in enumerate(mons):
        if m[direction] == 0:
            continue
        lowered = tuple(e - (1 if k == direction else 0) for k, e in enumerate(m))
        if sum(lowered) > order - 1:
            continue
        src.append(i)
        dst.append(pos_lower[lowered])
        mult.append(m[direction])
    return (
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        np.asarray(mult, dtype=np.float64),
    )
