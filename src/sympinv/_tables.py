"""Cached multi-index layouts for dense truncated multivariate series.

Coefficients of a series in ``p`` variables truncated at total order ``K`` are
stored as a flat vector over the graded-lex monomial list produced here; the
layout of a lower order is a prefix of that of a higher one.  The product
table enumerates every ordered coefficient pair that contributes to the
truncated product; :func:`sympinv.kernels.mul_table` consumes it.  Its pairs
are i-major, so the pairs whose first factor has degree >= d form a suffix,
which :func:`suffix_tables` hands out as cached views.  The reciprocal plan
regroups the pairs with a non-constant first factor by the degree of their
target, for the graded reciprocal.  The compose plan gives each monomial's
parent in the recursion that builds the monomial jets of a composition.

The product and partial tables are built with numpy: the target slot of an
exponent sum is found through mixed-radix monomial keys (base order + 1, so a
sum of two exponents of total degree <= order never carries), looked up with
``argsort``/``searchsorted``.
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
def degrees(nvars, order):
    """Total degree of every monomial of the order-``order`` layout."""
    return tuple(sum(m) for m in monomials(nvars, order))


def _keys(nvars, order):
    """Mixed-radix keys of the monomials and the weight of each variable.

    With base order + 1 the key of a sum of two exponents of total degree
    <= order is the sum of their keys.  Keys must fit in int64.
    """
    if (order + 1) ** nvars >= 2 ** 62:
        raise ValueError(f"monomial keys for {nvars} variables at order {order} overflow int64")
    weights = (order + 1) ** np.arange(nvars - 1, -1, -1, dtype=np.int64)
    exps = np.array(monomials(nvars, order), dtype=np.int64).reshape(-1, nvars)
    return exps @ weights, weights


def _slots(keys, targets):
    """Index of each target key in ``keys`` (every target must occur)."""
    perm = np.argsort(keys)
    found = np.searchsorted(keys[perm], targets)
    return perm[found]


@lru_cache(maxsize=None)
def product_table(nvars, order):
    """Ordered pairs (i, j) with deg_i + deg_j <= order and their target slot r.

    Returns three int64 arrays (pi, pj, pr) such that the truncated product is
    out[pr[t]] += a[pi[t]] * b[pj[t]] over all t.  Pairs are i-major and j
    runs in layout order: the partners of i are the first
    count(nvars, order - deg_i) monomials.
    """
    deg = np.array(degrees(nvars, order), dtype=np.int64)
    widths = np.array([count(nvars, order - d) for d in range(order + 1)], dtype=np.int64)[deg]
    pi = np.repeat(np.arange(len(deg), dtype=np.int64), widths)
    pj = np.arange(len(pi), dtype=np.int64)
    pj -= np.repeat(np.cumsum(widths) - widths, widths)
    keys, _ = _keys(nvars, order)
    target = keys[pi]
    target += keys[pj]
    return pi, pj, _slots(keys, target)


def pair_count(nvars, order):
    """Length of ``product_table(nvars, order)`` without building it.

    A pair of monomials with total degree <= order is one monomial in
    2 * nvars variables, so there are C(2 * nvars + order, order) of them.
    """
    return math.comb(2 * nvars + order, order)


@lru_cache(maxsize=None)
def suffix_tables(nvars, order):
    """Views of ``product_table(nvars, order)`` by the degree of the first factor.

    Entry d is (pi[s:], pj[s:], pr[s:]), where s is the first pair whose i has
    degree >= d.  A product whose left factor vanishes below degree d gets
    only +-0 terms from the pairs before s.
    """
    pi, pj, pr = product_table(nvars, order)
    # count(nvars, d - 1) is the index of the first monomial of degree d
    starts = np.searchsorted(pi, [count(nvars, d - 1) for d in range(order + 1)])
    return tuple((pi[s:], pj[s:], pr[s:]) for s in starts)


@lru_cache(maxsize=None)
def reciprocal_plan(nvars, order):
    """The product-table pairs of the graded reciprocal, by target degree.

    Entry d - 1 (d = 1..order) is (pi, pj, pr, width): the pairs of
    ``product_table(nvars, order)`` with pi > 0 whose target has degree d, in
    table order, with pr counted from the first slot of degree d and width the
    number of slots of degree d.  Their j has degree < d.
    """
    pi, pj, pr = product_table(nvars, order)
    target_deg = np.array(degrees(nvars, order), dtype=np.int64)[pr]
    out = []
    for d in range(1, order + 1):
        keep = np.flatnonzero((target_deg == d) & (pi > 0))
        start = count(nvars, d - 1)
        out.append((pi[keep], pj[keep], pr[keep] - start, count(nvars, d) - start))
    return tuple(out)


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
    exps = np.array(monomials(nvars, order), dtype=np.int64).reshape(-1, nvars)
    src = np.flatnonzero(exps[:, direction])
    keys, weights = _keys(nvars, order)
    # the order-(K-1) layout is a prefix of the order-K one
    dst = _slots(keys, keys[src] - weights[direction])
    return src, dst, exps[src, direction].astype(np.float64)
