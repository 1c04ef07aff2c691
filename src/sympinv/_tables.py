"""Cached multi-index layouts for dense truncated multivariate series.

Coefficients of a series in ``p`` variables truncated at total order ``K`` are
stored as a flat vector over the graded-lex monomial list produced here; the
layout of a lower order is a prefix of that of a higher one.  The product
table enumerates every ordered coefficient pair that contributes to the
truncated product; :func:`sympinv.kernels.mul_table` consumes it.  Its pairs
are i-major, so among the pairs of one target degree those whose first
factor has degree >= d form a suffix.  The reciprocal plan regroups the
pairs with a non-constant first factor by the degree of their target, for
the graded reciprocal.  The compose plan gives each monomial's parent in the
recursion that builds the monomial jets of a composition, and the basis plan
lists that recursion's products one target degree at a time: each product
h^parent * h_first takes the pairs of its degree whose first factor has
degree >= deg(parent) and whose second factor is not the constant monomial
(pj == 0), since h = g - g(0) has an exact zero constant term and those
pairs add +-0 when its coefficients are finite.

The product and partial tables are built with numpy.  The product table
finds the target slot of an exponent sum through mixed-radix monomial keys
(base order + 1, so a sum of two exponents of total degree <= order never
carries), looked up with ``argsort``/``searchsorted``; a derivative's targets
are the whole lower-order layout in order, so its table is a gather.
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
def basis_plan(p, nvars, order):
    """The products that build the monomial jets of a composition, by target degree.

    The monomial jets h^sigma of p inner series in ``nvars`` variables are
    the rows of one array: row sigma (graded-lex in p variables) holds
    h^sigma in the order-``order`` layout of ``nvars`` variables, row 1 + j
    holds h_j, and row sigma of degree d >= 2 is h^parent * h_first
    (``compose_plan``).  Entry e (e = 0..order; entries 0 and 1 are empty) is
    (start, width, steps): the slots start..start + width - 1 of degree e,
    and one step (r, parent, 1 + first, pi, pj, pr) per row r of degree
    d = 2..e, in row order.  (pi, pj, pr) are the pairs of
    ``product_table(nvars, order)`` with target degree e, deg_i >= d - 1 and
    pj > 0, in table order, with pr counted from ``start``; the steps of one
    row degree share one view of them.  Row h^parent vanishes below degree
    d - 1 and h has a zero constant term, so with finite coefficients every
    dropped pair adds +-0: a slot sums its kept pairs in table order onto
    +0.0 and has the bits of the whole-table product.  The pairs of target
    degree e are the same in every layout of order >= e, so the entries of
    a lower order are a prefix of these.
    """
    pi, pj, pr = product_table(nvars, order)
    target = np.array(degrees(nvars, order), dtype=np.int64)[pr]
    first, parent = compose_plan(p, order)
    out = [(0, 0, ()), (0, 0, ())]
    for e in range(2, order + 1):
        keep = np.flatnonzero((target == e) & (pj > 0))
        epi, epj = pi[keep], pj[keep]
        start = count(nvars, e - 1)
        epr = pr[keep] - start
        # pairs are i-major: deg_i >= d - 1 is the tail from the first
        # monomial of degree d - 1, index count(nvars, d - 2)
        cuts = np.searchsorted(epi, [count(nvars, d - 2) for d in range(2, e + 1)])
        steps = []
        for d, cut in zip(range(2, e + 1), cuts):
            pairs = (epi[cut:], epj[cut:], epr[cut:])
            steps.extend((r, parent[r], 1 + first[r]) + pairs
                         for r in range(count(p, d - 1), count(p, d)))
        out.append((start, count(nvars, e) - start, tuple(steps)))
    return tuple(out)


@lru_cache(maxsize=None)
def partial_table(nvars, order, direction):
    """Index maps realizing d/dx_i on dense coefficients.

    Returns (src, mult): coefficient t of the order-(K-1) derivative is the
    order-K coefficient at src[t] scaled by mult[t] = sigma_i, where sigma
    is that monomial.  Raising x_i by one maps the order-(K-1) monomials onto
    those of the order-K layout with sigma_i >= 1 and keeps graded-lex order,
    so the targets are 0, 1, ..., count(nvars, K - 1) - 1 and the derivative
    is the gather ``coeffs[src] * mult``.
    """
    exps = np.array(monomials(nvars, order), dtype=np.int64).reshape(-1, nvars)
    src = np.flatnonzero(exps[:, direction])
    return src, exps[src, direction].astype(np.float64)
