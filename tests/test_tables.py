"""The cached index tables against the loops they replaced."""

import tracemalloc

import numpy as np
import pytest

from sympinv import _tables
from sympinv.jobs import MAX_PRODUCT_PAIRS


def loop_product_table(nvars, order):
    """Pairs (i, j) with deg_i + deg_j <= order and their slot, built pair by pair."""
    mons = _tables.monomials(nvars, order)
    pos = _tables.index_of(nvars, order)
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


def univariate_product_table(order):
    """The one-variable table, where the slot of t^i * t^j is i + j."""
    pi = [i for i in range(order + 1) for _ in range(order + 1 - i)]
    pj = [j for i in range(order + 1) for j in range(order + 1 - i)]
    pr = [i + j for i, j in zip(pi, pj)]
    return tuple(np.asarray(x, dtype=np.int64) for x in (pi, pj, pr))


def loop_partial_table(nvars, order, direction):
    mons = _tables.monomials(nvars, order)
    pos_lower = _tables.index_of(nvars, order - 1)
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


def orders_within_limit(nvars):
    order = 0
    while _tables.pair_count(nvars, order) <= MAX_PRODUCT_PAIRS:
        yield order
        order += 1


def assert_same_arrays(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


# the one-variable loop tables up to order 314 take seconds; the univariate
# reference covers every order, the loop the low ones
_LOOP_ORDER_CAP = {1: 40}


@pytest.mark.parametrize("nvars", range(1, 9))
def test_product_and_partial_tables_match_the_loops(nvars):
    for order in orders_within_limit(nvars):
        got = _tables.product_table(nvars, order)
        if order <= _LOOP_ORDER_CAP.get(nvars, order):
            assert_same_arrays(got, loop_product_table(nvars, order))
        if nvars == 1:
            assert_same_arrays(got, univariate_product_table(order))
        for direction in range(nvars):
            assert_partial_table_is_a_gather(nvars, order, direction)


def assert_partial_table_is_a_gather(nvars, order, direction):
    """The loop's target slots are 0, 1, ..., so the table is (src, mult)."""
    src, dst, mult = loop_partial_table(nvars, order, direction)
    lower = _tables.count(nvars, order - 1) if order else 0
    assert np.array_equal(dst, np.arange(lower))
    assert_same_arrays(_tables.partial_table(nvars, order, direction), (src, mult))


def test_product_table_build_peak_is_a_small_multiple_of_its_output():
    out = _tables.product_table(7, 6)  # fills the monomial caches
    size = sum(a.nbytes for a in out)
    tracemalloc.start()
    try:
        _tables.product_table.__wrapped__(7, 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * size


def test_keys_that_overflow_int64_are_refused():
    with pytest.raises(ValueError, match="overflow"):
        _tables.product_table(62, 1)
    # the partial table is a gather and builds no keys
    assert_partial_table_is_a_gather(62, 1, 0)


@pytest.mark.parametrize("p,nvars,order", [(1, 1, 7), (2, 2, 6), (3, 3, 5), (5, 5, 6),
                                           (8, 8, 3), (2, 4, 5), (4, 1, 6)])
def test_basis_plan_lists_each_degrees_pairs(p, nvars, order):
    """Entry e holds one step per row of degree 2..e with the pairs that land
    in degree e, deg_i >= deg(row) - 1 and pj > 0, in table order; a lower
    order's plan is a prefix."""
    pi, pj, pr = _tables.product_table(nvars, order)
    deg = np.array(_tables.degrees(nvars, order))
    row_deg = _tables.degrees(p, order)
    first, parent = _tables.compose_plan(p, order)
    plan = _tables.basis_plan(p, nvars, order)
    assert len(plan) == order + 1 and plan[0][2] == plan[1][2] == ()
    for e in range(2, order + 1):
        start, width, steps = plan[e]
        assert (start, start + width) == (_tables.count(nvars, e - 1), _tables.count(nvars, e))
        assert [step[0] for step in steps] == list(range(p + 1, _tables.count(p, e)))
        for r, a, b, *views in steps:
            assert (a, b) == (parent[r], 1 + first[r])
            keep = (deg[pr] == e) & (deg[pi] >= row_deg[r] - 1) & (pj > 0)
            for view, full in zip(views, (pi, pj, pr - start)):
                assert np.array_equal(view, full[keep])
        for (_, _, _, *these), (_, _, _, *prev) in zip(steps[1:], steps):
            assert all(np.shares_memory(x, y) for x, y in zip(these, prev))
    lower = _tables.basis_plan(p, nvars, order - 1)
    for mine, theirs in zip(plan, lower):
        assert mine[:2] == theirs[:2] and len(mine[2]) == len(theirs[2])
        for x, y in zip(mine[2], theirs[2]):
            assert x[:3] == y[:3] and all(np.array_equal(u, v) for u, v in zip(x[3:], y[3:]))
