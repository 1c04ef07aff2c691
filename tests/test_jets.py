"""Kernel-level tests for truncated series arithmetic."""

import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympinv import _tables, jets
from sympinv.errors import (
    BasepointMismatch,
    DivisionByZeroJet,
    DomainError,
    JetError,
    OrderExhausted,
    SingularLinearPart,
)
from sympinv.jets import MultiJet, TaylorJet, compose, compose_multi, invert_series


def poly_jet(coeffs, t0, order, exact=False):
    """Jet of sum coeffs[k] t^k at t0, built by Horner on jet scalars."""
    t = TaylorJet.variable(t0, order, exact=exact)
    acc = TaylorJet.constant(coeffs[-1] if exact else float(coeffs[-1]), order, t0, exact=exact)
    for c in reversed(coeffs[:-1]):
        acc = acc * t + c
    return acc


def poly_derivative(coeffs, m):
    """Coefficient-shift oracle: m-th derivative of a coefficient polynomial."""
    out = list(coeffs)
    for _ in range(m):
        out = [k * c for k, c in enumerate(out)][1:] or [0]
    return out


def poly_eval(coeffs, x):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


class TestUnivariateArithmetic:
    def test_binomial_identity(self):
        a = poly_jet([1, 1], 0.0, 2)  # 1 + t
        sq = a * a
        assert np.allclose(sq.coeffs, [1.0, 2.0, 1.0])

    def test_geometric_series(self):
        one_minus_t = poly_jet([1, -1], 0.0, 3)
        inv = 1 / one_minus_t
        assert np.allclose(inv.coeffs, [1.0, 1.0, 1.0, 1.0])

    def test_cbrt_of_constant_eight(self):
        c = TaylorJet.constant(8.0, 2)
        r = jets.cbrt(c)
        assert np.allclose(r.coeffs, [2.0, 0.0, 0.0])
        ce = TaylorJet.constant(Fraction(8), 2, exact=True)
        re = jets.cbrt(ce)
        assert re.coeffs[0] == Fraction(2)

    def test_random_polynomial_derivatives_match_analytic(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            deg = rng.integers(1, 7)
            coeffs = rng.uniform(-2, 2, size=deg + 1)
            t0 = rng.uniform(-1.5, 1.5)
            jet = poly_jet(list(coeffs), t0, deg)
            for j in range(deg + 1):
                expected = poly_eval(poly_derivative(list(coeffs), j), t0)
                got = jet.derivative_at(j)
                assert got == pytest.approx(expected, rel=1e-13, abs=1e-13)

    def test_division_and_elementary_functions_consistency(self):
        t = TaylorJet.variable(0.3, 5)
        lhs = jets.exp(jets.log(1 + t * t))
        rhs = 1 + t * t
        assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-14)
        pyth = jets.sin(t) ** 2 + jets.cos(t) ** 2
        assert np.allclose(pyth.coeffs, [1.0, 0, 0, 0, 0, 0], atol=1e-14)

    def test_truncation_commutes_with_arithmetic(self):
        rng = np.random.default_rng(3)
        a_coeffs = rng.uniform(0.5, 2, size=7)
        b_coeffs = rng.uniform(0.5, 2, size=7)
        a_hi = TaylorJet(a_coeffs, 0.1)
        b_hi = TaylorJet(b_coeffs, 0.1)
        hi = (a_hi * b_hi / (a_hi + b_hi)).truncate(4)
        lo = a_hi.truncate(4) * b_hi.truncate(4) / (a_hi.truncate(4) + b_hi.truncate(4))
        assert np.allclose(hi.coeffs, lo.coeffs, rtol=1e-13)

    def test_mixed_order_operands_truncate_to_min(self):
        a = TaylorJet([1.0, 2.0, 3.0, 4.0], 0.0)
        b = TaylorJet([2.0, 1.0], 0.0)
        assert (a * b).order == 1

    def test_division_by_zero_jet(self):
        z = TaylorJet([0.0, 1.0], 0.0)
        with pytest.raises(DivisionByZeroJet):
            _ = 1 / z

    def test_log_domain_error(self):
        c = TaylorJet.constant(-1.0, 2)
        with pytest.raises(DomainError):
            jets.log(c)

    def test_exact_mode_rejects_transcendentals(self):
        c = TaylorJet.constant(Fraction(1), 2, exact=True)
        with pytest.raises(DomainError):
            jets.exp(c)

    def test_exact_mode_sqrt_perfect_square_only(self):
        good = TaylorJet.constant(Fraction(9, 4), 2, exact=True)
        assert jets.sqrt(good).coeffs[0] == Fraction(3, 2)
        bad = TaylorJet.constant(Fraction(2), 2, exact=True)
        with pytest.raises(DomainError):
            jets.sqrt(bad)

    def test_basepoint_mismatch(self):
        a = TaylorJet.variable(0.0, 2)
        b = TaylorJet.variable(1.0, 2)
        with pytest.raises(BasepointMismatch):
            _ = a + b

    def test_float_matches_exact_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            a_int = [int(x) for x in rng.integers(-4, 5, size=5)]
            b_int = [int(x) for x in rng.integers(1, 5, size=5)]
            af = TaylorJet([float(x) for x in a_int], 0.0)
            bf = TaylorJet([float(x) for x in b_int], 0.0)
            ae = TaylorJet([Fraction(x) for x in a_int], 0.0, exact=True)
            be = TaylorJet([Fraction(x) for x in b_int], 0.0, exact=True)
            got = (af * bf + af) / bf
            want = (ae * be + ae) / be
            assert np.allclose(got.coeffs, [float(c) for c in want.coeffs], rtol=1e-13)


class TestComposition:
    def test_square_after_shift(self):
        outer = poly_jet([0, 0, 1], 1.0, 2)  # s^2 at s0=1
        inner = poly_jet([1, 1], 0.0, 2)  # 1 + t
        res = compose(outer, inner)
        assert np.allclose(res.coeffs, [1.0, 2.0, 1.0])

    def test_identity_outer(self):
        inner = poly_jet([0.3, 1.5, -0.2], 0.0, 2)
        outer = TaylorJet.variable(inner.value(), 2)
        res = compose(outer, inner)
        assert np.allclose(res.coeffs, inner.coeffs)

    def test_cube_of_t_plus_t_squared(self):
        # oracle: expand (t + t^2)^3 with integer convolutions and truncate
        p = [0, 1, 1]
        cube = [0] * 10
        acc = [1]
        for _ in range(3):
            new = [0] * (len(acc) + len(p) - 1)
            for i, ai in enumerate(acc):
                for j, pj in enumerate(p):
                    new[i + j] += ai * pj
            acc = new
        cube[: len(acc)] = acc
        outer = poly_jet([0, 0, 0, 1], 0.0, 3)  # s^3
        inner = poly_jet([0, 1, 1], 0.0, 3)  # t + t^2
        res = compose(outer, inner)
        assert np.allclose(res.coeffs, cube[:4])
        assert cube[:4] == [0, 0, 0, 1]

    def test_compose_requires_matching_center(self):
        outer = poly_jet([0, 0, 1], 5.0, 2)
        inner = poly_jet([1, 1], 0.0, 2)
        with pytest.raises(BasepointMismatch):
            compose(outer, inner)


class TestInversion:
    def test_scale_by_two(self):
        s = poly_jet([0, 2], 0.0, 3)
        inv = invert_series(s)
        assert np.allclose(inv.coeffs, [0.0, 0.5, 0.0, 0.0])

    def test_t_plus_t_squared(self):
        s = poly_jet([0, 1, 1], 0.0, 2)
        inv = invert_series(s)
        assert np.allclose(inv.coeffs, [0.0, 1.0, -1.0])

    def test_identity_two_variables(self):
        ids = [MultiJet.variable(i, 2, 3, (0.0, 0.0)) for i in range(2)]
        inv = invert_series(ids)
        for i in range(2):
            assert np.allclose(inv[i].coeffs, ids[i].coeffs)

    def test_round_trip_univariate(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            coeffs = np.concatenate([[rng.uniform(0.2, 1.0)], [1.0], rng.uniform(-1, 1, 4)])
            s = TaylorJet(coeffs, 0.5)
            inv = invert_series(s)
            rt = compose(s, inv)
            expect = TaylorJet.variable(inv.basepoint, s.order)
            assert np.allclose(rt.coeffs, expect.coeffs, atol=1e-12)

    def test_round_trip_multivariate(self):
        rng = np.random.default_rng(9)
        p, order = 2, 4
        base = (0.2, -0.3)
        comps = []
        for i in range(p):
            coeffs = rng.uniform(-0.8, 0.8, size=len(MultiJet.constant(0.0, p, order, base).coeffs))
            m = MultiJet(p, order, coeffs, base)
            lin = MultiJet.variable(i, p, order, base)
            # force a unit linear part and kill the constant
            m = m - m.value() - m.coefficient((1, 0)) * (MultiJet.variable(0, p, order, base) - base[0])
            m = m - m.coefficient((0, 1)) * (MultiJet.variable(1, p, order, base) - base[1])
            comps.append(lin + m * 0.3)
        inv = invert_series(comps)
        for i in range(p):
            rt = compose_multi(comps[i], inv)
            expect = MultiJet.variable(i, p, order, inv[0].basepoint)
            assert np.allclose(rt.coeffs, expect.coeffs, atol=1e-12)

    def test_singular_linear_part(self):
        s = poly_jet([0, 0, 1], 0.0, 3)  # t^2 has no inverse at 0
        with pytest.raises(SingularLinearPart):
            invert_series(s)


class TestMultiJet:
    def test_product_rule_exact_through_order(self):
        # (x + y)^2 computed two ways in exact mode
        base = (Fraction(1), Fraction(2))
        x = MultiJet.variable(0, 2, 3, base, exact=True)
        y = MultiJet.variable(1, 2, 3, base, exact=True)
        lhs = (x + y) * (x + y)
        rhs = x * x + 2 * x * y + y * y
        assert lhs.coeffs == rhs.coeffs

    def test_total_derivative_of_square(self):
        x = MultiJet.variable(0, 1, 2, (1.5,))
        f = x * x
        d = jets.total_derivative(f, 0)
        assert d.order == 1
        assert d.value() == pytest.approx(3.0)
        assert d.partial_at((1,)) == pytest.approx(2.0)

    def test_total_derivative_of_constant(self):
        c = MultiJet.constant(5.0, 2, 2, (0.0, 0.0))
        d = jets.total_derivative(c, 0)
        assert np.allclose(d.coeffs, 0.0)

    def test_total_derivative_mixed(self):
        base = (0.7, -1.2)
        x = MultiJet.variable(0, 2, 2, base)
        y = MultiJet.variable(1, 2, 2, base)
        d = jets.total_derivative(x * y, 0)
        assert d.value() == pytest.approx(base[1])
        assert d.partial_at((0, 1)) == pytest.approx(1.0)

    def test_order_exhausted(self):
        c = MultiJet.constant(1.0, 2, 0, (0.0, 0.0))
        with pytest.raises(OrderExhausted):
            jets.total_derivative(c, 0)

    def test_restriction_to_variable(self):
        base = (0.4, 1.1)
        x = MultiJet.variable(0, 2, 3, base)
        y = MultiJet.variable(1, 2, 3, base)
        f = x * x * y + y
        r = f.restrict_to_var(0)
        assert isinstance(r, TaylorJet)
        # freeze y at its base value and compare against the 1-d polynomial
        t = TaylorJet.variable(base[0], 3)
        expect = t * t * base[1] + base[1]
        assert np.allclose(r.coeffs, expect.coeffs)

    def test_partial_at_matches_value(self):
        base = (1.0, 2.0)
        x = MultiJet.variable(0, 2, 4, base)
        y = MultiJet.variable(1, 2, 4, base)
        f = x ** 3 * y
        assert f.partial_at((2, 1)) == pytest.approx(6 * base[0])
        assert f.value() == pytest.approx(2.0)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=2, max_size=6),
       st.integers(min_value=-2, max_value=2))
def test_jet_value_equals_polynomial_value(coeffs, t0):
    jet = poly_jet([float(c) for c in coeffs], float(t0), len(coeffs) - 1)
    assert jet.value() == pytest.approx(poly_eval(coeffs, t0), abs=1e-12)


# ---------------------------------------------------------------------------
# references for the replaced algorithms
# ---------------------------------------------------------------------------

def per_outer_compose(outer, inners):
    """Jet of outer(g_1(y),...,g_p(y)) with the monomial jets rebuilt per outer."""
    inners = list(inners)
    exact = outer.exact or any(g.exact for g in inners)
    order = min([outer.order] + [g.order for g in inners])
    hs = [(g - g.value()).truncate(order) for g in inners]
    mons = _tables.monomials(outer.nvars, outer.order)
    acc = jets._const_like(hs[0], outer.coeffs[0])
    memo = {}
    for pos_idx, sigma in enumerate(mons):
        deg = sum(sigma)
        if deg == 0 or deg > order:
            continue
        first = next(k for k, e in enumerate(sigma) if e > 0)
        parent = tuple(e - 1 if k == first else e for k, e in enumerate(sigma))
        if sum(parent) == 0:
            mono_jet = hs[first]
        else:
            mono_jet = memo[parent] * hs[first]
        memo[sigma] = mono_jet
        c = outer.coeffs[pos_idx]
        if not exact and c == 0.0:
            continue
        acc = acc + mono_jet * c
    return acc


def fixed_point_inverse(maps):
    """Inverse jet map by K - 1 fixed-point passes, each at full order."""
    p = len(maps)
    order = min(g.order for g in maps)
    maps = [g.truncate(order) for g in maps]
    exact = any(g.exact for g in maps)
    a = maps[0].basepoint
    b = tuple(g.value() for g in maps)
    lin = jets._linear_part_matrix(maps)
    linv = jets._invert_matrix(lin, exact)
    ys = [MultiJet.variable(j, p, order, b, exact=exact) for j in range(p)]
    y_shift = [ys[j] - b[j] for j in range(p)]

    def affine_step(rhs):
        out = []
        for i in range(p):
            acc = jets._const_like(rhs[0], a[i])
            for j in range(p):
                acc = acc + rhs[j] * linv[i][j]
            out.append(acc)
        return out

    xs = [MultiJet.variable(j, p, order, a, exact=exact) for j in range(p)]
    n_parts = []
    for i in range(p):
        lin_i = jets._const_like(xs[0], b[i] * 0)
        for j in range(p):
            lin_i = lin_i + (xs[j] - a[j]) * lin[i][j]
        n_parts.append(maps[i] - b[i] - lin_i)

    t_cur = affine_step(y_shift)
    for _ in range(max(order - 1, 0)):
        n_of_t = [per_outer_compose(n_parts[i], t_cur) for i in range(p)]
        t_cur = affine_step([y_shift[j] - n_of_t[j] for j in range(p)])
    return t_cur


def horner_reciprocal(x):
    """1/x by K Horner steps on the nilpotent part of x / c0."""
    c0 = x.coeffs[0]
    one = Fraction(1) if x.exact else 1.0
    t = x / c0 - 1
    res = TaylorJet.constant(one, x.order, x.basepoint, exact=x.exact)
    for _ in range(x.order):
        res = 1 - t * res
    return res / c0


def assert_float_close(got, want, rtol=1e-13):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


def random_map(rng, p, order, exact=False):
    """p jets in p variables with an invertible, near-identity linear part."""
    n = _tables.count(p, order)
    linear = [_tables.index_of(p, order)[tuple(int(k == j) for k in range(p))]
              for j in range(p)]
    if exact:
        def draw(lo, hi):
            return Fraction(int(rng.integers(lo, hi + 1)), int(rng.integers(1, 4)))
        base = tuple(draw(-2, 2) for _ in range(p))
    else:
        def draw(lo, hi):
            return float(rng.uniform(lo, hi))
        base = tuple(draw(-1, 1) for _ in range(p))
    out = []
    for i in range(p):
        coeffs = [draw(-1, 1) for _ in range(n)]
        for j, pos in enumerate(linear):
            coeffs[pos] = (2 if i == j else 0) + draw(-1, 1) / 4
        out.append(MultiJet(p, order, coeffs, base, exact=exact))
    return out


def random_composition(rng, p, order, mode, n_outers=4):
    """Outers of mixed orders in p variables and p inners of orders K, K + 1.

    ``mode`` is "float", "fraction" or "dual"; in "dual" mode every
    coefficient past the constant term carries an epsilon part.
    """
    from sympinv.rational import Dual

    exact = mode != "float"
    if exact:
        def draw():
            return Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
    else:
        def draw():
            return float(rng.uniform(-1, 1))

    def coeffs(n, value):
        rest = [Dual(draw(), draw()) if mode == "dual" else draw() for _ in range(n - 1)]
        return [value] + rest

    base = tuple(draw() for _ in range(p))
    values = tuple(draw() for _ in range(p))
    inner_orders = [order] + [int(k) for k in rng.integers(order, order + 2, size=p - 1)]
    inners = [MultiJet(p, k, coeffs(_tables.count(p, k), v), base, exact=exact)
              for k, v in zip(rng.permutation(inner_orders), values)]
    outer_orders = [0, order + 1] + [int(k) for k in rng.integers(1, order + 2, size=n_outers - 2)]
    outers = [MultiJet(p, k, coeffs(_tables.count(p, k), draw()), values, exact=exact)
              for k in outer_orders]
    return outers, inners


class TestReplacedAlgorithms:
    @pytest.mark.parametrize("mode,p,order", [
        ("float", 1, 6), ("float", 2, 6), ("float", 3, 6), ("float", 4, 6), ("float", 5, 6),
        ("fraction", 1, 6), ("fraction", 2, 5), ("fraction", 3, 4), ("fraction", 4, 3),
        ("fraction", 5, 3), ("dual", 1, 5), ("dual", 2, 4), ("dual", 3, 3), ("dual", 5, 2),
    ])
    def test_compose_many_matches_per_outer(self, mode, p, order):
        rng = np.random.default_rng(400 + 10 * p + order)
        outers, inners = random_composition(rng, p, order, mode)
        got = jets.compose_many(outers, inners)
        assert len(got) == len(outers)
        for g, outer in zip(got, outers):
            want = per_outer_compose(outer, inners)
            assert g.order == want.order == min(outer.order, order)
            assert g.basepoint is want.basepoint
            assert g.exact == want.exact
            if mode == "float":
                assert_float_close(g.coeffs, want.coeffs)
            else:
                assert g.coeffs == want.coeffs

    def test_compose_many_of_univariate_inner(self):
        rng = np.random.default_rng(41)
        for exact in (False, True):
            outers, (inner,) = random_composition(rng, 1, 5, "fraction" if exact else "float")
            uni = inner.restrict_to_var(0)
            for got, outer in zip(jets.compose_many(outers, [uni]), outers):
                want = compose(outer.restrict_to_var(0), uni)
                assert isinstance(got, TaylorJet) and got.order == want.order
                if exact:
                    assert got.coeffs == want.coeffs
                else:
                    assert_float_close(got.coeffs, want.coeffs)

    @pytest.mark.parametrize("p,order", [(1, 6), (2, 4), (3, 3)])
    def test_inverse_equals_fixed_point_exact(self, p, order):
        rng = np.random.default_rng(100 + 10 * p + order)
        for _ in range(2):
            maps = random_map(rng, p, order, exact=True)
            got = invert_series(maps)
            want = fixed_point_inverse(maps)
            for g, w in zip(got, want):
                assert g.order == w.order == order
                assert g.coeffs == w.coeffs
                assert g.basepoint == w.basepoint

    @pytest.mark.parametrize("p,order", [(1, 6), (2, 6), (3, 5), (4, 4), (5, 3), (5, 6)])
    def test_inverse_matches_fixed_point_float(self, p, order):
        rng = np.random.default_rng(200 + 10 * p + order)
        for _ in range(3 if p < 5 else 1):
            maps = random_map(rng, p, order)
            got = invert_series(maps)
            want = fixed_point_inverse(maps)
            for g, w in zip(got, want):
                assert g.order == w.order == order
                assert_float_close(g.coeffs, w.coeffs)

    def test_univariate_inverse_matches_fixed_point(self):
        rng = np.random.default_rng(31)
        for exact in (False, True):
            for order in range(1, 7):
                (m,) = random_map(rng, 1, order, exact=exact)
                s = m.restrict_to_var(0)
                got = invert_series(s)
                (want,) = fixed_point_inverse([m])
                assert isinstance(got, TaylorJet) and got.order == order
                if exact:
                    assert got.coeffs == want.coeffs
                else:
                    assert_float_close(got.coeffs, want.coeffs)

    def test_reciprocal_matches_horner(self):
        rng = np.random.default_rng(37)
        for order in range(0, 7):
            for _ in range(5):
                ints = [int(x) for x in rng.integers(-5, 6, size=order + 1)]
                ints[0] = int(rng.choice([-3, -2, -1, 1, 2, 3]))
                den = int(rng.integers(1, 5))
                exact = TaylorJet([Fraction(c, den) for c in ints], Fraction(1, 3), exact=True)
                assert exact.reciprocal().coeffs == horner_reciprocal(exact).coeffs
                coeffs = rng.uniform(-2, 2, size=order + 1)
                coeffs[0] = rng.uniform(1, 2)
                flt = TaylorJet(coeffs, 0.25)
                assert_float_close(flt.reciprocal().coeffs, horner_reciprocal(flt).coeffs)

    def test_reciprocal_of_dual_coefficients_matches_horner(self):
        from sympinv.rational import Dual

        x = TaylorJet([Dual(2, 1), Dual(Fraction(1, 3), -2), Dual(-1, 0), Dual(5, 7)],
                      Fraction(0), exact=True)
        assert x.reciprocal().coeffs == horner_reciprocal(x).coeffs


def full_table_compose_many(outers, inners):
    """Float ``compose_many`` with every basis row a product over the whole table."""
    inner_order = min(g.order for g in inners)
    orders = [min(o.order, inner_order) for o in outers]
    order = max(orders)
    hs = [(g - g.value()).truncate(order) for g in inners]
    first, parent = _tables.compose_plan(len(inners), order)
    nvars = hs[0].nvars
    n_cols = _tables.count(nvars, order)
    pi, pj, pr = _tables.product_table(nvars, order)
    basis = np.zeros((len(first), n_cols))
    basis[0, 0] = 1.0
    for r in range(1, len(first)):
        h = hs[first[r]].coeffs
        basis[r] = h if parent[r] == 0 else np.bincount(
            pr, weights=basis[parent[r]][pi] * h[pj], minlength=n_cols)
    stacked = np.zeros((len(outers), len(first)))
    for i, (outer, k) in enumerate(zip(outers, orders)):
        m = _tables.count(len(inners), k)
        stacked[i, :m] = outer.coeffs[:m]
    res = np.einsum("km,mn->kn", stacked, basis)
    return [row[: _tables.count(nvars, k)] for row, k in zip(res, orders)]


def inners_in(rng, nvars, values, order, exact):
    """Inner jets in ``nvars`` variables taking the given values."""
    base = tuple(Fraction(int(rng.integers(-3, 4)), 2) if exact else float(rng.uniform(-1, 1))
                 for _ in range(nvars))
    n = _tables.count(nvars, order)
    out = []
    for v in values:
        if exact:
            rest = [Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
                    for _ in range(n - 1)]
        else:
            rest = list(rng.uniform(-1, 1, size=n - 1))
        out.append(MultiJet(nvars, order, [v] + rest, base, exact=exact))
    return out


class TestDegreeSuffixRows:
    """Skipping the pairs below a row's degree keeps every coefficient's bits."""

    @pytest.mark.parametrize("p", range(1, 6))
    @pytest.mark.parametrize("order", range(1, 7))
    def test_float_rows_equal_the_full_table_build(self, p, order):
        rng = np.random.default_rng(700 + 10 * p + order)
        outers, inners = random_composition(rng, p, order, "float")
        for got, want in zip(jets.compose_many(outers, inners),
                             full_table_compose_many(outers, inners)):
            assert got.coeffs.tobytes() == want.tobytes()

    @pytest.mark.parametrize("p,nvars,order", [(1, 3, 6), (2, 1, 6), (2, 4, 5), (3, 2, 6),
                                               (5, 2, 4), (4, 6, 3)])
    def test_inners_in_other_variable_counts(self, p, nvars, order):
        rng = np.random.default_rng(800 + 100 * p + 10 * nvars + order)
        outers, _ = random_composition(rng, p, order, "float")
        inners = inners_in(rng, nvars, outers[0].basepoint, order, exact=False)
        for got, want in zip(jets.compose_many(outers, inners),
                             full_table_compose_many(outers, inners)):
            assert got.nvars == nvars
            assert got.coeffs.tobytes() == want.tobytes()
        outers, _ = random_composition(rng, p, min(order, 3), "fraction")
        inners = inners_in(rng, nvars, outers[0].basepoint, min(order, 3), exact=True)
        for got, outer in zip(jets.compose_many(outers, inners), outers):
            assert got.coeffs == per_outer_compose(outer, inners).coeffs


class TestInversionWork:
    """Deterministic work counts of one inversion: no timing involved."""

    def test_growing_order_passes_count(self, monkeypatch):
        calls = []
        real = jets.mul_table

        def counting(a, b, pi, pj, pr, n_out):
            calls.append(len(pi))
            return real(a, b, pi, pj, pr, n_out)

        monkeypatch.setattr(jets, "mul_table", counting)
        maps = random_map(np.random.default_rng(5), 5, 6)
        invert_series(maps)
        new_calls, new_madds = len(calls), sum(calls)
        # pass k builds the monomial jets of degree 2..k once, one product
        # each at order k, and shares them among the 5 outer jets (composing
        # each outer on its own took 5 times as many: 4435 calls and
        # 22,628,980 madds); a row of degree d only takes the pairs whose
        # first factor has degree >= d - 1 (the whole table took 4,525,796)
        assert new_calls == sum(_tables.count(5, k) - 6 for k in range(2, 7)) == 887
        assert new_madds == sum(len(_tables.suffix_tables(5, k)[d - 1][0])
                                for k in range(2, 7)
                                for d in _tables.degrees(5, k) if d >= 2) == 1486732
        calls.clear()
        fixed_point_inverse(maps)
        assert len(calls) == 5 * 5 * (_tables.count(5, 6) - 6) == 11400
        assert sum(calls) > 2 * new_madds


def test_pair_count_is_the_product_table_length():
    for nvars in range(1, 5):
        for order in range(6):
            assert _tables.pair_count(nvars, order) == len(_tables.product_table(nvars, order)[0])


class TestBasepoints:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_basepoint_rejected(self, bad):
        with pytest.raises(DomainError):
            TaylorJet([1.0, 2.0], bad)
        with pytest.raises(DomainError):
            TaylorJet.variable(bad, 2)
        with pytest.raises(DomainError):
            MultiJet.variable(0, 2, 2, (0.0, bad))
        with pytest.raises(DomainError):
            MultiJet.constant(1.0, 2, 2, (bad, 0.0))
        with pytest.raises(JetError):
            MultiJet(1, 1, [1.0, 0.0], (bad,))
        with pytest.raises(DomainError):
            TaylorJet([Fraction(1)], bad, exact=True)

    def test_equal_distinct_basepoints_still_checked(self):
        a = MultiJet.variable(0, 2, 2, (0.5, 1.0))
        b = MultiJet.variable(1, 2, 2, tuple([0.5, 1.0]))
        assert a.basepoint is not b.basepoint
        assert (a * b).basepoint is a.basepoint
        c = MultiJet.variable(1, 2, 2, (0.5, 1.5))
        with pytest.raises(BasepointMismatch):
            _ = a + c


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_arithmetic_results_keep_layout_and_basepoint(data):
    """Mixed-order chains: every result has the dense layout of its order and
    carries the left jet operand's basepoint object."""
    exact = data.draw(st.booleans(), label="exact")
    nvars = data.draw(st.integers(1, 3), label="nvars")
    uni = nvars == 1 and data.draw(st.booleans(), label="taylor")
    ints = data.draw(st.lists(st.integers(-3, 3), min_size=nvars, max_size=nvars),
                     label="base")
    base = tuple(Fraction(x) if exact else float(x) for x in ints)
    coeff = st.integers(-4, 4).map(lambda k: Fraction(k, 2) if exact else k / 2)

    def draw_jet(label):
        order = data.draw(st.integers(0, 4), label=f"{label}.order")
        n = order + 1 if uni else _tables.count(nvars, order)
        coeffs = data.draw(st.lists(coeff, min_size=n, max_size=n), label=f"{label}.coeffs")
        coeffs[0] = coeffs[0] + 3  # divisors keep a nonzero constant term
        # equal basepoint values, sometimes as distinct objects
        shared = data.draw(st.booleans(), label=f"{label}.shared")
        bp = base if shared else tuple(c + 0 for c in base)
        if uni:
            return TaylorJet(coeffs, bp[0], exact=exact)
        return MultiJet(nvars, order, coeffs, bp, exact=exact)

    acc = draw_jet("start")
    for step in range(data.draw(st.integers(1, 6), label="steps")):
        op = data.draw(st.sampled_from(sorted(_OPS)), label=f"op{step}")
        flipped = data.draw(st.booleans(), label=f"flipped{step}")
        if op == "/" and flipped and abs(acc.coeffs[0]) < 1e-3:
            op = "*"  # acc would be the divisor
        other = (draw_jet(f"jet{step}") if data.draw(st.booleans(), label=f"kind{step}")
                 else data.draw(coeff, label=f"scalar{step}") + 3)
        res = _OPS[op](other, acc) if flipped else _OPS[op](acc, other)
        left = other if flipped and isinstance(other, type(acc)) else acc
        want_order = min(acc.order, other.order) if isinstance(other, type(acc)) else acc.order
        assert res.order == want_order
        if uni:
            assert len(res.coeffs) == res.order + 1
        else:
            assert len(res.coeffs) == _tables.count(nvars, res.order)
        assert res.basepoint is left.basepoint
        assert res.exact == exact
        assert isinstance(res.coeffs, list) if exact else res.coeffs.dtype == np.float64
        acc = res
