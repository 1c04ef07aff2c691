"""Kernel-level tests for truncated series arithmetic."""

import functools
import math
import operator
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import same_coeffs

from sympinv import _tables, jets, kernels
from sympinv.errors import (
    BasepointMismatch,
    DivisionByZeroJet,
    DomainError,
    GeometryError,
    JetError,
    OrderExhausted,
    SingularLinearPart,
)
from sympinv.jets import MultiJet, compose_many, invert_series


def uni(coeffs, t0=0.0, exact=None):
    """The one-variable jet with these coefficients at t0."""
    return MultiJet(1, len(coeffs) - 1, coeffs, (t0,), exact=exact)


def compose1(outer, inner):
    """Jet of outer(inner(t)) for one-variable jets."""
    return compose_many([outer], [inner])[0]


def poly_jet(coeffs, t0, order, exact=False):
    """Jet of sum coeffs[k] t^k at t0, built by Horner on jet scalars."""
    t = MultiJet.variable(0, 1, order, (t0,), exact=exact)
    acc = MultiJet.constant(coeffs[-1] if exact else float(coeffs[-1]), 1, order, (t0,),
                            exact=exact)
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
        c = MultiJet.constant(8.0, 1, 2, (0.0,))
        r = jets.cbrt(c)
        assert np.allclose(r.coeffs, [2.0, 0.0, 0.0])
        ce = MultiJet.constant(Fraction(8), 1, 2, (0.0,), exact=True)
        re = jets.cbrt(ce)
        assert re.coeffs[0] == Fraction(2)

    @pytest.mark.parametrize("c0", [0.7, -2.5])
    def test_cbrt_keeps_the_bits_of_its_own_series(self, c0):
        # the binomial series of sqrt, at exponent 1/3, against the loop
        # cbrt ran before it shared that series
        x = MultiJet(2, 3, [c0, 0.3, -0.2, 0.1, 0.05, -0.4, 0.2, 0.0, -0.1, 0.3], (0.5, 1.0))
        lead = jets._nth_root_scalar(float(c0), 3, False)
        coeffs = jets._binomial_coeffs(Fraction(1, 3), x.order, False)
        want = jets._horner(x / c0 - 1, coeffs) * lead
        assert jets.cbrt(x).coeffs.tobytes() == want.coeffs.tobytes()

    def test_cbrt_of_an_exact_zero_constant_term_is_a_domain_error(self):
        x = MultiJet(1, 2, [Fraction(0), Fraction(1), Fraction(0)], (Fraction(0),), exact=True)
        with pytest.raises(DomainError):
            jets.cbrt(x)

    def test_random_polynomial_derivatives_match_analytic(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            deg = rng.integers(1, 7)
            coeffs = rng.uniform(-2, 2, size=deg + 1)
            t0 = rng.uniform(-1.5, 1.5)
            jet = poly_jet(list(coeffs), t0, deg)
            for j in range(deg + 1):
                expected = poly_eval(poly_derivative(list(coeffs), j), t0)
                got = jet.partial_at((j,))
                assert got == pytest.approx(expected, rel=1e-13, abs=1e-13)

    def test_division_and_elementary_functions_consistency(self):
        t = MultiJet.variable(0, 1, 5, (0.3,))
        lhs = jets.exp(jets.log(1 + t * t))
        rhs = 1 + t * t
        assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-14)
        pyth = jets.sin(t) ** 2 + jets.cos(t) ** 2
        assert np.allclose(pyth.coeffs, [1.0, 0, 0, 0, 0, 0], atol=1e-14)

    def test_truncation_commutes_with_arithmetic(self):
        rng = np.random.default_rng(3)
        a_coeffs = rng.uniform(0.5, 2, size=7)
        b_coeffs = rng.uniform(0.5, 2, size=7)
        a_hi = uni(a_coeffs, 0.1)
        b_hi = uni(b_coeffs, 0.1)
        hi = (a_hi * b_hi / (a_hi + b_hi)).truncate(4)
        lo = a_hi.truncate(4) * b_hi.truncate(4) / (a_hi.truncate(4) + b_hi.truncate(4))
        assert np.allclose(hi.coeffs, lo.coeffs, rtol=1e-13)

    def test_mixed_order_operands_truncate_to_min(self):
        a = uni([1.0, 2.0, 3.0, 4.0])
        b = uni([2.0, 1.0])
        assert (a * b).order == 1

    def test_division_by_zero_jet(self):
        z = uni([0.0, 1.0])
        with pytest.raises(DivisionByZeroJet):
            _ = 1 / z

    def test_log_domain_error(self):
        c = MultiJet.constant(-1.0, 1, 2, (0.0,))
        with pytest.raises(DomainError):
            jets.log(c)

    def test_exact_mode_rejects_transcendentals(self):
        c = MultiJet.constant(Fraction(1), 1, 2, (0.0,), exact=True)
        with pytest.raises(DomainError):
            jets.exp(c)

    def test_exact_mode_sqrt_perfect_square_only(self):
        good = MultiJet.constant(Fraction(9, 4), 1, 2, (0.0,), exact=True)
        assert jets.sqrt(good).coeffs[0] == Fraction(3, 2)
        bad = MultiJet.constant(Fraction(2), 1, 2, (0.0,), exact=True)
        with pytest.raises(DomainError):
            jets.sqrt(bad)

    def test_basepoint_mismatch(self):
        a = MultiJet.variable(0, 1, 2, (0.0,))
        b = MultiJet.variable(0, 1, 2, (1.0,))
        with pytest.raises(BasepointMismatch):
            _ = a + b

    def test_float_matches_exact_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            a_int = [int(x) for x in rng.integers(-4, 5, size=5)]
            b_int = [int(x) for x in rng.integers(1, 5, size=5)]
            af = uni([float(x) for x in a_int])
            bf = uni([float(x) for x in b_int])
            ae = uni([Fraction(x) for x in a_int], exact=True)
            be = uni([Fraction(x) for x in b_int], exact=True)
            got = (af * bf + af) / bf
            want = (ae * be + ae) / be
            assert np.allclose(got.coeffs, [float(c) for c in want.coeffs], rtol=1e-13)


class TestComposition:
    def test_square_after_shift(self):
        outer = poly_jet([0, 0, 1], 1.0, 2)  # s^2 at s0=1
        inner = poly_jet([1, 1], 0.0, 2)  # 1 + t
        res = compose1(outer, inner)
        assert np.allclose(res.coeffs, [1.0, 2.0, 1.0])

    def test_identity_outer(self):
        inner = poly_jet([0.3, 1.5, -0.2], 0.0, 2)
        outer = MultiJet.variable(0, 1, 2, (inner.value(),))
        res = compose1(outer, inner)
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
        res = compose1(outer, inner)
        assert np.allclose(res.coeffs, cube[:4])
        assert cube[:4] == [0, 0, 0, 1]

    def test_compose_requires_matching_center(self):
        outer = poly_jet([0, 0, 1], 5.0, 2)
        inner = poly_jet([1, 1], 0.0, 2)
        with pytest.raises(BasepointMismatch):
            compose1(outer, inner)


class TestInversion:
    def test_scale_by_two(self):
        s = poly_jet([0, 2], 0.0, 3)
        (inv,) = invert_series([s])
        assert np.allclose(inv.coeffs, [0.0, 0.5, 0.0, 0.0])

    def test_t_plus_t_squared(self):
        s = poly_jet([0, 1, 1], 0.0, 2)
        (inv,) = invert_series([s])
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
            s = uni(coeffs, 0.5)
            inv = invert_series([s])
            rt = compose_many([s], inv)[0]
            expect = MultiJet.variable(0, 1, s.order, inv[0].basepoint)
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
            rt = compose_many([comps[i]], inv)[0]
            expect = MultiJet.variable(i, p, order, inv[0].basepoint)
            assert np.allclose(rt.coeffs, expect.coeffs, atol=1e-12)

    def test_singular_linear_part(self):
        s = poly_jet([0, 0, 1], 0.0, 3)  # t^2 has no inverse at 0
        with pytest.raises(SingularLinearPart):
            invert_series([s])


class TestMultiJet:
    def test_product_rule_exact_through_order(self):
        # (x + y)^2 computed two ways in exact mode
        base = (Fraction(1), Fraction(2))
        x = MultiJet.variable(0, 2, 3, base, exact=True)
        y = MultiJet.variable(1, 2, 3, base, exact=True)
        lhs = (x + y) * (x + y)
        rhs = x * x + 2 * x * y + y * y
        assert same_coeffs(lhs, rhs)

    def test_total_derivative_of_square(self):
        x = MultiJet.variable(0, 1, 2, (1.5,))
        f = x * x
        d = f.partial(0)
        assert d.order == 1
        assert d.value() == pytest.approx(3.0)
        assert d.partial_at((1,)) == pytest.approx(2.0)

    def test_total_derivative_of_constant(self):
        c = MultiJet.constant(5.0, 2, 2, (0.0, 0.0))
        d = c.partial(0)
        assert np.allclose(d.coeffs, 0.0)

    def test_total_derivative_mixed(self):
        base = (0.7, -1.2)
        x = MultiJet.variable(0, 2, 2, base)
        y = MultiJet.variable(1, 2, 2, base)
        d = (x * y).partial(0)
        assert d.value() == pytest.approx(base[1])
        assert d.partial_at((0, 1)) == pytest.approx(1.0)

    def test_order_exhausted(self):
        c = MultiJet.constant(1.0, 2, 0, (0.0, 0.0))
        with pytest.raises(OrderExhausted):
            c.partial(0)

    def test_variable_counts_must_match(self):
        t = MultiJet.variable(0, 1, 2, (0.5,))
        x = MultiJet.variable(0, 2, 2, (0.5, 1.0))
        for op in (operator.add, operator.mul, operator.truediv):
            with pytest.raises(TypeError, match="variable counts differ"):
                op(t, x)

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


def jet_level_passes(maps):
    """(order, affine step, y - b, nonlinear parts) of an inversion, on jets."""
    p = len(maps)
    order = min(g.order for g in maps)
    maps = [g.truncate(order) for g in maps]
    exact = any(g.exact for g in maps)
    a = maps[0].basepoint
    b = tuple(g.value() for g in maps)
    pos = _tables.index_of(p, order)
    lin = [[g.coeffs[pos[tuple(int(k == j) for k in range(p))]] for j in range(p)]
           for g in maps]
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
    return order, affine_step, y_shift, n_parts


def fixed_point_inverse(maps):
    """Inverse jet map by K - 1 fixed-point passes, each at full order."""
    order, affine_step, y_shift, n_parts = jet_level_passes(maps)
    t_cur = affine_step(y_shift)
    for _ in range(max(order - 1, 0)):
        n_of_t = [per_outer_compose(n, t_cur) for n in n_parts]
        t_cur = affine_step([y - n for y, n in zip(y_shift, n_of_t)])
    return t_cur


def jet_level_float_inverse(maps):
    """Float ``invert_series`` as it ran on jets: growing-order passes whose
    compose builds every monomial jet over the whole product table."""
    order, affine_step, y_shift, n_parts = jet_level_passes(maps)
    t_cur = affine_step([y.truncate(1) for y in y_shift])
    for k in range(2, order + 1):
        pad = np.zeros(_tables.count(len(maps), k) - len(t_cur[0].coeffs))
        t_in = [t._new(np.concatenate([t.coeffs, pad]), k, False) for t in t_cur]
        n_of_t = [t_in[0]._new(row, k, False) for row in full_table_compose_many(n_parts, t_in)]
        t_cur = affine_step([y - n for y, n in zip(y_shift, n_of_t)])
    return t_cur


def horner_reciprocal(x):
    """1/x by K Horner steps on the nilpotent part of x / c0."""
    c0 = x.coeffs[0]
    one = Fraction(1) if x.exact else 1.0
    t = x / c0 - 1
    res = jets._const_like(x, one)
    for _ in range(x.order):
        res = 1 - t * res
    return res / c0


def taylor_reciprocal(coeffs, exact):
    """1/f in one variable by r_k = -(a_1 r_{k-1} + ... + a_k r_0) / a_0 on scalars."""
    a = list(coeffs) if exact else [float(c) for c in coeffs]
    r = [Fraction(1) / a[0] if exact else 1.0 / a[0]]
    for k in range(1, len(a)):
        acc = a[1] * r[k - 1]
        for i in range(2, k + 1):
            acc = acc + a[i] * r[k - i]
        r.append(-acc / a[0])
    return r


def horner_compose(outer, inner):
    """Jet of outer(inner(t)) in one variable by Horner on h = inner - inner(0)."""
    order = min(outer.order, inner.order)
    h = (inner - inner.value()).truncate(order)
    res = jets._const_like(h, outer.coeffs[order])
    for c in reversed(list(outer.coeffs[:order])):
        res = res * h + c
    return res


def random_divisor(rng, p, order, mode):
    """A jet in p variables with a constant term away from zero."""
    from sympinv.rational import Dual

    n = _tables.count(p, order)
    if mode == "float":
        coeffs = rng.uniform(-2, 2, size=n)
        coeffs[0] = rng.uniform(1, 2) * rng.choice([-1, 1])
        return MultiJet(p, order, coeffs, (0.25,) * p)

    def frac():
        return Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 5)))

    coeffs = [frac() for _ in range(n)]
    coeffs[0] = Fraction(int(rng.choice([-3, -2, -1, 1, 2, 3])), int(rng.integers(1, 5)))
    if mode == "dual":
        coeffs = [Dual(c, frac()) for c in coeffs]
    return MultiJet(p, order, coeffs, (Fraction(1, 3),) * p, exact=True)


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
                assert same_coeffs(g, want)

    def test_compose_many_of_univariate_inner(self):
        """One-variable composition against the univariate Horner it replaced."""
        rng = np.random.default_rng(41)
        for order in range(1, 11):
            for exact in (False, True):
                outers, (inner,) = random_composition(rng, 1, order,
                                                      "fraction" if exact else "float")
                for got, outer in zip(jets.compose_many(outers, [inner]), outers):
                    want = horner_compose(outer, inner)
                    assert got.order == want.order
                    if exact:
                        assert same_coeffs(got, want)
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
                assert same_coeffs(g, w)
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
                (got,) = invert_series([m])
                (want,) = fixed_point_inverse([m])
                assert got.order == order
                if exact:
                    assert same_coeffs(got, want)
                else:
                    assert_float_close(got.coeffs, want.coeffs)

    def test_reciprocal_matches_horner(self):
        """The graded recurrence against the Horner loop it replaced."""
        rng = np.random.default_rng(37)
        for p in (1, 2, 3):
            for order in range(0, 7):
                for _ in range(3):
                    exact = random_divisor(rng, p, order, "fraction")
                    assert same_coeffs(exact.reciprocal(), horner_reciprocal(exact))
                    flt = random_divisor(rng, p, order, "float")
                    assert_float_close(flt.reciprocal().coeffs, horner_reciprocal(flt).coeffs)

    def test_reciprocal_of_dual_coefficients_matches_horner(self):
        from sympinv.rational import Dual

        x = uni([Dual(2, 1), Dual(Fraction(1, 3), -2), Dual(-1, 0), Dual(5, 7)], Fraction(0),
                exact=True)
        assert same_coeffs(x.reciprocal(), horner_reciprocal(x))
        rng = np.random.default_rng(38)
        for p in (1, 2, 3):
            for order in range(0, 7 - p):
                x = random_divisor(rng, p, order, "dual")
                assert same_coeffs(x.reciprocal(), horner_reciprocal(x))

    def test_univariate_reciprocal_is_the_taylor_recurrence(self):
        """In one variable the graded reciprocal has the scalar recurrence's bits."""
        rng = np.random.default_rng(39)
        for order in range(0, 13):
            for _ in range(20):
                flt = random_divisor(rng, 1, order, "float")
                want = np.array(taylor_reciprocal(flt.coeffs, False))
                assert flt.reciprocal().coeffs.tobytes() == want.tobytes()
            exact = random_divisor(rng, 1, order, "fraction")
            assert same_coeffs(exact.reciprocal(), taylor_reciprocal(exact.coeffs, True))


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
            assert same_coeffs(got, per_outer_compose(outer, inners))


def signed_zero_map(rng, p, order, share):
    """A random map at a negative basepoint with a negated linear part, some
    off-diagonal linear coefficients and ``share`` of the higher ones set to
    -0.0 or +0.0: zeros whose signs the float passes must reproduce."""
    maps = random_map(rng, p, order)
    base = tuple(-abs(c) for c in maps[0].basepoint)
    out = []
    for i, g in enumerate(maps):
        coeffs = g.coeffs.copy()
        coeffs[1:p + 1] *= -1
        for j in range(p):
            if j != i and rng.random() < 0.5:
                coeffs[1 + j] = rng.choice([-0.0, 0.0])
        higher = np.arange(p + 1, len(coeffs))
        for pos in rng.choice(higher, size=int(share * len(higher)), replace=False):
            coeffs[pos] = rng.choice([-0.0, 0.0])
        out.append(MultiJet(p, order, coeffs, base))
    return out


class TestArrayInversion:
    """The float inversion on coefficient arrays against the jet-level passes."""

    @pytest.mark.parametrize("p", range(1, 6))
    @pytest.mark.parametrize("order", range(1, 7))
    def test_bits_equal_the_jet_level_passes(self, p, order):
        rng = np.random.default_rng(900 + 10 * p + order)
        for maps in (random_map(rng, p, order), signed_zero_map(rng, p, order, 1 / 3),
                     signed_zero_map(rng, p, order, 1)):
            got = invert_series(maps)
            want = jet_level_float_inverse(maps)
            assert len(got) == p
            for g, w in zip(got, want):
                assert g.order == w.order == order
                assert g.basepoint is got[0].basepoint
                assert g.basepoint == w.basepoint
                assert g.coeffs.tobytes() == w.coeffs.tobytes()

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("where", ["value", "linear", "higher"])
    @pytest.mark.parametrize("p", [1, 3])
    def test_non_finite_coefficients_raise(self, bad, where, p):
        maps = random_map(np.random.default_rng(17), p, 4)
        slot = {"value": 0, "linear": p, "higher": _tables.count(p, 4) - 2}[where]
        maps[-1].coeffs[slot] = bad
        with pytest.raises((JetError, GeometryError)):
            invert_series(maps)

    @pytest.mark.parametrize("exact", [False, True])
    def test_an_order_0_map_has_nothing_to_invert(self, exact):
        maps = [g.truncate(0) for g in random_map(np.random.default_rng(19), 2, 3, exact=exact)]
        with pytest.raises(OrderExhausted):
            invert_series(maps)
        (single,) = random_map(np.random.default_rng(20), 1, 2, exact=exact)
        with pytest.raises(OrderExhausted):
            invert_series([single.truncate(0)])

    def test_an_overflowing_inverse_raises(self):
        (tiny,) = random_map(np.random.default_rng(18), 1, 3)
        tiny.coeffs[1] = 1e-200  # the inverse's linear coefficient is 1e200
        with np.errstate(over="ignore"), pytest.raises(DomainError, match="overflow"):
            invert_series([tiny])


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
        # pass k fills the degree-k slots of the monomial jets of degree
        # 2..k, one product per row over the pairs that land in degree k, and
        # shares them among the 5 outer jets (composing each outer on its
        # own took 4435 calls and 22,628,980 madds); so the passes build the
        # order-6 basis once, each coefficient once.  Rebuilding every row
        # at order k on pass k took the same 887 calls and 1,241,730 madds
        # over the degree suffixes of the table (4,525,796 over the whole
        # table).
        plan = _tables.basis_plan(5, 5, 6)
        assert new_calls == sum(_tables.count(5, k) - 6 for k in range(2, 7)) == 887
        assert new_madds == sum(len(step[3]) for _, _, steps in plan for step in steps) == 975255
        # a pushforward's composites reuse the inversion's basis, where
        # compose_many after the inversion builds it again
        outers = [MultiJet(5, 6, np.linspace(-1, 1, 462) * k, maps[0].basepoint)
                  for k in range(1, 5)]
        calls.clear()
        got = invert_series(maps, outers=outers)
        assert len(got) == 9 and (len(calls), sum(calls)) == (887, 975255)
        calls.clear()
        compose_many(outers, got[:5])
        assert (len(calls), sum(calls)) == (887, 975255)
        calls.clear()
        fixed_point_inverse(maps)
        assert len(calls) == 5 * 5 * (_tables.count(5, 6) - 6) == 11400
        assert sum(calls) > 2 * new_madds


def suffix_row_basis(h, order):
    """The monomial jets h^sigma of p rows h (order-``order`` layout, zero
    constant terms) as rows, each built whole by one product over the pairs
    with deg_i >= deg(sigma) - 1 and pj > 0: one build per order, the
    composition the graded basis replaced."""
    p, n_cols = h.shape[:2]
    pi, pj, pr = _tables.product_table(p, order)
    deg_i = np.array(_tables.degrees(p, order))[pi]
    first, parent = _tables.compose_plan(p, order)
    deg = _tables.degrees(p, order)
    mul = jets._mul_object if h.dtype == object else kernels.mul_table
    basis = np.zeros((len(first),) + h.shape[1:], dtype=h.dtype)
    basis[0, 0] = 1
    for r in range(1, len(first)):
        if parent[r] == 0:
            basis[r] = h[first[r]]
        else:
            keep = (deg_i >= deg[r] - 1) & (pj > 0)
            basis[r] = mul(basis[parent[r]], h[first[r]], pi[keep], pj[keep], pr[keep], n_cols)
    return basis


def two_build_pushforward(maps, outers):
    """Coefficients of ``invert_series(maps)`` followed by
    ``compose_many(outers, inverse)``, as the array passes ran with a fresh
    ``suffix_row_basis`` on every inversion pass and one more for the
    composition."""
    p = len(maps)
    order = min(g.order for g in maps)
    exact = maps[0].exact
    batch = maps[0].coeffs.shape[1:]
    dtype = object if exact else np.float64
    n = _tables.count(p, order)
    s = np.stack([g.coeffs[:n] for g in maps]).astype(dtype, copy=False)
    a = np.array(maps[0].basepoint, dtype=dtype)
    linv = jets._invert_matrix(s[:, 1:p + 1], exact)
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
        rows = np.eye(p, cols, 1, dtype=dtype)
        return rows[..., None] if batch else rows

    t = affine_step(eye(p + 1))
    for k in range(2, order + 1):
        n_k = _tables.count(p, k)
        h = np.zeros((p, n_k) + batch, dtype=dtype)
        h[:, 1:t.shape[1]] = t[:, 1:]
        n_of_t = np.einsum("km...,mn...->kn...", n_part[:, :n_k].copy(), suffix_row_basis(h, k))
        t = affine_step(eye(n_k) - n_of_t)
    orders = [min(o.order, order) for o in outers]
    top = max(orders)
    n_top = _tables.count(p, top)
    h = t[:, :n_top].copy()
    h[:, 0] -= h[:, 0]
    stacked = np.zeros((len(outers), n_top) + batch, dtype=dtype)
    for i, (outer, k) in enumerate(zip(outers, orders)):
        stacked[i, :_tables.count(p, k)] = outer.coeffs[:_tables.count(p, k)]
    res = np.einsum("km...,mn...->kn...", stacked, suffix_row_basis(h, top))
    return list(t) + [row[:_tables.count(p, k)] for row, k in zip(res, orders)]


def pushforward_case(rng, p, order, mode, width=None):
    """A random invertible map and outers of orders 0..order + 1 at its
    basepoint; ``mode`` is "float", "fraction" or "dual", and ``width`` a
    float batch width."""
    from sympinv.rational import Dual

    exact = mode != "float"
    if width is None:
        maps = random_map(rng, p, order, exact=exact)
    else:
        columns = [random_map(rng, p, order) for _ in range(width)]
        maps = [batch_of([col[i] for col in columns]) for i in range(p)]
    if mode == "dual":
        maps = [MultiJet(p, order, [Dual(c, Fraction(int(rng.integers(-3, 4)), 2))
                                    for c in g.coeffs], g.basepoint, exact=True)
                for g in maps]
    base = maps[0].basepoint
    outers = []
    for k in sorted({0, max(order - 1, 0), order, order + 1}):
        shape = (_tables.count(p, k),) + maps[0].coeffs.shape[1:]
        if exact:
            coeffs = [Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
                      for _ in range(shape[0])]
            if mode == "dual":
                coeffs = [Dual(c, c / 2) for c in coeffs]
        else:
            coeffs = rng.uniform(-1, 1, shape)
        outers.append(MultiJet(p, k, coeffs, base, exact=exact))
    return maps, outers


class TestOneCallPushforward:
    """``invert_series(maps, outers)`` against the inversion followed by
    ``compose_many``, each building its monomial jets afresh."""

    @pytest.mark.parametrize("width", [None, 3])
    @pytest.mark.parametrize("p", range(1, 6))
    @pytest.mark.parametrize("order", range(1, 7))
    def test_float_bits_equal_the_two_builds(self, p, order, width):
        rng = np.random.default_rng(1300 + 10 * p + order + (width or 0))
        maps, outers = pushforward_case(rng, p, order, "float", width)
        got = invert_series(maps, outers=outers)
        want = two_build_pushforward(maps, outers)
        assert len(got) == len(want) == p + len(outers)
        for g, w in zip(got, want):
            assert g.basepoint is got[0].basepoint
            assert g.coeffs.tobytes() == w.tobytes()
        assert [g.order for g in got[p:]] == [min(o.order, order) for o in outers]
        # the inverse alone has the same bits
        for g, w in zip(invert_series(maps), got):
            assert g.coeffs.tobytes() == w.coeffs.tobytes()

    @pytest.mark.parametrize("mode,p,order", [
        ("fraction", 1, 5), ("fraction", 2, 4), ("fraction", 3, 3), ("fraction", 5, 2),
        ("dual", 1, 4), ("dual", 2, 3), ("dual", 3, 2),
    ])
    def test_exact_values_equal_the_two_builds(self, mode, p, order):
        rng = np.random.default_rng(1400 + 10 * p + order + len(mode))
        maps, outers = pushforward_case(rng, p, order, mode)
        got = invert_series(maps, outers=outers)
        want = two_build_pushforward(maps, outers)
        assert len(got) == len(want) == p + len(outers)
        for g, w in zip(got, want):
            assert g.exact and same_coeffs(g, list(w))

    def test_outers_are_checked_as_compose_many_checks_them(self):
        rng = np.random.default_rng(15)
        maps = random_map(rng, 2, 3)
        base = maps[0].basepoint
        with pytest.raises(TypeError, match="inner jets"):
            invert_series(maps, outers=[MultiJet.variable(0, 1, 3, base[:1])])
        with pytest.raises(BasepointMismatch):
            invert_series(maps, outers=[MultiJet.variable(0, 2, 3, (base[0] + 1, base[1]))])
        exact = MultiJet.variable(0, 2, 3, tuple(Fraction(c) for c in base), exact=True)
        with pytest.raises(TypeError, match="do not mix"):
            invert_series(maps, outers=[exact])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_univariate_product_matches_convolution(data):
    """A one-variable product against np.convolve, the product it replaced."""
    order = data.draw(st.integers(0, 12), label="order")
    coeff = st.floats(-2, 2, allow_nan=False)
    a, b = (np.array(data.draw(st.lists(coeff, min_size=order + 1, max_size=order + 1),
                               label=label)) for label in ("a", "b"))
    got = (uni(a) * uni(b)).coeffs
    want = np.convolve(a, b)[: order + 1]
    scale = np.max(np.convolve(np.abs(a), np.abs(b)))
    assert np.all(np.abs(got - want) <= 1e-15 * scale)


def test_pair_count_is_the_product_table_length():
    for nvars in range(1, 5):
        for order in range(6):
            assert _tables.pair_count(nvars, order) == len(_tables.product_table(nvars, order)[0])


class TestBasepoints:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_basepoint_rejected(self, bad):
        with pytest.raises(DomainError):
            MultiJet(1, 1, [1.0, 2.0], (bad,))
        with pytest.raises(DomainError):
            MultiJet.variable(0, 1, 2, (bad,))
        with pytest.raises(DomainError):
            MultiJet.variable(0, 2, 2, (0.0, bad))
        with pytest.raises(DomainError):
            MultiJet.constant(1.0, 2, 2, (bad, 0.0))
        with pytest.raises(JetError):
            MultiJet(1, 1, [1.0, 0.0], (bad,))
        with pytest.raises(DomainError):
            MultiJet(1, 0, [Fraction(1)], (bad,), exact=True)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_inner_value_rejected_before_the_array_path(self, bad):
        # |inf - c| <= 1e-9 * (1 + inf + |c|) holds, so the basepoint
        # tolerance alone would let an infinite inner through to a NaN result
        outer = MultiJet(1, 2, [1.0, 2.0, 3.0], (0.5,))
        inner = MultiJet(1, 2, [bad, 1.0, 0.0], (0.0,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                compose_many([outer], [inner])

    def test_basepoint_length_is_the_variable_count(self):
        # a shared basepoint object stands for the same variables, and
        # compose_many checks one inner value per basepoint coordinate
        with pytest.raises(ValueError, match="basepoint"):
            MultiJet(2, 1, [1.0, 2.0, 3.0], (0.5,))
        with pytest.raises(ValueError, match="basepoint"):
            MultiJet(1, 1, [Fraction(1), Fraction(2)], (Fraction(0), Fraction(1)), exact=True)
        with pytest.raises(ValueError, match="basepoint"):
            MultiJet.variable(0, 2, 2, (0.5, 1.0, 0.0))

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
    ints = data.draw(st.lists(st.integers(-3, 3), min_size=nvars, max_size=nvars),
                     label="base")
    base = tuple(Fraction(x) if exact else float(x) for x in ints)
    coeff = st.integers(-4, 4).map(lambda k: Fraction(k, 2) if exact else k / 2)

    def draw_jet(label):
        order = data.draw(st.integers(0, 4), label=f"{label}.order")
        n = _tables.count(nvars, order)
        coeffs = data.draw(st.lists(coeff, min_size=n, max_size=n), label=f"{label}.coeffs")
        coeffs[0] = coeffs[0] + 3  # divisors keep a nonzero constant term
        # equal basepoint values, sometimes as distinct objects
        shared = data.draw(st.booleans(), label=f"{label}.shared")
        bp = base if shared else tuple(c + 0 for c in base)
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
        assert len(res.coeffs) == _tables.count(nvars, res.order)
        assert res.basepoint is left.basepoint
        assert res.exact == exact
        assert res.coeffs.dtype == (object if exact else np.float64)
        acc = res


class TestGenericScalarHelpers:
    """The shared sums and products of the frames keep every float's bits."""

    def test_sum_of_negative_zero_jets_stays_negative_zero(self):
        z = MultiJet(2, 2, [-0.0] * 6, (0.5, 1.0))
        total = jets._sum([z, z, z])
        assert all(math.copysign(1.0, c) == -1.0 for c in total.coeffs)
        # a sum seeded with 0 would give +0.0: 0.0 + (-0.0) is +0.0
        assert math.copysign(1.0, jets._sum([-0.0, -0.0])) == -1.0
        assert math.copysign(1.0, (0 + z).coeffs[0]) == 1.0

    def test_sum_keeps_the_order_of_its_terms(self):
        assert jets._sum([1e16, 1.0, -1e16]) == 0.0
        assert jets._sum([1e16, -1e16, 1.0]) == 1.0
        a, b, c = (MultiJet(1, 1, [v, 1.0], (0.0,)) for v in (1e16, 1.0, -1e16))
        assert jets._sum(iter([a, b, c])).coeffs.tolist() == [0.0, 3.0]
        assert jets._sum([a, c, b]).coeffs.tolist() == [1.0, 3.0]

    def test_matvec_skips_zero_entries_and_maps_a_zero_row_to_v0_times_zero(self):
        v = [MultiJet(1, 2, [1.0, -2.0, 3.0], (0.0,)), MultiJet(1, 2, [4.0, 5.0, -6.0], (0.0,))]
        out = jets._matvec(np.array([[0.0, 0.0], [0.0, 2.0], [1.5, -1.0]]), v)
        want = [v[0] * 0.0, v[1] * 2.0, v[0] * 1.5 + v[1] * -1.0]
        assert [o.coeffs.tobytes() for o in out] == [w.coeffs.tobytes() for w in want]
        assert math.copysign(1.0, out[0].coeffs[1]) == -1.0  # -2.0 * 0.0

    def test_constant_term_one_and_exactness_cover_every_scalar(self):
        from sympinv.rational import Dual

        jet = MultiJet(1, 1, [Fraction(3, 2), Fraction(1)], (Fraction(0),), exact=True)
        assert [jets._const_float(x) for x in (2, 0.5, Fraction(1, 4), Dual(3, 7), jet)] == \
            [2.0, 0.5, 0.25, 3.0, 1.5]
        one = jets._one_like(jet)
        assert one.exact and same_coeffs(one, [Fraction(1), Fraction(0)])
        assert jets._one_like(Dual(2, 5)) == Dual(1)
        assert jets._one_like(np.float64(2.0)) == 1.0
        assert jets._is_exact([1.0, Dual(1)]) and jets._is_exact([0.5, jet])
        assert not jets._is_exact([1.0, MultiJet(1, 1, [1.0, 0.0], (0.0,))])


def edge_coeffs(rng, n, big=1e150):
    """Coefficients with signed zeros, large and small magnitudes and a
    negative constant term; the last one is -0.0.  Products of two stay
    finite, and so do those of up to seven with a ``big`` of 1e20."""
    c = rng.normal(size=n)
    picks = rng.choice([0.0, -0.0, big, -big, 1 / big, -1 / big], size=n)
    mask = rng.random(n) < 0.4
    c[mask] = picks[mask]
    c[0] = -abs(c[0]) - 0.5
    if n > 1:
        c[-1] = -0.0
    return c


def rebased(x):
    """x on an equal but distinct basepoint tuple, which sends operations
    with x through the basepoint check."""
    base = tuple(float(b) for b in x.basepoint)
    assert base == x.basepoint and base is not x.basepoint
    return MultiJet(x.nvars, x.order, x.coeffs.copy(), base)


def general_path(name, a, b):
    """Coefficients of float ``a name b`` as the general path computed them:
    a jet operand truncated to the lower order, ``a - b`` as ``a + (-b)``,
    a scalar b added to the constant term or multiplying every coefficient."""
    x = a.coeffs.copy()
    if not isinstance(b, MultiJet):
        if name == "*":
            return x * float(b)
        x[0] = x[0] + (-1 * b if name == "-" else b)
        return x
    order = min(a.order, b.order)
    n = _tables.count(a.nvars, order)
    x, y = x[:n], b.coeffs[:n]
    if name == "*":
        return kernels.mul_table(x, y, *_tables.product_table(a.nvars, order), n)
    return x + (-y if name == "-" else y)


class TestDirectFloatPaths:
    """Float ``+ - neg *`` keep the bits of the general path that truncated
    both operands first, on shared and on equal but distinct basepoints."""

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_direct_path_has_the_general_paths_bits(self, p):
        rng = np.random.default_rng(700 + p)
        base = tuple(rng.uniform(-1, 1, size=p))
        pairs = [(ka, kb) for ka in range(7) for kb in range(7)]
        jets_ = {k: MultiJet(p, k, edge_coeffs(rng, _tables.count(p, k)), base)
                 for k in range(7)}
        scalars = [0.0, -0.0, 2.5, -3, 1e150, Fraction(1, 3)]
        for ka, kb in pairs:
            b = jets_[kb]
            for a in (jets_[ka], rebased(jets_[ka])):
                for name, op in _OPS.items():
                    if name == "/":
                        continue
                    g = op(a, b)
                    assert g.order == min(ka, kb), name
                    assert g.basepoint is a.basepoint and not g.exact
                    assert g.coeffs.dtype == np.float64 and g.coeffs.flags.c_contiguous
                    assert g.coeffs.tobytes() == general_path(name, a, b).tobytes(), \
                        (name, ka, kb)
                    if kb == 0:
                        for c in scalars:
                            g = op(a, c)
                            assert g.order == ka and g.basepoint is a.basepoint
                            assert g.coeffs.tobytes() == general_path(name, a, c).tobytes(), \
                                (name, ka, c)
                neg = -a
                assert neg.basepoint is a.basepoint and neg.order == ka
                assert neg.coeffs.tobytes() == (a * -1.0).coeffs.tobytes()

    def test_univariate_reciprocal_is_the_plan_recurrence(self):
        """The scalar loop against the ``np.bincount`` recurrence of
        ``reciprocal_plan``, which the jets in several variables still run."""

        def plan_reciprocal(x):
            a, c0 = x.coeffs, x.coeffs[0]
            r = np.empty(len(a))
            r[0] = 1.0 / c0
            start = 1
            for pi, pj, pr, width in _tables.reciprocal_plan(x.nvars, x.order):
                r[start:start + width] = -np.bincount(pr, weights=a[pi] * r[pj],
                                                      minlength=width) / c0
                start += width
            return r

        rng = np.random.default_rng(71)
        for order in range(13):
            for trial in range(12):
                coeffs = edge_coeffs(rng, order + 1, big=1e20)
                coeffs[0] = rng.choice([-1, 1]) * rng.uniform(0.5, 2)
                if trial == 0:
                    coeffs[1:] = -0.0
                x = uni(coeffs)
                assert x.reciprocal().coeffs.tobytes() == plan_reciprocal(x).tobytes()
            for p in (2, 3):
                if order <= 6:
                    y = MultiJet(p, order, edge_coeffs(rng, _tables.count(p, order), big=1e20),
                                 (0.0,) * p)
                    assert y.reciprocal().coeffs.tobytes() == plan_reciprocal(y).tobytes()
            for c0 in (0.0, -0.0, 1e-301, -1e-301):
                coeffs = edge_coeffs(rng, order + 1)
                coeffs[0] = c0
                with pytest.raises(DivisionByZeroJet):
                    uni(coeffs).reciprocal()


class TestPowers:
    def test_float_power_has_the_bits_of_a_start_from_one(self):
        """``x ** k`` starts from x; the square-and-multiply from the one jet
        it replaced gives the same bits for k >= 2."""

        def from_one(x, k):
            res, base = jets._one_like(x), x
            while k:
                if k & 1:
                    res = res * base
                base = base * base if k > 1 else base
                k >>= 1
            return res

        rng = np.random.default_rng(73)
        for p, order in ((1, 8), (2, 5), (3, 3)):
            x = MultiJet(p, order, edge_coeffs(rng, _tables.count(p, order), big=1e20),
                         (0.25,) * p)
            for k in range(2, 8):
                got, want = x ** k, from_one(x, k)
                assert got.coeffs.tobytes() == want.coeffs.tobytes(), (p, k)
                naive = functools.reduce(operator.mul, [x] * k)
                assert np.allclose(got.coeffs, naive.coeffs, rtol=1e-12, atol=0)

    def test_exact_power_of_int_coefficients_stays_exact(self):
        x = MultiJet(1, 2, [1, 2, 3], (0,), exact=True)
        for k in range(4):
            got = x ** k
            want = functools.reduce(operator.mul, [x] * k) if k else None
            assert got.exact
            assert not any(isinstance(c, float) for c in got.coeffs), k
            assert same_coeffs(got, want if k else [1, 0, 0])
        one = jets._one_like(x)
        assert one.exact and same_coeffs(one, [1, 0, 0])
        assert all(type(c) is int for c in one.coeffs)


def ring_jet(rng, kind, p, order, base, linear=None):
    """An exact jet in p variables over ``int``, ``Fraction`` or ``Dual``
    coefficients, with a nonzero constant term, or with the given linear part
    and a zero constant term."""
    from sympinv.rational import Dual

    n = _tables.count(p, order)
    vals = [int(v) for v in rng.integers(-3, 4, size=n)]
    vals[0] = int(rng.choice([-2, -1, 1, 2, 3]))
    if linear is not None:
        vals[0] = 0
        vals[1:p + 1] = linear
    if kind == "fraction":
        vals = [Fraction(v, int(rng.integers(1, 4))) for v in vals]
    elif kind == "dual":
        vals = [Dual(v, int(rng.integers(-2, 3))) for v in vals]
    return MultiJet(p, order, vals, base, exact=True)


class TestExactRing:
    """Exact jets stay in the ring of their coefficients."""

    @pytest.mark.parametrize("kind", ["int", "fraction", "dual"])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_no_result_holds_a_float(self, kind, p):
        rng = np.random.default_rng(1000 + 10 * p + len(kind))
        base = tuple(range(p)) if kind == "int" else tuple(Fraction(k, 2) for k in range(p))
        x = ring_jet(rng, kind, p, 3, base)
        y = ring_jet(rng, kind, p, 2, base)
        # a diagonally dominant linear part, so the map inverts
        maps = [ring_jet(rng, kind, p, 3, base,
                         [3 if i == j else int(rng.integers(-1, 2)) for j in range(p)])
                for i in range(p)]
        inv = invert_series(maps)
        results = [x + y, x - y, x * y, x / y, y / x, -x, x ** 2, x ** 0, x ** -1,
                   x.partial(p - 1), x.reciprocal(), x + 2, x - 2, 2 - x, x * 3, x / 3,
                   3 / x, *inv, *compose_many([x, y], inv), *compose_many(maps, inv)]
        for r in results:
            assert r.exact and r.coeffs.dtype == object
            assert not any(isinstance(c, float) for c in r.coeffs), r
        # the maps composed with their inverse are the coordinate jets at the image
        image = inv[0].basepoint
        for j, g in enumerate(compose_many(maps, inv)):
            assert same_coeffs(g, MultiJet.variable(j, p, 3, image, exact=True))

    def test_exact_inverse_of_int_entries_keeps_the_ring(self):
        from sympinv.rational import Dual

        m = MultiJet(1, 3, [Fraction(2), 1, Fraction(1, 2), 0], (Fraction(0),), exact=True)
        (inv,) = invert_series([m])
        assert same_coeffs(inv, [0, 1, Fraction(-1, 2), Fraction(1, 2)])
        assert all(type(c) is Fraction for c in inv.coeffs)
        linv = jets._invert_matrix([[1, 2], [3, Fraction(1, 2)]], True)
        assert [list(row) for row in linv] == [[Fraction(-1, 11), Fraction(4, 11)],
                                               [Fraction(6, 11), Fraction(-2, 11)]]
        assert all(type(v) is Fraction for row in linv for v in row)
        d = MultiJet(1, 3, [Dual(2), 1, Fraction(1, 2), 0], (Fraction(0),), exact=True)
        (inv,) = invert_series([d])
        assert same_coeffs(inv, [0, 1, Fraction(-1, 2), Fraction(1, 2)])


# --- batched jets ---------------------------------------------------------------

def batch_of(singles):
    """The batched jet of one-jet float jets at basepoints of one shape."""
    first = singles[0]
    base = tuple(np.array(col) for col in zip(*(s.basepoint for s in singles)))
    coeffs = np.stack([s.coeffs for s in singles], axis=1)
    return MultiJet(first.nvars, first.order, coeffs, base)


def columns_match(batched, singles):
    """Whether column c of a batched jet has the bytes of singles[c]."""
    return (batched.order == singles[0].order
            and all(batched.coeffs[:, c].tobytes() == s.coeffs.tobytes()
                    for c, s in enumerate(singles)))


def random_singles(rng, p, order, width, lo=0.5, hi=2.0):
    """`width` float jets in p variables with constant terms in [lo, hi]."""
    out = []
    for _ in range(width):
        base = tuple(float(v) for v in rng.uniform(-1, 1, p))
        coeffs = rng.standard_normal(_tables.count(p, order))
        coeffs[0] = rng.uniform(lo, hi)
        out.append(MultiJet(p, order, coeffs, base))
    return out


class TestBatchedJets:
    """A batch of B jets, coefficients (ncoeff, B), has the bytes of B jets."""

    @pytest.mark.parametrize("p,order", [(1, 6), (2, 4), (3, 3)])
    def test_operations_keep_each_columns_bits(self, p, order):
        rng = np.random.default_rng(40 + p)
        xs = random_singles(rng, p, order, 5)
        ys = [MultiJet(p, order - 1, y.coeffs[:_tables.count(p, order - 1)], x.basepoint)
              for x, y in zip(xs, random_singles(rng, p, order, 5))]
        col = np.array([1.5, -2.0, 0.25, 3.0, -0.5])
        bx = batch_of(xs)
        by = MultiJet(p, order - 1, np.stack([y.coeffs for y in ys], axis=1), bx.basepoint)
        cases = [
            (lambda x, y, c: x + y), (lambda x, y, c: x - y), (lambda x, y, c: x * y),
            (lambda x, y, c: x / y), (lambda x, y, c: -x), (lambda x, y, c: x.reciprocal()),
            (lambda x, y, c: x.partial(p - 1)), (lambda x, y, c: x ** 3),
            (lambda x, y, c: x + c), (lambda x, y, c: c - x), (lambda x, y, c: x * c),
            (lambda x, y, c: c * x), (lambda x, y, c: x / c), (lambda x, y, c: c / x),
            (lambda x, y, c: x + 2), (lambda x, y, c: 2 / x),
            (lambda x, y, c: jets.exp(x)), (lambda x, y, c: jets.log(x)),
            (lambda x, y, c: jets.sin(x)), (lambda x, y, c: jets.cos(x)),
            (lambda x, y, c: jets.sqrt(x)), (lambda x, y, c: jets.cbrt(x)),
            (lambda x, y, c: x ** Fraction(-5, 3)), (lambda x, y, c: jets._one_like(x)),
        ]
        for case in cases:
            batched = case(bx, by, col)
            singles = [case(x, y, float(c)) for x, y, c in zip(xs, ys, col)]
            assert columns_match(batched, singles), case

    def test_the_kernel_sums_each_column_in_table_order(self):
        rng = np.random.default_rng(7)
        for p, order in ((1, 6), (2, 5), (4, 3)):
            pi, pj, pr = _tables.product_table(p, order)
            n = _tables.count(p, order)
            a = rng.standard_normal((n, 9))
            b = rng.standard_normal((n, 9))
            a[0, 3] = -0.0
            got = kernels.mul_table(a, b, pi, pj, pr, n)
            for c in range(9):
                want = kernels.mul_table(a[:, c].copy(), b[:, c].copy(), pi, pj, pr, n)
                assert got[:, c].tobytes() == want.tobytes()

    @pytest.mark.parametrize("p,order", [(1, 6), (2, 4)])
    def test_compose_and_invert_keep_each_columns_bits(self, p, order):
        rng = np.random.default_rng(60 + p)
        width = 4
        maps = []
        for i in range(p):
            jets_i = random_singles(rng, p, order, width)
            for j, jet in enumerate(jets_i):  # a diagonally dominant linear part
                jet.coeffs[1:p + 1] = 0.1
                jet.coeffs[1 + i] = 2.0 + j
            maps.append(jets_i)
        singles = [[MultiJet(p, order, maps[i][c].coeffs, maps[0][c].basepoint) for i in range(p)]
                   for c in range(width)]
        batched = [batch_of([singles[c][i] for c in range(width)]) for i in range(p)]
        inv = invert_series(batched)
        inv_single = [invert_series(s) for s in singles]
        for i in range(p):
            assert columns_match(inv[i], [inv_single[c][i] for c in range(width)])
        outers = random_singles(rng, p, order, width)
        outer_b = MultiJet(p, order, np.stack([o.coeffs for o in outers], axis=1),
                           batched[0].basepoint)
        (got,) = compose_many([outer_b], inv)
        want = [compose_many([MultiJet(p, order, o.coeffs, singles[c][0].basepoint)],
                             inv_single[c])[0] for c, o in enumerate(outers)]
        assert columns_match(got, want)

    def test_constructors_broadcast_over_the_basepoint_columns(self):
        base = (np.array([0.5, -1.0, 2.0]),)
        const = MultiJet.constant(-2.0, 1, 3, base)
        assert const.coeffs.shape == (4, 3)
        assert const.coeffs[1:].tobytes() == np.full((3, 3), -0.0).tobytes()
        var = MultiJet.variable(0, 1, 3, base)
        assert var.coeffs[0].tobytes() == base[0].tobytes()
        assert (var.coeffs[1] == 1.0).all() and not var.coeffs[2:].any()

    def test_a_batch_never_mixes_with_one_jet(self):
        one = MultiJet(1, 2, [1.0, 2.0, 3.0], (0.0,))
        three = MultiJet.variable(0, 1, 2, (np.array([0.0, 0.0, 0.0]),))
        two = MultiJet.variable(0, 1, 2, (np.array([0.0, 0.0]),))
        for a, b in ((one, three), (three, one), (two, three)):
            for op in (operator.add, operator.sub, operator.mul):
                with pytest.raises(TypeError):
                    op(a, b)
        with pytest.raises(TypeError):
            one * np.array([1.0, 2.0, 3.0])  # no broadcast of a column array over a 1-D jet
        with pytest.raises(TypeError):
            compose_many([one], [three])

    def test_columns_that_branch_apart_split_the_batch(self):
        base = (np.array([0.0, 0.0]),)
        mixed = MultiJet(1, 2, np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 0.0]]), base)
        for fn in (lambda x: x.reciprocal(), lambda x: jets.log(x), lambda x: jets.sqrt(x - 0.5)):
            with pytest.raises(jets._Split):
                fn(mixed)
        zero = MultiJet(1, 2, np.zeros((3, 2)), base)
        with pytest.raises(DivisionByZeroJet):  # every column agrees
            zero.reciprocal()

    def test_a_choice_per_column_takes_each_columns_option(self):
        base = (np.array([0.0, 0.0, 0.0]),)
        opts = [MultiJet(1, 2, np.full((3, 3), float(k)), base) for k in range(3)]
        low = MultiJet(1, 1, np.full((2, 3), 7.0), base)
        got = jets._gather(np.array([2, 0, 1]), opts)
        assert got.coeffs[:, 0].tolist() == [2.0] * 3 and got.coeffs[:, 1].tolist() == [0.0] * 3
        assert jets._gather(np.array([0, 1, 1]), [opts[0], low]).order == 1
        assert jets._gather(1, opts) is opts[1]
        with pytest.raises(jets._Split):
            jets._gather(np.array([0, 1, 1]), [opts[0], 1.0])


class TestModeMixing:
    """A float jet and an exact jet never combine (they raised no error once)."""

    def test_arithmetic_between_modes_raises(self):
        f = MultiJet(1, 1, [0.5, 2.0], (Fraction(0),))
        e = MultiJet(1, 1, [Fraction(1), Fraction(2)], (Fraction(0),), exact=True)
        for a, b in ((f, e), (e, f)):
            for op in (operator.add, operator.sub, operator.mul, operator.truediv):
                with pytest.raises(TypeError):
                    op(a, b)

    def test_composition_and_inversion_between_modes_raise(self):
        f = MultiJet(1, 2, [0.0, 2.0, 1.0], (0.0,))
        e = MultiJet(1, 2, [Fraction(0), Fraction(2), Fraction(1)], (Fraction(0),), exact=True)
        with pytest.raises(TypeError):
            compose_many([f], [e])
        with pytest.raises(TypeError):
            compose_many([e], [f])
        g = MultiJet(2, 1, [0.0, 1.0, 0.0], (0.0, 0.0))
        h = MultiJet(2, 1, [Fraction(0), Fraction(0), Fraction(1)], (Fraction(0),) * 2,
                     exact=True)
        with pytest.raises(TypeError):
            invert_series([g, h])

    def test_an_exact_divisor_with_a_zero_real_part_is_a_zero_divisor(self):
        from sympinv.rational import Dual

        d = MultiJet(1, 1, [Dual(0, 1), Fraction(1)], (Fraction(0),), exact=True)
        with pytest.raises(DivisionByZeroJet):
            d.reciprocal()
        with pytest.raises(DivisionByZeroJet):
            MultiJet.constant(Fraction(1), 1, 1, (Fraction(0),), exact=True) / d
