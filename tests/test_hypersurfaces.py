"""Hypersurface invariants: the R^4 case and the general canonical frame."""

import numpy as np
import pytest

from helpers import (exact_jacobian, fd_jacobian, fraction_rank, max_invariance_error,
                     numeric_rank, relerr, same_coeffs, val)

from sympinv import hypersurfaces as hyp
from sympinv.exprs import parse
from sympinv.geometry import JetPoint, hypersurface_chart
from sympinv.jetlinalg import magnitude


def sphere_point(order=3):
    chart = hypersurface_chart(2)
    ast = parse("vars: x,y,z\nx^2 + y^2 + z^2")
    return JetPoint.from_exprs(chart, {"u": ast}, (1.0, 0.0, 0.0), order)


class TestR4:
    def test_sphere_i2a(self):
        gens, _, _ = hyp.invariants_r4(sphere_point())
        assert val(gens["I2a"]) == pytest.approx(10.0, rel=1e-12)

    def test_printed_formula_matches_frame(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            p = JetPoint.random(hypersurface_chart(2), 3, rng)
            gens, _, _ = hyp.invariants_r4(p)
            assert relerr(val(gens["I2a"]), val(hyp.printed_formula_i2a(p))) <= 1e-10

    def test_first_derivation_coefficients_on_sphere(self):
        # v1 = (D_y - u_z D_x + u_x D_z)/delta = D_y + 2 D_z at (1,0,0)
        p = sphere_point()
        _, ders, _ = hyp.invariants_r4(p)
        coeffs = [val(c) for c in ders[0].coeffs]
        assert coeffs == pytest.approx([0.0, 1.0, 2.0], abs=1e-12)

    def test_invariance_under_group(self):
        rng = np.random.default_rng(5)
        p = JetPoint.random(hypersurface_chart(2), 2, rng)

        def evaluate(q):
            gens, _, _ = hyp.invariants_r4(q)
            return {k: val(v) for k, v in gens.items()}

        assert max_invariance_error(p, evaluate, "sp", 12, seed0=500) <= 1e-8

    def test_second_order_independence(self):
        rng = np.random.default_rng(7)
        p = JetPoint.random(hypersurface_chart(2), 2, rng)

        def evaluate(q):
            gens, _, _ = hyp.invariants_r4(q)
            return [val(gens["I2a"]), val(gens["I2b"]), val(gens["I2c"])]

        fiber = p.fiber_coordinates(min_order=0, max_order=2)
        jac = fd_jacobian(p, evaluate, fiber)
        assert numeric_rank(jac, rel=1e-5) == 3

    def test_third_order_span_contains_ten_independent(self):
        # 9 derived invariants + 9 commutator coefficients; exact rank over
        # the pure order-3 fiber must be 10 (steep functions defeat finite
        # differences here, so the Jacobian is taken with dual numbers)
        rng = np.random.default_rng(11)
        p = JetPoint.random(hypersurface_chart(2), 4, rng, exact=True)
        jac = exact_jacobian(p, _third_order_candidates,
                             p.fiber_coordinates(min_order=3, max_order=3))
        assert fraction_rank(jac) == 10
        # the nine derived invariants alone span only 9
        assert fraction_rank(jac[:9]) == 9

    def test_pivot_basis_selection(self):
        # greedy pivoting over the exact Jacobian must select a 10-element
        # independent subset (the basis we report)
        rng = np.random.default_rng(11)
        p = JetPoint.random(hypersurface_chart(2), 4, rng, exact=True)
        jac = exact_jacobian(p, _third_order_candidates,
                             p.fiber_coordinates(min_order=3, max_order=3))
        selected = []
        kept = []
        for i, row in enumerate(jac):
            if fraction_rank(kept + [row]) > len(selected):
                selected.append(i)
                kept.append(row)
        assert len(selected) == 10
        assert fraction_rank(kept) == 10


def _third_order_candidates(q):
    """The 18 third-order quantities: 9 derived invariants followed by the
    9 commutator structure coefficients in the horizontal frame."""
    from sympinv import jetlinalg

    gens, ders, _ = hyp.invariants_r4(q)
    out = []
    for d in ders:
        for key in ("I2a", "I2b", "I2c"):
            out.append(d(gens[key]).value())
    for i in range(3):
        for j in range(i + 1, 3):
            comm = ders[i].commutator(ders[j])
            rows = [[d.coeffs[a].value() for d in ders] for a in range(3)]
            rhs = [comm.coeffs[a].value() for a in range(3)]
            out.extend(jetlinalg.solve(rows, rhs))
    return out


class TestGeneralFrame:
    @pytest.mark.parametrize("n", [2, 3])
    def test_gram_matrix_pattern(self, n):
        rng = np.random.default_rng(17 + n)
        p = JetPoint.random(hypersurface_chart(n), 2, rng)
        fr = hyp.canonical_frame(p)
        gram = hyp.gram_matrix_values(fr)
        expected = hyp.expected_gram_pattern(fr)
        scale = max(np.max(np.abs(gram)), 1.0)
        assert np.max(np.abs(gram - expected)) / scale <= 1e-10

    @pytest.mark.parametrize("n", [2, 3])
    def test_omega_canonical_identity(self, n):
        rng = np.random.default_rng(23 + n)
        p = JetPoint.random(hypersurface_chart(n), 2, rng)
        fr = hyp.canonical_frame(p)
        amb_scale = max(magnitude(c) for vec in fr.vectors[1:] for c in vec)
        assert hyp.omega_identity_defect(fr) / max(amb_scale**2, 1.0) <= 1e-10

    @pytest.mark.parametrize("n", [2, 3])
    def test_counting_h2(self, n):
        rng = np.random.default_rng(29 + n)
        p = JetPoint.random(hypersurface_chart(n), 2, rng)
        names = [f"I2_{i}" for i in range(1, 2 * n)]

        def evaluate(q):
            fr = hyp.canonical_frame(q)
            return [val(fr.invariants[k]) for k in names]

        fiber = p.fiber_coordinates(min_order=0, max_order=2)
        jac = fd_jacobian(p, evaluate, fiber)
        assert numeric_rank(jac, rel=1e-5) == 2 * n - 1

    def test_invariance_n3(self):
        rng = np.random.default_rng(37)
        p = JetPoint.random(hypersurface_chart(3), 2, rng)

        def evaluate(q):
            fr = hyp.canonical_frame(q)
            return {k: val(v) for k, v in fr.invariants.items()}

        assert max_invariance_error(p, evaluate, "sp", 5, seed0=900) <= 1e-8

    def test_frame_equivariance(self):
        # pushing the jet forward maps the frame to the image frame
        from sympinv.geometry import pushforward
        from sympinv.symplectic import random_group_element

        rng = np.random.default_rng(41)
        p = JetPoint.random(hypersurface_chart(2), 2, rng)
        fr = hyp.canonical_frame(p)
        g = random_group_element(p.chart.space, "sp", 77)
        moved = pushforward(p, g)
        fr_moved = hyp.canonical_frame(moved)
        du_moved = fr_moved._du
        for idx in range(1, 4):
            amb = [val(c) for c in hyp._embed(fr.vectors[idx], fr._du)]
            mapped = g.matrix @ np.array(amb)
            amb_moved = np.array([val(c) for c in hyp._embed(fr_moved.vectors[idx], du_moved)])
            assert np.allclose(mapped, amb_moved, rtol=1e-9, atol=1e-9)


def triple_product_q(point, delta, w1, w2):
    """Q(w1, w2) as the p^2 sum of hess[a][b] * w1[a] * w2[b], over delta."""
    _, _, _, hess = hyp._data(point)
    acc = None
    for a in range(len(hess)):
        for b in range(len(hess)):
            term = hess[a][b] * w1[a] * w2[b]
            acc = term if acc is None else acc + term
    return acc / delta


class TestQFormReference:
    @pytest.mark.parametrize("n,order", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_float_frame_matches_triple_products(self, n, order):
        rng = np.random.default_rng(50 + 10 * n + order)
        for _ in range(3):
            p = JetPoint.random(hypersurface_chart(n), order, rng)
            fr = hyp.canonical_frame(p)
            vecs = fr.vectors[1:]
            want = [[triple_product_q(p, fr.delta, vi, vj).coeffs for vj in vecs]
                    for vi in vecs]
            # relative to the largest entry: the off-diagonal zeros cancel
            scale = np.max(np.abs(want))
            got = [[fr._q_form(vi, vj).coeffs for vj in vecs] for vi in vecs]
            assert np.max(np.abs(np.subtract(got, want))) <= 1e-13 * scale
            for i in range(len(vecs)):
                inv = fr.invariants[f"I2_{i + 1}"].coeffs
                assert np.max(np.abs(inv - want[i][i])) <= 1e-13 * scale

    @pytest.mark.parametrize("n", [2, 3])
    def test_exact_frame_equals_triple_products(self, n):
        rng = np.random.default_rng(60 + n)
        p = JetPoint.random(hypersurface_chart(n), 2, rng, exact=True)
        fr = hyp.canonical_frame(p)
        vecs = fr.vectors[1:]
        for i, vi in enumerate(vecs):
            for j, vj in enumerate(vecs):
                want = triple_product_q(p, fr.delta, vi, vj)
                assert same_coeffs(fr._q_form(vi, vj), want)
                if i == j:
                    assert same_coeffs(fr.invariants[f"I2_{i + 1}"], want)
                elif {i, j} in ({2 * r, 2 * r + 1} for r in range(n)):
                    assert want.value() == 1  # the frame's [[I, 1], [1, I]] blocks
                else:
                    assert want.value() == 0


class TestRescaleIdentity:
    def test_constant_one(self):
        p = sphere_point()
        assert hyp.rescale_residual(p, 1.0, [0.0, 0.0, 0.0, 0.0]) <= 1e-14

    def test_constant_factor(self):
        p = sphere_point()
        assert hyp.rescale_residual(p, 3.7, [0.0, 0.0, 0.0, 0.0]) <= 1e-12

    def test_random_factor_jet(self):
        rng = np.random.default_rng(43)
        p = JetPoint.random(hypersurface_chart(2), 2, rng)
        for _ in range(5):
            f0 = rng.uniform(0.5, 2.0)
            grad = list(rng.uniform(-1, 1, size=4))
            assert hyp.rescale_residual(p, f0, grad) <= 1e-10
