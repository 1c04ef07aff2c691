"""Invariants of functions on the symplectic plane and its higher analogues."""

from fractions import Fraction

import numpy as np
import pytest

from helpers import fd_jacobian, max_invariance_error, numeric_rank, relerr, residuals, val

from sympinv import functions as fn
from sympinv.errors import FrameDegeneracy
from sympinv.exprs import parse
from sympinv.geometry import JetPoint, function_chart, relation_values


def point_from(expr_text, at, order=4, n=1, exact=False):
    chart = function_chart(n)
    names = chart.independent_names()
    ast = parse(f"vars: {', '.join(names)}\n{expr_text}")
    return JetPoint.from_exprs(chart, {"u": ast}, at, order, exact=exact)


class TestPlaneInvariants:
    def test_radial_value_on_round_paraboloid(self):
        p = point_from("x^2 + y^2", (1.0, 0.0))
        inv = fn.invariants_n1(p)
        assert val(inv["I1"]) == pytest.approx(2.0)
        assert val(inv["I2a"]) == pytest.approx(2.0)

    def test_i2c_on_saddle(self):
        p = point_from("x*y", (1.0, 1.0))
        inv = fn.invariants_n1(p)
        assert val(inv["I2c"]) == pytest.approx(-2.0)

    def test_reduction_identities(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            p = JetPoint.random(function_chart(1), 4, rng)
            inv = fn.invariants_n1(p)
            d1 = fn.radial_derivation(p)
            d2 = fn.gradient_derivation(p)
            i0 = inv["I0"]
            assert relerr(val(d1(i0)), val(inv["I1"])) <= 1e-9
            assert relerr(val(d1(d1(i0)) - d1(i0)), val(inv["I2a"])) <= 1e-9
            assert relerr(val(-d2(d1(i0))), val(inv["I2b"])) <= 1e-9

    def test_gradient_derivation_kills_i0(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            p = JetPoint.random(function_chart(1), 3, rng)
            d2 = fn.gradient_derivation(p)
            assert abs(val(d2(p.jets["u"]))) <= 1e-12 * max(1.0, abs(val(p.jets["u"])))

    def test_radial_derivative_of_i1_example(self):
        p = point_from("x^2 + y^2", (1.0, 0.0))
        inv = fn.invariants_n1(p)
        d1 = fn.radial_derivation(p)
        assert val(d1(inv["I1"])) == pytest.approx(4.0)
        assert val(d1(d1(inv["I0"])) - d1(inv["I0"])) == pytest.approx(2.0)

    def test_syzygy_residuals_on_random_jets(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = JetPoint.random(function_chart(1), 4, rng)
            res = residuals(fn.relations_n1(p))
            assert res["R1"] <= 1e-12
            assert res["R2"] <= 1e-8
            assert res["R3"] <= 1e-8

    def test_syzygies_exact_on_rational_jets(self):
        rng = np.random.default_rng(7)
        for _ in range(4):
            p = JetPoint.random(function_chart(1), 4, rng, exact=True)
            for terms in fn.relations_n1(p).values():
                for residual in relation_values(terms):
                    assert residual == Fraction(0)

    def test_endomorphism_expansions(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            p = JetPoint.random(function_chart(1), 3, rng)
            assert fn.expansion_defect_a_nabla2(p) <= 1e-9
            assert fn.expansion_defect_a_nabla1(p) <= 1e-9

    def test_invariance_under_group(self):
        rng = np.random.default_rng(13)
        p = JetPoint.random(function_chart(1), 3, rng)

        def evaluate(q):
            return {k: val(v) for k, v in fn.invariants_n1(q).items()}

        assert max_invariance_error(p, evaluate, "sp", 10, seed0=40) <= 1e-8


class TestGeneralN:
    def test_gram_entries_reduce_to_plane_invariants(self):
        rng = np.random.default_rng(17)
        for _ in range(8):
            p = JetPoint.random(function_chart(1), 3, rng)
            gens, _ = fn.generators_general(p)
            inv = fn.invariants_n1(p)
            assert relerr(val(gens["I11"]), val(inv["I2a"])) <= 1e-10
            assert relerr(val(gens["I12"]), -val(inv["I2b"])) <= 1e-10
            assert relerr(val(gens["I22"]), val(inv["I2c"])) <= 1e-10

    def test_round_paraboloid_frame_degenerates_for_n2(self):
        # the endomorphism is a multiple of the rotation there, so the
        # generated derivations stay in a 2-plane
        p = point_from("x1^2 + x2^2 + y1^2 + y2^2", (1.0, 0.5, -0.3, 0.8), order=3, n=2)
        with pytest.raises(FrameDegeneracy):
            fn.derivations_general(p)

    def test_generic_two_dof_frame_has_rank_four(self):
        rng = np.random.default_rng(19)
        p = JetPoint.random(function_chart(2), 3, rng)
        ders = fn.derivations_general(p)
        mat = [[val(c) for c in d.coeffs] for d in ders]
        assert numeric_rank(mat, rel=1e-9) == 4

    def test_generators_invariant_for_n2(self):
        rng = np.random.default_rng(23)
        p = JetPoint.random(function_chart(2), 3, rng)

        def evaluate(q):
            gens, _ = fn.generators_general(q)
            return {k: val(v) for k, v in gens.items()}

        assert max_invariance_error(p, evaluate, "sp", 6, seed0=60) <= 1e-8

    def test_qk_contraction_matches_gram_for_k2(self):
        rng = np.random.default_rng(29)
        p = JetPoint.random(function_chart(1), 3, rng)
        d1 = fn.radial_derivation(p)
        q2 = fn.q2_matrix(p)
        direct = fn.q2_form(q2, d1, d1)
        contracted = fn.qk_form(p, (d1, d1))
        assert relerr(val(direct), val(contracted)) <= 1e-10

    def test_listed_generators_independent_for_n2(self):
        # no relation among the listed generators at order <= 2: the unlisted
        # syzygies live among higher derived invariants
        rng = np.random.default_rng(31)
        p = JetPoint.random(function_chart(2), 3, rng)

        def evaluate(q):
            gens, _ = fn.generators_general(q)
            return [val(g) for g in gens.values()]

        mat = fd_jacobian(p, evaluate, p.fiber_coordinates(0, 2), h=1e-6)
        assert (mat.shape[0], numeric_rank(mat, rel=1e-6)) == (8, 8)


class TestPerturb:
    def test_one_perturb_bumps_a_float_or_an_exact_fiber_coordinate(self):
        from sympinv.rational import Dual

        rng = np.random.default_rng(5)
        p = JetPoint.random(function_chart(1), 3, rng)
        bumped = p.perturb("u", (2, 1), 1e-3).jets["u"]
        want = p.jets["u"].coeffs.copy()
        want[7] += 1e-3 / 2  # (2, 1) sits at index 7 in graded-lex order
        assert bumped.coefficient((2, 1)) == want[7]
        assert bumped.coeffs.tobytes() == want.tobytes()
        pe = JetPoint.random(function_chart(1), 3, rng, exact=True)
        moved = pe.perturb("u", (2, 1), Dual(0, 1))
        assert moved.exact and moved.jets["u"].exact
        assert (moved.jets["u"].coefficient((2, 1))
                == pe.jets["u"].coefficient((2, 1)) + Dual(0, Fraction(1, 2)))
        assert [c for i, c in enumerate(moved.jets["u"].coeffs) if i != 7] == \
            [c for i, c in enumerate(pe.jets["u"].coeffs) if i != 7]
