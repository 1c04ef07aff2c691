"""Curve invariants: the planar pair, the R^4 cascade and the general-n frame."""

from fractions import Fraction

import numpy as np
import pytest

from helpers import fd_jacobian, max_invariance_error, numeric_rank, relerr, val

from sympinv import curves
from sympinv.curves import bell_coefficients
from sympinv.errors import DegenerateJet
from sympinv.exprs import parse
from sympinv.geometry import JetPoint, curve_chart, parametric_curve_point
from sympinv.jets import MultiJet


def plane_curve(expr_text, x0, order=6, exact=False):
    chart = curve_chart(1)
    ast = parse(f"vars: x\n{expr_text}")
    at = (Fraction(x0) if exact else float(x0),)
    return JetPoint.from_exprs(chart, {"y": ast}, at, order, exact=exact)


def space_curve(defs, t0, n=2, order=8, exact=False):
    chart = curve_chart(n)
    at = (Fraction(t0) if exact else float(t0),)
    jets = {}
    for name in chart.dependent:
        ast = parse(f"vars: t\n{defs[name]}")
        jets[name] = ast
    return JetPoint.from_exprs(chart, jets, at, order, exact=exact)


class TestBellCoefficients:
    def test_printed_chain_rule_vectors(self):
        b = bell_coefficients(4)
        from sympinv.symplectic import Poly
        k1 = Poly.coordinate(4, 0)
        k2 = Poly.coordinate(4, 1)
        k3 = Poly.coordinate(4, 2)
        k4 = Poly.coordinate(4, 3)
        assert b[(2, 2)] == k1 * k1
        assert b[(2, 1)] == k2
        assert b[(3, 3)] == k1 * k1 * k1
        assert b[(3, 2)] == 3 * k1 * k2
        assert b[(3, 1)] == k3
        assert b[(4, 4)] == k1 * k1 * k1 * k1
        assert b[(4, 3)] == 6 * k1 * k1 * k2
        assert b[(4, 2)] == 4 * k1 * k3 + 3 * k2 * k2
        assert b[(4, 1)] == k4


class TestPlaneCurves:
    def test_parabola_invariant(self):
        p = plane_curve("x^2", 1.0)
        inv = curves.invariants_n1(p)
        assert val(inv["I2"]) == pytest.approx(2.0)

    def test_parabola_invariant_exact(self):
        p = plane_curve("x^2", 1, exact=True)
        inv = curves.invariants_n1(p)
        assert inv["I2"].value() == Fraction(2)

    def test_sheared_parabola_keeps_i2(self):
        for c in (-1.3, 0.0, 0.4, 2.7):
            ast = parse(f"vars: x\nx^2 + {c}*x" if c >= 0 else f"vars: x\nx^2 - {-c}*x")
            p = JetPoint.from_exprs(curve_chart(1), {"y": ast}, (1.0,), 4)
            inv = curves.invariants_n1(p)
            assert val(inv["I2"]) == pytest.approx(2.0, rel=1e-12)

    def test_derived_invariant_and_signature_relation(self):
        for x0 in (0.7, 1.0, 1.8):
            p = plane_curve("x^2", x0)
            inv = curves.invariants_n1(p, depth=1)
            i2, i3 = val(inv["I2"]), val(inv["I3"])
            assert i2 == pytest.approx(2.0 * x0**-6, rel=1e-11)
            assert i3 == pytest.approx(-12.0 * x0**-9, rel=1e-11)
            assert i3**2 == pytest.approx(18.0 * i2**3, rel=1e-10)

    def test_degenerate_tangent_through_origin(self):
        p = plane_curve("x", 1.0)  # x*y1 - y = 0 identically
        with pytest.raises(DegenerateJet):
            curves.invariants_n1(p)

    def test_general_frame_reduces_to_plane_formula(self):
        rng = np.random.default_rng(31)
        for _ in range(6):
            p = JetPoint.random(curve_chart(1), 4, rng)
            gens, _ = curves.invariants(p)
            inv = curves.invariants_n1(p)
            assert relerr(val(gens["I2"]), val(inv["I2"])) <= 1e-11


class TestSpaceCurves:
    def test_moment_curve_delta_and_k1(self):
        p = space_curve({"x": "t^2", "y": "t^3", "z": "t^4"}, 1.0)
        d = curves.delta_value(p)
        assert val(d) == pytest.approx(4.0)
        _, fr = curves.invariants(p)
        assert val(fr.k[0]) == pytest.approx(0.25)

    def test_moment_curve_i2_float_and_exact(self):
        p = space_curve({"x": "t^2", "y": "t^3", "z": "t^4"}, 1.0)
        gens, _ = curves.invariants(p)
        assert val(gens["I2"]) == pytest.approx(11.0 / 32.0, rel=1e-12)
        pe = space_curve({"x": "t^2", "y": "t^3", "z": "t^4"}, 1, exact=True)
        gens_e, _ = curves.invariants(pe)
        assert gens_e["I2"].value() == Fraction(11, 32)

    def test_frame_normalizations_hold(self):
        rng = np.random.default_rng(37)
        for _ in range(6):
            p = JetPoint.random(curve_chart(2), 6, rng)
            vals = curves.normalize_frame_checks(p)
            assert vals[0] == pytest.approx(1.0, abs=1e-10)
            for v in vals[1:]:
                assert abs(v) <= 1e-10

    def test_printed_i2_formula_matches_frame(self):
        rng = np.random.default_rng(41)
        for _ in range(6):
            p = JetPoint.random(curve_chart(2), 6, rng)
            gens, _ = curves.invariants(p)
            assert relerr(val(gens["I2"]), val(curves.printed_formula_i2(p))) <= 1e-10

    def test_invariance_of_generators(self):
        rng = np.random.default_rng(43)
        p = JetPoint.random(curve_chart(2), 6, rng)

        def evaluate(q):
            gens, _ = curves.invariants(q)
            return {k: val(gens[k]) for k in ("I2", "I3b", "I4c")}

        assert max_invariance_error(p, evaluate, "sp", 12, seed0=300) <= 1e-8

    def test_i3a_functionally_dependent_on_i2_and_derivative(self):
        rng = np.random.default_rng(47)
        p = JetPoint.random(curve_chart(2), 5, rng)
        nabla = curves.nabla(p)

        def evaluate(q):
            gens, _ = curves.invariants(q.truncate(5))
            der = curves.nabla(q)
            return [val(gens["I2"]), val(der(gens["I2"])), val(gens["I3a"])]

        fiber = p.fiber_coordinates(min_order=0, max_order=3)
        jac = fd_jacobian(p, evaluate, fiber)
        assert numeric_rank(jac, rel=1e-5) == 2

    def test_generating_set_rank_is_three(self):
        # I2, I3b, I4c are independent over the 4-jet fiber
        rng = np.random.default_rng(53)
        p = JetPoint.random(curve_chart(2), 6, rng)

        def evaluate(q):
            gens, _ = curves.invariants(q)
            return [val(gens["I2"]), val(gens["I3b"]), val(gens["I4c"])]

        fiber = p.fiber_coordinates(min_order=0, max_order=4)
        jac = fd_jacobian(p, evaluate, fiber)
        assert numeric_rank(jac, rel=1e-5) == 3

    def test_reparametrization_invariance(self):
        # same curve traced through a monotone cubic reparametrization
        chart = curve_chart(2)
        order = 8
        defs = {"x": "t^2 + t", "y": "t^3 - 2*t", "z": "t^4 + t^2"}
        t0 = 1.1

        direct = space_curve(defs, t0)
        gens_d, _ = curves.invariants(direct)

        # phi(s) = 0.2 s^3 + 0.5 s + c chosen so phi(s0) = t0
        s0 = 0.8
        phi_const = t0 - (0.2 * s0**3 + 0.5 * s0)
        s_jet = MultiJet.variable(0, 1, order, (s0,))
        phi = 0.2 * s_jet**3 + 0.5 * s_jet + phi_const
        comps = [phi]
        for name in ("x", "y", "z"):
            ast = parse(f"vars: t\n{defs[name]}")
            from sympinv.exprs import evaluate as ev
            comps.append(ev(ast, {"t": phi}))
        reparam = parametric_curve_point(chart, comps, order)
        gens_r, _ = curves.invariants(reparam)
        for key in ("I2", "I3b", "I4c"):
            assert relerr(val(gens_d[key]), val(gens_r[key])) <= 1e-8

    @pytest.mark.parametrize("n", [3])
    def test_general_n_has_2n_minus_1_generators(self, n):
        rng = np.random.default_rng(59)
        p = JetPoint.random(curve_chart(n), 2 * n, rng, spread=(0.6, 1.4))
        gens, _ = curves.invariants(p)
        names = [f"I{m}" for m in range(2, 2 * n + 1)]
        assert len(names) == 2 * n - 1

        def evaluate(q):
            g, _ = curves.invariants(q)
            return [val(g[k]) for k in names]

        fiber = p.fiber_coordinates(min_order=0, max_order=2 * n)
        jac = fd_jacobian(p, evaluate, fiber)
        assert numeric_rank(jac, rel=1e-5) == 2 * n - 1

    def test_invariance_general_n3(self):
        rng = np.random.default_rng(61)
        p = JetPoint.random(curve_chart(3), 6, rng, spread=(0.6, 1.4))

        def evaluate(q):
            g, _ = curves.invariants(q)
            return {k: val(v) for k, v in g.items()}

        assert max_invariance_error(p, evaluate, "sp", 5, seed0=700) <= 1e-8
