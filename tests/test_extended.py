"""Conformal/affine extension invariants on the symplectic plane."""

import numpy as np
import pytest

from helpers import (fd_jacobian, max_invariance_error, numeric_rank, relerr, residuals,
                     scaling_weight, val)

from sympinv import extended as ext
from sympinv.errors import WeightNormalizationSingular
from sympinv.exprs import parse
from sympinv.geometry import JetPoint, curve_chart, function_chart, pushforward
from sympinv.symplectic import GroupElement


def fn_point(expr_text, at, order=5):
    chart = function_chart(1)
    ast = parse(f"vars: x,y\n{expr_text}")
    return JetPoint.from_exprs(chart, {"u": ast}, at, order)


def curve_point(expr_text, x0, order=6):
    chart = curve_chart(1)
    ast = parse(f"vars: x\n{expr_text}")
    return JetPoint.from_exprs(chart, {"y": ast}, (x0,), order)


def scale_element(space, lam):
    return GroupElement(space, lam * np.eye(space.dim), lam, None, "csp")


class TestConformalFunctions:
    def test_scaled_generator_is_weight_zero(self):
        rng = np.random.default_rng(3)
        p = JetPoint.random(function_chart(1), 3, rng)

        def evaluate(q):
            gens, _ = ext.csp_function_invariants(q)
            return {"I2bp": val(gens["I2bp"])}

        for lam in (2.0, 3.0, 0.5):
            g = scale_element(p.chart.space, lam)
            moved = pushforward(p, g)
            got = evaluate(moved)["I2bp"]
            assert relerr(got, evaluate(p)["I2bp"]) <= 1e-10

    def test_d2p_of_i1_is_minus_one(self):
        rng = np.random.default_rng(5)
        for _ in range(8):
            p = JetPoint.random(function_chart(1), 3, rng)
            gens, ders = ext.csp_function_invariants(p)
            assert val(ders["d2p"](gens["I1"])) == pytest.approx(-1.0, rel=1e-9)

    def test_syzygies(self):
        rng = np.random.default_rng(7)
        for _ in range(8):
            p = JetPoint.random(function_chart(1), 5, rng)
            res = residuals(ext.csp_function_relations(p))
            assert res["R1"] <= 1e-12
            assert res["R2"] <= 1e-9
            assert res["R3"] <= 1e-8
            assert res["R4"] <= 1e-7

    def test_invariance_under_csp(self):
        rng = np.random.default_rng(9)
        p = JetPoint.random(function_chart(1), 3, rng)

        def evaluate(q):
            gens, _ = ext.csp_function_invariants(q)
            return {k: val(v) for k, v in gens.items()}

        assert max_invariance_error(p, evaluate, "csp", 10, seed0=40) <= 1e-8

    def test_degenerate_i2b(self):
        # radially symmetric u has I2b = 0 everywhere
        p = fn_point("x^2 + y^2", (1.0, 0.0))
        with pytest.raises(WeightNormalizationSingular):
            ext.csp_function_invariants(p)


class TestAffineFunctions:
    def test_hessian_on_round_paraboloid(self):
        p = fn_point("x^2 + y^2", (0.7, -0.4))
        gens, _ = ext.asp_function_invariants(p)
        assert val(gens["I2p"]) == pytest.approx(4.0)

    def test_translation_invariance(self):
        ast = parse("vars: x,y\nx^2*y + 3*x*y - y^2 + x")
        chart = function_chart(1)
        a, b = 0.31, -0.77
        p = JetPoint.from_exprs(chart, {"u": ast}, (1.1, 0.6), 4)
        shifted_ast = parse(f"vars: x,y\n(x - {a})^2*(y + {b}) + 3*(x - {a})*(y + {b}) - (y + {b})^2 + (x - {a})")
        q = JetPoint.from_exprs(chart, {"u": shifted_ast}, (1.1 + a, 0.6 - b), 4)
        for point_pair in [(p, q)]:
            g0, _ = ext.asp_function_invariants(point_pair[0])
            g1, _ = ext.asp_function_invariants(point_pair[1])
            for key in ("I0", "I2p", "I2c"):
                assert relerr(val(g0[key]), val(g1[key])) <= 1e-9

    def test_reduction_d1p_i0_equals_i2c(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            p = JetPoint.random(function_chart(1), 3, rng)
            defect = ext.asp_reduction_defect(p)
            gens, _ = ext.asp_function_invariants(p)
            assert val(defect) <= 1e-10 * max(1.0, abs(val(gens["I2c"])))

    def test_syzygies(self):
        rng = np.random.default_rng(13)
        for _ in range(8):
            p = JetPoint.random(function_chart(1), 5, rng)
            res = residuals(ext.asp_function_relations(p))
            assert res["R1"] <= 1e-8
            assert res["R2"] <= 1e-12
            assert res["R3"] <= 1e-7

    def test_invariance_under_asp(self):
        rng = np.random.default_rng(17)
        p = JetPoint.random(function_chart(1), 3, rng)

        def evaluate(q):
            gens, _ = ext.asp_function_invariants(q)
            return {k: val(v) for k, v in gens.items()}

        assert max_invariance_error(p, evaluate, "asp", 10, seed0=60) <= 1e-8


class TestAffineConformalFunctions:
    def test_weight_bookkeeping(self):
        # weights of (I0, I2p) are (0, -4); of (d1p(I0)=I2c, d2(I2p)) are (-4, -6)
        rng = np.random.default_rng(19)
        p = JetPoint.random(function_chart(1), 4, rng)
        lam = 2.0
        g = scale_element(p.chart.space, lam)

        def evaluate(q):
            gens, ders = ext.asp_function_invariants(q)
            return {
                "I0": val(gens["I0"]),
                "I2p": val(gens["I2p"]),
                "I2c": val(gens["I2c"]),
                "d2I2p": val(ders["d2"](gens["I2p"])),
            }

        weights = scaling_weight(p, evaluate, lam, g)
        assert weights["I0"] == pytest.approx(0.0, abs=1e-9)
        assert weights["I2p"] == pytest.approx(-4.0, abs=1e-9)
        assert weights["I2c"] == pytest.approx(-4.0, abs=1e-9)
        assert weights["d2I2p"] == pytest.approx(-6.0, abs=1e-9)

    def test_invariance_under_acsp(self):
        rng = np.random.default_rng(23)
        p = JetPoint.random(function_chart(1), 4, rng)

        def evaluate(q):
            gens, _ = ext.acsp_function_invariants(q)
            return {k: val(v) for k, v in gens.items()}

        assert max_invariance_error(p, evaluate, "acsp", 10, seed0=80) <= 1e-8

    def test_degenerate_linear_input(self):
        p = fn_point("x", (1.0, 1.0))
        with pytest.raises(WeightNormalizationSingular):
            ext.acsp_function_invariants(p)


class TestConformalCurves:
    def test_parabola_constant(self):
        for x0 in (0.6, 1.0, 1.7):
            p = curve_point("x^2", x0)
            gens, _ = ext.csp_curve_invariants(p)
            assert val(gens["I3p"]) == pytest.approx(18.0, rel=1e-10)

    def test_invariance_under_csp(self):
        rng = np.random.default_rng(29)
        p = JetPoint.random(curve_chart(1), 5, rng)

        def evaluate(q):
            gens, _ = ext.csp_curve_invariants(q)
            return {"I3p": val(gens["I3p"])}

        assert max_invariance_error(p, evaluate, "csp", 10, seed0=100) <= 1e-8


class TestAffineCurves:
    def test_parabola_vanishes(self):
        p = curve_point("x^2", 1.3)
        gens, _ = ext.asp_curve_invariants(p)
        assert abs(val(gens["I4pp"])) <= 1e-12

    def test_exponential_values(self):
        for x0 in (0.0, 0.8, -0.5):
            p = curve_point("exp(x)", x0)
            micro, _ = ext.asp_curve_microlocal(p)
            gens, _ = ext.asp_curve_invariants(p)
            assert val(micro["I4p"]) == pytest.approx(-2 * np.exp(-2 * x0 / 3), rel=1e-10)
            assert val(gens["I4pp"]) == pytest.approx(-8 * np.exp(-2 * x0), rel=1e-10)

    def test_microlocal_cube_matches_rational(self):
        rng = np.random.default_rng(31)
        for _ in range(6):
            p = JetPoint.random(curve_chart(1), 6, rng)
            try:
                micro, _ = ext.asp_curve_microlocal(p)
                gens, _ = ext.asp_curve_invariants(p)
            except WeightNormalizationSingular:
                continue
            assert relerr(val(micro["I4p"]) ** 3, val(gens["I4pp"])) <= 1e-9

    def test_invariance_under_asp(self):
        rng = np.random.default_rng(37)
        p = JetPoint.random(curve_chart(1), 6, rng)

        def evaluate(q):
            gens, _ = ext.asp_curve_invariants(q)
            return {"I4pp": val(gens["I4pp"])}

        assert max_invariance_error(p, evaluate, "asp", 10, seed0=120) <= 1e-8


class TestAffineConformalCurves:
    def test_invariance_under_acsp(self):
        rng = np.random.default_rng(41)
        p = JetPoint.random(curve_chart(1), 6, rng)

        def evaluate(q):
            gens, _ = ext.acsp_curve_invariants(q)
            return {"I5": val(gens["I5"])}

        assert max_invariance_error(p, evaluate, "acsp", 10, seed0=140) <= 1e-8


class TestRankReports:
    def test_acsp_generators_independent_through_first_derived(self):
        rng = np.random.default_rng(43)
        p = JetPoint.random(function_chart(1), 5, rng)

        def evaluate(q):
            gens, ders = ext.acsp_function_invariants(q)
            out = [gens["I0"], gens["I3app"], gens["I3bpp"]]
            for d in ("d1pp", "d2pp"):
                for g in ("I3app", "I3bpp"):
                    out.append(ders[d](gens[g]))
            return [val(v) for v in out]

        mat = fd_jacobian(p, evaluate, p.fiber_coordinates(0, 4), h=1e-6)
        assert (mat.shape[0], numeric_rank(mat, rel=1e-6)) == (7, 7)
