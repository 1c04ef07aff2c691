"""Contact-space invariants: curves, surfaces, functions, and their syzygies."""

from fractions import Fraction

import numpy as np
import pytest

from helpers import max_invariance_error, relerr, val

from sympinv import contact
from sympinv.errors import DegenerateJet, OnZeroLevelSet
from sympinv.exprs import parse
from sympinv.geometry import (
    JetPoint,
    contact_curve_chart,
    contact_function_chart,
    contact_surface_chart,
    pushforward,
)
from sympinv.rational import Dual
from sympinv.symplectic import (
    ContactLift,
    contact_algebra_basis,
    infinitesimal_point_map,
    random_contact_lift,
)


def curve_point(y_expr, z_expr, x0, order=4, exact=False):
    chart = contact_curve_chart()
    defs = {"y": parse(f"vars: x\n{y_expr}"), "z": parse(f"vars: x\n{z_expr}")}
    at = (Fraction(x0) if exact else float(x0),)
    return JetPoint.from_exprs(chart, defs, at, order, exact=exact)


def surf_point(z_expr, at, order=4, exact=False):
    chart = contact_surface_chart()
    defs = {"z": parse(f"vars: x,y\n{z_expr}")}
    return JetPoint.from_exprs(chart, defs, at, order, exact=exact)


def func_point(u_expr, at, order=4, exact=False):
    chart = contact_function_chart()
    defs = {"u": parse(f"vars: x,y,z\n{u_expr}")}
    return JetPoint.from_exprs(chart, defs, at, order, exact=exact)


class TestContactCurves:
    def test_worked_point(self):
        p = curve_point("x^2", "x^3", 1.0)
        plain, scaled, _ = contact.curve_invariants(p)
        assert val(scaled["I1"]) == pytest.approx(2.0)
        assert val(scaled["I2ap"]) == pytest.approx(2.0)

    def test_display_formula_for_scaled_second_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            p = JetPoint.random(contact_curve_chart(), 4, rng)
            try:
                _, scaled, _ = contact.curve_invariants(p)
            except (DegenerateJet, OnZeroLevelSet):
                continue
            disp = contact.curve_i2bp_display(p)
            assert relerr(val(scaled["I2bp"]), val(disp)) <= 1e-9

    def test_invariance_under_lifted_action(self):
        rng = np.random.default_rng(5)
        p = JetPoint.random(contact_curve_chart(), 4, rng)

        def evaluate(q):
            _, scaled, _ = contact.curve_invariants(q)
            return {k: val(v) for k, v in scaled.items()}

        assert max_invariance_error(p, evaluate, "contact-csp", 10, seed0=20,
                                    contact=True) <= 1e-8

    def test_plain_invariants_under_unscaled_lift(self):
        rng = np.random.default_rng(7)
        p = JetPoint.random(contact_curve_chart(), 4, rng)

        def evaluate(q):
            plain, _, _ = contact.curve_invariants(q)
            return {k: val(v) for k, v in plain.items()}

        assert max_invariance_error(p, evaluate, "contact", 10, seed0=30,
                                    contact=True) <= 1e-8

    def test_weights_under_scaling(self):
        # I0, I1raw, I2a, I2braw have weights 2, 0, -4, -2
        rng = np.random.default_rng(9)
        p = JetPoint.random(contact_curve_chart(), 4, rng)
        lam = 2.0
        lift = ContactLift(p.chart.space, lam * np.eye(2), lam)
        base, moved = {}, {}
        for q, store in ((p, base), (pushforward(p, lift), moved)):
            plain, _, _ = contact.curve_invariants(q)
            for k, v in plain.items():
                store[k] = val(v)
        for key, expected in (("I0", 2), ("I1raw", 0), ("I2a", -4), ("I2braw", -2)):
            w = np.log(abs(moved[key] / base[key])) / np.log(lam)
            assert w == pytest.approx(expected, abs=1e-9)

    def test_zero_level_set_error(self):
        # z = x^3/2 over y = x^2: x y1 - y = x^2 != 0 but 2z - xy = 0
        q = curve_point("x^2", "x^3/2", 1.0)
        with pytest.raises(OnZeroLevelSet):
            contact.curve_invariants(q)

    def test_degenerate_tangent_error(self):
        q = curve_point("x", "x^2/2", 1.0)  # x y1 - y = 0 identically
        with pytest.raises(DegenerateJet):
            contact.curve_invariants(q)


class TestContactSurfaces:
    def test_hyperbolic_paraboloid_value(self):
        p = surf_point("x*y", (1.0, 0.7))
        scaled, _ = contact.surface_invariants(p)
        assert val(scaled["I1p"]) == pytest.approx(1.0, rel=1e-12)

    def test_reduction_identities(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            p = JetPoint.random(contact_surface_chart(), 3, rng)
            try:
                res = contact.surface_reduction_residuals(p)
            except OnZeroLevelSet:
                continue
            assert res["I2ap"] <= 1e-9
            assert res["I2bp"] <= 1e-9

    def test_syzygies(self):
        rng = np.random.default_rng(13)
        for _ in range(8):
            p = JetPoint.random(contact_surface_chart(), 4, rng)
            try:
                res = contact.surface_syzygy_residuals(p)
            except OnZeroLevelSet:
                continue
            assert res["R1"] <= 1e-7
            assert res["R2"] <= 1e-7

    def test_exact_syzygies_on_rational_jets(self):
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(6):
            p = JetPoint.random(contact_surface_chart(), 4, rng, exact=True)
            try:
                vals = contact.surface_exact_syzygies(p)
            except OnZeroLevelSet:
                continue
            checked += 1
            for v in vals:
                assert v == 0
        assert checked >= 3

    def test_invariance(self):
        rng = np.random.default_rng(19)
        p = JetPoint.random(contact_surface_chart(), 3, rng)

        def evaluate(q):
            scaled, _ = contact.surface_invariants(q)
            return {k: val(v) for k, v in scaled.items()}

        assert max_invariance_error(p, evaluate, "contact-csp", 10, seed0=50,
                                    contact=True) <= 1e-8

    def test_plane_reduction_consistency(self):
        # I1 = (x u_x + y u_y)/2 for u = 2z - xy along the surface graph
        rng = np.random.default_rng(23)
        p = JetPoint.random(contact_surface_chart(), 3, rng)
        inv, _ = contact.surface_plain_invariants(p)
        x, y = p.independent_jets()
        z = p.jets["z"]
        u = 2 * z - x * y
        i1_sub = (x * u.partial(0) + y * u.partial(1)) / 2
        assert relerr(val(inv["I1"]), val(i1_sub)) <= 1e-12
        # the second radial invariant agrees with the substituted plane one
        d1 = contact.surface_plain_invariants(p)[1]["d1"]
        i2a_sub = d1(i1_sub) - i1_sub
        assert relerr(val(inv["I2a"]), val(i2a_sub)) <= 1e-10


class TestContactFunctions:
    def test_linear_height_example(self):
        p = func_point("z", (1.0, 1.0, 1.0))
        inv = contact.function_invariants(p)
        assert val(inv["I1a"]) == pytest.approx(-1.0)
        assert val(inv["I1b"]) == pytest.approx(1.0)

    def test_first_order_reductions(self):
        rng = np.random.default_rng(29)
        for _ in range(8):
            p = JetPoint.random(contact_function_chart(), 3, rng)
            try:
                inv = contact.function_invariants(p)
            except DegenerateJet:
                continue
            ders = contact.function_derivations(p)
            d1, d2 = ders["d1"], ders["d2"]
            assert relerr(val(d2(inv["I0"])), val(inv["I1a"])) <= 1e-10
            assert relerr(val((d1(inv["I0"]) + d2(inv["I0"]))), val(inv["I1b"])) <= 1e-10

    def test_syzygy_suite(self):
        rng = np.random.default_rng(31)
        count = 0
        for _ in range(10):
            p = JetPoint.random(contact_function_chart(), 4, rng)
            try:
                res = contact.function_syzygy_residuals(p)
            except DegenerateJet:
                continue
            count += 1
            for key, value in res.items():
                assert value <= 1e-7, (key, value)
        assert count >= 6

    def test_syzygies_exact_on_rational_jets(self):
        rng = np.random.default_rng(37)
        count = 0
        for _ in range(4):
            p = JetPoint.random(contact_function_chart(), 4, rng, exact=True)
            try:
                vals = contact.function_exact_syzygies(p)
            except DegenerateJet:
                continue
            count += 1
            for v in vals:
                assert v == 0
        assert count >= 2

    def test_degenerate_normalization_error(self):
        # jets on the surface I1a + I1b = 0: take u with u1=u2=u3=0
        p = func_point("x*0 + 5", (1.0, 1.0, 1.0))
        with pytest.raises(DegenerateJet):
            contact.function_syzygy_residuals(p)

    def test_invariance(self):
        rng = np.random.default_rng(41)
        p = JetPoint.random(contact_function_chart(), 3, rng)

        def evaluate(q):
            inv = contact.function_invariants(q)
            return {k: val(v) for k, v in inv.items()}

        assert max_invariance_error(p, evaluate, "contact-csp", 10, seed0=70,
                                    contact=True) <= 1e-8

    def test_i2f_exact_infinitesimal_invariance(self):
        # dual-number flow along every lifted algebra generator: the epsilon
        # component of I2f must vanish identically on polynomial jets
        rng = np.random.default_rng(43)
        chart = contact_function_chart()
        fields = contact_algebra_basis(chart.space, "contact-csp")
        assert len(fields) == 4
        checked = 0
        for _ in range(3):
            p = JetPoint.random(chart, 2, rng, exact=True)
            eps = Dual(0, 1)
            for field in fields:
                flow = infinitesimal_point_map(field, eps)
                moved = pushforward(p, flow)
                value = contact.function_invariants(moved)["I2f"].value()
                base = contact.function_invariants(p)["I2f"].value()
                assert getattr(base, "eps", Fraction(0)) == 0
                assert value.eps == 0, field
                checked += 1
        assert checked == 12
