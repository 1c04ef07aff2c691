"""Symplectic/contact algebra, group sampling, pushforward and orbit ranks."""

import os
import subprocess
import sys

import numpy as np
import pytest

from sympinv.errors import DegreeError, GraphDegeneracy
from sympinv.geometry import (
    JetPoint,
    curve_chart,
    function_chart,
    pushforward,
)
from sympinv.exprs import parse
from sympinv.prolong import jet_space_dimension, orbit_dimension
from sympinv import symplectic
from sympinv.symplectic import (
    ContactSpace,
    GroupElement,
    Poly,
    SymplecticSpace,
    algebra_basis,
    contact_algebra_basis,
    hamiltonian_field,
    identity_element,
    lagrange_bracket,
    poisson_bracket,
    quadratic_monomials,
    random_contact_lift,
    random_group_element,
)


class TestSpaces:
    def test_standard_omega_is_canonical(self):
        sp = SymplecticSpace.standard(2)
        j = sp.omega_matrix()
        assert np.allclose(j, -j.T)
        assert abs(np.linalg.det(j)) == pytest.approx(1.0)
        assert sp.omega([1, 0, 0, 0], [0, 0, 1, 0]) == 1  # omega(dx1, dy1)

    def test_lowering_convention_matches_hamiltonian_rotation(self):
        sp = SymplecticSpace.standard(1)
        ux, uy = 0.7, -0.3
        v = sp.omega_inv_oneform([ux, uy])
        assert v == [-uy, ux]


class TestHamiltonianFields:
    def test_h_x_squared(self):
        sp = SymplecticSpace.standard(1)
        h = Poly(2, {(2, 0): 1})  # x^2
        f = hamiltonian_field(h, sp)
        # X = -2x d_y
        assert f.coeffs[0] == Poly.zero(2)
        assert f.coeffs[1] == Poly(2, {(1, 0): -2})

    def test_h_xy(self):
        sp = SymplecticSpace.standard(1)
        h = Poly(2, {(1, 1): 1})
        f = hamiltonian_field(h, sp)
        # X = x d_x - y d_y
        assert f.coeffs[0] == Poly(2, {(1, 0): 1})
        assert f.coeffs[1] == Poly(2, {(0, 1): -1})

    def test_contact_homothety(self):
        cs = ContactSpace.standard(1)
        h = Poly(3, {(0, 0, 1): 2, (1, 1, 0): -1})  # 2z - xy
        f = hamiltonian_field(h, cs, contact=True)
        assert f.coeffs[0] == Poly(3, {(1, 0, 0): 1})
        assert f.coeffs[1] == Poly(3, {(0, 1, 0): 1})
        assert f.coeffs[2] == Poly(3, {(0, 0, 1): 2})

    def test_degree_error(self):
        sp = SymplecticSpace.standard(1)
        with pytest.raises(DegreeError):
            hamiltonian_field(Poly(2, {(3, 0): 1}), sp)

    def test_poisson_closure_sp2n(self):
        for n in (1, 2):
            sp = SymplecticSpace.standard(n)
            monos = quadratic_monomials(sp)
            for f in monos:
                for g in monos:
                    lhs = hamiltonian_field(f, sp).bracket(hamiltonian_field(g, sp))
                    rhs = hamiltonian_field(poisson_bracket(f, g, sp), sp)
                    assert (lhs - rhs).is_zero()

    def test_lagrange_closure_contact(self):
        cs = ContactSpace.standard(1)
        sp = SymplecticSpace.standard(1)
        lifted = []
        for h2 in quadratic_monomials(sp):
            lifted.append(Poly(3, {e + (0,): c for e, c in h2.terms.items()}))
        lifted.append(Poly(3, {(0, 0, 1): 2, (1, 1, 0): -1}))
        for f in lifted:
            for g in lifted:
                lhs = hamiltonian_field(f, cs, contact=True).bracket(
                    hamiltonian_field(g, cs, contact=True))
                rhs = hamiltonian_field(lagrange_bracket(f, g, cs), cs, contact=True)
                assert (lhs - rhs).is_zero()


class TestGroupSampling:
    @pytest.mark.parametrize("n", [1, 2])
    def test_sp_defining_property(self, n):
        sp = SymplecticSpace.standard(n)
        for seed in range(5):
            g = random_group_element(sp, "sp", seed)
            assert g.symplecticity_defect() <= 1e-12

    def test_csp_scale_recorded(self):
        sp = SymplecticSpace.standard(2)
        g = random_group_element(sp, "csp", 3)
        assert g.scale != 1.0
        assert g.symplecticity_defect() <= 1e-11

    def test_zero_algebra_element_is_identity(self):
        sp = SymplecticSpace.standard(1)
        g = identity_element(sp)
        assert np.allclose(g.matrix, np.eye(2))

    def test_asp_has_translation(self):
        sp = SymplecticSpace.standard(1)
        g = random_group_element(sp, "asp", 1)
        assert g.translation is not None
        assert g.symplecticity_defect() <= 1e-12

    @pytest.mark.parametrize("flavor", ["sp", "csp", "asp", "acsp"])
    def test_expm_matches_scipy(self, flavor, monkeypatch):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        sp = SymplecticSpace.standard(2)
        ours = [random_group_element(sp, flavor, seed) for seed in range(50)]
        monkeypatch.setattr(symplectic, "expm", scipy_linalg.expm)
        for seed, g in enumerate(ours):
            ref = random_group_element(sp, flavor, seed)
            scale = np.max(np.abs(ref.matrix))
            assert np.max(np.abs(g.matrix - ref.matrix)) <= 1e-13 * scale
            if ref.translation is not None:
                diff = np.max(np.abs(g.translation - ref.translation))
                assert diff <= 1e-13 * max(scale, np.max(np.abs(ref.translation)))
            j = sp.omega_matrix()
            assert np.allclose(g.matrix.T @ j @ g.matrix, g.scale**2 * j, rtol=0, atol=1e-12)

    def test_import_does_not_load_scipy(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, sympinv; print('scipy' in sys.modules)"],
            capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "False"

    def test_expm_of_zero_and_of_a_large_matrix(self):
        assert np.allclose(symplectic.expm(np.zeros((3, 3))), np.eye(3), rtol=0, atol=1e-15)
        # a nilpotent matrix far above the scaling threshold: exp(tN) = I + tN
        n = np.array([[0.0, 40.0], [0.0, 0.0]])
        assert np.allclose(symplectic.expm(n), [[1.0, 40.0], [0.0, 1.0]], rtol=1e-13)

    def test_contact_lift_formula(self):
        # lift of A=[[a,b],[c,d]] must send (x,y,z) to
        # (ax+by, cx+dy, det(z - xy/2) + (ax+by)(cx+dy)/2)
        cs = ContactSpace.standard(1)
        lift = random_contact_lift(cs, "contact", 7)
        a, b = lift.matrix[0]
        c, d = lift.matrix[1]
        x, y, z = 0.7, -1.1, 0.4
        out = lift.apply_point([x, y, z])
        det = a * d - b * c
        assert out[0] == pytest.approx(a * x + b * y)
        assert out[1] == pytest.approx(c * x + d * y)
        assert out[2] == pytest.approx(det * (z - x * y / 2) + out[0] * out[1] / 2)

    def test_contact_lift_preserves_base_invariant(self):
        cs = ContactSpace.standard(1)
        lift = random_contact_lift(cs, "contact", 11)
        x, y, z = 0.9, 0.4, -0.7
        out = lift.apply_point([x, y, z])
        assert 2 * out[2] - out[0] * out[1] == pytest.approx(2 * z - x * y, rel=1e-12)


class TestPushforward:
    def test_identity_keeps_jet(self):
        chart = curve_chart(1)
        pt = JetPoint.from_exprs(chart, {"y": parse("x^2")}, (1.0,), 3)
        out = pushforward(pt, identity_element(chart.space))
        assert np.allclose(out.jets["y"].coeffs, pt.jets["y"].coeffs)
        assert out.basepoint == pytest.approx(pt.basepoint)

    def test_shear_on_parabola(self):
        # (x,y) -> (x, cx+y) maps the 2-jet of y=x^2 at x=1 to that of y=x^2+cx
        chart = curve_chart(1)
        pt = JetPoint.from_exprs(chart, {"y": parse("x^2")}, (1.0,), 2)
        c = 0.37
        shear = GroupElement(chart.space, np.array([[1.0, 0.0], [c, 1.0]]))
        out = pushforward(pt, shear)
        yj = out.jets["y"]
        assert out.basepoint[0] == pytest.approx(1.0)
        assert yj.value() == pytest.approx(1 + c)
        assert yj.partial_at((1,)) == pytest.approx(2 + c)
        assert yj.partial_at((2,)) == pytest.approx(2.0)

    def test_translation_shifts_base_only(self):
        chart = function_chart(1)
        rng = np.random.default_rng(0)
        pt = JetPoint.random(chart, 3, rng)
        shift = GroupElement(chart.space, np.eye(2), 1.0, np.array([0.3, -0.8]), "asp")
        out = pushforward(pt, shift)
        assert out.basepoint[0] == pytest.approx(pt.basepoint[0] + 0.3)
        assert out.basepoint[1] == pytest.approx(pt.basepoint[1] - 0.8)
        for sigma in [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
            assert out.jets["u"].partial_at(sigma) == pytest.approx(
                pt.jets["u"].partial_at(sigma), rel=1e-9)

    def test_pushforward_is_group_action(self):
        chart = curve_chart(2)
        rng = np.random.default_rng(5)
        for seed in range(4):
            pt = JetPoint.random(chart, 4, rng)
            g = random_group_element(chart.space, "sp", 100 + seed)
            h = random_group_element(chart.space, "sp", 200 + seed)
            lhs = pushforward(pt, g.compose(h))
            rhs = pushforward(pushforward(pt, h), g)
            for name in chart.dependent:
                a = np.asarray(lhs.jets[name].coeffs, dtype=float)
                b = np.asarray(rhs.jets[name].coeffs, dtype=float)
                assert np.allclose(a, b, rtol=1e-9, atol=1e-9)

    def test_float_pushforward_ignores_blas_thread_count(self):
        # p = 5 independent variables at order 6: the inversion composes 5
        # outers at once, where a BLAS gemm rounds by its thread count
        script = (
            "import numpy as np\n"
            "from sympinv.geometry import JetPoint, hypersurface_chart, pushforward\n"
            "from sympinv.symplectic import random_group_element\n"
            "chart = hypersurface_chart(3)\n"
            "pt = JetPoint.random(chart, 6, np.random.default_rng(3))\n"
            "out = pushforward(pt, random_group_element(chart.space, 'sp', 4))\n"
            "print(' '.join(float(c).hex() for c in out.basepoint))\n"
            "print(' '.join(float(c).hex() for c in out.jets['u'].coeffs))\n"
        )
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, check=True)
            outputs.append(proc.stdout)
        assert len(outputs[0].split()) == 5 + 462
        assert outputs[0] == outputs[1]

    def test_graph_degeneracy_raises(self):
        chart = curve_chart(1)
        pt = JetPoint.from_exprs(chart, {"y": parse("x^2")}, (1.0,), 2)
        # rotate the tangent to vertical: x-image has zero linear part
        rot = GroupElement(chart.space, np.array([[0.0, -1.0], [1.0, 0.0]]))
        mapped = pushforward(pt, rot)  # fine: parabola re-graphs after rotation at x=1
        assert mapped.basepoint[0] == pytest.approx(-1.0)
        bad = GroupElement(chart.space, np.array([[2.0, -1.0], [1.0, 0.0]]))
        # choose a jet whose tangent is sent vertical: y1 = 2 => x-image speed 2-2=0
        with pytest.raises(GraphDegeneracy):
            pushforward(pt, bad)


class TestOrbitDimensions:
    def test_curves_r4_table(self):
        dims = [orbit_dimension("curve", "sp", 2, k, seed=k) for k in range(4)]
        assert dims == [4, 7, 9, 10]

    def test_hypersurfaces_r4_open_orbit_on_one_jets(self):
        assert orbit_dimension("hypersurface", "sp", 2, 1, seed=1) == 7
        assert jet_space_dimension("hypersurface", 2, 1) == 7

    def test_functions_codimension_two_on_one_jets(self):
        rank = orbit_dimension("function", "sp", 1, 1, seed=2)
        assert rank == jet_space_dimension("function", 1, 1) - 2 == 3

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_curve_orbit_dimension_formula(self, n):
        from math import comb
        for k in range(0, 2 * n + 1):
            expected = min(2 * (k + 1) * n - comb(k + 1, 2), n * (2 * n + 1))
            got = orbit_dimension("curve", "sp", n, k, seed=10 * n + k)
            assert got == expected, (n, k)


class TestContactOrbitCounts:
    def test_lifted_action_on_contact_curves(self):
        # plain lift: one invariant per order 0..1, two new at order 2
        dims = [jet_space_dimension("contact-curve", 1, k) for k in range(3)]
        ranks = [orbit_dimension("contact-curve", "contact", 1, k, seed=5 + k)
                 for k in range(3)]
        s = [d - r for d, r in zip(dims, ranks)]
        assert s == [1, 2, 4]

    def test_conformal_lift_on_contact_curves(self):
        dims = [jet_space_dimension("contact-curve", 1, k) for k in range(3)]
        ranks = [orbit_dimension("contact-curve", "contact-csp", 1, k, seed=15 + k)
                 for k in range(3)]
        s = [d - r for d, r in zip(dims, ranks)]
        # h0 = 0, h1 = 1, h2 = 2
        assert s == [0, 1, 3]

    def test_conformal_lift_on_contact_surfaces(self):
        dims = [jet_space_dimension("contact-surface", 1, k) for k in range(3)]
        ranks = [orbit_dimension("contact-surface", "contact-csp", 1, k, seed=25 + k)
                 for k in range(3)]
        s = [d - r for d, r in zip(dims, ranks)]
        # h0 = 0, h1 = 1, h2 = k + 1 = 3
        assert s == [0, 1, 4]

    def test_rank_instability_raises(self):
        from sympinv.errors import NonGenericSample

        with pytest.raises(NonGenericSample):
            orbit_dimension("curve", "sp", 2, 2, seed=3, attempts=1)
