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
    hypersurface_chart,
    pushforward,
    surface_chart,
)
from sympinv.exprs import parse
from sympinv.prolong import ORBIT_DIMENSIONS, jet_space_dimension, orbit_dimension, orbit_table
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


def sp_fields_by_pairs(space):
    """The sp(2n) basis as algebra_basis built it before it read
    quadratic_monomials: x_i, y_i the coordinates of the i-th Darboux pair."""
    nv = space.dim
    xs = [a for (a, b) in space.pairs]
    ys = [b for (a, b) in space.pairs]
    polys = []
    for i in range(space.n):
        for j in range(i, space.n):
            polys.append(Poly.coordinate(nv, xs[i]) * Poly.coordinate(nv, xs[j]))
    for i in range(space.n):
        for j in range(space.n):
            polys.append(Poly.coordinate(nv, xs[i]) * Poly.coordinate(nv, ys[j]))
    for i in range(space.n):
        for j in range(i, space.n):
            polys.append(Poly.coordinate(nv, ys[i]) * Poly.coordinate(nv, ys[j]))
    out = []
    for h in polys:
        coeffs = [Poly.zero(nv)] * nv
        for (a, b) in space.pairs:
            coeffs[a] = coeffs[a] + h.diff(b)
            coeffs[b] = coeffs[b] - h.diff(a)
        out.append(tuple(coeffs))
    return out


@pytest.mark.parametrize("chart", [curve_chart(3), hypersurface_chart(3), surface_chart(),
                                   function_chart(2)],
                         ids=["curve-3", "hypersurface-3", "surface", "function-2"])
def test_sp_basis_is_the_pairwise_construction(chart):
    fields = algebra_basis(chart.space, "sp")
    assert [f.coeffs for f in fields] == sp_fields_by_pairs(chart.space)


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
        f = hamiltonian_field(h, cs)
        assert f.coeffs[0] == Poly(3, {(1, 0, 0): 1})
        assert f.coeffs[1] == Poly(3, {(0, 1, 0): 1})
        assert f.coeffs[2] == Poly(3, {(0, 0, 1): 2})

    def test_a_contact_space_gets_the_contact_field(self):
        # x^2 on contact 3-space: X = 2x d_y + x^2 d_z, with a d_z part that
        # the symplectic formula has no coordinate for
        cs = ContactSpace.standard(1)
        f = hamiltonian_field(Poly(3, {(2, 0, 0): 1}), cs)
        assert f.coeffs == (Poly.zero(3), Poly(3, {(1, 0, 0): 2}), Poly(3, {(2, 0, 0): 1}))
        with pytest.raises(DegreeError):  # z has weight 2, so z^2 has weight 4
            hamiltonian_field(Poly(3, {(0, 0, 2): 1}), cs)

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
                lhs = hamiltonian_field(f, cs).bracket(hamiltonian_field(g, cs))
                rhs = hamiltonian_field(lagrange_bracket(f, g, cs), cs)
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

    @pytest.mark.parametrize("flavor", ["contact", "contact-csp"])
    def test_a_contact_space_picks_the_contact_family(self, flavor):
        cs = ContactSpace.standard(1)
        assert algebra_basis(cs, flavor) == contact_algebra_basis(cs, flavor)
        for seed in range(3):
            g, lift = random_group_element(cs, flavor, seed), random_contact_lift(cs, flavor, seed)
            assert type(g) is type(lift)
            assert g.matrix.tobytes() == lift.matrix.tobytes() and g.scale == lift.scale

    @pytest.mark.parametrize("function", [algebra_basis, contact_algebra_basis,
                                          random_group_element, random_contact_lift],
                             ids=lambda f: f.__name__)
    def test_a_flavor_of_the_other_family_is_refused(self, function):
        sp, cs = SymplecticSpace.standard(1), ContactSpace.standard(1)
        seed = (0,) if function in (random_group_element, random_contact_lift) else ()
        cases = [(cs, "sp"), (sp, "contact"), (sp, "bogus"), (cs, "bogus")]
        if function in (contact_algebra_basis, random_contact_lift):
            cases.append((sp, "sp"))  # they act on a contact space only
        for space, flavor in cases:
            with pytest.raises(ValueError, match=f"unknown flavor '{flavor}'"):
                function(space, flavor, *seed)

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

    def test_exact_pushforward_makes_no_kernel_call(self, monkeypatch):
        from fractions import Fraction

        from sympinv import jets
        from sympinv.rational import Dual
        from sympinv.symplectic import infinitesimal_point_map

        calls = []
        real = jets.mul_table

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(jets, "mul_table", counting)
        chart = function_chart(1)
        rng = np.random.default_rng(9)
        (field, *_) = algebra_basis(chart.space, "sp")
        pt = JetPoint.random(chart, 3, rng, exact=True)
        out = pushforward(pt, infinitesimal_point_map(field, Dual(0, 1)))
        assert calls == []
        assert out.exact and all(isinstance(c, (Fraction, Dual, int)) for c in out.jets["u"].coeffs)
        pushforward(JetPoint.random(chart, 3, rng), random_group_element(chart.space, "sp", 1))
        assert calls  # the float pushforward runs the product kernel

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
    """Sampled orbit ranks against `prolong.ORBIT_DIMENSIONS`, which states them."""

    # (geometry, flavor, n, k) that this class checks: curves in R^2, R^4 and
    # R^6 up to k = 2n, and the one-jet hypersurface and function rows
    CASES = ({("curve", "sp", n, k) for n in (1, 2, 3) for k in range(2 * n + 1)}
             | {("hypersurface", "sp", 2, 1), ("function", "sp", 1, 1)})

    def test_the_table_lists_every_case(self):
        assert self.CASES <= {row[1:5] for row in ORBIT_DIMENSIONS}

    @pytest.mark.parametrize("seed", [2, 3])
    def test_sampled_ranks_equal_the_table(self, seed):
        assert [row for row in orbit_table(seed) if row[1] != row[2]] == []

    def test_one_jet_rows_against_the_jet_space(self):
        table = {row[1:5]: row[5] for row in ORBIT_DIMENSIONS}
        # the hypersurface orbit is open in J^1; the function orbit has
        # codimension 2
        assert table["hypersurface", "sp", 2, 1] == jet_space_dimension("hypersurface", 2, 1) == 7
        assert table["function", "sp", 1, 1] == jet_space_dimension("function", 1, 1) - 2


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
