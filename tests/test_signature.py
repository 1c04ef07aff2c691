"""Signature clouds and the equivalence verdicts."""

from types import SimpleNamespace

import numpy as np
import pytest

from sympinv.errors import IncomparableClouds
from sympinv.exprs import parse
from sympinv.signature import (
    SignatureCloud,
    cloud_from_json,
    cloud_to_json,
    equivalent,
    hausdorff_distance,
    signature_of,
)


def curve_cloud(y_expr, **kw):
    defaults = dict(geometry="curve", flavor="sp", n=1, samples=48, depth=1, seed=3)
    defaults.update(kw)
    return signature_of({"y": parse(f"vars: x\n{y_expr}")}, **defaults)


class TestClouds:
    def test_parabola_cloud_lies_on_cubic_relation(self):
        cloud = curve_cloud("x^2")
        assert cloud.generators == ("I2", "d1(I2)")
        for i2, di2 in cloud.points:
            assert di2**2 == pytest.approx(18.0 * i2**3, rel=1e-8)

    def test_cubic_cloud_relation(self):
        cloud = curve_cloud("x^3")
        for i2, di2 in cloud.points:
            assert di2**2 == pytest.approx((64.0 / 3.0) * i2**3, rel=1e-8)

    def test_cloud_counts_degenerate_samples(self):
        # y = x has the tangent through the origin everywhere: all degenerate
        from sympinv.errors import AllSamplesDegenerate

        with pytest.raises(AllSamplesDegenerate):
            curve_cloud("x")

    def test_partial_degeneracy_is_counted(self):
        # y = x^2 degenerates where x y1 - y = x^2 = 0; window straddling 0
        cloud = curve_cloud("x^2 - 2*x", window=(-0.5, 2.0), samples=40)
        assert cloud.degenerate_count >= 0
        assert len(cloud.points) + cloud.degenerate_count == 40


class TestEquivalence:
    def test_cloud_vs_itself(self):
        cloud = curve_cloud("x^2")
        verdict, dist = equivalent(cloud, cloud)
        assert verdict == "equivalent"
        assert dist == 0.0

    def test_shear_image_is_equivalent(self):
        base = curve_cloud("x^2")
        sheared = curve_cloud("x^2 + 0.7*x")
        verdict, dist = equivalent(base, sheared, tol=1e-6)
        assert verdict == "equivalent", dist

    def test_parabola_vs_cubic_distinct(self):
        base = curve_cloud("x^2")
        cubic = curve_cloud("x^3")
        verdict, dist = equivalent(base, cubic, tol=1e-6)
        assert verdict == "distinct"
        assert dist >= 1e-5

    def test_random_sp_image_parametric(self):
        from sympinv.symplectic import SymplecticSpace, random_group_element

        space = SymplecticSpace(1, ("x", "y"), ((0, 1),))
        g = random_group_element(space, "sp", 11)
        a, b = g.matrix[0]
        c, d = g.matrix[1]
        # image of (t, t^2): x = a t + b t^2, y = c t + d t^2; the parameter
        # window matches the original arc, so the clouds cover the same set
        defs = [parse(f"vars: t\n({a:.17f})*t + ({b:.17f})*t^2"),
                parse(f"vars: t\n({c:.17f})*t + ({d:.17f})*t^2")]
        # same seed and window: the image is sampled at the parameter values
        # matching the base graph samples, so the clouds coincide as sets
        base = curve_cloud("x^2", samples=64)
        moved = signature_of(defs, "curve", "sp", n=1, samples=64, depth=1,
                             seed=3, window=(0.5, 1.5), parametric=True)
        verdict, dist = equivalent(base, moved, tol=1e-6)
        assert verdict == "equivalent", dist

    def test_incomparable_clouds(self):
        base = curve_cloud("x^2", depth=1)
        deeper = curve_cloud("x^2", depth=2)
        with pytest.raises(IncomparableClouds):
            equivalent(base, deeper)

    def test_disjoint_windows_may_be_inconclusive_or_distinct(self):
        left = curve_cloud("x^2", window=(0.5, 0.8))
        right = curve_cloud("x^2", window=(1.2, 1.5))
        verdict, dist = equivalent(left, right, tol=1e-6)
        assert verdict in ("distinct", "inconclusive")


class TestSerialization:
    def test_json_round_trip(self):
        cloud = curve_cloud("x^2", samples=8)
        text = cloud_to_json(cloud)
        back = cloud_from_json(text)
        assert back.geometry == cloud.geometry
        assert back.generators == cloud.generators
        assert np.allclose(np.asarray(back.points), np.asarray(cloud.points))

    def test_json_precision(self):
        cloud = SignatureCloud("curve", "sp", ("I2",), 0, (0.5, 1.5),
                               ((1.0 / 3.0,),), 1, 0)
        text = cloud_to_json(cloud)
        back = cloud_from_json(text)
        assert back.points[0][0] == cloud.points[0][0]


class TestOtherGeometries:
    def test_surface_cloud_builds(self):
        defs = {"x": parse("vars: t,s\nt*s + t^2"), "y": parse("vars: t,s\ns^2 - t")}
        cloud = signature_of(defs, "surface", "sp", n=2, samples=12, depth=1, seed=5)
        assert len(cloud.points[0]) == 4 + 2 * 4

    def test_contact_curve_cloud_builds(self):
        defs = {"y": parse("vars: x\nx^2"), "z": parse("vars: x\nx^3")}
        cloud = signature_of(defs, "contact-curve", "contact-csp", n=1,
                             samples=12, depth=1, seed=5)
        assert cloud.generators[0] == "I1"
        assert len(cloud.points) == 12


class TestReparametrization:
    def test_graph_and_parametric_clouds_agree(self):
        # (t, t^2) is the parabola graph traced by its own coordinate, so the
        # clouds sample identical points and must coincide
        base = curve_cloud("x^2", samples=48)
        defs = [parse("vars: t\nt"), parse("vars: t\nt^2")]
        param = signature_of(defs, "curve", "sp", n=1, samples=48, depth=1,
                             seed=3, window=(0.5, 1.5), parametric=True)
        dist = hausdorff_distance(base, param)
        assert dist <= 1e-7


def dense_hausdorff_distance(cloud_a, cloud_b):
    """The distance from one (N, M, r) tensor of coordinate differences."""
    a = np.asarray(cloud_a.points, dtype=float)
    b = np.asarray(cloud_b.points, dtype=float)
    both = np.vstack([a, b])
    span = np.max(both, axis=0) - np.min(both, axis=0)
    span[span == 0] = 1.0
    an = a / span
    bn = b / span
    d2 = np.sum((an[:, None, :] - bn[None, :, :]) ** 2, axis=2)
    forward = np.max(np.min(d2, axis=1))
    backward = np.max(np.min(d2, axis=0))
    return float(np.sqrt(max(forward, backward)))


class TestBlockedHausdorff:
    @staticmethod
    def clouds(n, m, r, seed):
        rng = np.random.default_rng(seed)
        return (SimpleNamespace(points=rng.normal(size=(n, r))),
                SimpleNamespace(points=rng.normal(size=(m, r)) * 1.5 + 0.25))

    @pytest.mark.parametrize("n,m,r", [(2048, 2048, 2), (100, 3000, 3), (7, 5, 9), (1, 1, 1),
                                       (300, 129, 12), (129, 1, 2)])
    def test_bits_equal_the_dense_form(self, n, m, r):
        a, b = self.clouds(n, m, r, seed=n + m + r)
        for x, y in ((a, b), (b, a)):
            assert hausdorff_distance(x, y).hex() == dense_hausdorff_distance(x, y).hex()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("in_b", [False, True])
    def test_non_finite_point_matches_the_dense_form(self, bad, in_b):
        a, b = self.clouds(300, 200, 3, seed=9)
        (b if in_b else a).points[137, 1] = bad
        with np.errstate(invalid="ignore"):  # inf / inf in the normalization
            want = dense_hausdorff_distance(a, b)
            got = hausdorff_distance(a, b)
        assert got.hex() == want.hex()
