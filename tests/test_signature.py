"""Signature clouds and the equivalence verdicts."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    @staticmethod
    def assert_dense_bits(a, b):
        """Both argument orders give the bits of the dense form."""
        a, b = (p if hasattr(p, "points") else SimpleNamespace(points=np.asarray(p, dtype=float))
                for p in (a, b))
        for x, y in ((a, b), (b, a)):
            assert hausdorff_distance(x, y).hex() == dense_hausdorff_distance(x, y).hex()

    @pytest.mark.parametrize("n,m,r", [(2048, 2048, 2), (100, 3000, 3), (7, 5, 9), (1, 1, 1),
                                       (300, 129, 12), (129, 1, 2), (1, 1, 3), (1, 200, 2),
                                       (300, 250, 1)])
    def test_bits_equal_the_dense_form(self, n, m, r):
        self.assert_dense_bits(*self.clouds(n, m, r, seed=n + m + r))

    def test_nothing_pruned_when_one_cloud_is_one_point(self):
        # every point of the cloud sorted shares the sort coordinate, so each
        # window is the whole cloud
        rng = np.random.default_rng(11)
        self.assert_dense_bits(np.tile([[0.25, -1.5, 3.0]], (200, 1)), rng.normal(size=(150, 3)))

    def test_nothing_pruned_from_a_centre_to_a_circle(self):
        # every point of the circle is as far from the centre as the nearest one
        t = np.linspace(0.0, 2 * np.pi, 257)
        self.assert_dense_bits(np.zeros((40, 2)), np.c_[np.cos(t), np.sin(t)])

    def test_every_point_on_one_value_of_a_coordinate(self):
        rng = np.random.default_rng(12)
        a, b = rng.normal(size=(120, 3)), rng.normal(size=(90, 3))
        a[:, 0] = b[:, 0] = 0.5
        self.assert_dense_bits(a, b)

    def test_exact_ties_and_duplicate_points(self):
        rng = np.random.default_rng(13)
        a = rng.integers(-2, 3, size=(300, 2)).astype(float)
        b = np.vstack([a[::7], a[::7], rng.integers(-2, 3, size=(40, 2))])
        self.assert_dense_bits(a, b)

    def test_identical_clouds_are_at_distance_zero(self):
        a = np.random.default_rng(14).normal(size=(500, 4))
        self.assert_dense_bits(a, a.copy())
        assert hausdorff_distance(SimpleNamespace(points=a), SimpleNamespace(points=a)) == 0.0

    def test_one_cloud_inside_the_other(self):
        a = np.random.default_rng(15).normal(size=(400, 3))
        self.assert_dense_bits(a, a[::5])

    def test_far_apart_clouds(self):
        rng = np.random.default_rng(16)
        self.assert_dense_bits(rng.normal(size=(300, 2)), rng.normal(size=(250, 2)) + 1e3)

    @pytest.mark.parametrize("other,verdict", [("image", "equivalent"), ("cubic", "distinct")])
    def test_the_verdict_pairs_of_the_benchmark(self, other, verdict):
        # the parabola against its image under (t, t^2) -> (1.25 t + 0.5 t^2,
        # 0.5 t + t^2), an Sp(2) element, and against the cubic: 2048 samples
        # each, at the same seed
        kw = dict(geometry="curve", flavor="sp", n=1, samples=2048, depth=1, seed=7,
                  window=(0.5, 1.5))
        base = signature_of({"y": parse("vars: x\nx^2")}, **kw)
        if other == "image":
            defs = [parse("vars: t\n1.25*t + 0.5*t^2"), parse("vars: t\n0.5*t + t^2")]
            cloud = signature_of(defs, parametric=True, **kw)
        else:
            cloud = signature_of({"y": parse("vars: x\nx^3")}, **kw)
        self.assert_dense_bits(base, cloud)
        assert equivalent(base, cloud)[0] == verdict

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), r=st.integers(1, 4))
    def test_integer_grid_clouds(self, data, r):
        # small integer grids have many equal coordinates and equal distances
        point = st.lists(st.integers(-3, 3), min_size=r, max_size=r)
        a, b = (data.draw(st.lists(point, min_size=1, max_size=40)) for _ in range(2))
        self.assert_dense_bits(a, b)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("in_b", [False, True])
    def test_non_finite_point_matches_the_dense_form(self, bad, in_b):
        a, b = self.clouds(300, 200, 3, seed=9)
        (b if in_b else a).points[137, 1] = bad
        with np.errstate(invalid="ignore"):  # inf / inf in the normalization
            want = dense_hausdorff_distance(a, b)
            got = hausdorff_distance(a, b)
        assert got.hex() == want.hex()


# --- batched sampling ----------------------------------------------------------------

# One standard job per recipe: (geometry, flavor, n, exprs), in the chart's
# independent coordinates.
RECIPE_JOBS = (
    ("function", "sp", 1, {"u": "x^2*y + sin(y) + x^3/5"}),
    ("function", "sp", 2, {"u": "x1^2*y2 + x2*y1^2 + exp(x1/3) + y2^3/4"}),
    ("function", "csp", 1, {"u": "x^2*y + sin(y) + x^3/5"}),
    ("function", "asp", 1, {"u": "x^2*y + sin(y) + x^3/5"}),
    ("function", "acsp", 1, {"u": "x^2*y + sin(y) + x^3/5 + y^4/7"}),
    ("curve", "sp", 1, {"y": "exp(x/2) + x^3/3"}),
    ("curve", "sp", 2, {"x": "t^2/2 + t", "y": "sin(t) + t^3/6", "z": "exp(t/3)"}),
    ("curve", "csp", 1, {"y": "x^3/3 + log(x + 2)"}),
    ("curve", "asp", 1, {"y": "x^3/3 + exp(x/2) + x^5/9"}),
    ("curve", "acsp", 1, {"y": "exp(x/2) + x^3/3"}),
    ("hypersurface", "sp", 2, {"u": "x^2 + y*z + z^3/3 + exp(x*y/4)"}),
    ("surface", "sp", 2, {"x": "t^2 + s^3/3 + t*s", "y": "s^2 - t^3/4 + exp(t/2)"}),
    ("contact-curve", "contact", 1, {"y": "x^3/3 + x", "z": "exp(x/2) + x^2"}),
    ("contact-curve", "contact-csp", 1, {"y": "x^3/3 + x", "z": "exp(x/2) + x^2"}),
    ("contact-surface", "contact-csp", 1, {"z": "x^2*y + y^3/3 + exp(x/3)"}),
    ("contact-function", "contact-csp", 1, {"u": "x^2 + y*z + z^3/3 + x*y^2"}),
)


def job_sampling(geometry, flavor, n, exprs, samples, depth, window=(0.5, 1.5), seed=5):
    """The sample_psi arguments of a job file, as the CLI builds them."""
    from sympinv.cli import _sampling
    from sympinv.jobs import JobSpec

    lines = [f"geometry = {geometry}", f"flavor = {flavor}", f"n = {n}",
             f"window = {window[0]}:{window[1]}", f"samples = {samples}",
             f"depth = {depth}", f"seed = {seed}", "exprs:"]
    lines += [f"  {name} = {text}" for name, text in exprs.items()]
    return _sampling(JobSpec.from_text("\n".join(lines) + "\n"))


def unchecked_sampling(geometry, flavor, n, exprs, samples, depth, window=(0.5, 1.5), seed=5):
    """The sample_psi arguments of a graph-form job, built without JobSpec,
    which rejects a depth that no sample can reach."""
    return dict(defs={name: parse(text) for name, text in exprs.items()}, geometry=geometry,
                flavor=flavor, n=n, samples=samples, depth=depth, window=window, seed=seed,
                parametric=False)


def exhausted(job, depth):
    """Whether every sample of the job runs out of jet order at this depth."""
    from sympinv.geometry import default_order
    from sympinv.signature import RECIPES

    geometry, flavor, n = job[:3]
    return depth > default_order(geometry, n) - RECIPES[geometry, flavor].order(n)


def row_bytes(rows):
    return [(at, None if vals is None else [v.hex() for v in vals], flag)
            for at, vals, flag in rows]


def batched_and_single(monkeypatch, kwargs):
    """sample_psi's rows in chunks, and with every chunk one sample wide."""
    from sympinv import signature

    batched = signature.sample_psi(**kwargs)
    with monkeypatch.context() as m:
        m.setattr(signature, "_CHUNK_PRODUCTS", 1)
        single = signature.sample_psi(**kwargs)
    return batched, single


class TestBatchedSampling:
    """A chunk of samples is one batched pass with the rows of one pass per sample."""

    @pytest.mark.parametrize("job", RECIPE_JOBS, ids=lambda j: "{}/{}/{}".format(*j[:3]))
    def test_every_recipe_gives_the_rows_of_one_sample_at_a_time(self, monkeypatch, job):
        for depth in (1, 2):
            build = unchecked_sampling if exhausted(job, depth) else job_sampling
            batched, single = batched_and_single(monkeypatch, build(*job, 16, depth))
            assert row_bytes(batched) == row_bytes(single)
            if exhausted(job, depth):  # curve/acsp: I5 leaves no order for d1(d1(I5))
                assert {flag for _, _, flag in batched} == {"OrderExhausted"}
            else:
                assert all(vals is not None for _, vals, _ in batched)

    @pytest.mark.parametrize("job", RECIPE_JOBS, ids=lambda j: "{}/{}/{}".format(*j[:3]))
    def test_every_recipe_batches_generic_samples(self, monkeypatch, job):
        """No chunk of 16 generic samples falls back to one pass per sample."""
        from sympinv import signature

        passes = []
        psi_values = signature.psi_values

        def counted(point, *args):
            passes.append(isinstance(point.basepoint[0], np.ndarray))
            return psi_values(point, *args)

        monkeypatch.setattr(signature, "psi_values", counted)
        for seed in range(1, 9):
            for depth in (1, 2):
                passes.clear()
                build = unchecked_sampling if exhausted(job, depth) else job_sampling
                signature.sample_psi(**build(*job, 16, depth, seed=seed))
                if exhausted(job, depth):
                    # every sample raises OrderExhausted; a batch answers it with
                    # the one-sample loop, since a pivot taken per column may
                    # have cut a jet to a lower order
                    assert passes == [True] + [False] * 16
                else:
                    assert passes == [True]

    @pytest.mark.parametrize("job", RECIPE_JOBS, ids=lambda j: "{}/{}/{}".format(*j[:3]))
    def test_every_recipe_order_is_exact(self, job):
        """At the CLI order K and the recipe's generator order k, depth K - k
        gives every sample values and depth K - k + 1 none."""
        from sympinv.geometry import default_order
        from sympinv.signature import RECIPES, sample_psi

        geometry, flavor, n = job[:3]
        reach = default_order(geometry, n) - RECIPES[geometry, flavor].order(n)
        rows = sample_psi(**unchecked_sampling(*job, 4, reach))
        assert all(vals is not None for _, vals, _ in rows)
        rows = sample_psi(**unchecked_sampling(*job, 4, reach + 1))
        assert [flag for _, _, flag in rows] == ["OrderExhausted"] * 4

    @pytest.mark.parametrize("exprs", [{"y": "x^2"},
                                       {"x": "0.9*t - 0.35*t^2", "y": "0.4*t + 0.95*t^2"}],
                             ids=["graph", "parametric"])
    def test_a_2048_sample_parabola_in_two_chunks_has_the_same_rows(self, monkeypatch, exprs):
        kwargs = job_sampling("curve", "sp", 1, exprs, 2048, 1, seed=11)
        batched, single = batched_and_single(monkeypatch, kwargs)
        assert row_bytes(batched) == row_bytes(single)

    def test_more_samples_than_one_chunk(self, monkeypatch):
        from sympinv import _tables, signature

        kwargs = job_sampling("function", "sp", 2,
                              {"u": "x1^2*y2 + x2*y1^2 + exp(x1/3) + y2^3/4"}, 50, 1)
        assert signature._CHUNK_PRODUCTS // _tables.pair_count(4, 6) < 50
        batched, single = batched_and_single(monkeypatch, kwargs)
        assert row_bytes(batched) == row_bytes(single)

    def test_degenerate_samples_inside_a_chunk_keep_their_rows(self, monkeypatch):
        kwargs = job_sampling("curve", "sp", 1, {"y": "log(x)"}, 64, 1, window=(-0.5, 0.5))
        batched, single = batched_and_single(monkeypatch, kwargs)
        assert row_bytes(batched) == row_bytes(single)
        flags = [flag for _, _, flag in batched]
        assert 10 < flags.count("DomainError") < 54 and flags.count("") > 10

    def test_product_calls_grow_with_the_chunks_not_the_samples(self, monkeypatch):
        from sympinv import jets, signature

        calls = []
        mul_table = jets.mul_table

        def counted(*args):
            calls.append(1)
            return mul_table(*args)

        monkeypatch.setattr(jets, "mul_table", counted)
        counts = []
        for samples in (256, 1024, 2048):
            calls.clear()
            curve_cloud("x^2 + x^3/4", samples=samples)
            counts.append(len(calls))
        # a plane curve's chunks hold _CHUNK_SAMPLES = 1024 samples
        assert signature._CHUNK_SAMPLES == 1024
        assert counts[0] == counts[1] > 0 and counts[2] == 2 * counts[1]


class TestWordsAndBlocks:
    def test_memoized_words_have_the_bytes_of_apply_word(self):
        from sympinv.geometry import CHARTS, JetPoint, apply_word
        from sympinv.signature import generator_map, psi_values

        kwargs = job_sampling("function", "sp", 1, {"u": "x^2*y + sin(y) + x^3/5"}, 1, 3)
        point = JetPoint.from_exprs(CHARTS["function"](1), kwargs["defs"], (0.8, 1.1), 6)
        gens, ders = generator_map("function", "sp", 1)(point)
        want = [float(g.value()) for g in gens.values()]
        for d in (1, 2, 3):
            for word in itertools.product(range(len(ders)), repeat=d):
                want += [float(apply_word(ders, word, g).value()) for g in gens.values()]
        got = psi_values(point, "function", "sp", 1, 3)
        assert [v.hex() for v in got] == [v.hex() for v in want]

    @pytest.mark.parametrize("rows", [1, 32, 10_000])
    def test_hausdorff_blocks_give_the_same_bits(self, monkeypatch, rows):
        from sympinv import signature

        a, b = TestBlockedHausdorff.clouds(300, 257, 3, seed=4)
        monkeypatch.setattr(signature, "_HAUSDORFF_ROWS", rows)
        assert hausdorff_distance(a, b).hex() == dense_hausdorff_distance(a, b).hex()
