"""Signature clouds: solve the equivalence problem by comparing the images of
submanifolds under a fixed tuple of generating invariants and their derived
invariants.

A cloud is the finite sample {Psi(a)} in R^r; two generic submanifolds are
equivalent under the group exactly when these images agree as unparametrized
sets, which is tested through a normalized symmetric Hausdorff distance.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from . import contact as contact_mod
from . import curves as curves_mod
from . import extended as ext_mod
from . import functions as fn_mod
from . import hypersurfaces as hyp_mod
from . import surfaces as srf_mod
from .errors import AllSamplesDegenerate, GeometryError, IncomparableClouds, JetError
from .geometry import CHARTS, JetPoint, apply_word, default_order, parametric_curve_point


@dataclass(frozen=True)
class SignatureCloud:
    geometry: str
    flavor: str
    generators: tuple  # component labels of Psi, in order
    depth: int
    window: tuple
    points: tuple  # tuples of floats
    sample_count: int
    degenerate_count: int


# --- generator recipes ---------------------------------------------------------

def generator_map(geometry, flavor, n):
    """(labels, evaluator) for the exported generating set of a geometry/flavor.

    The evaluator maps a JetPoint to (invariant jets dict, derivations list);
    signature components are the invariants followed by derivation words.
    """
    if geometry == "curve" and flavor == "sp":
        if n == 1:
            def ev(p):
                inv = curves_mod.invariants_n1(p)
                return {"I2": inv["I2"]}, [curves_mod.nabla(p)]
            return ev
        def ev(p):
            gens, _ = curves_mod.invariants(p)
            names = [f"I{m}" for m in range(2, 2 * n + 1)]
            return {k: gens[k] for k in names}, [curves_mod.nabla(p)]
        return ev
    if geometry == "curve" and flavor == "csp":
        def ev(p):
            gens, ders = ext_mod.csp_curve_invariants(p)
            return gens, [ders["dp"]]
        return ev
    if geometry == "curve" and flavor == "asp":
        def ev(p):
            gens, ders = ext_mod.asp_curve_invariants(p)
            return gens, [ders["dpp"]]
        return ev
    if geometry == "curve" and flavor == "acsp":
        def ev(p):
            gens, ders = ext_mod.acsp_curve_invariants(p)
            return gens, [ders["dppp"]]
        return ev
    if geometry == "function" and flavor == "sp":
        if n == 1:
            def ev(p):
                inv = fn_mod.invariants_n1(p)
                d = fn_mod.derivations_n1(p)
                return ({"I0": inv["I0"], "I2c": inv["I2c"]}, [d["d1"], d["d2"]])
            return ev
        def ev(p):
            gens, ders = fn_mod.generators_general(p)
            return gens, ders[:2]
        return ev
    if geometry == "function" and flavor == "csp":
        def ev(p):
            gens, ders = ext_mod.csp_function_invariants(p)
            return ({"I0": gens["I0"], "I2bp": gens["I2bp"]},
                    [ders["d1"], ders["d2p"]])
        return ev
    if geometry == "function" and flavor == "asp":
        def ev(p):
            gens, ders = ext_mod.asp_function_invariants(p)
            return ({"I0": gens["I0"], "I2p": gens["I2p"]},
                    [ders["d1p"], ders["d2"]])
        return ev
    if geometry == "function" and flavor == "acsp":
        def ev(p):
            gens, ders = ext_mod.acsp_function_invariants(p)
            return ({"I0": gens["I0"], "I3app": gens["I3app"], "I3bpp": gens["I3bpp"]},
                    [ders["d1pp"], ders["d2pp"]])
        return ev
    if geometry == "hypersurface" and flavor == "sp":
        def ev(p):
            fr = hyp_mod.canonical_frame(p)
            return dict(fr.invariants), hyp_mod.derivations(fr)
        return ev
    if geometry == "surface" and flavor == "sp":
        def ev(p):
            inv, ders, _ = srf_mod.invariants(p)
            return inv, list(ders)
        return ev
    if geometry == "contact-curve" and flavor == "contact":
        def ev(p):
            plain, _, ders = contact_mod.curve_invariants(p)
            return ({"I0": plain["I0"], "I2a": plain["I2a"]}, [ders["d"]])
        return ev
    if geometry == "contact-curve" and flavor == "contact-csp":
        def ev(p):
            _, scaled, ders = contact_mod.curve_invariants(p)
            return ({"I1": scaled["I1"], "I2ap": scaled["I2ap"]}, [ders["dp"]])
        return ev
    if geometry == "contact-surface" and flavor == "contact-csp":
        def ev(p):
            scaled, ders = contact_mod.surface_invariants(p)
            return ({"I1p": scaled["I1p"], "I2cp": scaled["I2cp"]},
                    [ders["d1"], ders["d2"]])
        return ev
    if geometry == "contact-function" and flavor == "contact-csp":
        def ev(p):
            inv = contact_mod.function_invariants(p)
            ders = contact_mod.function_derivations(p)
            return ({"I0": inv["I0"], "I2f": inv["I2f"]},
                    [ders["d1"], ders["d2"], ders["d3"]])
        return ev
    raise ValueError(f"no generator recipe for geometry {geometry!r} with flavor {flavor!r}")


def component_labels(geometry, flavor, n, depth):
    """Psi component labels: generators, then derivation words up to depth."""
    probe_names = _probe_generator_names(geometry, flavor, n)
    gen_names, n_ders = probe_names
    labels = list(gen_names)
    for d in range(1, depth + 1):
        for word in itertools.product(range(n_ders), repeat=d):
            for g in gen_names:
                labels.append("".join(f"d{i+1}" for i in word) + f"({g})")
    return labels


_PROBE_CACHE = {}


def _probe_generator_names(geometry, flavor, n):
    key = (geometry, flavor, n)
    if key not in _PROBE_CACHE:
        ev = generator_map(geometry, flavor, n)
        rng = np.random.default_rng(12345)
        for _ in range(20):
            try:
                point = JetPoint.random(CHARTS[geometry](n), default_order(geometry, n), rng)
                gens, ders = ev(point)
                _PROBE_CACHE[key] = (tuple(gens.keys()), len(ders))
                break
            except (GeometryError, JetError):
                continue
        else:
            raise AllSamplesDegenerate("could not probe the generator recipe")
    return _PROBE_CACHE[key]


def psi_values(point, geometry, flavor, n, depth):
    """All Psi components at one sample point, ordered as component_labels."""
    ev = generator_map(geometry, flavor, n)
    gens, ders = ev(point)
    gen_names = list(gens.keys())
    out = [_as_float(gens[g]) for g in gen_names]
    for d in range(1, depth + 1):
        for word in itertools.product(range(len(ders)), repeat=d):
            for g in gen_names:
                jet = apply_word(ders, word, gens[g])
                out.append(_as_float(jet))
    return out


def _as_float(x):
    v = x.value() if hasattr(x, "value") else x
    return float(getattr(v, "re", v))


def signature_of(defs, geometry, flavor, n=None, samples=64, depth=1,
                 window=(0.5, 1.5), seed=0, order=None, parametric=False):
    """Build the signature cloud of a submanifold given by expressions.

    defs: dependent name -> ExprAst (graph form), or a list of ASTs for every
    ambient coordinate when parametric (curves only).  Sample points are drawn
    uniformly from the window (per independent variable); degenerate samples
    are counted, not dropped silently.
    """
    if n is None:
        n = 1
    chart = CHARTS[geometry](n)
    order = order if order is not None else default_order(geometry, n)
    rng = np.random.default_rng(seed)
    p_indep = chart.n_independent
    lo, hi = window
    pts = []
    degenerate = 0
    labels = component_labels(geometry, flavor, n, depth)
    from .exprs import evaluate
    from .jets import TaylorJet

    for _ in range(samples):
        at = tuple(rng.uniform(lo, hi) for _ in range(p_indep))
        try:
            if parametric:
                s_jet = TaylorJet.variable(at[0], order)
                comps = [evaluate(ast, {ast.free_vars[0]: s_jet} if ast.free_vars else {})
                         for ast in defs]
                comps = [c if hasattr(c, "coeffs") else TaylorJet.constant(c, order, at[0])
                         for c in comps]
                point = parametric_curve_point(chart, comps, order)
            else:
                point = JetPoint.from_exprs(chart, defs, at, order)
            pts.append(tuple(psi_values(point, geometry, flavor, n, depth)))
        except (GeometryError, JetError, ZeroDivisionError):
            degenerate += 1
    if not pts:
        raise AllSamplesDegenerate(f"all {samples} samples hit degenerate loci")
    return SignatureCloud(geometry, flavor, tuple(labels), depth, tuple(window),
                          tuple(pts), samples, degenerate)


# --- comparison ------------------------------------------------------------------

_HAUSDORFF_ROWS = 128  # rows of a per block of squared distances


def hausdorff_distance(cloud_a, cloud_b):
    """Symmetric Hausdorff distance after per-coordinate diameter normalization.

    The squared distances are formed for blocks of rows of ``a``, so the
    temporary is (block, M, r) rather than (N, M, r).  Each entry uses the
    same formula as the whole matrix, and the running maximum and column
    minimum (``np.maximum``/``np.minimum``, which keep a NaN) select rather
    than round, so the result has the bits of the unblocked computation.
    """
    a = np.asarray(cloud_a.points, dtype=float)
    b = np.asarray(cloud_b.points, dtype=float)
    both = np.vstack([a, b])
    span = np.max(both, axis=0) - np.min(both, axis=0)
    span[span == 0] = 1.0
    an = a / span
    bn = b / span
    forward = -np.inf
    col_min = np.full(len(bn), np.inf)
    for start in range(0, len(an), _HAUSDORFF_ROWS):
        d2 = np.sum((an[start:start + _HAUSDORFF_ROWS, None, :] - bn[None, :, :]) ** 2, axis=2)
        forward = np.maximum(forward, np.max(np.min(d2, axis=1)))
        np.minimum(col_min, np.min(d2, axis=0), out=col_min)
    backward = np.max(col_min)
    return float(np.sqrt(max(forward, backward)))


def equivalent(cloud_a, cloud_b, tol=1e-6):
    """Three-way verdict with evidence: (verdict, distance)."""
    if (cloud_a.geometry != cloud_b.geometry or cloud_a.flavor != cloud_b.flavor
            or cloud_a.generators != cloud_b.generators or cloud_a.depth != cloud_b.depth):
        raise IncomparableClouds("clouds were built from different generator recipes")
    dist = hausdorff_distance(cloud_a, cloud_b)
    if dist <= tol:
        return "equivalent", dist
    if dist >= 10 * tol:
        return "distinct", dist
    return "inconclusive", dist


# --- serialization ----------------------------------------------------------------

def cloud_to_json(cloud):
    obj = {
        "geometry": cloud.geometry,
        "flavor": cloud.flavor,
        "generators": list(cloud.generators),
        "depth": cloud.depth,
        "window": [float(w) for w in cloud.window],
        "sample_count": cloud.sample_count,
        "degenerate_count": cloud.degenerate_count,
        "points": [list(p) for p in cloud.points],
    }
    return json.dumps(obj, indent=None, separators=(",", ":"), sort_keys=False)


def cloud_from_json(text):
    obj = json.loads(text)
    return SignatureCloud(
        obj["geometry"], obj["flavor"], tuple(obj["generators"]), obj["depth"],
        tuple(obj["window"]), tuple(tuple(p) for p in obj["points"]),
        obj["sample_count"], obj["degenerate_count"],
    )
