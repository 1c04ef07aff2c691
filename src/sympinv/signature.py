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
import math
from dataclasses import dataclass

import numpy as np

from . import _tables
from . import contact as contact_mod
from . import curves as curves_mod
from . import extended as ext_mod
from . import functions as fn_mod
from . import hypersurfaces as hyp_mod
from . import surfaces as srf_mod
from .errors import (AllSamplesDegenerate, GeometryError, IncomparableClouds, JetError, NonFinite,
                     NonGenericSample, OrderExhausted)
from .exprs import evaluate
from .geometry import (CHARTS, JetPoint, apply_word, default_order, parametric_curve_point,
                       pushforward, relation_residual, relation_values)
from .jets import MultiJet, _const_float, _Split
from .symplectic import random_group_element


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

@dataclass(frozen=True)
class Recipe:
    """The exported generating set of one (geometry, flavor)."""
    n: object  # the one n it is implemented for, or None for every n >= 1
    labels: object  # n -> generator labels, in the order of the Psi components
    derivations: object  # n -> number of invariant derivations
    order: object  # n -> the lowest jet order that fixes the generator values
    # (point, n) -> (generator jets by label, derivation list); it looks its
    # frame functions up when called, and its dict may hold more generators
    evaluate: object
    checked: tuple  # the n of this recipe in the invariance battery
    # None, or (jet order, point -> {name: list of terms summing to zero}) of
    # the relations checked at n = 1 by `check syzygy` and the acceptance gate;
    # like `evaluate`, it looks its relation function up when called
    syzygies: object = None


def _fixed(value):
    return lambda n: value


def _function_sp_labels(n):
    if n == 1:
        return ("I0", "I2c")
    return ("I0", *(f"I{i}{j}" for i in (1, 2) for j in range(i, 2 * n + 1)))


def _picked(result, *names):
    """(generators, derivations) of a frame that returns its derivations in a
    dict: the named ones, in order."""
    gens, ders = result
    return gens, [ders[name] for name in names]


def _curve_sp(p, n):
    gens = curves_mod.invariants_n1(p) if n == 1 else curves_mod.invariants(p)[0]
    return gens, [curves_mod.nabla(p)]


def _function_sp(p, n):
    if n == 1:
        gens = fn_mod.invariants_n1(p)
        return _picked((gens, fn_mod.derivations_n1(p)), "d1", "d2")
    gens, ders = fn_mod.generators_general(p)
    return gens, ders[:2]


def _hypersurface(p, n):
    fr = hyp_mod.canonical_frame(p)
    return fr.invariants, hyp_mod.derivations(fr)


def _surface(p, n):
    inv, ders, _ = srf_mod.invariants(p)
    return inv, list(ders)


def _contact_curve(p, n):
    plain, _, ders = contact_mod.curve_invariants(p)
    return plain, [ders["d"]]


def _contact_curve_csp(p, n):
    _, scaled, ders = contact_mod.curve_invariants(p)
    return scaled, [ders["dp"]]


# One recipe per (geometry, flavor), in the order of the invariance battery.
# Adding a flavor means one entry here plus its frame functions.
RECIPES = {
    ("function", "sp"): Recipe(None, _function_sp_labels, _fixed(2), _fixed(2), _function_sp,
                               (1, 2), (4, lambda p: fn_mod.relations_n1(p))),
    ("function", "csp"): Recipe(
        1, _fixed(("I0", "I2bp")), _fixed(2), _fixed(2),
        lambda p, n: _picked(ext_mod.csp_function_invariants(p), "d1", "d2p"), (1,),
        (5, lambda p: ext_mod.csp_function_relations(p))),
    ("function", "asp"): Recipe(
        1, _fixed(("I0", "I2p")), _fixed(2), _fixed(2),
        lambda p, n: _picked(ext_mod.asp_function_invariants(p), "d1p", "d2"), (1,),
        (5, lambda p: ext_mod.asp_function_relations(p))),
    ("function", "acsp"): Recipe(
        1, _fixed(("I0", "I3app", "I3bpp")), _fixed(2), _fixed(3),
        lambda p, n: _picked(ext_mod.acsp_function_invariants(p), "d1pp", "d2pp"), (1,)),
    ("curve", "sp"): Recipe(
        None, lambda n: tuple(f"I{m}" for m in range(2, 2 * n + 1)), _fixed(1), lambda n: 2 * n,
        _curve_sp, (1, 2, 3)),
    ("curve", "csp"): Recipe(
        1, _fixed(("I3p",)), _fixed(1), _fixed(3),
        lambda p, n: _picked(ext_mod.csp_curve_invariants(p), "dp"), (1,)),
    ("curve", "asp"): Recipe(
        1, _fixed(("I4pp",)), _fixed(1), _fixed(4),
        lambda p, n: _picked(ext_mod.asp_curve_invariants(p), "dpp"), (1,)),
    ("curve", "acsp"): Recipe(
        1, _fixed(("I5",)), _fixed(1), _fixed(5),
        lambda p, n: _picked(ext_mod.acsp_curve_invariants(p), "dppp"), (1,)),
    ("hypersurface", "sp"): Recipe(
        None, lambda n: tuple(f"I2_{i}" for i in range(1, 2 * n)), lambda n: 2 * n - 1,
        _fixed(2), _hypersurface, (2, 3)),
    ("surface", "sp"): Recipe(
        2, _fixed(("I2a", "I2b", "I2c", "I2d")), _fixed(2), _fixed(2), _surface, (2,)),
    ("contact-curve", "contact"): Recipe(
        1, _fixed(("I0", "I2a")), _fixed(1), _fixed(2), _contact_curve, (1,)),
    ("contact-curve", "contact-csp"): Recipe(
        1, _fixed(("I1", "I2ap")), _fixed(1), _fixed(2), _contact_curve_csp, (1,)),
    ("contact-surface", "contact-csp"): Recipe(
        1, _fixed(("I1p", "I2cp")), _fixed(2), _fixed(2),
        lambda p, n: _picked(contact_mod.surface_invariants(p), "d1", "d2"), (1,),
        (4, lambda p: contact_mod.surface_relations(p))),
    ("contact-function", "contact-csp"): Recipe(
        1, _fixed(("I0", "I2f")), _fixed(3), _fixed(2),
        lambda p, n: _picked((contact_mod.function_invariants(p),
                              contact_mod.function_derivations(p)), "d1", "d2", "d3"), (1,),
        (4, lambda p: contact_mod.function_relations(p))),
}


def recipe_for(geometry, flavor):
    try:
        return RECIPES[geometry, flavor]
    except KeyError:
        raise ValueError(f"no generator recipe for geometry {geometry!r} "
                         f"with flavor {flavor!r}") from None


def invariance_targets():
    """(geometry, flavor, n) of the invariance battery, in its order."""
    return [(g, f, n) for (g, f), recipe in RECIPES.items() for n in recipe.checked]


def syzygy_sweep(geometry, flavor, count, rng, exact=False, spread=(0.5, 2.0)):
    """Check one recipe's relations on `count` random jets at its syzygy order.

    Returns one {relation name: result} per jet, the result being the float
    residual (`relation_residual`), or when exact the values of the sum
    (`relation_values`), and the number of draws skipped on degenerate loci.
    """
    order, relations = recipe_for(geometry, flavor).syzygies
    chart = CHARTS[geometry](1)
    check = relation_values if exact else relation_residual
    results, skipped = [], 0
    while len(results) < count:
        point = JetPoint.random(chart, order, rng, exact=exact, spread=spread)
        try:
            rels = relations(point)
        except (GeometryError, JetError, ZeroDivisionError):
            skipped += 1
            continue
        results.append({name: check(terms) for name, terms in rels.items()})
    return results, skipped


def invariance_sweep(geometry, flavor, n, jets, rng, element_seeds, order, spread):
    """Push random generic jets through group elements and compare the generators.

    Draws jets from `rng` at `order` and `spread` until `jets` of them are
    generic (the generators evaluate on them); raises NonGenericSample once
    200 * jets draws are spent short of that.  Each generic jet in turn meets
    the element of each seed in order (the elements are built once).  Yields
    one record per pair: (moved point, generator values on it,
    {label: |a - b| / max(|a|, |b|, 1)}), or None when
    the pushforward or the generators on the image degenerate.  The sweep is
    lazy, so a caller may draw from `rng` between pairs.
    """
    chart = CHARTS[geometry](n)
    ev = generator_map(geometry, flavor, n)
    elements = [random_group_element(chart.space, flavor, seed) for seed in element_seeds]
    generic = 0
    for _ in range(200 * jets):
        point = JetPoint.random(chart, order, rng, spread=spread)
        try:
            base = {k: _const_float(v) for k, v in ev(point)[0].items()}
        except (GeometryError, JetError, ZeroDivisionError):
            continue
        generic += 1
        for g in elements:
            try:
                moved = pushforward(point, g)
                values = {k: _const_float(v) for k, v in ev(moved)[0].items()}
            except (GeometryError, JetError, ZeroDivisionError):
                yield None
                continue
            yield moved, values, {k: abs(values[k] - v) / max(abs(v), abs(values[k]), 1.0)
                                  for k, v in base.items()}
        if generic == jets:
            return
    raise NonGenericSample(f"{geometry}/{flavor} n={n}: too few generic jets "
                           f"({generic} of {jets} in {200 * jets} draws)")


def generator_map(geometry, flavor, n):
    """Evaluator of the exported generating set of a geometry/flavor.

    The evaluator maps a JetPoint to (invariant jets dict, derivations list),
    the dict keyed by the recipe's labels in their order; signature
    components are the invariants followed by derivation words.
    """
    recipe = recipe_for(geometry, flavor)
    labels = recipe.labels(n)

    def ev(p):
        gens, ders = recipe.evaluate(p, n)
        return {k: gens[k] for k in labels}, ders

    return ev


def component_labels(geometry, flavor, n, depth):
    """Psi component labels: generators, then derivation words up to depth."""
    recipe = recipe_for(geometry, flavor)
    gen_names = recipe.labels(n)
    labels = list(gen_names)
    for d in range(1, depth + 1):
        for word in itertools.product(range(recipe.derivations(n)), repeat=d):
            for g in gen_names:
                labels.append("".join(f"d{i+1}" for i in word) + f"({g})")
    return labels


def psi_values(point, geometry, flavor, n, depth):
    """All Psi components at one sample point, ordered as component_labels.

    A word's jets are its first derivation applied to the jets of the rest of
    the word, kept from the depth before: the operations of ``apply_word`` on
    the whole word, in the same order, without recomputing the suffix.
    """
    ev = generator_map(geometry, flavor, n)
    gens, ders = ev(point)
    out = [_const_float(jet) for jet in gens.values()]
    suffixes = {(): list(gens.values())}
    for d in range(1, depth + 1):
        words = {}
        for word in itertools.product(range(len(ders)), repeat=d):
            jets = [apply_word(ders, word[:1], jet) for jet in suffixes[word[1:]]]
            words[word] = jets
            out.extend(_const_float(jet) for jet in jets)
        suffixes = words
    return out


# --- sampling ---------------------------------------------------------------------

# A chunk of B samples is one batched pass; B x pair_count(p, order) products
# per jet product bounds its width, and so does _CHUNK_SAMPLES, since the
# pass's jets grow with B as well.  A 2048-sample plane curve
# (pair_count(1, 6) = 28) is two chunks of 1024, with half the peak memory of
# one chunk and close to its time, and a p = 4 function job has chunks of 21.
_CHUNK_PRODUCTS = 2 ** 16
_CHUNK_SAMPLES = 2 ** 10

# The exceptions that make a sample degenerate.
_DEGENERATE = (GeometryError, JetError, ZeroDivisionError)


def sample_psi(defs, geometry, flavor, n, samples, depth, window, seed, order=None,
               parametric=False):
    """[(at, Psi values, "")] at `samples` points drawn uniformly from the window,
    or (at, None, exception class name) for a degenerate sample, which includes
    a non-finite component (NonFinite).

    defs: dependent name -> ExprAst (graph form), or a list of ASTs for every
    ambient coordinate when parametric (curves only; `at` is the parameter).

    The points are drawn at once, which gives the doubles of one draw per
    coordinate and sample.  Chunks of them (``_CHUNK_PRODUCTS``,
    ``_CHUNK_SAMPLES``) are evaluated as batched jets, one pass of the frame
    code per chunk, with the bits of one pass per sample.  A chunk whose
    samples take different branches (``jets._Split``) is evaluated one sample
    at a time.
    """
    chart = CHARTS[geometry](n)
    order = order if order is not None else default_order(geometry, n)
    rng = np.random.default_rng(seed)
    lo, hi = window
    ats = [tuple(at) for at in rng.uniform(lo, hi, (samples, chart.n_independent)).tolist()]
    width = max(1, min(_CHUNK_SAMPLES,
                       _CHUNK_PRODUCTS // _tables.pair_count(chart.n_independent, order)))

    def point_at(at):
        if parametric:
            return parametric_curve_point(
                chart, [_parameter_jet(ast, at[0], order) for ast in defs], order)
        return JetPoint.from_exprs(chart, defs, at, order)

    def one(at):
        try:
            values = psi_values(point_at(at), geometry, flavor, n, depth)
            if not all(math.isfinite(v) for v in values):
                raise NonFinite("a signature component is not finite")
        except _DEGENERATE as err:
            return at, None, type(err).__name__
        return at, values, ""

    def batch(chunk):
        columns = tuple(np.array(c) for c in zip(*chunk))
        try:
            values = psi_values(point_at(columns), geometry, flavor, n, depth)
        except OrderExhausted:  # a batch may hold a jet at a lower order
            raise _Split from None
        except _DEGENERATE as err:  # raised where every sample branches alike
            return [(at, None, type(err).__name__) for at in chunk]
        table = np.array([np.broadcast_to(v, (len(chunk),)) for v in values])
        finite = np.isfinite(table).all(axis=0).tolist()
        return [(at, vals, "") if ok else (at, None, NonFinite.__name__)
                for at, vals, ok in zip(chunk, table.T.tolist(), finite)]

    rows = []
    # an overflowing jet makes its sample NonFinite, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, samples, width):
            chunk = ats[start:start + width]
            try:
                rows += batch(chunk) if len(chunk) > 1 else [one(chunk[0])]
            except _Split:
                rows += [one(at) for at in chunk]
    return rows


def _parameter_jet(ast, s, order):
    """One coordinate of a parametric curve as a jet in its parameter at s."""
    at = (s,)
    s_jet = MultiJet.variable(0, 1, order, at)
    value = evaluate(ast, {ast.free_vars[0]: s_jet} if ast.free_vars else {})
    return value if isinstance(value, MultiJet) else MultiJet.constant(value, 1, order, at)


def signature_of(defs, geometry, flavor, n=None, samples=64, depth=1,
                 window=(0.5, 1.5), seed=0, order=None, parametric=False):
    """Build the signature cloud of a submanifold given by expressions.

    The arguments are those of sample_psi; degenerate samples are counted,
    not dropped silently.
    """
    n = 1 if n is None else n
    rows = sample_psi(defs, geometry, flavor, n, samples, depth, window, seed, order,
                      parametric)
    pts = tuple(tuple(values) for _, values, _ in rows if values is not None)
    if not pts:
        raise AllSamplesDegenerate(f"all {samples} samples hit degenerate loci")
    return SignatureCloud(geometry, flavor, tuple(component_labels(geometry, flavor, n, depth)),
                          depth, tuple(window), pts, samples, samples - len(pts))


# --- comparison ------------------------------------------------------------------

# A pass of the comparison forms at most _HAUSDORFF_ROWS * M squared distances,
# which bounds its temporaries; small passes also skip rows sooner.
_HAUSDORFF_ROWS = 4


def _directed_hausdorff_sq(x, y):
    """max over the rows of x of the least squared distance to a row of y.

    See hausdorff_distance for which distances are formed and why the result
    is that of the full matrix.
    """
    c = int(np.argmax(np.ptp(y, axis=0)))
    y = y[np.argsort(y[:, c])]
    yc, m = y[:, c], len(y)
    near = np.clip(np.searchsorted(yc, x[:, c])[:, None] + np.arange(-2, 2), 0, m - 1)
    u = np.min(np.sum((x[:, None, :] - y[near]) ** 2, axis=-1), axis=1)
    order = np.argsort(-u)
    x, u = x[order], u[order]
    xc = x[:, c]
    reach = np.sqrt(u) * (1 + 2.0 ** -40) + np.abs(xc) * 2.0 ** -50
    lo = np.searchsorted(yc, xc - reach, "left")
    counts = np.searchsorted(yc, xc + reach, "right") - lo
    ends = np.cumsum(counts)
    best = -np.inf
    start, live = 0, len(x)
    while start < live:
        # the next rows whose windows hold at most _HAUSDORFF_ROWS * m columns
        done = ends[start - 1] if start else 0
        stop = int(np.searchsorted(ends, done + _HAUSDORFF_ROWS * m, "right"))
        stop = min(live, max(start + 1, stop))
        cnt = counts[start:stop]
        firsts = ends[start:stop] - cnt - done
        rows = np.repeat(np.arange(start, stop), cnt)
        cols = np.arange(len(rows)) + np.repeat(lo[start:stop] - firsts, cnt)
        d2 = np.sum((x[rows] - y[cols]) ** 2, axis=-1)
        best = np.maximum(best, np.max(np.minimum.reduceat(d2, firsts)))
        start = stop
        # u falls along the rows: a row with u <= best cannot raise best
        live = start + int(np.searchsorted(-u[start:], -best))
    return best


def hausdorff_distance(cloud_a, cloud_b):
    """Symmetric Hausdorff distance after per-coordinate diameter normalization.

    Each directed distance, from the rows x of one cloud to the rows y of
    the other, forms only the squared distances d2 that can be a row's
    minimum (an exact pruning in the manner of Taha & Hanbury, IEEE TPAMI
    37 (2015)):

    - y is sorted along the coordinate c in which it spreads most;
    - the two y on either side of x in that order give x an upper bound u
      on its minimum;
    - x forms d2 only for the y with |x_c - y_c| <= sqrt(u), found by
      ``np.searchsorted`` with a margin of 2^-40 relative to sqrt(u) plus
      2^-50 relative to |x_c|, which covers every rounding in the bound;
    - rows go in decreasing u, and a row whose u is at most the largest
      minimum found so far is skipped, since its minimum cannot raise it.

    Every formed entry is ``np.sum((x - y) ** 2, axis=-1)``, the formula of
    the full matrix, and min and max only select.  A column outside the
    window has fl((x_c - y_c)^2) >= u, and its d2 is at least that term:
    a sum of non-negative floats is at least each of its terms, because
    rounding is monotone.  So the result has the bits of the full (N, M)
    matrix.  At worst, when every window is all of y and no row is
    skipped, each direction forms that whole matrix, _HAUSDORFF_ROWS rows'
    worth at a time.  A non-finite coordinate gives NaN, as in the full
    matrix, where it makes a whole row and column NaN after normalization.
    """
    a = np.asarray(cloud_a.points, dtype=float)
    b = np.asarray(cloud_b.points, dtype=float)
    both = np.vstack([a, b])
    span = np.max(both, axis=0) - np.min(both, axis=0)
    span[span == 0] = 1.0
    an = a / span
    bn = b / span
    if not (np.isfinite(an).all() and np.isfinite(bn).all()):
        return math.nan
    forward = _directed_hausdorff_sq(an, bn)
    backward = _directed_hausdorff_sq(bn, an)
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
