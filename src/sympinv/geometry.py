"""Graph jets of submanifolds and functions, group pushforward, derivations.

A chart fixes the ambient space, which coordinates are independent and which
are dependent.  A `JetPoint` stores the dependent coordinates as truncated
series in the independent ones; every invariant evaluator downstream receives
such a point and produces values that are again series along the submanifold,
so invariant derivations reduce to coefficient-weighted partial derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _tables
from .errors import GraphDegeneracy, SingularLinearPart
from .jets import MultiJet, _factorial_multi, _sum, compose_many, invert_series
from .symplectic import ContactSpace, SymplecticSpace


@dataclass(frozen=True)
class Chart:
    kind: str  # "submanifold" | "function"
    space: object  # SymplecticSpace | ContactSpace
    independent: tuple  # indices into space coordinates
    dependent: tuple  # names: space coordinates (submanifold) or extras (function)

    @property
    def n_independent(self):
        return len(self.independent)

    def independent_names(self):
        return tuple(self.space.names[i] for i in self.independent)


# --- chart factories ---------------------------------------------------------

def curve_chart(n):
    if n == 1:
        space = SymplecticSpace(1, ("x", "y"), ((0, 1),))
        return Chart("submanifold", space, (0,), ("y",))
    if n == 2:
        names = ("t", "x", "y", "z")
    else:
        names = (("t",) + tuple(f"x{i+1}" for i in range(n - 1)) + ("y",)
                 + tuple(f"z{i+1}" for i in range(n - 1)))
    pairs = ((0, n),) + tuple((1 + i, n + 1 + i) for i in range(n - 1))
    space = SymplecticSpace(n, names, pairs)
    return Chart("submanifold", space, (0,), names[1:])


def function_chart(n):
    space = SymplecticSpace.standard(n)
    return Chart("function", space, tuple(range(2 * n)), ("u",))


def hypersurface_chart(n):
    if n == 2:
        names = ("x", "y", "z", "u")
    else:
        names = (tuple(f"x{i+1}" for i in range(n - 1)) + ("y",)
                 + tuple(f"z{i+1}" for i in range(n - 1)) + ("u",))
    pairs = tuple((i, n + i) for i in range(n - 1)) + ((n - 1, 2 * n - 1),)
    space = SymplecticSpace(n, names, pairs)
    return Chart("submanifold", space, tuple(range(2 * n - 1)), (names[-1],))


def surface_chart():
    space = SymplecticSpace(2, ("t", "s", "x", "y"), ((0, 1), (2, 3)))
    return Chart("submanifold", space, (0, 1), ("x", "y"))


def contact_curve_chart():
    return Chart("submanifold", ContactSpace.standard(1), (0,), ("y", "z"))


def contact_surface_chart():
    return Chart("submanifold", ContactSpace.standard(1), (0, 1), ("z",))


def contact_function_chart():
    return Chart("function", ContactSpace.standard(1), (0, 1, 2), ("u",))


CHARTS = {
    "curve": curve_chart,
    "function": function_chart,
    "hypersurface": hypersurface_chart,
    "surface": lambda n=2: surface_chart(),
    "contact-curve": lambda n=1: contact_curve_chart(),
    "contact-surface": lambda n=1: contact_surface_chart(),
    "contact-function": lambda n=1: contact_function_chart(),
}


def n_independent(geometry, n):
    """``CHARTS[geometry](n).n_independent`` without building the chart."""
    return {"curve": 1, "function": 2 * n, "hypersurface": 2 * n - 1, "surface": 2,
            "contact-curve": 1, "contact-surface": 2, "contact-function": 3}[geometry]


def default_order(geometry, n):
    """Jet order of the `invariants`, `signature` and `check` commands."""
    if geometry in ("curve", "contact-curve"):
        return 2 * n + 4
    return 6


# --- jet points --------------------------------------------------------------

class JetPoint:
    """Jets of the dependent coordinates along the submanifold/graph."""

    __slots__ = ("chart", "basepoint", "jets", "order", "exact")

    def __init__(self, chart, basepoint, jets, order, exact=False):
        self.chart = chart
        self.basepoint = tuple(basepoint)
        self.jets = dict(jets)
        self.order = order
        self.exact = exact

    # construction -----------------------------------------------------------

    @classmethod
    def from_exprs(cls, chart, defs, at, order, exact=False):
        """defs: dependent name -> ExprAst in the independent coordinate names."""
        from .exprs import evaluate

        env = _independent_env(chart, at, order, exact)
        jets = {}
        for name in chart.dependent:
            ast = defs[name]
            val = evaluate(ast, {k: env[k] for k in ast.free_vars})
            jets[name] = _as_graph_jet(val, chart, at, order, exact)
        return cls(chart, at, jets, order, exact)

    @classmethod
    def from_partials(cls, chart, data, at, order, exact=False):
        """data: dependent name -> {multi-index: partial derivative value}."""
        p = chart.n_independent
        jets = {name: MultiJet.from_partials(data[name], p, order, at, exact=exact)
                for name in chart.dependent}
        return cls(chart, at, jets, order, exact)

    @classmethod
    def random(cls, chart, order, rng, exact=False, spread=(0.5, 2.0)):
        """Generic sample: base and jet coordinates uniform in +-[lo, hi]."""
        lo, hi = spread
        p = chart.n_independent

        def draw():
            v = rng.uniform(lo, hi) * (1 if rng.random() < 0.5 else -1)
            return Fraction(v).limit_denominator(64) if exact else v

        at = tuple(draw() for _ in range(p))
        data = {}
        for name in chart.dependent:
            entries = {}
            for sigma in _tables.monomials(p, order):
                entries[sigma] = draw()
            data[name] = entries
        return cls.from_partials(chart, data, at, order, exact=exact)

    # queries ------------------------------------------------------------------

    def independent_jets(self):
        """Coordinate jets of the independent variables (identity graph)."""
        return _independent_jet_list(self.chart, self.basepoint, self.order, self.exact)

    def space_coordinate_jets(self):
        """Jets of every ambient space coordinate along the submanifold."""
        chart = self.chart
        indep = self.independent_jets()
        out = [None] * chart.space.dim
        for pos, idx in enumerate(chart.independent):
            out[idx] = indep[pos]
        if chart.kind == "submanifold":
            for name in chart.dependent:
                out[chart.space.index(name)] = self.jets[name]
        return out

    def env(self):
        """name -> jet map covering space coordinates and dependents."""
        chart = self.chart
        out = {}
        coords = self.space_coordinate_jets()
        for i, name in enumerate(chart.space.names):
            if coords[i] is not None:
                out[name] = coords[i]
        for name in chart.dependent:
            out[name] = self.jets[name]
        return out

    def truncate(self, new_order):
        if new_order >= self.order:
            return self
        jets = {k: v.truncate(new_order) for k, v in self.jets.items()}
        return JetPoint(self.chart, self.basepoint, jets, new_order, self.exact)

    def fiber_coordinates(self, min_order=0, max_order=None):
        """(name, sigma) labels of the jet-fiber coordinates."""
        p = self.chart.n_independent
        max_order = self.order if max_order is None else max_order
        out = []
        for name in self.chart.dependent:
            for sigma in _tables.monomials(p, max_order):
                if min_order <= sum(sigma) <= max_order:
                    out.append((name, sigma))
        return out

    def perturb(self, name, sigma, h):
        """Bump one jet-fiber coordinate (a partial derivative) by h.

        A float step h gives a finite-difference neighbour.  On an exact
        point, h = ``Dual(0, 1)`` adds a dual epsilon, so downstream
        eps-components are exact derivatives along that coordinate.
        """
        jets = dict(self.jets)
        jet = jets[name]
        coeffs = list(jet.coeffs) if jet.exact else jet.coeffs.copy()
        pos = _tables.index_of(jet.nvars, jet.order)[tuple(sigma)]
        coeffs[pos] = coeffs[pos] + h / _factorial_multi(sigma)
        jets[name] = MultiJet(jet.nvars, jet.order, coeffs, jet.basepoint, exact=jet.exact)
        return JetPoint(self.chart, self.basepoint, jets, self.order, self.exact)

    def jet_coordinate(self, name, sigma):
        return self.jets[name].partial_at(sigma)


def _independent_env(chart, at, order, exact):
    jets = _independent_jet_list(chart, at, order, exact)
    return {name: jets[pos] for pos, name in enumerate(chart.independent_names())}


def _independent_jet_list(chart, at, order, exact):
    p = chart.n_independent
    return [MultiJet.variable(i, p, order, at, exact=exact) for i in range(p)]


def _as_graph_jet(val, chart, at, order, exact):
    """Lift a constant evaluation result to a jet of the right shape."""
    if isinstance(val, MultiJet):
        return val
    return MultiJet.constant(val, chart.n_independent, order, at, exact=exact)


# --- derivations --------------------------------------------------------------

@dataclass(frozen=True)
class Derivation:
    """Horizontal derivation sum_i a_i D_i with jet coefficients a_i."""

    coeffs: tuple  # jets along the submanifold, one per independent variable

    def __call__(self, f):
        return _sum(self.summands(f))

    def commutator(self, other):
        new_coeffs = tuple(self(b) - other(a)
                           for a, b in zip(self.coeffs, other.coeffs))
        return Derivation(new_coeffs)

    def scale(self, factor):
        return Derivation(tuple(a * factor for a in self.coeffs))

    def __add__(self, other):
        return Derivation(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        return Derivation(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def values(self):
        """Coefficient values at the basepoint."""
        return [a.value() for a in self.coeffs]

    def summands(self, f):
        """The terms a_i D_i f whose sum is self(f): a relation self(f) = 0
        stated term by term."""
        return [a * f.partial(i) for i, a in enumerate(self.coeffs)]


# --- relations ------------------------------------------------------------------
# A relation is a list of terms that sums to zero identically.  A term is a
# scalar jet or a plain number, or, in a relation between derivations, a
# `Derivation`, whose sum is taken coefficient by coefficient.

def _term_values(term):
    coeffs = term.coeffs if isinstance(term, Derivation) else (term,)
    return [c.value() if hasattr(c, "value") else c for c in coeffs]


def _sums(rows):
    return [_sum(col) for col in zip(*rows)]


def relation_values(terms):
    """Values at the basepoint of the sum of a relation's terms, one per
    coefficient of a derivation relation: exactly zero in exact mode."""
    return _sums([_term_values(t) for t in terms])


def relation_residual(terms):
    """Float residual of a relation: the largest |sum| over its coefficients,
    over the largest |coefficient| of any term.  A NaN anywhere gives NaN."""
    rows = [_term_values(t) for t in terms]
    total = np.max(np.abs(np.array(_sums(rows), dtype=float)))
    scale = np.max(np.abs(np.array(rows, dtype=float)))
    return float(total / np.maximum(scale, 1e-30))


def apply_word(derivations, word, f):
    """Apply a composition of derivations (rightmost acts first)."""
    out = f
    for idx in reversed(word):
        out = derivations[idx](out)
    return out


# --- pushforward ---------------------------------------------------------------

def pushforward(point, element):
    """Jet of the transformed submanifold, re-graphed over the same chart.

    `element` is anything with apply_point(coords) acting on the ambient space
    coordinates; for function charts the dependent values ride along unchanged.
    """
    chart = point.chart
    apply_fn = element.apply_point if hasattr(element, "apply_point") else element
    coords = point.space_coordinate_jets()
    image = apply_fn(coords)
    try:
        inv = invert_series([image[i] for i in chart.independent])
    except SingularLinearPart as err:
        raise GraphDegeneracy(
            f"transformed submanifold is not a graph over {chart.independent_names()}: {err}"
        ) from err
    if chart.kind == "submanifold":
        img_jets = [image[chart.space.index(name)] for name in chart.dependent]
    else:
        img_jets = [point.jets[name] for name in chart.dependent]
    new_jets = dict(zip(chart.dependent, compose_many(img_jets, inv)))
    return JetPoint(chart, inv[0].basepoint, new_jets, point.order, point.exact)


def parametric_curve_point(chart, component_jets, order):
    """Build a curve graph point from parametric component jets.

    component_jets are jets of every ambient coordinate in an auxiliary
    parameter; the first coordinate must have nonvanishing speed so the curve
    re-graphs over it.
    """
    first = component_jets[0]
    try:
        inv = invert_series([first])
    except SingularLinearPart as err:
        raise GraphDegeneracy(f"curve is not a graph over {chart.space.names[0]}") from err
    jets = dict(zip(chart.space.names[1:], compose_many(component_jets[1:], inv)))
    exact = any(j.exact for j in component_jets)
    return JetPoint(chart, (first.value(),), jets, order, exact)
