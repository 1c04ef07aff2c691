"""Prolonged vector fields on jet spaces and orbit-dimension computation.

A field X = a^i d_i + b^j d_j (base/dependent split fixed by a chart) prolongs
to J^k with components a^i on the base coordinates and
D_sigma(phi^j) + sum_i a^i u^j_{sigma+1_i} on u^j_sigma, where
phi^j = b^j - a^i u^j_i.  Everything is evaluated through jet arithmetic on a
sample jet of order k+1, so no symbolic expansion is ever performed.
"""

from __future__ import annotations

import numpy as np

from . import _tables
from .errors import NonGenericSample
from .geometry import CHARTS, JetPoint
from .symplectic import algebra_basis, contact_algebra_basis


def generating_functions(field, point):
    """phi^j = b^j - sum_i a^i u^j_i along the graph, plus the a^i jets."""
    chart = point.chart
    vals = field(point.space_coordinate_jets())
    a_jets = [vals[i] for i in chart.independent]
    phi = {}
    for name in chart.dependent:
        if chart.kind == "submanifold":
            b = vals[chart.space.index(name)]
        else:
            b = 0.0
        acc = b
        ujet = point.jets[name]
        for pos in range(chart.n_independent):
            acc = acc - a_jets[pos] * ujet.partial(pos)
        phi[name] = acc
    return a_jets, phi


def prolonged_row(field, point, k):
    """Components of X^(k) at the k-jet underlying `point` (order >= k+1)."""
    chart = point.chart
    p = chart.n_independent
    a_jets, phi = generating_functions(field, point)
    row = [_value_of(a) for a in a_jets]
    for name in chart.dependent:
        phi_jet = phi[name]
        ujet = point.jets[name]
        for sigma in _tables.monomials(p, k):
            comp = _partial_value(phi_jet, sigma)
            for i in range(p):
                up = tuple(e + (1 if j == i else 0) for j, e in enumerate(sigma))
                comp += _value_of(a_jets[i]) * point.jet_coordinate(name, up)
            row.append(comp)
    return row


def _value_of(x):
    return float(x.value()) if hasattr(x, "value") else float(x)


def _partial_value(jet, sigma):
    if hasattr(jet, "partial_at"):
        return float(jet.partial_at(sigma))
    return float(jet) if sum(sigma) == 0 else 0.0


def fields_for(chart, flavor):
    space = chart.space
    if hasattr(space, "pairs"):
        return algebra_basis(space, flavor)
    return contact_algebra_basis(space, flavor)


def matrix_rank(rows, rel_tol=1e-9):
    mat = np.asarray(rows, dtype=np.float64)
    if mat.size == 0:
        return 0
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv[0] == 0.0:
        return 0
    return int(np.sum(sv > rel_tol * sv[0]))


def orbit_dimension(geometry, flavor, n, k, seed=0, attempts=5, rel_tol=1e-9):
    """Rank of the prolonged algebra at a generic k-jet of the geometry.

    Resamples (up to `attempts`) and requires two consecutive agreeing ranks;
    raises NonGenericSample if the rank never stabilizes.
    """
    chart = CHARTS[geometry](n)
    fields = fields_for(chart, flavor)
    rng = np.random.default_rng(seed)
    ranks = []
    for _ in range(attempts):
        point = JetPoint.random(chart, k + 1, rng)
        rows = [prolonged_row(f, point, k) for f in fields]
        ranks.append(matrix_rank(rows, rel_tol))
        if len(ranks) >= 2 and ranks[-1] == ranks[-2]:
            return ranks[-1]
    raise NonGenericSample(f"orbit rank unstable across {attempts} samples: {ranks}")


def jet_space_dimension(geometry, n, k):
    chart = CHARTS[geometry](n)
    p = chart.n_independent
    m = len(chart.dependent)
    return p + m * _tables.count(p, k)
