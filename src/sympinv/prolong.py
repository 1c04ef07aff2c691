"""Prolonged vector fields on jet spaces and orbit-dimension computation.

A field X = a^i d_i + b^j d_j (base/dependent split fixed by a chart) prolongs
to J^k with components a^i on the base coordinates and
D_sigma(phi^j) + sum_i a^i u^j_{sigma+1_i} on u^j_sigma, where
phi^j = b^j - a^i u^j_i.  Everything is evaluated through jet arithmetic on a
sample jet of order k+1, so no symbolic expansion is ever performed.
"""

from __future__ import annotations

import math

import numpy as np

from . import _tables
from .errors import NonGenericSample
from .geometry import CHARTS, JetPoint
from .jets import _const_float
from .symplectic import algebra_basis


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
    row = [_const_float(a) for a in a_jets]
    for name in chart.dependent:
        phi_jet = phi[name]
        ujet = point.jets[name]
        for sigma in _tables.monomials(p, k):
            comp = float(phi_jet.partial_at(sigma))
            for i in range(p):
                up = tuple(e + (1 if j == i else 0) for j, e in enumerate(sigma))
                comp += _const_float(a_jets[i]) * point.jet_coordinate(name, up)
            row.append(comp)
    return row


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
    fields = algebra_basis(chart.space, flavor)
    rng = np.random.default_rng(seed)
    ranks = []
    for _ in range(attempts):
        point = JetPoint.random(chart, k + 1, rng)
        rows = [prolonged_row(f, point, k) for f in fields]
        ranks.append(matrix_rank(rows, rel_tol))
        if len(ranks) >= 2 and ranks[-1] == ranks[-2]:
            return ranks[-1]
    raise NonGenericSample(f"orbit rank unstable across {attempts} samples: {ranks}")


# (label, geometry, flavor, n, k, orbit dimension) read by `sympinv check
# counting` and the acceptance gate: the paper's counts, then the curve formula
# min(2(k+1)n - C(k+1, 2), n(2n+1)) for 2n = 2, 4 and 6.
ORBIT_DIMENSIONS = (
    ("curves R4 k=0", "curve", "sp", 2, 0, 4),
    ("curves R4 k=1", "curve", "sp", 2, 1, 7),
    ("curves R4 k=2", "curve", "sp", 2, 2, 9),
    ("curves R4 k=3", "curve", "sp", 2, 3, 10),
    ("functions n=1 k=1", "function", "sp", 1, 1, 3),
    ("hypersurfaces R4 k=1 (open)", "hypersurface", "sp", 2, 1, 7),
    ("hypersurfaces R4 k=2 (h2=3)", "hypersurface", "sp", 2, 2, 10),
    ("hypersurfaces R4 k=3 (h3=10)", "hypersurface", "sp", 2, 3, 10),
    ("surfaces R4 k=1 (open)", "surface", "sp", 2, 1, 8),
    ("surfaces R4 k=2 (h2=4)", "surface", "sp", 2, 2, 10),
    ("surfaces R4 k=3 (h3=8)", "surface", "sp", 2, 3, 10),
    ("contact functions k=0 (h0=1)", "contact-function", "contact-csp", 1, 0, 3),
    ("contact functions k=1 (h1=2)", "contact-function", "contact-csp", 1, 1, 4),
) + tuple((f"curves 2n={2 * n} k={k}", "curve", "sp", n, k,
           min(2 * (k + 1) * n - math.comb(k + 1, 2), n * (2 * n + 1)))
          for n in (1, 2, 3) for k in range(2 * n + 1))


def orbit_table(seed=0):
    """(label, expected, observed) of each ORBIT_DIMENSIONS row, in order.

    Each (geometry, flavor, n, k) is sampled once, at seed + 17k + n: the
    curves R4 rows and the curves 2n=4 rows k <= 3 share their ranks.
    """
    ranks = {}
    for label, geometry, flavor, n, k, expected in ORBIT_DIMENSIONS:
        case = geometry, flavor, n, k
        if case not in ranks:
            ranks[case] = orbit_dimension(*case, seed=seed + 17 * k + n)
        yield label, expected, ranks[case]


def jet_space_dimension(geometry, n, k):
    chart = CHARTS[geometry](n)
    p = chart.n_independent
    m = len(chart.dependent)
    return p + m * _tables.count(p, k)
