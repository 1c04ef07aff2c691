"""Differential invariants of unparametrized curves in symplectic R^(2n).

The construction normalizes the derivative vectors of a parametrization
against the position vector with the symplectic form: v1 = w1/delta with
omega(v0, v1) = 1, and each higher v_m is solved from the chain-rule cascade
w_m = sum_j v_j B_{m,j}(k) subject to omega(v0, v_m) = 0.  The chain-rule
coefficients B_{m,j} are generated programmatically from truncated powers of
the reparametrization series, not hard-coded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DegenerateJet, NormalizationSingular
from .geometry import Derivation
from .jetlinalg import is_negligible, magnitude
from .jets import divide_all
from .symplectic import Poly


@lru_cache(maxsize=None)
def bell_coefficients(m_max):
    """B[m][j] as polynomials in k_1..k_m with B_{m,j} = (m!/j!) [t^m] T(t)^j,
    T(t) = sum_i k_i t^i / i!.  Matches the textbook chain-rule coefficients:
    B_{2,2} = k1^2, B_{3,2} = 3 k1 k2, B_{4,2} = 4 k1 k3 + 3 k2^2, ...
    """
    nv = m_max
    series = [Poly.zero(nv)]
    for i in range(1, m_max + 1):
        series.append(Poly.coordinate(nv, i - 1) * Fraction(1, math.factorial(i)))
    # powers[j][m] = [t^m] T^j
    powers = {1: list(series)}
    for j in range(2, m_max + 1):
        prev = powers[j - 1]
        cur = [Poly.zero(nv) for _ in range(m_max + 1)]
        for a in range(m_max + 1):
            for b in range(m_max + 1 - a):
                if prev[a].terms and series[b].terms:
                    cur[a + b] = cur[a + b] + prev[a] * series[b]
        powers[j] = cur
    table = {}
    for m in range(1, m_max + 1):
        for j in range(1, m + 1):
            table[(m, j)] = powers[j][m] * Fraction(math.factorial(m), math.factorial(j))
    return table


@dataclass(frozen=True)
class CurveFrame:
    """Canonical vectors v0..v_{2n} (ambient components as jets) and scalars.

    k1 is the coefficient of the invariant derivation (1/delta); k2.. are the
    cascade parameters solved from omega(v0, v_m) = 0.
    """

    vectors: tuple  # v0, v1, ..., v_{2n}
    k: tuple  # k1 = 1/delta, k2, ..., k_{2n} (jets)
    delta: object


def _derivative_vectors(point, top):
    """w_m = m-th parameter derivative of the ambient coordinates, m = 0..top."""
    coords = point.space_coordinate_jets()
    rows = [list(coords)]
    for _ in range(top):
        prev = rows[-1]
        rows.append([c.partial(0) for c in prev])
    return rows


def delta_value(point):
    """omega(v0, D_t): the first normalization denominator."""
    space = point.chart.space
    rows = _derivative_vectors(point, 1)
    return space.omega(rows[0], rows[1])


def nabla(point):
    """The invariant derivation (1/delta) D_t."""
    d = delta_value(point)
    if is_negligible(d):
        raise DegenerateJet("delta = omega(v0, tangent) vanishes")
    one = 1 / d
    return Derivation((one,))


def frame(point):
    """Canonical frame v0..v_{2n} by the symplectic normalization cascade."""
    space = point.chart.space
    n = space.n
    top = 2 * n
    if point.order < top:
        raise DegenerateJet(f"need a {top}-jet, have order {point.order}")
    rows = _derivative_vectors(point, top)
    v0 = rows[0]
    delta = space.omega(v0, rows[1])
    if is_negligible(delta):
        raise DegenerateJet("delta = omega(v0, tangent) vanishes")
    inv_delta = 1 / delta
    v = [v0, [c * inv_delta for c in rows[1]]]
    bells = bell_coefficients(top)
    k_vals = [delta]  # k1 = delta in the cascade; stored frame keeps 1/delta
    for m in range(2, top + 1):
        w_m = rows[m]
        k_m = space.omega(v0, w_m)
        k_args = k_vals + [k_m] + [delta * 0] * (top - m)
        resid = list(w_m)
        for j in range(2, m):
            b = bells[(m, j)](k_args)
            resid = [r - vj * b for r, vj in zip(resid, v[j])]
        resid = [r - v1c * k_m for r, v1c in zip(resid, v[1])]
        denom = delta**m
        if is_negligible(denom):
            raise NormalizationSingular(f"cascade denominator vanishes at order {m}")
        new_v = divide_all(resid, denom)
        v.append(new_v)
        k_vals.append(k_m)
    ks = tuple([inv_delta] + k_vals[1:])
    return CurveFrame(tuple(tuple(vec) for vec in v), ks, delta)


def frame_invariants(point):
    """All pairings omega(v_i, v_j) for 1 <= i < j <= 2n, keyed 'w{i}{j}'."""
    space = point.chart.space
    fr = frame(point)
    out = {}
    top = 2 * space.n
    for i in range(1, top + 1):
        for j in range(i + 1, top + 1):
            out[f"w{i}{j}"] = space.omega(fr.vectors[i], fr.vectors[j])
    return out, fr


def invariants(point):
    """Generating invariants I_2..I_{2n} = omega(v_{m-1}, v_m) plus auxiliaries.

    For n = 2 the auxiliary pairings carry their order-letter names
    (I3a = omega(v1,v3), I4a = omega(v1,v4), I4b = omega(v2,v4)).
    """
    space = point.chart.space
    n = space.n
    pairings, fr = frame_invariants(point)
    gens = {}
    for m in range(2, 2 * n + 1):
        gens[f"I{m}"] = pairings[f"w{m-1}{m}"]
    if n == 2:
        gens["I3a"] = pairings["w13"]
        gens["I3b"] = pairings["w23"]
        gens["I4a"] = pairings["w14"]
        gens["I4b"] = pairings["w24"]
        gens["I4c"] = pairings["w34"]
    return gens, fr


def invariants_n1(point, depth=0):
    """I2 = y2 / (x y1 - y)^3 and its iterated derivatives on the plane."""
    space = point.chart.space
    if space.n != 1:
        raise ValueError("invariants_n1 requires n = 1")
    x = point.independent_jets()[0]
    y = point.jets["y"]
    d = x * y.partial(0) - y
    if is_negligible(d):
        raise DegenerateJet("x y1 - y vanishes: tangent line passes through the origin")
    i2 = y.partial(0).partial(0) / d**3
    out = {"I2": i2}
    der = Derivation((1 / d,))
    cur = i2
    for k in range(1, depth + 1):
        cur = der(cur)
        out[f"I{k+2}"] = cur
    return out


def normalize_frame_checks(point):
    """Constant terms of the imposed normalizations (must be 1, 0, 0, ...).

    The zero pairings are normalized by the size of their largest summand so
    the check is meaningful when frame components are large.
    """
    space = point.chart.space
    fr = frame(point)
    vals = [space.omega(fr.vectors[0], fr.vectors[1]).value()]
    v0 = fr.vectors[0]
    for m in range(2, 2 * space.n + 1):
        vm = fr.vectors[m]
        pairing = space.omega(v0, vm).value()
        scale = 1e-30
        for (a, b) in space.pairs:
            scale = max(scale, magnitude(v0[a]) * magnitude(vm[b]),
                        magnitude(v0[b]) * magnitude(vm[a]))
        vals.append(pairing / scale)
    return vals


def printed_formula_i2(point):
    """Closed-form order-2 invariant (x1 z2 - x2 z1 + y2)/delta^3 for n >= 2."""
    space = point.chart.space
    n = space.n
    names = space.names
    y = point.jets[names[n]]
    y2 = y.partial(0).partial(0)
    num = y2
    for i in range(n - 1):
        xi = point.jets[names[1 + i]]
        zi = point.jets[names[n + 1 + i]]
        num = num + xi.partial(0) * zi.partial(0).partial(0)
        num = num - xi.partial(0).partial(0) * zi.partial(0)
    d = delta_value(point)
    return num / d**3
