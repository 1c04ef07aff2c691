"""Differential invariants of functions on symplectic R^(2n).

Input points are function-chart `JetPoint`s (all 2n base coordinates
independent, one dependent u).  Every invariant is returned as a jet along the
graph, so applying invariant derivations is plain jet arithmetic; scalar
values are the jets' constant terms.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateJet, FrameDegeneracy
from .geometry import Derivation
from .jetlinalg import magnitude
from .jets import _const_float, _matvec, _sum


def _coordinate_jets(point):
    return point.space_coordinate_jets()


def _u_partials(point):
    """First partials of u along the graph, one jet per base coordinate."""
    u = point.jets["u"]
    return [u.partial(i) for i in range(point.chart.n_independent)]


def _u_second_partials(point):
    u = point.jets["u"]
    p = point.chart.n_independent
    firsts = [u.partial(i) for i in range(p)]
    return [[firsts[i].partial(j) for j in range(p)] for i in range(p)]


def base_invariant(point):
    """I0 = u."""
    return point.jets["u"]


def radial_derivation(point):
    """nabla_1: derivative along the radial field."""
    return Derivation(tuple(_coordinate_jets(point)))


def gradient_derivation(point):
    """nabla_2: symplectic rotation of the horizontal differential of u."""
    sigma = _u_partials(point)
    coeffs = point.chart.space.omega_inv_oneform(sigma)
    return Derivation(tuple(coeffs))


def q2_matrix(point):
    """Second symmetric differential of u as a matrix of jets."""
    return _u_second_partials(point)


def q2_form(q2, d1, d2):
    """Contract the quadratic form with two derivations."""
    return _sum(q2[i][j] * a * b for i, a in enumerate(d1.coeffs)
                for j, b in enumerate(d2.coeffs))


def qk_form(point, derivations_tuple):
    """Contraction Q_k(nabla_{j_1},...,nabla_{j_k}) of the k-th symmetric
    differential of u with the coefficient vectors of the derivations."""
    u = point.jets["u"]
    p = point.chart.n_independent

    def rec(jet, remaining):
        if not remaining:
            return jet
        d = remaining[0]
        return _sum(rec(jet.partial(i), remaining[1:]) * d.coeffs[i] for i in range(p))

    return rec(u, list(derivations_tuple))


def endomorphism_apply(point, derivation):
    """A(nabla) for A = omega^{-1} Q2, in the orientation fixed by the n=1
    coordinate formulas (A nabla_2 expands with +I2c/I1 on nabla_1)."""
    w = derivation.coeffs
    # (Q2 w)_a then raise with J: out = J . (Q2 w)
    q2w = [_sum(h * x for h, x in zip(row, w)) for row in q2_matrix(point)]
    return Derivation(tuple(_matvec(point.chart.space.omega_matrix(), q2w)))


# --- n = 1 -------------------------------------------------------------------

def invariants_n1(point):
    """The five classical generators on the symplectic plane, as jets."""
    if point.chart.space.n != 1:
        raise ValueError("invariants_n1 requires n = 1")
    x, y = _coordinate_jets(point)
    ux, uy = _u_partials(point)
    (uxx, uxy), (_, uyy) = _u_second_partials(point)
    i0 = point.jets["u"]
    i1 = x * ux + y * uy
    i2a = x * x * uxx + 2 * x * y * uxy + y * y * uyy
    i2b = x * uy * uxx - y * ux * uyy + (y * uy - x * ux) * uxy
    i2c = ux * ux * uyy - 2 * ux * uy * uxy + uy * uy * uxx
    return {"I0": i0, "I1": i1, "I2a": i2a, "I2b": i2b, "I2c": i2c}


def derivations_n1(point):
    return {"d1": radial_derivation(point), "d2": gradient_derivation(point)}


def relations_n1(point):
    """The three relations tying the n=1 generators, each a list of terms that
    sums to zero identically: d2(I0) = 0, the commutator [d1, d2] and the
    second-order relation R3."""
    inv = invariants_n1(point)
    d = derivations_n1(point)
    d1, d2 = d["d1"], d["d2"]
    i1 = inv["I1"]
    i2a, i2b, i2c = inv["I2a"], inv["I2b"], inv["I2c"]
    return {
        "R1": d2.summands(inv["I0"]),
        "R2": [d1.commutator(d2), d1.scale(-i2b / i1) + d2.scale((i1 - i2a) / i1)],
        "R3": [d2(i2b) * i1, d1(i2c) * i1, -(3 * i2a - i1) * i2c, 3 * i2b * i2b],
    }


# --- general n ----------------------------------------------------------------

def derivations_general(point):
    """nabla_1, nabla_2 and the endomorphism-generated nabla_{i+2} = A^i nabla_2."""
    n = point.chart.space.n
    out = [radial_derivation(point), gradient_derivation(point)]
    cur = out[1]
    for _ in range(2 * n - 2):
        cur = endomorphism_apply(point, cur)
        out.append(cur)
    mat = np.array([[_const_float(c) for c in d.coeffs] for d in out])
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv[-1] <= 1e-9 * max(sv[0], 1e-300):
        raise FrameDegeneracy(
            f"derivation frame rank-deficient (relative sv {sv[-1]/max(sv[0],1e-300):.2e})")
    return out


def generators_general(point):
    """I0 and the Gram entries I_{ij} = Q2(nabla_i, nabla_j), i in {1,2}."""
    n = point.chart.space.n
    ders = derivations_general(point)
    q2 = q2_matrix(point)
    gens = {"I0": base_invariant(point)}
    for i in (1, 2):
        for j in range(1, 2 * n + 1):
            if j < i:
                continue
            gens[f"I{i}{j}"] = q2_form(q2, ders[i - 1], ders[j - 1])
    return gens, ders


def expansion_defect_a_nabla2(point):
    """Componentwise defect of the expansion of A nabla_2 through nabla_1, nabla_2."""
    inv = invariants_n1(point)
    d1 = radial_derivation(point)
    d2 = gradient_derivation(point)
    i1, i2b, i2c = inv["I1"], inv["I2b"], inv["I2c"]
    if magnitude(i1) < 1e-12:
        raise DegenerateJet("I1 vanishes; expansion undefined")
    lhs = endomorphism_apply(point, d2)
    rhs = d1.scale(i2c / i1) + d2.scale(i2b / i1)
    scale = max(max(magnitude(c) for c in lhs.coeffs), 1e-30)
    return max(magnitude(a - b) for a, b in zip(lhs.coeffs, rhs.coeffs)) / scale


def expansion_defect_a_nabla1(point):
    inv = invariants_n1(point)
    d1 = radial_derivation(point)
    d2 = gradient_derivation(point)
    i1, i2a, i2b = inv["I1"], inv["I2a"], inv["I2b"]
    if magnitude(i1) < 1e-12:
        raise DegenerateJet("I1 vanishes; expansion undefined")
    lhs = endomorphism_apply(point, d1)
    rhs = d1.scale(-i2b / i1) + d2.scale(-i2a / i1)
    scale = max(max(magnitude(c) for c in lhs.coeffs), 1e-30)
    return max(magnitude(a - b) for a, b in zip(lhs.coeffs, rhs.coeffs)) / scale
