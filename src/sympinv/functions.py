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


def radial_value(point):
    """I1 = sum x_i u_{x_i} + y_i u_{y_i} (contraction of du with the radial field)."""
    coords = _coordinate_jets(point)
    du = _u_partials(point)
    acc = None
    for c, d in zip(coords, du):
        term = c * d
        acc = term if acc is None else acc + term
    return acc


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
    acc = None
    for i, a in enumerate(d1.coeffs):
        for j, b in enumerate(d2.coeffs):
            term = q2[i][j] * a * b
            acc = term if acc is None else acc + term
    return acc


def qk_form(point, derivations_tuple):
    """Contraction Q_k(nabla_{j_1},...,nabla_{j_k}) of the k-th symmetric
    differential of u with the coefficient vectors of the derivations."""
    u = point.jets["u"]
    p = point.chart.n_independent

    def rec(jet, remaining):
        if not remaining:
            return jet
        d = remaining[0]
        acc = None
        for i in range(p):
            term = rec(jet.partial(i), remaining[1:]) * d.coeffs[i]
            acc = term if acc is None else acc + term
        return acc

    return rec(u, list(derivations_tuple))


def endomorphism_apply(point, derivation):
    """A(nabla) for A = omega^{-1} Q2, in the orientation fixed by the n=1
    coordinate formulas (A nabla_2 expands with +I2c/I1 on nabla_1)."""
    q2 = q2_matrix(point)
    space = point.chart.space
    j = space.omega_matrix()
    p = point.chart.n_independent
    w = derivation.coeffs
    # (Q2 w)_a then raise with J: out = J . (Q2 w)
    q2w = []
    for a in range(p):
        acc = None
        for b in range(p):
            term = q2[a][b] * w[b]
            acc = term if acc is None else acc + term
        q2w.append(acc)
    out = []
    for a in range(p):
        acc = None
        for b in range(p):
            if j[a, b] == 0.0:
                continue
            term = q2w[b] * j[a, b]
            acc = term if acc is None else acc + term
        out.append(acc if acc is not None else q2w[0] * 0.0)
    return Derivation(tuple(out))


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


def syzygy_residuals_n1(point):
    """Normalized residuals of the three relations tying the n=1 generators."""
    inv = invariants_n1(point)
    d = derivations_n1(point)
    d1, d2 = d["d1"], d["d2"]
    i0, i1 = inv["I0"], inv["I1"]
    i2a, i2b, i2c = inv["I2a"], inv["I2b"], inv["I2c"]

    r1 = d2(i0).value()
    r1_scale = max(magnitude(t) for t in (d2.coeffs[0] * i0.partial(0),
                                          d2.coeffs[1] * i0.partial(1)))

    comm = d1.commutator(d2)
    target = d1.scale(i2b / i1) + d2.scale((i2a - i1) / i1)
    r2 = max(magnitude(a - b) for a, b in zip(comm.coeffs, target.coeffs))
    r2_scale = max(max(magnitude(c) for c in comm.coeffs),
                   max(magnitude(c) for c in target.coeffs), 1e-30)

    terms = [d2(i2b) * i1, d1(i2c) * i1, -(3 * i2a - i1) * i2c, 3 * i2b * i2b]
    total = terms[0] + terms[1] + terms[2] + terms[3]
    r3 = magnitude(total)
    r3_scale = max(max(magnitude(t) for t in terms), 1e-30)

    return {
        "R1": abs(r1) / max(r1_scale, 1e-30),
        "R2": r2 / r2_scale,
        "R3": r3 / r3_scale,
    }


def exact_syzygies_n1(point):
    """Exact-mode syzygy values (must be exactly zero on rational jets)."""
    inv = invariants_n1(point)
    d = derivations_n1(point)
    d1, d2 = d["d1"], d["d2"]
    i1 = inv["I1"]
    i2a, i2b, i2c = inv["I2a"], inv["I2b"], inv["I2c"]
    r1 = d2(inv["I0"]).value()
    comm = d1.commutator(d2)
    target = d1.scale(i2b) + d2.scale(i2a - i1)
    r2 = [(c * i1 - t).value() for c, t in zip(comm.coeffs, target.coeffs)]
    r3 = ((d2(i2b) + d1(i2c)) * i1 - (3 * i2a - i1) * i2c + 3 * i2b * i2b).value()
    return [r1] + r2 + [r3]


# --- general n ----------------------------------------------------------------

def derivations_general(point):
    """nabla_1, nabla_2 and the endomorphism-generated nabla_{i+2} = A^i nabla_2."""
    n = point.chart.space.n
    out = [radial_derivation(point), gradient_derivation(point)]
    cur = out[1]
    for _ in range(2 * n - 2):
        cur = endomorphism_apply(point, cur)
        out.append(cur)
    mat = np.array([[float(_const_of(c)) for c in d.coeffs] for d in out])
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv[-1] <= 1e-9 * max(sv[0], 1e-300):
        raise FrameDegeneracy(
            f"derivation frame rank-deficient (relative sv {sv[-1]/max(sv[0],1e-300):.2e})")
    return out


def _const_of(jet):
    c = jet.value() if hasattr(jet, "value") else jet
    return getattr(c, "re", c)


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


def generator_independence(point, fd_step=1e-6):
    """Measured independence of the listed general-n generators.

    The relations among the generators are not pinned down in closed form for
    n > 1, so we report the numeric count: (number of listed generators,
    their Jacobian rank over the jet fiber through second order).  Rank equal
    to the count means no relation at this order.
    """
    gens, _ = generators_general(point)
    names = list(gens.keys())

    def evaluate(q):
        g, _ = generators_general(q)
        return [float(_const_of(g[k])) for k in names]

    rows = []
    for name, sigma in point.fiber_coordinates(min_order=0, max_order=2):
        up = evaluate(point.perturb(name, sigma, fd_step))
        dn = evaluate(point.perturb(name, sigma, -fd_step))
        rows.append([(a - b) / (2 * fd_step) for a, b in zip(up, dn)])
    mat = np.asarray(rows).T
    scale = np.max(np.abs(mat), axis=1, keepdims=True)
    scale[scale == 0] = 1.0
    sv = np.linalg.svd(mat / scale, compute_uv=False)
    rank = int(np.sum(sv > 1e-6 * sv[0]))
    return len(names), rank


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
