"""Invariants of hypersurfaces u = u(x_1..x_{2n-1}) in symplectic R^(2n).

The canonical tangent frame v_1..v_{2n-1} is produced by alternating
normalizations against the symplectic form and the normalized second
differential Q of a defining function; only linear algebra over jet scalars is
involved (no square roots).  The Gram matrix of Q in the frame is forced into
2x2 blocks [[I, 1], [1, I]] plus a final 1x1 block, whose diagonal entries are
the second-order generators.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateJet, StepDegenerate
from .geometry import Derivation
from .jetlinalg import _PivotFailure, is_negligible, kernel_vector, magnitude, solve
from .jets import _const_float, _one_like, _sum, divide_all


class HyperFrame:
    __slots__ = ("vectors", "delta", "invariants", "point", "_q_form", "_omega_t", "_du")

    def __init__(self, vectors, delta, invariants, point):
        self.vectors = vectors  # tangent-coefficient lists, index 1..2n-1 (0 unused)
        self.delta = delta
        self.invariants = invariants
        self.point = point


def _data(point):
    p = point.chart.n_independent
    u = point.jets["u"]
    coords = point.independent_jets()
    du = [u.partial(i) for i in range(p)]
    hess = [[du[i].partial(j) for j in range(p)] for i in range(p)]
    return u, coords, du, hess


def normalization_denominator(point):
    """delta = dq(v0) = sum x_a u_a - u for the defining function q = -u + u(x)."""
    u, coords, du, _ = _data(point)
    return _sum(c * d for c, d in zip(coords, du)) - u


def _embed(w, du):
    """Ambient components of a tangent vector given in the D_a basis."""
    return list(w) + [_sum(coeff * du[a] for a, coeff in enumerate(w))]


def canonical_frame(point):
    """Run the alternating normalization; returns a HyperFrame."""
    chart = point.chart
    space = chart.space
    n = space.n
    p = 2 * n - 1
    u, coords, du, hess = _data(point)
    delta = normalization_denominator(point)
    if is_negligible(delta):
        raise DegenerateJet("dq(v0) vanishes")

    inv_delta = 1 / delta

    def h_apply(w):
        """H w: computed once per vector, it leaves p products per Q value."""
        return [_sum(h * x for h, x in zip(row, w)) for row in hess]

    def q_with(w1, hw2):
        """Q(w1, w2) = w1 . H w2 / delta, given hw2 = H w2."""
        return _sum(x * y for x, y in zip(w1, hw2)) * inv_delta

    def q_form(w1, w2):
        return q_with(w1, h_apply(w2))

    def omega_t(w1, w2):
        return space.omega(_embed(w1, du), _embed(w2, du))

    v0_amb = [None] * space.dim
    for pos, idx in enumerate(chart.independent):
        v0_amb[idx] = coords[pos]
    v0_amb[space.index(chart.dependent[0])] = u

    def omega_with_v0(w):
        return space.omega(v0_amb, _embed(w, du))

    one = _one_like(u.value())
    zero = one * 0
    working = [[one if j == i else zero for j in range(p)] for i in range(p)]
    v = [None] * (p + 1)
    prev_even = None  # v_{2r-2}; None encodes v0
    step = 1
    while working:
        d = len(working)
        # odd step: v_step spans the kernel of omega restricted to the space
        if d == 1:
            raw = list(working[0])
        else:
            m = [[omega_t(wi, wj) for wj in working] for wi in working]
            try:
                c = kernel_vector(m)
            except _PivotFailure as err:
                raise StepDegenerate(step, str(err)) from None
            raw = _combine(c, working)
        pairing = omega_with_v0(raw) if prev_even is None else omega_t(prev_even, raw)
        if is_negligible(pairing):
            raise StepDegenerate(step, "normalizing pairing vanishes")
        v[step] = divide_all(raw, pairing)
        # cut the working space by the previous even vector (v0 at the start)
        if d == 1:
            break
        rho = [omega_with_v0(w) if prev_even is None else omega_t(prev_even, w)
               for w in working]
        working = _reduce_space(working, rho, step)
        step += 1
        # even step: v_step is the Q-dual partner of v_{step-1}
        h_working = [h_apply(w) for w in working]
        rho_q = [q_with(v[step - 1], hw) for hw in h_working]
        nxt = _reduce_space(working, rho_q, step)
        rows = [[q_with(w_next, hw) for hw in h_working] for w_next in nxt]
        rows.append(rho_q)
        rhs = [zero] * len(nxt) + [one]
        try:
            coeffs = solve(rows, rhs)
        except _PivotFailure as err:
            raise StepDegenerate(step, str(err)) from None
        v[step] = _combine(coeffs, working)
        working = nxt
        step += 1
        prev_even = v[step - 1]

    invariants = {}
    for i in range(1, p + 1):
        invariants[f"I2_{i}"] = q_form(v[i], v[i])
    fr = HyperFrame(v, delta, invariants, point)
    fr._q_form = q_form  # used by gram_matrix / tests
    fr._omega_t = omega_t
    fr._du = du
    return fr


def _combine(coeffs, basis):
    terms = [[c * x for x in w] for c, w in zip(coeffs, basis)]
    return [_sum(col) for col in zip(*terms)]


def _reduce_space(working, rho, step):
    """Sub-basis of {w : rho(w) = 0} via the largest-pivot reduction."""
    mags = [magnitude(r) for r in rho]
    piv = int(np.argmax(mags))
    if is_negligible(rho[piv], max(mags)):
        raise StepDegenerate(step, "cutting functional vanishes on the working space")
    rest = [i for i in range(len(working)) if i != piv]
    factors = divide_all([rho[i] for i in rest], rho[piv])
    return [[a - f * b for a, b in zip(working[i], working[piv])]
            for i, f in zip(rest, factors)]


def derivations(frame):
    """Invariant derivations: the frame vectors as horizontal fields."""
    return [Derivation(tuple(vec)) for vec in frame.vectors[1:]]


def gram_matrix_values(frame):
    p = len(frame.vectors) - 1
    q = frame._q_form
    return np.array([[_const_float(q(frame.vectors[i], frame.vectors[j]))
                      for j in range(1, p + 1)] for i in range(1, p + 1)])


def expected_gram_pattern(frame):
    """Zero/one mask of the Gram matrix (diagonal slots returned as the
    computed invariants)."""
    p = len(frame.vectors) - 1
    out = np.zeros((p, p))
    for i in range(1, p + 1):
        out[i - 1, i - 1] = _const_float(frame.invariants[f"I2_{i}"])
    r = 1
    while 2 * r <= p:
        out[2 * r - 2, 2 * r - 1] = 1.0
        out[2 * r - 1, 2 * r - 2] = 1.0
        r += 1
    return out


def omega_identity_defect(frame):
    """|| sum v_{2r} ^ v_{2r+1} + J^{-1} ||_max for the pairs (v0,v1),(v2,v3),..."""
    point = frame.point
    space = point.chart.space
    du = frame._du
    amb = [np.array([_const_float(c) for c in _ambient(point, frame, 0)])]
    for i in range(1, len(frame.vectors)):
        amb.append(np.array([_const_float(c) for c in _embed(frame.vectors[i], du)]))
    dim = space.dim
    biv = np.zeros((dim, dim))
    r = 0
    while 2 * r + 1 < len(amb):
        a, b = amb[2 * r], amb[2 * r + 1]
        biv += np.outer(a, b) - np.outer(b, a)
        r += 1
    jinv = np.linalg.inv(space.omega_matrix())
    return float(np.max(np.abs(biv + jinv)))


def _ambient(point, frame, index):
    if index == 0:
        chart = point.chart
        space = chart.space
        coords = point.independent_jets()
        out = [None] * space.dim
        for pos, idx in enumerate(chart.independent):
            out[idx] = coords[pos]
        out[space.index(chart.dependent[0])] = point.jets["u"]
        return out
    return _embed(frame.vectors[index], frame._du)


def invariants_r4(point):
    """n = 2 generators {I2a, I2b, I2c} and derivations {d1, d2, d3}."""
    if point.chart.space.n != 2:
        raise ValueError("invariants_r4 requires n = 2")
    fr = canonical_frame(point)
    gens = {"I2a": fr.invariants["I2_1"], "I2b": fr.invariants["I2_2"],
            "I2c": fr.invariants["I2_3"]}
    return gens, derivations(fr), fr


def printed_formula_i2a(point):
    """Coordinate expression of the first invariant on R^4 (cross-check)."""
    u, coords, du, hess = _data(point)
    ux, uy, uz = du
    uxx = hess[0][0]
    uxy = hess[0][1]
    uxz = hess[0][2]
    uyy = hess[1][1]
    uyz = hess[1][2]
    uzz = hess[2][2]
    num = (ux * ux * uzz - 2 * ux * uz * uxz + uz * uz * uxx
           + 2 * ux * uyz - 2 * uz * uxy + uyy)
    delta = normalization_denominator(point)
    return num / delta**3


def rescale_residual(point, f_value, f_gradient):
    """Residual of the defining-function rescaling identity.

    For q' = f q the normalized second differential restricted to the tangent
    space must be unchanged; f is specified by its value and gradient at the
    basepoint (higher f-jets cannot enter since q = 0 on the hypersurface).
    """
    p = point.chart.n_independent
    u, coords, du, hess = _data(point)
    delta = normalization_denominator(point)
    # dq in ambient coordinates: (u_a, -1); tangent basis D_a has dq(D_a) = 0
    dq = [du[a] for a in range(p)] + [-1.0]
    fg = list(f_gradient)
    q_mat = np.zeros((p, p))
    qp_mat = np.zeros((p, p))
    for a in range(p):
        for b in range(p):
            base = _const_float(hess[a][b])
            q_mat[a, b] = base / _const_float(delta)
            # tangent vectors D_a have ambient components e_a + u_a e_u
            dq_a = _const_float(dq[a]) + _const_float(du[a]) * dq[p]
            dq_b = _const_float(dq[b]) + _const_float(du[b]) * dq[p]
            df_a = fg[a] + _const_float(du[a]) * fg[p]
            df_b = fg[b] + _const_float(du[b]) * fg[p]
            num = f_value * base + df_a * dq_b + df_b * dq_a
            qp_mat[a, b] = num / (f_value * _const_float(delta))
    scale = max(np.max(np.abs(q_mat)), 1e-30)
    return float(np.max(np.abs(q_mat - qp_mat))) / scale
