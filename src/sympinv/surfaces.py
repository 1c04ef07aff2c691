"""Invariants of 2-dimensional surfaces x = x(t,s), y = y(t,s) in symplectic R^4.

The position vector splits against the symplectic tangent/normal decomposition;
a canonical pair of quadratic forms Q1, Q2 on the tangent plane (equivalently
one-forms sigma_1, sigma_2 annihilating it) is fixed by null-vector
normalizations that involve only linear algebra.  Four second-order invariants
and two derivations generate the algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateQ1, LagrangianTangent, SigmaDegenerate
from .geometry import Derivation
from .jetlinalg import _PivotFailure, is_negligible, magnitude, nullspace_basis, solve
from .jets import _const_float, _decide, _max, _sum


@dataclass(frozen=True)
class SurfaceFrame:
    v0_par: tuple  # tangent components over (D_t, D_s)
    v0_perp: tuple  # ambient components
    w_par: tuple  # tangent components
    w_perp: tuple  # ambient components
    q1: tuple  # 2x2 matrix over the tangent basis
    q2: tuple
    sigma1: tuple  # ambient covector
    sigma2: tuple
    invariants: dict
    derivations: tuple


def _surface_data(point):
    x = point.jets["x"]
    y = point.jets["y"]
    xt, xs = x.partial(0), x.partial(1)
    yt, ys = y.partial(0), y.partial(1)
    hx = [[xt.partial(0), xt.partial(1)], [xs.partial(0), xs.partial(1)]]
    hy = [[yt.partial(0), yt.partial(1)], [ys.partial(0), ys.partial(1)]]
    return x, y, (xt, xs), (yt, ys), hx, hy


def _tangent_ambient(point, comps):
    """Ambient components of a tangent vector given over (D_t, D_s)."""
    _, _, (xt, xs), (yt, ys), _, _ = _surface_data(point)
    a, b = comps
    return [a, b, a * xt + b * xs, a * yt + b * ys]


def split_tangent(point):
    """v0 = v0_par + v0_perp against the symplectic decomposition.

    Returns (tangent components of v0_par, ambient v0_perp, perp basis).
    """
    space = point.chart.space
    x, y, (xt, xs), (yt, ys), _, _ = _surface_data(point)
    d_t = [1 + 0 * xt, 0 * xt, xt, yt]
    d_s = [0 * xt, 1 + 0 * xt, xs, ys]
    pairing = space.omega(d_t, d_s)
    if is_negligible(pairing):
        raise LagrangianTangent("omega restricted to the tangent plane vanishes")
    j = space.omega_matrix()
    rows = []
    for dvec in (d_t, d_s):
        rows.append([space.omega(dvec, _unit(point, k)) for k in range(4)])
    try:
        perp_basis = nullspace_basis(rows, 4)
    except _PivotFailure as err:
        raise LagrangianTangent(str(err)) from None
    coords = point.space_coordinate_jets()
    v0 = list(coords)
    cols = [d_t, d_s] + perp_basis
    mat = [[cols[c][k] for c in range(4)] for k in range(4)]
    try:
        coeffs = solve(mat, v0)
    except _PivotFailure as err:
        raise LagrangianTangent(f"split system singular: {err}") from None
    v0_par = (coeffs[0], coeffs[1])
    v0_perp = [coeffs[2] * a + coeffs[3] * b for a, b in zip(perp_basis[0], perp_basis[1])]
    return v0_par, v0_perp, perp_basis


def _unit(point, k):
    base = 0 * point.jets["x"]
    out = [base, base, base, base]
    out[k] = base + 1
    return out


def frame(point):
    """The full second-order frame and the four invariants."""
    space = point.chart.space
    x, y, dx1, dy1, hx, hy = _surface_data(point)
    v0_par, v0_perp, perp_basis = split_tangent(point)

    # quadratic forms of the defining pair f = x - x(t,s), g = y - y(t,s)
    qf = [[-hx[a][b] for b in range(2)] for a in range(2)]
    qg = [[-hy[a][b] for b in range(2)] for a in range(2)]
    df = [-dx1[0], -dx1[1], 1 + 0 * x, 0 * x]
    dg = [-dy1[0], -dy1[1], 0 * x, 1 + 0 * x]

    def apply_q(q, u, v):
        return (q[0][0] * u[0] * v[0] + q[0][1] * u[0] * v[1]
                + q[1][0] * u[1] * v[0] + q[1][1] * u[1] * v[1])

    qf_v0 = apply_q(qf, v0_par, v0_par)
    qg_v0 = apply_q(qg, v0_par, v0_par)
    scale = _max((magnitude(qf_v0), magnitude(qg_v0)))
    if is_negligible(qf_v0, scale) and is_negligible(qg_v0, scale):
        raise DegenerateQ1("null condition vanishes identically: Q1 not unique")
    alpha, beta = -qg_v0, qf_v0

    def q1_apply(u, v):
        return alpha * apply_q(qf, u, v) + beta * apply_q(qg, u, v)

    # second null direction: w0 with omega(v0_par, w0) = 1, then shift
    d_t_amb = _tangent_ambient(point, (1 + 0 * x, 0 * x))
    d_s_amb = _tangent_ambient(point, (0 * x, 1 + 0 * x))
    v0_par_amb = _tangent_ambient(point, v0_par)
    om_t = space.omega(v0_par_amb, d_t_amb)
    om_s = space.omega(v0_par_amb, d_s_amb)
    if _decide(magnitude(om_t) >= magnitude(om_s)):
        if is_negligible(om_t):
            raise DegenerateQ1("position tangent part vanishes")
        w0 = (1 / om_t, 0 * x)
    else:
        w0 = (0 * x, 1 / om_s)
    q1_cross = q1_apply(v0_par, w0)
    if is_negligible(q1_cross, _max((magnitude(q1_apply(w0, w0)), 1.0))):
        raise DegenerateQ1("degenerate null normalization: Q1(v0_par, w0) = 0")
    k_shift = -q1_apply(w0, w0) / (2 * q1_cross)
    w_par = (w0[0] + k_shift * v0_par[0], w0[1] + k_shift * v0_par[1])
    # normalize the form so Q1(v0_par, w_par) = 1
    c = q1_apply(v0_par, w_par)
    alpha = alpha / c
    beta = beta / c
    q1 = [[alpha * qf[a][b] + beta * qg[a][b] for b in range(2)] for a in range(2)]
    sigma1 = [alpha * df[k] + beta * dg[k] for k in range(4)]

    def pair(cov, vec):
        return cov[0] * vec[0] + cov[1] * vec[1] + cov[2] * vec[2] + cov[3] * vec[3]

    i2a = pair(sigma1, v0_perp)
    if is_negligible(i2a, _max((magnitude(pair(sigma1, perp_basis[0])),
                                magnitude(pair(sigma1, perp_basis[1])), 1e-30))):
        raise SigmaDegenerate("sigma_1(v0_perp) vanishes")

    # w_perp: sigma1(w) = 0, omega(v0_perp, w) = 1 within the perp plane
    rows = [[pair(sigma1, perp_basis[0]), pair(sigma1, perp_basis[1])],
            [space.omega(v0_perp, perp_basis[0]), space.omega(v0_perp, perp_basis[1])]]
    try:
        cw = solve(rows, [0 * x, 1 + 0 * x])
    except _PivotFailure as err:
        raise SigmaDegenerate(f"transverse normalization failed: {err}") from None
    w_perp = [cw[0] * a + cw[1] * b for a, b in zip(perp_basis[0], perp_basis[1])]

    # sigma2: sigma2(v0_perp) = 0, sigma2(w_perp) = 1
    rows = [[pair(df, v0_perp), pair(dg, v0_perp)],
            [pair(df, w_perp), pair(dg, w_perp)]]
    try:
        a2b2 = solve(rows, [0 * x, 1 + 0 * x])
    except _PivotFailure as err:
        raise SigmaDegenerate(f"second annihilator form failed: {err}") from None
    alpha2, beta2 = a2b2
    sigma2 = [alpha2 * df[k] + beta2 * dg[k] for k in range(4)]
    q2 = [[alpha2 * qf[a][b] + beta2 * qg[a][b] for b in range(2)] for a in range(2)]

    def q2_apply(u, v):
        return (q2[0][0] * u[0] * v[0] + q2[0][1] * u[0] * v[1]
                + q2[1][0] * u[1] * v[0] + q2[1][1] * u[1] * v[1])

    invariants = {
        "I2a": i2a,
        "I2b": q2_apply(v0_par, v0_par),
        "I2c": q2_apply(v0_par, w_par),
        "I2d": q2_apply(w_par, w_par),
    }
    ders = (Derivation(tuple(v0_par)), Derivation(tuple(w_par)))
    return SurfaceFrame(tuple(v0_par), tuple(v0_perp), tuple(w_par), tuple(w_perp),
                        tuple(tuple(r) for r in q1), tuple(tuple(r) for r in q2),
                        tuple(sigma1), tuple(sigma2), invariants, ders)


def invariants(point):
    fr = frame(point)
    return fr.invariants, fr.derivations, fr


def frame_constraint_values(point):
    """The eight imposed normalizations: (0,1,0,1, 0,1,0,1) expected."""
    space = point.chart.space
    fr = frame(point)

    def apply_q(q, u, v):
        return (q[0][0] * u[0] * v[0] + q[0][1] * u[0] * v[1]
                + q[1][0] * u[1] * v[0] + q[1][1] * u[1] * v[1])

    def pair(cov, vec):
        return _sum(cov[k] * vec[k] for k in range(4))

    v0a = _tangent_ambient(point, fr.v0_par)
    wa = _tangent_ambient(point, fr.w_par)
    vals = [
        apply_q(fr.q1, fr.v0_par, fr.v0_par),
        space.omega(v0a, wa),
        apply_q(fr.q1, fr.w_par, fr.w_par),
        apply_q(fr.q1, fr.v0_par, fr.w_par),
        pair(fr.sigma1, fr.w_perp),
        space.omega(fr.v0_perp, fr.w_perp),
        pair(fr.sigma2, fr.v0_perp),
        pair(fr.sigma2, fr.w_perp),
    ]
    return [_const_float(v) for v in vals]
