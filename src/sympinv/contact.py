"""Invariants on the contact space R^3 for curves, surfaces and functions.

The linear symplectic action on the (x, y) plane lifts to contact
transformations fixing the conformal class of dz - y dx; the function
2z - xy generates the base invariant.  Scaled ("primed") combinations of the
plain invariants descend to the conformally extended lift.
"""

from __future__ import annotations

from .errors import DegenerateJet, OnZeroLevelSet
from .geometry import Derivation
from .jetlinalg import is_negligible, magnitude


# ---------------------------------------------------------------------------
# curves y = y(x), z = z(x)
# ---------------------------------------------------------------------------

def curve_invariants(point):
    """Plain and scaled generator sets for contact curves.

    Returns (plain, scaled, derivations): plain = {I0, I1raw, I2a, I2braw},
    scaled = {I1, I2ap, I2bp} in the simplified display normalization,
    derivations = {d: (xy1-y)^-1 D_x, dp: I0 * d}.
    """
    x = point.independent_jets()[0]
    y = point.jets["y"]
    z = point.jets["z"]
    y1 = y.partial(0)
    z1 = z.partial(0)
    denom = x * y1 - y
    if is_negligible(denom):
        raise DegenerateJet("x y1 - y vanishes")
    i0 = 2 * z - x * y
    d = Derivation((1 / denom,))
    i2a = y.partial(0).partial(0) / denom**3
    i1_raw = d(i0)
    i2b_raw = d(i1_raw)
    plain = {"I0": i0, "I1raw": i1_raw, "I2a": i2a, "I2braw": i2b_raw}

    if is_negligible(i0):
        raise OnZeroLevelSet("2z - xy vanishes; scaled generators undefined")
    scaled = {
        "I1": (z1 - y) / denom,
        "I2ap": i0 * i0 * i2a,
        "I2bp": i0 * i2b_raw / 2,
    }
    ders = {"d": d, "dp": d.scale(i0)}
    return plain, scaled, ders


def curve_i2bp_display(point):
    """Coordinate form of the scaled second invariant (crosscheck)."""
    x = point.independent_jets()[0]
    y = point.jets["y"]
    z = point.jets["z"]
    y1, y2 = y.partial(0), y.partial(0).partial(0)
    z1, z2 = z.partial(0), z.partial(0).partial(0)
    denom = x * y1 - y
    i0 = 2 * z - x * y
    return i0 / denom**3 * (x * (y - z1) * y2 - denom * (y1 - z2))


# ---------------------------------------------------------------------------
# surfaces z = z(x, y)
# ---------------------------------------------------------------------------

def surface_plain_invariants(point):
    """The unscaled invariants and derivations of the lifted action."""
    x, y = point.independent_jets()
    z = point.jets["z"]
    zx, zy = z.partial(0), z.partial(1)
    zxx, zxy = zx.partial(0), zx.partial(1)
    zyy = zy.partial(1)
    inv = {
        "I0": 2 * z - x * y,
        "I1": x * zx + y * zy - x * y,
        "I2a": x * x * zxx + 2 * x * y * zxy + y * y * zyy - x * y,
        "I2b": (x * (zy - x) * zxx - y * zx * zyy
                + (y * (zy - x) - x * zx) * zxy + x * zx),
        "I2c": (zx * zx * zyy - 2 * zx * (zy - x) * zxy
                + (zy - x) * (zy - x) * zxx + zx * (zy - x)),
    }
    ders = {
        "d1": Derivation((x, y)),
        "d2": Derivation((x - 2 * zy, 2 * zx - y)),
    }
    return inv, ders


def surface_invariants(point):
    """Scaled generators {I1p, I2cp} (plus reducible I2ap, I2bp) and d1, d2."""
    inv, ders = surface_plain_invariants(point)
    i0 = inv["I0"]
    if is_negligible(i0):
        raise OnZeroLevelSet("2z - xy vanishes")
    scaled = {
        "I1p": inv["I1"] / i0,
        "I2ap": inv["I2a"] / i0,
        "I2bp": inv["I2b"] / i0,
        "I2cp": inv["I2c"] / i0,
    }
    return scaled, ders


def surface_reduction_residuals(point):
    """Residuals of the two reduction identities for I2ap and I2bp."""
    scaled, ders = surface_invariants(point)
    d1, d2 = ders["d1"], ders["d2"]
    i1p = scaled["I1p"]
    t_a = [d1(i1p), 2 * i1p * i1p, -i1p, -scaled["I2ap"]]
    tot_a = t_a[0] + t_a[1] + t_a[2] + t_a[3]
    res_a = magnitude(tot_a) / max(max(magnitude(t) for t in t_a), 1e-30)
    t_b = [d1(i1p) * (-0.5), d2(i1p) * (-0.5), -i1p * i1p, i1p, -scaled["I2bp"]]
    tot_b = t_b[0] + t_b[1] + t_b[2] + t_b[3] + t_b[4]
    res_b = magnitude(tot_b) / max(max(magnitude(t) for t in t_b), 1e-30)
    return {"I2ap": res_a, "I2bp": res_b}


def surface_syzygy_residuals(point):
    """R1 (commutator) and R2 (second-order relation) residuals."""
    scaled, ders = surface_invariants(point)
    d1, d2 = ders["d1"], ders["d2"]
    i1p, i2cp = scaled["I1p"], scaled["I2cp"]

    comm = d1.commutator(d2)
    corr = d1.scale(d2(i1p) / i1p) - d2.scale(d1(i1p) / i1p + 2 * (i1p - 1))
    lhs = comm + corr
    scale = max(max(magnitude(c) for c in comm.coeffs),
                max(magnitude(c) for c in corr.coeffs), 1e-30)
    r1 = max(magnitude(c) for c in lhs.coeffs) / scale

    a = d1(i1p)
    b = d2(i1p)
    terms = [
        d1(d1(i1p)),
        2 * d1(d2(i1p)),
        d2(d2(i1p)),
        -4 * d1(i2cp),
        -(a * a + 2 * a * b - 4 * a * i2cp + b * b) * 3 / i1p,
        -2 * (i1p - 1) * (3 * a + 4 * b - 8 * i2cp),
        -4 * i1p * (i1p - 1) * (2 * i1p - 1),
    ]
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    r2 = magnitude(total) / max(max(magnitude(t) for t in terms), 1e-30)
    return {"R1": r1, "R2": r2}


def surface_exact_syzygies(point):
    """Exact-mode values of the reduction and syzygy combinations."""
    scaled, ders = surface_invariants(point)
    d1, d2 = ders["d1"], ders["d2"]
    i1p, i2cp = scaled["I1p"], scaled["I2cp"]
    out = []
    out.append((d1(i1p) + 2 * i1p * i1p - i1p - scaled["I2ap"]).value())
    red_b = (d1(i1p) + d2(i1p)) * (-1) - 2 * i1p * i1p + 2 * i1p - 2 * scaled["I2bp"]
    out.append((red_b / 2).value())
    comm = d1.commutator(d2)
    corr = d1.scale(d2(i1p)) - d2.scale(d1(i1p) + 2 * (i1p - 1) * i1p)
    for c_comm, c_corr in zip(comm.coeffs, corr.coeffs):
        out.append((c_comm * i1p + c_corr).value())
    a = d1(i1p)
    b = d2(i1p)
    r2 = (d1(d1(i1p)) + 2 * d1(d2(i1p)) + d2(d2(i1p)) - 4 * d1(i2cp)) * i1p \
        - 3 * (a * a + 2 * a * b - 4 * a * i2cp + b * b) \
        - (2 * (i1p - 1) * (3 * a + 4 * b - 8 * i2cp) + 4 * i1p * (i1p - 1) * (2 * i1p - 1)) * i1p
    out.append(r2.value())
    return out


# ---------------------------------------------------------------------------
# functions u = u(x, y, z)
# ---------------------------------------------------------------------------

def _function_data(point):
    x, y, z = point.independent_jets()
    u = point.jets["u"]
    u1, u2, u3 = (u.partial(i) for i in range(3))
    u11, u12, u13 = u1.partial(0), u1.partial(1), u1.partial(2)
    u22, u23 = u2.partial(1), u2.partial(2)
    u33 = u3.partial(2)
    return x, y, z, u, (u1, u2, u3), (u11, u12, u13, u22, u23, u33)


def function_derivations(point):
    x, y, z, u, (u1, u2, u3), _ = _function_data(point)
    w = x * y - 2 * z
    return {
        "d1": Derivation((x, y, 2 * z)),
        "d2": Derivation((x * 0, x * 0, w)),
        "d3": Derivation(((x * u3 + u2) * w, -u1 * w, -x * u1 * w)),
    }


def function_invariants(point):
    """Zero/first/second-order invariants of the conformally lifted action."""
    x, y, z, u, (u1, u2, u3), (u11, u12, u13, u22, u23, u33) = _function_data(point)
    w = x * y - 2 * z
    if is_negligible(w):
        raise DegenerateJet("xy - 2z vanishes")
    inv = {"I0": u, "I1a": w * u3, "I1b": x * u1 + y * (u2 + x * u3)}
    inv["I2a"] = (y * y * u22 + y * (4 * z * u23 + 2 * x * u12 + u2)
                  + 4 * z * z * u33 + z * (4 * x * u13 + 4 * u3)
                  + x * (x * u11 + u1))
    inv["I2b"] = w * (y * u23 + 2 * z * u33 + x * u13 + 2 * u3)
    inv["I2c"] = -w * (x * x * (u1 * u13 - u3 * u11)
                       + x * (u1 * (y * u23 + 2 * z * u33 + u3 + u12)
                              - y * u3 * u12 - 2 * z * u3 * u13 - u2 * u11)
                       + u1 * (y * u22 + 2 * z * u23)
                       - u2 * (y * u12 + 2 * z * u13))
    inv["I2d"] = w * (-2 * u3 + w * u33)
    inv["I2e"] = -w * (x * x * y * (u1 * u33 - u3 * u13)
                       + x * (y * (u1 * u23 - u3 * u3 - u2 * u13)
                              + u1 * (-2 * z * u33 - u3) + 2 * z * u3 * u13)
                       - y * u2 * u3 - 2 * z * (u1 * u23 - u2 * u13))
    inv["I2f"] = _i2f_table(x, y, z, (u1, u2, u3), (u11, u12, u13, u22, u23, u33))
    return inv


def _i2f_table(x, y, z, firsts, seconds):
    """Verbatim transcription of the order-2 moving-frame invariant."""
    u1, u2, u3 = firsts
    u11, u12, u13, u22, u23, u33 = seconds
    x2 = x * x
    x3 = x2 * x
    x4 = x3 * x
    y2 = y * y
    z2 = z * z
    return (
        x4 * y2 * u1 * u1 * u33
        - 2 * x4 * y2 * u1 * u3 * u13
        + x4 * y2 * u3 * u3 * u11
        + 2 * x3 * y2 * u1 * u1 * u23
        - x3 * y2 * u1 * u3 * u3
        - 2 * x3 * y2 * u1 * u3 * u12
        - 2 * x3 * y2 * u1 * u2 * u13
        + 2 * x3 * y2 * u2 * u3 * u11
        - 4 * x3 * y * z * u1 * u1 * u33
        + 8 * x3 * y * z * u1 * u3 * u13
        - 4 * x3 * y * z * u3 * u3 * u11
        + x2 * y2 * u1 * u1 * u22
        - x2 * y2 * u1 * u2 * u3
        - 2 * x2 * y2 * u1 * u2 * u12
        + x2 * y2 * u2 * u2 * u11
        - 8 * x2 * y * z * u1 * u1 * u23
        + 4 * x2 * y * z * u1 * u3 * u3
        + 8 * x2 * y * z * u1 * u3 * u12
        + 8 * x2 * y * z * u1 * u2 * u13
        - 8 * x2 * y * z * u2 * u3 * u11
        + 4 * x2 * z2 * u1 * u1 * u33
        - 8 * x2 * z2 * u1 * u3 * u13
        + 4 * x2 * z2 * u3 * u3 * u11
        - 4 * x * y * z * u1 * u1 * u22
        + 4 * x * y * z * u1 * u2 * u3
        + 8 * x * y * z * u1 * u2 * u12
        - 4 * x * y * z * u2 * u2 * u11
        + 8 * x * z2 * u1 * u1 * u23
        - 4 * x * z2 * u1 * u3 * u3
        - 8 * x * z2 * u1 * u3 * u12
        - 8 * x * z2 * u1 * u2 * u13
        + 8 * x * z2 * u2 * u3 * u11
        + 4 * z2 * u1 * u1 * u22
        - 4 * z2 * u1 * u2 * u3
        - 8 * z2 * u1 * u2 * u12
        + 4 * z2 * u2 * u2 * u11
    )


def function_syzygy_residuals(point):
    """Normalized residuals of the seven relations tying the generators.

    R3..R7 carry the prefactor I1b (recovered by exact-rational solving; see
    the commutator expansions in _syzygy_combinations).
    """
    inv = function_invariants(point)
    ders = function_derivations(point)
    d1, d2, d3 = ders["d1"], ders["d2"], ders["d3"]
    i1b = inv["I1b"]
    if is_negligible(inv["I1a"] + i1b) or is_negligible(i1b):
        raise DegenerateJet("first-order normalizers vanish; syzygy check fails")
    out = {}

    out["R1"] = magnitude(d3(inv["I0"])) / max(magnitude(d1(inv["I0"])),
                                               magnitude(d2(inv["I0"])), 1e-30)

    def derivation_residual(terms):
        total = None
        scale = 1e-30
        for der in terms:
            total = der if total is None else total + der
            scale = max(scale, max(magnitude(c) for c in der.coeffs))
        return max(magnitude(c) for c in total.coeffs) / scale

    def scalar_residual(terms):
        total = None
        for t in terms:
            total = t if total is None else total + t
        return magnitude(total) / max(max(magnitude(t) for t in terms), 1e-30)

    out["R2"] = derivation_residual([d1.commutator(d2)])
    derivation_rels, scalar_rels = _syzygy_combinations(inv, ders)
    for name, terms in derivation_rels.items():
        out[name] = derivation_residual(terms)
    for name, terms in scalar_rels.items():
        out[name] = scalar_residual(terms)
    return out


def _syzygy_combinations(inv, ders):
    """The R3..R7 combinations; each listed group sums to zero identically."""
    d1, d2, d3 = ders["d1"], ders["d2"], ders["d3"]
    i1a, i1b = inv["I1a"], inv["I1b"]
    i2a, i2b, i2c = inv["I2a"], inv["I2b"], inv["I2c"]
    i2d, i2e, i2f = inv["I2d"], inv["I2e"], inv["I2f"]
    derivation_rels = {
        "R3": [
            d1.commutator(d3).scale(i1b),
            (d1 + d2).scale(i2c),
            d3.scale(-(i2a + i2b)),
        ],
        "R4": [
            d2.commutator(d3).scale(i1b),
            d1.scale(-(i1a * i1b - i2e)),
            d2.scale(-(i1a * i1b - i1b * i1b - i2e)),
            d3.scale(-(i2b + i2d - 2 * i1b)),
        ],
    }
    scalar_rels = {
        "R5": [
            i1b * (d3(i2b) - d1(i2e)),
            -(i2c - i2e) * i2b,
            i2a * i2e,
            -i2c * i2d,
        ],
        "R6": [
            i1b * (d3(i2c) - d1(i2f)),
            -3 * i2c * i2c,
            -(i1b * (i1b - i1a) + 3 * i2e) * i2c,
            3 * i2f * (i2a + i2b),
        ],
        "R7": [
            i1b * (-d3(i2e) + d2(i2f)),
            i1a * i1a * i1b * i1b,
            -2 * i1a * i1b ** 3,
            -2 * i1a * i1b * i2c,
            -3 * i1a * i1b * i2e,
            3 * i1b * i1b * i2e,
            4 * i1b * i2f,
            -3 * i2f * (i2b + i2d),
            3 * i2c * i2e,
            3 * i2e * i2e,
        ],
    }
    return derivation_rels, scalar_rels


def function_exact_syzygies(point):
    """Exact-mode syzygy values (all must vanish on rational polynomial jets)."""
    inv = function_invariants(point)
    ders = function_derivations(point)
    vals = [ders["d3"](inv["I0"]).value()]
    for c in ders["d1"].commutator(ders["d2"]).coeffs:
        vals.append(c.value())
    derivation_rels, scalar_rels = _syzygy_combinations(inv, ders)
    for terms in derivation_rels.values():
        total = terms[0]
        for t in terms[1:]:
            total = total + t
        vals.extend(c.value() for c in total.coeffs)
    for terms in scalar_rels.values():
        total = terms[0]
        for t in terms[1:]:
            total = total + t
        vals.append(total.value() if hasattr(total, "value") else total)
    return vals
