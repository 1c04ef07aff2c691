"""Invariants for the conformal/affine extensions of the symplectic group.

Built on the plane (n = 1) generators by weight filtering under the homothety
and by elimination of the base point: weight-0 combinations descend to the
conformal group, base-free combinations to the affine one.  Curve generators
are rationalized (cube roots are confined to an internal crosscheck).
"""

from __future__ import annotations

from . import functions as fn
from .errors import WeightNormalizationSingular
from .geometry import Derivation
from .jetlinalg import is_negligible


def _require_n1(point):
    if point.chart.space.n != 1:
        raise ValueError("extended-group invariants are implemented for n = 1")


def _nonzero(x, label):
    if is_negligible(x):
        raise WeightNormalizationSingular(f"{label} vanishes at this jet")
    return x


# --- conformal group: functions ------------------------------------------------

def csp_function_invariants(point):
    """Weight-0 generators {I0, I1, I2a, I2bp} and derivations {d1, d2p}."""
    _require_n1(point)
    inv = fn.invariants_n1(point)
    i2b = _nonzero(inv["I2b"], "I2b")
    gens = {
        "I0": inv["I0"],
        "I1": inv["I1"],
        "I2a": inv["I2a"],
        "I2bp": inv["I2c"] / (i2b * i2b),
    }
    ders = {
        "d1": fn.radial_derivation(point),
        "d2p": fn.gradient_derivation(point).scale(1 / i2b),
    }
    return gens, ders


def csp_function_relations(point):
    """The four conformal-plane relations, each a list of terms that sums to
    zero identically."""
    gens, ders = csp_function_invariants(point)
    d1, d2p = ders["d1"], ders["d2p"]
    i0, i1, i2a, i2bp = gens["I0"], gens["I1"], gens["I2a"], gens["I2bp"]
    i3a = d1(i2a)
    i3b = d2p(i2a)
    i3c = d1(i2bp)
    return {
        "R1": d2p.summands(i0),
        "R2": [d2p(i1), 1],
        "R3": [d1.commutator(d2p), d1.scale(-1 / i1) - d2p.scale(i2a / i1 + i3b)],
        "R4": [
            d2p(i3a),
            d2p(i3b) / (2 * i2bp),
            -d1(i3c) / (2 * i2bp),
            -((i2bp * i3b - 3 * i3b * i3c - i3c) * i1 * i1
              + (((3 * i3b + 4) * i2a - 5 * i3a) * i2bp - 4 * i2a * i3c - 4 * i3b - 4) * i1
              + 6 * i2a * i2a * i2bp - 6 * i2a) / (2 * i1 * i1 * i2bp),
        ],
    }


# --- affine group: functions ----------------------------------------------------

def asp_function_invariants(point):
    """Translation-invariant generators {I0, I2p, I2c} and {d1p, d2}."""
    _require_n1(point)
    u = point.jets["u"]
    ux, uy = u.partial(0), u.partial(1)
    uxx, uxy = ux.partial(0), ux.partial(1)
    uyy = uy.partial(1)
    inv = fn.invariants_n1(point)
    gens = {
        "I0": inv["I0"],
        "I2p": uxx * uyy - uxy * uxy,
        "I2c": inv["I2c"],
    }
    d1p = Derivation((ux * uyy - uy * uxy, -(ux * uxy - uy * uxx)))
    ders = {"d1p": d1p, "d2": fn.gradient_derivation(point)}
    return gens, ders


def asp_function_relations(point):
    """The three affine-plane relations, each a list of terms that sums to zero
    identically."""
    gens, ders = asp_function_invariants(point)
    d1p, d2 = ders["d1p"], ders["d2"]
    i0, i2p, i2c = gens["I0"], gens["I2p"], gens["I2c"]
    _nonzero(i2c, "I2c")
    i3a = d1p(i2p)
    i3b = d2(i2p)
    i3c = d1p(i2c)
    i3d = d2(i2c)
    return {
        "R1": [d1p.commutator(d2), d1p.scale(i3d / i2c) + d2.scale(2 * i2p - i3c / i2c)],
        "R2": d2.summands(i0),
        "R3": [
            -i2c * d2(i3b),
            d1p(i3c),
            i2p * d2(i3d),
            -(12 * i2p * i2p * i2c * i2c - 10 * i2p * i2c * i3c + 3 * i2p * i3d * i3d
              + 3 * i2c * i2c * i3a - 3 * i2c * i3b * i3d + 3 * i3c * i3c) / i2c,
        ],
    }


def asp_reduction_defect(point):
    """Value of d1p(I0) - I2c (an exact reduction of one generator)."""
    gens, ders = asp_function_invariants(point)
    return ders["d1p"](gens["I0"]) - gens["I2c"]


# --- affine-conformal group: functions -------------------------------------------

def acsp_function_invariants(point):
    _require_n1(point)
    gens_a, ders_a = asp_function_invariants(point)
    i0, i2p = gens_a["I0"], gens_a["I2p"]
    d1p, d2 = ders_a["d1p"], ders_a["d2"]
    _nonzero(i2p, "I2p (Hessian)")
    d2_i2p = d2(i2p)
    _nonzero(d2_i2p, "d2(I2p)")
    gens = {
        "I0": i0,
        "I3app": d1p(i2p) / (i2p * i2p),
        "I3bpp": d2_i2p * d2_i2p / (i2p * i2p * i2p),
    }
    ders = {
        "d1pp": d1p.scale(1 / i2p),
        "d2pp": d2.scale(i2p / d2_i2p),
    }
    return gens, ders


# --- curves ----------------------------------------------------------------------

def _plane_curve_data(point):
    _require_n1(point)
    from .curves import invariants_n1, nabla

    inv = invariants_n1(point, depth=1)
    return inv["I2"], inv["I3"], nabla(point)


def csp_curve_invariants(point):
    """Weight-0 curve generator I3p = I3^2/I2^3 and derivation."""
    i2, i3, der = _plane_curve_data(point)
    _nonzero(i2, "I2")
    _nonzero(i3, "I3")
    gens = {"I3p": i3 * i3 / (i2 * i2 * i2)}
    ders = {"dp": der.scale(i2 / i3)}
    return gens, ders


def _curve_y_jets(point):
    y = point.jets["y"]
    y2 = y.partial(0).partial(0)
    y3 = y2.partial(0)
    y4 = y3.partial(0)
    return y2, y3, y4


def asp_curve_invariants(point):
    """Rationalized base-free curve generators I4pp = (I4p)^3 and dpp."""
    _require_n1(point)
    y2, y3, y4 = _curve_y_jets(point)
    _nonzero(y2, "y2")
    g = 3 * y4 / (y2 * y2) - 5 * y3 * y3 / (y2 * y2 * y2)
    gens = {"I4pp": y2 * g * g * g}
    ders = {"dpp": Derivation((g,))}
    return gens, ders


def asp_curve_microlocal(point):
    """Cube-root form of the affine curve pair (float mode crosscheck only)."""
    from .jets import cbrt

    y2, y3, y4 = _curve_y_jets(point)
    _nonzero(y2, "y2")
    root = cbrt(y2)
    g = 3 * y4 / (y2 * y2) - 5 * y3 * y3 / (y2 * y2 * y2)
    return {"I4p": root * g}, {"dp": Derivation((1 / root,))}


def acsp_curve_invariants(point):
    gens_a, ders_a = asp_curve_invariants(point)
    i4 = gens_a["I4pp"]
    dpp = ders_a["dpp"]
    _nonzero(i4, "I4pp")
    di4 = dpp(i4)
    _nonzero(di4, "dpp(I4pp)")
    gens = {"I5": di4 * di4 / (i4 * i4 * i4)}
    ders = {"dppp": dpp.scale(i4 / di4)}
    return gens, ders
