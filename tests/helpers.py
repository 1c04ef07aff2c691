"""Shared helpers for the invariant test modules."""

import functools
import importlib.util
import sys
from pathlib import Path

import numpy as np

from sympinv.geometry import pushforward, relation_residual
from sympinv.symplectic import random_contact_lift, random_group_element


BENCH = Path(__file__).resolve().parent.parent / "bench"


@functools.lru_cache(maxsize=None)
def bench_module(name):
    """bench/<name>.py, loaded by path without putting bench/ on sys.path."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def val(x):
    """Constant term of a jet, or the scalar itself."""
    v = x.value() if hasattr(x, "value") else x
    return float(getattr(v, "re", v))


def same_coeffs(got, want):
    """Whether jet ``got`` has the coefficients of ``want``, a jet or a list.

    Exact jets compare their values in order; float jets their bytes, so a
    -0.0 or a NaN must match too.
    """
    mine = got.coeffs
    theirs = want.coeffs if hasattr(want, "coeffs") else want
    if got.exact:
        return list(mine) == list(theirs)
    return mine.tobytes() == np.asarray(theirs, dtype=np.float64).tobytes()


def residuals(relations):
    """Float residual of each relation in a {name: terms} dict."""
    return {name: relation_residual(terms) for name, terms in relations.items()}


def relerr(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def max_invariance_error(point, evaluator, flavor, n_elements, seed0=0, contact=False):
    """Largest relative change of evaluator(point) under random pushforwards;
    NaN when any change is NaN."""
    base = evaluator(point)
    worst = 0.0
    space = point.chart.space
    for s in range(n_elements):
        if contact:
            g = random_contact_lift(space, flavor, seed0 + s)
        else:
            g = random_group_element(space, flavor, seed0 + s)
        moved = pushforward(point, g)
        vals = evaluator(moved)
        # np.max keeps a NaN, which max(0.0, nan) would drop
        worst = float(np.max([worst, *(relerr(vals[key], v) for key, v in base.items())]))
    return worst


def fd_jacobian(point, evaluator, fiber, h=1e-6):
    """Central finite-difference Jacobian of evaluator over jet-fiber coords.

    evaluator maps a point to a list of floats; fiber is a list of
    (dependent name, multi-index) labels.
    """
    rows = []
    for name, sigma in fiber:
        up = evaluator(point.perturb(name, sigma, h))
        dn = evaluator(point.perturb(name, sigma, -h))
        rows.append([(a - b) / (2 * h) for a, b in zip(up, dn)])
    return np.asarray(rows).T  # functions x coordinates


def numeric_rank(mat, rel=1e-6, row_normalize=True):
    """Rank with an SVD gap; rows (functions) are rescaled to comparable size
    first, since invariants of different orders differ by many magnitudes."""
    m = np.asarray(mat, dtype=float)
    if row_normalize and m.size:
        scale = np.max(np.abs(m), axis=1, keepdims=True)
        scale[scale == 0] = 1.0
        m = m / scale
    sv = np.linalg.svd(m, compute_uv=False)
    if sv.size == 0 or sv[0] == 0:
        return 0
    return int(np.sum(sv > rel * sv[0]))


def exact_jacobian(point, evaluator, fiber):
    """Exact Jacobian over the jet fiber via dual-number perturbations.

    `point` must be exact-mode; evaluator maps a point to a list of scalars
    (Fractions or Duals).  Entry [i][j] = d f_i / d coordinate_j as a Fraction.
    """
    from fractions import Fraction

    from sympinv.rational import Dual

    cols = []
    for name, sigma in fiber:
        vals = evaluator(point.perturb(name, sigma, Dual(0, 1)))
        cols.append([getattr(v, "eps", Fraction(0)) for v in vals])
    # transpose: rows = functions
    return [[cols[j][i] for j in range(len(cols))] for i in range(len(cols[0]))]


def fraction_rank(rows):
    """Exact rank of a matrix of Fractions by Gaussian elimination."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    row = 0
    for col in range(ncols):
        piv = None
        for r in range(row, len(m)):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        pv = m[row][col]
        m[row] = [v / pv for v in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[row])]
        rank += 1
        row += 1
        if row == len(m):
            break
    return rank


def scaling_weight(point, evaluator, lam, scale_element):
    """Measured exponent w with evaluator(scaled point) = lam^w evaluator(point)."""
    base = evaluator(point)
    moved = pushforward(point, scale_element)
    out = {}
    for key, v in evaluator(moved).items():
        ratio = v / base[key]
        out[key] = float(np.log(abs(ratio)) / np.log(lam))
    return out
