"""Linear algebra over jet scalars: one reciprocal per row normalisation."""

from fractions import Fraction

import numpy as np
import pytest

from sympinv import _tables, jetlinalg
from sympinv.jetlinalg import _PivotFailure, is_negligible, magnitude
from sympinv.jets import MultiJet, _one_like, divide_all


# ---------------------------------------------------------------------------
# references: the plain-division code that one reciprocal per row replaced
# ---------------------------------------------------------------------------

def solve_by_division(rows, rhs, tol=1e-10):
    n = len(rows)
    a = [list(r) + [v] for r, v in zip(rows, rhs)]
    row_scale = max((magnitude(e) for r in a for e in r), default=1.0)
    for col in range(n):
        piv, piv_mag = None, 0.0
        for r in range(col, n):
            m = magnitude(a[r][col])
            if m > piv_mag:
                piv, piv_mag = r, m
        if piv is None or is_negligible(a[piv][col], row_scale, tol):
            raise _PivotFailure(f"no usable pivot in column {col}")
        a[col], a[piv] = a[piv], a[col]
        pval = a[col][col]
        a[col] = [v / pval for v in a[col]]
        for r in range(n):
            if r == col:
                continue
            f = a[r][col]
            a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def kernel_vector_by_division(rows, tol=1e-10):
    n = len(rows)
    a = [list(r) for r in rows]
    scale = max((magnitude(e) for r in a for e in r), default=1.0)
    piv_cols = []
    row = 0
    for col in range(n):
        piv, piv_mag = None, 0.0
        for r in range(row, n):
            m = magnitude(a[r][col])
            if m > piv_mag:
                piv, piv_mag = r, m
        if piv is None or is_negligible(a[piv][col], scale, tol):
            continue
        a[row], a[piv] = a[piv], a[row]
        pval = a[row][col]
        a[row] = [v / pval for v in a[row]]
        for r in range(n):
            if r == row:
                continue
            f = a[r][col]
            a[r] = [v - f * w for v, w in zip(a[r], a[row])]
        piv_cols.append(col)
        row += 1
        if row == n:
            break
    free = [c for c in range(n) if c not in piv_cols]
    f0 = free[0]
    one = _one_like(rows[0][0])
    zero = one * 0
    vec = [one if c == f0 else zero for c in range(n)]
    for r, c in enumerate(piv_cols):
        vec[c] = -a[r][f0] * one
    return vec


def random_jet(rng, exact, order=3, nvars=2, base=(0.5, -0.25)):
    n = _tables.count(nvars, order)
    if exact:
        coeffs = [Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5))) for _ in range(n)]
        coeffs[0] = coeffs[0] + 2
        base = tuple(Fraction(b) for b in base)
    else:
        coeffs = rng.uniform(-1, 1, size=n)
        coeffs[0] += 2 * np.sign(coeffs[0])
    return MultiJet(nvars, order, coeffs, base, exact=exact)


def assert_same_bits(got, want, exact):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is type(w)
        if exact:
            assert g.coeffs == w.coeffs
        else:
            assert g.coeffs.tobytes() == w.coeffs.tobytes()
        assert g.order == w.order and g.basepoint is w.basepoint


@pytest.mark.parametrize("exact", [False, True])
class TestOneReciprocalPerRow:
    def test_solve_equals_plain_division(self, exact):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 4):
            rows = [[random_jet(rng, exact) for _ in range(n)] for _ in range(n)]
            rhs = [random_jet(rng, exact) for _ in range(n)]
            assert_same_bits(jetlinalg.solve(rows, rhs), solve_by_division(rows, rhs), exact)

    def test_solve_with_scalar_right_hand_side(self, exact):
        rng = np.random.default_rng(12)
        one = Fraction(1) if exact else 1.0
        rows = [[random_jet(rng, exact) for _ in range(3)] for _ in range(3)]
        rhs = [one * 0, one * 0, one]  # plain numbers meet a jet divisor
        assert_same_bits(jetlinalg.solve(rows, rhs), solve_by_division(rows, rhs), exact)

    def test_kernel_vector_equals_plain_division(self, exact):
        rng = np.random.default_rng(13)
        for n in (3, 5):
            x = [[random_jet(rng, exact) for _ in range(n)] for _ in range(n)]
            skew = [[x[i][j] - x[j][i] for j in range(n)] for i in range(n)]
            assert_same_bits(jetlinalg.kernel_vector(skew),
                             kernel_vector_by_division(skew), exact)


def test_divide_all_keeps_plain_division_for_a_scalar_divisor():
    xs = [0.1, 0.7, MultiJet(1, 1, [0.3, 0.2], (0.0,))]
    out = divide_all(xs, 3.0)
    assert out[0] == 0.1 / 3.0 and out[1] == 0.7 / 3.0
    assert out[2].coeffs.tobytes() == (xs[2] / 3.0).coeffs.tobytes()
    assert divide_all([Fraction(1, 3)], Fraction(2)) == [Fraction(1, 6)]


def test_divide_all_takes_one_reciprocal(monkeypatch):
    d = MultiJet(1, 2, [2.0, 0.5, -0.25], (0.0,))
    xs = [MultiJet(1, 2, [1.0, 1.0, 1.0], (0.0,)), 0.5, Fraction(1, 3)]
    want = [x / d for x in xs]
    calls = []
    real = MultiJet.reciprocal

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(MultiJet, "reciprocal", counting)
    got = divide_all(xs, d)
    assert len(calls) == 1
    for g, w in zip(got, want):
        assert g.coeffs.tobytes() == w.coeffs.tobytes()
