"""Symplectic and contact linear spaces, their Lie algebras and group elements.

Coordinates are positional; a space records the Darboux pairing as index pairs
(i, j) meaning the canonical form contains d(coord_i) ^ d(coord_j).  Vector
fields carry polynomial coefficients so that Poisson / Lagrange bracket closure
is testable exactly and fields evaluate on any scalar (numbers or jets).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DegreeError
from .jets import _is_exact, _matvec, _sum


# ---------------------------------------------------------------------------
# dense-dict polynomials in positional coordinates
# ---------------------------------------------------------------------------

class Poly:
    """Polynomial with rational coefficients, exponent-tuple keyed."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for expo, c in terms.items():
                if c != 0:
                    self.terms[tuple(expo)] = Fraction(c)

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def const(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def coordinate(cls, nvars, i):
        expo = tuple(1 if k == i else 0 for k in range(nvars))
        return cls(nvars, {expo: 1})

    def __add__(self, other):
        other = self._lift(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return Poly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Poly):
            out = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    s = out.get(e, Fraction(0)) + c1 * c2
                    if s == 0:
                        out.pop(e, None)
                    else:
                        out[e] = s
            return Poly(self.nvars, out)
        return Poly(self.nvars, {e: c * Fraction(other) for e, c in self.terms.items()})

    __rmul__ = __mul__

    def _lift(self, other):
        if isinstance(other, Poly):
            return other
        return Poly.const(self.nvars, other)

    def diff(self, i):
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            lowered = tuple(v - 1 if k == i else v for k, v in enumerate(e))
            out[lowered] = out.get(lowered, Fraction(0)) + c * e[i]
        return Poly(self.nvars, out)

    def degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def weighted_degree(self, weights):
        return max((sum(w * v for w, v in zip(weights, e)) for e in self.terms), default=0)

    def __call__(self, args):
        """Evaluate on scalars or jets (generic field operations)."""
        exact = _is_exact(args)
        contribs = []
        for e, c in self.terms.items():
            factors = [args[i] ** p if p > 1 else args[i] for i, p in enumerate(e) if p]
            cc = c if exact else float(c)
            contribs.append(functools.reduce(operator.mul, factors) * cc if factors else cc)
        if not contribs:
            return Fraction(0) if exact else 0.0
        return _sum(contribs)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __repr__(self):
        return f"Poly({self.nvars}, {self.terms!r})"


# ---------------------------------------------------------------------------
# spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymplecticSpace:
    """R^(2n) with a canonical form given by Darboux index pairs."""

    n: int
    names: tuple
    pairs: tuple  # ((i, j), ...) with omega = sum d names[i] ^ d names[j]

    def __post_init__(self):
        assert len(self.names) == 2 * self.n
        assert len(self.pairs) == self.n

    @property
    def dim(self):
        return 2 * self.n

    @classmethod
    def standard(cls, n):
        if n == 1:
            names = ("x", "y")
        else:
            names = tuple(f"x{i+1}" for i in range(n)) + tuple(f"y{i+1}" for i in range(n))
        pairs = tuple((i, n + i) for i in range(n))
        return cls(n, names, pairs)

    def omega_matrix(self):
        j = np.zeros((self.dim, self.dim))
        for (a, b) in self.pairs:
            j[a, b] = 1.0
            j[b, a] = -1.0
        return j

    def omega(self, u, v):
        """omega(u, v) for vectors of generic scalars."""
        return _sum(u[a] * v[b] - u[b] * v[a] for a, b in self.pairs)

    def omega_inv_oneform(self, sigma):
        """Raise a one-form to a vector through the symplectic form.

        For sigma = sum p_i dx_i + q_i dy_i (in pair order) returns
        sum p_i d/dy_i - q_i d/dx_i, the convention under which the gradient
        one-form of a function maps to its Hamiltonian rotation.
        """
        v = [None] * self.dim
        for (a, b) in self.pairs:
            v[b] = sigma[a]
            v[a] = -sigma[b]
        return v

    def index(self, name):
        return self.names.index(name)


@dataclass(frozen=True)
class ContactSpace:
    """R^(2n+1) with contact form dz - sum y_i dx_i; weights (1,1,2)."""

    n: int
    names: tuple  # x-block, y-block, then z last

    @property
    def dim(self):
        return 2 * self.n + 1

    @classmethod
    def standard(cls, n):
        if n == 1:
            names = ("x", "y", "z")
        else:
            names = (tuple(f"x{i+1}" for i in range(n))
                     + tuple(f"y{i+1}" for i in range(n)) + ("z",))
        return cls(n, names)

    @property
    def weights(self):
        return (1,) * (2 * self.n) + (2,)

    def index(self, name):
        return self.names.index(name)


# ---------------------------------------------------------------------------
# brackets and Hamiltonian fields
# ---------------------------------------------------------------------------

def poisson_bracket(f, g, space):
    """Poisson bracket, oriented so that [X_f, X_g] = X_{f,g} holds exactly
    for the Hamiltonian fields below: {f, g} = sum f_y g_x - f_x g_y."""
    acc = Poly.zero(f.nvars)
    for (a, b) in space.pairs:
        acc = acc + f.diff(b) * g.diff(a) - f.diff(a) * g.diff(b)
    return acc


def lagrange_bracket(f, g, cspace):
    """Contact bracket: [f,g] = sum (f_x g_y - g_x f_y) + y(f_z g_y - g_z f_y) + f g_z - g f_z."""
    nv = f.nvars
    n = cspace.n
    zi = 2 * n
    acc = Poly.zero(nv)
    for i in range(n):
        xi, yi = i, n + i
        acc = acc + f.diff(xi) * g.diff(yi) - g.diff(xi) * f.diff(yi)
        yc = Poly.coordinate(nv, yi)
        acc = acc + yc * (f.diff(zi) * g.diff(yi) - g.diff(zi) * f.diff(yi))
    acc = acc + f * g.diff(zi) - g * f.diff(zi)
    return acc


@dataclass(frozen=True)
class VectorField:
    """Polynomial-coefficient vector field on a linear space."""

    coeffs: tuple  # one Poly per coordinate

    @property
    def nvars(self):
        return self.coeffs[0].nvars

    def __call__(self, point):
        return [c(point) for c in self.coeffs]

    def bracket(self, other):
        """Lie bracket of vector fields [X, Y] = XY - YX."""
        nv = self.nvars
        out = []
        for i in range(nv):
            acc = Poly.zero(nv)
            for j in range(nv):
                acc = acc + self.coeffs[j] * other.coeffs[i].diff(j)
                acc = acc - other.coeffs[j] * self.coeffs[i].diff(j)
            out.append(acc)
        return VectorField(tuple(out))

    def __add__(self, other):
        return VectorField(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        return VectorField(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, c):
        return VectorField(tuple(p * c for p in self.coeffs))

    def is_zero(self):
        return all(not p.terms for p in self.coeffs)


def hamiltonian_field(h, space):
    """Vector field of a (weighted-)quadratic Hamiltonian polynomial; the type
    of `space` picks the formula.

    Symplectic: X_H = sum H_{y_i} d_{x_i} - H_{x_i} d_{y_i}.
    Contact:    X_H = (H - sum y_i H_{y_i}) d_z
                      + sum (H_{x_i} + y_i H_z) d_{y_i} - H_{y_i} d_{x_i}.
    """
    if not isinstance(space, ContactSpace):
        if h.degree() > 2:
            raise DegreeError(f"Hamiltonian degree {h.degree()} > 2")
        nv = h.nvars
        coeffs = [Poly.zero(nv)] * nv
        for (a, b) in space.pairs:
            coeffs[a] = coeffs[a] + h.diff(b)
            coeffs[b] = coeffs[b] - h.diff(a)
        return VectorField(tuple(coeffs))
    cspace = space
    if h.weighted_degree(cspace.weights) > 2:
        raise DegreeError("contact Hamiltonian has weighted degree > 2")
    nv = h.nvars
    n = cspace.n
    zi = 2 * n
    coeffs = [Poly.zero(nv)] * nv
    z_part = h
    for i in range(n):
        xi, yi = i, n + i
        hy = h.diff(yi)
        coeffs[xi] = coeffs[xi] - hy
        coeffs[yi] = coeffs[yi] + h.diff(xi) + Poly.coordinate(nv, yi) * h.diff(zi)
        z_part = z_part - Poly.coordinate(nv, yi) * hy
    coeffs[zi] = z_part
    return VectorField(tuple(coeffs))


def quadratic_monomials(space):
    """The Hamiltonian basis <x_i x_j, x_i y_j, y_i y_j> as Poly objects, x_i
    and y_i the two coordinates of the i-th Darboux pair."""
    nv = space.dim
    xs = [Poly.coordinate(nv, a) for a, _ in space.pairs]
    ys = [Poly.coordinate(nv, b) for _, b in space.pairs]
    n = space.n
    return ([xs[i] * xs[j] for i in range(n) for j in range(i, n)]
            + [xs[i] * ys[j] for i in range(n) for j in range(n)]
            + [ys[i] * ys[j] for i in range(n) for j in range(i, n)])


# flavor -> (conformal, affine) of the group family acting on each space type:
# the flavors the algebra and group functions below accept.
_FLAVORS = {
    SymplecticSpace: {"sp": (False, False), "csp": (True, False), "asp": (False, True),
                      "acsp": (True, True)},
    ContactSpace: {"contact": (False, False), "contact-csp": (True, False)},
}


def _flavor(space, flavor, family):
    """(conformal, affine) of `flavor` on `space`, a space of type `family`."""
    try:
        return (_FLAVORS[family] if isinstance(space, family) else {})[flavor]
    except KeyError:
        raise ValueError(f"unknown flavor {flavor!r} on a {type(space).__name__}") from None


def algebra_basis(space, flavor):
    """Basis fields for sp / csp / asp / acsp on a (possibly reordered) space,
    or of the lifted algebra (`contact_algebra_basis`) on a contact space.

    `space` can have arbitrary Darboux pair ordering; the sp part is built by
    pairing coordinates through the declared pairs.
    """
    if isinstance(space, ContactSpace):
        return contact_algebra_basis(space, flavor)
    conformal, affine = _flavor(space, flavor, SymplecticSpace)
    nv = space.dim
    fields = [hamiltonian_field(h, space) for h in quadratic_monomials(space)]
    if conformal:
        fields.append(VectorField(tuple(Poly.coordinate(nv, i) for i in range(nv))))
    if affine:
        for i in range(nv):
            coeffs = [Poly.zero(nv)] * nv
            coeffs[i] = Poly.const(nv, 1)
            fields.append(VectorField(tuple(coeffs)))
    return fields


def contact_algebra_basis(cspace, flavor):
    """Lifted sp(2n) (plus homothety for the conformal lift) on contact space."""
    conformal, _ = _flavor(cspace, flavor, ContactSpace)
    nv = cspace.dim
    sympl = SymplecticSpace.standard(cspace.n)
    fields = []
    for h2 in quadratic_monomials(sympl):
        h = Poly(nv, {e + (0,): c for e, c in h2.terms.items()})
        fields.append(hamiltonian_field(h, cspace))
    if conformal:
        n = cspace.n
        homothety = Poly(nv, {tuple(0 if k != 2 * n else 1 for k in range(nv)): 2})
        for i in range(n):
            e = [0] * nv
            e[i] = 1
            e[n + i] = 1
            homothety = homothety - Poly(nv, {tuple(e): 1})
        fields.append(hamiltonian_field(homothety, cspace))
    return fields


# ---------------------------------------------------------------------------
# group elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupElement:
    """Linear (conformal/affine) symplectic transformation."""

    space: SymplecticSpace
    matrix: np.ndarray
    scale: float = 1.0
    translation: np.ndarray | None = None
    flavor: str = "sp"

    def apply_point(self, coords):
        """Apply to a coordinate vector of generic scalars."""
        out = _matvec(self.matrix, coords)
        if self.translation is None:
            return out
        return [x + t if t != 0.0 else x for x, t in zip(out, self.translation)]

    def compose(self, other):
        """Element acting as: first other, then self."""
        mat = self.matrix @ other.matrix
        trans = None
        if self.translation is not None or other.translation is not None:
            t_other = other.translation if other.translation is not None else np.zeros(self.space.dim)
            t_self = self.translation if self.translation is not None else np.zeros(self.space.dim)
            trans = self.matrix @ t_other + t_self
        return GroupElement(self.space, mat, self.scale * other.scale, trans, self.flavor)

    def symplecticity_defect(self):
        """|| A^T J A - lambda^2 J ||_max; zero for exact flavor members."""
        j = self.space.omega_matrix()
        return float(np.max(np.abs(self.matrix.T @ j @ self.matrix - self.scale**2 * j)))


@dataclass(frozen=True)
class ContactLift:
    """Lift of a (conformal) symplectic matrix to the contact space."""

    cspace: ContactSpace
    matrix: np.ndarray  # 2n x 2n acting on (x-block, y-block)
    scale: float = 1.0

    def apply_point(self, coords):
        n = self.cspace.n
        out = _matvec(self.matrix, coords[: 2 * n])
        half_old = _sum(coords[i] * coords[n + i] for i in range(n))
        half_new = _sum(out[i] * out[n + i] for i in range(n))
        out.append((coords[2 * n] - half_old * 0.5) * self.scale**2 + half_new * 0.5)
        return out

    def compose(self, other):
        return ContactLift(self.cspace, self.matrix @ other.matrix, self.scale * other.scale)


# Coefficients b_0..b_13 of the degree-13 Pade approximant to exp and the
# 1-norm below which it is accurate to double precision without scaling
# (Higham 2005, SIAM J. Matrix Anal. Appl. 26(4)).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def expm(a):
    """Matrix exponential: degree-13 Pade approximant with scaling and squaring."""
    a = np.asarray(a, dtype=np.float64)
    norm = np.linalg.norm(a, 1)
    s = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    a = a / 2.0**s
    b = _PADE13
    eye = np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def random_algebra_matrix(space, rng, conformal):
    """Random element of sp(2n) as a matrix, J^{-1} S with S symmetric, plus
    c times the identity when conformal; and the scale e^c (else 1)."""
    d = space.dim
    s = rng.uniform(-1.0, 1.0, size=(d, d))
    s = (s + s.T) / 2
    m = np.linalg.solve(space.omega_matrix(), s)
    if not conformal:
        return m, 1.0
    c = rng.uniform(-1.0, 1.0)
    return m + c * np.eye(d), float(np.exp(c))


def random_group_element(space, flavor, seed):
    """Exponential of a random algebra element (scaling-and-squaring expm), or
    the lift of one (`random_contact_lift`) on a contact space."""
    if isinstance(space, ContactSpace):
        return random_contact_lift(space, flavor, seed)
    conformal, affine = _flavor(space, flavor, SymplecticSpace)
    rng = np.random.default_rng(seed)
    m, scale = random_algebra_matrix(space, rng, conformal)
    if affine:
        d = space.dim
        b = rng.uniform(-1.0, 1.0, size=d)
        aff = np.zeros((d + 1, d + 1))
        aff[:d, :d] = m
        aff[:d, d] = b
        big = expm(aff)
        return GroupElement(space, big[:d, :d], scale, big[:d, d], flavor)
    return GroupElement(space, expm(m), scale, None, flavor)


def identity_element(space, flavor="sp"):
    return GroupElement(space, np.eye(space.dim), 1.0, None, flavor)


def random_contact_lift(cspace, flavor, seed):
    conformal, _ = _flavor(cspace, flavor, ContactSpace)
    rng = np.random.default_rng(seed)
    m, scale = random_algebra_matrix(SymplecticSpace.standard(cspace.n), rng, conformal)
    return ContactLift(cspace, expm(m), scale)


def infinitesimal_point_map(vfield, eps):
    """Point map p -> p + eps * X(p), exact over the scalar ring of eps."""

    def apply_point(coords):
        vals = vfield(coords)
        return [c + v * eps for c, v in zip(coords, vals)]

    return apply_point
