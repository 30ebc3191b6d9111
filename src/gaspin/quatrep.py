"""Quaternions and the 2x2 quaternion-matrix representations of Cl(4,0).

Quaternions are stored as scalar + 3-vector, matching the bivector
embedding q = x0 + x1*e23 - x2*e13 + x3*e12 into Cl(4,0); the minus sign
on the e13 term is what makes q = x0 + i*x with i = e123, and it lives in
exactly one place (:func:`Quaternion.to_multivector`).

Two spectral bases turn Cl(4,0) into 2x2 matrices over the quaternions:
one built from the vector idempotents (1 +- e0)/2, one from the
pseudoscalar idempotents (1 +- e0123)/2.  A 2x2 quaternion matrix is one
(..., 2, 2, 4) array, so each map is a fixed 16x16 matrix, cached per basis
and applied to a whole batch with one matmul.  The representation matrix
stacks the basis-blade images, built as ordered products of the generator
images; the inverse matrix stacks the row-idempotent-matrix-column sandwich
of each of the 16 matrix units, expanded in the core algebra.  The two
directions are derived independently of each other.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (EUCLIDEAN4, Multivector, as_cases, batch_shape, close, contract, fields_equal,
                   require, residual, reverse, stack_cases, unstack)
from .errors import NotInSubalgebra, SignatureMismatch

_SQRT1_2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class Quaternion:
    """q = s + i*v with i the unit pseudoscalar of the Pauli subalgebra.

    ``s`` and the three entries of ``v`` are Python floats, or arrays of one
    shape for a batch of quaternions."""

    s: float
    v: tuple[float, float, float]
    __eq__ = fields_equal

    def __post_init__(self) -> None:
        s, *v = as_cases((self.s, *self.v))
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "v", tuple(v))

    @staticmethod
    def zero() -> "Quaternion":
        return Quaternion(0.0, (0.0, 0.0, 0.0))

    @staticmethod
    def one() -> "Quaternion":
        return Quaternion(1.0, (0.0, 0.0, 0.0))

    @staticmethod
    def from_scalar(x: float) -> "Quaternion":
        return Quaternion(x, (0.0, 0.0, 0.0))

    @staticmethod
    def from_vector(v) -> "Quaternion":
        return Quaternion(0.0, tuple(v))

    @staticmethod
    def from_coords(c) -> "Quaternion":
        """Quaternion from coordinates (s, v1, v2, v3) on the last axis."""
        s, *v = unstack(np.asarray(c, dtype=float))
        return Quaternion(s, v)

    def coords(self) -> np.ndarray:
        """(s, v1, v2, v3) on the last axis."""
        return stack_cases((self.s, *self.v))

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.s, tuple(-x for x in self.v))

    def norm2(self) -> float:
        return self.s * self.s + sum(x * x for x in self.v)

    def norm(self) -> float:
        return np.sqrt(self.norm2())

    def scale(self, a: float) -> "Quaternion":
        return Quaternion(a * self.s, tuple(a * x for x in self.v))

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.s + other.s, tuple(a + b for a, b in zip(self.v, other.v)))

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.s - other.s, tuple(a - b for a, b in zip(self.v, other.v)))

    def __neg__(self) -> "Quaternion":
        return self.scale(-1.0)

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        return quat_mul(self, other)

    def max_abs(self) -> float:
        r = np.maximum.reduce(np.abs(self.coords()), axis=-1)
        return r if r.ndim else float(r)

    def to_multivector(self) -> Multivector:
        """Embed into Cl(4,0) as x0 + x1*e23 - x2*e13 + x3*e12."""
        c = np.zeros((*batch_shape(self.s), EUCLIDEAN4.dim))
        c[..., 0] = self.s
        c[..., 0b1100] = self.v[0]   # e23
        c[..., 0b1010] = -self.v[1]  # e13
        c[..., 0b0110] = self.v[2]   # e12
        return Multivector(EUCLIDEAN4, c)

    @staticmethod
    def from_multivector(m: Multivector) -> "Quaternion":
        """Inverse of :meth:`to_multivector`; rejects non-quaternion parts."""
        if m.signature != EUCLIDEAN4:
            raise SignatureMismatch("quaternions live in Cl(4,0)")
        q = Quaternion(
            m.coefficient(0),
            (m.coefficient(0b1100), -m.coefficient(0b1010), m.coefficient(0b0110)),
        )
        require(close(residual(q.to_multivector(), m), m.abs_sum()), NotInSubalgebra,
                "multivector has parts outside the quaternion subalgebra")
        return q


def cross(u, w) -> tuple:
    """Cross product of two 3-vectors given as component triples."""
    (u1, u2, u3), (w1, w2, w3) = u, w
    return (u2 * w3 - u3 * w2, u3 * w1 - u1 * w3, u1 * w2 - u2 * w1)


def quat_mul(a: Quaternion, b: Quaternion) -> Quaternion:
    """Quaternion product, agreeing with the Cl(4,0) geometric product of
    the embeddings.

    The embedded basis (e23, -e13, e12) is a left-handed triple, hence the
    minus sign on the cross term.
    """
    s = a.s * b.s - sum(u * w for u, w in zip(a.v, b.v))
    return Quaternion(s, tuple(a.s * w + b.s * u - c
                               for u, w, c in zip(a.v, b.v, cross(a.v, b.v))))


@lru_cache(maxsize=None)
def _structure() -> np.ndarray:
    """T[a, b, c]: coordinate c of unit a times unit b, read off quat_mul
    (which alone holds the product's sign convention)."""
    units = np.eye(4)
    table = quat_mul(Quaternion.from_coords(units[:, None]), Quaternion.from_coords(units)).coords()
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _product_table() -> np.ndarray:
    """(256, 16) table of the 2x2 quaternion-matrix product over flattened
    entries: row (j, l, a, l, k, b) holds ``_structure()[a, b]`` in column
    (j, k), so that row into column sums quat_mul(A[j, l], B[l, k]) over l,
    each factor in its left-to-right order since quaternions do not commute."""
    table = np.zeros((2, 2, 4, 2, 2, 4, 2, 2, 4))
    for j, l, k in np.ndindex(2, 2, 2):
        table[j, l, :, l, k, :, j, k, :] = _structure()
    table = table.reshape(256, 16)
    table.setflags(write=False)
    return table


@dataclass(frozen=True)
class QuatMatrix2:
    """2x2 matrix over the quaternions: ``coeffs[..., j, k, :]`` holds entry
    (j, k) as the coordinates (s, v1, v2, v3), in one read-only (..., 2, 2, 4)
    array; leading axes index the cases of a batch.  Products are
    ``core.contract`` of the flattened entries against ``_product_table()``,
    the (256, 16) table read off :func:`quat_mul`, blocked as the batched
    geometric product is."""

    coeffs: np.ndarray
    __eq__ = fields_equal

    def __post_init__(self) -> None:
        arr = np.array(self.coeffs, dtype=float)
        if arr.shape[-3:] != (2, 2, 4):
            raise ValueError(f"need a (..., 2, 2, 4) array, got {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @staticmethod
    def from_entries(m00, m01, m10, m11) -> "QuatMatrix2":
        return QuatMatrix2([[m00.coords(), m01.coords()], [m10.coords(), m11.coords()]])

    @staticmethod
    def identity() -> "QuatMatrix2":
        return QuatMatrix2.from_entries(
            Quaternion.one(), Quaternion.zero(), Quaternion.zero(), Quaternion.one()
        )

    @staticmethod
    def zero() -> "QuatMatrix2":
        return QuatMatrix2(np.zeros((2, 2, 4)))

    def entry(self, j: int, k: int) -> Quaternion:
        return Quaternion.from_coords(self.coeffs[..., j, k, :])

    def __add__(self, other: "QuatMatrix2") -> "QuatMatrix2":
        return QuatMatrix2(self.coeffs + other.coeffs)

    def __sub__(self, other: "QuatMatrix2") -> "QuatMatrix2":
        return QuatMatrix2(self.coeffs - other.coeffs)

    def scale(self, a: float) -> "QuatMatrix2":
        return QuatMatrix2(a * self.coeffs)

    def __mul__(self, other: "QuatMatrix2") -> "QuatMatrix2":
        c = contract(_flat(self), _flat(other), _product_table())
        return QuatMatrix2(c.reshape(*c.shape[:-1], 2, 2, 4))

    def conjugate_transpose(self) -> "QuatMatrix2":
        return QuatMatrix2(np.swapaxes(self.coeffs, -3, -2) * (1.0, -1.0, -1.0, -1.0))

    def max_abs(self) -> float:
        """Largest coordinate modulus, per case."""
        r = np.maximum.reduce(np.abs(_flat(self)), axis=-1)
        return r if r.ndim else float(r)


def matrix_residual(a: QuatMatrix2, b: QuatMatrix2) -> float:
    return (a - b).max_abs()


# --------------------------------------------------------------------------
# Representations: one cached blade-image matrix per spectral basis.

def _generator_images(basis: str) -> list[QuatMatrix2]:
    """[e0] is diag(1, -1) over (1 +- e0)/2 and [[0, 1], [1, 0]] over
    (1 +- e0123)/2; [ek] = [[0, i ek], [-i ek, 0]] in both bases."""
    z = Quaternion.zero()
    one = Quaternion.one()
    if basis == "vec":
        mats = [QuatMatrix2.from_entries(one, z, z, -one)]
    else:
        mats = [QuatMatrix2.from_entries(z, one, one, z)]
    for unit in np.eye(3):
        q = Quaternion.from_vector(unit)
        mats.append(QuatMatrix2.from_entries(z, q, -q, z))
    return mats


@lru_cache(maxsize=None)
def _rep_matrix(basis: str) -> np.ndarray:
    """(16, 16) matrix: column b is the flattened image of blade b, the
    ordered product of its generator images."""
    gens = _generator_images(basis)
    cols = []
    for mask in range(EUCLIDEAN4.dim):
        img = QuatMatrix2.identity()
        for k in range(4):
            if mask >> k & 1:
                img = img * gens[k]
        cols.append(img.coeffs.ravel())
    mat = np.stack(cols, axis=1)
    mat.setflags(write=False)
    return mat


def _rep(g: Multivector, basis: str) -> QuatMatrix2:
    if g.signature != EUCLIDEAN4:
        raise SignatureMismatch("representation defined on Cl(4,0)")
    c = g.coeffs @ _rep_matrix(basis).T
    return QuatMatrix2(c.reshape(*c.shape[:-1], 2, 2, 4))


def rep_vec(g: Multivector) -> QuatMatrix2:
    """Matrix of g over the spectral basis built from (1 +- e0)/2."""
    return _rep(g, "vec")


def rep_pss(g: Multivector) -> QuatMatrix2:
    """Matrix of g over the spectral basis built from (1 +- e0123)/2."""
    return _rep(g, "pss")


# --------------------------------------------------------------------------
# Inverse maps: expand the row-idempotent-matrix-column sandwich in ga-core.

_E0 = Multivector.basis(EUCLIDEAN4, 0)
_E123 = Multivector.blade(EUCLIDEAN4, 0b1110)  # i
_E0123 = Multivector.blade(EUCLIDEAN4, 0b1111)  # I


def idempotent_vec(sign: int) -> Multivector:
    """(1 + sign*e0)/2."""
    return (1.0 + float(sign) * _E0) * 0.5


def idempotent_pss(sign: int) -> Multivector:
    """(1 + sign*e0123)/2."""
    return (1.0 + float(sign) * _E0123) * 0.5


def idempotent_i(sign: int) -> Multivector:
    """(1 + sign*e123)/2."""
    return (1.0 + float(sign) * _E123) * 0.5


def _sandwich(M: QuatMatrix2, row, idem: Multivector, col) -> Multivector:
    out = Multivector.zero(EUCLIDEAN4)
    for j in range(2):
        for k in range(2):
            term = row[j] * idem * M.entry(j, k).to_multivector() * col[k]
            out = out + term
    return out


@lru_cache(maxsize=None)
def _unrep_matrix(basis: str) -> np.ndarray:
    """(16, 16) matrix: column u is the sandwich expansion of matrix unit u
    (entry (j, k), quaternion coordinate c, flattened)."""
    one = Multivector.scalar(EUCLIDEAN4, 1.0)
    if basis == "vec":
        row, idem, col = (one, _E123), idempotent_vec(+1), (one, -_E123)
    else:
        row, idem, col = (one, _E0), idempotent_pss(+1), (one, _E0)
    units = np.eye(16).reshape(16, 2, 2, 4)
    mat = np.stack([_sandwich(QuatMatrix2(u), row, idem, col).coeffs for u in units], axis=1)
    mat.setflags(write=False)
    return mat


def _flat(M: QuatMatrix2) -> np.ndarray:
    return M.coeffs.reshape(*M.coeffs.shape[:-3], 16)


def unrep_vec(M: QuatMatrix2) -> Multivector:
    """g = (1  i) e+ [g] (1; -i), expanded in the core algebra."""
    return Multivector(EUCLIDEAN4, _flat(M) @ _unrep_matrix("vec").T)


def unrep_pss(M: QuatMatrix2) -> Multivector:
    """g = (1  e0) I+ [g] (1; e0), expanded in the core algebra."""
    return Multivector(EUCLIDEAN4, _flat(M) @ _unrep_matrix("pss").T)


# --------------------------------------------------------------------------
# Change of basis between the two representations.

def basis_change_matrix() -> QuatMatrix2:
    """A = (1/sqrt2) [[1, 1], [-1, 1]]; unitary, A Astar = 1."""
    a = Quaternion.from_scalar(_SQRT1_2)
    return QuatMatrix2.from_entries(a, a, -a, a)


def change_of_basis(M_pss: QuatMatrix2) -> QuatMatrix2:
    """Conjugate a pseudoscalar-basis matrix into the vector basis."""
    A = basis_change_matrix()
    A_inv = A.conjugate_transpose()
    return A * M_pss * A_inv


def singular_change_matrix() -> tuple[tuple[Multivector, ...], ...]:
    """B = (sqrt2/2) [[i+, i-], [-i-, i+]] with multivector entries.

    The entries are idempotent halves of 1 +- e123, which are not
    quaternions, so B is kept at the multivector level.
    """
    s = _SQRT1_2
    ip = idempotent_i(+1)
    im = idempotent_i(-1)
    return (
        (ip * s, im * s),
        ((-1.0 * im) * s, ip * s),
    )


def _mv_matmul(a, b):
    return tuple(
        tuple(
            a[j][0] * b[0][k] + a[j][1] * b[1][k] for k in range(2)
        )
        for j in range(2)
    )


def _mv_star(a):
    """Reverse-conjugate transpose of a 2x2 multivector matrix."""
    return tuple(tuple(reverse(a[k][j]) for k in range(2)) for j in range(2))


def spectral_basis_vec() -> tuple[tuple[Multivector, ...], ...]:
    """[[e+, -i e-], [i e+, e-]]."""
    ep, em = idempotent_vec(+1), idempotent_vec(-1)
    return ((ep, -1.0 * (_E123 * em)), (_E123 * ep, em))


def spectral_basis_pss() -> tuple[tuple[Multivector, ...], ...]:
    """[[I+, e0 I-], [e0 I+, I-]]."""
    Ip, Im = idempotent_pss(+1), idempotent_pss(-1)
    return ((Ip, _E0 * Im), (_E0 * Ip, Im))


def idempotent_identities() -> dict[str, float]:
    """Residuals of the closed relations tying the two spectral bases.

    All products are evaluated in the core algebra; every residual should
    vanish (coefficients are dyadic rationals, so floats are exact).
    """
    ip, im = idempotent_i(+1), idempotent_i(-1)
    ep = idempotent_vec(+1)
    Ip = idempotent_pss(+1)

    r_pss = residual(Ip, 2.0 * (im * ep * ip))
    r_vec = residual(ep, 2.0 * (ip * Ip * im))

    lhs = spectral_basis_vec()
    B = singular_change_matrix()
    rhs = _mv_matmul(_mv_matmul(B, spectral_basis_pss()), _mv_star(B))
    r_eq = max(residual(lhs[j][k], rhs[j][k]) for j in range(2) for k in range(2))

    # Outer-product form 2 (i+; -i-) I+ (i-, -i+) of the same relation.
    col = (ip, -1.0 * im)
    row = (im, -1.0 * ip)
    outer = tuple(
        tuple(2.0 * (col[j] * Ip * row[k]) for k in range(2)) for j in range(2)
    )
    r_outer = max(residual(lhs[j][k], outer[j][k]) for j in range(2) for k in range(2))

    # B has no two-sided inverse: B Bstar stays away from the identity.
    bbstar = _mv_matmul(B, _mv_star(B))
    one = Multivector.scalar(EUCLIDEAN4, 1.0)
    zero = Multivector.zero(EUCLIDEAN4)
    ident = ((one, zero), (zero, one))
    b_dev = max(residual(bbstar[j][k], ident[j][k]) for j in range(2) for k in range(2))

    return {
        "pseudoscalar_idempotent_from_vec": r_pss,
        "vec_idempotent_from_pseudoscalar": r_vec,
        "spectral_basis_relation": r_eq,
        "spectral_basis_outer_form": r_outer,
        "b_times_b_star_max_deviation": b_dev,
    }
