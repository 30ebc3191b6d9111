"""Quaternions and the 2x2 quaternion-matrix representations of Cl(4,0).

A quaternion holds its coordinates (s, v1, v2, v3) on the last axis of one
array, matching the bivector embedding q = x0 + x1*e23 - x2*e13 + x3*e12
into Cl(4,0); the minus sign on the e13 term is what makes q = x0 + i*x
with i = e123, and it lives in exactly one place (:func:`_embedding`).  The
product is a (16, 4) table read off the Cl(4,0) products of the embedded
units, so it agrees with the geometric product by construction; the tests
keep the Hamilton product written out as the independent reference.

Two spectral bases turn Cl(4,0) into 2x2 matrices over the quaternions:
one built from the vector idempotents (1 +- e0)/2, one from the
pseudoscalar idempotents (1 +- e0123)/2.  A 2x2 quaternion matrix is one
(..., 2, 2, 4) array, so each map is a fixed 16x16 matrix, cached per basis
and applied to a whole batch with one matmul.  The representation matrix is
read off one ``core.blade_images`` batch: the images of all 16 blades as
ordered products of the generator images.  The inverse matrix is one batched
row-idempotent-matrix-column sandwich over the 16 matrix units, expanded in
the core algebra.  The two directions are derived independently of each
other.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (EUCLIDEAN4, Multivector, bilinear, blade_images, close, column_matrix, contract,
                   fields_equal, fixed, freeze, idempotent, require, residual)
from .errors import NotInSubalgebra, SignatureMismatch

_SQRT1_2 = 1.0 / math.sqrt(2.0)
#: Sign flip of the vector part: the conjugate.
_CONJ = np.array([1.0, -1.0, -1.0, -1.0])


@fixed
def _embedding() -> np.ndarray:
    """(4, 16) matrix of q = x0 + x1*e23 - x2*e13 + x3*e12: ``coeffs @ E``
    are the Cl(4,0) coefficients of a quaternion, and ``E.T`` reads them
    back off the subalgebra."""
    out = np.zeros((4, EUCLIDEAN4.dim))
    out[range(4), (0, 0b1100, 0b1010, 0b0110)] = (1.0, 1.0, -1.0, 1.0)
    return out


@dataclass(frozen=True)
class Quaternion:
    """q = s + i*v with i the unit pseudoscalar of the Pauli subalgebra.

    ``coeffs[..., :]`` holds (s, v1, v2, v3) in one read-only array, a view
    of the array it is given; leading axes index the cases of a batch."""

    coeffs: np.ndarray
    __eq__ = fields_equal

    def __post_init__(self) -> None:
        freeze(self, "coeffs", self.coeffs, (4,))

    @property
    def s(self) -> float:
        return self.coeffs[..., 0]

    @property
    def v(self) -> np.ndarray:
        """The vector part, its three components on the last axis."""
        return self.coeffs[..., 1:]

    @staticmethod
    def zero() -> "Quaternion":
        return Quaternion(np.zeros(4))

    @staticmethod
    @fixed
    def one() -> "Quaternion":
        return Quaternion(np.eye(4)[0])

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.coeffs * _CONJ)

    def norm2(self) -> float:
        return np.vecdot(self.coeffs, self.coeffs)

    def norm(self) -> float:
        return np.sqrt(self.norm2())

    def scale(self, a: float) -> "Quaternion":
        """a * q, with a a number or one number per case."""
        return Quaternion(np.asarray(a)[..., None] * self.coeffs)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.coeffs - other.coeffs)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.coeffs)

    def to_multivector(self) -> Multivector:
        """Embed into Cl(4,0) as x0 + x1*e23 - x2*e13 + x3*e12."""
        return Multivector(EUCLIDEAN4, self.coeffs @ _embedding())

    @staticmethod
    def from_multivector(m: Multivector) -> "Quaternion":
        """Inverse of :meth:`to_multivector`; rejects non-quaternion parts."""
        if m.signature != EUCLIDEAN4:
            raise SignatureMismatch("quaternions live in Cl(4,0)")
        q = Quaternion(m.coeffs @ _embedding().T)
        require(close(residual(q.to_multivector(), m), m.abs_sum()), NotInSubalgebra,
                "multivector has parts outside the quaternion subalgebra")
        return q


@fixed
def _structure() -> np.ndarray:
    """(4, 4, 4) table of :func:`core.bilinear`: T[a, k, b] is coordinate k of
    unit a times unit b, read off the Cl(4,0) product of their embeddings."""
    units = np.eye(4)
    prod = Quaternion(units[:, None]).to_multivector() * Quaternion(units).to_multivector()
    return np.ascontiguousarray(Quaternion.from_multivector(prod).coeffs.transpose(0, 2, 1))


def quat_mul(a: Quaternion, b: Quaternion) -> Quaternion:
    """Quaternion product: :func:`core.bilinear` over the table of :func:`_structure`,
    one path, so a batch gives exactly what its single calls give."""
    return Quaternion(bilinear(a.coeffs, _structure(), b.coeffs))


@fixed
def _product_table() -> np.ndarray:
    """(256, 16) table of the 2x2 quaternion-matrix product over flattened
    entries: row (j, l, a, l, k, b) holds the product coordinates of units a
    and b in column (j, k), so that row into column sums A[j, l] B[l, k]
    over l, each factor in its left-to-right order since quaternions do not
    commute."""
    table = np.zeros((2, 2, 4, 2, 2, 4, 2, 2, 4))
    for j, l, k in np.ndindex(2, 2, 2):
        table[j, l, :, l, k, :, j, k, :] = _structure().transpose(0, 2, 1)
    return table.reshape(256, 16)


@dataclass(frozen=True)
class QuatMatrix2:
    """2x2 matrix over the quaternions: ``coeffs[..., j, k, :]`` holds entry
    (j, k) as the coordinates (s, v1, v2, v3), in one read-only (..., 2, 2, 4)
    array; leading axes index the cases of a batch.  Products are
    ``core.contract`` of the flattened entries against ``_product_table()``,
    the (256, 16) table built from the quaternion product's, blocked as the
    batched geometric product is."""

    coeffs: np.ndarray
    __eq__ = fields_equal

    def __post_init__(self) -> None:
        freeze(self, "coeffs", self.coeffs, (2, 2, 4))

    @staticmethod
    def from_entries(m00, m01, m10, m11) -> "QuatMatrix2":
        return QuatMatrix2([[m00.coeffs, m01.coeffs], [m10.coeffs, m11.coeffs]])

    @staticmethod
    def identity() -> "QuatMatrix2":
        one, z = Quaternion.one(), Quaternion.zero()
        return QuatMatrix2.from_entries(one, z, z, one)

    def __sub__(self, other: "QuatMatrix2") -> "QuatMatrix2":
        return QuatMatrix2(self.coeffs - other.coeffs)

    def __mul__(self, other: "QuatMatrix2") -> "QuatMatrix2":
        c = contract(_flat(self), _flat(other), _product_table())
        return QuatMatrix2(c.reshape(*c.shape[:-1], 2, 2, 4))

    def conjugate_transpose(self) -> "QuatMatrix2":
        return QuatMatrix2(np.swapaxes(self.coeffs, -3, -2) * _CONJ)

    def max_abs(self) -> float:
        """Largest coordinate modulus, per case."""
        r = np.maximum.reduce(np.abs(_flat(self)), axis=-1)
        return r if r.ndim else float(r)  # one case gets a Python float: the contract, not speed


def matrix_residual(a: QuatMatrix2, b: QuatMatrix2) -> float:
    return (a - b).max_abs()


# --------------------------------------------------------------------------
# Representations: one cached blade-image matrix per spectral basis.

def _generator_images(basis: str) -> QuatMatrix2:
    """[e0], ..., [e3] as one batch: [e0] is diag(1, -1) over (1 +- e0)/2 and
    [[0, 1], [1, 0]] over (1 +- e0123)/2; [ek] = [[0, i ek], [-i ek, 0]] in
    both bases."""
    out = np.zeros((4, 2, 2, 4))
    out[0, :, :, 0] = [[1.0, 0.0], [0.0, -1.0]] if basis == "vec" else [[0.0, 1.0], [1.0, 0.0]]
    out[1:, 0, 1, 1:] = np.eye(3)
    out[1:, 1, 0, 1:] = -np.eye(3)
    return QuatMatrix2(out)


@fixed
def _rep_matrix(basis: str) -> np.ndarray:
    """(16, 16) matrix: column b is the flattened image of blade b, the
    ordered product of its generator images (one ``blade_images`` batch)."""
    return column_matrix(blade_images(_generator_images(basis), QuatMatrix2.identity()))


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


@fixed
def _unrep_matrix(basis: str) -> np.ndarray:
    """(16, 16) matrix: column u is the sandwich, summed over (j, k), of
    row[j] idem M[j, k] col[k] for matrix unit u (entry (j, k), quaternion
    coordinate c, flattened); one batched product over the 16 units."""
    one = Multivector.scalar(EUCLIDEAN4, 1.0)
    if basis == "vec":
        row, idem, col = (one, _E123), idempotent(EUCLIDEAN4, 0b0001), (one, -_E123)
    else:
        row, idem, col = (one, _E0), idempotent(EUCLIDEAN4, 0b1111), (one, _E0)
    row = Multivector(EUCLIDEAN4, [[m.coeffs] for m in row])  # along the j axis
    col = Multivector(EUCLIDEAN4, [m.coeffs for m in col])  # along the k axis
    units = Quaternion(np.eye(16).reshape(16, 2, 2, 4)).to_multivector()
    terms = row * idem * units * col
    return column_matrix(Multivector(EUCLIDEAN4, terms.coeffs.sum(axis=(1, 2))))


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
    a = Quaternion.one().scale(_SQRT1_2)
    return QuatMatrix2.from_entries(a, a, -a, a)


def change_of_basis(M_pss: QuatMatrix2) -> QuatMatrix2:
    """Conjugate a pseudoscalar-basis matrix into the vector basis."""
    A = basis_change_matrix()
    A_inv = A.conjugate_transpose()
    return A * M_pss * A_inv

