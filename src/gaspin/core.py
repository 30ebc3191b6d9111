"""Dense Clifford algebra engine over bit-indexed basis blades.

An algebra Cl(p,q) is generated by p+q anticommuting units, the first p
squaring to +1 and the rest to -1.  A basis blade is encoded as a bit mask
over generator positions (bit k set = generator k present, canonical order
ascending), and a multivector is a dense float vector of length 2^(p+q)
indexed by mask.  Blade-product signs come from transposition counting
plus one metric sign per contracted generator, so Cayley tables are exact
integers and every other module can use this one as its ground truth.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    GradeOutOfRange,
    NonFiniteValue,
    NonScalarSquare,
    NotAVector,
    NullVector,
    SignatureMismatch,
)

#: Default numeric tolerance for composite float computations.  Cayley-table
#: arithmetic itself is exact.
TOL = 1e-12

_MAX_GENERATORS = 6


@dataclass(frozen=True)
class Signature:
    """Metric signature (p,q) plus display labels for the generators.

    Generator k squares to +1 for k < plus_count and to -1 otherwise; all
    +1 generators come first (for Cl(1,3) the single +1 generator sits at
    index 0).
    """

    plus_count: int
    minus_count: int
    generator_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        n = self.plus_count + self.minus_count
        if self.plus_count < 0 or self.minus_count < 0:
            raise ValueError("signature counts must be non-negative")
        if not 1 <= n <= _MAX_GENERATORS:
            raise ValueError(f"need 1 <= p+q <= {_MAX_GENERATORS}, got {n}")
        if len(self.generator_labels) != n:
            raise ValueError("one label per generator required")

    @property
    def n(self) -> int:
        return self.plus_count + self.minus_count

    @property
    def dim(self) -> int:
        return 1 << self.n

    def metric(self, k: int) -> int:
        """Square (+1 or -1) of generator k."""
        return 1 if k < self.plus_count else -1

    def blade_name(self, mask: int) -> str:
        """Human-readable name of a basis blade, e.g. ``e12`` or ``1``."""
        if mask == 0:
            return "1"
        labels = [self.generator_labels[k] for k in _mask_to_indices(mask)]
        head = labels[0]
        prefix = head.rstrip("0123456789")
        if prefix and all(
            lab.startswith(prefix) and lab[len(prefix):].isdigit() for lab in labels
        ):
            return prefix + "".join(lab[len(prefix):] for lab in labels)
        return "".join(labels)


# The four algebras the library actually uses.
EUCLIDEAN4 = Signature(4, 0, ("e0", "e1", "e2", "e3"))
SPACETIME13 = Signature(1, 3, ("g0", "g1", "g2", "g3"))
PAULI3 = Signature(3, 0, ("e1", "e2", "e3"))
MINKOWSKI12 = Signature(1, 2, ("g0", "g1", "g2"))


def _mask_to_indices(mask: int) -> list[int]:
    out = []
    k = 0
    while mask:
        if mask & 1:
            out.append(k)
        mask >>= 1
        k += 1
    return out


def grade_of(mask: int) -> int:
    """Grade of a blade = number of generators in it."""
    return bin(mask).count("1")


def blade_product(mask_a: int, mask_b: int, signature: Signature) -> tuple[int, int]:
    """Product of two basis blades -> (sign, result mask).

    Sign counts the transpositions needed to sort the concatenated
    generator lists, then applies one metric sign per repeated generator.
    """
    factors = _mask_to_indices(mask_a)
    sign = 1
    for gen in _mask_to_indices(mask_b):
        swaps = sum(1 for g in factors if g > gen)
        if swaps % 2:
            sign = -sign
        if gen in factors:
            factors.remove(gen)
            sign *= signature.metric(gen)
        else:
            factors.append(gen)
    mask = 0
    for g in factors:
        mask |= 1 << g
    return sign, mask


@lru_cache(maxsize=None)
def _product_tables(p: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """(signs, targets) arrays for Cl(p,q); targets[i,j] = i XOR j."""
    sig = Signature(p, q, tuple(f"x{k}" for k in range(p + q)))
    dim = sig.dim
    signs = np.zeros((dim, dim))
    targets = np.zeros((dim, dim), dtype=np.int64)
    for i in range(dim):
        for j in range(dim):
            s, m = blade_product(i, j, sig)
            signs[i, j] = s
            targets[i, j] = m
    return signs, targets


@lru_cache(maxsize=None)
def _reverse_signs(n: int) -> np.ndarray:
    return np.array([(-1) ** (grade_of(m) * (grade_of(m) - 1) // 2) for m in range(1 << n)], dtype=float)


@dataclass(frozen=True)
class Multivector:
    """Immutable dense multivector: coefficient ``coeffs[b]`` on blade b."""

    signature: Signature
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.coeffs, dtype=float)
        if arr.shape != (self.signature.dim,):
            raise ValueError(f"need {self.signature.dim} coefficients, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteValue("coefficients must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def zero(signature: Signature) -> "Multivector":
        return Multivector(signature, np.zeros(signature.dim))

    @staticmethod
    def scalar(signature: Signature, value: float) -> "Multivector":
        c = np.zeros(signature.dim)
        c[0] = value
        return Multivector(signature, c)

    @staticmethod
    def blade(signature: Signature, mask: int, coeff: float = 1.0) -> "Multivector":
        if not 0 <= mask < signature.dim:
            raise ValueError(f"blade mask {mask} out of range")
        c = np.zeros(signature.dim)
        c[mask] = coeff
        return Multivector(signature, c)

    @staticmethod
    def basis(signature: Signature, k: int) -> "Multivector":
        """Generator number k as a multivector."""
        return Multivector.blade(signature, 1 << k)

    @staticmethod
    def vector(signature: Signature, components: Sequence[float]) -> "Multivector":
        """Grade-1 element with the given component per generator."""
        if len(components) != signature.n:
            raise ValueError("one component per generator required")
        c = np.zeros(signature.dim)
        for k, x in enumerate(components):
            c[1 << k] = x
        return Multivector(signature, c)

    # -- basic queries ---------------------------------------------------------

    @property
    def scalar_part(self) -> float:
        return float(self.coeffs[0])

    def coefficient(self, mask: int) -> float:
        return float(self.coeffs[mask])

    def vector_components(self) -> np.ndarray:
        return np.array([self.coeffs[1 << k] for k in range(self.signature.n)])

    def grades(self, tol: float = TOL) -> set[int]:
        return {grade_of(m) for m in range(self.signature.dim) if abs(self.coeffs[m]) > tol}

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def is_zero(self, tol: float = TOL) -> bool:
        return self.max_abs() <= tol

    def __repr__(self) -> str:
        terms = []
        for m in range(self.signature.dim):
            c = self.coeffs[m]
            if c != 0.0:
                terms.append(f"{c:g}*{self.signature.blade_name(m)}")
        return " + ".join(terms) if terms else "0"

    # -- arithmetic ------------------------------------------------------------

    def _check_signature(self, other: "Multivector") -> None:
        if self.signature != other.signature:
            raise SignatureMismatch(
                f"{self.signature.generator_labels} vs {other.signature.generator_labels}"
            )

    def __add__(self, other: "Multivector | float | int") -> "Multivector":
        if isinstance(other, Multivector):
            self._check_signature(other)
            return Multivector(self.signature, self.coeffs + other.coeffs)
        if isinstance(other, (int, float)):
            return self + Multivector.scalar(self.signature, float(other))
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: "Multivector | float | int") -> "Multivector":
        if isinstance(other, Multivector):
            return self + (-other)
        if isinstance(other, (int, float)):
            return self + (-float(other))
        return NotImplemented

    def __rsub__(self, other: float) -> "Multivector":
        return (-self) + float(other)

    def __neg__(self) -> "Multivector":
        return Multivector(self.signature, -self.coeffs)

    def __mul__(self, other: "Multivector | float | int") -> "Multivector":
        if isinstance(other, Multivector):
            return geometric_product(self, other)
        if isinstance(other, (int, float)):
            return Multivector(self.signature, self.coeffs * float(other))
        return NotImplemented

    def __rmul__(self, other: float) -> "Multivector":
        if isinstance(other, (int, float)):
            return Multivector(self.signature, self.coeffs * float(other))
        return NotImplemented

    def __truediv__(self, other: float) -> "Multivector":
        return Multivector(self.signature, self.coeffs / float(other))

    def __invert__(self) -> "Multivector":
        return reverse(self)


def geometric_product(a: Multivector, b: Multivector) -> Multivector:
    """Geometric product ab; bilinear and associative."""
    a._check_signature(b)
    sig = a.signature
    signs, targets = _product_tables(sig.plus_count, sig.minus_count)
    out = np.zeros(sig.dim)
    for i in np.nonzero(a.coeffs)[0]:
        np.add.at(out, targets[i], a.coeffs[i] * signs[i] * b.coeffs)
    return Multivector(sig, out)


def reverse(a: Multivector) -> Multivector:
    """Reversion: grade k picks up (-1)^(k(k-1)/2)."""
    return Multivector(a.signature, a.coeffs * _reverse_signs(a.signature.n))


def grade_select(a: Multivector, grades: Iterable[int]) -> Multivector:
    """Keep only coefficients on blades whose grade lies in ``grades``."""
    keep = set(grades)
    n = a.signature.n
    for g in keep:
        if not 0 <= g <= n:
            raise GradeOutOfRange(f"grade {g} not in 0..{n}")
    c = np.array(
        [a.coeffs[m] if grade_of(m) in keep else 0.0 for m in range(a.signature.dim)]
    )
    return Multivector(a.signature, c)


def _require_vector(a: Multivector, tol: float) -> None:
    other = grade_select(a, set(range(a.signature.n + 1)) - {1})
    if other.max_abs() > tol:
        raise NotAVector(f"non-vector parts present: {other!r}")


def vector_inverse(v: Multivector, tol: float = TOL) -> Multivector:
    """Inverse v / v^2 of a non-null grade-1 element."""
    _require_vector(v, tol)
    sq = geometric_product(v, v).scalar_part
    if abs(sq) < tol:
        raise NullVector("vector square is numerically zero")
    return v / sq


def dot(a: Multivector, b: Multivector, tol: float = TOL) -> float:
    """Symmetric inner product (ab+ba)/2 of two grade-1 elements."""
    _require_vector(a, tol)
    _require_vector(b, tol)
    return 0.5 * (geometric_product(a, b) + geometric_product(b, a)).scalar_part


def exp_blade(B: Multivector, tol: float = TOL) -> Multivector:
    """Exponential of an element whose square is a real scalar.

    Square -t^2 gives the circular branch cos t + B sin(t)/t, square +f^2
    the hyperbolic branch cosh f + B sinh(f)/f, and |B^2| < tol the
    parabolic limit 1 + B.
    """
    sq_mv = geometric_product(B, B)
    rest = sq_mv - Multivector.scalar(B.signature, sq_mv.scalar_part)
    if rest.max_abs() > tol:
        raise NonScalarSquare(f"B^2 has non-scalar residue {rest.max_abs():g}")
    sq = sq_mv.scalar_part
    one = Multivector.scalar(B.signature, 1.0)
    if abs(sq) < tol:
        return one + B
    if sq < 0.0:
        t = math.sqrt(-sq)
        return math.cos(t) * one + (math.sin(t) / t) * B
    f = math.sqrt(sq)
    return math.cosh(f) * one + (math.sinh(f) / f) * B


def residual(a: Multivector, b: Multivector) -> float:
    """Max absolute coefficient difference."""
    a._check_signature(b)
    return float(np.max(np.abs(a.coeffs - b.coeffs)))


def allclose(a: Multivector, b: Multivector, tol: float = TOL) -> bool:
    return residual(a, b) <= tol


def cayley_table(signature: Signature) -> list[list[tuple[int, int]]]:
    """Full blade-by-blade product table as (sign, mask) pairs; exact."""
    dim = signature.dim
    return [
        [blade_product(i, j, signature) for j in range(dim)] for i in range(dim)
    ]


def blade_names(signature: Signature) -> list[str]:
    return [signature.blade_name(m) for m in range(signature.dim)]


def frame(columns: Sequence[Multivector]) -> tuple[np.ndarray, np.ndarray]:
    """Column matrix of a fixed frame and its pseudo-inverse: ``pinv @ m.coeffs``
    are the coordinates of m in the span (a least-squares fit off it, so
    callers check the reconstruction ``mat @ coords``)."""
    mat = np.stack([c.coeffs for c in columns], axis=1)
    pinv = np.linalg.pinv(mat)
    mat.setflags(write=False)
    pinv.setflags(write=False)
    return mat, pinv


def pseudoscalar(signature: Signature) -> Multivector:
    return Multivector.blade(signature, signature.dim - 1)
