"""Dense Clifford algebra engine over bit-indexed basis blades.

An algebra Cl(p,q) is generated by p+q anticommuting units, the first p
squaring to +1 and the rest to -1.  A basis blade is encoded as a bit mask
over generator positions (bit k set = generator k present, canonical order
ascending), and a multivector is a dense vector of length 2^(p+q) indexed
by mask.  Blade-product signs come from transposition counting plus one
metric sign per contracted generator, so Cayley tables are exact integers
and every other module can use this one as its ground truth.

Coefficients are ``float64``, or ``complex128`` when the input is complex.
The product is linear in both factors, so the same kernel serves the
complexified algebra C (x) Cl(p,q), where the Dirac idempotents live.

The product of blades i and j is the blade i XOR j (the bitmap
representation of Dorst, Fontijne & Mann, *Geometric Algebra for Computer
Science*, 2007).  ``sign_table(p, q)`` holds every blade-product sign at
once, computed with numpy bit operations: the reordering parity is the
popcount of ``(i >> s) & j`` summed over shifts s, and each shared
generator that squares to -1 flips it once more.  ``geometric_product`` is
then one cached-table kernel, ``out[k] = sum_j S[k^j, j] a[k^j] b[j]``,
i.e. ``(lsigns * a[perm]) @ b`` with ``perm[k, j] = k ^ j``.
``blade_product`` stays the loop-based reference the tests compare with.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
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

#: Relative rounding allowance of :func:`close`.  Cayley-table arithmetic
#: itself is exact.
TOL = 1e-12

_MAX_GENERATORS = 6

#: Coefficient dtypes kept as given; anything else becomes one of them.
_DTYPES = (np.dtype(float), np.dtype(complex))
_COMPLEX = (complex, np.complexfloating)


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
    #: number of generators p+q and of blades 2^(p+q); derived, not compared
    n: int = field(init=False, repr=False, compare=False)
    dim: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.plus_count + self.minus_count
        if self.plus_count < 0 or self.minus_count < 0:
            raise ValueError("signature counts must be non-negative")
        if not 1 <= n <= _MAX_GENERATORS:
            raise ValueError(f"need 1 <= p+q <= {_MAX_GENERATORS}, got {n}")
        if len(self.generator_labels) != n:
            raise ValueError("one label per generator required")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "dim", 1 << n)

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
def _grades(n: int) -> np.ndarray:
    """Grade of every blade mask of an n-generator algebra."""
    out = np.array([grade_of(m) for m in range(1 << n)])
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def sign_table(p: int, q: int) -> np.ndarray:
    """Integer signs ``S[i, j]`` with blade i * blade j = S[i, j] blade (i ^ j)
    in Cl(p,q), for every pair at once (read-only)."""
    n = p + q
    grades = _grades(n)
    i = np.arange(1 << n)[:, None]
    j = np.arange(1 << n)[None, :]
    swaps = sum(grades[(i >> s) & j] for s in range(1, n))
    minus_mask = ((1 << n) - 1) ^ ((1 << p) - 1)
    flips = swaps + grades[i & j & minus_mask]
    out = 1 - 2 * (flips & 1)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _product_kernel(p: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """(perm, lsigns) with perm[k, j] = k ^ j and lsigns[k, j] the sign of
    blade (k ^ j) * blade j, so that ab = (lsigns * a[perm]) @ b."""
    dim = 1 << (p + q)
    k = np.arange(dim)[:, None]
    j = np.arange(dim)[None, :]
    perm = k ^ j
    lsigns = sign_table(p, q)[perm, j].astype(float)
    perm.setflags(write=False)
    lsigns.setflags(write=False)
    return perm, lsigns


@lru_cache(maxsize=None)
def _reverse_signs(n: int) -> np.ndarray:
    g = _grades(n)
    return np.where(g * (g - 1) // 2 % 2, -1.0, 1.0)


@dataclass(frozen=True)
class Multivector:
    """Immutable dense multivector: coefficient ``coeffs[b]`` on blade b,
    real (``float64``) or complex (``complex128``)."""

    signature: Signature
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.coeffs)
        if arr.dtype not in _DTYPES:
            arr = arr.astype(complex if arr.dtype.kind == "c" else float)
        if arr.shape != (self.signature.dim,):
            raise ValueError(f"need {self.signature.dim} coefficients, got {arr.shape}")
        # A finite sum proves every term finite (NaN and inf propagate); a
        # sum that overflows falls back to the elementwise test.
        if not cmath.isfinite(np.add.reduce(arr)) and not np.isfinite(arr).all():
            raise NonFiniteValue("coefficients must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def zero(signature: Signature) -> "Multivector":
        return Multivector(signature, np.zeros(signature.dim))

    @staticmethod
    def scalar(signature: Signature, value: complex) -> "Multivector":
        return Multivector.blade(signature, 0, value)

    @staticmethod
    def blade(signature: Signature, mask: int, coeff: complex = 1.0) -> "Multivector":
        if not 0 <= mask < signature.dim:
            raise ValueError(f"blade mask {mask} out of range")
        c = np.zeros(signature.dim, dtype=complex if isinstance(coeff, _COMPLEX) else float)
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
    def re(self) -> "Multivector":
        """Real part of the coefficients, as a real multivector."""
        return Multivector(self.signature, self.coeffs.real)

    @property
    def im(self) -> "Multivector":
        """Imaginary part of the coefficients, as a real multivector."""
        return Multivector(self.signature, self.coeffs.imag)

    @property
    def scalar_part(self) -> float:
        """Coefficient of 1 (a Python complex when the coefficients are)."""
        return self.coeffs.item(0)

    def coefficient(self, mask: int) -> float:
        return self.coeffs.item(mask)

    def vector_components(self) -> np.ndarray:
        return np.array([self.coeffs[1 << k] for k in range(self.signature.n)])

    def max_abs(self) -> float:
        return float(np.abs(self.coeffs).max())

    def abs_sum(self) -> float:
        """Sum of the coefficient moduli: the usual ``scale`` for :func:`close`."""
        return float(np.abs(self.coeffs).sum())

    def __repr__(self) -> str:
        terms = []
        for m in range(self.signature.dim):
            c = self.coeffs[m]
            if c != 0.0:
                coeff = f"({c:g})" if isinstance(c, complex) else f"{c:g}"
                terms.append(f"{coeff}*{self.signature.blade_name(m)}")
        return " + ".join(terms) if terms else "0"

    # -- arithmetic ------------------------------------------------------------

    def _check_signature(self, other: "Multivector") -> None:
        if self.signature is not other.signature and self.signature != other.signature:
            raise SignatureMismatch(
                f"{self.signature.generator_labels} vs {other.signature.generator_labels}"
            )

    def __add__(self, other: "Multivector | complex") -> "Multivector":
        if isinstance(other, Multivector):
            self._check_signature(other)
            return Multivector(self.signature, self.coeffs + other.coeffs)
        if isinstance(other, (int, float, complex)):
            return self + Multivector.scalar(self.signature, other)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: "Multivector | complex") -> "Multivector":
        if isinstance(other, (Multivector, int, float, complex)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other: complex) -> "Multivector":
        return (-self) + other

    def __neg__(self) -> "Multivector":
        return Multivector(self.signature, -self.coeffs)

    def __mul__(self, other: "Multivector | complex") -> "Multivector":
        if isinstance(other, Multivector):
            return geometric_product(self, other)
        return self.__rmul__(other)

    def __rmul__(self, other: complex) -> "Multivector":
        if isinstance(other, (int, float, complex)):
            return Multivector(self.signature, self.coeffs * other)
        return NotImplemented

    def __truediv__(self, other: float) -> "Multivector":
        return Multivector(self.signature, self.coeffs / float(other))

    def __invert__(self) -> "Multivector":
        return reverse(self)


def geometric_product(a: Multivector, b: Multivector) -> Multivector:
    """Geometric product ab; bilinear and associative."""
    a._check_signature(b)
    sig = a.signature
    perm, lsigns = _product_kernel(sig.plus_count, sig.minus_count)
    return Multivector(sig, (lsigns * a.coeffs[perm]) @ b.coeffs)


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
    keep_bits = sum(1 << g for g in keep)
    return Multivector(a.signature, np.where(keep_bits >> _grades(n) & 1, a.coeffs, 0.0))


def close(residual: float, scale: float) -> bool:
    """The one tolerance rule: ``residual`` is rounding noise when it is at
    most TOL times ``scale``, the sum of the magnitudes of the terms it was
    computed from (a running-error bound; Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2002).  NaN is never close."""
    return residual <= TOL * scale


def vector_square(a: Multivector) -> tuple[complex, float]:
    """(a^2, sum of |a_k|^2) of a grade-1 element, from its coefficients; the
    second is the scale of the first.  NotAVector when other grades hold
    more than rounding."""
    c = a.coeffs.tolist()
    v = [c[1 << k] for k in range(a.signature.n)]
    vmag = [abs(x) for x in v]
    total = sum(map(abs, c))
    if not close(total - sum(vmag), total):
        raise NotAVector(f"non-vector parts present: {a!r}")
    p = a.signature.plus_count  # the +1 generators come first
    return sum(x * x for x in v[:p]) - sum(x * x for x in v[p:]), sum(m * m for m in vmag)


def vector_inverse(v: Multivector) -> Multivector:
    """Inverse v / v^2 of a non-null grade-1 element."""
    sq, scale = vector_square(v)
    if close(abs(sq), scale):
        raise NullVector(f"vector square {sq!r} is zero to rounding")
    return v / sq


def dot(a: Multivector, b: Multivector) -> float:
    """Symmetric inner product (ab+ba)/2 of two grade-1 elements."""
    vector_square(a)
    vector_square(b)
    return 0.5 * (geometric_product(a, b) + geometric_product(b, a)).scalar_part


def exp_blade(B: Multivector) -> Multivector:
    """Exponential of an element whose square is a real scalar.

    Square -t^2 gives the circular branch cos t + B sin(t)/t, square +f^2
    the hyperbolic branch cosh f + B sinh(f)/f, and square 0 the parabolic
    1 + B.  Coefficients may be complex (1j g12 squares to +1 in Cl(1,3));
    a square that is not a real scalar raises NonScalarSquare.
    """
    sq_mv = geometric_product(B, B)
    sq = sq_mv.scalar_part.real
    rest = (sq_mv - sq).max_abs()
    size = B.abs_sum()
    if not close(rest, size * size):
        raise NonScalarSquare(f"B^2 has non-scalar or imaginary residue {rest:g}")
    if sq == 0.0:
        return 1.0 + B
    if sq < 0.0:
        t = math.sqrt(-sq)
        return math.cos(t) + (math.sin(t) / t) * B
    f = math.sqrt(sq)
    return math.cosh(f) + (math.sinh(f) / f) * B


def residual(a: Multivector, b: Multivector) -> float:
    """Max absolute coefficient difference (a modulus for complex ones)."""
    a._check_signature(b)
    return float(np.abs(a.coeffs - b.coeffs).max())


def allclose(a: Multivector, b: Multivector) -> bool:
    return residual(a, b) <= TOL


def cayley_table(signature: Signature) -> list[list[tuple[int, int]]]:
    """Full blade-by-blade product table as (sign, mask) pairs; exact."""
    signs = sign_table(signature.plus_count, signature.minus_count).tolist()
    return [[(s, i ^ j) for j, s in enumerate(row)] for i, row in enumerate(signs)]


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
