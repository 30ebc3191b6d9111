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

Every operation takes batches: ``coeffs`` has shape ``(..., dim)``, the
leading axes index cases, and a single case is a batch with no leading
axes.  Scalars may be batches too (arrays of the leading shape), and
reductions (``residual``, ``max_abs``, ``abs_sum``, ``scalar_part``,
``vector_square``) act on the last axis, so a single case still gets Python
numbers.  The product of two single cases keeps the kernel above.  A single
factor against a batch is one fixed (dim, dim) matrix applied to the batch.
Two batches are contracted in blocks against the (dim^2, dim) sign tensor
``T[i*dim + j, i ^ j] = S[i, j]``, at most ``_BLOCK_BYTES`` (128 KB) of
outer products at a time, so memory stays flat in the batch size.
Domain checks go through :func:`require`, which raises on the first failing
case of a batch and names its index.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass, field, fields
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
#: Scalar operands of the arithmetic: numbers, or arrays with one per case.
_SCALARS = (int, float, complex, np.ndarray)

#: Size bound of the outer-product block formed by a batch-by-batch product.
_BLOCK_BYTES = 128 * 1024


def require(ok, error: type[Exception], message) -> None:
    """Raise ``error`` unless ``ok`` holds in every case.

    ``ok`` is a bool or a boolean array over the cases of a batch.  For a
    batch the message ends with the index of the first failing case.
    ``message`` is a string, or a function of that index (``()`` for a single
    case) for messages that quote the failing value.
    """
    if ok is True or ok is np.True_:
        return
    bad = np.logical_not(ok)
    if not bad.any():
        return
    k = tuple(int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))
    text = message(k) if callable(message) else message
    if bad.ndim:
        text += f" (case {k[0] if len(k) == 1 else k})"
    raise error(text)


def batch_shape(*values) -> tuple[int, ...]:
    """Broadcast leading shape of scalars and per-case arrays; () for scalars."""
    shape: tuple[int, ...] = ()
    for v in values:
        if isinstance(v, np.ndarray) and v.ndim and v.shape != shape:
            shape = np.broadcast_shapes(shape, v.shape)
    return shape


def as_cases(values: Sequence, kind: type = float) -> tuple:
    """``values`` as Python numbers of ``kind``, or, when any of them is an
    array, as arrays of ``kind`` broadcast to one batch shape."""
    for v in values:
        if isinstance(v, np.ndarray) and v.ndim:
            shape = batch_shape(*values)
            return tuple(np.broadcast_to(np.asarray(x, dtype=kind), shape) for x in values)
    return tuple(map(kind, values))


def unstack(x: np.ndarray) -> tuple:
    """The entries of the last axis, one array per entry (numbers for one case)."""
    return tuple(x) if x.ndim == 1 else tuple(x.transpose(-1, *range(x.ndim - 1)))


def fields_equal(a, b) -> bool:
    """Exact ``==`` for the frozen dataclasses whose fields may hold per-case
    arrays: the same type and ``np.array_equal`` on every field (same shape,
    same entries), one bool for a whole batch."""
    if type(b) is not type(a):
        return NotImplemented
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))


def stack_cases(values: Sequence) -> np.ndarray:
    """Inverse of :func:`unstack`: ``values`` on a new last axis, numbers
    broadcast against the per-case arrays among them."""
    for v in values:
        if isinstance(v, np.ndarray) and v.ndim:
            return np.stack(as_cases(values), axis=-1)
    return np.array(values, dtype=float)


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
def _right_signs(p: int, q: int) -> np.ndarray:
    """rsigns[k, i], the sign of blade i * blade (k ^ i), so that
    ab = (rsigns * b[perm]) @ a."""
    dim = 1 << (p + q)
    perm, _ = _product_kernel(p, q)
    out = sign_table(p, q)[np.arange(dim)[None, :], perm].astype(float)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _outer_table(p: int, q: int) -> np.ndarray:
    """(dim^2, dim) sign tensor: ``outer(a, b).ravel() @ T`` is ab."""
    dim = 1 << (p + q)
    i, j = np.divmod(np.arange(dim * dim), dim)
    out = np.zeros((dim * dim, dim))
    out[np.arange(dim * dim), i ^ j] = sign_table(p, q)[i, j]
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _reverse_signs(n: int) -> np.ndarray:
    g = _grades(n)
    return np.where(g * (g - 1) // 2 % 2, -1.0, 1.0)


@lru_cache(maxsize=None)
def _vector_masks(n: int) -> np.ndarray:
    """Blade masks of the n generators, in order."""
    return 1 << np.arange(n)


@dataclass(frozen=True, eq=False)
class Multivector:
    """Immutable dense multivector, or a batch of them: ``coeffs[..., b]`` is
    the coefficient on blade b, real (``float64``) or complex
    (``complex128``); leading axes index the cases of a batch.  ``==`` is
    exact (one bool for a whole batch), and multivectors are unhashable."""

    signature: Signature
    coeffs: np.ndarray
    #: numpy defers to the reflected operators, so arrays of per-case
    #: scalars combine with a multivector as scalars do.
    __array_ufunc__ = None

    def __post_init__(self) -> None:
        arr = np.array(self.coeffs)
        if arr.dtype not in _DTYPES:
            arr = arr.astype(complex if arr.dtype.kind == "c" else float)
        if arr.shape != (self.signature.dim,) and arr.shape[-1:] != (self.signature.dim,):
            raise ValueError(f"need {self.signature.dim} coefficients, got {arr.shape}")
        # A finite sum proves every term finite (NaN and inf propagate); a
        # sum that overflows falls back to the elementwise test.
        if not cmath.isfinite(np.add.reduce(arr, axis=None)):
            require(np.isfinite(arr).all(axis=-1), NonFiniteValue, "coefficients must be finite")
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
        """``coeff`` times one basis blade; an array ``coeff`` gives a batch."""
        if not 0 <= mask < signature.dim:
            raise ValueError(f"blade mask {mask} out of range")
        if isinstance(coeff, np.ndarray):
            c = np.zeros((*coeff.shape, signature.dim),
                         dtype=complex if coeff.dtype.kind == "c" else float)
            c[..., mask] = coeff
        else:
            c = np.zeros(signature.dim, dtype=complex if isinstance(coeff, _COMPLEX) else float)
            c[mask] = coeff
        return Multivector(signature, c)

    @staticmethod
    def basis(signature: Signature, k: int) -> "Multivector":
        """Generator number k as a multivector."""
        return Multivector.blade(signature, 1 << k)

    @staticmethod
    def vector(signature: Signature, components: Sequence[float]) -> "Multivector":
        """Grade-1 element with the given component per generator; array
        components give a batch."""
        if len(components) != signature.n:
            raise ValueError("one component per generator required")
        shape = batch_shape(*components)
        c = np.zeros((*shape, signature.dim))
        for k, x in enumerate(components):
            if shape:
                c[..., 1 << k] = x
            else:
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
        c = self.coeffs
        return c.item(0) if c.ndim == 1 else c[..., 0]

    def coefficient(self, mask: int) -> float:
        c = self.coeffs
        return c.item(mask) if c.ndim == 1 else c[..., mask]

    def vector_components(self) -> np.ndarray:
        return self.coeffs.take(_vector_masks(self.signature.n), -1)

    def max_abs(self) -> float:
        r = np.maximum.reduce(np.abs(self.coeffs), axis=-1)
        return r if r.ndim else float(r)

    def abs_sum(self) -> float:
        """Sum of the coefficient moduli: the usual ``scale`` for :func:`close`."""
        r = np.add.reduce(np.abs(self.coeffs), axis=-1)
        return r if r.ndim else float(r)

    def __repr__(self) -> str:
        if self.coeffs.ndim > 1:
            return f"<batch {self.coeffs.shape[:-1]} of {self.signature.generator_labels}>"
        terms = []
        for m in range(self.signature.dim):
            c = self.coeffs[m]
            if c != 0.0:
                coeff = f"({c:g})" if isinstance(c, complex) else f"{c:g}"
                terms.append(f"{coeff}*{self.signature.blade_name(m)}")
        return " + ".join(terms) if terms else "0"

    __eq__ = fields_equal

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
        if isinstance(other, _SCALARS):
            return self + Multivector.scalar(self.signature, other)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: "Multivector | complex") -> "Multivector":
        if isinstance(other, (Multivector, *_SCALARS)):
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
        if isinstance(other, np.ndarray):  # one scalar per case
            return Multivector(self.signature, self.coeffs * other[..., None])
        if isinstance(other, (int, float, complex)):
            return Multivector(self.signature, self.coeffs * other)
        return NotImplemented

    def __truediv__(self, other: float) -> "Multivector":
        if isinstance(other, np.ndarray):
            other = other[..., None]
        return Multivector(self.signature, self.coeffs / other)

    def __invert__(self) -> "Multivector":
        return reverse(self)


def geometric_product(a: Multivector, b: Multivector) -> Multivector:
    """Geometric product ab; bilinear and associative.  Leading (batch) axes
    of the two factors broadcast against each other."""
    a._check_signature(b)
    sig = a.signature
    perm, lsigns = _product_kernel(sig.plus_count, sig.minus_count)
    ac, bc = a.coeffs, b.coeffs
    if ac.ndim == 1 and bc.ndim == 1:
        return Multivector(sig, (lsigns * ac[perm]) @ bc)
    return Multivector(sig, _batch_product(ac, bc, sig.plus_count, sig.minus_count))


def _batch_product(ac: np.ndarray, bc: np.ndarray, p: int, q: int) -> np.ndarray:
    """Coefficients of ab when at least one factor is a batch."""
    perm, lsigns = _product_kernel(p, q)
    if ac.ndim == 1:  # one left factor for every case: a fixed linear map
        return bc @ (lsigns * ac[perm]).T
    if bc.ndim == 1:
        return ac @ (_right_signs(p, q) * bc[perm]).T
    dim = ac.shape[-1]
    shape = np.broadcast_shapes(ac.shape[:-1], bc.shape[:-1])
    a2 = np.broadcast_to(ac, (*shape, dim)).reshape(-1, dim)
    b2 = np.broadcast_to(bc, (*shape, dim)).reshape(-1, dim)
    out = np.empty((len(a2), dim), dtype=np.result_type(ac, bc))
    step = max(1, _BLOCK_BYTES // (dim * dim * out.itemsize))
    table = _outer_table(p, q)
    for s in range(0, len(out), step):
        outer = a2[s:s + step, :, None] * b2[s:s + step, None, :]
        np.matmul(outer.reshape(-1, dim * dim), table, out=out[s:s + step])
    return out.reshape(*shape, dim)


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
    p = a.signature.plus_count  # the +1 generators come first
    if a.coeffs.ndim > 1:
        v = a.vector_components()
        vmag = np.abs(v)
        total = a.abs_sum()
        require(close(total - np.add.reduce(vmag, axis=-1), total), NotAVector,
                "non-vector parts present")
        sq = np.add.reduce(v[..., :p] ** 2, axis=-1) - np.add.reduce(v[..., p:] ** 2, axis=-1)
        return sq, np.add.reduce(vmag * vmag, axis=-1)
    # One case in Python numbers: three times faster than the array form.
    c = a.coeffs.tolist()
    v = [c[1 << k] for k in range(a.signature.n)]
    vmag = [abs(x) for x in v]
    total = sum(map(abs, c))
    if not close(total - sum(vmag), total):
        raise NotAVector(f"non-vector parts present: {a!r}")
    return sum(x * x for x in v[:p]) - sum(x * x for x in v[p:]), sum(m * m for m in vmag)


def vector_inverse(v: Multivector) -> Multivector:
    """Inverse v / v^2 of a non-null grade-1 element."""
    sq, scale = vector_square(v)
    require(np.logical_not(close(abs(sq), scale)), NullVector,
            lambda k: f"vector square {np.asarray(sq)[k]!r} is zero to rounding")
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
    1 + B; a batch picks the branch per case.  Coefficients may be complex
    (1j g12 squares to +1 in Cl(1,3)); a square that is not a real scalar
    raises NonScalarSquare.
    """
    sq_mv = geometric_product(B, B)
    sq = np.real(sq_mv.scalar_part)
    rest = (sq_mv - sq).max_abs()
    size = B.abs_sum()
    require(close(rest, size * size), NonScalarSquare,
            lambda k: f"B^2 has non-scalar or imaginary residue {np.asarray(rest)[k]:g}")
    t = np.sqrt(np.abs(sq))
    circular, hyperbolic = sq < 0.0, sq > 0.0
    # both branches are evaluated for every case; an overflow in the branch a
    # case does not take is discarded, and in the one it takes the result's
    # finiteness check raises NonFiniteValue
    with np.errstate(over="ignore", invalid="ignore"):
        even = np.where(circular, np.cos(t), np.where(hyperbolic, np.cosh(t), 1.0))
        odd = np.where(circular, np.sin(t), np.where(hyperbolic, np.sinh(t), 1.0))
        return even + (odd / np.where(t == 0.0, 1.0, t)) * B


def residual(a: Multivector, b: Multivector) -> float:
    """Max absolute coefficient difference (a modulus for complex ones), per case."""
    a._check_signature(b)
    r = np.maximum.reduce(np.abs(a.coeffs - b.coeffs), axis=-1)
    return r if r.ndim else float(r)


def allclose(a: Multivector, b: Multivector) -> bool:
    return residual(a, b) <= TOL


def cayley_table(signature: Signature) -> list[list[tuple[int, int]]]:
    """Full blade-by-blade product table as (sign, mask) pairs; exact."""
    signs = sign_table(signature.plus_count, signature.minus_count).tolist()
    return [[(s, i ^ j) for j, s in enumerate(row)] for i, row in enumerate(signs)]


def blade_names(signature: Signature) -> list[str]:
    return [signature.blade_name(m) for m in range(signature.dim)]


def column_matrix(columns: Sequence[Multivector]) -> np.ndarray:
    """Read-only matrix with the coefficients of ``columns`` as its columns:
    ``mat @ coords`` is the combination of the columns with those weights."""
    mat = np.stack([c.coeffs for c in columns], axis=1)
    mat.setflags(write=False)
    return mat


def frame(columns: Sequence[Multivector]) -> tuple[np.ndarray, np.ndarray]:
    """Column matrix of a fixed frame and its pseudo-inverse: ``pinv @ m.coeffs``
    are the coordinates of m in the span (a least-squares fit off it, so
    callers check the reconstruction ``mat @ coords``)."""
    mat = column_matrix(columns)
    pinv = np.linalg.pinv(mat)
    pinv.setflags(write=False)
    return mat, pinv


@lru_cache(maxsize=None)
def pseudoscalar(signature: Signature) -> Multivector:
    return Multivector.blade(signature, signature.dim - 1)
