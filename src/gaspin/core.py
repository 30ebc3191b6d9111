"""Dense Clifford algebra engine over bit-indexed basis blades.

An algebra Cl(p,q) is generated by p+q anticommuting units, the first p
squaring to +1 and the rest to -1.  A basis blade is encoded as a bit mask
over generator positions (bit k set = generator k present, canonical order
ascending), and a multivector is a dense vector of length 2^(p+q) indexed by
mask.  Blade-product signs come from transposition counting plus one metric
sign per contracted generator, so Cayley tables are exact integers and every
other module can use this one as its ground truth.  Coefficients are
``float64``; complex input raises ``TypeError``.  The complexified algebra
C (x) Cl(1,3) of the Dirac idempotents is the real algebra Cl(4,1), whose
central pseudoscalar plays the imaginary unit.

The product of blades i and j is the blade i XOR j (the bitmap
representation of Dorst, Fontijne & Mann, *Geometric Algebra for Computer
Science*, 2007).  ``sign_table(p, q)`` holds every blade-product sign at
once, computed with numpy bit operations: the reordering parity is the
popcount of ``(i >> s) & j`` summed over shifts s, and each shared generator
that squares to -1 flips it once more.  Products read it through one cached
gather: for output blades m_k, ``rows[k, i] = i ^ m_k``,
``left[k, j] = S[rows[k, j], j]`` and ``right[k, i] = S[i, rows[k, i]]``, so
(ab)[m_k] = sum_j left[k, j] a[rows[k, j]] b[j] = sum_i right[k, i] a[i]
b[rows[k, i]].  The tests keep a loop over the sorted generator lists as the
independent reference.

Every operation takes batches: ``coeffs`` has shape ``(..., dim)``, the
leading axes index cases, and a single case is a batch with no leading
axes.  Scalars may be batches too (arrays of the leading shape), and
reductions (``residual``, ``max_abs``, ``abs_sum``, ``scalar_part``,
``vector_square``) act on the last axis, so a single case gets numbers.  A
value type holds one read-only finite array in that layout: multivectors,
quaternions, quaternion matrices, chart points and Dirac columns through
:func:`freeze` (one same-kind cast, a view) and center scalars (complex).
Each function has one path, and a single case runs the batch code.  Outside
the product kernel four forks remain, each with its measured worth at the
function: the finiteness test of one case, the Python numbers that accessors
and reductions return for one case, the shape reading of
``Multivector.vector`` (a ``states`` round is 10 % slower without it) and
``Multivector._of``, which wraps core's own results: no init, cast or shape
check.  The gather serves the geometric product of a single factor (one fixed
matrix applied to the other factor; of two single cases, the left one is) and
:func:`product_part`, which forms only the blades read (one ``np.vecdot`` for
two batches; :func:`scalar_product` is its <ab>).  The full product of two
batches is the product's one fork, :func:`contract`: it is contracted against
the (dim^2, dim) sign tensor ``T[i*dim + j, i ^ j] = S[i, j]``, with only the
blades nonzero in some case of each factor (found without a pass when the
first case has no zero, as in a dense factor) and the matching rows of T (a
rotor times a vector in Cl(1,3) is 8 * 4 outer terms a case, not 256), at most
``_BLOCK_BYTES`` (128 KB) of outer terms at a time, one ``np.einsum`` and one
matmul a block: on 500 dense cases 3x faster than the gather, on vectors 13x.
Factors with the same leading shape are reshaped, others broadcast.  It takes
any bilinear map given by its table: ``quatrep.QuatMatrix2`` products use it
with a (256, 16) table.  A fixed bilinear form of coordinates, such as a
spinor bracket or the quaternion product, is an (n, K, m) table (read once off
:func:`product_part` by :func:`bilinear_table`) applied by :func:`bilinear` in
two matmuls.  A map given on the generators extends to every blade mask
through :func:`blade_images`, n batched products over all 2^n masks at once;
``isomap``, ``quatrep`` and ``dirac`` read their fixed matrices off it.
Domain checks go through :func:`require`, which raises on the first failing
case of a batch and names its index.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields, replace
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

#: Scalar operands of the arithmetic: numbers, or arrays with one per case.
_SCALARS = (int, float, np.ndarray)

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


def _require_finite(arr: np.ndarray, axes: int = 1) -> None:
    """NonFiniteValue unless every entry is finite, a case on the last ``axes`` axes.  A finite
    Python sum proves it for a 1-d case (0.4 us against 1.4 us, 16 % of a states round), a count
    of finite entries the rest; else the elementwise test names the bad case or clears overflow."""
    if not (math.isfinite(sum(arr.tolist())) if arr.ndim == 1
            else np.count_nonzero(np.isfinite(arr)) == arr.size):
        require(np.isfinite(arr).all(axis=tuple(range(-axes, 0))), NonFiniteValue,
                "coefficients must be finite")


def freeze(value, name: str, data, tail: tuple[int, ...], dtype=float) -> None:
    """The one rule for value types: ``data`` cast by kind to ``dtype`` (TypeError for complex
    data and a real field), viewed; ValueError unless it ends in the axes ``tail``, NonFiniteValue
    naming the case (its leading axes) of a non-finite entry; then, read-only, field ``name``."""
    arr = np.asarray(data).astype(dtype, casting="same_kind", copy=False).view()
    if arr.shape[-len(tail):] != tail:
        raise ValueError(f"{type(value).__name__} needs (..., {', '.join(map(str, tail))}) "
                         f"values, got {arr.shape}")
    _require_finite(np.ascontiguousarray(arr).view(float) if arr.dtype.kind == "c" else arr,
                    len(tail))
    arr.setflags(write=False)
    object.__setattr__(value, name, arr)


def fields_equal(a, b) -> bool:
    """Exact ``==`` for the frozen dataclasses whose fields may hold per-case
    arrays: the same type and ``np.array_equal`` on every field (same shape,
    same entries), one bool for a whole batch."""
    if type(b) is not type(a):
        return NotImplemented
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))


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
        labels = [lab for k, lab in enumerate(self.generator_labels) if mask >> k & 1]
        prefix = labels[0].rstrip("0123456789")
        digits = [lab[len(prefix):] for lab in labels]
        if prefix and all(lab.startswith(prefix) and d.isdigit() for lab, d in zip(labels, digits)):
            return prefix + "".join(digits)
        return "".join(labels)


# The four algebras the library actually uses.
EUCLIDEAN4 = Signature(4, 0, ("e0", "e1", "e2", "e3"))
SPACETIME13 = Signature(1, 3, ("g0", "g1", "g2", "g3"))
PAULI3 = Signature(3, 0, ("e1", "e2", "e3"))
MINKOWSKI12 = Signature(1, 2, ("g0", "g1", "g2"))


def grade_of(mask: int) -> int:
    """Grade of a blade = number of generators in it."""
    return bin(mask).count("1")


def fixed(build):
    """The one rule for fixed maps: ``build`` is cached for good, and every
    array it returns, alone or in a tuple, is made read-only on its first call."""
    @functools.lru_cache(maxsize=None)
    @functools.wraps(build)
    def cached(*args, **kwargs):
        out = build(*args, **kwargs)
        for x in out if isinstance(out, tuple) else (out,):
            if isinstance(x, np.ndarray):
                x.setflags(write=False)
        return out
    return cached


@fixed
def _grades(n: int) -> np.ndarray:
    """Grade of every blade mask of an n-generator algebra."""
    return np.array([grade_of(m) for m in range(1 << n)])


@fixed
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
    return 1 - 2 * (flips & 1)


@fixed
def _outer_table(p: int, q: int) -> np.ndarray:
    """(dim^2, dim) sign tensor: ``outer(a, b).ravel() @ T`` is ab."""
    dim = 1 << (p + q)
    i, j = np.divmod(np.arange(dim * dim), dim)
    out = np.zeros((dim * dim, dim))
    out[np.arange(dim * dim), i ^ j] = sign_table(p, q)[i, j]
    return out


@fixed
def _reverse_signs(n: int) -> np.ndarray:
    g = _grades(n)
    return np.where(g * (g - 1) // 2 % 2, -1.0, 1.0)


@fixed
def _vector_masks(n: int) -> np.ndarray:
    """Blade masks of the n generators, in order."""
    return 1 << np.arange(n)


@dataclass(frozen=True, eq=False)
class Multivector:
    """Immutable dense multivector, or a batch of them: ``coeffs[..., b]`` is
    the coefficient on blade b (``float64``; a complex input is a
    ``TypeError``); leading axes index the cases of a batch.  ``==`` is
    exact (one bool for a whole batch), and multivectors are unhashable."""

    signature: Signature
    coeffs: np.ndarray
    #: numpy defers to the reflected operators, so arrays of per-case
    #: scalars combine with a multivector as scalars do.
    __array_ufunc__ = None

    def __post_init__(self) -> None:
        freeze(self, "coeffs", self.coeffs, (self.signature.dim,))

    @classmethod
    def _of(cls, signature: Signature, arr: np.ndarray) -> "Multivector":
        """Wrap ``arr``, fresh from core and nothing else's: float64 is tested and frozen in place,
        with no dataclass init, cast or shape check (0.7-1.6 us a result); others go to init."""
        if arr.dtype != np.float64:
            return cls(signature, arr)
        _require_finite(arr)
        arr.setflags(write=False)
        m = object.__new__(cls)
        m.__dict__.update(signature=signature, coeffs=arr)
        return m

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def zero(signature: Signature) -> "Multivector":
        return Multivector._of(signature, np.zeros(signature.dim))

    @staticmethod
    def scalar(signature: Signature, value: float) -> "Multivector":
        return Multivector.blade(signature, 0, value)

    @staticmethod
    def blade(signature: Signature, mask: int, coeff: float = 1.0) -> "Multivector":
        """``coeff`` times one basis blade; an array ``coeff`` gives a batch."""
        if not 0 <= mask < signature.dim:
            raise ValueError(f"blade mask {mask} out of range")
        coeff = np.asarray(coeff)  # of its own dtype, so the constructor refuses a complex one
        c = np.zeros((*coeff.shape, signature.dim), dtype=coeff.dtype)
        c[..., mask] = coeff
        return Multivector._of(signature, c)

    @staticmethod
    @fixed
    def basis(signature: Signature, k: int) -> "Multivector":
        """Generator number k as a multivector (cached: it is immutable)."""
        return Multivector.blade(signature, 1 << k)

    @staticmethod
    def vector(signature: Signature, components: Sequence[float]) -> "Multivector":
        """Grade-1 element with the given component per generator; array
        components give a batch."""
        if len(components) != signature.n:
            raise ValueError("one component per generator required")
        shape = ()  # of the array components; numbers skip np.shape: 3.7 us, not 9.5
        for x in components:
            if isinstance(x, np.ndarray) and x.shape != shape:
                shape = np.broadcast_shapes(shape, x.shape)
        c = np.zeros((*shape, signature.dim))
        for k, x in enumerate(components):
            c[..., 1 << k] = x
        return Multivector._of(signature, c)

    # -- basic queries ---------------------------------------------------------

    @property
    def scalar_part(self) -> float:
        """Coefficient of 1."""
        return self.coefficient(0)

    def coefficient(self, mask: int) -> float:
        c = self.coeffs  # .item: one case gets a Python number, not a 0-d array
        return c.item(mask) if c.ndim == 1 else c[..., mask]

    def vector_components(self) -> np.ndarray:
        return self.coeffs.take(_vector_masks(self.signature.n), -1)

    def max_abs(self) -> float:
        r = np.maximum.reduce(np.abs(self.coeffs), axis=-1)
        return r if r.ndim else float(r)  # one case gets a Python float: the contract, not speed

    def abs_sum(self) -> float:
        """Sum of the coefficient moduli: the usual ``scale`` for :func:`close`."""
        r = np.add.reduce(np.abs(self.coeffs), axis=-1)
        return r if r.ndim else float(r)  # one case gets a Python float: the contract, not speed

    def __repr__(self) -> str:
        if self.coeffs.ndim > 1:
            return f"<batch {self.coeffs.shape[:-1]} of {self.signature.generator_labels}>"
        terms = []
        for m in range(self.signature.dim):
            c = self.coeffs[m]
            if c != 0.0:
                terms.append(f"{c:g}*{self.signature.blade_name(m)}")
        return " + ".join(terms) if terms else "0"

    __eq__ = fields_equal

    # -- arithmetic ------------------------------------------------------------

    def _check_signature(self, other: "Multivector") -> None:
        if self.signature is not other.signature and self.signature != other.signature:
            raise SignatureMismatch(
                f"{self.signature.generator_labels} vs {other.signature.generator_labels}"
            )

    def __add__(self, other: "Multivector | float") -> "Multivector":
        if isinstance(other, Multivector):
            self._check_signature(other)
            return Multivector._of(self.signature, self.coeffs + other.coeffs)
        if isinstance(other, _SCALARS):
            return self + Multivector.scalar(self.signature, other)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: "Multivector | float") -> "Multivector":
        if isinstance(other, (Multivector, *_SCALARS)):
            return self + (-other)
        return NotImplemented

    def __neg__(self) -> "Multivector":
        return Multivector._of(self.signature, -self.coeffs)

    def __mul__(self, other: "Multivector | float") -> "Multivector":
        if isinstance(other, Multivector):
            return geometric_product(self, other)
        return self.__rmul__(other)

    def __rmul__(self, other: float) -> "Multivector":
        if isinstance(other, _SCALARS):
            return Multivector._of(self.signature, self.coeffs * np.asarray(other)[..., None])
        return NotImplemented

    def __truediv__(self, other: float) -> "Multivector":
        return Multivector._of(self.signature, self.coeffs / np.asarray(other)[..., None])


def geometric_product(a: Multivector, b: Multivector) -> Multivector:
    """Geometric product ab; bilinear and associative.  Leading (batch) axes
    of the two factors broadcast against each other."""
    if a.coeffs.ndim == 1 or b.coeffs.ndim == 1:
        return Multivector._of(a.signature, _gather(a, b, None))
    a._check_signature(b)  # two batches: the outer terms of their occupied blades
    table = _outer_table(a.signature.plus_count, a.signature.minus_count)
    return Multivector._of(a.signature, contract(a.coeffs, b.coeffs, table))


def contract(ac: np.ndarray, bc: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The bilinear map with (na * nb, m) table ``table``, case by case:
    ``outer(a, b).ravel() @ table`` for a = ``ac[..., :]`` and b =
    ``bc[..., :]``, the leading axes of the two broadcast against each other.
    Only the |A| and |B| entries nonzero in some case of each operand enter,
    against the matching table rows: |A| * |B| outer terms a case, formed at
    most ``_BLOCK_BYTES`` at a time, so memory stays flat in the batch size."""
    na, nb = ac.shape[-1], bc.shape[-1]
    shape = ac.shape[:-1]
    # a first case with no zero occupies every entry: no pass over the batch (15 us a (500, 16)
    # operand); two take the whole table and views (a view beside a fancy copy slows einsum 3x)
    ia, ib = (np.arange(x.shape[1]) if x.shape[0] and np.count_nonzero(x[0]) == x.shape[1]
              else x.any(axis=0).nonzero()[0] for x in (ac.reshape(-1, na), bc.reshape(-1, nb)))
    rows, ia, ib = ((table, ..., ...) if ia.size * ib.size == table.shape[0]
                    else (table.take((ia[:, None] * nb + ib).ravel(), axis=0), ia, ib))
    # only unequal leading shapes are broadcast (0.7 ms of the 4.9 ms a verify round spends here)
    if bc.shape[:-1] != shape:
        shape = np.broadcast_shapes(shape, bc.shape[:-1])
        ac, bc = np.broadcast_to(ac, (*shape, na)), np.broadcast_to(bc, (*shape, nb))
    a2, b2 = ac.reshape(-1, na), bc.reshape(-1, nb)
    out = np.empty((len(a2), table.shape[1]))
    step = max(1, _BLOCK_BYTES // max(1, len(rows) * out.itemsize))
    for s in range(0, len(out), step):  # outer terms by einsum: 0.9 ms of the 4.9 ms
        x, y = a2[s:s + step, ia], b2[s:s + step, ib]
        outer = np.einsum("ci,cj->cij", x, y)
        np.matmul(outer.reshape(len(x), len(rows)), rows, out=out[s:s + step])
    return out.reshape(*shape, table.shape[1])


@fixed
def _part_rows(p: int, q: int, masks: tuple[int, ...] | None) -> tuple[np.ndarray, ...]:
    """(rows, left, right) of the blades ``masks``, every blade for None:
    rows[k, i] = i ^ masks[k], left[k, j] = S[rows[k, j], j] and
    right[k, i] = S[i, rows[k, i]], the Cayley table read from either factor."""
    i = np.arange(1 << (p + q))
    rows = (i if masks is None else np.array(masks))[:, None] ^ i
    signs = sign_table(p, q)
    return rows, signs[rows, i].astype(float), signs[i, rows].astype(float)


def _gather(a: Multivector, b: Multivector, masks: tuple[int, ...] | None) -> np.ndarray:
    """Coefficients of ab on ``masks`` (every blade for None) by :func:`_part_rows`:
    a single factor is one fixed matrix applied to the other factor (of two
    single cases, the left one is); two batches are one ``np.vecdot``."""
    a._check_signature(b)
    rows, left, right = _part_rows(a.signature.plus_count, a.signature.minus_count, masks)
    ac, bc = a.coeffs, b.coeffs
    if ac.ndim == 1:
        return bc @ (left * ac[rows]).T
    if bc.ndim == 1:
        return ac @ (right * bc[rows]).T
    return np.vecdot(right, ac[..., None, :] * bc.take(rows, -1))


def product_part(a: Multivector, b: Multivector, masks: Sequence[int]) -> np.ndarray:
    """Coefficients of ab on the blades ``masks`` (last axis) without forming
    ab: ``sum_i S[i, i ^ m] a[i] b[i ^ m]`` for blade m, by :func:`_gather`;
    leading axes broadcast, and an overflowing coefficient is NonFiniteValue."""
    out = _gather(a, b, tuple(masks))
    _require_finite(out)
    return out


def bilinear(x: np.ndarray, table: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_ij x_i table[i, k, j] y_j on the last axis (k) for an (n, K, m)
    table, the leading axes of x and y broadcast: two matmuls a case, one
    path, so a case keeps its bits in a batch."""
    n, k, m = table.shape
    u = np.matmul(x[..., None, :], table.reshape(n, k * m))
    return np.matmul(u.reshape(*u.shape[:-2], k, m), y[..., :, None])[..., 0]


def bilinear_table(a: Multivector, b: Multivector, masks: Sequence[int]) -> np.ndarray:
    """Table T[i, k, j] = (a_i b_j)[masks[k]] of :func:`bilinear` over the
    cases a_i of the batch a and b_j of b, frozen by its :func:`fixed` callers."""
    part = product_part(replace(a, coeffs=a.coeffs[:, None]), b, masks)
    return np.ascontiguousarray(part.transpose(0, 2, 1))


def bracket_ratio(x: np.ndarray, table: np.ndarray, y: np.ndarray, n_x, n_y) -> float:
    """sum_k z_k^2 / (n_x n_y) with z = bilinear(x, table, y): the fidelity
    of two spinors; NonFiniteValue where it is not finite.  Its callers hold
    the ``np.errstate`` that keeps their norms and this ratio from warning."""
    z = bilinear(x, table, y)
    f = np.vecdot(z, z) / (n_x * n_y)
    require(np.isfinite(f), NonFiniteValue, "fidelity leaves the float range")
    return f


def scalar_product(a: Multivector, b: Multivector) -> float:
    """<ab> by :func:`product_part`: a Python number for one case, as ``scalar_part``."""
    out = product_part(a, b, (0,))[..., 0]
    return out if out.ndim else out.item()


def reverse(a: Multivector) -> Multivector:
    """Reversion: grade k picks up (-1)^(k(k-1)/2)."""
    return Multivector._of(a.signature, a.coeffs * _reverse_signs(a.signature.n))


def grade_select(a: Multivector, grades: Iterable[int]) -> Multivector:
    """Keep only coefficients on blades whose grade lies in ``grades``."""
    keep = set(grades)
    n = a.signature.n
    for g in keep:
        if not 0 <= g <= n:
            raise GradeOutOfRange(f"grade {g} not in 0..{n}")
    keep_bits = sum(1 << g for g in keep)
    return Multivector._of(a.signature, np.where(keep_bits >> _grades(n) & 1, a.coeffs, 0.0))


def close(residual: float, scale: float) -> bool:
    """The one tolerance rule: ``residual`` is rounding noise when it is at
    most TOL times ``scale``, the sum of the magnitudes of the terms it was
    computed from (a running-error bound; Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2002).  NaN is never close."""
    return residual <= TOL * scale


def exponent(x: np.ndarray) -> np.ndarray:
    """The e with max|x| 2^-e in [0.5, 1) over the last axis, kept as an axis of 1 (0 where x is
    0): ``np.ldexp(x, -e)`` scales x exactly (Higham, 2002, sec. 2.1), where the factor
    ``np.ldexp(1.0, -e)`` is inf for a subnormal max|x|."""
    return np.frexp(np.maximum.reduce(np.abs(x), axis=-1, keepdims=True))[1]


def vector_square(a: Multivector) -> tuple[float, float]:
    """(a^2, sum of |a_k|^2) of a grade-1 element, from its coefficients; the
    second is the scale of the first.  NotAVector when other grades hold
    more than rounding."""
    p = a.signature.plus_count  # the +1 generators come first
    v = a.vector_components()
    vmag = np.abs(v)
    total = a.abs_sum()
    require(close(total - np.add.reduce(vmag, axis=-1), total), NotAVector,
            lambda k: f"non-vector parts present: {Multivector(a.signature, a.coeffs[k])!r}")
    sq = np.add.reduce(v[..., :p] ** 2, axis=-1) - np.add.reduce(v[..., p:] ** 2, axis=-1)
    return sq, np.add.reduce(vmag * vmag, axis=-1)


def vector_inverse(v: Multivector) -> Multivector:
    """Inverse v / v^2 of a non-null grade-1 element."""
    sq, scale = vector_square(v)
    require(np.logical_not(close(abs(sq), scale)), NullVector,
            lambda k: f"vector square {np.asarray(sq)[k]!r} is zero to rounding")
    return v / sq


def dot(a: Multivector, b: Multivector) -> float:
    """Symmetric inner product (ab+ba)/2 = <ab> of two grade-1 elements."""
    vector_square(a)
    vector_square(b)
    return scalar_product(a, b)


@np.errstate(over="ignore", invalid="ignore")  # typed errors only
def exp_blade(B: Multivector) -> Multivector:
    """Exponential of an element whose square is a real scalar.

    Square -t^2 gives the circular branch cos t + B sin(t)/t, square +f^2
    the hyperbolic branch cosh f + B sinh(f)/f, and square 0 the parabolic
    1 + B; a batch picks the branch per case.  A square that is not a
    scalar raises NonScalarSquare.
    """
    sq_mv = geometric_product(B, B)
    sq = sq_mv.scalar_part
    rest = (sq_mv - sq).max_abs()
    size = B.abs_sum()
    require(close(rest, size * size), NonScalarSquare,
            lambda k: f"B^2 has non-scalar residue {np.asarray(rest)[k]:g}")
    t = np.sqrt(np.abs(sq))
    circular, hyperbolic = sq < 0.0, sq > 0.0
    # both branches run for every case: an overflow in the one a case does not take is
    # discarded; in B^2 or in the one it takes, the finiteness check raises NonFiniteValue
    even = np.where(circular, np.cos(t), np.where(hyperbolic, np.cosh(t), 1.0))
    odd = np.where(circular, np.sin(t), np.where(hyperbolic, np.sinh(t), 1.0))
    return even + (odd / np.where(t == 0.0, 1.0, t)) * B


def residual(a: Multivector, b: Multivector) -> float:
    """Max absolute coefficient difference, per case."""
    a._check_signature(b)
    r = np.maximum.reduce(np.abs(a.coeffs - b.coeffs), axis=-1)
    return r if r.ndim else float(r)  # one case gets a Python float: the contract, not speed


@fixed
def blade_names(signature: Signature) -> tuple[str, ...]:
    """Name of every blade of ``signature``, indexed by mask (one immutable
    tuple per signature)."""
    return tuple(signature.blade_name(m) for m in range(signature.dim))


def column_matrix(columns) -> np.ndarray:
    """Matrix whose column k is case k's coefficients, flattened, frozen by its
    :func:`fixed` callers: ``columns`` is a sequence of single cases or one batch
    whose first axis alone indexes the cases (a (16, 2, 2, 4) ``QuatMatrix2``
    batch gives (16, 16)); ``mat @ coords`` combines the columns with those weights."""
    rows = columns.coeffs if hasattr(columns, "coeffs") else np.stack([c.coeffs for c in columns])
    return np.ascontiguousarray(rows.reshape(len(rows), -1).T)


def blade_images(gens, one):
    """Images of all 2^n blade masks, as one batch indexed by mask, under the
    multiplicative map sending generator k to case k of the batch ``gens``:
    n batched products, the k-th by the image of generator k where the mask
    has bit k and by ``one`` elsewhere, in ascending k.  ``gens`` and ``one``
    are frozen dataclasses with a ``coeffs`` array and a product ``*``
    (a :class:`Multivector` or a ``quatrep.QuatMatrix2``)."""
    masks = np.arange(1 << len(gens.coeffs)).reshape(-1, *(1,) * one.coeffs.ndim)
    out = one
    for k, g in enumerate(gens.coeffs):
        out = out * replace(one, coeffs=np.where(masks >> k & 1, g, one.coeffs))
    return out


@fixed
def pseudoscalar(signature: Signature) -> Multivector:
    return Multivector.blade(signature, signature.dim - 1)


@fixed
def idempotent(signature: Signature, mask: int, sign: int = 1) -> Multivector:
    """(1 + sign * blade)/2 for the blade ``mask``: the spinor-ideal
    idempotents (1 +- e0)/2, (1 +- g0)/2, (1 +- e3)/2 and the spectral ones
    (1 +- e123)/2, (1 +- e0123)/2 of Cl(4,0)."""
    blade = Multivector.blade(signature, mask, float(sign))
    return (Multivector.scalar(signature, 1.0) + blade) * 0.5
