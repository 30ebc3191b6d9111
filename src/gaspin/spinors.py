"""2-component spinors as right-ideal elements of G3 and G1,2.

A spinor is a pair of center scalars (s + p*i with i the unit pseudoscalar,
which commutes with everything and squares to -1) attached to the ideal of
u+ = (1+e3)/2 in the Pauli algebra or v+ = (1+g0)/2 in the Minkowski plane
algebra: the carrier element is (a0 + a1*e1) u+ or (a0 + a1*g1) v+.

The ratio a1/a0 is a stereographic chart on the Bloch sphere (Pauli) or the
Bloch hyperboloid (Minkowski): writing a1/a0 = a + b*i, the chart vector is
a*e1 + b*e2 in G3 and a*g1 - b*g2 in G1,2.  The Minkowski sign is fixed by
requiring the canonical reconstruction rho * exp(i theta) * mhat * v+ to
reproduce the carrier (i*g1*v+ = -g2*v+).

Fidelities normalize internally, so callers pass raw states.  The Pauli
fidelity is a probability in [0,1]; the Minkowski analogue is >= 1 and is
reported as the Bloch-hyperboloid quantity.

The carrier is linear in (a0.s, a1.s, a0.p, a1.p): one product with the
cached frame of the ideal, derived once from the geometric products it
replaces, whose pseudo-inverse :func:`from_multivector` applies.

Center scalars, spinors and chart points may hold arrays of one shape: a
batch of states, on which every function acts case by case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    Multivector,
    as_cases,
    close,
    fields_equal,
    frame,
    geometric_product,
    grade_select,
    pseudoscalar,
    require,
    residual,
    reverse,
    stack_cases,
)
from .errors import DegenerateState, NonTimelike, NotInIdeal, TagMismatch
from .isomap import AlgebraTag

_VALID_TAGS = (AlgebraTag.PAULI3, AlgebraTag.MINKOWSKI12)

# Generator roles per algebra: (carrier index, pole index, ratio-to-chart sign).
_CARRIER = {AlgebraTag.PAULI3: 0, AlgebraTag.MINKOWSKI12: 1}
_POLE = {AlgebraTag.PAULI3: 2, AlgebraTag.MINKOWSKI12: 0}
_CHART_SIGN = {AlgebraTag.PAULI3: 1.0, AlgebraTag.MINKOWSKI12: -1.0}


@dataclass(frozen=True)
class CenterScalar:
    """s + p*i with i the grade-3 pseudoscalar; the 'complex' coefficients."""

    s: float
    p: float
    __eq__ = fields_equal

    def __post_init__(self) -> None:
        s, p = as_cases((self.s, self.p))
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "p", p)

    def conj(self) -> "CenterScalar":
        return CenterScalar(self.s, -self.p)

    def abs2(self) -> float:
        return self.s * self.s + self.p * self.p

    def scale(self, a: float) -> "CenterScalar":
        return CenterScalar(a * self.s, a * self.p)

    def __add__(self, other: "CenterScalar") -> "CenterScalar":
        return CenterScalar(self.s + other.s, self.p + other.p)

    def __sub__(self, other: "CenterScalar") -> "CenterScalar":
        return CenterScalar(self.s - other.s, self.p - other.p)

    def __mul__(self, other: "CenterScalar") -> "CenterScalar":
        return CenterScalar(
            self.s * other.s - self.p * other.p, self.s * other.p + self.p * other.s
        )

    def __neg__(self) -> "CenterScalar":
        return self.scale(-1.0)

    def embed(self, tag: AlgebraTag) -> Multivector:
        """s + p*i in the tag's algebra: s on the blade 1, p on the last one."""
        zeros = (0.0,) * (tag.signature.dim - 2)
        return Multivector(tag.signature, stack_cases((self.s, *zeros, self.p)))


@dataclass(frozen=True)
class IdealSpinor:
    """2-component spinor (a0, a1) in the u+/v+ right ideal of its algebra."""

    tag: AlgebraTag
    a0: CenterScalar
    a1: CenterScalar

    def __post_init__(self) -> None:
        if self.tag not in _VALID_TAGS:
            raise TagMismatch(f"ideal spinors live in G3 or G1,2, not {self.tag}")

    @staticmethod
    def of(tag: AlgebraTag, a0, a1) -> "IdealSpinor":
        def coerce(v):
            if isinstance(v, CenterScalar):
                return v
            if isinstance(v, tuple):
                return CenterScalar(*v)
            return CenterScalar(float(v), 0.0)

        return IdealSpinor(tag, coerce(a0), coerce(a1))

    @staticmethod
    def from_chart(tag: AlgebraTag, chart: tuple[float, float]) -> "IdealSpinor":
        """Unit-leading spinor whose Bloch chart point is ``chart``."""
        a, b = as_cases(chart)
        return IdealSpinor(
            tag, CenterScalar(1.0, 0.0), CenterScalar(a, _CHART_SIGN[tag] * b)
        )


@lru_cache(maxsize=None)
def idempotent(tag: AlgebraTag) -> Multivector:
    """(1 + pole)/2 for the algebra's pole generator."""
    sig = tag.signature
    return (Multivector.scalar(sig, 1.0) + Multivector.basis(sig, _POLE[tag])) * 0.5


@lru_cache(maxsize=None)
def pole_vector(tag: AlgebraTag) -> Multivector:
    return Multivector.basis(tag.signature, _POLE[tag])


def m_vector(tag: AlgebraTag, chart: tuple[float, float]) -> Multivector:
    """m = x_m + pole, the unnormalized chart lift (x_m on e1, e2 or g1, g2)."""
    a, b = chart
    return Multivector.vector(tag.signature,
                              (a, b, 1.0) if tag is AlgebraTag.PAULI3 else (1.0, a, b))


def chart_lift(tag: AlgebraTag, chart: tuple[float, float]) -> Multivector:
    """Unit Bloch vector a^ = m^ pole m^; sphere for G3, hyperboloid for G1,2."""
    mhat, _ = _unit_m(tag, chart)
    return geometric_product(geometric_product(mhat, pole_vector(tag)), mhat)


def _unit_m(tag: AlgebraTag, chart: tuple[float, float]) -> tuple[Multivector, float]:
    """(m / sqrt(m^2), sqrt(m^2)); NonTimelike where m^2 is not positive."""
    m = m_vector(tag, chart)
    msq = geometric_product(m, m).scalar_part
    require(np.logical_not(close(msq, np.add.reduce(m.coeffs * m.coeffs, axis=-1))), NonTimelike,
            lambda k: f"chart point {tuple(np.asarray(c)[k].item() for c in chart)} "
                      "lies outside the hyperboloid chart")
    root = np.sqrt(msq)
    return m / root, root


def to_multivector(psi: IdealSpinor) -> Multivector:
    """Carrier element (a0 + a1 * carrier) * idempotent."""
    a0, a1 = psi.a0, psi.a1
    mat, _ = _ideal_frame(psi.tag)
    return Multivector(psi.tag.signature, stack_cases((a0.s, a1.s, a0.p, a1.p)).dot(mat.T))


@lru_cache(maxsize=None)
def _ideal_frame(tag: AlgebraTag) -> tuple[np.ndarray, np.ndarray]:
    """Frame (u, carrier u, i u, i carrier u) of the spinor ideal."""
    u = idempotent(tag)
    carrier = Multivector.basis(tag.signature, _CARRIER[tag])
    i = pseudoscalar(tag.signature)
    cu = geometric_product(carrier, u)
    return frame([u, cu, geometric_product(i, u), geometric_product(i, cu)])


def from_multivector(m: Multivector, tag: AlgebraTag) -> IdealSpinor:
    """Invert :func:`to_multivector`; raises NotInIdeal off the ideal."""
    if m.signature != tag.signature:
        raise TagMismatch("multivector signature does not match the tag")
    scale = m.abs_sum()
    require(close(residual(geometric_product(m, idempotent(tag)), m), scale), NotInIdeal,
            "element is not fixed by right multiplication with u+")
    mat, pinv = _ideal_frame(tag)
    sol = m.coeffs @ pinv.T
    require(close(residual(Multivector(tag.signature, sol @ mat.T), m), scale), NotInIdeal,
            "element has components outside the spinor ideal")
    return IdealSpinor(tag, CenterScalar(sol[..., 0], sol[..., 2]),
                       CenterScalar(sol[..., 1], sol[..., 3]))


def braket(psi: IdealSpinor) -> tuple[Multivector, Multivector]:
    """(ket, bra) = (sqrt2 * carrier, sqrt2 * reversed carrier)."""
    ket = math.sqrt(2.0) * to_multivector(psi)
    return ket, reverse(ket)


@dataclass(frozen=True)
class CanonicalIdeal:
    """Polar data: carrier = rho * exp(i theta) * m_hat * idempotent."""

    rho: float
    theta: float
    m_hat: Multivector
    chart: tuple[float, float]
    __eq__ = fields_equal


def norm2(psi: IdealSpinor) -> float:
    """Squared norm: |a0|^2 + |a1|^2 in G3, |a0|^2 - |a1|^2 in G1,2."""
    if psi.tag is AlgebraTag.PAULI3:
        return psi.a0.abs2() + psi.a1.abs2()
    return psi.a0.abs2() - psi.a1.abs2()


def canonical_form(psi: IdealSpinor) -> CanonicalIdeal:
    """Factor out the leading component; refuses the excluded chart point."""
    # any other a0 is a chart point
    require((psi.a0.s != 0.0) | (psi.a0.p != 0.0), DegenerateState,
            "a0 = 0 is the excluded pole of the chart")
    # a1 / a0 without |a0|^2, which underflows for |a0| below 1e-154
    ratio = (psi.a1.s + 1j * psi.a1.p) / (psi.a0.s + 1j * psi.a0.p)
    chart = (ratio.real, _CHART_SIGN[psi.tag] * ratio.imag)
    theta = np.arctan2(psi.a0.p, psi.a0.s)
    m_hat, root = _unit_m(psi.tag, chart)
    # rho = |a0| sqrt(m^2) shares the rounding of m^2 with m_hat, so rho m_hat
    # keeps full accuracy at the edge of the Minkowski chart
    return CanonicalIdeal(np.hypot(psi.a0.s, psi.a0.p) * root, theta, m_hat, chart)


def inner(psi: IdealSpinor, chi: IdealSpinor) -> CenterScalar:
    """2 <rev(psi) chi>_{0+3} as a center scalar; conjugate-symmetric."""
    if psi.tag is not chi.tag:
        raise TagMismatch(f"{psi.tag} vs {chi.tag}")
    prod = geometric_product(reverse(to_multivector(psi)), to_multivector(chi))
    proj = grade_select(prod, {0, 3})
    sig = psi.tag.signature
    return CenterScalar(2.0 * proj.coefficient(0), 2.0 * proj.coefficient(sig.dim - 1))


def _admissible_norm(psi: IdealSpinor) -> float:
    n = norm2(psi)
    ok = np.logical_not(close(n, psi.a0.abs2() + psi.a1.abs2()))
    if psi.tag is AlgebraTag.MINKOWSKI12:
        require(ok, NonTimelike, lambda k: f"norm squared {np.asarray(n)[k]:g} not positive")
    require(ok, DegenerateState, "zero state has no fidelity")
    return n


def fidelity(psi: IdealSpinor, chi: IdealSpinor) -> float:
    """<chi|psi><psi|chi> for internally normalized states.

    Bloch-sphere probability in [0,1] for G3; the analogous hyperboloid
    quantity (>= 1, not a probability) for G1,2.
    """
    if psi.tag is not chi.tag:
        raise TagMismatch(f"{psi.tag} vs {chi.tag}")
    n_psi = _admissible_norm(psi)
    n_chi = _admissible_norm(chi)
    z = inner(psi, chi)
    return z.abs2() / (n_psi * n_chi)


def fidelity_bloch(tag: AlgebraTag, chart_a, chart_b) -> float:
    """Closed form (1 + a^ . b^)/2 computed from the chart lifts."""
    a = chart_lift(tag, chart_a)
    b = chart_lift(tag, chart_b)
    return 0.5 * (1.0 + 0.5 * (a * b + b * a).scalar_part)


def fidelity_chart(tag: AlgebraTag, chart_a, chart_b) -> float:
    """Closed form 1 - (m_a - m_b)^2 / (m_a^2 m_b^2) on chart points."""
    ma = m_vector(tag, chart_a)
    mb = m_vector(tag, chart_b)
    d = ma - mb
    d2 = geometric_product(d, d).scalar_part
    ma2 = geometric_product(ma, ma).scalar_part
    mb2 = geometric_product(mb, mb).scalar_part
    return 1.0 - d2 / (ma2 * mb2)


def antipodal_chart(chart: tuple[float, float]) -> tuple[float, float]:
    """Chart point of the zero-probability partner: -x / x^2.

    On the Bloch sphere this lifts to the antipode -a^; the pole's partner
    would be the excluded south pole, hence the error at the origin.
    """
    r = np.hypot(*chart)  # x^2 would underflow for |x| below 1e-154
    require(r != 0.0, DegenerateState, "antipode of the pole is the excluded chart point")
    return tuple(-(c / r) / r for c in chart)
