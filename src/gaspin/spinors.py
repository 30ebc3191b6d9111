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

The carrier is linear in the coordinates (a0.s, a0.p, a1.s, a1.p), one cached
frame, and the bracket 2 <rev(a) b>_{0+3} bilinear, one cached table read once off
the products of the frame's columns (the Gram matrix of the unit spinors).
Of the fidelity triple, the bracket and the sandwich m^ pole m^ of :func:`fidelity_bloch`
read products; m^2 and the closed form :func:`fidelity_chart` read the chart numbers.

Each input is checked once, where it enters; every function acts case by case.
A center scalar, s + p*i as one complex value (an array for a batch), is finite
when built; a chart point (a, b) is checked where it is read (:func:`_m_square`,
:func:`antipodal_chart`); :func:`_admissible_norm` squares each component once.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .core import (
    Multivector,
    bilinear,
    bilinear_table,
    bracket_ratio,
    close,
    column_matrix,
    fields_equal,
    fixed,
    geometric_product,
    pseudoscalar,
    require,
    reverse,
    scalar_product,
)
from .errors import DegenerateState, NonFiniteValue, NonTimelike, TagMismatch
from .isomap import AlgebraTag

_VALID_TAGS = (AlgebraTag.PAULI3, AlgebraTag.MINKOWSKI12)

# Generator roles per algebra: carrier index, pole index, ratio-to-chart sign (carrier squared).
_CARRIER = {AlgebraTag.PAULI3: 0, AlgebraTag.MINKOWSKI12: 1}
_POLE = {AlgebraTag.PAULI3: 2, AlgebraTag.MINKOWSKI12: 0}
_CHART_SIGN = {tag: float(tag.signature.metric(k)) for tag, k in _CARRIER.items()}


@dataclass(frozen=True, init=False)
class CenterScalar:
    """s + p*i with i the grade-3 pseudoscalar; the 'complex' coefficients,
    held as one complex value z: a numpy complex for one case, a read-only
    complex array for a batch."""

    z: complex
    __eq__ = fields_equal

    def __init__(self, s: float, p: float) -> None:
        """From the parts, numbers or per-case arrays that broadcast; exact, signed
        zeros included.  NonFiniteValue names the case of a NaN or infinite part."""
        z = np.empty(np.broadcast(s, p).shape, dtype=complex)
        np.copyto(z.real, s, casting="same_kind")  # a complex part is a TypeError
        np.copyto(z.imag, p, casting="same_kind")
        require(np.isfinite(z), NonFiniteValue, "coefficients must be finite")  # s and p
        z.setflags(write=False)
        object.__setattr__(self, "z", z[()])

    @property
    def s(self) -> float:
        return self.z.real

    @property
    def p(self) -> float:
        return self.z.imag

    def abs2(self) -> float:
        z = self.z
        return z.real * z.real + z.imag * z.imag

    def __mul__(self, other: "CenterScalar") -> "CenterScalar":
        (s, p), (t, q) = (self.z.real, self.z.imag), (other.z.real, other.z.imag)
        return CenterScalar(s * t - p * q, s * q + p * t)

    def embed(self, tag: AlgebraTag) -> Multivector:
        """s + p*i in the tag's algebra: s on the blade 1, p on the last one."""
        c = np.zeros((*np.shape(self.z), tag.signature.dim))
        c[..., 0], c[..., -1] = self.s, self.p
        return Multivector(tag.signature, c)


_ONE = CenterScalar(1.0, 0.0)


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
    def from_chart(tag: AlgebraTag, chart: tuple[float, float]) -> "IdealSpinor":
        """Unit-leading spinor whose Bloch chart point is ``chart``."""
        a, b = chart
        return IdealSpinor(tag, _ONE, CenterScalar(a, _CHART_SIGN[tag] * b))


def idempotent(tag: AlgebraTag) -> Multivector:
    """(1 + pole)/2 for the algebra's pole generator."""
    return core.idempotent(tag.signature, 1 << _POLE[tag])


def m_vector(tag: AlgebraTag, chart: tuple[float, float]) -> Multivector:
    """m = x_m + pole, the unnormalized chart lift (x_m on e1, e2 or g1, g2)."""
    a, b = chart
    return Multivector.vector(tag.signature,
                              (a, b, 1.0) if tag is AlgebraTag.PAULI3 else (1.0, a, b))


def chart_lift(tag: AlgebraTag, chart: tuple[float, float]) -> Multivector:
    """Unit Bloch vector a^ = m^ pole m^; sphere for G3, hyperboloid for G1,2."""
    mhat, _ = _unit_m(tag, chart)
    pole = Multivector.basis(tag.signature, _POLE[tag])
    return geometric_product(geometric_product(mhat, pole), mhat)


def _m_square(tag: AlgebraTag, chart: tuple[float, float]) -> tuple[float, float, float]:
    """(a, b, m^2 = 1 + c (a^2 + b^2)) read by :func:`core.real`, c the chart generators' square."""
    a, b = core.real(chart[0]), core.real(chart[1])
    r2 = a * a + b * b
    msq = 1.0 + _CHART_SIGN[tag] * r2
    require(abs(msq) < np.inf, NonFiniteValue, "m^2 leaves the float range")  # NaN too
    require(np.logical_not(close(msq, 1.0 + r2)), NonTimelike, lambda k: "chart point "
            f"{tuple(np.broadcast_to(c, np.shape(msq))[k].item() for c in chart)} "
            "lies outside the hyperboloid chart")
    return a, b, msq


def _unit_m(tag: AlgebraTag, chart: tuple[float, float]) -> tuple[Multivector, float]:
    """(m / sqrt(m^2), sqrt(m^2)): m^2 and m^ off the chart numbers, m^ one vector."""
    a, b, msq = _m_square(tag, chart)
    root = np.sqrt(msq)
    x = [a / root, b / root]
    x.insert(_POLE[tag], 1.0 / root)  # the pole generator: last in G3, first in G1,2
    return Multivector.vector(tag.signature, x), root


def to_multivector(psi: IdealSpinor) -> Multivector:
    """Carrier element (a0 + a1 * carrier) * idempotent."""
    return Multivector(psi.tag.signature, _coords(psi) @ _ideal_frame(psi.tag).T)


def _coords(psi: IdealSpinor) -> np.ndarray:
    """(a0.s, a0.p, a1.s, a1.p) on the last axis, the batch axes of a0 and a1 broadcast."""
    a = np.empty((*np.broadcast(psi.a0.z, psi.a1.z).shape, 2), complex)
    a[..., 0], a[..., 1] = psi.a0.z, psi.a1.z
    return a.view(float)


@fixed
def _ideal_frame(tag: AlgebraTag) -> np.ndarray:
    """Frame (u, i u, c u, i c u) of the spinor ideal over the coordinates,
    with u the idempotent, c the carrier generator and i the pseudoscalar:
    (s + p i) u = s u + p i u."""
    u = idempotent(tag)
    cu = geometric_product(Multivector.basis(tag.signature, _CARRIER[tag]), u)
    i = pseudoscalar(tag.signature)
    return column_matrix([u, i * u, cu, i * cu])


@dataclass(frozen=True)
class CanonicalIdeal:
    """Polar data: carrier = rho * exp(i theta) * m_hat * idempotent."""

    rho: float
    theta: float
    m_hat: Multivector
    chart: tuple[float, float]
    __eq__ = fields_equal


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # typed errors only
def canonical_form(psi: IdealSpinor) -> CanonicalIdeal:
    """Factor out the leading component; refuses the excluded chart point."""
    require(psi.a0.z != 0.0, DegenerateState, "a0 = 0 is the excluded pole of the chart")
    # a1 / a0 without |a0|^2, on both scaled by one power of two (a subnormal a0 overflows inside)
    parts = _coords(psi)
    a = np.ldexp(parts, -core.exponent(parts)).view(complex)
    ratio = a[..., 1] / a[..., 0]
    chart = (ratio.real, _CHART_SIGN[psi.tag] * ratio.imag)
    theta = np.arctan2(psi.a0.p, psi.a0.s)
    m_hat, root = _unit_m(psi.tag, chart)
    # rho = |a0| sqrt(m^2) shares m^2's rounding with m_hat: full accuracy at the chart's edge
    rho = np.hypot(psi.a0.s, psi.a0.p) * root
    require(rho < np.inf, NonFiniteValue, "rho leaves the float range")
    return CanonicalIdeal(rho, theta, m_hat, chart)


def inner(psi: IdealSpinor, chi: IdealSpinor) -> CenterScalar:
    """2 <rev(psi) chi>_{0+3} as a center scalar; conjugate-symmetric."""
    z = bilinear(*_bracket(psi, chi))
    return CenterScalar(z[..., 0], z[..., 1])


def _bracket(psi: IdealSpinor, chi: IdealSpinor) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, T, y): the coordinates of psi and chi and the bracket's table."""
    if psi.tag is not chi.tag:
        raise TagMismatch(f"{psi.tag} vs {chi.tag}")
    return _coords(psi), _bracket_table(psi.tag), _coords(chi)


@fixed
def _bracket_table(tag: AlgebraTag) -> np.ndarray:
    """(4, 2, 4) table of 2 <rev(a) b> on the blade 1 and the pseudoscalar
    over the coordinates, read off the frame's columns."""
    units = Multivector(tag.signature, _ideal_frame(tag).T)
    return bilinear_table(2.0 * reverse(units), units, (0, tag.signature.dim - 1))


def _admissible_norm(psi: IdealSpinor) -> float:
    """|a0|^2 + c^2 |a1|^2 off one square of each, c the carrier generator; NonTimelike (G1,2)
    or DegenerateState unless it is positive relative to |a0|^2 + |a1|^2."""
    n0, n1 = psi.a0.abs2(), psi.a1.abs2()
    n = n0 + _CHART_SIGN[psi.tag] * n1
    ok = np.logical_not(close(n, n0 + n1))
    if psi.tag is AlgebraTag.MINKOWSKI12:
        require(ok, NonTimelike, lambda k: f"norm squared {np.asarray(n)[k]:g} not positive")
    require(ok, DegenerateState, "zero state has no fidelity")
    return n


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # typed errors only
def fidelity(psi: IdealSpinor, chi: IdealSpinor) -> float:
    """<chi|psi><psi|chi> for internally normalized states, by the bracket."""
    return bracket_ratio(*_bracket(psi, chi), _admissible_norm(psi), _admissible_norm(chi))


def fidelity_bloch(tag: AlgebraTag, chart_a, chart_b) -> float:
    """Closed form (1 + a^ . b^)/2 computed from the chart lifts."""
    return 0.5 * (1.0 + scalar_product(chart_lift(tag, chart_a), chart_lift(tag, chart_b)))


def fidelity_chart(tag: AlgebraTag, chart_a, chart_b) -> float:
    """Closed form 1 - (m_a - m_b)^2 / (m_a^2 m_b^2) off the chart numbers, unlike the others."""
    a, b, ma2 = _m_square(tag, chart_a)
    p, q, mb2 = _m_square(tag, chart_b)
    d, e = a - p, b - q
    return 1.0 - _CHART_SIGN[tag] * (d * d + e * e) / (ma2 * mb2)


def antipodal_chart(chart: tuple[float, float]) -> tuple[float, float]:
    """Chart point of the zero-probability partner: -x / x^2.

    On the Bloch sphere this lifts to the antipode -a^; the pole's partner
    would be the excluded south pole, hence the error at the origin.
    """
    a, b = core.real(chart[0]), core.real(chart[1])
    require(np.isfinite(a) & np.isfinite(b), NonFiniteValue, "chart point must be finite")
    r = np.hypot(a, b)  # x^2 would underflow for |x| below 1e-154
    require(r != 0.0, DegenerateState, "antipode of the pole is the excluded chart point")
    return tuple(-(c / r) / r for c in (a, b))
