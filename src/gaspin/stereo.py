"""Stereographic projection onto the unit 3-sphere and the hyperboloid.

Both charts share one formula, m = 2/(a + pole) = x_m + pole, projecting
from the point opposite the pole.  On S^3 in Cl(4,0) the pole is e0 and the
chart covers everything but -e0; on the hyperboloid L^3 in Cl(1,3) the pole
is g0 and the chart is the open unit ball |x| < 1 (the Poincare ball).  The
rotor exp(theta xhat e0 / 2) rotates the pole onto the lifted point; the
boost exp(phi xhat / 2) does the same hyperbolically.  Induced metrics come
from the closed-form differential of the lift; finite differences are kept
out of this module so tests can compare two independent routes.

The pole is always generator 0 of the active signature.  Other pole
conventions (e.g. the Riemann sphere with pole e3) are reached through
:func:`permute_generators` rather than a second code path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    EUCLIDEAN4,
    SPACETIME13,
    Multivector,
    Signature,
    close,
    geometric_product,
    reverse,
    vector_square,
)
from .errors import DomainViolation, NotAVector, PoleSingularity


@dataclass(frozen=True)
class PlanePoint:
    """Chart point: components on the non-pole generators."""

    x: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", tuple(float(c) for c in self.x))

    @staticmethod
    def of(*components: float) -> "PlanePoint":
        return PlanePoint(tuple(components))

    @property
    def norm2(self) -> float:
        return sum(c * c for c in self.x)

    def as_vector(self, signature: Signature) -> Multivector:
        """Grade-1 element with zero pole component."""
        return Multivector.vector(signature, (0.0, *self.x))


@dataclass(frozen=True)
class SpherePoint:
    """Unit vector on S^3 in Cl(4,0)."""

    a_hat: Multivector

    def __post_init__(self) -> None:
        _check_unit_vector(self.a_hat, EUCLIDEAN4)


@dataclass(frozen=True)
class HyperPoint:
    """Unit timelike vector on the upper hyperboloid L^3 in Cl(1,3)."""

    a_hat: Multivector

    def __post_init__(self) -> None:
        _check_unit_vector(self.a_hat, SPACETIME13)
        # a unit timelike vector has pole component >= 1 or <= -1
        if self.a_hat.coefficient(1) <= 0.0:
            raise DomainViolation("hyperboloid points need pole component >= 1")


def _check_unit_vector(a: Multivector, signature: Signature) -> None:
    if a.signature != signature:
        raise NotAVector(f"expected a vector in {signature.generator_labels}")
    sq, scale = vector_square(a)
    if not close(abs(sq - 1.0), 1.0 + scale):
        raise NotAVector(f"vector square {sq!r} is not 1")


def _pole(signature: Signature) -> Multivector:
    return Multivector.basis(signature, 0)


# ------------------------------------------------------------------ sphere


def lift_sphere(x: PlanePoint) -> SpherePoint:
    """x in R^3 -> ((1 - x^2) e0 + 2x) / (1 + x^2) on S^3."""
    r2 = x.norm2
    d = 1.0 + r2
    comps = ((1.0 - r2) / d, *(2.0 * c / d for c in x.x))
    return SpherePoint(Multivector.vector(EUCLIDEAN4, comps))


def project_sphere(a: SpherePoint) -> PlanePoint:
    """Stereographic projection from -e0; the chart point a / (1 + a0).

    On the southern half 1 + a0 cancels, so it is taken as |a|^2 / (1 - a0),
    which keeps full relative accuracy up to the pole, where it is 0.
    """
    a0, rest = a.a_hat.coefficient(1), a.a_hat.coeffs[[2, 4, 8]]
    denom = 1.0 + a0 if a0 >= 0.0 else float(rest @ rest) / (1.0 - a0)
    if denom == 0.0:
        raise PoleSingularity("projection undefined at the south pole")
    return PlanePoint(tuple(rest / denom))


def sphere_angle(x: PlanePoint) -> float:
    """Angle 0 <= theta < pi from the pole to the lifted point."""
    r2 = x.norm2
    return math.atan2(2.0 * math.sqrt(r2), 1.0 - r2)


def _pole_rotor(x: PlanePoint, signature: Signature, norm: float) -> Multivector:
    """(1 + x pole) / norm with norm = sqrt(1 + x^2) on the sphere and
    sqrt(1 - x^2) on the hyperboloid: the closed form of exp(angle xhat pole / 2).
    It shares the lift's denominator, so R pole R~ matches the lift to the
    edge of the ball, where the angle route loses 1 - |x| to rounding."""
    return (1.0 + geometric_product(x.as_vector(signature), _pole(signature))) / norm


def sphere_rotor(x: PlanePoint) -> Multivector:
    """Rotor R with R e0 R~ = lift_sphere(x); identity at the origin."""
    return _pole_rotor(x, EUCLIDEAN4, math.hypot(1.0, *x.x))


def sphere_metric(x: PlanePoint, dx: Sequence[float]) -> tuple[Multivector, float]:
    """Closed-form differential of the lift and its square.

    da = (2 (1+x^2) dx - 4 (x + e0) (x . dx)) / (1+x^2)^2 and
    (da)^2 = 4 dx^2 / (1+x^2)^2.
    """
    return _lift_differential(x, dx, EUCLIDEAN4, 1.0)


def _lift_differential(x: PlanePoint, dx: Sequence[float], signature: Signature, s: float):
    """da = (2 d dx - 4 s (x + pole) (x . dx)) / d^2 with d = 1 + s x^2, and
    (da)^2; s = 1 on the sphere, -1 on the hyperboloid."""
    d = 1.0 + s * x.norm2
    xdx = sum(a * b for a, b in zip(x.x, dx))
    dxv = PlanePoint(tuple(dx)).as_vector(signature)
    m = x.as_vector(signature) + _pole(signature)
    da = (2.0 * d * dxv - (4.0 * s * xdx) * m) / (d * d)  # d ** 2 raises on overflow
    return da, geometric_product(da, da).scalar_part


# -------------------------------------------------------------- hyperboloid


def _check_open_ball(x: PlanePoint) -> None:
    if x.norm2 >= 1.0:
        raise DomainViolation("hyperbolic chart requires |x| < 1 strictly")


def lift_hyper(x: PlanePoint) -> HyperPoint:
    """x in the open unit ball -> ((1 + x^2) g0 + 2x) / (1 - x^2) on L^3."""
    _check_open_ball(x)
    r2 = x.norm2
    d = 1.0 - r2
    comps = ((1.0 + r2) / d, *(2.0 * c / d for c in x.x))
    return HyperPoint(Multivector.vector(SPACETIME13, comps))


def project_hyper(a: HyperPoint) -> PlanePoint:
    """Chart point a / (1 + a0) of a hyperboloid point; total on L^3."""
    return PlanePoint(tuple(a.a_hat.coeffs[[2, 4, 8]] / (1.0 + a.a_hat.coefficient(1))))


def hyper_angle(x: PlanePoint) -> float:
    """Hyperbolic angle phi = 2 atanh|x| >= 0 between g0 and the lifted point
    (the form atanh(2|x|/(1+x^2)) rounds its argument to 1 near the edge)."""
    _check_open_ball(x)
    return 2.0 * math.atanh(math.sqrt(x.norm2))


def hyper_boost(x: PlanePoint) -> Multivector:
    """Boost R with R g0 R~ = lift_hyper(x); identity at the origin."""
    _check_open_ball(x)
    return _pole_rotor(x, SPACETIME13, math.sqrt(1.0 - x.norm2))


def hyper_metric(x: PlanePoint, dx: Sequence[float]) -> tuple[Multivector, float]:
    """Closed-form differential of the hyperbolic lift and its square.

    da = (2 (1-x^2) dx + 4 (x + g0) (x . dx)) / (1-x^2)^2 and
    (da)^2 = -4 dx^2 / (1-x^2)^2; the sign flip is the hyperbolic metric.
    """
    _check_open_ball(x)
    return _lift_differential(x, dx, SPACETIME13, -1.0)


def rotor_apply(rotor: Multivector, a: Multivector) -> Multivector:
    """Two-sided sandwich R a R~."""
    return geometric_product(geometric_product(rotor, a), reverse(rotor))


# ----------------------------------------------------- generator permutation


def permute_generators(a: Multivector, perm: Sequence[int]) -> Multivector:
    """Relabel generator k as perm[k], with the blade reordering sign.

    Only metric-preserving permutations are allowed (perm[k] must square
    like k), so the result lives in the same algebra.
    """
    sig = a.signature
    if sorted(perm) != list(range(sig.n)):
        raise ValueError("perm must be a permutation of the generator indices")
    for k in range(sig.n):
        if sig.metric(perm[k]) != sig.metric(k):
            raise ValueError("permutation must preserve generator squares")
    out = np.zeros(sig.dim)
    for mask in range(sig.dim):
        if a.coeffs[mask] == 0.0:
            continue
        gens = sorted(perm[k] for k in range(sig.n) if mask >> k & 1)
        # Sign = parity of the permutation restricted to this blade.
        raw = [perm[k] for k in range(sig.n) if mask >> k & 1]
        sign = 1
        for i in range(len(raw)):
            for j in range(i + 1, len(raw)):
                if raw[i] > raw[j]:
                    sign = -sign
        new_mask = 0
        for g in gens:
            new_mask |= 1 << g
        out[new_mask] += sign * a.coeffs[mask]
    return Multivector(sig, out)
