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
    TOL,
    Multivector,
    Signature,
    dot,
    exp_blade,
    geometric_product,
    grade_select,
    reverse,
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
        if self.a_hat.coefficient(1) < 1.0 - 1e-9:
            raise DomainViolation("hyperboloid points need pole component >= 1")


def _check_unit_vector(a: Multivector, signature: Signature) -> None:
    if a.signature != signature:
        raise NotAVector(f"expected a vector in {signature.generator_labels}")
    rest = grade_select(a, set(range(signature.n + 1)) - {1})
    if rest.max_abs() > TOL:
        raise NotAVector("non-vector parts present")
    sq = geometric_product(a, a).scalar_part
    if abs(sq - 1.0) > 1e-12:
        raise NotAVector(f"vector square {sq!r} is not 1")


def _pole(signature: Signature) -> Multivector:
    return Multivector.basis(signature, 0)


# ------------------------------------------------------------------ sphere


def lift_sphere(x: PlanePoint) -> SpherePoint:
    """x in R^3 -> ((1 - x^2) e0 + 2x) / (1 + x^2) on S^3."""
    r2 = x.norm2
    comps = (1.0 - r2, *(2.0 * c for c in x.x))
    return SpherePoint(Multivector.vector(EUCLIDEAN4, comps) / (1.0 + r2))


def project_sphere(a: SpherePoint) -> PlanePoint:
    """Stereographic projection from -e0; the chart point of a_hat."""
    denom = 1.0 + dot(_pole(EUCLIDEAN4), a.a_hat)
    if denom < TOL:
        raise PoleSingularity("projection undefined at the south pole")
    m = (a.a_hat + _pole(EUCLIDEAN4)) / denom
    return PlanePoint(tuple(m.vector_components()[1:]))


def sphere_angle(x: PlanePoint) -> float:
    """Angle 0 <= theta < pi from the pole to the lifted point."""
    r2 = x.norm2
    return math.atan2(2.0 * math.sqrt(r2), 1.0 - r2)


def sphere_rotor(x: PlanePoint) -> Multivector:
    """Rotor R with R e0 R~ = lift_sphere(x); identity at the origin."""
    r = math.sqrt(x.norm2)
    if r == 0.0:
        return Multivector.scalar(EUCLIDEAN4, 1.0)
    xhat = PlanePoint(tuple(c / r for c in x.x)).as_vector(EUCLIDEAN4)
    plane = geometric_product(xhat, _pole(EUCLIDEAN4))
    return exp_blade((sphere_angle(x) / 2.0) * plane)


def sphere_metric(x: PlanePoint, dx: Sequence[float]) -> tuple[Multivector, float]:
    """Closed-form differential of the lift and its square.

    da = (2 (1+x^2) dx - 4 (x + e0) (x . dx)) / (1+x^2)^2 and
    (da)^2 = 4 dx^2 / (1+x^2)^2.
    """
    r2 = x.norm2
    xdx = sum(a * b for a, b in zip(x.x, dx))
    dxv = PlanePoint(tuple(dx)).as_vector(EUCLIDEAN4)
    m = x.as_vector(EUCLIDEAN4) + _pole(EUCLIDEAN4)
    da = (2.0 * (1.0 + r2) * dxv - 4.0 * xdx * m) / (1.0 + r2) ** 2
    ds2 = geometric_product(da, da).scalar_part
    return da, ds2


# -------------------------------------------------------------- hyperboloid


def _check_open_ball(x: PlanePoint) -> None:
    if x.norm2 >= 1.0:
        raise DomainViolation("hyperbolic chart requires |x| < 1 strictly")


def lift_hyper(x: PlanePoint) -> HyperPoint:
    """x in the open unit ball -> ((1 + x^2) g0 + 2x) / (1 - x^2) on L^3."""
    _check_open_ball(x)
    r2 = x.norm2
    comps = (1.0 + r2, *(2.0 * c for c in x.x))
    return HyperPoint(Multivector.vector(SPACETIME13, comps) / (1.0 - r2))


def project_hyper(a: HyperPoint) -> PlanePoint:
    """Chart point of a hyperboloid point; total on L^3."""
    denom = 1.0 + dot(_pole(SPACETIME13), a.a_hat)
    m = (a.a_hat + _pole(SPACETIME13)) / denom
    return PlanePoint(tuple(m.vector_components()[1:]))


def hyper_angle(x: PlanePoint) -> float:
    """Hyperbolic angle phi >= 0 between g0 and the lifted point."""
    _check_open_ball(x)
    r2 = x.norm2
    return math.atanh(2.0 * math.sqrt(r2) / (1.0 + r2))


def hyper_boost(x: PlanePoint) -> Multivector:
    """Boost R with R g0 R~ = lift_hyper(x); identity at the origin."""
    _check_open_ball(x)
    r = math.sqrt(x.norm2)
    if r == 0.0:
        return Multivector.scalar(SPACETIME13, 1.0)
    xhat = PlanePoint(tuple(c / r for c in x.x)).as_vector(SPACETIME13)
    plane = geometric_product(xhat, _pole(SPACETIME13))
    return exp_blade((hyper_angle(x) / 2.0) * plane)


def hyper_metric(x: PlanePoint, dx: Sequence[float]) -> tuple[Multivector, float]:
    """Closed-form differential of the hyperbolic lift and its square.

    da = (2 (1-x^2) dx + 4 (x + g0) (x . dx)) / (1-x^2)^2 and
    (da)^2 = -4 dx^2 / (1-x^2)^2; the sign flip is the hyperbolic metric.
    """
    _check_open_ball(x)
    r2 = x.norm2
    xdx = sum(a * b for a, b in zip(x.x, dx))
    dxv = PlanePoint(tuple(dx)).as_vector(SPACETIME13)
    m = x.as_vector(SPACETIME13) + _pole(SPACETIME13)
    da = (2.0 * (1.0 - r2) * dxv + 4.0 * xdx * m) / (1.0 - r2) ** 2
    ds2 = geometric_product(da, da).scalar_part
    return da, ds2


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
