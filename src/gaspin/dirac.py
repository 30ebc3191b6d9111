"""Classical 4-component Dirac columns and their real spinor images.

The spectral idempotents u(s,t) = (1 + s g0)(1 + t j g12)/4, j the
classical imaginary unit, are four annihilating idempotents, which Cl(1,3),
2x2 over the quaternions, cannot hold.  Its complexification is a real
algebra, C (x) Cl(1,3) ~ Cl(4,1), whose pseudoscalar I = e12345 is central
with I^2 = -1: under g0 -> e1, g_k -> I e(k+1) (one ``core.blade_images``
matrix, as in ``isomap``) and j -> I the u(s,t) are real multivectors.

On the ideal j is right multiplication by g21 = -g12, so a column's image
(phi1 + phi2 e13 + phi3 e3 + phi4 e1) u(+,+) is re + j re g12 with re in
the left ideal Cl(1,3) v+, Hestenes' real Dirac spinor (J. Math. Phys. 8,
1967): one real (16, 8) frame over the column's 8 reals.  A
:class:`DiracCarrier` holds re and derives im = re g12 for the two readers
of both parts, the CLI's carrier lines and the benchmark's round-trip check.
The sign convention is J = -j i with i = g0123: v+ (1 + J e3)/2 = u(+,+)
with e3 the image of the Euclidean e3 (J = +j i gives u(+,-)).  Then
re = (q0 + q1 i) v+/2 with the quaternion pair read off by the transpose of
the carrier frame, whose columns are orthogonal with squared norm exactly
1/2 (integer columns give their quaternions exactly), and

    phi1 = x0 + j x3,  phi2 = -x2 + j x1,
    phi3 = -y3 + j y0, phi4 = -y1 - j y2.

A column holds its four complex components on the last axis of one array;
leading axes index a batch of columns, mapped case by case.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    EUCLIDEAN4,
    SPACETIME13,
    Multivector,
    Signature,
    blade_images,
    close,
    column_matrix,
    exponent,
    fields_equal,
    fixed,
    freeze,
    idempotent,
    pseudoscalar,
    require,
    residual,
)
from .errors import NotInIdeal
from .isomap import AlgebraTag, euclidean_to_spacetime
from .quatspinor import QuatSpinor, carrier_coords, carrier_frame, from_carrier_coords

_SIG = SPACETIME13
#: C (x) Cl(1,3) as a real algebra; its pseudoscalar e12345 plays j.
CL41 = Signature(4, 1, ("e1", "e2", "e3", "e4", "e5"))


# ------------------------------------------------------------- the ideal kit


@fixed
def j_blade() -> Multivector:
    """g21 = -g12: right multiplication by it realizes j on the ideal."""
    return Multivector.blade(_SIG, 0b0110, -1.0)


@fixed
def _cl41_matrix() -> np.ndarray:
    """(32, 16) matrix of g0 -> e1, g_k -> I e(k+1), read off :func:`core.blade_images`."""
    unit, i5 = np.eye(CL41.dim), pseudoscalar(CL41).coeffs
    gens = Multivector(CL41, unit[[1, 2, 4, 8]]) * Multivector(CL41, [unit[0], i5, i5, i5])
    return column_matrix(blade_images(gens, Multivector.scalar(CL41, 1.0)))


def to_cl41(m: Multivector) -> Multivector:
    """Image of a Cl(1,3) element in Cl(4,1)."""
    return Multivector(CL41, m.coeffs @ _cl41_matrix().T)


def dirac_idempotent(s, t) -> Multivector:
    """u(s,t) = (1 + s g0)(1 + t j g12)/4 in Cl(4,1), with j = I; arrays of
    signs give a batch."""
    base = to_cl41((Multivector.scalar(_SIG, 1.0) + s * Multivector.basis(_SIG, 0)) * 0.25)
    return base - t * (base * to_cl41(j_blade()) * pseudoscalar(CL41))


@fixed
def carrier_blades() -> Multivector:
    """Images b_k of (1, e13, e3, e1) in Cl(1,3), one batch: the Dirac column frame."""
    return euclidean_to_spacetime(Multivector(EUCLIDEAN4, np.eye(16)[[0, 0b1010, 0b1000, 0b0010]]))


@fixed
def _column_frame() -> np.ndarray:
    """Real (16, 8) frame b_k v+/2, b_k v+ g21/2 from the products: ``frame @ reals``
    is the real part of (sum_k phi_k b_k) u(+,+) for a column's (re, im) pairs."""
    half = carrier_blades() * idempotent(_SIG, 0b0001) * 0.5
    pairs = np.stack([half.coeffs, (half * j_blade()).coeffs], axis=1)
    return column_matrix(Multivector(_SIG, pairs.reshape(8, _SIG.dim)))


@dataclass(frozen=True)
class DiracSpinor:
    """Classical 4-component column: ``components[..., :]`` holds the four
    complex numbers in one read-only array, a view of the array it is given;
    leading axes index a batch of columns."""

    components: np.ndarray
    __eq__ = fields_equal

    def __post_init__(self) -> None:
        freeze(self, "components", np.asarray(self.components, dtype=complex).view(), (4,))

    @staticmethod
    def from_reals(vals) -> "DiracSpinor":
        """Column of 8 reals (re, im per component) on the last axis."""
        vals = np.array(vals, dtype=float, order="C")  # a copy, viewed as complex pairs
        if vals.shape[-1:] != (8,):
            raise ValueError("need 8 reals: (re, im) per component")
        return DiracSpinor(vals.view(complex))


@dataclass(frozen=True)
class DiracCarrier:
    """Image of a Dirac column: ``re`` is an element (a batch for a batch of
    columns) of the ideal Cl(1,3) v+, and the imaginary part is re g12."""

    re: Multivector
    __eq__ = fields_equal

    @property
    def im(self) -> Multivector:
        return -(self.re * j_blade())


# ------------------------------------------------------------------- the map


def dirac_to_geometric(phi: DiracSpinor) -> DiracCarrier:
    """(phi1 + phi2 e13 + phi3 e3 + phi4 e1) u(+,+), by one real frame."""
    reals = np.ascontiguousarray(phi.components).view(float)
    return DiracCarrier(Multivector(_SIG, reals @ _column_frame().T))


def j_action(c: DiracCarrier) -> DiracCarrier:
    """j on the image: right multiplication of re by g21."""
    return DiracCarrier(c.re * j_blade())


def geometric_to_qspinor(c: DiracCarrier) -> QuatSpinor:
    """Extract (q0, q1) with re = (q0 + q1 i) v+/2; NotInIdeal otherwise.  Both run on re scaled
    up by its :func:`core.exponent`, exactly, so a subnormal re keeps its digits."""
    e = np.minimum(exponent(c.re.coeffs), 0)  # scaling down would drop a column's tiny terms
    re = np.ldexp(c.re.coeffs, -e)
    # re is half a carrier, whose coordinates are twice its products with the frame
    coords = 4.0 * (re @ carrier_frame())
    off = np.abs(coords @ carrier_frame().T * 0.5 - re).max(axis=-1)  # qspinor_to_geometric
    require(close(off, np.abs(re).sum(axis=-1)), NotInIdeal,
            "element has components outside the Dirac ideal")
    return from_carrier_coords(np.ldexp(coords, e), AlgebraTag.SPACETIME13)


def qspinor_to_geometric(psi: QuatSpinor) -> DiracCarrier:
    """(q0 + q1 i) u(+,+): re is the quaternion-spinor carrier halved."""
    return DiracCarrier(Multivector(_SIG, carrier_coords(psi) @ carrier_frame().T * 0.5))


#: The component dictionary over (x0..x3, y0..y3), one row per component.
_DICTIONARY = np.array([[1, 0, 0, 1j, 0, 0, 0, 0],     # phi1 = x0 + j x3
                        [0, 1j, -1, 0, 0, 0, 0, 0],    # phi2 = -x2 + j x1
                        [0, 0, 0, 0, 1j, 0, 0, -1],    # phi3 = -y3 + j y0
                        [0, 0, 0, 0, 0, -1, -1j, 0]])  # phi4 = -y1 - j y2


def qspinor_to_dirac(psi: QuatSpinor) -> DiracSpinor:
    """Component dictionary tying the column to the quaternion pair."""
    return DiracSpinor(carrier_coords(psi) @ _DICTIONARY.T)


def dirac_roundtrip_residual(phi: DiracSpinor) -> float:
    """Residual of dirac -> geometric -> quaternion -> dirac -> geometric."""
    m = dirac_to_geometric(phi)
    back = dirac_to_geometric(qspinor_to_dirac(geometric_to_qspinor(m)))
    return residual(back.re, m.re)

