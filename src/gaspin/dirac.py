"""Classical 4-component Dirac columns and their spinor-ideal images.

The spectral basis behind Dirac columns uses the four idempotents
u(s,t) = (1 + s g0)(1 + t j g12)/4 with j the classical imaginary unit.
Because g12 anticommutes with nothing that would save it, no real
multivector can play j's role here: Cl(1,3) is a 2x2 quaternion matrix
algebra, which admits at most two annihilating idempotents, while the
spectral basis needs four.  They exist only in the complexified algebra
C (x) Cl(1,3) ~ M4(C), so here j is Python's ``1j`` on the complex
coefficients of a ``core.Multivector``.  The engine's product is linear,
so everything stays ga-core arithmetic.

On the carrier ideal the classical j acts as right multiplication by
g21 = -g12, exactly (j u = g21 u holds coefficient by coefficient).  The
operative sign convention is J = -j i with i = g0123: then
v+ (1 + J e3)/2 = u(+,+) with e3 the image of the Euclidean e3, while
J = +j i would land on u(+,-).  A column
(phi1..phi4) maps to (phi1 + phi2 e13 + phi3 e3 + phi4 e1) u(+,+) with the
Euclidean blade names standing for their spacetime images; the inverse
extracts the quaternion pair (q0, q1) with carrier (q0 + q1 i) u(+,+) by
the transpose of the carrier frame, whose columns are orthogonal with
squared norm exactly 1/2 (no least-squares fit: integer columns give their
quaternions exactly), and the component dictionary is

    phi1 = x0 + j x3,  phi2 = -x2 + j x1,
    phi3 = -y3 + j y0, phi4 = -y1 - j y2.

Real parts determine everything: im = re g12 (re = im g21) on the ideal.
Residuals between complex elements are moduli of coefficient differences.
A column holds its four complex components on the last axis of one array;
leading axes index a batch of columns, mapped case by case.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    EUCLIDEAN4,
    SPACETIME13,
    Multivector,
    close,
    column_matrix,
    fields_equal,
    require,
    residual,
)
from .errors import NonFiniteValue, NotInIdeal
from .isomap import AlgebraTag, euclidean_to_spacetime
from .quatspinor import QuatSpinor, carrier_coords, carrier_frame, from_carrier_coords

_SIG = SPACETIME13


# ------------------------------------------------------------- the ideal kit


@lru_cache(maxsize=None)
def j_blade() -> Multivector:
    """g21 = -g12: right multiplication by it realizes j on the ideal."""
    return Multivector.blade(_SIG, 0b0110, -1.0)


@lru_cache(maxsize=None)
def _idempotents() -> Multivector:
    """u(s,t) = (1 + s g0)(1 + t j g12)/4 in the complexified algebra, one
    batch over (s, t) = (+,+), (+,-), (-,+), (-,-)."""
    s, t = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]).T
    base = (Multivector.scalar(_SIG, 1.0) + s * Multivector.basis(_SIG, 0)) * 0.25
    return base - (t * 1j) * (base * j_blade())


@lru_cache(maxsize=None)
def dirac_idempotent(s: int, t: int) -> Multivector:
    """u(s,t), one case of :func:`_idempotents`."""
    return Multivector(_SIG, _idempotents().coeffs[(1 - s) + (1 - t) // 2])


@lru_cache(maxsize=None)
def carrier_blades() -> tuple[Multivector, ...]:
    """Images of (1, e13, e3, e1) in Cl(1,3): the Dirac column frame."""
    masks = (0, 0b1010, 0b1000, 0b0010)  # 1, e13, e3, e1
    return tuple(
        euclidean_to_spacetime(Multivector.blade(EUCLIDEAN4, m)) for m in masks
    )


@lru_cache(maxsize=None)
def _column_frame() -> np.ndarray:
    """Complex columns blade_k u(+,+) of the carrier blades, from the products:
    ``mat @ phi`` is (sum_k phi_k blade_k) u(+,+)."""
    return column_matrix([b * dirac_idempotent(+1, +1) for b in carrier_blades()])


@dataclass(frozen=True)
class DiracSpinor:
    """Classical 4-component column: ``components[..., :]`` holds the four
    complex numbers in one read-only array, a view of the array it is given;
    leading axes index a batch of columns."""

    components: np.ndarray
    __eq__ = fields_equal

    def __post_init__(self) -> None:
        comps = np.asarray(self.components, dtype=complex).view()
        if comps.shape[-1:] != (4,):
            raise ValueError("a Dirac column has exactly 4 complex components")
        require(np.isfinite(comps).all(axis=-1), NonFiniteValue, "components must be finite")
        comps.setflags(write=False)
        object.__setattr__(self, "components", comps)

    @staticmethod
    def from_reals(vals) -> "DiracSpinor":
        """Column of 8 reals (re, im per component) on the last axis."""
        vals = np.array(vals, dtype=float, order="C")  # a copy, viewed as complex pairs
        if vals.shape[-1:] != (8,):
            raise ValueError("need 8 reals: (re, im) per component")
        return DiracSpinor(vals.view(complex))


# ------------------------------------------------------------------- the map


def dirac_to_geometric(phi: DiracSpinor) -> Multivector:
    """(phi1 + phi2 e13 + phi3 e3 + phi4 e1) u(+,+)."""
    return Multivector(_SIG, phi.components @ _column_frame().T)


def j_action(m: Multivector) -> Multivector:
    """Right multiplication by g21; equals scaling by 1j on the ideal."""
    return m * j_blade()


def geometric_to_qspinor(m: Multivector) -> QuatSpinor:
    """Extract (q0, q1) with m = (q0 + q1 i) u(+,+); NotInIdeal otherwise."""
    u = dirac_idempotent(+1, +1)
    scale = m.abs_sum()
    require(close(residual(m * u, m), scale), NotInIdeal,
            "element is not fixed by the Dirac idempotent")
    require(close(residual(m.re, m.im * j_blade()), scale), NotInIdeal,
            "imaginary part is not re * g12")
    # re u(+,+) = v+/2, so the real part is half a quaternion-spinor carrier,
    # whose coordinates are twice its products with the frame's columns
    psi = from_carrier_coords(4.0 * (m.re.coeffs @ carrier_frame()), AlgebraTag.SPACETIME13)
    require(close(residual(qspinor_to_geometric(psi), m), scale), NotInIdeal,
            "element has components outside the Dirac ideal")
    return psi


def qspinor_to_geometric(psi: QuatSpinor) -> Multivector:
    """(q0 + q1 i) u(+,+) as a complexified carrier element."""
    return Multivector(_SIG, carrier_coords(psi) @ _quaternion_frame().T)


@lru_cache(maxsize=None)
def _quaternion_frame() -> np.ndarray:
    """Complex frame of (q0 + q1 i) u(+,+) = (q0 + q1 i) v+ u(+,+) over the
    coordinates (q0.s, q0.v, q1.s, q1.v), from the products."""
    return column_matrix(Multivector(_SIG, carrier_frame().T) * dirac_idempotent(+1, +1))


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
    psi = geometric_to_qspinor(m)
    back = dirac_to_geometric(qspinor_to_dirac(psi))
    return residual(back, m)


# ------------------------------------------------------------- verifications


def idempotent_report() -> dict[str, float]:
    """Exact structure of the four idempotents: u^2 = u, orthogonality,
    completeness, and the conjugation relations of the spectral frame."""
    us = _idempotents()
    r_idem = residual(us * us, us).max()
    pairs = (Multivector(_SIG, us.coeffs[:, None]) * us).max_abs()
    r_orth = pairs[~np.eye(4, dtype=bool)].max()
    r_complete = residual(Multivector(_SIG, us.coeffs.sum(axis=0)), Multivector.scalar(_SIG, 1.0))

    # -e13 u(+,+) e13, e3 u(+,+) e3 and e1 u(+,+) e1 are u(+,-), u(-,+), u(-,-)
    conj = Multivector(_SIG, np.stack([b.coeffs for b in carrier_blades()[1:]]))
    sandwiches = (np.array([-1.0, 1.0, 1.0]) * conj) * dirac_idempotent(+1, +1) * conj
    r_frame = residual(sandwiches, Multivector(_SIG, us.coeffs[1:])).max()
    return {
        "idempotency": float(r_idem),
        "orthogonality": float(r_orth),
        "completeness": r_complete,
        "spectral_frame_conjugations": float(r_frame),
    }
