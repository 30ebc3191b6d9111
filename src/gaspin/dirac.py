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
g21 = -g12, exactly (j u = g21 u holds coefficient by coefficient).  A column
(phi1..phi4) maps to (phi1 + phi2 e13 + phi3 e3 + phi4 e1) u(+,+) with the
Euclidean blade names standing for their spacetime images; the inverse
extracts the quaternion pair (q0, q1) with carrier (q0 + q1 i) u(+,+),
and the component dictionary is

    phi1 = x0 + j x3,  phi2 = -x2 + j x1,
    phi3 = -y3 + j y0, phi4 = -y1 - j y2.

Real parts determine everything: im = re * g12 on the whole ideal.
Residuals between complex elements are moduli of coefficient differences.
A column may hold arrays of one shape, a batch of columns mapped case by
case.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    EUCLIDEAN4,
    SPACETIME13,
    Multivector,
    as_cases,
    close,
    column_matrix,
    fields_equal,
    pseudoscalar,
    require,
    residual,
    stack_cases,
    unstack,
)
from .errors import NonFiniteValue, NotInIdeal
from .isomap import AlgebraTag, euclidean_to_spacetime
from .quatspinor import QuatSpinor, carrier_frame, from_carrier_coords

_SIG = SPACETIME13


# ------------------------------------------------------------- the ideal kit


@lru_cache(maxsize=None)
def _g(k: int) -> Multivector:
    return Multivector.basis(_SIG, k)


@lru_cache(maxsize=None)
def _g12() -> Multivector:
    return Multivector.blade(_SIG, 0b0110)


@lru_cache(maxsize=None)
def j_blade() -> Multivector:
    """g21 = -g12: right multiplication by it realizes j on the ideal."""
    return Multivector.blade(_SIG, 0b0110, -1.0)


@lru_cache(maxsize=None)
def dirac_idempotent(s: int, t: int) -> Multivector:
    """u(s,t) = (1 + s g0)(1 + t j g12)/4 in the complexified algebra."""
    base = (Multivector.scalar(_SIG, 1.0) + float(s) * _g(0)) * 0.25
    return base + (t * 1j) * (base * _g12())


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
    """Classical 4-component column of complex numbers (or of arrays of one
    shape, a batch of columns)."""

    components: tuple[complex, complex, complex, complex]
    __eq__ = fields_equal

    def __post_init__(self) -> None:
        comps = as_cases(self.components, complex)
        if len(comps) != 4:
            raise ValueError("a Dirac column has exactly 4 complex components")
        # a finite sum proves every component finite; an overflowing one
        # falls back to the componentwise test
        if not np.isfinite(sum(comps)).all():
            require(np.isfinite(comps).all(axis=0), NonFiniteValue, "components must be finite")
        object.__setattr__(self, "components", comps)

    @staticmethod
    def from_reals(vals) -> "DiracSpinor":
        """Column of 8 reals (re, im per component) on the last axis."""
        vals = np.asarray(vals, dtype=float)
        if vals.shape[-1:] != (8,):
            raise ValueError("need 8 reals: (re, im) per component")
        comps = np.empty((*vals.shape[:-1], 4), dtype=complex)
        comps.real, comps.imag = vals[..., 0::2], vals[..., 1::2]
        return DiracSpinor(unstack(comps))

    def norm2(self) -> float:
        return sum(abs(c) ** 2 for c in self.components)


# ------------------------------------------------------------------- the map


def dirac_to_geometric(phi: DiracSpinor) -> Multivector:
    """(phi1 + phi2 e13 + phi3 e3 + phi4 e1) u(+,+)."""
    column = np.array(phi.components)  # components first; move them last
    return Multivector(_SIG, column.transpose(*range(1, column.ndim), 0).dot(_column_frame().T))


def j_action(m: Multivector) -> Multivector:
    """Right multiplication by g21; equals scaling by 1j on the ideal."""
    return m * j_blade()


def expansion_display(phi: DiracSpinor) -> Multivector:
    """The same element written over real/imag groups:

    ((x1 + x4 e1 + y4 e2 + x3 e3) + i (y3 + y2 e1 - x2 e2 + y1 e3)) u(+,+)
    with i = e123 = g0123; an independent route used by tests.
    """
    x = [c.real for c in phi.components]
    y = [c.imag for c in phi.components]
    e = [
        euclidean_to_spacetime(Multivector.blade(EUCLIDEAN4, 1 << k)) for k in range(4)
    ]
    i13 = pseudoscalar(_SIG)
    one = Multivector.scalar(_SIG, 1.0)
    first = x[0] * one + x[3] * e[1] + y[3] * e[2] + x[2] * e[3]
    second = y[2] * one + y[1] * e[1] - x[1] * e[2] + y[0] * e[3]
    return (first + i13 * second) * dirac_idempotent(+1, +1)


def geometric_to_qspinor(m: Multivector) -> QuatSpinor:
    """Extract (q0, q1) with m = (q0 + q1 i) u(+,+); NotInIdeal otherwise."""
    u = dirac_idempotent(+1, +1)
    scale = m.abs_sum()
    require(close(residual(m * u, m), scale), NotInIdeal,
            "element is not fixed by the Dirac idempotent")
    require(close(residual(m.im, m.re * _g12()), scale), NotInIdeal,
            "imaginary part is not re * g12")
    # re u(+,+) = v+/2, so the real part is half a quaternion-spinor carrier.
    _, pinv = carrier_frame(AlgebraTag.SPACETIME13)
    psi = from_carrier_coords(2.0 * (m.re.coeffs @ pinv.T), AlgebraTag.SPACETIME13)
    require(close(residual(qspinor_to_geometric(psi), m), scale), NotInIdeal,
            "element has components outside the Dirac ideal")
    return psi


def qspinor_to_geometric(psi: QuatSpinor) -> Multivector:
    """(q0 + q1 i) u(+,+) as a complexified carrier element."""
    q0, q1 = psi.q0, psi.q1
    return Multivector(_SIG, stack_cases((q0.s, *q0.v, q1.s, *q1.v)).dot(_quaternion_frame().T))


@lru_cache(maxsize=None)
def _quaternion_frame() -> np.ndarray:
    """Complex frame of (q0 + q1 i) u(+,+) = (q0 + q1 i) v+ u(+,+) over the
    coordinates (q0.s, q0.v, q1.s, q1.v), from the products."""
    mat, _ = carrier_frame(AlgebraTag.SPACETIME13)
    return column_matrix([Multivector(_SIG, c) * dirac_idempotent(+1, +1) for c in mat.T])


def qspinor_to_dirac(psi: QuatSpinor) -> DiracSpinor:
    """Component dictionary tying the column to the quaternion pair."""
    x0, (x1, x2, x3) = psi.q0.s, psi.q0.v
    y0, (y1, y2, y3) = psi.q1.s, psi.q1.v
    return DiracSpinor(
        (x0 + 1j * x3, -x2 + 1j * x1, -y3 + 1j * y0, -y1 - 1j * y2)
    )


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
    us = {(s, t): dirac_idempotent(s, t) for s in (+1, -1) for t in (+1, -1)}
    r_idem = max(residual(u * u, u) for u in us.values())
    r_orth = max((us[a] * us[b]).max_abs() for a in us for b in us if a != b)
    total = sum(us.values(), Multivector.zero(_SIG))
    r_complete = residual(total, Multivector.scalar(_SIG, 1.0))

    _, e13, e3, e1 = carrier_blades()
    upp = us[(+1, +1)]
    r_frame = max(
        residual((-1.0 * e13) * upp * e13, us[(+1, -1)]),
        residual(e3 * upp * e3, us[(-1, +1)]),
        residual(e1 * upp * e1, us[(-1, -1)]),
    )
    return {
        "idempotency": r_idem,
        "orthogonality": r_orth,
        "completeness": r_complete,
        "spectral_frame_conjugations": r_frame,
    }


def j_structure_report() -> dict[str, float]:
    """How the two sign conventions for J = -+ji behave on the carrier ideal.

    With J = -ji (the operative convention), (1 + J e3)/2 reproduces the
    idempotent u(+,+) = v+ E+; with J = +ji the same expression lands on
    u(+,-) instead.  Both residuals are reported; the discrepancy is a
    sign flip, not reconciled here.
    """
    i13 = pseudoscalar(_SIG)
    _, _, e3, _ = carrier_blades()
    one = Multivector.scalar(_SIG, 1.0)
    v_plus = (one + _g(0)) * 0.5
    out = {}
    for name, sign in (("J_minus_ji", -1.0), ("J_plus_ji", +1.0)):
        J = (sign * 1j) * i13
        e_plus = (one + J * e3) * 0.5
        out[name] = residual(v_plus * e_plus, dirac_idempotent(+1, +1))
    # j realized as right-g21 matches complex scaling on the idempotent.
    upp = dirac_idempotent(+1, +1)
    out["j_as_right_g21_on_idempotent"] = residual(upp * j_blade(), 1j * upp)
    return out
