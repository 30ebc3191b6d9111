"""Command-line surface: verification runs, table/figure emission, fidelity.

Output is deliberately diff-able: line-oriented key=value blocks for
reports, CSV with a mandatory header row for tables and figure data, all
floats rendered with %.17g and no locale dependence, each report written
with one write.  Every numeric emission is re-validated against the owning
module's invariants before it is printed.  All randomness flows from one
--seed flag (default 0).  An argv that starts with a command is parsed by
its parser alone, any other by the top-level parser, as parse_args would.

Exit codes: 0 success; 1 a GAError, OSError or MemoryError, reported by main
on one ``error: <Type>: <message>`` line; 2 a usage error, reported by argparse
(the parser's types or main's parser.error) before any command runs.
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import core
from .core import (
    EUCLIDEAN4,
    SPACETIME13,
    Multivector,
    Signature,
    fixed,
    residual,
    require,
    reverse,
    scalar_product,
)
from .errors import GAError, VerificationFailure
from .isomap import (
    AlgebraTag,
    euclidean_to_spacetime,
    spacetime_to_euclidean,
)
from .quatrep import (
    Quaternion,
    change_of_basis,
    matrix_residual,
    quat_mul,
    rep_pss,
    rep_vec,
    unrep_pss,
    unrep_vec,
)
from .quatspinor import (
    QuatSpinor,
    bloch_point,
    canonical_q,
    from_carrier_coords,
    fidelity_q,
    fidelity_q_circ_route,
    image,
    projector,
    projector_closed_orthogonal,
    reconstruct,
)
from .spinors import (
    CenterScalar,
    IdealSpinor,
    antipodal_chart,
    canonical_form,
    fidelity,
    fidelity_bloch,
    fidelity_chart,
    idempotent,
    m_vector,
    to_multivector,
)
from . import dirac as dirac_mod
from . import stereo

FMT = "%.17g"


def _f(x: float) -> str:
    return FMT % float(x)


def _vec(xs) -> str:
    return ",".join(_f(x) for x in xs)


def _mv_terms(m: Multivector) -> str:
    """Nonzero terms of m; a term within rounding of m's size counts as zero.
    The moduli are scaled by :func:`core.exponent`, so their sum cannot overflow."""
    names = core.blade_names(m.signature)
    mags = np.ldexp(np.abs(m.coeffs), -core.exponent(m.coeffs))
    keep = np.flatnonzero(~core.close(mags, mags.sum())).tolist()
    coeffs = m.coeffs.tolist()
    return ";".join(f"{names[mask]}:{FMT % coeffs[mask]}" for mask in keep) or "0"


# =====================================================================
# verify
# =====================================================================


@dataclass
class SuiteResult:
    name: str
    cases: int | None  # None when the suite drew nothing: fixed inputs
    max_residual: float
    tolerance: float
    witness: tuple[str, int] | None  # (part label, case); None when every part is empty

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance


def _rand_mvs(rng, sig: Signature, n: int, k: int = 1) -> list[Multivector]:
    """k batches of n multivectors with coefficients uniform in [-1, 1], drawn
    case by case (all k of case 0 first), as a loop of single draws would."""
    coeffs = rng.uniform(-1.0, 1.0, size=(n, k, sig.dim))
    return [Multivector(sig, coeffs[:, j]) for j in range(k)]


def _accepted(rng, n: int, width: int, keep: Callable, low=-1.0, high=1.0) -> np.ndarray:
    """n rows of ``width`` uniform draws that ``keep(rows) -> kept rows``
    accepts, in draw order: the same rows as one-at-a-time rejection sampling
    (over-drawing the stream); ``low`` and ``high`` may be per column."""
    got: list[np.ndarray] = []
    have = 0
    while have < n:
        rows = keep(rng.uniform(low, high, size=(n - have + n // 4 + 8, width)))
        got.append(rows)
        have += len(rows)
    return np.concatenate(got)[:n]


def _admissible_rows(rows: np.ndarray) -> np.ndarray:
    """Timelike rows of coordinates (q0, q1): |q0|^2 >= 0.3, q1 shrunk to
    0.6 |q0| when |q1|^2 >= 0.8 |q0|^2, and then rho^2 > 0.05."""
    q0, q1 = Quaternion(rows[:, :4]), Quaternion(rows[:, 4:])
    n0, n1 = q0.norm2(), q1.norm2()
    shrink = n1 >= 0.8 * n0
    q1 = q1.scale(np.where(shrink, 0.6 * q0.norm() / np.sqrt(np.where(shrink, n1, 1.0)), 1.0))
    keep = (n0 >= 0.3) & (n0 - q1.norm2() > 0.05)
    return np.concatenate([rows[:, :4], q1.coeffs], axis=1)[keep]


def _orthogonal_rows(rows: np.ndarray) -> np.ndarray:
    """Admissible rows with the scalar part of q0* q1 removed from q1, kept
    when then rho^2 > 0.05."""
    rows = _admissible_rows(rows)
    q0, q1 = Quaternion(rows[:, :4]), Quaternion(rows[:, 4:])
    q1 = q1 - q0.scale(quat_mul(q0.conjugate(), q1).s / q0.norm2())
    return np.concatenate([rows[:, :4], q1.coeffs], axis=1)[q0.norm2() - q1.norm2() > 0.05]


def _rand_admissible_q(rng, n: int, tag: AlgebraTag = AlgebraTag.SPACETIME13) -> QuatSpinor:
    """A batch of n timelike quaternion spinors."""
    return from_carrier_coords(_accepted(rng, n, 8, _admissible_rows), tag)


def _ball(rows: np.ndarray) -> stereo.PlanePoint:
    """Points v / |v| * r of the open ball from rows (v, r) with v uniform
    in [-1, 1]^3; each (1, 3) @ (3, 1) product sums |v|^2 as one case's
    np.linalg.norm does."""
    v, r = rows[:, :3], rows[:, 3:]
    return stereo.PlanePoint(v / np.sqrt(v[:, None, :] @ v[:, :, None])[:, 0] * r)


def _rand_chart(rng, tag: AlgebraTag, n: int):
    """Chart points (a, b): a pair of arrays of n.  Pauli charts fill
    [-2.5, 2.5]^2; Minkowski charts have a^2 + b^2 < 0.9."""
    if tag is AlgebraTag.PAULI3:
        c = rng.uniform(-2.5, 2.5, size=(n, 2))
    else:
        c = _accepted(rng, n, 2, lambda rows: rows[np.sum(rows * rows, axis=1) < 0.9],
                      -0.95, 0.95)
    return tuple(c.T)


def _suite_core_associativity(rng, cases):
    parts = {}
    for tag in AlgebraTag:
        a, b, c = _rand_mvs(rng, tag.signature, max(1, cases // 4), 3)
        parts[tag.value] = residual((a * b) * c, a * (b * c))
    return parts, core.TOL


def _suite_core_exp_unitarity(rng, cases):
    # per case: theta in [-3, 3], then an axis in [-1, 1]^3, redrawn if shorter than 1e-6
    draws = _accepted(rng, cases, 4,
                      lambda rows: rows[np.linalg.norm(rows[:, 1:], axis=1) >= 1e-6],
                      (-3.0, -1.0, -1.0, -1.0), (3.0, 1.0, 1.0, 1.0))
    xhat = draws[:, 1:] / np.linalg.norm(draws[:, 1:], axis=1)[:, None]
    xhat = Multivector.vector(EUCLIDEAN4, (0.0, *xhat.T))
    B = draws[:, 0] * (xhat * Multivector.basis(EUCLIDEAN4, 0))
    one = Multivector.scalar(EUCLIDEAN4, 1.0)
    return {"euclidean4": residual(core.exp_blade(B) * core.exp_blade(-B), one)}, core.TOL


def _suite_core_generator_contract(rng, cases):
    # g_i g_j + g_j g_i = 2 eta_ij, all pairs of generators as one (n, n) batch
    parts = {}
    for tag in AlgebraTag:
        sig = tag.signature
        gens = np.eye(sig.dim)[1 << np.arange(sig.n)]
        prod = Multivector(sig, gens[:, None]) * Multivector(sig, gens)
        eta = np.diag([2.0 * sig.metric(i) for i in range(sig.n)])
        swapped = Multivector(sig, np.swapaxes(prod.coeffs, 0, 1))
        parts[tag.value] = residual(prod + swapped, Multivector.scalar(sig, eta))
    return parts, core.TOL


def _suite_core_grade_partition(rng, cases):
    parts = {}
    for tag in (AlgebraTag.EUCLIDEAN4, AlgebraTag.MINKOWSKI12):
        (a,) = _rand_mvs(rng, tag.signature, max(1, cases // 2))
        grades = (core.grade_select(a, {g}) for g in range(tag.signature.n + 1))
        parts[tag.value] = residual(sum(grades, Multivector.zero(tag.signature)), a)
    return parts, core.TOL


def _suite_core_reverse_antiautomorphism(rng, cases):
    parts = {}
    for tag in (AlgebraTag.EUCLIDEAN4, AlgebraTag.SPACETIME13):
        a, b = _rand_mvs(rng, tag.signature, max(1, cases // 2), 2)
        parts[tag.value] = residual(reverse(a * b), reverse(b) * reverse(a))
    return parts, core.TOL


def _suite_dirac_idempotents(rng, cases):
    # the four u(s,t) in Cl(4,1), exactly: u^2 = u, orthogonality,
    # completeness, and the conjugations of the spectral frame
    cl41 = dirac_mod.CL41
    us = dirac_mod.dirac_idempotent(np.array([1, 1, -1, -1]), np.array([1, -1, 1, -1]))
    pairs = (Multivector(cl41, us.coeffs[:, None]) * us).max_abs()
    # -e13 u(+,+) e13, e3 u(+,+) e3 and e1 u(+,+) e1 are u(+,-), u(-,+), u(-,-)
    conj = dirac_mod.to_cl41(Multivector(SPACETIME13, dirac_mod.carrier_blades().coeffs[1:]))
    sandwiches = (np.array([-1.0, 1.0, 1.0]) * conj) * dirac_mod.dirac_idempotent(+1, +1) * conj
    return {
        "idempotency": float(residual(us * us, us).max()),
        "orthogonality": float(pairs[~np.eye(4, dtype=bool)].max()),
        "completeness": residual(Multivector(cl41, us.coeffs.sum(axis=0)),
                                 Multivector.scalar(cl41, 1.0)),
        "spectral_frame_conjugations": float(residual(sandwiches,
                                                      Multivector(cl41, us.coeffs[1:])).max()),
    }, core.TOL


def _suite_dirac_j_action(rng, cases):
    # Cl(4,1), j = I: c g21 = I c for c = b_k u(+,+), I b_k u(+,+); j_action lifts to I c
    i5, cl41 = core.pseudoscalar(dirac_mod.CL41), dirac_mod.to_cl41
    bu = cl41(dirac_mod.carrier_blades()) * dirac_mod.dirac_idempotent(+1, +1)
    c = Multivector(dirac_mod.CL41, np.concatenate([bu.coeffs, (i5 * bu).coeffs]))
    columns = dirac_mod.DiracSpinor(np.concatenate([np.eye(4), 1j * np.eye(4)]))
    jm = dirac_mod.j_action(dirac_mod.dirac_to_geometric(columns))
    return {"spacetime13": residual(c * cl41(dirac_mod.j_blade()), i5 * c),
            "carrier": residual(cl41(jm.re) + i5 * cl41(jm.im), i5 * c)}, core.TOL


def _suite_dirac_roundtrip(rng, cases):
    phi = dirac_mod.DiracSpinor.from_reals(rng.uniform(-1.0, 1.0, size=(cases, 8)))
    return {"spacetime13": dirac_mod.dirac_roundtrip_residual(phi)}, core.TOL


def _suite_gspinor_antipode(rng, cases):
    ca = tuple(_accepted(rng, cases, 2, lambda rows: rows[np.sum(rows * rows, axis=1) >= 1e-3],
                         -2.0, 2.0).T)
    cb = antipodal_chart(ca)
    psi = IdealSpinor.from_chart(AlgebraTag.PAULI3, ca)
    chi = IdealSpinor.from_chart(AlgebraTag.PAULI3, cb)
    dot = core.dot(m_vector(AlgebraTag.PAULI3, ca), m_vector(AlgebraTag.PAULI3, cb))
    return {"fidelity": fidelity(psi, chi), "m_dot": np.abs(dot)}, core.TOL


def _suite_gspinor_canonical_reconstruction(rng, cases):
    parts = {}
    for tag in (AlgebraTag.PAULI3, AlgebraTag.MINKOWSKI12):
        n = max(1, cases // 2)
        if tag is AlgebraTag.PAULI3:  # per case: chart, phase, scale
            draws = rng.uniform((-2.5, -2.5, 0.0, 0.3), (2.5, 2.5, 2 * math.pi, 1.5), size=(n, 4))
            ca, (phase, s) = tuple(draws[:, :2].T), draws[:, 2:].T
        else:  # the charts by rejection, then the phases and scales
            ca = _rand_chart(rng, tag, n)
            phase, s = rng.uniform((0.0, 0.3), (2 * math.pi, 1.5), size=(n, 2)).T
        z = CenterScalar(s * np.cos(phase), s * np.sin(phase))
        base = IdealSpinor.from_chart(tag, ca)
        psi = IdealSpinor(tag, base.a0 * z, base.a1 * z)
        can = canonical_form(psi)
        ph = CenterScalar(np.cos(can.theta), np.sin(can.theta)).embed(tag)
        recon = can.rho * ph * can.m_hat * idempotent(tag)
        parts[tag.value] = residual(recon, to_multivector(psi))
    return parts, core.TOL


def _suite_gspinor_fidelity_triple(rng, cases):
    parts = {}
    for tag in (AlgebraTag.PAULI3, AlgebraTag.MINKOWSKI12):
        # charts in draw order: a of case 0, b of case 0, a of case 1, ...
        x, y = _rand_chart(rng, tag, 2 * max(1, cases // 2))
        ca, cb = (x[0::2], y[0::2]), (x[1::2], y[1::2])
        psi = IdealSpinor.from_chart(tag, ca)
        chi = IdealSpinor.from_chart(tag, cb)
        f1 = fidelity(psi, chi)
        f2 = fidelity_bloch(tag, ca, cb)
        f3 = fidelity_chart(tag, ca, cb)
        scale = np.maximum(1.0, np.abs(f1))
        violation = np.maximum(-f1, f1 - 1.0) if tag is AlgebraTag.PAULI3 else 1.0 - f1
        # the bounds hold to core.TOL itself, not to the 100x route tolerance
        parts |= {f"{tag.value}.bloch": np.abs(f1 - f2) / scale,
                  f"{tag.value}.chart": np.abs(f2 - f3) / scale,
                  f"{tag.value}.bounds": 100.0 * violation}
    return parts, 100.0 * core.TOL


def _suite_isomap_homomorphism(rng, cases):
    # per case: a, b in Cl(4,0), then a, b in Cl(1,3)
    n = max(1, cases // 2)
    coeffs = rng.uniform(-1.0, 1.0, size=(n, 2, 2, EUCLIDEAN4.dim))
    parts = {}
    for k, (tag, f) in enumerate(((AlgebraTag.EUCLIDEAN4, euclidean_to_spacetime),
                                  (AlgebraTag.SPACETIME13, spacetime_to_euclidean))):
        a, b = (Multivector(tag.signature, coeffs[:, k, j]) for j in (0, 1))
        parts[tag.value] = residual(f(a * b), f(a) * f(b))
    return parts, core.TOL


def _suite_isomap_inverse_blades(rng, cases):
    # the 16 blades of each algebra, then cases // 2 random elements of each
    parts = {}
    for tag, there, back in (
        (AlgebraTag.EUCLIDEAN4, euclidean_to_spacetime, spacetime_to_euclidean),
        (AlgebraTag.SPACETIME13, spacetime_to_euclidean, euclidean_to_spacetime),
    ):
        (g,) = _rand_mvs(rng, tag.signature, max(1, cases // 2))
        g = Multivector(g.signature, np.concatenate([np.eye(g.signature.dim), g.coeffs]))
        parts[tag.value] = residual(back(there(g)), g)
    return parts, core.TOL


def _suite_qspinor_canonical_reconstruction(rng, cases):
    psi = _rand_admissible_q(rng, max(1, cases // 2))
    can = canonical_q(psi)
    want = 1.0 - psi.q1.norm2() / psi.q0.norm2()
    return {"reconstruction": residual(reconstruct(can, psi.tag), image(psi)),
            "m_square": np.abs(scalar_product(can.M, can.M) - want)}, core.TOL


def _suite_qspinor_fidelity_dual_route(rng, cases):
    # per case: psi, then chi
    coords = _accepted(rng, 2 * max(1, cases // 2), 8, _admissible_rows)
    psi = from_carrier_coords(coords[0::2], AlgebraTag.SPACETIME13)
    chi = from_carrier_coords(coords[1::2], AlgebraTag.SPACETIME13)
    f1 = fidelity_q(psi, chi)
    f2 = fidelity_q_circ_route(psi, chi)
    return {"circ_route": np.abs(f1 - f2) / np.maximum(1.0, np.abs(f1))}, 100.0 * core.TOL


def _suite_qspinor_orthogonal_projector(rng, cases):
    psi = from_carrier_coords(_accepted(rng, max(1, cases // 2), 8, _orthogonal_rows),
                              AlgebraTag.SPACETIME13)
    can = canonical_q(psi)
    # an orthogonal spinor's M is the plain vector g0 + x_m of its Bloch point
    m = Multivector.vector(SPACETIME13, (1.0, *bloch_point(psi).T))
    return {"projector": residual(projector(psi), projector_closed_orthogonal(psi)),
            "reconstruction": residual(reconstruct(can, psi.tag), image(psi)),
            "m_vector": residual(m, can.M)}, core.TOL


def _suite_quatrep_change_of_basis(rng, cases):
    (g,) = _rand_mvs(rng, EUCLIDEAN4, cases)
    return {"pss_to_vec": matrix_residual(change_of_basis(rep_pss(g)), rep_vec(g))}, core.TOL


def _suite_quatrep_embedding_product(rng, cases):
    coords = rng.uniform(-1.0, 1.0, size=(cases, 2, 4))
    a, b = Quaternion(coords[:, 0]), Quaternion(coords[:, 1])
    lhs = quat_mul(a, b).to_multivector()
    rhs = a.to_multivector() * b.to_multivector()
    return {"euclidean4": residual(lhs, rhs)}, core.TOL


def _suite_quatrep_faithfulness(rng, cases):
    blades = Multivector(EUCLIDEAN4, np.eye(EUCLIDEAN4.dim))
    return {"vec": residual(unrep_vec(rep_vec(blades)), blades),
            "pss": residual(unrep_pss(rep_pss(blades)), blades)}, core.TOL


def _suite_quatrep_homomorphism(rng, cases):
    a, b = _rand_mvs(rng, EUCLIDEAN4, cases, 2)
    ab = a * b
    return {"vec": matrix_residual(rep_vec(ab), rep_vec(a) * rep_vec(b)),
            "pss": matrix_residual(rep_pss(ab), rep_pss(a) * rep_pss(b))}, core.TOL


def _suite_quatrep_idempotent_relations(rng, cases):
    # The relations tying the two spectral bases, in the core algebra with a
    # 2x2 matrix of multivectors as one (2, 2) batch.  B = (sqrt2/2) [[i+, i-],
    # [-i-, i+]] has the halves of 1 +- e123 as entries, not quaternions.  Only
    # the (sqrt2/2)^2 of the B-form rounds; every other coefficient is dyadic.
    def mat(rows):
        return Multivector(EUCLIDEAN4, [[m.coeffs for m in row] for row in rows])

    def rowcol(a, b):  # sum over l of a[j, l] b[l, k], each product in its order
        terms = Multivector(EUCLIDEAN4, a.coeffs[:, :, None]) * Multivector(EUCLIDEAN4, b.coeffs)
        return Multivector(EUCLIDEAN4, terms.coeffs.sum(axis=1))

    ip, im = (core.idempotent(EUCLIDEAN4, 0b1110, s) for s in (1, -1))  # (1 +- e123)/2
    ep, em = (core.idempotent(EUCLIDEAN4, 0b0001, s) for s in (1, -1))  # (1 +- e0)/2
    Ip, Im = (core.idempotent(EUCLIDEAN4, 0b1111, s) for s in (1, -1))  # (1 +- e0123)/2
    one, e0, i = (Multivector.blade(EUCLIDEAN4, m) for m in (0, 0b0001, 0b1110))
    lhs = mat([(one, -i), (i, one)]) * mat([(ep, em)] * 2)  # [[e+, -i e-], [i e+, e-]]
    pss = mat([(one, e0), (e0, one)]) * mat([(Ip, Im)] * 2)  # [[I+, e0 I-], [e0 I+, I-]]
    B = mat([(ip, im), (-im, ip)]) * (1.0 / math.sqrt(2.0))
    B_star = reverse(Multivector(EUCLIDEAN4, np.swapaxes(B.coeffs, 0, 1)))  # reverse, transposed
    return {
        "pseudoscalar_idempotent_from_vec": residual(Ip, 2.0 * (im * ep * ip)),
        "vec_idempotent_from_pseudoscalar": residual(ep, 2.0 * (ip * Ip * im)),
        "spectral_basis_relation": float(residual(lhs, rowcol(rowcol(B, pss), B_star)).max()),
        # the outer-product form 2 (i+; -i-) I+ (i-, -i+) of the same relation
        "spectral_basis_outer_form": float(residual(
            lhs, 2.0 * (mat([(ip,), (-im,)]) * Ip * mat([(im, -ip)]))).max()),
        # B has no two-sided inverse: B Bstar stays at least 0.5 from the identity
        "b_times_b_star_max_deviation": 0.5 - float(residual(
            rowcol(B, B_star), Multivector(EUCLIDEAN4, np.eye(2)[..., None] * one.coeffs)).max()),
    }, core.TOL


def _suite_stereo_metric_finite_difference(rng, cases):
    h = 1e-5
    rows = rng.uniform((-2.0,) * 3 + (-1.0,) * 6 + (0.01,), (2.0,) * 3 + (1.0,) * 6 + (0.8,),
                       size=(max(1, cases // 2), 10))
    x, dx, xh = stereo.PlanePoint(rows[:, :3]), rows[:, 3:6], _ball(rows[:, 6:])
    errors = []
    # (point, metric, lift, sign of the metric: positive on the sphere,
    # negative on the hyperboloid)
    for p, metric, lift, sign in ((x, stereo.sphere_metric, stereo.lift_sphere, 1.0),
                                  (xh, stereo.hyper_metric, stereo.lift_hyper, -1.0)):
        _, ds2 = metric(p, dx)
        xp, xm = stereo.PlanePoint(p.x + h * dx), stereo.PlanePoint(p.x - h * dx)
        da_fd = (lift(xp).a_hat - lift(xm).a_hat) / (2 * h)
        ds2_fd = scalar_product(da_fd, da_fd)
        errors.append(np.where(sign * ds2 > 0.0,
                               np.abs(ds2_fd - ds2) / np.maximum(1e-30, np.abs(ds2)), math.inf))
    return dict(zip(("sphere", "hyper"), errors)), 1e-6


def _suite_stereo_roundtrip(rng, cases):
    rows = rng.uniform((-3.0,) * 3 + (-1.0,) * 3 + (0.01,), (3.0,) * 3 + (1.0,) * 3 + (0.95,),
                       size=(max(1, cases // 2), 7))
    x, xh = stereo.PlanePoint(rows[:, :3]), _ball(rows[:, 3:])
    back = stereo.project_sphere(stereo.lift_sphere(x))
    back_h = stereo.project_hyper(stereo.lift_hyper(xh))
    return {"sphere": np.abs(back.x - x.x), "hyper": np.abs(back_h.x - xh.x)}, 100.0 * core.TOL


def _suite_stereo_rotor_sandwich(rng, cases):
    rows = rng.uniform((-3.0,) * 3 + (-1.0,) * 3 + (0.01,), (3.0,) * 3 + (1.0,) * 3 + (0.95,),
                       size=(max(1, cases // 2), 7))
    x, xh = stereo.PlanePoint(rows[:, :3]), _ball(rows[:, 3:])
    e0 = Multivector.basis(EUCLIDEAN4, 0)
    g0 = Multivector.basis(SPACETIME13, 0)
    sphere = residual(stereo.rotor_apply(stereo.sphere_rotor(x), e0), stereo.lift_sphere(x).a_hat)
    hyper = residual(stereo.rotor_apply(stereo.hyper_boost(xh), g0), stereo.lift_hyper(xh).a_hat)
    return {"sphere": sphere, "hyper": hyper}, 100.0 * core.TOL


def _suite_stereo_trig_identities(rng, cases):
    # |x|^2 over the chart box [-3, 3]^3 on the sphere, below 0.9 in the ball
    r2, r2h = rng.uniform(0.0, (27.0, 0.9), size=(cases, 2)).T
    c = (1.0 - r2) / (1.0 + r2)
    s = 2.0 * np.sqrt(r2) / (1.0 + r2)
    ch = (1.0 + r2h) / (1.0 - r2h)
    sh = 2.0 * np.sqrt(r2h) / (1.0 - r2h)
    return {"sphere": np.abs(c * c + s * s - 1.0),
            "hyper": np.abs(ch * ch - sh * sh - 1.0) / np.maximum(1.0, ch * ch)}, core.TOL


#: Suite name -> suite, read off the ``_suite_<group>_<name>`` functions in definition
#: order: ``_suite_core_exp_unitarity`` is the suite ``core.exp_unitarity``.
SUITES: dict[str, Callable] = {key.removeprefix("_suite_").replace("_", ".", 1): fn
                               for key, fn in globals().items() if key.startswith("_suite_")}


def _reduce(parts: dict) -> tuple[float, tuple[str, int] | None]:
    """Largest residual over every part and its witness (label, case on the
    part's leading axis): the first NaN if any, else the first largest; 0 and
    no witness when every part is empty."""
    worst, witness = 0.0, None
    for label, r in parts.items():
        r = np.atleast_1d(r)
        if r.size == 0:
            continue
        per_case = r.reshape(len(r), -1).max(axis=1)
        k = int(np.argmax(per_case))  # the first NaN if any, else the first maximum
        if witness is None or not per_case[k] <= worst:
            worst, witness = float(per_case[k]), (label, k)
        if math.isnan(worst):
            break
    return worst, witness


def run_suite(name: str, seed: int, cases: int) -> SuiteResult:
    """Run the registered suite ``name`` on its own stream, seeded by (seed,
    name) so its result does not depend on which suites run: the name's bytes
    as uint32 words in one step are the entropy of ``name.encode()``.  A
    suite that draws nothing checks fixed inputs and reports no case count."""
    rng = np.random.default_rng((seed, np.frombuffer(name.encode(), np.uint8).astype(np.uint32)))
    state = rng.bit_generator.state
    parts, bound = SUITES[name](rng, cases)
    worst, witness = _reduce(parts)
    drew = rng.bit_generator.state != state
    return SuiteResult(name, cases if drew else None, worst, bound, witness)


def cmd_verify(args) -> int:
    results = [run_suite(name, args.seed, args.cases) for name in sorted(SUITES)]
    failures = sum(not r.passed for r in results)
    sys.stdout.write("".join(
        f"suite={r.name}\ncases={'fixed' if r.cases is None else r.cases}\n"
        f"max_residual={_f(r.max_residual)}\ntolerance={_f(r.tolerance)}\n"
        f"headroom={_f(r.max_residual / r.tolerance)}\n"
        f"witness={':'.join(map(str, r.witness)) if r.witness else 'none'}\n"
        f"status={'pass' if r.passed else 'fail'}\n\n" for r in results)
        + f"seed={args.seed}\ncases={args.cases}\ntotal_suites={len(results)}\n"
        f"failures={failures}\nstatus={'pass' if failures == 0 else 'fail'}\n")
    return 0 if failures == 0 else 1


# =====================================================================
# table
# =====================================================================


@fixed
def _signature_for(p: int, q: int) -> Signature:
    """The signature of one of the four algebras, else generators e0.. or g0.."""
    for tag in AlgebraTag:
        if (tag.signature.plus_count, tag.signature.minus_count) == (p, q):
            return tag.signature
    prefix = "e" if q == 0 else "g"
    # no more labels than Signature allows, so it rejects a huge p + q unbuilt
    return Signature(p, q, tuple(f"{prefix}{k}" for k in range(min(p + q, core._MAX_GENERATORS))))


@fixed
def table_text(p: int, q: int, fmt: str) -> str:
    """The finished ``table`` output of Cl(p,q) in ``fmt`` (csv or json): row i
    column j holds blade i times blade j as a signed name such as ``-g01``,
    derived from :func:`core.sign_table`; rendered once per signature and format."""
    names = core.blade_names(_signature_for(p, q))
    cells = [[("+" if s > 0 else "-") + names[i ^ j] for j, s in enumerate(row)]
             for i, row in enumerate(core.sign_table(p, q).tolist())]
    if fmt == "json":
        return json.dumps({"signature": [p, q], "blades": names, "table": cells},
                          separators=(",", ":")) + "\n"
    # no cell needs quoting: each is a sign and a blade name of e/g and digits
    return "".join(f"{name},{','.join(row)}\n"
                   for name, row in zip(("blade", *names), (names, *cells)))


def _parse_signature(text: str) -> tuple[int, int]:
    """The ``type=`` of --signature: (p, q) once :func:`_signature_for` accepts it."""
    try:
        p_str, q_str = text.split(",")
        p, q = int(p_str), int(q_str)
        _signature_for(p, q)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad signature {text!r}: {exc}") from None
    return p, q


def cmd_table(args) -> int:
    sys.stdout.write(table_text(*args.signature, args.format))
    return 0


# =====================================================================
# project
# =====================================================================


def _parse_point(text: str) -> tuple[float, float, float]:
    """The ``type=`` of the point options: three finite comma-separated reals."""
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("point needs exactly 3 comma-separated reals")
    try:
        point = tuple(float(t) for t in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not all(math.isfinite(c) for c in point):
        raise argparse.ArgumentTypeError(f"point {text!r} has a non-finite coordinate")
    return point


#: (lift, angle, rotor, pole algebra) per chart.
_CHARTS = {
    "sphere": (stereo.lift_sphere, stereo.sphere_angle, stereo.sphere_rotor, EUCLIDEAN4),
    "hyper": (stereo.lift_hyper, stereo.hyper_angle, stereo.hyper_boost, SPACETIME13),
}


def cmd_project(args) -> int:
    x = stereo.PlanePoint(args.point)
    lift, angle_of, rotor_of, algebra = _CHARTS[args.geometry]
    lifted, angle, rotor = lift(x).a_hat, angle_of(x), rotor_of(x)  # the lift checks the domain
    s = algebra.metric(1)  # the chart generators' square: metric factor 4 s / d^2
    d = 1.0 + s * x.norm2
    factor = 4.0 * s / (d * d)  # 0.0 once d * d overflows (d ** 2 would raise)
    # re-validate before printing
    sq = scalar_product(lifted, lifted)
    sandwich = stereo.rotor_apply(rotor, Multivector.basis(algebra, 0))
    require(core.close(abs(sq - 1.0), 1.0 + float(lifted.coeffs @ lifted.coeffs))
            and core.close(residual(sandwich, lifted), lifted.abs_sum()),
            VerificationFailure, "emitted point failed re-validation")
    sys.stdout.write(f"geometry={args.geometry}\nx_m={_vec(args.point)}\n"
                     f"a_hat={_vec(lifted.vector_components())}\na_hat_square={_f(sq)}\n"
                     f"angle={_f(angle)}\nrotor={_mv_terms(rotor)}\nmetric_factor={_f(factor)}\n")
    return 0


# =====================================================================
# prob
# =====================================================================


def cmd_prob(args) -> int:
    pa, pb = args.point_a, args.point_b
    if args.quaternion:
        psi = QuatSpinor.from_bloch_point(pa)
        chi = QuatSpinor.from_bloch_point(pb)
        f_braket = fidelity_q(psi, chi)
        f_closed = fidelity_q_circ_route(psi, chi)
    else:
        tag = AlgebraTag.PAULI3 if args.geometry == "sphere" else AlgebraTag.MINKOWSKI12
        ca, cb = (pa[0], pa[1]), (pb[0], pb[1])
        psi = IdealSpinor.from_chart(tag, ca)
        chi = IdealSpinor.from_chart(tag, cb)
        f_braket = fidelity(psi, chi)
        f_closed = fidelity_chart(tag, ca, cb)
    resid = abs(f_braket - f_closed)
    require(resid <= 1e-10 * max(1.0, abs(f_braket)), VerificationFailure,
            "fidelity routes disagree beyond tolerance")
    sphere = args.geometry == "sphere"  # main admits --quaternion only on the hyperboloid
    label = "Bloch sphere probability" if sphere else "Bloch hyperboloid quantity (>=1)"
    sys.stdout.write(f"geometry={args.geometry}\nquaternion={'yes' if args.quaternion else 'no'}\n"
                     f"label={label}\nfidelity_braket={_f(f_braket)}\n"
                     f"fidelity_closed_form={_f(f_closed)}\nresidual={_f(resid)}\n")
    return 0


# =====================================================================
# figure
# =====================================================================


def _csv(rows: np.ndarray) -> str:
    """Each row of floats as one CSV line of %.17g values: one format for all."""
    return ((",".join([FMT] * rows.shape[1]) + "\n") * len(rows)) % tuple(rows.ravel().tolist())


def _figure_stereo_sphere(samples: int):
    # Riemann-sphere cross-section, pole at e3: e1, e2, then e0 read as e3.
    t = np.linspace(-2.0, 2.0, samples)
    comps = stereo.lift_sphere(stereo.PlanePoint.of(t, 0.0, 0.0)).a_hat.vector_components()
    return "t,x_m,a_e1,a_e2,a_e3\n" + _csv(np.column_stack([t, t, comps[:, [1, 2, 0]]]))


def _figure_stereo_hyper(samples: int):
    t = np.linspace(-0.9, 0.9, samples)
    comps = stereo.lift_hyper(stereo.PlanePoint.of(t, 0.0, 0.0)).a_hat.vector_components()[:, :3]
    return "t,x_m,a_g0,a_g1,a_g2\n" + _csv(np.column_stack([t, t, comps]))


def _figure_poincare_geodesic(samples: int):
    # Circular arc orthogonal to the unit circle: center (sqrt2, 0), radius 1
    # (|c|^2 = 1 + r^2); its endpoints, the first and last samples, lie on
    # the unit circle and carry no lift.
    psi = np.linspace(3 * math.pi / 4, 5 * math.pi / 4, samples)
    x1, x2 = math.sqrt(2.0) + np.cos(psi), np.sin(psi)
    if np.any(np.abs(x1[[0, -1]] ** 2 + x2[[0, -1]] ** 2 - 1.0) > 1e-10):
        raise VerificationFailure("arc endpoints must lie on the unit circle")
    inner = slice(1, samples - 1)
    lifted = stereo.lift_hyper(stereo.PlanePoint.of(x1[inner], x2[inner], 0.0))
    comps = lifted.a_hat.vector_components()[:, :3]
    # geodesic = hyperboloid cut by a plane through the origin
    if len(comps) >= 3:
        sv = np.linalg.svd(comps, compute_uv=False)
        if sv[-1] > 1e-8 * sv[0]:
            raise VerificationFailure("lifted arc is not planar through the origin")
    arc = np.column_stack([psi, x1, x2])
    first, last = (line + ",,,\n" for line in _csv(arc[[0, -1]]).splitlines())  # no lift cells
    return "psi,x1,x2,a_g0,a_g1,a_g2\n" + first + _csv(np.hstack([arc[inner], comps])) + last


#: Figure name -> builder of its CSV text (header line first), read off the
#: ``_figure_<name>`` functions in definition order, ``_`` read as ``-``.
FIGURES: dict[str, Callable] = {key.removeprefix("_figure_").replace("_", "-"): fn
                                for key, fn in globals().items() if key.startswith("_figure_")}


def cmd_figure(args) -> int:
    text = FIGURES[args.name](args.samples)
    with open(args.out, "w", newline="") as fh:
        fh.write(text)
    rows = text.count("\n") - 1  # the lines after the header
    sys.stdout.write(f"figure={args.name}\nrows={rows}\nout={args.out}\n")
    return 0


# =====================================================================
# dirac
# =====================================================================


def cmd_dirac(args) -> int:
    phi = dirac_mod.DiracSpinor.from_reals(args.components)
    m = dirac_mod.dirac_to_geometric(phi)
    psi = dirac_mod.geometric_to_qspinor(m)
    resid = residual(dirac_mod.dirac_to_geometric(dirac_mod.qspinor_to_dirac(psi)).re, m.re)
    require(resid <= 1e-10 * max(1.0, m.re.max_abs()), VerificationFailure,
            "round trip failed re-validation")
    sys.stdout.write(f"components={_vec(args.components)}\nq0={_vec(psi.q0.coeffs)}\n"
                     f"q1={_vec(psi.q1.coeffs)}\ncarrier_re={_mv_terms(m.re)}\n"
                     f"carrier_im={_mv_terms(m.im)}\nroundtrip_residual={_f(resid)}\n")
    return 0


# =====================================================================
# parser
# =====================================================================


@fixed
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built by the first :func:`main` call;
    every parse starts from a fresh namespace, so no call sees another's
    options.  ``parser.commands`` maps each command name to its parser."""
    parser = argparse.ArgumentParser(
        prog="gaspin",
        description="Verified geometric-algebra toolkit: Cl(4,0)/Cl(1,3), "
        "quaternion matrix representations, stereographic charts, spinors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run every property suite")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--cases", type=int, default=200)

    p_table = sub.add_parser("table", help="emit the exact blade product table")
    p_table.add_argument("--signature", type=_parse_signature, required=True, metavar="P,Q")
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")

    p_project = sub.add_parser("project", help="stereographic lift of a chart point")
    p_project.add_argument("geometry", choices=tuple(_CHARTS))
    p_project.add_argument("--point", type=_parse_point, required=True, metavar="X,Y,Z")

    p_prob = sub.add_parser("prob", help="state fidelity between two chart points")
    p_prob.add_argument("geometry", choices=tuple(_CHARTS))
    p_prob.add_argument("--point-a", type=_parse_point, required=True, metavar="X,Y,Z")
    p_prob.add_argument("--point-b", type=_parse_point, required=True, metavar="X,Y,Z")
    p_prob.add_argument("--quaternion", action="store_true")

    p_fig = sub.add_parser("figure", help="emit curve data as CSV")
    p_fig.add_argument("name", choices=tuple(FIGURES))
    p_fig.add_argument("--samples", type=int, default=101)
    p_fig.add_argument("--out", required=True)

    p_dirac = sub.add_parser("dirac", help="column -> quaternion pair round trip")
    p_dirac.add_argument("--components", type=float, nargs="+", required=True, metavar="R")

    for name, p in sub.choices.items():  # command <name> runs cmd_<name>
        p.set_defaults(func=globals()[f"cmd_{name}"])
    for p in (parser, *sub.choices.values()):  # -1,3 and -5e-05 are values, as -1 is
        p._negative_number_matcher = re.compile(r"^-\.?\d")
        p.format_usage = fixed(p.format_usage)  # usage fixed at its first error's COLUMNS
    parser.commands = sub.choices
    return parser


def _parse_argv(parser: argparse.ArgumentParser, argv: Sequence[str]) -> argparse.Namespace:
    """``parser.parse_args(argv)`` less its pass over every string when argv[0] is a
    command: the rest parsed as argparse's subparsers action parses it."""
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, rest = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    return args


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = _parse_argv(parser, sys.argv[1:] if argv is None else argv)
    if args.command == "verify" and args.cases < 1:
        parser.error("--cases must be >= 1")
    if args.command == "verify" and args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.command == "figure" and args.samples < 2:
        parser.error("--samples must be >= 2")
    if args.command == "dirac" and len(args.components) != 8:
        parser.error("--components needs exactly 8 reals")
    if args.command == "dirac" and not all(math.isfinite(c) for c in args.components):
        parser.error("--components must be finite reals")
    if args.command == "prob" and args.quaternion and args.geometry != "hyper":
        parser.error("--quaternion states live on the g0 hyperboloid; use geometry 'hyper'")
    if args.command == "prob" and not args.quaternion and (args.point_a[2] or args.point_b[2]):
        parser.error("2-component states use a planar chart; the third component must be 0")
    # A domain error, an unwritable file or a failed allocation is one error
    # line and exit 1; an overflow becomes a NonFiniteValue there, not a warning.
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (GAError, OSError, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
