"""Command-line surface: verification runs, table/figure emission, fidelity.

Output is deliberately diff-able: line-oriented key=value blocks for
reports, CSV with a mandatory header row for tables and figure data, all
floats rendered with %.17g and no locale dependence.  Every numeric
emission is re-validated against the owning module's invariants before it
is printed.  All randomness flows from one --seed flag (default 0).

Exit codes: 0 success, 1 domain or verification failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import core
from .core import (
    EUCLIDEAN4,
    MINKOWSKI12,
    PAULI3,
    SPACETIME13,
    Multivector,
    Signature,
    geometric_product,
    residual,
    reverse,
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
    idempotent_identities,
    matrix_residual,
    quat_mul,
    rep_pss,
    rep_vec,
    unrep_pss,
    unrep_vec,
)
from .quatspinor import (
    QuatSpinor,
    canonical_q,
    fidelity_q,
    fidelity_q_circ_route,
    image,
    norm2_q,
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
DEFAULT_TOL = core.TOL


def _f(x: float) -> str:
    return FMT % float(x)


def _vec(xs) -> str:
    return ",".join(_f(x) for x in xs)


def _mv_terms(m: Multivector, tol: float = 1e-14) -> str:
    parts = []
    for mask in range(m.signature.dim):
        c = m.coeffs[mask]
        if abs(c) > tol:
            parts.append(f"{m.signature.blade_name(mask)}:{_f(c)}")
    return ";".join(parts) if parts else "0"


# =====================================================================
# verify
# =====================================================================


@dataclass
class SuiteResult:
    name: str
    cases: int
    max_residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance


def _rand_mv(rng, sig: Signature, scale=1.0) -> Multivector:
    return Multivector(sig, rng.uniform(-scale, scale, size=sig.dim))


def _rand_quat(rng) -> Quaternion:
    v = rng.uniform(-1, 1, size=4)
    return Quaternion(v[0], tuple(v[1:]))


def _rand_admissible_q(rng, tag: AlgebraTag = AlgebraTag.SPACETIME13) -> QuatSpinor:
    while True:
        q0 = _rand_quat(rng)
        q1 = _rand_quat(rng)
        if q0.norm2() < 0.3:
            continue
        if q1.norm2() >= 0.8 * q0.norm2():
            q1 = q1.scale(0.6 * q0.norm() / q1.norm())
        psi = QuatSpinor(q0, q1, tag)
        if norm2_q(psi) > 0.05:
            return psi


def _rand_orthogonal_q(rng, tag: AlgebraTag = AlgebraTag.SPACETIME13) -> QuatSpinor:
    psi = _rand_admissible_q(rng, tag)
    c = quat_mul(psi.q0.conjugate(), psi.q1).s
    q1 = psi.q1 - psi.q0.scale(c / psi.q0.norm2())
    out = QuatSpinor(psi.q0, q1, tag)
    return out if norm2_q(out) > 0.05 else _rand_orthogonal_q(rng, tag)


def _rand_plane(rng, scale: float) -> stereo.PlanePoint:
    return stereo.PlanePoint(tuple(rng.uniform(-scale, scale, size=3)))


def _rand_ball(rng, rmax: float) -> stereo.PlanePoint:
    v = rng.uniform(-1, 1, size=3)
    return stereo.PlanePoint(tuple(v / np.linalg.norm(v) * rng.uniform(0.01, rmax)))


def _rand_chart(rng, tag: AlgebraTag):
    if tag is AlgebraTag.PAULI3:
        return tuple(rng.uniform(-2.5, 2.5, size=2))
    while True:
        c = rng.uniform(-0.95, 0.95, size=2)
        if float(c @ c) < 0.9:
            return tuple(c)


def _suite_core_associativity(rng, cases, tol):
    worst = 0.0
    for sig in (EUCLIDEAN4, SPACETIME13, PAULI3, MINKOWSKI12):
        for _ in range(max(1, cases // 4)):
            a, b, c = (_rand_mv(rng, sig) for _ in range(3))
            worst = max(worst, residual((a * b) * c, a * (b * c)))
    return worst, tol


def _suite_core_reverse(rng, cases, tol):
    worst = 0.0
    for sig in (EUCLIDEAN4, SPACETIME13):
        for _ in range(max(1, cases // 2)):
            a, b = _rand_mv(rng, sig), _rand_mv(rng, sig)
            worst = max(worst, residual(reverse(a * b), reverse(b) * reverse(a)))
    return worst, tol


def _suite_core_generators(rng, cases, tol):
    worst = 0.0
    for sig in (EUCLIDEAN4, SPACETIME13, PAULI3, MINKOWSKI12):
        for i in range(sig.n):
            gi = Multivector.basis(sig, i)
            worst = max(worst, abs((gi * gi).scalar_part - sig.metric(i)))
            for j in range(i + 1, sig.n):
                gj = Multivector.basis(sig, j)
                worst = max(worst, residual(gi * gj, -(gj * gi)))
    return worst, tol


def _suite_core_exp(rng, cases, tol):
    worst = 0.0
    one = Multivector.scalar(EUCLIDEAN4, 1.0)
    for _ in range(cases):
        theta = rng.uniform(-3, 3)
        x = rng.uniform(-1, 1, size=3)
        n = np.linalg.norm(x)
        if n < 1e-6:
            continue
        xhat = Multivector.vector(EUCLIDEAN4, (0.0, *(x / n)))
        B = theta * (xhat * Multivector.basis(EUCLIDEAN4, 0))
        worst = max(worst, residual(core.exp_blade(B) * core.exp_blade(-B), one))
    return worst, tol


def _suite_core_grade_partition(rng, cases, tol):
    worst = 0.0
    for sig in (EUCLIDEAN4, MINKOWSKI12):
        for _ in range(max(1, cases // 2)):
            a = _rand_mv(rng, sig)
            total = Multivector.zero(sig)
            for g in range(sig.n + 1):
                total = total + core.grade_select(a, {g})
            worst = max(worst, residual(total, a))
    return worst, tol


def _suite_quatrep_embedding(rng, cases, tol):
    worst = 0.0
    for _ in range(cases):
        a, b = _rand_quat(rng), _rand_quat(rng)
        lhs = quat_mul(a, b).to_multivector()
        rhs = a.to_multivector() * b.to_multivector()
        worst = max(worst, residual(lhs, rhs))
    return worst, tol


def _suite_quatrep_homomorphism(rng, cases, tol):
    worst = 0.0
    for _ in range(cases):
        a, b = _rand_mv(rng, EUCLIDEAN4), _rand_mv(rng, EUCLIDEAN4)
        ab = a * b
        worst = max(worst, matrix_residual(rep_vec(ab), rep_vec(a) * rep_vec(b)))
        worst = max(worst, matrix_residual(rep_pss(ab), rep_pss(a) * rep_pss(b)))
    return worst, tol


def _suite_quatrep_faithfulness(rng, cases, tol):
    worst = 0.0
    for mask in range(16):
        blade = Multivector.blade(EUCLIDEAN4, mask)
        worst = max(worst, residual(unrep_vec(rep_vec(blade)), blade))
        worst = max(worst, residual(unrep_pss(rep_pss(blade)), blade))
    return worst, tol


def _suite_quatrep_change_basis(rng, cases, tol):
    worst = 0.0
    for _ in range(cases):
        g = _rand_mv(rng, EUCLIDEAN4)
        worst = max(worst, matrix_residual(change_of_basis(rep_pss(g)), rep_vec(g)))
    return worst, tol


def _suite_quatrep_idempotents(rng, cases, tol):
    rep = idempotent_identities()
    worst = max(
        rep["pseudoscalar_idempotent_from_vec"],
        rep["vec_idempotent_from_pseudoscalar"],
        rep["spectral_basis_relation"],
        rep["spectral_basis_outer_form"],
    )
    # singularity of B: deviation must stay >= 0.5
    worst = max(worst, max(0.0, 0.5 - rep["b_times_b_star_max_deviation"]))
    return worst, tol


def _suite_isomap_homomorphism(rng, cases, tol):
    worst = 0.0
    for _ in range(max(1, cases // 2)):
        for sig, f in ((EUCLIDEAN4, euclidean_to_spacetime), (SPACETIME13, spacetime_to_euclidean)):
            a, b = _rand_mv(rng, sig), _rand_mv(rng, sig)
            worst = max(worst, residual(f(a * b), f(a) * f(b)))
    return worst, tol


def _suite_isomap_inverse(rng, cases, tol):
    # the 16 blades of each algebra, then cases // 2 random elements of each
    worst = 0.0
    for sig, there, back in (
        (EUCLIDEAN4, euclidean_to_spacetime, spacetime_to_euclidean),
        (SPACETIME13, spacetime_to_euclidean, euclidean_to_spacetime),
    ):
        elements = [Multivector.blade(sig, mask) for mask in range(16)]
        elements += [_rand_mv(rng, sig) for _ in range(max(1, cases // 2))]
        for g in elements:
            worst = max(worst, residual(back(there(g)), g))
    return worst, tol


def _suite_stereo_roundtrip(rng, cases, tol):
    worst = 0.0
    for _ in range(max(1, cases // 2)):
        x, xh = _rand_plane(rng, 3.0), _rand_ball(rng, 0.95)
        for p, back in ((x, stereo.project_sphere(stereo.lift_sphere(x))),
                        (xh, stereo.project_hyper(stereo.lift_hyper(xh)))):
            worst = max(worst, max(abs(a - b) for a, b in zip(back.x, p.x)))
    return worst, 100.0 * tol


def _suite_stereo_rotor(rng, cases, tol):
    worst = 0.0
    e0 = Multivector.basis(EUCLIDEAN4, 0)
    g0 = Multivector.basis(SPACETIME13, 0)
    for _ in range(max(1, cases // 2)):
        x, xh = _rand_plane(rng, 3.0), _rand_ball(rng, 0.95)
        r, rh = stereo.sphere_rotor(x), stereo.hyper_boost(xh)
        worst = max(worst, residual(stereo.rotor_apply(r, e0), stereo.lift_sphere(x).a_hat))
        worst = max(worst, residual(stereo.rotor_apply(rh, g0), stereo.lift_hyper(xh).a_hat))
    return worst, 100.0 * tol


def _suite_stereo_trig(rng, cases, tol):
    worst = 0.0
    for _ in range(cases):
        r2 = float(rng.uniform(0, 27))  # |x|^2 over the chart box [-3, 3]^3
        c = (1.0 - r2) / (1.0 + r2)
        s = 2.0 * math.sqrt(r2) / (1.0 + r2)
        worst = max(worst, abs(c * c + s * s - 1.0))
        r2 = float(rng.uniform(0, 0.9))
        ch = (1.0 + r2) / (1.0 - r2)
        sh = 2.0 * math.sqrt(r2) / (1.0 - r2)
        worst = max(worst, abs(ch * ch - sh * sh - 1.0) / max(1.0, ch * ch))
    return worst, tol


def _suite_stereo_metric(rng, cases, tol):
    worst = 0.0
    h = 1e-5
    for _ in range(max(1, cases // 2)):
        x, dx = _rand_plane(rng, 2.0), rng.uniform(-1, 1, size=3)
        xh = _rand_ball(rng, 0.8)
        # (point, metric, lift, sign of the metric: positive on the sphere,
        # negative on the hyperboloid)
        for p, metric, lift, sign in ((x, stereo.sphere_metric, stereo.lift_sphere, 1.0),
                                      (xh, stereo.hyper_metric, stereo.lift_hyper, -1.0)):
            _, ds2 = metric(p, dx)
            if not sign * ds2 > 0.0:
                worst = math.inf
            xp = stereo.PlanePoint(tuple(np.array(p.x) + h * dx))
            xm = stereo.PlanePoint(tuple(np.array(p.x) - h * dx))
            da_fd = (lift(xp).a_hat - lift(xm).a_hat) / (2 * h)
            ds2_fd = geometric_product(da_fd, da_fd).scalar_part
            worst = max(worst, abs(ds2_fd - ds2) / max(1e-30, abs(ds2)))
    return worst, 1e-6


def _suite_gspinor_fidelity(rng, cases, tol):
    worst = 0.0
    bound_violation = 0.0
    for tag in (AlgebraTag.PAULI3, AlgebraTag.MINKOWSKI12):
        for _ in range(max(1, cases // 2)):
            ca, cb = _rand_chart(rng, tag), _rand_chart(rng, tag)
            psi = IdealSpinor.from_chart(tag, ca)
            chi = IdealSpinor.from_chart(tag, cb)
            f1 = fidelity(psi, chi)
            f2 = fidelity_bloch(tag, ca, cb)
            f3 = fidelity_chart(tag, ca, cb)
            scale = max(1.0, abs(f1))
            worst = max(worst, abs(f1 - f2) / scale, abs(f2 - f3) / scale)
            if tag is AlgebraTag.PAULI3:
                bound_violation = max(bound_violation, -f1, f1 - 1.0)
            else:
                bound_violation = max(bound_violation, 1.0 - f1)
    # the bounds hold to tol itself, not to the 100x route tolerance
    return max(worst, 100.0 * bound_violation), 100.0 * tol


def _suite_gspinor_antipode(rng, cases, tol):
    worst = 0.0
    for _ in range(cases):
        ca = tuple(rng.uniform(-2, 2, size=2))
        if sum(c * c for c in ca) < 1e-3:
            continue
        cb = antipodal_chart(ca)
        psi = IdealSpinor.from_chart(AlgebraTag.PAULI3, ca)
        chi = IdealSpinor.from_chart(AlgebraTag.PAULI3, cb)
        worst = max(worst, fidelity(psi, chi))
        worst = max(worst, abs(core.dot(m_vector(AlgebraTag.PAULI3, ca), m_vector(AlgebraTag.PAULI3, cb))))
    return worst, tol


def _suite_gspinor_canonical(rng, cases, tol):
    worst = 0.0
    for tag in (AlgebraTag.PAULI3, AlgebraTag.MINKOWSKI12):
        for _ in range(max(1, cases // 2)):
            ca = _rand_chart(rng, tag)
            phase = rng.uniform(0, 2 * math.pi)
            s = rng.uniform(0.3, 1.5)
            z = CenterScalar(s * math.cos(phase), s * math.sin(phase))
            base = IdealSpinor.from_chart(tag, ca)
            psi = IdealSpinor(tag, base.a0 * z, base.a1 * z)
            can = canonical_form(psi)
            ph = CenterScalar(math.cos(can.theta), math.sin(can.theta)).embed(tag)
            recon = can.rho * ph * can.m_hat * idempotent(tag)
            worst = max(worst, residual(recon, to_multivector(psi)))
    return worst, tol


def _suite_qspinor_canonical(rng, cases, tol):
    worst = 0.0
    for _ in range(max(1, cases // 2)):
        psi = _rand_admissible_q(rng)
        can = canonical_q(psi)
        worst = max(worst, residual(reconstruct(can, psi.tag), image(psi)))
        msq = geometric_product(can.M, can.M)
        want = 1.0 - psi.q1.norm2() / psi.q0.norm2()
        worst = max(worst, abs(msq.scalar_part - want))
    return worst, tol


def _suite_qspinor_projector(rng, cases, tol):
    worst = 0.0
    for _ in range(max(1, cases // 2)):
        psi = _rand_orthogonal_q(rng)
        worst = max(worst, residual(projector(psi), projector_closed_orthogonal(psi)))
        worst = max(worst, residual(reconstruct(canonical_q(psi), psi.tag), image(psi)))
    return worst, tol


def _suite_qspinor_fidelity(rng, cases, tol):
    worst = 0.0
    for _ in range(max(1, cases // 2)):
        psi, chi = _rand_admissible_q(rng), _rand_admissible_q(rng)
        f1 = fidelity_q(psi, chi)
        f2 = fidelity_q_circ_route(psi, chi)
        worst = max(worst, abs(f1 - f2) / max(1.0, abs(f1)))
    return worst, 100.0 * tol


def _suite_dirac_roundtrip(rng, cases, tol):
    worst = 0.0
    for _ in range(cases):
        phi = dirac_mod.DiracSpinor.from_reals(rng.uniform(-1, 1, size=8))
        worst = max(worst, dirac_mod.dirac_roundtrip_residual(phi))
    return worst, tol


def _suite_dirac_idempotents(rng, cases, tol):
    rep = dirac_mod.idempotent_report()
    return max(rep.values()), tol


def _suite_dirac_j_action(rng, cases, tol):
    worst = 0.0
    for k in range(4):
        for val in (1.0, 1j):
            comps = [0.0] * 4
            comps[k] = val
            m = dirac_mod.dirac_to_geometric(dirac_mod.DiracSpinor(tuple(comps)))
            worst = max(worst, residual(m * dirac_mod.j_blade(), 1j * m))
    return worst, tol


SUITES: dict[str, Callable] = {
    "core.associativity": _suite_core_associativity,
    "core.exp_unitarity": _suite_core_exp,
    "core.generator_contract": _suite_core_generators,
    "core.grade_partition": _suite_core_grade_partition,
    "core.reverse_antiautomorphism": _suite_core_reverse,
    "dirac.idempotents": _suite_dirac_idempotents,
    "dirac.j_action": _suite_dirac_j_action,
    "dirac.roundtrip": _suite_dirac_roundtrip,
    "gspinor.antipode": _suite_gspinor_antipode,
    "gspinor.canonical_reconstruction": _suite_gspinor_canonical,
    "gspinor.fidelity_triple": _suite_gspinor_fidelity,
    "isomap.homomorphism": _suite_isomap_homomorphism,
    "isomap.inverse_blades": _suite_isomap_inverse,
    "qspinor.canonical_reconstruction": _suite_qspinor_canonical,
    "qspinor.fidelity_dual_route": _suite_qspinor_fidelity,
    "qspinor.orthogonal_projector": _suite_qspinor_projector,
    "quatrep.change_of_basis": _suite_quatrep_change_basis,
    "quatrep.embedding_product": _suite_quatrep_embedding,
    "quatrep.faithfulness": _suite_quatrep_faithfulness,
    "quatrep.homomorphism": _suite_quatrep_homomorphism,
    "quatrep.idempotent_relations": _suite_quatrep_idempotents,
    "stereo.metric_finite_difference": _suite_stereo_metric,
    "stereo.roundtrip": _suite_stereo_roundtrip,
    "stereo.rotor_sandwich": _suite_stereo_rotor,
    "stereo.trig_identities": _suite_stereo_trig,
}


# Suites that check fixed inputs (blades, named idempotents) and ignore the
# case count; verify reports them as cases=fixed.
FIXED_INPUT_SUITES = frozenset({
    "core.generator_contract",
    "dirac.idempotents",
    "dirac.j_action",
    "quatrep.faithfulness",
    "quatrep.idempotent_relations",
})


def run_suite(name: str, seed: int, cases: int, tol: float) -> SuiteResult:
    """Run the registered suite ``name`` on its own stream, seeded by
    (seed, name), so its result does not depend on which suites run."""
    rng = np.random.default_rng((seed, name.encode()))
    worst, bound = SUITES[name](rng, cases, tol)
    return SuiteResult(name, cases, worst, bound)


def cmd_verify(args) -> int:
    results = [run_suite(name, args.seed, args.cases, args.tol) for name in sorted(SUITES)]
    failures = 0
    for r in results:
        print(f"suite={r.name}")
        print(f"cases={'fixed' if r.name in FIXED_INPUT_SUITES else r.cases}")
        print(f"max_residual={_f(r.max_residual)}")
        print(f"tolerance={_f(r.tolerance)}")
        print(f"status={'pass' if r.passed else 'fail'}")
        print()
        if not r.passed:
            failures += 1
    print(f"seed={args.seed}")
    print(f"cases={args.cases}")
    print(f"total_suites={len(results)}")
    print(f"failures={failures}")
    print(f"status={'pass' if failures == 0 else 'fail'}")
    return 0 if failures == 0 else 1


# =====================================================================
# table
# =====================================================================

_KNOWN_LABELS = {
    (4, 0): EUCLIDEAN4,
    (1, 3): SPACETIME13,
    (3, 0): PAULI3,
    (1, 2): MINKOWSKI12,
}


def _signature_for(p: int, q: int) -> Signature:
    if (p, q) in _KNOWN_LABELS:
        return _KNOWN_LABELS[(p, q)]
    prefix = "e" if q == 0 else "g"
    return Signature(p, q, tuple(f"{prefix}{k}" for k in range(p + q)))


def cmd_table(args) -> int:
    try:
        p_str, q_str = args.signature.split(",")
        p, q = int(p_str), int(q_str)
        sig = _signature_for(p, q)
    except ValueError as exc:
        print(f"error: bad signature {args.signature!r}: {exc}", file=sys.stderr)
        return 2
    names = core.blade_names(sig)
    table = core.cayley_table(sig)
    cells = [
        [("+" if sign > 0 else "-") + names[mask] for sign, mask in row]
        for row in table
    ]
    if args.format == "json":
        import json

        print(
            json.dumps(
                {"signature": [p, q], "blades": names, "table": cells},
                indent=None,
                separators=(",", ":"),
            )
        )
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["blade", *names])
        for name, row in zip(names, cells):
            writer.writerow([name, *row])
    return 0


# =====================================================================
# project
# =====================================================================


def _parse_point(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("point needs exactly 3 comma-separated reals")
    point = tuple(float(t) for t in parts)
    if not all(math.isfinite(c) for c in point):
        raise ValueError(f"point {text!r} has a non-finite coordinate")
    return point


def cmd_project(args) -> int:
    try:
        point = _parse_point(args.point)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    x = stereo.PlanePoint(point)
    try:
        if args.geometry == "sphere":
            lifted = stereo.lift_sphere(x).a_hat
            angle = stereo.sphere_angle(x)
            rotor = stereo.sphere_rotor(x)
            pole = Multivector.basis(EUCLIDEAN4, 0)
            d = 1.0 + x.norm2
            factor = 4.0 / (d * d)  # 0.0 once d * d overflows (d ** 2 would raise)
        else:
            lifted = stereo.lift_hyper(x).a_hat
            angle = stereo.hyper_angle(x)
            rotor = stereo.hyper_boost(x)
            pole = Multivector.basis(SPACETIME13, 0)
            d = 1.0 - x.norm2
            factor = -4.0 / (d * d)
    except GAError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    # re-validate before printing
    sq = geometric_product(lifted, lifted).scalar_part
    sandwich = stereo.rotor_apply(rotor, pole)
    if not (
        core.close(abs(sq - 1.0), 1.0 + float(lifted.coeffs @ lifted.coeffs))
        and core.close(residual(sandwich, lifted), lifted.abs_sum())
    ):
        print("error: emitted point failed re-validation", file=sys.stderr)
        return 1
    print(f"geometry={args.geometry}")
    print(f"x_m={_vec(point)}")
    print(f"a_hat={_vec(lifted.vector_components())}")
    print(f"a_hat_square={_f(sq)}")
    print(f"angle={_f(angle)}")
    print(f"rotor={_mv_terms(rotor)}")
    print(f"metric_factor={_f(factor)}")
    return 0


# =====================================================================
# prob
# =====================================================================


def cmd_prob(args) -> int:
    try:
        pa = _parse_point(args.point_a)
        pb = _parse_point(args.point_b)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.quaternion:
            if args.geometry != "hyper":
                print(
                    "error: --quaternion states live on the g0 hyperboloid; "
                    "use geometry 'hyper'",
                    file=sys.stderr,
                )
                return 2
            psi = QuatSpinor.from_bloch_point(pa)
            chi = QuatSpinor.from_bloch_point(pb)
            f_braket = fidelity_q(psi, chi)
            f_closed = fidelity_q_circ_route(psi, chi)
        else:
            if abs(pa[2]) > 0 or abs(pb[2]) > 0:
                print(
                    "error: 2-component states use a planar chart; the third "
                    "component must be 0",
                    file=sys.stderr,
                )
                return 2
            tag = AlgebraTag.PAULI3 if args.geometry == "sphere" else AlgebraTag.MINKOWSKI12
            ca, cb = (pa[0], pa[1]), (pb[0], pb[1])
            psi = IdealSpinor.from_chart(tag, ca)
            chi = IdealSpinor.from_chart(tag, cb)
            f_braket = fidelity(psi, chi)
            f_closed = fidelity_chart(tag, ca, cb)
    except GAError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    resid = abs(f_braket - f_closed)
    if resid > 1e-10 * max(1.0, abs(f_braket)):
        print("error: fidelity routes disagree beyond tolerance", file=sys.stderr)
        return 1
    label = (
        "Bloch sphere probability"
        if args.geometry == "sphere" and not args.quaternion
        else "Bloch hyperboloid quantity (>=1)"
    )
    print(f"geometry={args.geometry}")
    print(f"quaternion={'yes' if args.quaternion else 'no'}")
    print(f"label={label}")
    print(f"fidelity_braket={_f(f_braket)}")
    print(f"fidelity_closed_form={_f(f_closed)}")
    print(f"residual={_f(resid)}")
    return 0


# =====================================================================
# figure
# =====================================================================


def _figure_stereo_sphere(samples: int):
    # Riemann-sphere cross-section: swapping e0 and e3 puts the pole at e3.
    rows = [["t", "x_m", "a_e1", "a_e2", "a_e3"]]
    for t in np.linspace(-2.0, 2.0, samples):
        lifted = stereo.lift_sphere(stereo.PlanePoint.of(t, 0.0, 0.0)).a_hat
        comps = stereo.permute_generators(lifted, (3, 1, 2, 0)).vector_components()
        rows.append([_f(t), _f(t), *(_f(c) for c in comps[1:])])
    return rows


def _figure_stereo_hyper(samples: int):
    rows = [["t", "x_m", "a_g0", "a_g1", "a_g2"]]
    for t in np.linspace(-0.9, 0.9, samples):
        comps = stereo.lift_hyper(stereo.PlanePoint.of(t, 0.0, 0.0)).a_hat.vector_components()
        rows.append([_f(t), _f(t), *(_f(c) for c in comps[:3])])
    return rows


def _figure_poincare_geodesic(samples: int):
    # Circular arc orthogonal to the unit circle: center (sqrt2, 0), radius 1
    # (|c|^2 = 1 + r^2); its endpoints, the first and last samples, lie on
    # the unit circle and carry no lift.
    rows = [["psi", "x1", "x2", "a_g0", "a_g1", "a_g2"]]
    center = math.sqrt(2.0)
    lifted_pts = []
    for k, psi in enumerate(np.linspace(3 * math.pi / 4, 5 * math.pi / 4, samples)):
        x1 = center + math.cos(psi)
        x2 = math.sin(psi)
        if k in (0, samples - 1):
            rows.append([_f(psi), _f(x1), _f(x2), "", "", ""])
            continue
        lifted = stereo.lift_hyper(stereo.PlanePoint.of(x1, x2, 0.0)).a_hat
        lifted_pts.append(lifted.vector_components()[:3])
        rows.append([_f(psi), _f(x1), _f(x2), *(_f(c) for c in lifted_pts[-1])])
    # endpoints on the unit circle
    for idx in (1, len(rows) - 1):
        x1, x2 = float(rows[idx][1]), float(rows[idx][2])
        if abs(x1 * x1 + x2 * x2 - 1.0) > 1e-10:
            raise VerificationFailure("arc endpoints must lie on the unit circle")
    # geodesic = hyperboloid cut by a plane through the origin
    if len(lifted_pts) >= 3:
        sv = np.linalg.svd(np.stack(lifted_pts), compute_uv=False)
        if sv[-1] > 1e-8 * sv[0]:
            raise VerificationFailure("lifted arc is not planar through the origin")
    return rows


def cmd_figure(args) -> int:
    builders = {
        "stereo-sphere": _figure_stereo_sphere,
        "stereo-hyper": _figure_stereo_hyper,
        "poincare-geodesic": _figure_poincare_geodesic,
    }
    try:
        rows = builders[args.name](args.samples)
    except GAError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    try:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerows(rows)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    print(f"figure={args.name}")
    print(f"rows={len(rows) - 1}")
    print(f"out={args.out}")
    return 0


# =====================================================================
# dirac
# =====================================================================


def cmd_dirac(args) -> int:
    try:
        phi = dirac_mod.DiracSpinor.from_reals(args.components)
        m = dirac_mod.dirac_to_geometric(phi)
        psi = dirac_mod.geometric_to_qspinor(m)
        resid = dirac_mod.dirac_roundtrip_residual(phi)
    except GAError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if resid > 1e-10 * max(1.0, m.max_abs()):
        print("error: round trip failed re-validation", file=sys.stderr)
        return 1
    print(f"components={_vec(args.components)}")
    print(f"q0={_f(psi.q0.s)},{_vec(psi.q0.v)}")
    print(f"q1={_f(psi.q1.s)},{_vec(psi.q1.v)}")
    print(f"carrier_re={_mv_terms(m.re)}")
    print(f"carrier_im={_mv_terms(m.im)}")
    print(f"roundtrip_residual={_f(resid)}")
    return 0


# =====================================================================
# parser
# =====================================================================


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaspin",
        description="Verified geometric-algebra toolkit: Cl(4,0)/Cl(1,3), "
        "quaternion matrix representations, stereographic charts, spinors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run every property suite")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--cases", type=int, default=200)
    p_verify.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_verify.set_defaults(func=cmd_verify)

    p_table = sub.add_parser("table", help="emit the exact blade product table")
    p_table.add_argument("--signature", required=True, metavar="P,Q")
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    p_table.set_defaults(func=cmd_table)

    p_project = sub.add_parser("project", help="stereographic lift of a chart point")
    p_project.add_argument("geometry", choices=("sphere", "hyper"))
    p_project.add_argument("--point", required=True, metavar="X,Y,Z")
    p_project.set_defaults(func=cmd_project)

    p_prob = sub.add_parser("prob", help="state fidelity between two chart points")
    p_prob.add_argument("geometry", choices=("sphere", "hyper"))
    p_prob.add_argument("--point-a", required=True, metavar="X,Y,Z")
    p_prob.add_argument("--point-b", required=True, metavar="X,Y,Z")
    p_prob.add_argument("--quaternion", action="store_true")
    p_prob.set_defaults(func=cmd_prob)

    p_fig = sub.add_parser("figure", help="emit curve data as CSV")
    p_fig.add_argument(
        "name", choices=("stereo-sphere", "stereo-hyper", "poincare-geodesic")
    )
    p_fig.add_argument("--samples", type=int, default=101)
    p_fig.add_argument("--out", required=True)
    p_fig.set_defaults(func=cmd_figure)

    p_dirac = sub.add_parser("dirac", help="column -> quaternion pair round trip")
    p_dirac.add_argument(
        "--components", type=float, nargs="+", required=True, metavar="R"
    )
    p_dirac.set_defaults(func=cmd_dirac)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and args.cases < 1:
        parser.error("--cases must be >= 1")
    if args.command == "verify" and not (math.isfinite(args.tol) and args.tol >= 0.0):
        parser.error("--tol must be a finite real >= 0")
    if args.command == "figure" and args.samples < 2:
        parser.error("--samples must be >= 2")
    if args.command == "dirac" and len(args.components) != 8:
        parser.error("--components needs exactly 8 reals")
    if args.command == "dirac" and not all(math.isfinite(c) for c in args.components):
        parser.error("--components must be finite reals")
    # An overflow becomes a NonFiniteValue on one error line, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
