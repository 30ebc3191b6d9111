"""Seeded workloads of the gaspin benchmark: inputs, timed operations, checks.

Every workload is a closed loop with one caller in one thread: an operation
starts only after the previous one has returned.  Work comes in rounds of a
fixed size.  Round r of a run with seed s draws its inputs from
``numpy.random.default_rng((s, r))``, so the seed fixes every input.  A round
is timed as one loop over its operations; its outputs are checked after that
loop, so checking adds no timed work.  Spans are read from the ``clock``
a workload is given (calibration.Calibrator.clock in a pass).

Checks use the tolerances of the repository's tests, scaled by the size of
the expected value where that value can be large.  They compare against
closed forms computed here where one exists, and otherwise against a second
library route (canonical-form reconstructions, the quaternion image and
closed-form projector, the Dirac carrier round trip), computed in the check.

The timed workloads draw no input from the regions where the library is
known to fail today (hyperbolic-chart points within 5e-2 of the open-ball
edge, sphere-chart points far from the origin, non-finite CLI arguments), so
any failed operation is a regression.  Those regions are measured by a
separate, untimed known-defect probe of a fixed size per run
(``probe_inputs``): its operations are marked ``edge``, and for a state only
failures of the stages that take an edge input (EDGE_STAGES) are excused.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

import numpy as np

from gaspin import cli, dirac, quatspinor, spinors, stereo
from gaspin.core import EUCLIDEAN4, SPACETIME13, Multivector
from gaspin.isomap import AlgebraTag

STATES_PER_ROUND = 40
# Size of the known-defect probe of a run: edge states, edge CLI calls.
PROBE_STATES = 40
PROBE_CALLS = 12
VERIFY_CASES = 500
SUITES = (
    "core.associativity", "core.exp_unitarity", "core.generator_contract",
    "core.grade_partition", "core.reverse_antiautomorphism", "dirac.idempotents",
    "dirac.j_action", "dirac.roundtrip", "gspinor.antipode",
    "gspinor.canonical_reconstruction", "gspinor.fidelity_triple", "isomap.homomorphism",
    "isomap.inverse_blades", "qspinor.canonical_reconstruction", "qspinor.fidelity_dual_route",
    "qspinor.orthogonal_projector", "quatrep.change_of_basis", "quatrep.embedding_product",
    "quatrep.faithfulness", "quatrep.homomorphism", "quatrep.idempotent_relations",
    "stereo.metric_finite_difference", "stereo.roundtrip", "stereo.rotor_sandwich",
    "stereo.trig_identities",
)


@dataclass
class Record:
    """One checked operation.  ``kind`` is its workload or command class;
    ``stage_seconds`` holds the spans inside it (states stages, verify
    suites)."""

    kind: str
    seconds: float
    edge: bool = False
    failure: str | None = None
    stage_seconds: dict[str, float] = field(default_factory=dict)
    stage_failures: dict[str, str] = field(default_factory=dict)


def call_cli(argv: list[str], clock: Callable[[], float] = perf_counter) -> tuple[Any, str, str, float]:
    """Run ``cli.main(argv)`` in-process; returns (exit code or exception,
    stdout, stderr, seconds).  argparse's SystemExit is its exit code."""
    out, err = io.StringIO(), io.StringIO()
    t0 = clock()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code: Any = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an escaping exception is a counted failure
        code = exc
    return code, out.getvalue(), err.getvalue(), clock() - t0


def _kv(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def _floats(text: str) -> np.ndarray:
    return np.array([float(t) for t in text.split(",")])


def _exit_failure(code: Any, want: int | tuple[int, ...]) -> str | None:
    wanted = want if isinstance(want, tuple) else (want,)
    if isinstance(code, BaseException):
        return f"raised {type(code).__name__}: {code}"
    if code not in wanted:
        return f"exit code {code!r}, expected {wanted}"
    return None


def _close(got, want, tol: float, what: str) -> str | None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return f"{what}: shape {got.shape} != {want.shape}"
    scale = max(1.0, float(np.max(np.abs(want))) if want.size else 1.0)
    err = float(np.max(np.abs(got - want))) if want.size else 0.0
    if not err <= tol * scale:  # also catches nan
        return f"{what}: error {err:.3g} > {tol:g} * {scale:.3g}"
    return None


def _first(*failures: str | None) -> str | None:
    return next((f for f in failures if f), None)


def _unit(rng) -> np.ndarray:
    d = rng.normal(size=3)
    return d / np.linalg.norm(d)


def ball_point(rng, edge: bool, dim: int = 3) -> np.ndarray:
    """Point of the open unit ball: uniform within radius 0.95 (the range
    the tests sample), or at 1 - r log-uniform in [1e-8, 5e-2] for edge."""
    d = rng.normal(size=dim)
    d /= np.linalg.norm(d)
    if edge:
        return d * (1.0 - 10.0 ** rng.uniform(-8.0, math.log10(5e-2)))
    return d * 0.95 * rng.uniform() ** (1.0 / dim)


def plane_point(rng, edge: bool, dim: int, half_width: float) -> np.ndarray:
    """Chart point of a whole-space chart: the tests' box, or |x|
    log-uniform in [5, 1e8] for edge."""
    if edge:
        d = rng.normal(size=dim)
        return d / np.linalg.norm(d) * 10.0 ** rng.uniform(math.log10(5.0), 8.0)
    return rng.uniform(-half_width, half_width, size=dim)


# --------------------------------------------------------------------- oracles


def fidelity_2c(tag: AlgebraTag, ca, cb) -> float:
    """|<a|b>|^2 / (<a|a><b|b>) for the 2-component states (1, a0 + i a1)."""
    wa, wb = complex(*ca), complex(*cb)
    if tag is AlgebraTag.PAULI3:
        return abs(1 + wa.conjugate() * wb) ** 2 / ((1 + abs(wa) ** 2) * (1 + abs(wb) ** 2))
    return abs(1 - wa.conjugate() * wb) ** 2 / ((1 - abs(wa) ** 2) * (1 - abs(wb) ** 2))


def fidelity_bloch_q(xa, xb) -> float:
    """Bloch-hyperboloid quantity of the quaternion states of two Bloch points."""
    xa, xb = np.asarray(xa, dtype=float), np.asarray(xb, dtype=float)
    c = np.cross(xa, xb)
    return ((1 - xa @ xb) ** 2 + c @ c) / ((1 - xa @ xa) * (1 - xb @ xb))


def lift(x, hyper: bool) -> np.ndarray:
    """Closed-form stereographic lift ((1 -+ r^2) pole + 2x) / (1 +- r^2)...
    with the hyperbolic signs for ``hyper``."""
    x = np.asarray(x, dtype=float)
    r2 = float(x @ x)
    if hyper:
        return np.array([1 + r2, *(2 * x)]) / (1 - r2)
    return np.array([1 - r2, *(2 * x)]) / (1 + r2)


def blade_sign(a: int, b: int, metric: list[int]) -> int:
    """Sign of the product of basis blades a and b (bit masks): one factor
    -1 per transposition, and the square of each shared generator."""
    swaps, x = 0, a >> 1
    while x:
        swaps += bin(x & b).count("1")
        x >>= 1
    sign = -1 if swaps % 2 else 1
    for k, m in enumerate(metric):
        if a & b & (1 << k):
            sign *= m
    return sign


_LABELS = {(4, 0): ("e", 0), (1, 3): ("g", 0), (3, 0): ("e", 1), (1, 2): ("g", 0)}


def cayley_cells(p: int, q: int) -> tuple[list[str], list[list[str]]]:
    """Expected blade names and signed table cells of Cl(p,q)."""
    prefix, first = _LABELS.get((p, q), ("e" if q == 0 else "g", 0))
    n = p + q
    names = [
        "1" if m == 0 else prefix + "".join(str(first + k) for k in range(n) if m >> k & 1)
        for m in range(1 << n)
    ]
    metric = [1] * p + [-1] * q
    cells = [
        [("+" if blade_sign(i, j, metric) > 0 else "-") + names[i ^ j] for j in range(1 << n)]
        for i in range(1 << n)
    ]
    return names, cells


# ---------------------------------------------------------------------- verify


class Verify:
    """In-process ``gaspin verify --seed S --cases 500``: every suite on dense
    random operands.  One operation is one call, and a round; each suite is
    timed as a span, and each of SUITES must pass.  Every round repeats the
    seed, so its stdout must be byte-identical to the first round's."""

    name = "verify"

    def __init__(self, seed: int, clock=perf_counter, cases: int = VERIFY_CASES):
        self.argv = ["verify", "--seed", str(seed), "--cases", str(cases)]
        self.clock = clock
        self.suites = SUITES
        self.first_stdout: str | None = None
        self.headroom: dict[str, float] = {}

    def inputs(self, rng) -> list[None]:
        return [None]

    def probe_inputs(self, rng) -> list[None]:
        return []  # verify has no known-defect inputs

    def execute(self, _item) -> tuple:
        spans: dict[str, float] = {}

        def timed(name: str, fn: Callable) -> Callable:
            def run(*args):
                t0 = self.clock()
                try:
                    return fn(*args)
                finally:
                    spans[name] = self.clock() - t0

            return run

        saved = dict(cli.SUITES)
        cli.SUITES.update({name: timed(name, fn) for name, fn in saved.items()})
        try:
            result = call_cli(self.argv, self.clock)
        finally:
            cli.SUITES.update(saved)
        return result, spans

    def check(self, _item, outcome) -> Record:
        (code, out, _err, seconds), spans = outcome
        if self.first_stdout is None:
            self.first_stdout = out
        failures = [
            _exit_failure(code, 0),
            None if out == self.first_stdout else "stdout differs from the first round",
        ]
        blocks = {}
        for block in out.split("\n\n"):
            kv = _kv(block)
            if "suite" in kv:
                blocks[kv["suite"]] = kv
        for name in self.suites:
            kv = blocks.get(name)
            if kv is None:
                failures.append(f"{name}: missing from the report")
                continue
            residual, tol = float(kv["max_residual"]), float(kv["tolerance"])
            self.headroom[name] = residual / tol
            if kv.get("status") != "pass" or not residual <= tol:
                failures.append(f"{name}: status {kv.get('status')}, residual {residual:g} > {tol:g}")
        failure = "; ".join(f for f in failures if f) or None
        return Record("verify", seconds, failure=failure, stage_seconds=spans)


# ---------------------------------------------------------------------- states


STAGES = ("stereo", "spinors", "quatspinor", "dirac")
# Stages whose first operand an edge state draws from a known-defect region;
# the Dirac column of every state is ordinary.
EDGE_STAGES = frozenset(("stereo", "spinors", "quatspinor"))
_E0 = Multivector.basis(EUCLIDEAN4, 0)
_G0 = Multivector.basis(SPACETIME13, 0)


@dataclass
class State:
    edge: bool
    sphere_x: tuple
    hyper_x: tuple
    pauli: tuple  # (chart a, chart b, phase, scale)
    mink: tuple
    bloch_a: tuple
    bloch_b: tuple
    dirac_reals: tuple


def _stage_stereo(s: State):
    x, xh = stereo.PlanePoint(s.sphere_x), stereo.PlanePoint(s.hyper_x)
    back = stereo.project_sphere(stereo.lift_sphere(x))
    moved = stereo.rotor_apply(stereo.sphere_rotor(x), _E0)
    back_h = stereo.project_hyper(stereo.lift_hyper(xh))
    moved_h = stereo.rotor_apply(stereo.hyper_boost(xh), _G0)
    return back.x, moved.coeffs, back_h.x, moved_h.coeffs


def _check_stereo(s: State, out) -> str | None:
    back, moved, back_h, moved_h = out
    want, want_h = lift(s.sphere_x, False), lift(s.hyper_x, True)
    return _first(
        _close(back, s.sphere_x, 1e-10, "sphere round trip"),
        _close(moved, np.bincount([1, 2, 4, 8], want, 16), 1e-10, "sphere rotor"),
        _close(back_h, s.hyper_x, 1e-10, "hyper round trip"),
        _close(moved_h, np.bincount([1, 2, 4, 8], want_h, 16), 1e-10, "hyper boost"),
    )


def _spinor_pair(tag: AlgebraTag, params):
    ca, cb, phase, scale = params
    psi = spinors.IdealSpinor.from_chart(tag, ca)
    chi = spinors.IdealSpinor.from_chart(tag, cb)
    f = (spinors.fidelity(psi, chi), spinors.fidelity_bloch(tag, ca, cb),
         spinors.fidelity_chart(tag, ca, cb))
    z = spinors.CenterScalar(scale * math.cos(phase), scale * math.sin(phase))
    psi_z = spinors.IdealSpinor(tag, psi.a0 * z, psi.a1 * z)
    return f, spinors.canonical_form(psi_z), psi_z


def _reconstruct(tag: AlgebraTag, can) -> np.ndarray:
    ph = spinors.CenterScalar(math.cos(can.theta), math.sin(can.theta)).embed(tag)
    return (can.rho * ph * can.m_hat * spinors.idempotent(tag)).coeffs


def _stage_spinors(s: State):
    return (_spinor_pair(AlgebraTag.PAULI3, s.pauli),
            _spinor_pair(AlgebraTag.MINKOWSKI12, s.mink))


def _check_spinors(s: State, out) -> str | None:
    for tag, params, (f, can, psi_z) in zip(
        (AlgebraTag.PAULI3, AlgebraTag.MINKOWSKI12), (s.pauli, s.mink), out
    ):
        f1, f2, f3 = f
        want = fidelity_2c(tag, params[0], params[1])
        low, high = (0.0, 1.0) if tag is AlgebraTag.PAULI3 else (1.0, math.inf)
        failure = _first(
            _close([f2, f3], [f1, f1], 1e-10, f"{tag.name} fidelity triple"),
            _close(f1, want, 1e-10, f"{tag.name} fidelity vs closed form"),
            None if low - 1e-12 <= f1 <= high + 1e-12 else f"{tag.name} fidelity {f1} out of bounds",
            _close(_reconstruct(tag, can), spinors.to_multivector(psi_z).coeffs, 1e-12,
                   f"{tag.name} canonical reconstruction"),
        )
        if failure:
            return failure
    return None


def _stage_quatspinor(s: State):
    psi = quatspinor.QuatSpinor.from_bloch_point(s.bloch_a)
    chi = quatspinor.QuatSpinor.from_bloch_point(s.bloch_b)
    can = quatspinor.canonical_q(psi)
    f1 = quatspinor.fidelity_q(psi, chi)
    f2 = quatspinor.fidelity_q_circ_route(psi, chi)
    return psi, can, f1, f2, quatspinor.projector(psi)


def _check_quatspinor(s: State, out) -> str | None:
    psi, can, f1, f2, proj = out
    return _first(
        _close(quatspinor.reconstruct(can, psi.tag).coeffs, quatspinor.image(psi).coeffs,
               1e-12, "canonical_q reconstruction"),
        _close(f2, f1, 1e-10, "dual-route fidelity"),
        _close(f1, fidelity_bloch_q(s.bloch_a, s.bloch_b), 1e-10, "fidelity vs closed form"),
        _close(proj.coeffs, quatspinor.projector_closed_orthogonal(psi).coeffs, 1e-12,
               "projector vs closed form"),
    )


def _stage_dirac(s: State):
    phi = dirac.DiracSpinor.from_reals(s.dirac_reals)
    m = dirac.dirac_to_geometric(phi)
    psi = dirac.geometric_to_qspinor(m)
    return m, psi, dirac.qspinor_to_dirac(psi)


def _carrier(m) -> np.ndarray:
    return np.concatenate([m.re.coeffs, m.im.coeffs])


def _check_dirac(s: State, out) -> str | None:
    m, psi, back_spinor = out
    quats = (psi.q0.s, *psi.q0.v, psi.q1.s, *psi.q1.v)
    back = [v for c in back_spinor.components for v in (c.real, c.imag)]
    r = s.dirac_reals
    # phi1 = x0 + j x3, phi2 = -x2 + j x1, phi3 = -y3 + j y0, phi4 = -y1 - j y2
    want = (r[0], r[3], -r[2], r[1], r[5], -r[6], -r[7], -r[4])
    return _first(
        _close(_carrier(dirac.dirac_to_geometric(back_spinor)), _carrier(m), 1e-12,
               "round-trip carrier"),
        _close(back, r, 1e-12, "round-trip column"),
        _close(quats, want, 1e-12, "quaternion pair vs component dictionary"),
    )


_STAGE_CALLS = {
    "stereo": (_stage_stereo, _check_stereo),
    "spinors": (_stage_spinors, _check_spinors),
    "quatspinor": (_stage_quatspinor, _check_quatspinor),
    "dirac": (_stage_dirac, _check_dirac),
}


class States:
    """One operation runs the full pipeline on one seeded state: stereo round
    trips and rotor/boost on both charts, the fidelity triple and canonical
    form for a Pauli3 and a Minkowski12 pair, the quaternion-spinor canonical
    form, dual-route fidelity and projector, and a Dirac column round trip."""

    name = "states"

    def __init__(self, seed: int, clock=perf_counter, per_round: int = STATES_PER_ROUND):
        self.clock, self.per_round = clock, per_round

    @staticmethod
    def _state(rng, edge: bool) -> State:
        def pair(a, b):
            return (tuple(a), tuple(b), rng.uniform(0, 2 * math.pi), rng.uniform(0.3, 1.5))

        return State(
            edge=edge,
            sphere_x=tuple(plane_point(rng, edge, 3, 3.0)),
            hyper_x=tuple(ball_point(rng, edge)),
            pauli=pair(plane_point(rng, edge, 2, 2.5), plane_point(rng, False, 2, 2.5)),
            mink=pair(ball_point(rng, edge, 2), ball_point(rng, False, 2)),
            bloch_a=tuple(ball_point(rng, edge)),
            bloch_b=tuple(ball_point(rng, False)),
            dirac_reals=tuple(rng.uniform(-1, 1, size=8)),
        )

    def inputs(self, rng) -> list[State]:
        return [self._state(rng, False) for _ in range(self.per_round)]

    def probe_inputs(self, rng) -> list[State]:
        """States whose first operand of each edge stage lies in a
        known-defect region; their partners and Dirac column are ordinary."""
        return [self._state(rng, True) for _ in range(PROBE_STATES)]

    def execute(self, s: State) -> dict[str, tuple]:
        out = {}
        for stage in STAGES:
            t0 = self.clock()
            try:
                value = _STAGE_CALLS[stage][0](s)
            except Exception as exc:  # counted as a stage failure
                value = exc
            out[stage] = (value, self.clock() - t0)
        return out

    def check(self, s: State, outcome: dict[str, tuple]) -> Record:
        rec = Record("state", sum(t for _, t in outcome.values()))
        for stage, (value, seconds) in outcome.items():
            rec.stage_seconds[stage] = seconds
            if isinstance(value, Exception):
                failure = f"raised {type(value).__name__}: {value}"
            else:
                failure = _STAGE_CALLS[stage][1](s, value)
            if failure:
                rec.stage_failures[stage] = failure
        if rec.stage_failures:
            rec.failure = "; ".join(f"{k}: {v}" for k, v in rec.stage_failures.items())
            rec.edge = s.edge and rec.stage_failures.keys() <= EDGE_STAGES
        return rec


# ------------------------------------------------------------------- cli_calls


# Command classes, each with the same number of calls per round: one class
# per CLI form in the README's usage block (``verify`` is a workload of its
# own), ``table 3,3`` as the largest table, and ``invalid`` for the README's
# error exit codes on argv the CLI reports cleanly.  Argv in the
# known-defect regions is the probe's (CliCalls.probe_inputs).
CLI_CLASSES = ("project", "prob", "prob_quaternion", "dirac", "table", "table_3_3",
               "figure", "invalid")
CALLS_PER_CLASS = 4
SMALL_SIGNATURES = ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (1, 2), (2, 1),
                    (0, 3), (4, 0), (1, 3), (2, 2), (3, 1), (0, 4))
FIGURES = ("stereo-sphere", "stereo-hyper", "poincare-geodesic")


def _pt(x) -> str:
    return ",".join(repr(float(c)) for c in x)


@dataclass
class Call:
    kind: str
    argv: list[str]
    check: Callable[[Any, str], str | None]
    edge: bool = False


def _check_project(x, hyper: bool):
    x = np.asarray(x)

    def check(code, out):
        failure = _exit_failure(code, 0)
        if failure:
            return failure
        kv, r2 = _kv(out), float(x @ x)
        r = math.sqrt(r2)
        if hyper:
            angle, factor = math.atanh(2 * r / (1 + r2)), -4.0 / (1 - r2) ** 2
            scalar = math.cosh(angle / 2)
        else:
            angle, factor = math.atan2(2 * r, 1 - r2), 4.0 / (1 + r2) ** 2
            scalar = math.cos(angle / 2)
        rotor = dict(t.split(":") for t in kv["rotor"].split(";"))
        return _first(
            _close(_floats(kv["x_m"]), x, 0.0, "x_m echo"),
            _close(_floats(kv["a_hat"]), lift(x, hyper), 1e-10, "a_hat"),
            _close(float(kv["a_hat_square"]), 1.0, 1e-10, "a_hat_square"),
            _close(float(kv["angle"]), angle, 1e-12, "angle"),
            _close(float(kv["metric_factor"]), factor, 1e-12, "metric_factor"),
            _close(float(rotor.get("1", 0.0)), scalar, 1e-12, "rotor scalar part"),
        )

    return check


def _check_prob(fidelity: float):
    def check(code, out):
        failure = _exit_failure(code, 0)
        if failure:
            return failure
        kv = _kv(out)
        f1, f2 = float(kv["fidelity_braket"]), float(kv["fidelity_closed_form"])
        return _first(
            _close(f2, f1, 1e-10, "fidelity routes"),
            _close(f1, fidelity, 1e-10, "fidelity vs closed form"),
        )

    return check


def _check_dirac_cli(reals):
    r = reals

    def check(code, out):
        failure = _exit_failure(code, 0)
        if failure:
            return failure
        kv = _kv(out)
        quats = np.concatenate([_floats(kv["q0"]), _floats(kv["q1"])])
        want = (r[0], r[3], -r[2], r[1], r[5], -r[6], -r[7], -r[4])
        return _first(
            _close(_floats(kv["components"]), r, 0.0, "components echo"),
            _close(quats, want, 1e-12, "quaternion pair vs component dictionary"),
            _close(float(kv["roundtrip_residual"]), 0.0, 1e-12, "roundtrip_residual"),
        )

    return check


def _check_table(p: int, q: int, fmt: str):
    def check(code, out):
        failure = _exit_failure(code, 0)
        if failure:
            return failure
        names, cells = cayley_cells(p, q)
        if fmt == "json":
            got = json.loads(out)
            ok = got == {"signature": [p, q], "blades": names, "table": cells}
        else:
            rows = list(csv.reader(io.StringIO(out)))
            ok = rows == [["blade", *names]] + [[n, *row] for n, row in zip(names, cells)]
        return None if ok else f"table {p},{q} ({fmt}) differs from the expected blade products"

    return check


def _check_figure(name: str, samples: int, path: str):
    def check(code, out):
        failure = _exit_failure(code, 0)
        if failure:
            return failure
        kv = _kv(out)
        if kv.get("rows") != str(samples) or kv.get("out") != path:
            return f"figure report {kv!r}"
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        if len(rows) != samples:
            return f"figure file has {len(rows)} rows, expected {samples}"
        for row in rows:
            if name == "poincare-geodesic":
                x = np.array([float(row[1]), float(row[2])])
                if row[3] == "":
                    failure = _close(x @ x, 1.0, 1e-10, "arc endpoint on the unit circle")
                else:
                    failure = _close([float(v) for v in row[3:]], lift(x, True), 1e-10, "arc lift")
            else:
                t, a = float(row[0]), np.array([float(v) for v in row[2:]])
                if name == "stereo-hyper":
                    failure = _close(a, lift([t, 0.0], True), 1e-10, "hyperbolic row")
                else:
                    failure = _close(a @ a, 1.0, 1e-10, "sphere row unit square")
            if failure:
                return failure
        return None

    return check


class CliCalls:
    """Single in-process ``cli.main`` calls, CALLS_PER_CLASS of each class in
    CLI_CLASSES per round in a seeded order, with a parser built on every
    call: project, prob (2-component and quaternion), dirac, table (small
    signatures and 3,3), figure, and invalid argv the CLI handles today."""

    name = "cli_calls"

    def __init__(self, seed: int, clock, tmpdir: str):
        self.clock, self.tmpdir = clock, tmpdir

    def _call(self, kind: str, k: int, rng) -> Call:
        """Call number k of its class in the round."""
        if kind == "project":
            hyper = k % 2 == 1
            x = ball_point(rng, False) if hyper else plane_point(rng, False, 3, 3.0)
            return Call(kind, ["project", "hyper" if hyper else "sphere", "--point=" + _pt(x)],
                        _check_project(x, hyper))
        if kind == "prob":
            tag = AlgebraTag.MINKOWSKI12 if k % 2 else AlgebraTag.PAULI3
            if tag is AlgebraTag.PAULI3:
                ca, cb = rng.uniform(-2.5, 2.5, size=2), rng.uniform(-2.5, 2.5, size=2)
            else:
                ca, cb = ball_point(rng, False, 2), ball_point(rng, False, 2)
            argv = ["prob", "hyper" if k % 2 else "sphere",
                    "--point-a=" + _pt((*ca, 0.0)), "--point-b=" + _pt((*cb, 0.0))]
            return Call(kind, argv, _check_prob(fidelity_2c(tag, ca, cb)))
        if kind == "prob_quaternion":
            xa, xb = ball_point(rng, False), ball_point(rng, False)
            argv = ["prob", "hyper", "--point-a=" + _pt(xa), "--point-b=" + _pt(xb), "--quaternion"]
            return Call(kind, argv, _check_prob(fidelity_bloch_q(xa, xb)))
        if kind == "dirac":
            # Fixed-point text: argparse takes "-5e-05" for an option name.
            text = ["%.17f" % v for v in rng.uniform(-1, 1, size=8)]
            reals = tuple(float(t) for t in text)
            return Call(kind, ["dirac", "--components", *text], _check_dirac_cli(reals))
        if kind in ("table", "table_3_3"):
            p, q = (3, 3) if kind == "table_3_3" else SMALL_SIGNATURES[rng.integers(len(SMALL_SIGNATURES))]
            fmt = ("csv", "json")[rng.integers(2)]
            return Call(kind, ["table", "--signature", f"{p},{q}", "--format", fmt],
                        _check_table(p, q, fmt))
        if kind == "figure":
            name, samples = FIGURES[rng.integers(len(FIGURES))], int(rng.integers(21, 102))
            path = os.path.join(self.tmpdir, f"figure-{k}.csv")
            return Call(kind, ["figure", name, "--samples", str(samples), "--out", path],
                        _check_figure(name, samples, path))
        return self._invalid(rng)

    @staticmethod
    def _invalid(rng) -> Call:
        """Malformed or out-of-domain argv the CLI reports cleanly today."""
        x = _pt(rng.uniform(-0.5, 0.5, size=3))
        options = (
            (["table", "--signature", "7,0"], 2),
            (["project", "hyper", "--point=" + _pt(_unit(rng) * rng.uniform(1.01, 3.0))], 1),
            (["dirac", "--components", "1", "2", "3"], 2),
            (["prob", "sphere", "--point-a=0.5,0.25,0.5", "--point-b=" + x], 2),
            (["prob", "sphere", "--point-a=" + x, "--point-b=" + x, "--quaternion"], 2),
            (["project", "sphere", "--point=1,2"], 2),
        )
        argv, want = options[rng.integers(len(options))]
        return Call("invalid", argv, lambda code, out: _exit_failure(code, want))

    @staticmethod
    def _edge(rng) -> Call:
        """Non-finite arguments (a usage error, exit 2) and a valid point
        1e-10 inside the hyperbolic chart's edge (exit 0, or 1 if the CLI
        refuses to print a value that fails its re-validation)."""
        bad = ("nan", "inf")[rng.integers(2)]
        x = ["%.17f" % c for c in rng.uniform(-0.5, 0.5, size=3)]
        x[rng.integers(2)] = bad
        reals = ["%.17f" % c for c in rng.uniform(-1, 1, size=8)]
        reals[rng.integers(8)] = bad
        options = (
            (["project", "sphere", "--point=" + ",".join(x)], 2),
            (["prob", "sphere", "--point-a=" + ",".join(x[:2]) + ",0", "--point-b=0,0,0"], 2),
            (["dirac", "--components", *reals], 2),
            (["project", "hyper", "--point=0.9999999999,0,0"], (0, 1)),
        )
        argv, want = options[rng.integers(len(options))]
        return Call("edge", argv, lambda code, out: _exit_failure(code, want), edge=True)

    def inputs(self, rng) -> list[Call]:
        calls = [(kind, k) for kind in CLI_CLASSES for k in range(CALLS_PER_CLASS)]
        return [self._call(*calls[i], rng) for i in rng.permutation(len(calls))]

    def probe_inputs(self, rng) -> list[Call]:
        return [self._edge(rng) for _ in range(PROBE_CALLS)]

    def execute(self, call: Call):
        return call_cli(call.argv, self.clock)

    def check(self, call: Call, outcome) -> Record:
        code, out, _err, seconds = outcome
        try:
            failure = call.check(code, out)
        except (KeyError, ValueError, IndexError, OSError) as exc:
            failure = f"unreadable output: {type(exc).__name__}: {exc}"
        return Record(call.kind, seconds, edge=call.edge, failure=failure)
