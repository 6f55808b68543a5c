"""Command-line interface: scenario ingestion, dispatch, and report/CSV output.

Scenario files are JSON documents:

    {
      "masses":    [1.0, 1.0],
      "positions": [[-1.0, 0.0], [1.0, 0.0]],
      "velocities": [[0.0, 0.0], [0.0, 0.0]],          optional, default zero
      "potential": {"kind": "harmonic"},                optional, default harmonic
      "integrator": {"method": "rk4", "dt": 1e-3,
                     "t_end": 6.283, "stride": 10},     required by simulate/saari
      "tolerances": {"cc": 1e-9}                        optional overrides
    }

Unknown keys are rejected (``parse_scenario`` checks the shape, the domain
types the ranges). The budgets are dynamics.MAX_STEPS, dynamics.MAX_SAMPLES
and central_config.MAX_FAMILY_SAMPLES. ``simulate`` replaces the file named
by ``--out`` only when the run succeeds.

CSV output carries t, per-body qx/qy/vx/vy columns (1-based body labels),
then I, U, E, all printed with 17 significant digits so values round-trip bit exactly.

Exit codes: 0 pass, 1 runtime, validation or usage error, 2 verification failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .central_config import cc_residual, refine_cc, verify_continuum
from .core import (
    HARMONIC,
    MassVector,
    PhaseState,
    PotentialSpec,
    _bodies,
    _number as _real,
    _pair_offsets,
    moment_of_inertia,
)
from .dynamics import (
    RK4,
    VELOCITY_VERLET,
    IntegratorSpec,
    Trajectory,
    energy_drift,
    integrate,
)
from .errors import HarmoniaError, ParseError, ValidationError, ZeroInertia
from .saari import _require_finite, inertia_variation, saari_check, verify_counterexample

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VERIFICATION_FAILED = 2

_SCENARIO_KEYS = {"masses", "positions", "velocities", "potential", "integrator", "tolerances"}
_POTENTIAL_KEYS = {"kind", "exponent", "coupling"}
_INTEGRATOR_KEYS = {"method", "dt", "t_end", "stride"}
_TOLERANCE_KEYS = {"cc", "inertia", "rigidity", "refine"}
_METHOD_ALIASES = {"verlet": VELOCITY_VERLET, "rk4": RK4}

# Domain field -> document field; an index such as "[2]" is carried over.
_DOCUMENT_FIELDS = {
    "m": "masses", "q": "positions", "v": "velocities",
    "kind": "potential.kind", "exponent": "potential.exponent",
    "coupling": "potential.coupling", "method": "integrator.method",
    "dt": "integrator.dt", "t_end": "integrator.t_end", "sample_stride": "integrator.stride",
}


@dataclass(frozen=True)
class Scenario:
    """Validated simulation request parsed from a scenario file."""

    masses: MassVector
    state: PhaseState
    potential: PotentialSpec
    integrator: IntegratorSpec | None
    tolerances: dict


@dataclass
class RunReport:
    """Outcome of one CLI command: echo, measurements, verdicts, exit status."""

    command: str
    measurements: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    details: list = field(default_factory=list)
    exit_status: int = EXIT_OK

    def lines(self) -> list:
        out = [f"command: {self.command}"]
        for key, value in self.measurements.items():
            out.append(f"{key} = {_fmt(value)}")
        for key, value in self.verdicts.items():
            out.append(f"[{'PASS' if value else 'FAIL'}] {key}")
        out.extend(self.details)
        return out

    def render(self) -> str:
        return "\n".join(self.lines()) + "\n"


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _number(value, fieldname: str) -> float:
    """A JSON number as a finite double: no NaN/Infinity literal, no integer
    beyond the double range."""
    out = _real(value, fieldname)
    if not math.isfinite(out):
        raise ValidationError(fieldname, "must be finite")
    return out


def _point_array(value, fieldname: str) -> np.ndarray:
    if not isinstance(value, list):
        raise ValidationError(fieldname, "expected an array of [x, y] pairs")
    rows = []
    for i, item in enumerate(value):
        if not isinstance(item, list) or len(item) != 2:
            raise ValidationError(f"{fieldname}[{i}]", "expected an [x, y] pair")
        rows.append([_number(item[0], f"{fieldname}[{i}][0]"),
                     _number(item[1], f"{fieldname}[{i}][1]")])
    return np.array(rows)


def _section(doc, name: str, keys: set, required=()) -> dict:
    """A JSON object with only the given keys and all of the required ones."""
    if not isinstance(doc, dict):
        raise ValidationError(name, "expected an object")
    prefix = f"{name}." if name else ""
    unknown = sorted(set(doc) - keys)
    if unknown:
        raise ValidationError(prefix + unknown[0], "unknown key")
    for key in required:
        if key not in doc:
            raise ValidationError(prefix + key, "required")
    return doc


def _document_field(field: str) -> str:
    """Rename a domain field ("m[2]", "sample_stride") to its document path."""
    head, bracket, rest = field.partition("[")
    return _DOCUMENT_FIELDS.get(head, head) + bracket + rest


def parse_scenario(text) -> Scenario:
    """Parse a scenario document (str or bytes).

    This function checks the JSON shape: the keys of each section, the
    required ones and the type of each value. The ranges (positive masses,
    dt > 0, ...) are checked by the domain types it builds, whose
    ValidationErrors are re-raised with the field named as in the document.
    """
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        doc = json.loads(text)
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    except ValueError as exc:  # bad syntax, bytes not UTF-8, an integer too long to convert
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")
    _section(doc, "", _SCENARIO_KEYS, ("masses", "positions"))

    if not isinstance(doc["masses"], list):
        raise ValidationError("masses", "expected an array of numbers")
    mass_values = [_number(item, f"masses[{i}]") for i, item in enumerate(doc["masses"])]
    positions = _point_array(doc["positions"], "positions")
    velocities = _point_array(doc["velocities"], "velocities") if "velocities" in doc \
        else np.zeros_like(positions)

    raw = _section(doc.get("potential", {"kind": HARMONIC}), "potential", _POTENTIAL_KEYS,
                   ("kind",))
    if not isinstance(raw["kind"], str):
        raise ValidationError("potential.kind", "expected a string")
    potential_args = [raw["kind"]] + [_number(raw[key], f"potential.{key}") if key in raw
                                      else None for key in ("exponent", "coupling")]

    integrator_args = None
    if "integrator" in doc:
        raw = _section(doc["integrator"], "integrator", _INTEGRATOR_KEYS,
                       ("method", "dt", "t_end"))
        method = _METHOD_ALIASES.get(raw["method"]) if isinstance(raw["method"], str) else None
        if method is None:
            raise ValidationError("integrator.method", "must be 'verlet' or 'rk4'")
        stride = raw.get("stride", IntegratorSpec.sample_stride)
        if isinstance(stride, bool) or not isinstance(stride, int):
            raise ValidationError("integrator.stride", "expected an integer")
        integrator_args = (method, _number(raw["dt"], "integrator.dt"),
                           _number(raw["t_end"], "integrator.t_end"), stride)

    tolerances = {}
    for key, item in _section(doc.get("tolerances", {}), "tolerances", _TOLERANCE_KEYS).items():
        tolerances[key] = _number(item, f"tolerances.{key}")
        if tolerances[key] <= 0.0:  # tolerances have no domain type
            raise ValidationError(f"tolerances.{key}", "must be positive")

    try:
        masses = MassVector(np.array(mass_values))
        state = PhaseState(positions, velocities)
        _bodies(state.config, masses)
        potential = PotentialSpec(*potential_args)
        integrator = IntegratorSpec(*integrator_args) if integrator_args else None
    except ValidationError as exc:
        raise ValidationError(_document_field(exc.field), exc.reason) from None
    return Scenario(masses, state, potential, integrator, tolerances)


def load_scenario(path) -> Scenario:
    with open(path, "rb") as handle:
        return parse_scenario(handle.read())


def csv_header(n: int) -> str:
    cols = ["t"]
    for i in range(1, n + 1):
        cols.extend([f"qx{i}", f"qy{i}", f"vx{i}", f"vy{i}"])
    cols.extend(["I", "U", "E"])
    return ",".join(cols)


def write_trajectory_csv(traj: Trajectory, sink) -> None:
    """Emit the trajectory as CSV with derived I, U, E columns."""
    n = traj.m.n
    sink.write(csv_header(n) + "\n")
    bodies = np.concatenate([traj.q, traj.v], axis=2).reshape(len(traj), 4 * n)
    table = np.column_stack([traj.times, bodies, traj.inertia, traj.potential_energy,
                             traj.energy])
    for row in table.tolist():
        sink.write(",".join(format(x, ".17g") for x in row) + "\n")


def _integrate(scenario: Scenario, verb: str) -> Trajectory:
    if scenario.integrator is None:
        raise ValidationError("integrator", f"required for {verb}")
    try:
        return integrate(scenario.state, scenario.integrator, scenario.potential, scenario.masses)
    except ValidationError as exc:  # the sample budget, which counts the bodies too
        raise ValidationError(_document_field(exc.field), exc.reason) from None


def _replace_on_success(path: str, write):
    """Return ``write(sink)``, whose output replaces the file at ``path`` only if it returns.

    The sink is a new file beside the target (symlinks resolved), renamed onto
    it at the end, so on any error an existing file keeps its old bytes. A
    device or pipe such as /dev/stdout cannot be renamed onto; it is written
    in place.
    """
    path = os.path.realpath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as sink:
            return write(sink)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8") as sink:
            result = write(sink)
        os.replace(tmp, path)
        return result
    finally:
        if os.path.lexists(tmp):
            os.unlink(tmp)


def cmd_simulate(scenario: Scenario, sink) -> RunReport:
    """Integrate the scenario and, once its measures are finite, stream it as CSV."""
    traj = _integrate(scenario, "simulate")
    report = RunReport("simulate")
    report.measurements["samples"] = len(traj)
    report.measurements["t_final"] = float(traj.times[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        analysis = {"energy_drift": energy_drift(traj)}
        try:
            analysis["inertia_variation"] = inertia_variation(traj)
        except ZeroInertia:
            report.details.append("inertia_variation undefined: zero inertia at start")
    _require_finite(**analysis)
    report.measurements.update(analysis)
    write_trajectory_csv(traj, sink)
    return report


def cmd_cc_check(scenario: Scenario) -> RunReport:
    """Measure the central-configuration residual of the scenario positions."""
    tol = scenario.tolerances.get("cc", 1e-9)
    rep = cc_residual(scenario.state.config, scenario.masses, scenario.potential, tol)
    report = RunReport("cc-check")
    report.measurements["residual"] = rep.residual
    report.measurements["omega_squared"] = rep.omega_squared
    report.measurements["tol"] = rep.tol
    report.details.append(f"is_cc = {_fmt(rep.is_cc)}")
    return report


def cmd_cc_refine(scenario: Scenario, k: float) -> RunReport:
    """Refine the scenario positions to a central configuration on I = k."""
    refined = refine_cc(scenario.state.config, scenario.masses, scenario.potential, k,
                        tol=scenario.tolerances.get("refine", 1e-10))
    rep = cc_residual(refined, scenario.masses, scenario.potential)
    report = RunReport("cc-refine")
    report.measurements["k"] = k  # argparse's float
    report.measurements["residual"] = rep.residual
    report.measurements["omega_squared"] = rep.omega_squared
    report.measurements["I"] = moment_of_inertia(refined, scenario.masses)
    i, j, _, _, r = _pair_offsets(refined.q)
    for a, b, rij in zip(i.tolist(), j.tolist(), r.tolist()):
        report.measurements[f"r{a + 1}{b + 1}"] = rij
    for i, (x, y) in enumerate(refined.q, start=1):
        report.details.append(f"body{i} = {_fmt(float(x))},{_fmt(float(y))}")
    return report


def cmd_family(k: float, n_samples: int) -> RunReport:
    """Sample the isosceles continuum and certify pairwise inequivalence."""
    result = verify_continuum(k, n_samples, tol=1e-12)
    report = RunReport("family")
    report.measurements["k"] = result.k
    report.measurements["samples"] = len(result.etas)
    report.verdicts["continuum"] = result.verdict
    # "%.17g" % x is format(x, ".17g"), as _fmt prints a float
    report.details.extend(
        "eta = %.17g  residual = %.17g  r23 = %.17g" % row
        for row in zip(result.etas.tolist(), result.residual.tolist(), result.r23.tolist()))
    report.details.extend(result.failures)
    report.exit_status = EXIT_OK if result.verdict else EXIT_VERIFICATION_FAILED
    return report


def cmd_saari(scenario: Scenario) -> RunReport:
    """Integrate the scenario and classify the resulting trajectory."""
    rep = saari_check(_integrate(scenario, "saari"),
                      tol_inertia=scenario.tolerances.get("inertia", 1e-8),
                      tol_rigidity=scenario.tolerances.get("rigidity", 1e-6))
    report = RunReport("saari")
    report.measurements["inertia_variation"] = rep.inertia_variation
    report.measurements["rigidity_defect"] = rep.rigidity_defect
    report.details.append(f"classification = {rep.classification}")
    report.details.append(
        f"certificate: pair {rep.certificate_pair} varies by "
        f"{_fmt(rep.certificate_variation)} (worst fit at t = {_fmt(rep.certificate_time)})")
    return report


def cmd_reproduce(which: str) -> RunReport:
    """Re-run one of the two headline verifications end to end."""
    report = RunReport(f"reproduce {which}")
    if which == "theorem1":
        result = verify_continuum(1.0, 64, tol=1e-12)
        monotone = bool((result.r23[1:] > result.r23[:-1]).all())
        residuals = result.residual.tolist()
        report.measurements["samples"] = len(residuals)
        report.measurements["max_residual"] = max(residuals)
        report.verdicts["continuum_of_central_configurations"] = result.verdict
        report.verdicts["base_length_strictly_monotone"] = monotone
        report.details.extend("eta = %.17g  residual = %.17g" % row
                              for row in zip(result.etas.tolist(), residuals))
        report.details.extend(result.failures)
        passed = result.verdict and monotone
    elif which == "theorem2":
        result = verify_counterexample(1.0, 2.0 * math.pi, 1e-3)
        report.measurements["eom_max_error"] = result.eom_max_error
        report.measurements["inertia_variation_closed"] = result.inertia_variation_closed
        report.measurements["inertia_variation_integrated"] = result.inertia_variation_integrated
        report.measurements["rigidity_defect"] = result.rigidity.defect
        report.measurements["witness_defect_at_quarter_period"] = result.witness_defect
        report.measurements["r14_squared_swing"] = result.r14_squared_swing
        report.verdicts["closed_form_solves_equations_of_motion"] = result.passed_equations
        report.verdicts["moment_of_inertia_constant"] = result.passed_inertia
        report.verdicts["not_a_relative_equilibrium"] = result.passed_not_re
        report.verdicts["r14_swing_certificate"] = result.passed_certificate
        for pair, t in result.collision_pairs:
            report.details.append(f"pass-through collision: pair {pair} at t = {_fmt(t)}")
        passed = result.verdict
    else:
        raise ValidationError("which", "must be theorem1 or theorem2")
    report.exit_status = EXIT_OK if passed else EXIT_VERIFICATION_FAILED
    return report


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as ParseError, so it exits 1 like any other bad input."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ParseError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="harmonia",
        description="Planar n-body laboratory: simulate, check central "
                    "configurations, and verify constant-inertia certificates.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("simulate", help="integrate a scenario and write CSV")
    p.add_argument("file")
    p.add_argument("--out", required=True, help="CSV output path")

    p = sub.add_parser("cc-check", help="central-configuration residual of a scenario")
    p.add_argument("file")

    p = sub.add_parser("cc-refine", help="refine a scenario onto a central configuration")
    p.add_argument("file")
    p.add_argument("--k", type=float, required=True, help="target moment of inertia")

    p = sub.add_parser("family", help="sample the isosceles continuum")
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)

    p = sub.add_parser("saari", help="classify a trajectory by inertia and rigidity")
    p.add_argument("file")

    p = sub.add_parser("reproduce", help="re-run a headline verification")
    p.add_argument("which", choices=["theorem1", "theorem2"])

    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        if args.verb == "simulate":
            scenario = load_scenario(args.file)
            report = _replace_on_success(args.out, lambda sink: cmd_simulate(scenario, sink))
        elif args.verb == "cc-check":
            report = cmd_cc_check(load_scenario(args.file))
        elif args.verb == "cc-refine":
            report = cmd_cc_refine(load_scenario(args.file), args.k)
        elif args.verb == "family":
            report = cmd_family(args.k, args.samples)
        elif args.verb == "saari":
            report = cmd_saari(load_scenario(args.file))
        else:
            report = cmd_reproduce(args.which)
    except (HarmoniaError, OSError) as exc:
        message = str(exc)
        # one line, even when the message echoes a key or path with a line break
        if not message.isprintable():
            message = repr(message)[1:-1]
        sys.stdout.write(f"error: {message}\n")
        return EXIT_ERROR
    sys.stdout.write(report.render())
    return report.exit_status


if __name__ == "__main__":
    sys.exit(main())
