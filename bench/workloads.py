"""The three benchmark workloads: their inputs, timed operations and output checks.

Every operation goes through ``harmonia.cli.main`` (plus one direct
``core.mutual_distances`` call on ``nbody``), one call at a time, in the
benchmark's own process. Each operation returns the seconds of each
call it made into harmonia, the attempts it made and how many of them
failed; checking the output happens outside the timed region. The inputs
depend on the seed only, so every round of a run repeats the same calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
import traceback
from pathlib import Path

import numpy as np

from harmonia import central_config, cli, core, sampling

# Captured on the commit that introduced the benchmark; a refactor that
# keeps behaviour keeps these bytes and lines.
GOLDEN = {
    "rhombus_csv_sha256": "59c2837fc5249dea3ac5d3e21b72898e8060b5bf85c42c2d3ab9a2056edb28a2",
    "simulate_lines": ["command: simulate", "samples = 630"],
    "saari_lines": ["classification = constant_inertia_not_re"],
    "theorem2_lines": [
        "[PASS] closed_form_solves_equations_of_motion",
        "[PASS] moment_of_inertia_constant",
        "[PASS] not_a_relative_equilibrium",
        "[PASS] r14_swing_certificate",
    ],
    "theorem1_lines": [
        "[PASS] continuum_of_central_configurations",
        "[PASS] base_length_strictly_monotone",
    ],
    "family_lines": ["samples = 128", "[PASS] continuum"],
}

# Relative agreement required between CSV columns and values re-derived
# through harmonia.core; 17 significant digits round-trip exactly, so only
# a change in summation order could move them, by a few ulps.
IUE_RTOL = 1e-12
ENERGY_DRIFT_BOUND = 1e-5
REFINE_TOL = 1e-10
INERTIA_RTOL = 1e-12


class CheckFailed(Exception):
    """An operation ran but its output was wrong."""


def call_cli(argv) -> tuple:
    """Run ``harmonia.cli.main`` in-process; return (seconds, exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        code = cli.main([str(a) for a in argv])
        seconds = time.perf_counter() - start
    return seconds, code, buf.getvalue()


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _require_lines(out: str, expected, what: str) -> None:
    lines = out.splitlines()
    for line in expected:
        _require(line in lines, f"{what}: missing line {line!r}")


def _measurement(out: str, key: str) -> float:
    prefix = f"{key} = "
    for line in out.splitlines():
        if line.startswith(prefix):
            return float(line[len(prefix):])
    raise CheckFailed(f"missing measurement {key!r}")


class Workload:
    """A named set of inputs and the operations run on them in one round."""

    name = ""
    # End-to-end names of op1_s, op2_s and op3_s on this workload.
    op_names = ()
    # Calls of each operation per timed round; a call's time is the
    # fastest of its repeats, so a short operation gets more samples in a
    # run. Set-up and traced rounds call each once.
    repeats = (1, 1, 1)

    def __init__(self, root: Path, workdir: Path, seed: int):
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.golden = dict(GOLDEN)
        self.tracer = None

    def generate(self) -> None:
        """Write the seeded inputs into ``workdir``."""

    def run_round(self, tracer=None, repeat: bool = True) -> list:
        """Run every operation; return [(op name, call seconds, attempts, failures)].

        With ``repeat`` each operation runs ``repeats`` times and each of
        its calls reports its fastest time over them; a round with any
        failed repeat reports NaN seconds.
        """
        self.tracer = tracer
        if tracer is not None:
            tracer.begin_operation()
        self.generate()
        results = []
        for op_name, op, times in zip(self.op_names, self.operations(), self.repeats):
            if tracer is not None:
                tracer.begin_operation()
            best, attempts, failures = None, 0, 0
            for _ in range(times if repeat else 1):
                try:
                    seconds, tried, failed = op()
                except CheckFailed as exc:
                    print(f"check failed: {self.name}/{op_name}: {exc}")
                    seconds, tried, failed = (math.nan,), 1, 1
                except Exception:  # a traceback from harmonia is a failed operation
                    print(f"traceback in {self.name}/{op_name}:\n{traceback.format_exc()}")
                    seconds, tried, failed = (math.nan,), 1, 1
                attempts += tried
                failures += failed
                best = seconds if best is None else tuple(map(min, best, seconds))
            if failures:
                best = (math.nan,)
            results.append((op_name, best, attempts, failures))
        return results

    def operations(self):
        raise NotImplementedError

    def checking(self):
        """Context in which output checks call harmonia without being traced."""
        return self.tracer.paused() if self.tracer is not None else contextlib.nullcontext()

    def op_value(self, op_name: str, seconds: float) -> float:
        """End-to-end value of an operation whose calls took ``seconds`` at best."""
        return seconds

    def summary_lines(self, values: dict) -> list:
        """Extra text lines, given the end-to-end value of each operation."""
        return []


class Rhombus(Workload):
    """The shipped constant-inertia rhombus: harmonic, n=4, rk4, 6283 steps.

    The input is the shipped scenario file, so the seed does not change it.
    """

    name = "rhombus"
    op_names = ("simulate_s", "saari_s", "theorem2_s")

    def __init__(self, root, workdir, seed):
        super().__init__(root, workdir, seed)
        self.scenario = root / "scenarios" / "theorem2_rhombus.json"
        self.csv = workdir / "rhombus.csv"

    def operations(self):
        return (self.simulate, self.saari, self.theorem2)

    def simulate(self):
        seconds, code, out = call_cli(["simulate", self.scenario, "--out", self.csv])
        _require(code == 0, f"simulate exit {code}: {out.strip()[:200]}")
        _require_lines(out, self.golden["simulate_lines"], "simulate")
        digest = hashlib.sha256(self.csv.read_bytes()).hexdigest()
        _require(digest == self.golden["rhombus_csv_sha256"], f"CSV sha256 {digest}")
        return (seconds,), 1, 0

    def saari(self):
        seconds, code, out = call_cli(["saari", self.scenario])
        _require(code == 0, f"saari exit {code}: {out.strip()[:200]}")
        _require_lines(out, self.golden["saari_lines"], "saari")
        return (seconds,), 1, 0

    def theorem2(self):
        seconds, code, out = call_cli(["reproduce", "theorem2"])
        _require(code == 0, f"theorem2 exit {code}: {out.strip()[:200]}")
        _require_lines(out, self.golden["theorem2_lines"], "theorem2")
        return (seconds,), 1, 0


# (file stem, potential kind, bodies, steps). The step counts fix the work
# per call; dt follows from the physics of each seeded configuration.
NBODY_CASES = (
    ("newtonian_n100", "newtonian", 100, 150),
    ("newtonian_n300", "newtonian", 300, 40),
    ("harmonic_n300", "harmonic", 300, 40),
)
NBODY_STRIDE = 10


def free_fall_time(kind: str, q: np.ndarray, mass: np.ndarray) -> float:
    """Shortest collapse time of the configuration started at rest.

    Newtonian: the two-body free-fall time (pi/2) sqrt(r^3 / (2 (m_i + m_j)))
    of the pair that collapses first. Harmonic: every body reaches the
    center of mass after a quarter period, (pi/2) / sqrt(M).
    """
    if kind == "harmonic":
        return (math.pi / 2.0) / math.sqrt(float(mass.sum()))
    d = q[:, None, :] - q[None, :, :]
    r = np.sqrt((d * d).sum(axis=2))
    np.fill_diagonal(r, np.inf)
    pair_mass = mass[:, None] + mass[None, :]
    return float(((math.pi / 2.0) * np.sqrt(r ** 3 / (2.0 * pair_mass))).min())


class NBody(Workload):
    """Seeded Newtonian n=100 and n=300 and a harmonic n=300 control, velocity Verlet.

    Each run covers a quarter of the configuration's free-fall time, so no
    pair comes close to colliding and the step count alone sets the work.
    """

    name = "nbody"
    op_names = ("nbody_newtonian_n100_s", "nbody_newtonian_n300_s", "nbody_harmonic_n300_s")

    def __init__(self, root, workdir, seed):
        super().__init__(root, workdir, seed)
        self.cases = {}

    def generate(self) -> None:
        rng = np.random.default_rng(self.seed)
        for stem, kind, n, steps in NBODY_CASES:
            masses = sampling.random_masses(rng, n)
            config = sampling.random_configuration(rng, n, box=10.0)
            dt = free_fall_time(kind, config.q, masses.m) / (4.0 * steps)
            doc = {
                "masses": masses.m.tolist(),
                "positions": config.q.tolist(),
                "potential": {"kind": kind},
                "integrator": {"method": "verlet", "dt": dt, "t_end": dt * steps,
                               "stride": NBODY_STRIDE},
            }
            path = self.workdir / f"{stem}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            self.cases[stem] = (path, core.PotentialSpec(kind), masses, steps)

    def operations(self):
        return tuple((lambda stem=stem: self.simulate(stem)) for stem, *_ in NBODY_CASES)

    def simulate(self, stem: str):
        path, potential, masses, steps = self.cases[stem]
        csv = self.workdir / f"{stem}.csv"
        seconds, code, out = call_cli(["simulate", path, "--out", csv])
        _require(code == 0, f"simulate exit {code}: {out.strip()[:200]}")
        expected_samples = steps // NBODY_STRIDE + 1 + (steps % NBODY_STRIDE != 0)
        _require(_measurement(out, "samples") == expected_samples, "sample count")
        drift = _measurement(out, "energy_drift")
        _require(drift <= ENERGY_DRIFT_BOUND, f"energy drift {drift:.3e}")

        rows = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
        n = masses.n
        _require(rows.shape == (expected_samples, 4 * n + 4), f"CSV shape {rows.shape}")
        final_q = np.ascontiguousarray(rows[-1, 1:1 + 4 * n].reshape(n, 4)[:, :2])

        start = time.perf_counter()
        table = core.mutual_distances(final_q)
        distances_seconds = time.perf_counter() - start

        with self.checking():
            for row in rows:
                body = row[1:1 + 4 * n].reshape(n, 4)
                state = core.PhaseState(core.PlanarConfiguration(body[:, :2]), body[:, 2:],
                                        row[0])
                derived = (core.moment_of_inertia(state.config, masses),
                           core.potential_energy(potential, state.config, masses),
                           core.total_energy(potential, state, masses))
                _require(np.allclose(row[-3:], derived, rtol=IUE_RTOL, atol=0.0),
                         f"I, U, E columns at t={row[0]!r} disagree with harmonia.core")
        d = final_q[:, None, :] - final_q[None, :, :]
        _require(np.allclose(table.r, np.hypot(d[..., 0], d[..., 1]), rtol=1e-12, atol=1e-14),
                 "mutual distances of the final sample")
        return (seconds, distances_seconds), 1, 0


# (label, potential, starts per body count). A power-1.5 refine takes
# about 200 iterations, four times a Newtonian one, so it gets one start
# per body count and the others two.
CC_POTENTIALS = (
    ("newtonian", {"kind": "newtonian"}, 2),
    ("power_m2", {"kind": "power", "exponent": -2.0, "coupling": 1.0}, 2),
    ("power_1.5", {"kind": "power", "exponent": 1.5, "coupling": 1.0}, 1),
)
CC_BODIES = (3, 4, 5)
CC_NOISE = 0.02
NOT_CONVERGED = ("error: no convergence after", "error: line search stalled")


class CCSearch(Workload):
    """Theorem 1, the 128-sample family, and cc-refine from seeded starts.

    The refine starts are unit-mass regular n-gons on the unit circle with
    seeded uniform noise of half-width CC_NOISE on every coordinate, 15 in
    all (see CC_POTENTIALS). Every start lies near a central
    configuration, which keeps the work per batch comparable across seeds;
    from far random starts the iteration count, and so the time, varies
    several-fold from seed to seed. Even so, about one power-1.5 start in
    twelve stops at the 200-iteration limit (one in four with five times
    the noise); it costs its time but yields no solution.
    """

    name = "cc_search"
    op_names = ("theorem1_s", "family_s", "refine_s_per_solution")
    # theorem1 and family take a small part of the refine batch's time;
    # repeating them gives their fastest time more samples.
    repeats = (8, 4, 1)

    def __init__(self, root, workdir, seed):
        super().__init__(root, workdir, seed)
        self.starts = []
        self.converged = 0

    def generate(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.starts = []
        for label, potential, starts in CC_POTENTIALS:
            for n in CC_BODIES:
                angle = 2.0 * math.pi * np.arange(n) / n
                polygon = np.column_stack([np.cos(angle), np.sin(angle)])
                for copy in range(starts):
                    noise = sampling.random_configuration(rng, n, box=CC_NOISE).q
                    doc = {"masses": [1.0] * n, "positions": (polygon + noise).tolist(),
                           "potential": potential}
                    path = self.workdir / f"refine_{label}_n{n}_{copy}.json"
                    path.write_text(json.dumps(doc), encoding="utf-8")
                    self.starts.append((path, cli.parse_scenario(path.read_bytes())))

    def operations(self):
        return (self.theorem1, self.family, self.refine_batch)

    def theorem1(self):
        seconds, code, out = call_cli(["reproduce", "theorem1"])
        _require(code == 0, f"theorem1 exit {code}")
        _require_lines(out, self.golden["theorem1_lines"], "theorem1")
        return (seconds,), 1, 0

    def family(self):
        seconds, code, out = call_cli(["family", "--k", "1", "--samples", "128"])
        _require(code == 0, f"family exit {code}")
        _require_lines(out, self.golden["family_lines"], "family")
        return (seconds,), 1, 0

    def refine_batch(self):
        calls = []
        failures = 0
        converged = 0
        for path, spec in self.starts:
            seconds, code, out = call_cli(["cc-refine", path, "--k", "1"])
            calls.append(seconds)
            try:
                if code == 1 and out.startswith(NOT_CONVERGED):
                    continue
                _require(code == 0, f"cc-refine {path.name} exit {code}: {out.strip()[:200]}")
                with self.checking():
                    self._check_refined(out, spec)
                converged += 1
            except CheckFailed as exc:
                print(f"check failed: {self.name}/refine {path.name}: {exc}")
                failures += 1
        if converged == 0:
            print(f"check failed: {self.name}/refine: no start converged")
            failures += 1
        self.converged = converged
        return tuple(calls), len(self.starts), failures

    def op_value(self, op_name: str, seconds: float) -> float:
        """The refine batch counts as seconds per converged solution.

        A start that stops without converging still costs its time but
        yields nothing, so a refine that gives up sooner reads as slower.
        """
        if op_name == "refine_s_per_solution":
            return seconds / max(self.converged, 1)
        return seconds

    def summary_lines(self, values: dict) -> list:
        per_solution = values["refine_s_per_solution"]
        return [f"refine_solutions_per_s = {1.0 / per_solution:.6f} 1/s "
                f"({self.converged} of {len(self.starts)} starts converge; "
                f"batch {per_solution * max(self.converged, 1):.6f} s)"]

    @staticmethod
    def _check_refined(out: str, spec) -> None:
        residual = _measurement(out, "residual")
        _require(residual <= REFINE_TOL, f"residual {residual:.3e}")
        bodies = [line.split(" = ", 1)[1] for line in out.splitlines()
                  if line.startswith("body")]
        q = np.array([[float(x) for x in b.split(",")] for b in bodies])
        _require(q.shape == (spec.masses.n, 2), "body lines")
        inertia = core.moment_of_inertia(q, spec.masses)
        _require(abs(inertia - 1.0) <= INERTIA_RTOL, f"|I - k| = {abs(inertia - 1.0):.3e}")
        recheck = central_config.cc_residual(q, spec.masses, spec.potential, REFINE_TOL)
        _require(recheck.is_cc, f"re-derived residual {recheck.residual:.3e}")


WORKLOADS = {w.name: w for w in (Rhombus, NBody, CCSearch)}
