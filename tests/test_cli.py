"""Scenario parsing, CSV emission, command dispatch, and exit codes."""

import io
import json
import math
import os
import stat
import time
import warnings

import numpy as np
import pytest

from harmonia import ParseError, ValidationError, cli
from harmonia.cli import (
    EXIT_ERROR,
    EXIT_OK,
    cmd_cc_check,
    cmd_family,
    cmd_reproduce,
    cmd_saari,
    cmd_simulate,
    csv_header,
    main,
    parse_scenario,
)

MINIMAL = {
    "masses": [1.0, 1.0],
    "positions": [[-1.0, 0.0], [1.0, 0.0]],
    "potential": {"kind": "harmonic"},
}

THEOREM2 = {
    "masses": [1.0, 1.0, 1.0, 1.0],
    "positions": [[0.0, 0.7071067811865476], [0.0, 0.0], [0.0, 0.0],
                  [0.0, -0.7071067811865476]],
    "velocities": [[0.0, 0.0], [-1.4142135623730951, 0.0],
                   [1.4142135623730951, 0.0], [0.0, 0.0]],
    "potential": {"kind": "harmonic"},
    "integrator": {"method": "rk4", "dt": 1e-3, "t_end": 2.0 * math.pi, "stride": 10},
}


def scenario_text(doc):
    return json.dumps(doc)


def test_parse_minimal_document():
    scenario = parse_scenario(scenario_text(MINIMAL))
    assert np.all(scenario.state.v == 0.0)
    assert scenario.potential.kind == "harmonic"
    assert scenario.integrator is None
    assert scenario.tolerances == {}


def test_parse_accepts_bytes():
    scenario = parse_scenario(scenario_text(MINIMAL).encode())
    assert scenario.masses.n == 2


def test_parse_rejects_malformed_json():
    with pytest.raises(ParseError):
        parse_scenario("{not json")
    with pytest.raises(ParseError):
        parse_scenario("[1, 2]")


def test_parse_missing_masses():
    doc = dict(MINIMAL)
    del doc["masses"]
    with pytest.raises(ValidationError) as err:
        parse_scenario(scenario_text(doc))
    assert err.value.field == "masses"


def test_parse_negative_mass_names_entry():
    doc = dict(MINIMAL)
    doc["masses"] = [-1.0, 1.0]
    with pytest.raises(ValidationError) as err:
        parse_scenario(scenario_text(doc))
    assert err.value.field == "masses[0]"


def test_parse_rejects_unknown_keys():
    doc = dict(MINIMAL)
    doc["masss"] = [1.0]
    with pytest.raises(ValidationError) as err:
        parse_scenario(scenario_text(doc))
    assert err.value.field == "masss"


def test_parse_rejects_bad_integrator():
    doc = dict(MINIMAL)
    doc["integrator"] = {"method": "rk4", "dt": -1e-3, "t_end": 1.0}
    with pytest.raises(ValidationError) as err:
        parse_scenario(scenario_text(doc))
    assert err.value.field == "integrator.dt"
    doc["integrator"] = {"method": "leapfrog", "dt": 1e-3, "t_end": 1.0}
    with pytest.raises(ValidationError) as err:
        parse_scenario(scenario_text(doc))
    assert err.value.field == "integrator.method"


def test_parse_rejects_length_mismatch():
    doc = dict(MINIMAL)
    doc["velocities"] = [[0.0, 0.0]]
    with pytest.raises(ValidationError) as err:
        parse_scenario(scenario_text(doc))
    assert err.value.field == "velocities"


def test_parse_verlet_alias():
    doc = dict(MINIMAL)
    doc["integrator"] = {"method": "verlet", "dt": 1e-3, "t_end": 1.0}
    scenario = parse_scenario(scenario_text(doc))
    assert scenario.integrator.method == "velocity_verlet"


@pytest.mark.parametrize("extra, field", [
    ({"masses": [1.0]}, "masses"),
    ({"masses": {"m": 1.0}}, "masses"),
    ({"masses": [1.0, 0.0]}, "masses[1]"),
    ({"positions": []}, "positions"),
    ({"positions": [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]}, "positions"),
    ({"positions": [[0.0, 0.0], [1.0]]}, "positions[1]"),
    ({"velocities": [[0.0, 0.0], [0.0, "fast"]]}, "velocities[1][1]"),
    ({"potential": {}}, "potential.kind"),
    ({"potential": {"kind": "yukawa"}}, "potential.kind"),
    ({"potential": {"kind": ["harmonic"]}}, "potential.kind"),
    ({"potential": {"kind": "newtonian", "coupling": 1.0}}, "potential.kind"),
    ({"potential": {"kind": "power", "coupling": 1.0}}, "potential.exponent"),
    ({"potential": {"kind": "power", "exponent": 0.0, "coupling": 1.0}}, "potential.exponent"),
    ({"potential": {"kind": "power", "exponent": 2.0, "coupling": 0.0}}, "potential.coupling"),
    ({"integrator": {"method": "rk4", "t_end": 1.0}}, "integrator.dt"),
    ({"integrator": {"method": "rk4", "dt": 1e-3, "t_end": 1e-4}}, "integrator.t_end"),
    ({"integrator": {"method": "rk4", "dt": 1e-3, "t_end": 1.0, "stride": 0}}, "integrator.stride"),
    ({"integrator": {"method": "rk4", "dt": 1e-6, "t_end": 1.0, "stride": 1}}, "integrator.stride"),
    ({"integrator": {"method": "rk4", "dt": 1e-3, "t_end": 1e5}}, "integrator.dt"),
    ({"integrator": []}, "integrator"),
    ({"tolerances": {"cc": 0.0}}, "tolerances.cc"),
], ids=lambda value: value if isinstance(value, str) else None)
def test_parse_names_document_fields(extra, field):
    # range errors come from the domain types, named as the document names them
    doc = dict(MINIMAL, **extra)
    with pytest.raises(ValidationError) as err:
        parse_scenario(scenario_text(doc))
    assert err.value.field == field


def test_parse_tolerances():
    doc = dict(MINIMAL)
    doc["tolerances"] = {"cc": 1e-8}
    assert parse_scenario(scenario_text(doc)).tolerances == {"cc": 1e-8}
    doc["tolerances"] = {"bogus": 1.0}
    with pytest.raises(ValidationError) as err:
        parse_scenario(scenario_text(doc))
    assert err.value.field == "tolerances.bogus"


def test_simulate_theorem2_inertia_column_constant():
    scenario = parse_scenario(scenario_text(THEOREM2))
    sink = io.StringIO()
    report = cmd_simulate(scenario, sink)
    assert report.exit_status == EXIT_OK
    lines = sink.getvalue().splitlines()
    assert lines[0] == csv_header(4)
    inertia = np.array([float(line.split(",")[-3]) for line in lines[1:]])
    assert np.abs(inertia - inertia[0]).max() <= 1e-8


def test_simulate_single_step_emits_two_rows():
    doc = dict(MINIMAL)
    doc["integrator"] = {"method": "rk4", "dt": 0.5, "t_end": 0.5}
    sink = io.StringIO()
    cmd_simulate(parse_scenario(scenario_text(doc)), sink)
    lines = sink.getvalue().splitlines()
    assert len(lines) == 3  # header plus two samples


def test_simulate_newtonian_collision_is_clean(tmp_path, capsys):
    doc = {
        "masses": [1.0, 1.0],
        "positions": [[0.0, 0.0], [1e-13, 0.0]],
        "potential": {"kind": "newtonian"},
        "integrator": {"method": "rk4", "dt": 1e-3, "t_end": 1.0},
    }
    path = tmp_path / "infall.json"
    path.write_text(scenario_text(doc))
    out = tmp_path / "out.csv"
    code = main(["simulate", str(path), "--out", str(out)])
    assert code == EXIT_ERROR
    assert "error:" in capsys.readouterr().out


def test_csv_round_trip():
    scenario = parse_scenario(scenario_text(THEOREM2))
    sink = io.StringIO()
    cmd_simulate(scenario, sink)
    header, *rows = sink.getvalue().splitlines()
    n = scenario.masses.n
    assert header == csv_header(n)
    # recomputed I, U, E columns must match the printed ones bit exactly
    from harmonia import PhaseState, moment_of_inertia, potential_energy, total_energy
    for line in rows:
        cells = [float(cell) for cell in line.split(",")]
        assert len(cells) == 4 * n + 4
        bodies = np.reshape(cells[1:-3], (n, 4))
        state = PhaseState(bodies[:, :2], bodies[:, 2:], cells[0])
        assert cells[-3] == moment_of_inertia(state.config, scenario.masses)
        assert cells[-2] == potential_energy(scenario.potential, state.config, scenario.masses)
        assert cells[-1] == total_energy(scenario.potential, state, scenario.masses)


def test_simulate_evaluates_inertia_once_per_sample(monkeypatch):
    # the CSV columns, energy_drift and inertia_variation share one I series
    from harmonia import core, dynamics
    original = core._inertia
    calls = []

    def counting(q, mass):
        calls.append(len(q) if q.ndim == 3 else 1)  # the samples of a stacked call
        return original(q, mass)

    for module in (core, dynamics):
        monkeypatch.setattr(module, "_inertia", counting)
    report = cmd_simulate(parse_scenario(scenario_text(THEOREM2)), io.StringIO())
    assert sum(calls) == report.measurements["samples"] == 630
    assert len(calls) == math.ceil(630 / (dynamics._CHUNK_ELEMENTS // 4 ** 2))


def test_simulate_deterministic(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(scenario_text(THEOREM2))
    outputs = []
    reports = []
    for run in range(2):
        out = tmp_path / f"run{run}.csv"
        code = main(["simulate", str(path), "--out", str(out)])
        assert code == EXIT_OK
        outputs.append(out.read_bytes())
        reports.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert reports[0] == reports[1]


def test_cc_check_reports_without_asserting(rng):
    doc = {
        "masses": [1.0, 1.0, 1.0],
        "positions": rng.uniform(-2, 2, size=(3, 2)).tolist(),
        "potential": {"kind": "newtonian"},
    }
    report = cmd_cc_check(parse_scenario(scenario_text(doc)))
    assert report.exit_status == EXIT_OK
    assert "is_cc = false" in report.render()


def test_cc_check_harmonic_is_cc():
    report = cmd_cc_check(parse_scenario(scenario_text(MINIMAL)))
    assert "is_cc = true" in report.render()
    assert report.measurements["omega_squared"] == pytest.approx(1.0, abs=1e-12)


def test_cc_refine_cli(tmp_path, capsys):
    doc = {
        "masses": [1.0, 1.0, 1.0],
        "positions": [[0.02, -0.01], [1.03, 0.04], [0.48, 0.83]],
        "potential": {"kind": "newtonian"},
    }
    path = tmp_path / "jitter.json"
    path.write_text(scenario_text(doc))
    code = main(["cc-refine", str(path), "--k", "1.0"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "omega_squared" in out


def test_family_command():
    report = cmd_family(1.0, 8)
    assert report.exit_status == EXIT_OK
    assert report.verdicts["continuum"]
    assert len([d for d in report.details if d.startswith("eta")]) == 8


def test_saari_command_classifies_theorem2():
    scenario = parse_scenario(scenario_text(THEOREM2))
    report = cmd_saari(scenario)
    assert report.exit_status == EXIT_OK
    assert "classification = constant_inertia_not_re" in report.render()


def test_reproduce_theorem1(capsys):
    code = main(["reproduce", "theorem1"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "[PASS] continuum_of_central_configurations" in out
    assert out.count("eta = ") == 64


def test_reproduce_theorem2(capsys):
    code = main(["reproduce", "theorem2"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "[PASS] not_a_relative_equilibrium" in out
    assert "r14_squared_swing" in out


def test_reproduce_reports_are_deterministic(capsys):
    first = cmd_reproduce("theorem1").render()
    second = cmd_reproduce("theorem1").render()
    assert first == second


def test_missing_file_is_runtime_error(capsys):
    code = main(["cc-check", "/nonexistent/path.json"])
    assert code == EXIT_ERROR
    assert "error:" in capsys.readouterr().out


@pytest.mark.parametrize("payload, expected", [
    (b'{"masses": [1' + b"0" * 400 + b', 1.0], "positions": [[0, 0], [1, 0]]}',
     "error: masses[0]: must be finite"),
    (json.dumps(MINIMAL).encode() + b"\xff\xfe", "error: invalid JSON: 'utf-8' codec"),
    (b"[" * 100000 + b"]" * 100000, "error: invalid JSON"),
    (b'{"masses": [1' + b"0" * 5000 + b', 1.0]}', "error: invalid JSON"),
], ids=["huge-integer", "non-utf8", "deep-nesting", "integer-past-digit-limit"])
def test_unparsable_scenarios_are_contract_errors(tmp_path, capsys, payload, expected):
    path = tmp_path / "scenario.json"
    path.write_bytes(payload)
    code = main(["cc-check", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert captured.out.startswith(expected)
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("integrator, expected", [
    ({"method": ["rk4"], "dt": 1e-3, "t_end": 1.0}, "error: integrator.method: "),
    ({"method": "velocity_verlet", "dt": 1e-3, "t_end": 1.0}, "error: integrator.method: "),
    ({"method": "rk4", "dt": 1e-3, "t_end": 1.0, "stride": 2.0}, "error: integrator.stride: "),
    ({"method": "rk4", "dt": 1e-300, "t_end": 2.0 * math.pi}, "error: integrator.dt: "),
    ({"method": "rk4", "dt": 5e-324, "t_end": 2.0 * math.pi}, "error: integrator.dt: "),
], ids=["method-list", "method-long-name", "stride-float", "dt-1e-300", "dt-subnormal"])
def test_bad_integrators_are_contract_errors(tmp_path, capsys, integrator, expected):
    path = tmp_path / "scenario.json"
    path.write_text(scenario_text(dict(MINIMAL, integrator=integrator)))
    start = time.perf_counter()
    code = main(["saari", str(path)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert captured.out.startswith(expected)
    assert len(captured.out.splitlines()) == 1
    assert "Traceback" not in captured.out + captured.err
    assert elapsed < 5.0  # rejected before any step is taken


@pytest.mark.parametrize("verb", ["simulate", "saari"])
def test_sample_budget_counts_bodies_through_the_cli(tmp_path, capsys, verb):
    # 4001 samples are within the budget alone, but not for 300 bodies
    path = tmp_path / "scenario.json"
    out = tmp_path / "out.csv"
    path.write_text(scenario_text({
        "masses": [1.0] * 300, "positions": [[float(i), 0.0] for i in range(300)],
        "integrator": {"method": "verlet", "dt": 1e-3, "t_end": 4.0, "stride": 1}}))
    code = main([verb, str(path)] + (["--out", str(out)] if verb == "simulate" else []))
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert captured.out == ("error: integrator.stride: run would retain 4001 samples of 300 "
                            "bodies, over 1000000 samples x bodies\n")
    assert not out.exists()


def test_error_line_escapes_line_breaks(tmp_path, capsys):
    # the message echoes the unknown key; its line break must not split the line
    path = tmp_path / "scenario.json"
    path.write_text(scenario_text(dict(MINIMAL, **{"bad\r\nkey": 1})))
    assert main(["cc-check", str(path)]) == EXIT_ERROR
    assert capsys.readouterr().out == "error: bad\\r\\nkey: unknown key\n"


@pytest.mark.parametrize("argv", [["bogus-verb"], ["family", "--k", "1", "--samples", "x"],
                                  ["simulate", "scenario.json"]])
def test_usage_errors_exit_1(capsys, argv):
    assert main(argv) == EXIT_ERROR
    out = capsys.readouterr().out
    assert out.startswith("error: harmonia")
    assert len(out.splitlines()) == 1


def test_main_builds_no_parser_per_call(monkeypatch, capsys):
    def rebuilt():
        raise AssertionError("main rebuilt the argument parser")

    monkeypatch.setattr(cli, "_build_parser", rebuilt)
    assert main(["reproduce", "theorem1"]) == EXIT_OK
    assert main(["reproduce", "theorem1"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("command: reproduce theorem1\n")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    assert "usage: harmonia" in capsys.readouterr().out


# -- simulate replaces --out only when it succeeds -----------------------------

COLLIDING = {
    "masses": [1.0, 1.0],
    "positions": [[0.0, 0.0], [1e-13, 0.0]],
    "potential": {"kind": "newtonian"},
    "integrator": {"method": "rk4", "dt": 1e-3, "t_end": 1.0},
}


@pytest.mark.parametrize("doc", [MINIMAL, COLLIDING], ids=["no-integrator", "collision"])
def test_failed_simulate_keeps_the_old_output(tmp_path, capsys, doc):
    path = tmp_path / "scenario.json"
    path.write_text(scenario_text(doc))
    out = tmp_path / "out.csv"
    out.write_bytes(b"precious\n")
    assert main(["simulate", str(path), "--out", str(out)]) == EXIT_ERROR
    assert len(capsys.readouterr().out.splitlines()) == 1
    assert out.read_bytes() == b"precious\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "scenario.json"]


def test_simulate_replaces_the_output_through_a_symlink(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(scenario_text(THEOREM2))
    target = tmp_path / "target.csv"
    target.write_bytes(b"old\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    assert main(["simulate", str(path), "--out", str(link)]) == EXIT_OK
    assert link.is_symlink()
    assert target.read_text().startswith(csv_header(4) + "\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "scenario.json", "target.csv"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_simulate_writes_a_pipe_in_place(tmp_path, capsys):
    # a pipe or device such as /dev/stdout cannot be replaced by a rename
    path = tmp_path / "scenario.json"
    path.write_text(scenario_text(dict(MINIMAL, integrator={"method": "rk4", "dt": 0.5,
                                                            "t_end": 0.5})))
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert main(["simulate", str(path), "--out", str(pipe)]) == EXIT_OK
        data = os.read(reader, 1 << 16).decode()
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.stat(pipe).st_mode)
    assert data.splitlines()[0] == csv_header(2)
    assert len(data.splitlines()) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe", "scenario.json"]


# -- cc-check at scales where the gradients overflow ---------------------------

@pytest.mark.parametrize("kind, scale", [("harmonic", 1e200), ("newtonian", 1e300)])
def test_cc_check_reports_gradient_overflow(tmp_path, capsys, kind, scale):
    doc = {"masses": [1.0, 1.0, 1.0],
           "positions": [[0.0, scale], [-0.8 * scale, -0.5 * scale], [0.9 * scale, -0.4 * scale]],
           "potential": {"kind": kind}}
    path = tmp_path / "huge.json"
    path.write_text(scenario_text(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["cc-check", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert captured.out.startswith("error: q: gradient overflow: |grad I| = inf")
    assert len(captured.out.splitlines()) == 1
    assert captured.err == ""


def test_cc_check_reports_pair_force_overflow(tmp_path, capsys):
    # r^3 overflows while r does not: every Newtonian pair force would round to 0
    scale = 1e150
    doc = {"masses": [1.0, 1.0, 1.0],
           "positions": [[0.0, scale], [-0.8 * scale, -0.5 * scale], [0.9 * scale, -0.4 * scale]],
           "potential": {"kind": "newtonian"}}
    path = tmp_path / "huge.json"
    path.write_text(scenario_text(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["cc-check", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert captured.out == "error: q: gradient overflow: |grad I| = 3.378e+150, |grad U| = inf\n"
    assert captured.err == ""


def test_family_rejects_too_many_samples_at_once(capsys):
    start = time.perf_counter()
    assert main(["family", "--k", "1", "--samples", "16385"]) == EXIT_ERROR
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out == "error: n_samples: need 2 to 16384 samples\n"


@pytest.mark.parametrize("k, line", [
    ("1e308", "error: q: gradient overflow: |grad I| = inf, |grad U| = inf"),
    ("1.5e308", "error: q[0]: coordinates must be finite"),
], ids=["gradient-overflow", "position-overflow"])
def test_family_at_overflowing_k_prints_one_error_and_no_warning(capsys, k, line):
    # the test config's filterwarnings makes a numpy RuntimeWarning an error: none may be raised
    assert main(["family", "--k", k, "--samples", "64"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == line + "\n"
    assert captured.err == ""


def test_family_at_tiny_k_passes_at_the_sample_cap(capsys):
    # the screen margin scales with sqrt(k), as r23 does
    assert main(["family", "--k", "1e-20", "--samples", "16384"]) == EXIT_OK
    assert "[PASS] continuum" in capsys.readouterr().out.splitlines()


def test_saari_reports_non_finite_analysis(tmp_path, capsys):
    scale = 1e200
    doc = {"masses": [1.0, 1.0, 1.0],
           "positions": [[0.0, scale], [-scale, 0.0], [scale, 0.3 * scale]],
           "potential": {"kind": "newtonian"},
           "integrator": {"method": "verlet", "dt": 0.1, "t_end": 0.3}}
    path = tmp_path / "huge.json"
    path.write_text(scenario_text(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["saari", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert captured.out == ("error: q: analysis overflow: inertia_variation = nan, "
                            "rigidity_defect = nan\n")
    assert captured.err == ""


def test_saari_reports_center_of_mass_overflow(tmp_path, capsys):
    # every coordinate is finite, but the mass-weighted sum behind q_cm is not
    doc = {"masses": [1.0, 1.0, 1.0],
           "positions": [[1.5e308, 0.0], [1.5e308, 1e300], [0.0, 1e307]],
           "potential": {"kind": "newtonian"},
           "integrator": {"method": "verlet", "dt": 0.1, "t_end": 0.3}}
    path = tmp_path / "huge.json"
    path.write_text(scenario_text(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["saari", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert captured.out == "error: q: analysis overflow: center_of_mass_offset = inf\n"
    assert captured.err == ""


def test_simulate_reports_non_finite_analysis(tmp_path, capsys):
    scale = 1e200
    doc = {"masses": [1.0, 1.0, 1.0],
           "positions": [[0.0, scale], [-scale, 0.0], [scale, 0.3 * scale]],
           "potential": {"kind": "newtonian"},
           "integrator": {"method": "verlet", "dt": 0.1, "t_end": 0.3}}
    path = tmp_path / "huge.json"
    path.write_text(scenario_text(doc))
    out = tmp_path / "out.csv"
    out.write_bytes(b"precious\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["simulate", str(path), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert captured.out == ("error: q: analysis overflow: energy_drift = 0.000e+00, "
                            "inertia_variation = nan\n")
    assert captured.err == ""
    assert out.read_bytes() == b"precious\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.json", "out.csv"]
