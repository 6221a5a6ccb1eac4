"""Scenario schema, runner outputs, CLI exit codes, determinism."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveaction import (
    HamiltonianConfig,
    PotentialField,
    PropagationPlan,
    ScenarioError,
    Trajectory,
    TwoBodyInteraction,
    action_integrals,
    continuity_residual,
    energy,
    gaussian_wavepacket,
    ground_state_imaginary_time,
    hamilton_equations_residual,
    make_grid,
    norm,
    parse_scenario,
    parse_scenario_dict,
    propagate,
    run_scenario,
)
from waveaction.cli import main
from waveaction.scenario import (
    build_config,
    build_grid,
    build_initial_state,
    build_plan,
    scenario_json,
    serialize_scenario,
)
from waveaction.grids import norms

from helpers import random_trajectory, trajectory_shapes


def minimal_ground_state(name="harmonic-ground"):
    return {
        "spec_version": 1,
        "name": name,
        "grid": {"x_min": -10.0, "x_max": 10.0, "n_points": 401},
        "potentials": {"v1": {"kind": "harmonic"}},
        "task": {"kind": "ground-state"},
    }


def latin1_scenario():
    """A valid scenario's bytes in Latin-1, with a name that is not ASCII: not UTF-8 text."""
    return json.dumps(minimal_ground_state("caf\u00e9"), ensure_ascii=False).encode("latin-1")


def write_scenario(tmp_path, data, filename="scenario.json"):
    path = tmp_path / filename
    path.write_text(json.dumps(data))
    return path


def test_defaults_materialized():
    s = parse_scenario_dict(minimal_ground_state())
    assert s.task == {"kind": "ground-state", "dtau": 0.1, "tol": 1e-10, "max_iter": 1_000_000}
    assert s.constants == {"hbar": 1.0, "mass": 1.0, "charge": 1.0}
    assert s.grid["boundary"] == "dirichlet"
    assert s.potentials["a0"] == {"kind": "free"}
    assert s.initial_state == {"kind": "gaussian", "center": 0.0, "width": 1.0, "wavenumber": 0.0}
    assert s.output == {"record_stride": 1}


def test_propagate_defaults_include_dt():
    data = minimal_ground_state()
    data["task"] = {"kind": "propagate", "n_steps": 10}
    s = parse_scenario_dict(data)
    assert s.task["dt"] == 1e-3
    assert s.task["scheme"] == "crank-nicolson"


def test_small_grid_rejected_with_named_constraint():
    data = minimal_ground_state()
    data["grid"]["n_points"] = 4
    with pytest.raises(ScenarioError, match=r"n_points.*at least 8"):
        parse_scenario_dict(data)


def test_unknown_key_rejected_with_path():
    data = minimal_ground_state()
    data["constants"] = {"masss": 2.0}
    with pytest.raises(ScenarioError, match=r"scenario\.constants.*'masss'"):
        parse_scenario_dict(data)
    data = minimal_ground_state()
    data["task"]["dtau_"] = 0.1
    with pytest.raises(ScenarioError, match=r"scenario\.task.*'dtau_'"):
        parse_scenario_dict(data)


def test_random_state_requires_seed():
    data = minimal_ground_state()
    data["initial_state"] = {"kind": "random"}
    with pytest.raises(ScenarioError, match="rng_seed"):
        parse_scenario_dict(data)


def test_gp_task_requires_interaction():
    data = minimal_ground_state()
    data["task"] = {"kind": "gp-propagate", "n_steps": 5}
    with pytest.raises(ScenarioError, match="interaction"):
        parse_scenario_dict(data)


@pytest.mark.parametrize("kind", ["propagate", "gp-propagate", "verify"])
def test_record_stride_must_divide_n_steps(kind):
    data = minimal_ground_state()
    data["task"] = {"kind": kind, "n_steps": 25}
    data["output"] = {"record_stride": 10}
    if kind == "gp-propagate":
        data["interaction"] = {"kind": "contact", "g": 1.0, "n_particles": 2}
    with pytest.raises(ScenarioError, match=r"scenario\.output\.record_stride.*divide"):
        parse_scenario_dict(data)
    data["task"]["n_steps"] = 30
    assert parse_scenario_dict(data).output == {"record_stride": 10}


def test_record_stride_ignored_without_steps():
    data = minimal_ground_state()
    data["output"] = {"record_stride": 7}
    assert parse_scenario_dict(data).output == {"record_stride": 7}


def test_spec_version_checked():
    data = minimal_ground_state()
    data["spec_version"] = 2
    with pytest.raises(ScenarioError, match="spec_version"):
        parse_scenario_dict(data)


def test_round_trip_identity():
    data = minimal_ground_state()
    data["interaction"] = {"kind": "contact", "g": 2.5, "n_particles": 9}
    data["task"] = {"kind": "ground-state", "tol": 1e-9}
    first = parse_scenario_dict(data)
    second = parse_scenario_dict(serialize_scenario(first))
    assert first == second


@st.composite
def valid_scenarios(draw):
    """A valid scenario dict drawn key by key from the section tables.

    Numbers lie in [0.5, 2] (or are the integers 1 and 2, which parse as
    floats), which every float rule accepts; keys with a default may be
    left out.  Lists, the grid and the step count take their values from
    the rest of the scenario.
    """
    from waveaction.scenario import (
        _CONSTANTS,
        _GRID,
        _INTERACTION_KINDS,
        _OUTPUT,
        _POTENTIAL_KINDS,
        _STATE_KINDS,
        _TASK_KINDS,
    )
    from waveaction.variational import FAMILIES

    n = draw(st.integers(8, 24))
    stride = draw(st.sampled_from([1, 2, 4]))  # each divides the verify default of 400 steps
    fixed = {
        "x_min": draw(st.floats(-10.0, -1.0)),
        "x_max": draw(st.floats(1.0, 10.0)),
        "n_points": n,
        "values": draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)),
        "kernel": [[1.0 / (1 + abs(i - j)) for j in range(n)] for i in range(n)],
        "epsilons": draw(st.lists(st.floats(1e-4, 1e-1), min_size=2, max_size=4, unique=True)),
        "n_steps": stride * draw(st.integers(0, 5)),
        "record_stride": stride,
    }
    number = st.one_of(st.floats(0.5, 2.0), st.integers(1, 2))

    def section(table):
        out = {}
        for key, rule in table.items():
            if not isinstance(rule, type) and draw(st.booleans()):
                continue  # left to its default
            if key in fixed:
                out[key] = fixed[key]
            elif isinstance(rule, tuple):
                out[key] = draw(st.sampled_from(rule))
            else:
                out[key] = draw(number if float in (rule, type(rule)) else st.integers(1, 5))
        return out

    def kinded(kinds, kind):
        return {"kind": kind, **section(kinds[kind])}

    task_kind = draw(st.sampled_from(list(_TASK_KINDS)))
    task = kinded(_TASK_KINDS, task_kind)
    if task_kind == "rayleigh-ritz":
        family = FAMILIES[task.get("family", "gaussian")]()
        task["initial_params"] = [draw(st.floats(0.5, 2.0)) for _ in family.parameter_names]
    has_interaction = task_kind == "gp-propagate" or (
        task_kind in ("ground-state", "rayleigh-ritz") and draw(st.booleans())
    )
    state = kinded(_STATE_KINDS, draw(st.sampled_from(list(_STATE_KINDS))))
    data = {
        "spec_version": 1,
        "name": draw(st.text(max_size=8)),
        "grid": section(_GRID),
        "constants": section(_CONSTANTS),
        "potentials": {
            key: kinded(_POTENTIAL_KINDS, draw(st.sampled_from(list(_POTENTIAL_KINDS))))
            for key in draw(st.lists(st.sampled_from(["v1", "a0", "a"]), unique=True))
        },
        "initial_state": state,
        "rng_seed": draw(st.integers(0, 2**32 - 1)) if state["kind"] == "random" else None,
        "task": task,
        "output": section(_OUTPUT),
    }
    if has_interaction:
        data["interaction"] = kinded(_INTERACTION_KINDS, draw(st.sampled_from(list(_INTERACTION_KINDS))))
    if task.get("scheme") == "split-operator":
        # the scheme's own rule: linear, on a periodic grid, with no vector potential
        if has_interaction:
            del task["scheme"]
        else:
            data["grid"]["boundary"] = "periodic"
            data["potentials"].pop("a", None)
    if task_kind == "verify" and task.get("n_steps", 400) < 2 * stride:
        task["n_steps"] = 2 * stride  # verify's own rule: at least 3 recorded states
    return data


@settings(max_examples=60, deadline=None)
@given(data=valid_scenarios())
def test_parse_serialize_parse_is_identity(data):
    first = parse_scenario_dict(data)
    second = parse_scenario_dict(serialize_scenario(first))
    assert second == first
    assert scenario_json(second) == scenario_json(first)
    assert parse_scenario_dict(json.loads(scenario_json(first))) == first


def test_serialized_scenario_is_a_deep_copy():
    from waveaction.runner import _hash_scenario

    data = minimal_ground_state("copy")
    data["grid"]["n_points"] = 9
    data["potentials"]["v1"] = {"kind": "sampled", "values": [0.5 * i for i in range(9)]}
    data["interaction"] = {"kind": "kernel", "kernel": np.eye(9).tolist(), "n_particles": 2}
    scenario = parse_scenario_dict(data)
    text, digest = scenario_json(scenario), _hash_scenario(scenario)
    copy = serialize_scenario(scenario)
    copy["interaction"]["kernel"][0][1] = 7.0
    copy["potentials"]["v1"]["values"].append(1.0)
    copy["task"]["tol"] = 1.0
    assert scenario.interaction["kernel"][0][1] == 0.0
    assert len(scenario.potentials["v1"]["values"]) == 9
    assert scenario_json(scenario) == text and _hash_scenario(scenario) == digest


def _benchmark_workload_dicts(seed):
    """The scenario dicts of every benchmark workload; perfbench/workloads.py imports the standard library alone."""
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [d for name in workloads.WORKLOADS for d in workloads.scenario_dicts(name, seed)]


def test_scenario_json_is_the_serialized_dicts_json():
    # scenario_json writes the fields themselves, with no deep copy; the text
    # (and so the hash in every manifest) is that of the serialized dict
    bundled = sorted((Path(__file__).resolve().parents[1] / "scenarios").glob("*.json"))
    scenarios = [parse_scenario(path) for path in bundled]
    scenarios += [parse_scenario_dict(d) for d in _benchmark_workload_dicts(1)]
    assert len(bundled) >= 7 and len(scenarios) >= len(bundled) + 3
    for scenario in scenarios:
        assert scenario_json(scenario) == json.dumps(serialize_scenario(scenario), sort_keys=True, separators=(",", ":"))


def test_manifest_text_is_that_of_the_manifests_dict(tmp_path):
    # written from the manifest's fields, not asdict's deep copy, with the same bytes
    data = minimal_ground_state("manifest-text")
    data["grid"]["n_points"] = 101
    manifest = run_scenario(parse_scenario_dict(data), tmp_path, quiet=True)
    text = json.dumps(dataclasses.asdict(manifest), indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "manifest.json").read_text() == text


def _small_ground_state(**changes):
    data = minimal_ground_state("invalid")
    data["grid"]["n_points"] = 9
    for section, value in changes.items():
        data[section] = value
    return data


_NOT_SYMMETRIC = [[float(i <= j) for j in range(9)] for i in range(9)]


@pytest.mark.parametrize(
    "data, where",
    [
        (
            _small_ground_state(potentials={"v1": {"kind": "sampled", "values": [0.0] * 4 + [math.inf] + [0.0] * 4}}),
            "scenario.potentials.v1.values[4]",
        ),
        (
            _small_ground_state(interaction={"kind": "kernel", "kernel": _NOT_SYMMETRIC, "n_particles": 2}),
            "scenario.interaction",
        ),
        (_small_ground_state(potentials={"v1": {"kind": "harmonic", "omega": 1e154}}), "scenario.potentials.v1"),
        (_small_ground_state(initial_state={"kind": "gaussian", "width": 1e-200}), "scenario.initial_state"),
        (
            _small_ground_state(task={"kind": "rayleigh-ritz", "initial_params": [0.0, 100.0]}),
            "scenario.task.initial_params",
        ),
        (_small_ground_state(task={"kind": "rayleigh-ritz", "initial_params": [0.0]}), "scenario.task.initial_params"),
        (
            _small_ground_state(task={"kind": "verify", "epsilons": [0.01, math.inf]}),
            "scenario.task.epsilons[1]",
        ),
        # omega**2 overflows a Python float; before, run crashed with a traceback
        (_small_ground_state(potentials={"v1": {"kind": "harmonic", "omega": 1e200}}), "scenario.potentials.v1"),
        (_small_ground_state(grid={"x_min": -(10**400), "x_max": 10.0, "n_points": 9}), "scenario.grid.x_min"),
    ],
    ids=[
        "sampled-infinity",
        "kernel-not-symmetric",
        "potential-overflows",
        "state-underflows",
        "params-out-of-bounds",
        "params-count",
        "epsilon-infinity",
        "potential-overflows-python-float",
        "integer-beyond-double",
    ],
)
def test_cli_validate_rejects_what_run_would(tmp_path, capsys, data, where):
    path = write_scenario(tmp_path, data)
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {where}: ")


def _split_operator(kind="propagate", boundary="periodic", **changes):
    data = _small_ground_state(**changes)
    data["grid"]["boundary"] = boundary
    data["task"] = {"kind": kind, "n_steps": 4, "scheme": "split-operator"}
    return data


@pytest.mark.parametrize(
    "data, message",
    [
        (_split_operator(boundary="dirichlet"), "requires a periodic grid"),
        (_split_operator(potentials={"a": {"kind": "harmonic"}}), "requires zero vector potential"),
        (
            _split_operator("gp-propagate", interaction={"kind": "contact", "g": 1.0, "n_particles": 2}),
            "supports linear Hamiltonians only",
        ),
    ],
    ids=["dirichlet-grid", "vector-potential", "gp-propagate"],
)
def test_cli_validate_rejects_split_operator_misuse(tmp_path, capsys, data, message):
    # the stepper's own rule, applied when the scenario is parsed
    path = write_scenario(tmp_path, data)
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: scenario.task.scheme: ") and message in err
    assert main(["validate", str(write_scenario(tmp_path, _split_operator(), "linear.json"))]) == 0


def test_invalid_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "spec_version": 1,\n  oops\n}')
    with pytest.raises(ScenarioError, match="line 3"):
        parse_scenario(path)


def test_scenario_is_read_as_utf8_whatever_the_locale(tmp_path):
    # under the C locale the default text encoding is ASCII
    path = tmp_path / "utf8.json"
    path.write_bytes(json.dumps(minimal_ground_state("caf\u00e9"), ensure_ascii=False).encode("utf-8"))
    proc = subprocess.run(
        [sys.executable, "-m", "waveaction", "validate", str(path)],
        capture_output=True,
        encoding="utf-8",
        env={**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONIOENCODING": "utf-8"},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "OK: caf\u00e9 (ground-state)\n", "")


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("unreadable", ["directory", "latin-1"])
def test_cli_unreadable_scenario_exits_1(tmp_path, capsys, command, unreadable):
    path = tmp_path / "scenario.json"
    if unreadable == "directory":
        path.mkdir()
    else:
        path.write_bytes(latin1_scenario())
    extra = ["--out", str(tmp_path / "out"), "--quiet"] if command == "run" else []
    assert main([command, str(path), *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not UTF-8" if unreadable == "latin-1" else "error: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_run_line_is_logged_by_the_runner_and_printed_by_the_cli(tmp_path, capsys, caplog):
    path = write_scenario(tmp_path, minimal_ground_state())
    scenario = parse_scenario(path)
    with caplog.at_level("INFO", logger="waveaction.runner"):
        manifest = run_scenario(scenario, tmp_path / "logged")
        run_scenario(scenario, tmp_path / "quiet", quiet=True)
    line = f"[harmonic-ground] ground-state: ok ({manifest.wall_time_s:.2f}s) -> {tmp_path / 'logged'}"
    assert manifest.line(tmp_path / "logged") == line
    assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [("waveaction.runner", "INFO", line)]
    assert capsys.readouterr().out == ""  # the runner prints nothing
    caplog.clear()
    with caplog.at_level("INFO", logger="waveaction.runner"):
        assert main(["run", str(path), "--out", str(tmp_path / "cli")]) == 0
        assert main(["run", str(path), "--out", str(tmp_path / "cli-quiet"), "--quiet"]) == 0
    wall = json.loads((tmp_path / "cli" / "manifest.json").read_text())["wall_time_s"]
    assert capsys.readouterr().out == f"[harmonic-ground] ground-state: ok ({wall:.2f}s) -> {tmp_path / 'cli'}\n"
    assert not caplog.records  # the CLI's line is printed, not logged as well


def test_ground_state_run_outputs(tmp_path):
    path = write_scenario(tmp_path, minimal_ground_state())
    scenario = parse_scenario(path)
    manifest = run_scenario(scenario, tmp_path / "out", quiet=True)
    assert manifest.converged
    assert manifest.summary["final_energy"] == pytest.approx(0.5, abs=1e-4)
    out = tmp_path / "out"
    assert (out / "manifest.json").exists()
    assert (out / "energy_history.csv").exists()
    grid = build_grid(scenario)
    task = scenario.task
    result = ground_state_imaginary_time(
        build_config(scenario),
        build_initial_state(scenario, grid),
        dtau=task["dtau"],
        tol=task["tol"],
        max_iter=task["max_iter"],
    )
    stored = np.load(out / "ground_state.npy")
    assert stored.dtype == np.complex128 and stored.shape == (401,)
    assert stored.tobytes() == result.state.amplitudes.tobytes()
    payload = json.loads((out / "manifest.json").read_text())
    assert payload["converged"] is True
    assert payload["summary"]["final_energy"] == manifest.summary["final_energy"]
    # summary scalar also appears in the detailed history file
    last = (out / "energy_history.csv").read_text().strip().splitlines()[-1]
    assert float(last.split(",")[1]) == manifest.summary["final_energy"]
    assert not list(out.glob("*.tmp"))


@pytest.mark.parametrize("interaction", [None, {"kind": "contact", "g": 20.0, "n_particles": 3}], ids=["linear", "contact"])
def test_ground_state_manifest_reports_the_residual(tmp_path, interaction):
    # the summary takes the residual and chemical potential the relaxation
    # computed on its held H; the chemical potential only with an interaction
    data = minimal_ground_state()
    if interaction is not None:
        data["interaction"] = interaction
    scenario = parse_scenario_dict(data)
    summary = run_scenario(scenario, tmp_path / "out", quiet=True).summary
    grid = build_grid(scenario)
    cfg = build_config(scenario)
    task = scenario.task
    result = ground_state_imaginary_time(
        cfg, build_initial_state(scenario, grid), dtau=task["dtau"], tol=task["tol"], max_iter=task["max_iter"]
    )
    payload = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert payload["summary"] == summary
    assert summary["residual"] == result.residual > 0
    assert summary["newton_steps"] == result.newton_steps > 0
    if interaction is None:
        assert "chemical_potential" not in summary
    else:
        assert summary["chemical_potential"] == result.chemical_potential


@pytest.mark.parametrize(
    "interaction, certified",
    [(None, True), ({"kind": "contact", "g": 20.0, "n_particles": 3}, True), ({"kind": "contact", "g": -5.0, "n_particles": 2}, None)],
    ids=["linear", "repulsive", "attractive"],
)
def test_ground_state_manifest_records_the_certificate(tmp_path, interaction, certified):
    # true where the ground-state test ran and passed, null where it proves nothing (c < 0)
    data = minimal_ground_state()
    if interaction is not None:
        data["interaction"] = interaction
    manifest = run_scenario(parse_scenario_dict(data), tmp_path / "out", quiet=True)
    payload = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest.converged and payload["summary"]["certified"] is manifest.summary["certified"] is certified


def test_ground_state_manifest_says_which_path_ran(tmp_path):
    # a complex H (a vector potential) keeps the complex loop, with no Newton steps; a real one is finished by Newton
    data = minimal_ground_state()
    data["initial_state"] = {"kind": "gaussian", "width": 1.0, "center": 0.5, "wavenumber": 1.0}
    data["potentials"]["a"] = {"kind": "harmonic", "omega": 0.5}
    moving = run_scenario(parse_scenario_dict(data), tmp_path / "moving", quiet=True).summary
    del data["potentials"]["a"]
    data["initial_state"]["wavenumber"] = 0.0
    resting = run_scenario(parse_scenario_dict(data), tmp_path / "resting", quiet=True).summary
    assert moving["newton_steps"] == 0 < resting["newton_steps"]
    assert resting["residual"] < 1e-9 < moving["residual"]
    for name in ("moving", "resting"):
        history = (tmp_path / name / "energy_history.csv").read_text().strip().splitlines()
        assert len(history) == 1 + 1 + json.loads((tmp_path / name / "manifest.json").read_text())["summary"]["iterations"]


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
def test_trajectory_file_holds_the_propagated_states(tmp_path, boundary):
    data = minimal_ground_state()
    data["grid"]["boundary"] = boundary
    data["task"] = {"kind": "propagate", "n_steps": 4}
    data["initial_state"] = {"kind": "gaussian", "width": 0.9, "center": 0.2}
    scenario = parse_scenario(write_scenario(tmp_path, data))
    out = tmp_path / "out"
    run_scenario(scenario, out, quiet=True)
    assert sorted(p.name for p in out.iterdir()) == ["diagnostics.csv", "manifest.json", "trajectory.npy"]
    grid = build_grid(scenario)
    traj = propagate(build_config(scenario), build_initial_state(scenario, grid), build_plan(scenario))
    stored = np.load(out / "trajectory.npy")
    rows = (out / "diagnostics.csv").read_text().strip().splitlines()[1:]
    assert stored.dtype == np.complex128 and stored.shape == (len(rows), 401)
    assert stored.tobytes() == traj.amplitudes.tobytes()
    # row k of the array is the state at row k of the CSV
    assert [float(r.split(",")[1]) for r in rows] == list(traj.times)
    manifest = json.loads((out / "manifest.json").read_text())
    assert make_grid(**manifest["grid"]).x.tobytes() == grid.x.tobytes()


def test_propagation_csv_columns_and_determinism(tmp_path):
    data = minimal_ground_state("seeded-random")
    data["task"] = {"kind": "propagate", "n_steps": 20}
    data["initial_state"] = {"kind": "random", "smoothing": 1.5}
    data["rng_seed"] = 1234
    data["output"] = {"record_stride": 5}
    path = write_scenario(tmp_path, data)
    scenario = parse_scenario(path)
    run_scenario(scenario, tmp_path / "a", quiet=True)
    run_scenario(scenario, tmp_path / "b", quiet=True)
    csv_a = (tmp_path / "a" / "diagnostics.csv").read_bytes()
    csv_b = (tmp_path / "b" / "diagnostics.csv").read_bytes()
    assert csv_a == csv_b
    assert (tmp_path / "a" / "trajectory.npy").read_bytes() == (tmp_path / "b" / "trajectory.npy").read_bytes()
    header = csv_a.decode().splitlines()[0]
    assert header == (
        "step,time,norm,energy,continuity_sup,continuity_l2,"
        "action_simple_running,action_standard_running,hamilton_r1"
    )
    rows = csv_a.decode().strip().splitlines()[1:]
    assert len(rows) == 5  # steps 0, 5, 10, 15, 20
    assert rows[0].split(",")[0] == "0"
    assert rows[-1].split(",")[0] == "20"


def test_verify_task_passes_on_harmonic_trap(tmp_path):
    data = minimal_ground_state("verify-harmonic")
    data["task"] = {"kind": "verify", "n_steps": 300}
    data["initial_state"] = {"kind": "gaussian", "width": 2**-0.5}
    path = write_scenario(tmp_path, data)
    code = main(["run", str(path), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 0
    payload = json.loads((tmp_path / "out" / "manifest.json").read_text())
    checks = payload["summary"]["checks"]
    assert all(c["passed"] for c in checks.values())
    assert checks["norm_drift"]["value"] < 1e-10
    assert checks["action_equivalence"]["value"] < 1e-8
    assert 1.85 < checks["stationarity_slope"]["value"] < 2.15
    # the exact coefficients of dS(eps) = eps S1 + eps^2 S2: S1 all but vanishes on the solution
    summary = payload["summary"]
    assert summary["stationarity_second_order"] < 0.0
    assert abs(summary["stationarity_first_order"]) < 1e-5 * abs(summary["stationarity_second_order"])


def test_cli_run_rejects_a_non_finite_stationarity_change(tmp_path, capsys):
    # the parser takes any finite epsilon; the probe names the one whose
    # action change overflows, and the run writes no manifest (no NaN in it)
    data = json.loads((Path(__file__).resolve().parents[1] / "scenarios" / "verify_harmonic.json").read_text())
    data["task"]["epsilons"] = [1e300, 1e-3]
    path = write_scenario(tmp_path, data)
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err == "error: the action change at epsilon 1e+300 is not finite\n"
    assert not (out / "manifest.json").exists()


def test_cli_validate_and_exit_codes(tmp_path):
    good = write_scenario(tmp_path, minimal_ground_state(), "good.json")
    assert main(["validate", str(good)]) == 0

    bad = minimal_ground_state()
    bad["grid"]["n_points"] = 4
    bad_path = write_scenario(tmp_path, bad, "bad.json")
    assert main(["validate", str(bad_path)]) == 1
    assert main(["validate", str(tmp_path / "missing.json")]) == 1
    assert main(["nonsense"]) == 1


def test_cli_nonconvergence_exit_code(tmp_path):
    data = minimal_ground_state("wont-converge")
    data["task"] = {"kind": "ground-state", "max_iter": 1}
    path = write_scenario(tmp_path, data)
    code = main(["run", str(path), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 2
    payload = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert payload["converged"] is False


def test_cli_io_failure_exit_code(tmp_path):
    path = write_scenario(tmp_path, minimal_ground_state())
    blocker = tmp_path / "blocked"
    blocker.write_text("i am a file, not a directory")
    code = main(["run", str(path), "--out", str(blocker / "sub"), "--quiet"])
    assert code == 3


def test_cli_stride_override(tmp_path):
    data = minimal_ground_state("stride-override")
    data["task"] = {"kind": "propagate", "n_steps": 20}
    path = write_scenario(tmp_path, data)
    code = main(["run", str(path), "--out", str(tmp_path / "out"), "--stride", "10", "--quiet"])
    assert code == 0
    rows = (tmp_path / "out" / "diagnostics.csv").read_text().strip().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["0", "10", "20"]


def test_task_t_start_is_the_initial_state_time(tmp_path):
    # the runner puts t_start on the initial state, and the run starts from that state's time
    data = minimal_ground_state("late-start")
    data["task"] = {"kind": "propagate", "n_steps": 4, "dt": 0.01, "t_start": 0.5}
    path = write_scenario(tmp_path, data)
    assert main(["run", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    rows = (tmp_path / "out" / "diagnostics.csv").read_text().strip().splitlines()[1:]
    assert [float(r.split(",")[1]) for r in rows] == [0.5 + k * 0.01 for k in range(5)]


def test_cli_stride_manifest_hashes_the_scenario_that_ran(tmp_path):
    data = minimal_ground_state("stride-hash")
    data["task"] = {"kind": "propagate", "n_steps": 20}
    path = write_scenario(tmp_path, data)
    assert main(["run", str(path), "--out", str(tmp_path / "out"), "--stride", "10", "--quiet"]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    ran = parse_scenario_dict({**data, "output": {"record_stride": 10}})
    assert manifest["scenario_hash"] == hashlib.sha256(scenario_json(ran).encode()).hexdigest()
    assert manifest["summary"]["record_stride"] == 10


@pytest.mark.parametrize(
    "task",
    [{"kind": "ground-state"}, {"kind": "rayleigh-ritz", "family": "gaussian"}],
    ids=["ground-state", "rayleigh-ritz"],
)
def test_cli_stride_0_without_steps_exits_1_and_writes_nothing(tmp_path, capsys, task):
    # the override is validated like the file's own stride, even where no step records it
    data = minimal_ground_state("stride-0")
    data["task"] = task
    path = write_scenario(tmp_path, data)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out), "--stride", "0", "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("error: scenario.output.record_stride: ")
    assert not out.exists()


def test_cli_stride_that_does_not_divide_n_steps_names_the_stride(tmp_path, capsys):
    data = minimal_ground_state("stride-message")
    data["task"] = {"kind": "propagate", "n_steps": 20}
    path = write_scenario(tmp_path, data)
    assert main(["run", str(path), "--out", str(tmp_path / "out"), "--stride", "7", "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("error: scenario.output.record_stride: ")


def test_cli_stride_that_does_not_divide_n_steps_exits_1(tmp_path):
    data = minimal_ground_state("stride-mismatch")
    data["task"] = {"kind": "propagate", "n_steps": 20}
    good = write_scenario(tmp_path, data, "good.json")
    assert main(["run", str(good), "--out", str(tmp_path / "a"), "--stride", "7", "--quiet"]) == 1
    assert not (tmp_path / "a" / "manifest.json").exists()
    data["output"] = {"record_stride": 7}
    bad = write_scenario(tmp_path, data, "bad.json")
    assert main(["validate", str(bad)]) == 1
    assert main(["run", str(bad), "--out", str(tmp_path / "b"), "--quiet"]) == 1


@pytest.mark.parametrize(
    "task, where",
    [
        ({"kind": "propagate", "n_steps": 4}, "step 1 "),
        # a linear relaxation factors 1 + dtau H once, by LDL^T where it is positive definite
        ({"kind": "ground-state"}, "iteration 1 "),
    ],
    ids=["propagate", "ground-state"],
)
def test_cli_state_that_blows_up_exits_2(tmp_path, monkeypatch, capsys, task, where):
    # a solver that returns NaN makes the first stepped or relaxed state non-finite
    import waveaction.propagation as propagation

    monkeypatch.setattr(propagation._CayleySolver, "solve", lambda self, rhs: np.full(len(rhs), np.nan, dtype=complex))
    data = minimal_ground_state("blow-up")
    data["grid"]["n_points"] = 201
    data["task"] = task
    path = write_scenario(tmp_path, data)
    assert main(["validate", str(path)]) == 0
    assert main(["run", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("solver error: ") and where in err and "amplitudes must be finite" in err


@pytest.mark.parametrize(
    "task, where",
    [
        ({"kind": "propagate", "n_steps": 4}, "step 1 "),
        # a linear relaxation factors 1 + dtau H once, by LDL^T where it is positive definite
        ({"kind": "ground-state"}, "iteration 1 "),
    ],
    ids=["propagate", "ground-state"],
)
def test_state_that_blows_up_writes_a_failure_manifest(tmp_path, monkeypatch, capsys, task, where):
    import waveaction.propagation as propagation

    monkeypatch.setattr(propagation._CayleySolver, "solve", lambda self, rhs: np.full(len(rhs), np.nan, dtype=complex))
    data = minimal_ground_state("blow-up")
    data["grid"]["n_points"] = 201
    data["task"] = task
    out = tmp_path / "out"
    assert main(["run", str(write_scenario(tmp_path, data)), "--out", str(out), "--quiet"]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["converged"] is False and manifest["name"] == "blow-up"
    assert manifest["task"] == task["kind"] and manifest["grid"]["n_points"] == 201
    assert manifest["summary"]["phase"] == "propagate"
    error = manifest["summary"]["error"]
    assert where in error and "amplitudes must be finite" in error
    assert capsys.readouterr().err == f"solver error: {error}\n"
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


def test_cli_singular_system_exits_2_and_writes_a_failure_manifest(tmp_path, capsys):
    # V = -1.5 on a unit grid with dtau 1 makes 1 + dtau H singular: LDL^T
    # finds it indefinite and gttrf meets a zero pivot.  numpy's LinAlgError
    # subclasses ValueError, yet a singular solve is a solver error, not a
    # usage error
    data = {
        "spec_version": 1,
        "name": "singular",
        "grid": {"x_min": 0.0, "x_max": 9.0, "n_points": 10},
        "potentials": {"v1": {"kind": "sampled", "values": [-1.5] * 10}},
        "task": {"kind": "ground-state", "dtau": 1.0},
    }
    path = write_scenario(tmp_path, data)
    assert main(["validate", str(path)]) == 0
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out), "--quiet"]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["converged"] is False and manifest["task"] == "ground-state"
    assert manifest["summary"] == {
        "error": "singular matrix: zero pivot in row 8 of 1 + s H (s = 1)",
        "phase": "propagate",
    }
    assert capsys.readouterr().err == f"solver error: {manifest['summary']['error']}\n"
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


def test_runner_energy_column_keeps_the_hermiticity_check(tmp_path, monkeypatch):
    # the energy column is computed by the action pass on blocks of rows; a
    # non-Hermitian H must still raise, and the failure manifest names the
    # analysis phase
    import waveaction.variational as variational
    from waveaction.hamiltonian import TridiagonalHamiltonian, hamiltonian_at

    def skewed_at(cfg, grid):
        h = hamiltonian_at(cfg, grid)(0.0)
        skewed = TridiagonalHamiltonian(grid, h.diag + 1e-3j, h.upper, h.lower)
        return lambda t: skewed

    monkeypatch.setattr(variational, "hamiltonian_at", skewed_at)
    data = minimal_ground_state("skewed")
    data["task"] = {"kind": "propagate", "n_steps": 30}
    with pytest.raises(RuntimeError, match="energy has imaginary part .*not Hermitian"):
        run_scenario(parse_scenario_dict(data), tmp_path / "out", quiet=True)
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["converged"] is False
    assert manifest["summary"]["phase"] == "analysis"
    assert manifest["summary"]["error"].startswith("energy has imaginary part")


def _drift_potential(x, t):
    return 0.3 * np.cos(x + 2.0 * t)


def _driven_trap(x, t):
    return 0.5 * x**2 + 0.4 * x * np.sin(3.0 * t)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=trajectory_shapes(),
    boundary=st.sampled_from(["dirichlet", "periodic"]),
    driven=st.booleans(),
    interaction=st.sampled_from([None, "contact", "kernel"]),
)
def test_diagnostics_columns_equal_the_per_pair_functions(seed, shape, boundary, driven, interaction):
    # the runner computes its columns on blocks of rows, each pair's midpoint
    # once; every column must equal the public per-state and per-pair function
    import waveaction.runner as runner

    n_snapshots, n_points = shape
    traj = random_trajectory(seed, n_snapshots, n_points, boundary, 1e-2)
    grid = traj.grid
    traj = Trajectory(grid, traj.times, traj.amplitudes / norms(grid, traj.amplitudes)[:, None])
    if driven:
        v1, a_vec = PotentialField.from_callable(_driven_trap), PotentialField.from_callable(_drift_potential)
    else:
        v1, a_vec = PotentialField.harmonic(), PotentialField.from_samples(0.3 * np.cos(grid.x))
    if interaction == "kernel" and n_points <= 1100:
        x = grid.x
        pair = TwoBodyInteraction.from_kernel(np.exp(-np.abs(x[:, None] - x[None, :])), 3)
    else:
        pair = None if interaction is None else TwoBodyInteraction.contact(25.0, 3)
    cfg = HamiltonianConfig(v1=v1, a_vec=a_vec, interaction=pair)
    columns = runner._diagnostics_columns(action_integrals(cfg, traj), 1)
    snapshots = traj.snapshots
    assert list(columns["time"]) == [t for t, _ in snapshots]
    for k, (t, psi) in enumerate(snapshots):
        row = {name: column[k] for name, column in columns.items()}
        assert (row["norm"], row["energy"]) == (norm(psi), energy(cfg, psi))
        if k == 0:
            assert (row["continuity_sup"], row["continuity_l2"], row["hamilton_r1"]) == (0.0, 0.0, 0.0)
            continue
        before = snapshots[k - 1][1]
        report = continuity_residual(cfg, before, psi)
        assert (row["continuity_sup"], row["continuity_l2"]) == (report.sup_norm, report.l2_norm)
        assert row["hamilton_r1"] == hamilton_equations_residual(cfg, before, psi)[0]


def test_cli_non_finite_initial_state_exits_1(tmp_path, capsys):
    # width**2 underflows to 0, so the Gaussian is 0/0 = NaN at its centre
    data = minimal_ground_state("nan-start")
    data["initial_state"] = {"kind": "gaussian", "center": 0.0, "width": 1e-200}
    for task in ({"kind": "propagate", "n_steps": 4}, {"kind": "ground-state"}):
        data["task"] = task
        path = write_scenario(tmp_path, data)
        with np.errstate(divide="ignore", invalid="ignore"):
            assert main(["validate", str(path)]) == 1
            assert capsys.readouterr().err == "error: scenario.initial_state: amplitudes must be finite\n"
            assert main(["run", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
        assert capsys.readouterr().err == "error: scenario.initial_state: amplitudes must be finite\n"


def test_verify_makes_one_action_pass_besides_stationarity(tmp_path, monkeypatch):
    # the runner's pass feeds the CSV, both actions and reality; on a linear
    # H the stationarity probe reads the trajectory once for its exact
    # coefficients and evaluates no density.  Every pass evaluates the
    # densities on blocks of rows through variational._simple_density and
    # variational._standard_density, so count the rows of the (rows, N)
    # amplitude block each of them receives.
    import waveaction.variational as variational

    rows = {"_simple_density": 0, "_standard_density": 0}

    def counting(name):
        original = getattr(variational, name)

        def counted(cfg, h_or_grid, amp, *args):
            rows[name] += len(amp)
            return original(cfg, h_or_grid, amp, *args)

        return counted

    for name in rows:
        monkeypatch.setattr(variational, name, counting(name))
    data = minimal_ground_state("verify-count")
    data["grid"]["n_points"] = 201
    data["task"] = {"kind": "verify", "n_steps": 20, "epsilons": [1e-2, 1e-3, 1e-4]}
    manifest = run_scenario(parse_scenario_dict(data), tmp_path / "out", quiet=True)
    assert "checks" in manifest.summary
    assert rows == {"_simple_density": 1 * 21, "_standard_density": 1 * 21}


def test_verify_needs_three_records(tmp_path):
    data = minimal_ground_state("verify-short")
    data["task"] = {"kind": "verify", "n_steps": 1}
    path = write_scenario(tmp_path, data)
    assert main(["run", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 1


def test_cli_validate_rejects_verify_with_fewer_than_3_records(tmp_path, capsys):
    data = minimal_ground_state("verify-short")
    data["task"] = {"kind": "verify", "n_steps": 1}
    assert main(["validate", str(write_scenario(tmp_path, data))]) == 1
    assert capsys.readouterr().err.startswith("error: scenario.output.record_stride: need at least 3 snapshots")


def test_cli_verify_stride_with_fewer_than_3_records_exits_1_before_it_runs(tmp_path, capsys):
    data = minimal_ground_state("verify-stride")
    data["task"] = {"kind": "verify", "n_steps": 20}
    path = write_scenario(tmp_path, data)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out), "--stride", "20", "--quiet"]) == 1
    assert "need at least 3 snapshots" in capsys.readouterr().err
    assert not [p for p in out.rglob("*") if p.is_file()]


@pytest.mark.parametrize(
    "cfg",
    [
        HamiltonianConfig(v1=PotentialField.harmonic()),
        HamiltonianConfig(v1=PotentialField.from_callable(lambda x, t: 0.5 * (x - 0.3 * np.sin(4.0 * t)) ** 2)),
        HamiltonianConfig(v1=PotentialField.harmonic(), interaction=TwoBodyInteraction.contact(5.0, 2)),
    ],
    ids=["static", "driven", "contact"],
)
def test_diagnostics_hamilton_r1_is_the_public_residual(cfg):
    # the runner evaluates the residual on its held H; the column must not move
    from waveaction.runner import _diagnostics_columns

    grid = make_grid(-8.0, 8.0, 201)
    plan = PropagationPlan(dt=1e-2, n_steps=6, record_stride=2)
    traj = propagate(cfg, gaussian_wavepacket(grid, center=0.5), plan)
    states = [psi for _, psi in traj.snapshots]
    expected = [0.0] + [hamilton_equations_residual(cfg, a, b)[0] for a, b in zip(states, states[1:])]
    assert list(_diagnostics_columns(action_integrals(cfg, traj), 2)["hamilton_r1"]) == expected


def test_cli_batch_runs_directory(tmp_path, monkeypatch):
    scen_dir = tmp_path / "scenarios"
    scen_dir.mkdir()
    write_scenario(scen_dir, minimal_ground_state("one"), "one.json")
    failing = minimal_ground_state("two")
    failing["task"] = {"kind": "ground-state", "max_iter": 1}
    write_scenario(scen_dir, failing, "two.json")
    monkeypatch.chdir(tmp_path)
    code = main(["batch", str(scen_dir), "--out", str(tmp_path / "runs"), "--quiet"])
    assert code == 2  # worst exit code wins
    assert (tmp_path / "runs" / "one" / "manifest.json").exists()
    assert (tmp_path / "runs" / "two" / "manifest.json").exists()
    assert main(["batch", str(tmp_path / "nodir")]) == 1


def test_cli_batch_parallel_width(tmp_path, monkeypatch):
    scen_dir = tmp_path / "scenarios"
    scen_dir.mkdir()
    write_scenario(scen_dir, minimal_ground_state("p1"), "p1.json")
    write_scenario(scen_dir, minimal_ground_state("p2"), "p2.json")
    monkeypatch.setenv("WAVEACTION_BATCH_WIDTH", "2")
    code = main(["batch", str(scen_dir), "--out", str(tmp_path / "runs"), "--quiet"])
    assert code == 0
    assert (tmp_path / "runs" / "p1" / "manifest.json").exists()
    assert (tmp_path / "runs" / "p2" / "manifest.json").exists()


@pytest.mark.parametrize("width", ["two", "0"])
def test_cli_batch_width_must_be_a_positive_integer(tmp_path, monkeypatch, capsys, width):
    import waveaction.cli as cli

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
    monkeypatch.setenv("WAVEACTION_BATCH_WIDTH", width)
    scen_dir = tmp_path / "scenarios"
    scen_dir.mkdir()
    write_scenario(scen_dir, minimal_ground_state("w"), "w.json")
    assert main(["batch", str(scen_dir), "--out", str(tmp_path / "runs"), "--quiet"]) == 1
    assert "WAVEACTION_BATCH_WIDTH" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("n_files, width, expected", [(1, "4", None), (2, "4", 2), (3, "2", 2)])
def test_cli_batch_starts_no_more_workers_than_scenarios(tmp_path, monkeypatch, n_files, width, expected):
    import waveaction.cli as cli

    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setenv("WAVEACTION_BATCH_WIDTH", width)
    scen_dir = tmp_path / "scenarios"
    scen_dir.mkdir()
    for k in range(n_files):
        write_scenario(scen_dir, minimal_ground_state(f"s{k}"), f"s{k}.json")
    assert main(["batch", str(scen_dir), "--out", str(tmp_path / "runs"), "--quiet"]) == 0
    assert started == ([] if expected is None else [expected])  # one file runs serially
    assert all((tmp_path / "runs" / f"s{k}" / "manifest.json").exists() for k in range(n_files))


HERMITICITY_ERROR = "energy has imaginary part 1.000e-03; Hamiltonian assembly is not Hermitian"


@pytest.mark.parametrize("error", [RuntimeError(HERMITICITY_ERROR), MemoryError("out of memory")])
def test_cli_run_solver_error_exits_2(tmp_path, monkeypatch, capsys, error):
    import waveaction.cli as cli

    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "run_scenario", failing)
    path = write_scenario(tmp_path, minimal_ground_state())
    assert main(["run", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert f"solver error: {error}" in capsys.readouterr().err


@pytest.mark.parametrize("width", ["1", "2"])
def test_cli_batch_reports_every_scenario_after_a_solver_error(tmp_path, monkeypatch, capsys, width):
    # the patched runner reaches the width-2 workers because they are forked
    import waveaction.cli as cli

    original = cli.run_scenario

    def guarded(scenario, out_dir, **kwargs):
        if scenario.name == "broken":
            raise RuntimeError(HERMITICITY_ERROR)
        return original(scenario, out_dir, **kwargs)

    monkeypatch.setattr(cli, "run_scenario", guarded)
    monkeypatch.setenv("WAVEACTION_BATCH_WIDTH", width)
    scen_dir = tmp_path / "scenarios"
    scen_dir.mkdir()
    for name in ("broken", "good", "later"):
        write_scenario(scen_dir, minimal_ground_state(name), f"{name}.json")
    code = main(["batch", str(scen_dir), "--out", str(tmp_path / "runs")])
    captured = capsys.readouterr()
    assert code == 2
    exits = dict(line.rsplit(": exit ", 1) for line in captured.out.splitlines() if ": exit " in line)
    assert exits == {str(scen_dir / f"{n}.json"): c for n, c in (("broken", "2"), ("good", "0"), ("later", "0"))}
    assert (tmp_path / "runs" / "later" / "manifest.json").exists()
    if width == "1":
        assert f"solver error: {HERMITICITY_ERROR}" in captured.err


@pytest.mark.parametrize("width", ["1", "2"])
def test_cli_batch_reports_an_unreadable_entry_and_runs_the_rest(tmp_path, monkeypatch, capsys, width):
    monkeypatch.setenv("WAVEACTION_BATCH_WIDTH", width)
    scen_dir = tmp_path / "scenarios"
    scen_dir.mkdir()
    (scen_dir / "a-dir.json").mkdir()
    (scen_dir / "b-latin1.json").write_bytes(latin1_scenario())
    write_scenario(scen_dir, minimal_ground_state("good"), "good.json")
    code = main(["batch", str(scen_dir), "--out", str(tmp_path / "runs")])
    captured = capsys.readouterr()
    assert code == 1
    exits = dict(line.rsplit(": exit ", 1) for line in captured.out.splitlines() if ": exit " in line)
    assert exits == {str(scen_dir / f"{n}.json"): c for n, c in (("a-dir", "1"), ("b-latin1", "1"), ("good", "0"))}
    assert (tmp_path / "runs" / "good" / "manifest.json").exists()
    if width == "1":
        assert [line.split(":", 1)[0] for line in captured.err.splitlines()] == ["error", "error"]


def test_failed_write_leaves_no_temporary_file(tmp_path, monkeypatch, capsys):
    # the trajectory write fails inside np.save: the run exits 2 with a
    # failure manifest naming the write phase, and no temporary file remains
    def failing_save(*args, **kwargs):
        raise MemoryError("cannot allocate the array buffer")

    monkeypatch.setattr(np, "save", failing_save)
    data = minimal_ground_state("write-fails")
    data["grid"]["n_points"] = 201
    data["task"] = {"kind": "propagate", "n_steps": 4}
    out = tmp_path / "out"
    assert main(["run", str(write_scenario(tmp_path, data)), "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == "solver error: cannot allocate the array buffer\n"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["converged"] is False
    assert manifest["summary"] == {"error": "cannot allocate the array buffer", "phase": "write"}
    assert not list(out.glob("*.tmp"))
    assert sorted(p.name for p in out.iterdir()) == ["diagnostics.csv", "manifest.json"]


def test_cli_module_entry_point(tmp_path):
    path = write_scenario(tmp_path, minimal_ground_state())
    proc = subprocess.run(
        [sys.executable, "-m", "waveaction", "validate", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "OK" in proc.stdout


_MODULE_SET_SCRIPT = """
import json, sys
from pathlib import Path
watched = ("scipy.optimize", "scipy.fft", "scipy.special", "scipy.sparse")
loaded = lambda: sorted(m for m in watched if m in sys.modules)
import waveaction
report = {"import waveaction": loaded()}
scenarios, out = Path(sys.argv[1]), Path(sys.argv[2])
for name in sys.argv[3:]:
    waveaction.run_scenario(waveaction.parse_scenario(scenarios / name), out / name, quiet=True)
    report[name] = loaded()
print(json.dumps(report))
"""


def test_scipy_optimize_and_fft_load_only_in_the_runs_that_use_them(tmp_path):
    # module sets only, in a fresh interpreter: scipy.optimize serves
    # Rayleigh-Ritz alone, scipy.fft the split-operator scheme alone, and
    # scipy.special and scipy.sparse come only with them.  The split-operator
    # run goes before Rayleigh-Ritz, since scipy.optimize itself imports
    # scipy.fft.
    unaffected = [
        "verify_harmonic.json",
        "harmonic_ground_state.json",
        "condensate_ground_state.json",
        "wavepacket_in_trap.json",
        "random_start_ground_state.json",
    ]
    order = [*unaffected, "wavepacket_split_operator.json", "rayleigh_ritz_quartic.json"]
    scenarios = Path(__file__).resolve().parents[1] / "scenarios"
    proc = subprocess.run(
        [sys.executable, "-c", _MODULE_SET_SCRIPT, str(scenarios), str(tmp_path), *order],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    for step in ["import waveaction", *unaffected]:
        assert report[step] == [], step
    assert "scipy.fft" in report["wavepacket_split_operator.json"]
    assert "scipy.optimize" not in report["wavepacket_split_operator.json"]
    assert "scipy.optimize" in report["rayleigh_ritz_quartic.json"]


def test_rayleigh_ritz_task(tmp_path):
    data = minimal_ground_state("rr")
    data["task"] = {"kind": "rayleigh-ritz", "family": "gaussian", "initial_params": [0.2, 1.2]}
    path = write_scenario(tmp_path, data)
    code = main(["run", str(path), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 0
    payload = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert payload["summary"]["final_energy"] == pytest.approx(0.5, abs=1e-4)
    assert "width" in payload["summary"]["parameters"]


@pytest.mark.parametrize("hand_off", [False, True], ids=["gradient", "nelder-mead"])
def test_rayleigh_ritz_summary_records_the_gradient_norm(tmp_path, monkeypatch, hand_off):
    # written when L-BFGS-B returned the parameters, absent after a failed
    # build hands the run to Nelder-Mead
    import dataclasses

    from waveaction import runner
    from waveaction.variational import gaussian_family

    if hand_off:
        family = gaussian_family()
        builds = []

        def fails_once(params, grid):
            builds.append(params)
            if len(builds) == 2:
                raise ValueError("synthetic failure at the second build")
            return family.build(params, grid)

        fragile = dataclasses.replace(family, build=fails_once)
        monkeypatch.setitem(runner.FAMILIES, "gaussian", lambda: fragile)
    data = minimal_ground_state("rr-gradient")
    data["task"] = {"kind": "rayleigh-ritz", "family": "gaussian", "initial_params": [0.2, 1.2]}
    path = write_scenario(tmp_path, data)
    assert main(["run", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    summary = json.loads((tmp_path / "out" / "manifest.json").read_text())["summary"]
    assert summary["final_energy"] == pytest.approx(0.5, abs=1e-4)
    if hand_off:
        assert len(builds) > 2
        assert "gradient_norm" not in summary
    else:
        assert 0.0 <= summary["gradient_norm"] < 1e-4


def test_gp_propagate_task(tmp_path):
    data = minimal_ground_state("gp")
    data["interaction"] = {"kind": "contact", "g": 5.0, "n_particles": 4}
    data["task"] = {"kind": "gp-propagate", "n_steps": 10}
    path = write_scenario(tmp_path, data)
    code = main(["run", str(path), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 0
    payload = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert payload["summary"]["norm_drift"] < 1e-9


CONTACT = {"kind": "contact", "g": 1.0, "n_particles": 2}


@pytest.mark.parametrize(
    "change, message",
    [
        (
            lambda d: {**d, "grid": {**d["grid"], "boundary": "toroidal"}},
            r"scenario\.grid\.boundary: must be one of \['dirichlet', 'periodic'\], got 'toroidal'",
        ),
        (
            lambda d: {**d, "task": {**d["task"], "dtau": "small"}},
            r"scenario\.task\.dtau: expected a number, got 'small'",
        ),
        (lambda d: {**d, "grid": {"x_min": -10.0, "x_max": 10.0}}, r"scenario\.grid: missing required key 'n_points'"),
        (
            lambda d: {**d, "interaction": {"g": 1.0, "n_particles": 2}},
            r"scenario\.interaction: missing required key 'kind'",
        ),
        (
            lambda d: {**d, "task": {"kind": "propagate", "n_steps": 10}, "interaction": CONTACT},
            r"scenario\.task: propagate is the linear task; use gp-propagate for interactions",
        ),
        (
            lambda d: {**d, "task": {"kind": "verify"}, "interaction": CONTACT},
            r"scenario\.task: verify is the linear task; use gp-propagate for interactions",
        ),
        (lambda d: [d], "top level must be an object"),
    ],
    ids=[
        "outside-enum",
        "wrong-type",
        "missing-key",
        "interaction-without-kind",
        "propagate-interacting",
        "verify-interacting",
        "top-level-list",
    ],
)
def test_schema_rejects_each_malformed_scenario(tmp_path, change, message):
    with pytest.raises(ScenarioError, match=message):
        parse_scenario(write_scenario(tmp_path, change(minimal_ground_state())))


def test_cli_batch_on_a_directory_without_scenarios_exits_1(tmp_path, capsys):
    (tmp_path / "notes.txt").write_text("no scenarios here")
    assert main(["batch", str(tmp_path), "--out", str(tmp_path / "runs"), "--quiet"]) == 1
    assert f"error: no scenario files in {tmp_path}" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("n_steps", [20, 1, 0], ids=["21-records", "2-records", "1-record"])
@pytest.mark.parametrize("interaction", [None, "contact", "kernel"])
@pytest.mark.parametrize("driven", [False, True], ids=["static", "driven"])
@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
def test_csv_norm_and_energy_columns_are_the_per_row_functions(
    tmp_path, monkeypatch, boundary, driven, interaction, n_steps
):
    # the action pass forms the norm and energy columns from the |psi|^2 and
    # H psi of its densities, also for runs too short to integrate an action;
    # each must equal grids.norms and hamiltonian.energies_of of its row, bit
    # for bit.  A driven H (one-row blocks) comes in through the runner's
    # build_config, since scenarios hold static potentials only.
    import waveaction.runner as runner
    from waveaction.hamiltonian import energies_of, hamiltonian_matrix

    data = minimal_ground_state("columns")
    n_points = 201 if interaction == "kernel" else 601  # static blocks of 40 and of 13 rows
    data["grid"].update(n_points=n_points, boundary=boundary)
    data["initial_state"] = {"kind": "gaussian", "center": 0.5, "width": 0.8, "wavenumber": 1.0}
    data["task"] = {"kind": "propagate", "n_steps": n_steps, "dt": 2e-3}
    if interaction == "contact":
        data["interaction"] = {"kind": "contact", "g": 20.0, "n_particles": 3}
    elif interaction == "kernel":
        x = np.linspace(-10.0, 10.0, n_points, endpoint=boundary == "dirichlet")
        kernel = np.exp(-np.abs(x[:, None] - x)).tolist()
        data["interaction"] = {"kind": "kernel", "kernel": kernel, "n_particles": 3}
    if interaction is not None:
        data["task"]["kind"] = "gp-propagate"
    configs, build = [], runner.build_config

    def config_of(scenario):
        cfg = build(scenario)
        if driven:
            cfg = dataclasses.replace(cfg, v1=PotentialField.from_callable(_driven_trap))
        configs.append(cfg)
        return cfg

    monkeypatch.setattr(runner, "build_config", config_of)
    scenario = parse_scenario_dict(data)
    out = tmp_path / "out"
    run_scenario(scenario, out, quiet=True)
    monkeypatch.undo()
    (cfg,), grid = configs, build_grid(scenario)
    rows = np.load(out / "trajectory.npy")
    lines = (out / "diagnostics.csv").read_text().splitlines()
    header = lines[0].split(",")
    columns = {name: [float(line.split(",")[header.index(name)]) for line in lines[1:]] for name in header}
    assert len(rows) == len(columns["norm"]) == n_steps + 1
    for t, row, norm_value, energy_value in zip(columns["time"], rows, columns["norm"], columns["energy"]):
        assert norm_value == float(norms(grid, row))
        assert energy_value == float(energies_of(cfg, hamiltonian_matrix(cfg, grid, t), row))
    if n_steps < 2:
        assert columns["action_simple_running"] == columns["action_standard_running"] == [0.0] * (n_steps + 1)
