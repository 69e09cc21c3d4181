from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import pytest

from dcts import cli, qpcore, rbd, sim, solvers


@pytest.fixture
def tiny_scenario(tmp_path):
    data = json.loads(sim.bundled_scenario_path("rotation_hold").read_text())
    data["duration_s"] = 0.05
    data["name"] = "tiny"
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(data, indent=2))
    return path


def test_validate_bundled_clean(capsys):
    """Every bundled scenario validates with one ok line and no warning,
    numpy's included."""
    refs = [f"bundled:{path.stem}"
            for path in sorted(sim.bundled_scenario_path("rotation_hold").parent.glob("*.json"))]
    assert len(refs) == 5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.run(["--scenario", *refs, "--validate"])
    assert rc == 0
    assert capsys.readouterr().out == "".join(f"{ref}: ok\n" for ref in refs)


def test_validate_ignores_a_log_level_variable():
    """The CLI reads no logging variable: with DCTS_LOG_LEVEL set to a
    level that logging does not know, ``dcts --validate`` in a fresh
    interpreter (where logging has no handler yet) still prints its ok line
    and exits 0, with no traceback."""
    env = dict(os.environ, DCTS_LOG_LEVEL="loud",
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    run = subprocess.run([sys.executable, "-m", "dcts.cli", "--scenario",
                          "bundled:rotation_hold", "--validate"],
                         env=env, capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stdout, run.stderr) == (0, "bundled:rotation_hold: ok\n", "")


def test_validate_reports_named_field(tmp_path, capsys):
    data = json.loads(sim.bundled_scenario_path("rotation_hold").read_text())
    data["limits"]["acc_min_rad_s2"] = [50.0] * 7       # min above max
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    rc = cli.run(["--scenario", str(bad), "--validate"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "acc_min" in out


def test_unknown_solver_lists_valid_names(tiny_scenario, capsys):
    rc = cli.run(["--scenario", str(tiny_scenario), "--solver", "fancy"])
    err = capsys.readouterr().err
    assert rc == 1
    for name in ("osc", "qp-mt", "qp-md", "dcts"):
        assert name in err


def test_run_writes_outputs_and_table(tiny_scenario, tmp_path, capsys):
    out_dir = tmp_path / "out"
    rc = cli.run(["--scenario", str(tiny_scenario), "--solver", "osc", "dcts",
                  "--out", str(out_dir)])
    stdout = capsys.readouterr().out
    assert rc == 0
    for solver in ("osc", "dcts"):
        assert (out_dir / f"tiny__{solver}.trace.csv").exists()
        summary = json.loads((out_dir / f"tiny__{solver}.summary.json").read_text())
        assert summary["solver"] == solver
    table = (out_dir / "comparison.txt").read_text()
    assert table == "".join(stdout.rsplit(table, 1)[-2:-1]) or table in stdout
    assert "mean pos err" in table
    assert "tiny" in table


def test_rerun_byte_identical(tiny_scenario, tmp_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    before = hashlib.sha256(tiny_scenario.read_bytes()).hexdigest()
    assert cli.run(["--scenario", str(tiny_scenario), "--solver", "dcts",
                    "--out", str(d1)]) == 0
    assert cli.run(["--scenario", str(tiny_scenario), "--solver", "dcts",
                    "--out", str(d2)]) == 0
    f1 = (d1 / "tiny__dcts.trace.csv").read_bytes()
    f2 = (d2 / "tiny__dcts.trace.csv").read_bytes()
    assert f1 == f2
    # inputs never mutated
    assert hashlib.sha256(tiny_scenario.read_bytes()).hexdigest() == before


def test_dump_qp_produces_loadable_problem(tmp_path, monkeypatch):
    """--dump-qp keeps the last QP solved, with that stage's beq, written
    once per dcts run; the file loads and solves to optimal. An osc run
    writes no QP file."""
    solved, written = [], []
    solve, dump_problem = qpcore.solve, qpcore.dump_problem
    monkeypatch.setattr(qpcore, "solve", lambda p, **kw: solved.append(p) or solve(p, **kw))
    monkeypatch.setattr(qpcore, "dump_problem",
                        lambda p, path: written.append(Path(path).name) or dump_problem(p, path))
    for scenario in ("rotation_hold", "star_octagon"):
        data = json.loads(sim.bundled_scenario_path(scenario).read_text())
        data["duration_s"] = 0.01
        path = tmp_path / f"{scenario}.json"
        path.write_text(json.dumps(data))
        out_dir = tmp_path / scenario
        rc = cli.run(["--scenario", str(path), "--solver", "osc", "dcts",
                      "--out", str(out_dir), "--dump-qp"])
        assert rc == 0
        assert written == [f"{data['name']}__dcts.qp.json"]
        written.clear()
        assert not (out_dir / f"{data['name']}__osc.qp.json").exists()
        dump = (out_dir / f"{data['name']}__dcts.qp.json").read_text()
        assert dump == solved[-1].to_json()
        problem = qpcore.QpProblem.from_json(dump)
        assert problem.beq.any()
        assert qpcore.solve(problem).status == qpcore.OPTIMAL


def test_ext_force_flags_accepted(tmp_path):
    """--no-ext-force-bounds and a solver_config setting ext_force_in_bounds
    to false are one setting: the dcts traces have the same bytes. On a
    limit_push window whose push starts at 10 ms the bounds bind, so both
    differ from the default run."""
    data = json.loads(sim.bundled_scenario_path("limit_push").read_text())
    data["duration_s"] = 0.2
    data["events"][0].update(start_s=0.01, ramp_s=0.0)
    default = tmp_path / "default.json"
    default.write_text(json.dumps(data))
    data["solver_config"] = {"ext_force_in_bounds": False}
    no_bounds = tmp_path / "no_bounds.json"
    no_bounds.write_text(json.dumps(data))
    traces = {}
    for name, path, extra in (("default", default, []),
                              ("flag", default, ["--no-ext-force-bounds"]),
                              ("key", no_bounds, [])):
        assert cli.run(["--scenario", str(path), "--solver", "dcts",
                        "--out", str(tmp_path / name), *extra]) == 0
        traces[name] = (tmp_path / name / "limit-push__dcts.trace.csv").read_bytes()
    assert traces["flag"] == traces["key"]
    assert traces["flag"] != traces["default"]


def test_missing_file_is_config_error(capsys):
    rc = cli.run(["--scenario", "/nonexistent/path.json"])
    assert rc == 1
    assert "no such file" in capsys.readouterr().err


def test_scenario_file_not_utf8_is_config_error(tmp_path, capsys):
    """A scenario file that is not UTF-8 text is an error naming the file,
    for --validate and for a run alike."""
    path = tmp_path / "latin1.json"
    path.write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
    for extra in (["--validate"], ["--out", str(tmp_path / "o")]):
        assert cli.run(["--scenario", str(path), *extra]) == 1
        captured = capsys.readouterr()
        assert f"error: {path}: not UTF-8 text" in captured.out + captured.err
    assert not (tmp_path / "o").exists()


def test_multi_task_stack_rejected_by_single_task_solvers(tmp_path, capsys):
    """osc, qp-mt and qp-md take one task: a two-task stack is a config
    error naming the solver and the task count, whether the scenario file
    names the solver or --solver does."""
    data = json.loads(sim.bundled_scenario_path("rotation_hold").read_text())
    data["duration_s"] = 0.01
    data["tasks"].append({"priority": 2, "mode": "impedance",
                          "selector": "joint_posture", "stiffness": 10.0,
                          "damping": 6.0})
    for solver in ("osc", "qp-mt", "qp-md"):
        data["solver"] = solver
        path = tmp_path / f"two_{solver}.json"
        path.write_text(json.dumps(data))
        assert cli.run(["--scenario", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert repr(solver) in err and "2" in err
    data["solver"] = "dcts"
    path = tmp_path / "two_dcts.json"
    path.write_text(json.dumps(data))
    assert cli.run(["--scenario", str(path), "--validate"]) == 0
    capsys.readouterr()
    out_dir = tmp_path / "override"
    rc = cli.run(["--scenario", str(path), "--solver", "dcts", "qp-md", "--out", str(out_dir)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "'qp-md'" in err and "2" in err
    assert not out_dir.exists()          # rejected before the dcts run started
    with pytest.raises(sim.ConfigError, match="'qp-md' takes one task"):
        sim.run_scenario(sim.load_scenario(path), ["qp-md"])


MALFORMED = {
    # case: (path into rotation_hold, value set there, text the report must contain)
    "unknown_selector": (("tasks", 0, "selector"), "tool_z",
                         "tasks[0]: unknown selector 'tool_z'"),
    "nan_q0": (("q0_rad", 1), float("nan"), "q0_rad: must be finite"),
    "short_qd0": (("qd0_rad",), [0.0] * 6, "qd0_rad: expected shape (7,)"),
    "zero_dt": (("integrator_dt_s",), 0.0, "integrator_dt_s: must be > 0"),
    "short_q_max": (("limits", "q_max_rad"), [2.0] * 6, "limits: q_max_rad: expected shape"),
    "bad_regularizer": (("solver_config", "torque_regularizer"), "cubic",
                        "solver_config: unknown torque_regularizer 'cubic'"),
    "unknown_target": (("tasks", 0, "target", "type"), "spline",
                       "tasks[0]: unknown target type 'spline'"),
    "unknown_posture_target": (
        ("tasks", 0), {"priority": 1, "mode": "impedance", "selector": "joint_posture",
                       "stiffness": 10.0, "damping": 6.0,
                       "target": {"type": "spline", "q_rad": [0.0] * 7}},
        "tasks[0]: unknown target type 'spline'"),
    "negative_event_duration": (
        ("events",), [{"kind": "joint_torque", "start_s": 0.0, "duration_s": -1.0,
                       "joint": 2, "amplitude_nm": 5.0}],
        "events[0]: duration_s: must be >= 0"),
    "string_duration": (("duration_s",), "long", "duration_s: could not convert"),
    "negative_noise": (("tau_ext_noise_std",), -0.1, "tau_ext_noise_std: must be >= 0"),
    "string_ext_force_in_bounds": (("solver_config", "ext_force_in_bounds"), "yes",
                                   "solver_config: ext_force_in_bounds: invalid value 'yes'"),
    "removed_qp_tol": (("solver_config", "qp_tol"), 1e-8,
                       "unexpected keyword argument 'qp_tol'"),
    "dump_qp_path_in_file": (("solver_config", "dump_qp_path"), "qp.json",
                             "unexpected keyword argument 'dump_qp_path'"),
    "integrator_dt_not_dividing": (("integrator_dt_s",), 4e-4,
                                   "integrator_dt_s must divide control_dt_s"),
    "fractional_seed": (("seed",), 2.9, "seed: must be an integer"),
    "fractional_priority": (("tasks", 0, "priority"), 1.5,
                            "tasks[0]: priority: must be an integer"),
    "fractional_frame": (
        ("events",), [{"kind": "cartesian_force", "start_s": 0.0, "duration_s": 0.01,
                       "force_n": [1.0, 0.0, 0.0], "frame": 6.7}],
        "events[0]: frame: must be an integer"),
    "duration_not_whole_ticks": (("duration_s",), 0.0015,
                                 "duration_s must be a whole number of control_dt_s"),
    "duration_ticks_overflow": (("duration_s",), 1e308,
                                "duration_s must be a whole number of control_dt_s"),
    "duration_ticks_beyond_max": (("duration_s",), 1e300,
                                  "duration_s must be at most 1e+07 control ticks"),
    "integrator_dt_ratio_overflow": (("integrator_dt_s",), 1e-320,
                                     "integrator_dt_s must divide control_dt_s"),
    "integrator_substeps_beyond_max": (("integrator_dt_s",), 1e-300,
                                       "integrator_dt_s must be at least control_dt_s / 1000"),
    "unknown_top_level_key": (("duraton_s",), 1.0, "unknown key 'duraton_s'"),
    "unknown_limits_key": (("limits", "tau_mx_nm"), 50.0, "limits: unknown key 'tau_mx_nm'"),
    "removed_limits_dt": (("limits", "dt_s"), 0.5, "limits: unknown key 'dt_s'"),
    "unknown_task_key": (("tasks", 0, "stifness"), 100.0, "tasks[0]: unknown key 'stifness'"),
    "unknown_target_key": (("tasks", 0, "target", "angle_rad"), 0.3,
                           "tasks[0]: target: unknown key 'angle_rad'"),
    "unknown_event_key": (
        ("events",), [{"kind": "cartesian_force", "start_s": 0.0, "duration_s": 0.01,
                       "forc_n": [1.0, 0.0, 0.0]}],
        "events[0]: unknown key 'forc_n'"),
    "pose_target": (("tasks", 0, "target"),
                    {"type": "pose", "position_m": [0.5, 0.0, 0.5],
                     "rotation": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
                    "tasks[0]: unknown target type 'pose'"),
    "overlapping_payloads": (
        ("events",), [{"kind": "unmodeled_mass", "start_s": 0.0, "duration_s": 0.01,
                       "mass_kg": 4.1},
                      {"kind": "unmodeled_mass", "start_s": 0.005, "duration_s": 0.01,
                       "mass_kg": 5.0}],
        "events[1]: unmodeled_mass overlaps events[0]"),
    "payload_mass_beyond_range": (
        ("events",), [{"kind": "unmodeled_mass", "start_s": 0.0, "duration_s": 0.01,
                       "mass_kg": 1e300}],
        "events[0]: mass_kg: must be in (0, 1000] kg"),
    "payload_offset_beyond_range": (
        ("events",), [{"kind": "unmodeled_mass", "start_s": 0.0, "duration_s": 0.01,
                       "mass_kg": 4.1, "com_offset_m": [1e300, 0.0, 0.0]}],
        "events[0]: com_offset_m: each component must lie within +-10 m"),
    "point_on_rotation_task": (("tasks", 0, "point_m"), [0.0, 0.0, 0.1],
                               "tasks[0]: point: only a tool_pos task has a controlled point"),
    # a control character in an echoed path is written as \xNN
    "nul_byte_in_model_path": (("model",), "/model\x00.json",
                               "model: /model\\x00.json: embedded null byte"),
    "esc_in_model_path": (("model",), "/model\x1b[2J.json",
                          "model: /model\\x1b[2J.json: no such file or directory"),
    # the name is the stem of every output file, which must stay in --out
    "name_leaves_out": (("name",), "../escaped",
                        "name: must name an output file, got '../escaped'"),
    "name_in_subdirectory": (("name",), "sub/dir",
                             "name: must name an output file, got 'sub/dir'"),
    "name_with_backslash": (("name",), "sub\\dir",
                            "name: must name an output file, got 'sub\\\\dir'"),
    "name_parent_dir": (("name",), "..", "name: must name an output file, got '..'"),
    "name_empty": (("name",), "", "name: must name an output file, got ''"),
    "name_with_esc": (("name",), "a\x1bb", "name: must name an output file, got 'a\\x1bb'"),
    # a 3-vector or a posture takes exactly its numbers; one number fills none
    "scalar_force": (
        ("events",), [{"kind": "cartesian_force", "start_s": 0.0, "duration_s": 0.01,
                       "force_n": 10.0}],
        "events[0]: force_n: expected shape (3,), got ()"),
    "scalar_event_point": (
        ("events",), [{"kind": "cartesian_force", "start_s": 0.0, "duration_s": 0.01,
                       "force_n": [10.0, 0.0, 0.0], "point_m": 0.1}],
        "events[0]: point_m: expected shape (3,), got ()"),
    "scalar_com_offset": (
        ("events",), [{"kind": "unmodeled_mass", "start_s": 0.0, "duration_s": 0.01,
                       "mass_kg": 2.0, "com_offset_m": 0.05}],
        "events[0]: com_offset_m: expected shape (3,), got ()"),
    "scalar_task_point": (("tasks", 0, "point_m"), 0.1,
                          "tasks[0]: point_m: expected shape (3,), got ()"),
    "scalar_target_axis": (("tasks", 0, "target", "axis"), 1.0,
                           "tasks[0]: axis: expected shape (3,), got ()"),
    "scalar_posture": (
        ("tasks", 0), {"priority": 1, "mode": "impedance", "selector": "joint_posture",
                       "stiffness": 10.0, "damping": 6.0,
                       "target": {"type": "posture", "q_rad": 0.3}},
        "tasks[0]: q_rad: expected shape (7,), got ()"),
    "scalar_tracker_center": (
        ("tasks", 0), {"priority": 1, "mode": "waypoint_tracker", "selector": "tool_pos",
                       "waypoints": {"type": "octagon_with_center", "center_m": 0.5,
                                     "radius_m": 0.1},
                       "tolerance_m": 0.01, "kp": 100.0, "kv": 20.0, "v_sat": 0.5},
        "tasks[0]: center_m: expected shape (3,), got ()"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_a_config_error(case, tmp_path, capsys, monkeypatch):
    """--validate and a run apply the same checks: both exit 1, name the
    field, and nothing is written, neither under --out nor in the working
    directory."""
    monkeypatch.chdir(tmp_path)
    (*parents, last), value, expected = MALFORMED[case]
    data = json.loads(sim.bundled_scenario_path("rotation_hold").read_text())
    data["duration_s"] = 0.01
    node = data
    for key in parents:
        node = node[key]
    node[last] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert cli.run(["--scenario", str(path), "--validate"]) == 1
    assert expected in capsys.readouterr().out
    out_dir = tmp_path / "out"
    assert cli.run(["--scenario", str(path), "--out", str(out_dir)]) == 1
    assert expected in capsys.readouterr().err
    assert not out_dir.exists()
    assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]


MALFORMED_MODEL = {
    # case: (path into iiwa14.json, value set there, text the report must
    # contain with {model} the model file); a path of None makes the file
    # itself: latin-1 bytes, a directory, or no file at all
    "nan_mass": (("joints", 0, "link", "mass"), float("nan"),
                 "{model}.joints[0].link.mass: must be finite"),
    "inf_armature": (("joints", 3, "armature"), float("inf"),
                     "{model}.joints[3].armature: must be finite"),
    "nan_q_min": (("joints", 2, "q_min"), float("nan"), "{model}.joints[2].q_min: must be finite"),
    "string_gravity": (("gravity",), "down", "{model}.gravity: could not convert"),
    "link_not_object": (("joints", 1, "link"), 3, "{model}.joints[1].link: expected a JSON object"),
    "joints_object": (("joints",), {}, "{model}.joints: expected a non-empty list"),
    "tool_not_object": (("tool",), 1, "{model}.tool: expected a JSON object"),
    "not_utf8": (None, '{"name": "caf\u00e9"}'.encode("latin-1"), "{model}: not UTF-8 text"),
    "directory": (None, "directory", "{model}: is a directory"),
    "missing": (None, None, "{model}: no such file or directory"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MODEL))
def test_malformed_model_is_a_config_error(case, tmp_path, capsys, monkeypatch):
    """A malformed model file is a config error like a malformed scenario:
    --validate and a run both exit 1, name the model's field or file, and
    write nothing. The scenario's limits are empty, so every bound is the
    model's own."""
    monkeypatch.chdir(tmp_path)
    keys, value, expected = MALFORMED_MODEL[case]
    model = tmp_path / "model.json"
    if keys is not None:
        data = json.loads(rbd.bundled_model_path().read_text())
        *parents, last = keys
        node = data
        for key in parents:
            node = node[key]
        node[last] = value
        model.write_text(json.dumps(data))
    elif value == "directory":
        model.mkdir()
    elif value is not None:
        model.write_bytes(value)
    scenario = json.loads(sim.bundled_scenario_path("rotation_hold").read_text())
    scenario.update(duration_s=0.01, model="model.json", limits={})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scenario))
    inputs = sorted(tmp_path.iterdir())
    expected = expected.format(model=model)
    assert cli.run(["--scenario", str(path), "--validate"]) == 1
    assert expected in capsys.readouterr().out
    out_dir = tmp_path / "out"
    assert cli.run(["--scenario", str(path), "--out", str(out_dir)]) == 1
    assert expected in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == inputs


def test_out_naming_a_file_is_a_config_error(tiny_scenario, tmp_path, capsys, monkeypatch):
    """An --out path taken by a file is reported as a config error, exit 1,
    before any run starts, and the file is left alone."""
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    monkeypatch.setattr(sim, "run_scenario", lambda *a, **kw: pytest.fail("a run started"))
    assert cli.run(["--scenario", str(tiny_scenario), "--out", str(taken)]) == 1
    assert f"error: --out {taken}: file exists" in capsys.readouterr().err
    assert taken.read_text() == "keep\n"


def test_runs_whose_outputs_would_collide_are_config_errors(tiny_scenario, tmp_path, capsys):
    """A run writes <scenario name>__<solver>.*: a second scenario file with
    the same name, or a solver named twice, would overwrite the first run's
    files. Both are config errors for --validate and a run alike, and
    nothing runs."""
    twin = tmp_path / "twin.json"
    twin.write_text(tiny_scenario.read_text())
    out_dir = tmp_path / "o"
    for args in (["--scenario", str(tiny_scenario), str(twin), "--solver", "osc"],
                 ["--scenario", str(tiny_scenario), "--solver", "dcts", "dcts", "--jobs", "2"]):
        for extra in (["--validate"], ["--out", str(out_dir)]):
            assert cli.run([*args, *extra]) == 1
            captured = capsys.readouterr()
            assert "named 'tiny'" in captured.out + captured.err
            assert "would overwrite" in captured.out + captured.err
    assert not out_dir.exists()


def test_parallel_jobs_write_the_same_traces(tiny_scenario, tmp_path):
    """--jobs runs scenarios in parallel worker processes, each with its
    solvers in lockstep; jobs carry the parsed Scenario to the workers
    unchanged, so every output file has the same bytes as with --jobs 1."""
    second = tmp_path / "second.json"
    second.write_text(tiny_scenario.read_text().replace('"tiny"', '"second"'))
    for jobs in ("1", "2"):
        assert cli.run(["--scenario", str(tiny_scenario), str(second), "--solver", "osc",
                        "dcts", "--out", str(tmp_path / jobs), "--jobs", jobs]) == 0
    names = sorted(p.name for p in (tmp_path / "1").iterdir())
    assert len(names) == 9          # trace and summary of 2 x 2 runs, and the table
    assert names == sorted(p.name for p in (tmp_path / "2").iterdir())
    for name in names:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def test_jobs_beyond_the_scenarios_start_one_worker_per_scenario(tiny_scenario, tmp_path,
                                                                monkeypatch):
    """--jobs 64 with two scenarios sizes the pool at two workers, and with
    one scenario runs in-process without a pool. The pool here is a fake
    that maps in-process, so the test starts no process."""
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    second = tmp_path / "second.json"
    second.write_text(tiny_scenario.read_text().replace('"tiny"', '"second"'))
    for scenarios, out_dir in (([tiny_scenario, second], tmp_path / "two"),
                               ([tiny_scenario], tmp_path / "one")):
        assert cli.run(["--scenario", *map(str, scenarios), "--solver", "osc",
                        "--out", str(out_dir), "--jobs", "64"]) == 0
        assert len(list(out_dir.iterdir())) == 2 * len(scenarios) + 1
    assert sizes == [2]


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize("validate", [True, False], ids=["validate", "run"])
def test_jobs_below_one_is_a_config_error(jobs, validate, tiny_scenario, tmp_path, capsys):
    """--jobs below 1 is rejected like a negative --seed: exit 1, a message
    naming the option, nothing written."""
    out_dir = tmp_path / "o"
    extra = ["--validate"] if validate else ["--out", str(out_dir)]
    assert cli.run(["--scenario", str(tiny_scenario), "--jobs", jobs, *extra]) == 1
    captured = capsys.readouterr()
    assert "--jobs" in captured.err
    assert "ok" not in captured.out
    assert not out_dir.exists()


def test_two_solver_run_loads_the_model_once(tiny_scenario, tmp_path, monkeypatch):
    loaded = []
    load_model = rbd.load_model
    monkeypatch.setattr(rbd, "load_model", lambda path: loaded.append(path) or load_model(path))
    assert cli.run(["--scenario", str(tiny_scenario), "--solver", "osc", "dcts",
                    "--out", str(tmp_path / "o")]) == 0
    assert len(loaded) == 1


def test_a_bug_during_a_run_propagates(tiny_scenario, tmp_path, monkeypatch):
    """Only a braking fallback exits 2; any other failure is a bug and is
    not reported as a solver abort."""
    def broken(*args, **kwargs):
        raise RuntimeError("broken solver")
    monkeypatch.setattr(solvers, "solve_osc_saturated", broken)
    with pytest.raises(RuntimeError, match="broken solver"):
        cli.run(["--scenario", str(tiny_scenario), "--solver", "osc",
                 "--out", str(tmp_path / "o")])


def test_readme_flags_paragraph_names_every_option_and_setting():
    """The README's Flags paragraph names exactly the parser's options and
    every SolverConfig field, so the docs cannot fall behind a settings
    change."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = next(b for b in readme.split("\n\n") if b.startswith("Flags:"))
    options = {opt for action in cli.build_parser()._actions
               for opt in action.option_strings if opt.startswith("--") and opt != "--help"}
    assert set(re.findall(r"`(--[a-z-]+)", paragraph)) == options
    for f in fields(solvers.SolverConfig):
        assert f"`{f.name}`" in paragraph, f.name


def _rotation_hold_copy(path: Path, **changes) -> Path:
    """A 20 ms copy of rotation_hold at ``path``; ``changes`` replace the
    entries of its task."""
    data = json.loads(sim.bundled_scenario_path("rotation_hold").read_text())
    data["duration_s"] = 0.02
    data["tasks"][0].update(changes)
    path.write_text(json.dumps(data))
    return path


def test_a_scenario_path_reaches_the_terminal_escaped(tmp_path, capsys):
    """The ok line and an error line that echo a scenario path holding ESC
    write it as \\x1b and send no control character but the newline."""
    path = _rotation_hold_copy(tmp_path / "a\x1bb.json")
    assert cli.run(["--scenario", str(path), "--validate"]) == 0
    ok = capsys.readouterr().out
    data = json.loads(path.read_text())
    data["limits"]["acc_min_rad_s2"] = [50.0] * 7       # min above max
    path.write_text(json.dumps(data))
    assert cli.run(["--scenario", str(path), "--validate"]) == 1
    error = capsys.readouterr().out
    assert ok == f"{tmp_path}/a\\x1bb.json: ok\n"
    assert error.startswith(f"error: {tmp_path}/a\\x1bb.json.limits: acc_min_rad_s2")
    for text in (ok, error):
        assert not [c for c in text if ord(c) < 0x20 and c != "\n"]


def test_a_step_that_overflows_the_qp_brakes_instead_of_raising(tmp_path, capsys):
    """A task damping of 1e300 passes --validate. Its level QPs have an
    equality right side near 1e298, and a step of the dual active-set solve
    overflows x; the solve ends infeasible, so the run brakes and exits 2
    (numpy still warns about the overflow)."""
    path = _rotation_hold_copy(tmp_path / "damped.json", damping=1e300)
    assert cli.run(["--scenario", str(path), "--validate"]) == 0
    assert cli.run(["--scenario", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "dcts" in capsys.readouterr().out


@pytest.mark.parametrize("solver", solvers.SOLVER_NAMES)
def test_a_payload_at_the_edge_of_its_range_runs_without_a_traceback(solver, tmp_path):
    """A 1000 kg payload at [10, -10, 10] m, the edge of the ranges
    --validate accepts, runs 20 ms with every solver and ends in an exit
    code, 0 or 2 (a braking fallback), not in an exception."""
    data = json.loads(sim.bundled_scenario_path("payload_drop").read_text())
    data["duration_s"] = 0.02
    data["events"][0].update(mass_kg=1000.0, com_offset_m=[10.0, -10.0, 10.0])
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(data))
    assert cli.run(["--scenario", str(path), "--validate"]) == 0
    argv = ["--scenario", str(path), "--solver", solver, "--out", str(tmp_path / "o")]
    assert cli.run(argv) in (0, 2)


def test_a_tiny_rotation_axis_is_the_unit_axis(tmp_path, capsys):
    """An initial_rotated axis is divided by its largest component before it
    is normalized, so [1e-300, 0, 0], whose norm underflows to 0, validates
    with no warning and gives the target rotation of [1, 0, 0] byte for
    byte."""
    target = {"type": "initial_rotated", "axis": [1e-300, 0, 0], "angle_deg": 15.0}
    path = _rotation_hold_copy(tmp_path / "tiny_axis.json", target=target)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.run(["--scenario", str(path), "--validate"]) == 0
        tiny = sim.load_scenario(path).tasks[0].target_rotation
    assert capsys.readouterr().out == f"{path}: ok\n"
    bundled = sim.load_bundled_scenario("rotation_hold")
    assert bundled.tasks[0].target_rotation.tobytes() == tiny.tobytes()
