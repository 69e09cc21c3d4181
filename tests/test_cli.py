from __future__ import annotations

import hashlib
import json

import pytest

from dcts import cli, qpcore, sim


@pytest.fixture
def tiny_scenario(tmp_path):
    data = json.loads(sim.bundled_scenario_path("rotation_hold").read_text())
    data["duration_s"] = 0.05
    data["name"] = "tiny"
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(data, indent=2))
    return path


def test_validate_bundled_clean(capsys):
    rc = cli.run(["--scenario", "bundled:rotation_hold", "bundled:star_octagon",
                  "--validate"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "ok" in out


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


def test_dump_qp_produces_loadable_problem(tiny_scenario, tmp_path):
    out_dir = tmp_path / "out"
    rc = cli.run(["--scenario", str(tiny_scenario), "--solver", "dcts",
                  "--out", str(out_dir), "--dump-qp"])
    assert rc == 0
    dump = out_dir / "tiny__dcts.qp.json"
    assert dump.exists()
    problem = qpcore.QpProblem.from_json(dump.read_text())
    sol = qpcore.solve(problem)
    assert sol.status == qpcore.OPTIMAL


def test_ext_force_flags_accepted(tiny_scenario, tmp_path):
    rc = cli.run(["--scenario", str(tiny_scenario), "--solver", "dcts",
                  "--out", str(tmp_path / "o"), "--no-ext-force-bounds",
                  "--no-ext-force-task"])
    assert rc == 0


def test_missing_file_is_config_error(capsys):
    rc = cli.run(["--scenario", "/nonexistent/path.json"])
    assert rc == 1
    assert "no such file" in capsys.readouterr().err


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
        sim.run_scenario(sim.load_scenario(path), solver="qp-md")
