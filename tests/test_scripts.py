"""Every script under ``scripts/`` imports from a source checkout.

Each script is imported by path in a fresh interpreter with ``PYTHONPATH``
unset and a working directory outside the checkout, so only the script's
own ``sys.path`` entry can find ``dcts``; a script that imports ``dcts``
on load must find it under the checkout's ``src``. Importing runs nothing:
each script's ``main`` sits behind its ``__main__`` guard.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_imports_from_the_checkout(script, tmp_path):
    code = ("import importlib.util, sys\n"
            f"spec = importlib.util.spec_from_file_location('script', {str(script)!r})\n"
            "spec.loader.exec_module(importlib.util.module_from_spec(spec))\n"
            "print(getattr(sys.modules.get('dcts'), '__file__', ''))\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    if run.stdout.strip():                      # the script imported dcts
        assert Path(run.stdout.strip()).is_relative_to(ROOT / "src")


def test_every_script_is_checked():
    assert {p.name for p in SCRIPTS} >= {
        "hash_traces.py", "hash_controller.py", "ab_controller.py", "diff_traces.py",
        "run_energy_comparison.py", "run_limit_push_ablation.py", "run_star_comparison.py"}


DIFF_SELF = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("diff", sys.argv[1])
diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(diff)
dcts = diff.import_dcts(diff.ROOT)
run = ("push_recovery", "early")
a, b = ({run: diff.trace_arrays(dcts, *run, seconds=0.1)} for _ in range(2))
status = diff.deviation(diff.np.array(["optimal", "x"]), diff.np.array(["optimal", "y"]))
print(json.dumps([len(a[run]), [row[2:] for row in diff.compare(a, b)], status[2]]))
"""


def test_diff_traces_reads_zero_between_two_runs_of_one_checkout():
    """diff_traces.py's comparison of a short bundled run of this checkout
    with a second run of it finds no deviation in any array; a changed
    status string counts as a changed tick."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run = subprocess.run([sys.executable, "-c", DIFF_SELF, str(ROOT / "scripts" / "diff_traces.py")],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    arrays, rows, status_changed = json.loads(run.stdout)
    assert arrays == len(rows) > 20
    assert all(row == [0.0, 0.0, 0] for row in rows)
    assert status_changed == 1


def test_ab_controller_prints_p50_and_p95_of_each_round():
    """One round of ab_controller.py with this checkout on both sides exits
    0, prints the round's p50 and p95 of solver S, each with its winner, and
    ends with the wins per round in both."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / "ab_controller.py"),
                          str(ROOT), str(ROOT), "--rounds", "1"],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    side = r"A \d+ us, B \d+ us -> (A|B|tie)"
    assert re.fullmatch(rf"round 1 \(A first\): p50 {side}; p95 {side}", lines[1])
    assert re.search(r"wins per round \(dcts\): p50 A [01], B [01]; p95 A [01], B [01] of 1$",
                     lines[-1])


def test_ab_controller_layers_prints_self_time_and_calls_per_layer():
    """One --layers round of ab_controller.py with this checkout on both
    sides exits 0, prints the round's traced self time per tick of each
    side, and one row per traced layer with both sides' self time and calls
    per tick; both sides make the same calls."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / "ab_controller.py"),
                          str(ROOT), str(ROOT), "--layers", "--rounds", "1"],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert re.fullmatch(r"round 1 \(A first\): traced self time per tick A \d+ us, B \d+ us",
                        lines[1])
    assert lines[2].split() == ["layer", "A", "us/tick", "B", "us/tick", "B/A",
                                "A", "calls/tick", "B", "calls/tick"]
    rows = {line.split()[0]: line.split()[1:] for line in lines[3:]}
    assert {"rbd.compute_dynamics", "rbd.jacobian", "limits.realize_joint_limits",
            "tasks.realize_task", "qpcore.solve"} <= set(rows)
    for a_us, b_us, _, a_calls, b_calls in rows.values():
        assert float(a_us) > 0 and float(b_us) > 0
        assert a_calls == b_calls
    assert rows["rbd.compute_dynamics"][3] == "1.000"
