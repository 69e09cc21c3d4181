"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest -q dctsbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


def _fake_module():
    """outer() calls inner() twice through the module attribute."""
    mod = types.ModuleType("fake_layer")

    def inner():
        return 1

    def outer():
        return mod.inner() + mod.inner()

    mod.inner, mod.outer = inner, outer
    return mod


def test_self_time_of_nested_calls():
    mod = _fake_module()
    ticks = iter([0, 10, 25, 40, 44, 100])      # outer start, inner, inner, outer end
    tracer = Tracer([("outer", mod, "outer"), ("inner", mod, "inner")],
                    clock=lambda: next(ticks))
    original = mod.inner
    with tracer:
        assert mod.outer() == 2
    assert mod.inner is original                 # restored on exit
    totals = self_times(tracer.spans)
    assert totals["inner"] == ((25 - 10) + (44 - 40), 2)
    assert totals["outer"] == (100 - 0 - 15 - 4, 1)
    parents = {name: parent for _sid, parent, name, *_ in tracer.spans}
    outer_id = next(sid for sid, _p, name, *_ in tracer.spans if name == "outer")
    assert parents["inner"] == outer_id and parents["outer"] == -1


def test_tracer_wraps_a_class_method_and_restores_it():
    class Box:
        def size(self):
            return 3

    tracer = Tracer([("Box.size", Box, "size")])
    with tracer:
        assert Box().size() == 3
    assert "size" in Box.__dict__ and Box.size.__name__ == "size"
    assert [s[2] for s in tracer.spans] == ["Box.size"]


def _as_text(segments):
    return [tuple(np.asarray(getattr(s, f)).tobytes() for f in ("q", "qd", "offset", "tau_ext"))
            for s in segments]


def test_generators_are_deterministic_per_seed():
    v_max = np.full(7, 2.0)
    for make in (wl.star_inputs, wl.event_mix_inputs):
        assert make(SRC, 5) == make(SRC, 5)
        assert make(SRC, 5) != make(SRC, 6)
    assert _as_text(wl.replay_inputs(5, v_max)) == _as_text(wl.replay_inputs(5, v_max))
    assert _as_text(wl.replay_inputs(5, v_max)) != _as_text(wl.replay_inputs(6, v_max))


def test_generated_inputs_stay_in_their_ranges():
    for seed in range(20):
        for data, _solvers in wl.star_inputs(SRC, seed):
            lo, hi = wl.STAR["phase_deg"]
            assert lo <= data["tasks"][0]["waypoints"]["phase_deg"] < hi
        for data, _solvers in wl.event_mix_inputs(SRC, seed):
            ev = data["events"][0]
            assert ev["start_s"] + ev["duration_s"] <= data["duration_s"] + 1e-12
        segments = wl.replay_inputs(seed, np.full(7, 2.0))
        assert sum(s.hard for s in segments) == wl.REPLAY["hard_segments"]
        assert all(np.all(np.abs(s.qd) <= wl.REPLAY["speed_share"] * 2.0 + 1e-12)
                   for s in segments)


def _names(kind):
    return {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to a few ticks."""
    monkeypatch.setitem(wl.STAR, "window_s", 0.01)
    monkeypatch.setitem(wl.STAR, "variants", 1)
    for spec in wl.EVENT_MIX.values():
        monkeypatch.setitem(spec, "window_s", 0.01)
        monkeypatch.setitem(spec, "start_s", (0.0, 0.002))
        monkeypatch.setitem(spec, "duration_s", 0.005)
        monkeypatch.setitem(spec, "ramp_s", 0.002)
    monkeypatch.setitem(wl.REPLAY, "segments", 4)
    monkeypatch.setitem(wl.REPLAY, "hard_segments", 1)
    monkeypatch.setitem(wl.REPLAY, "segment_ticks", 8)
    monkeypatch.setitem(wl.REPLAY, "pulse_ticks", (2, 4))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_prints_every_metric(tiny, capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.01",
                     "--trace", str(trace)])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == _names("per_layer" if trace else "end_to_end")
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "star_track",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
