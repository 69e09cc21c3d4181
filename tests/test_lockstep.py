"""Lockstep runs: the solvers of one scenario share the tick loop, and each
plant substep advances every solver's plant in one batched call. Each
solver's outputs must still be those of a run of that solver alone."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from dcts import sim

from test_golden import EARLY_EVENT_S, GOLDEN, WINDOW_S

# (scenario, variant) -> the solvers GOLDEN pins for it, in one run each
GROUPS: dict[tuple[str, str], list[str]] = {}
for _scenario, _solver, _variant in GOLDEN:
    GROUPS.setdefault((_scenario, _variant), []).append(_solver)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("group", sorted(GROUPS),
                         ids=lambda group: "/".join(filter(None, group)))
def test_golden_windows_in_lockstep(group, tmp_path):
    """Every golden window, run with all of its scenario's solvers in one
    call, hashes as GOLDEN records for the solver alone."""
    scenario, variant = group
    sc = sim.load_bundled_scenario(scenario)
    sc.duration = WINDOW_S
    if "early" in variant:
        sc.events[0].start = EARLY_EVENT_S
    if "no-bounds" in variant:
        sc.solver_config.ext_force_in_bounds = False
    names = GROUPS[group]
    traces = sim.run_scenario(sc, names)
    assert [trace.solver for trace in traces] == names
    for name, trace in zip(names, traces):
        path = tmp_path / f"{name}.csv"
        trace.to_csv(path)
        summary = json.dumps(trace.summary(), indent=2, sort_keys=True) + "\n"
        arrays = np.ascontiguousarray(trace.qdd).tobytes() + \
            np.ascontiguousarray(trace.tau_ext).tobytes()
        got = (_sha(path.read_bytes()), _sha(summary.encode()), _sha(arrays))
        assert got == GOLDEN[(scenario, name, variant)], name


def test_noisy_lockstep_run_equals_runs_alone():
    """With measurement noise each solver draws from its own stream seeded
    by the scenario, so a lockstep run gives every solver the bytes of a run
    of that solver alone, in every trace column."""
    sc = sim.load_bundled_scenario("push_recovery")
    sc.duration = 0.03
    sc.events[0].start = 0.01
    sc.tau_ext_noise_std = 0.5
    names = ["osc", "dcts", "qp-md"]
    for name, together in zip(names, sim.run_scenario(sc, names)):
        alone = sim.run_scenario(sc, [name])[0]
        assert together.tau_ext[:10].all()          # noise alone before the push
        for attr, *_ in sim._COLUMNS:
            assert getattr(together, attr).tobytes() == getattr(alone, attr).tobytes(), attr
