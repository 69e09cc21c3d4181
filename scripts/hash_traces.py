#!/usr/bin/env python3
"""SHA-256 of every trace array of every bundled scenario and solver.

Runs each bundled scenario for 0.4 s with every solver it accepts, in
lockstep, twice: as shipped ("plain") and with every event moved to start at
0.05 s ("early"). Prints one line per trace array: scenario, variant, solver,
array name and the SHA-256 of its bytes. Two checkouts whose outputs are the
same compute the same traces byte for byte, so a change that must not move
any output is checked with

    python scripts/hash_traces.py > after.txt      # in each checkout
    diff before.txt after.txt

``trace_arrays`` takes the ``dcts`` package as an argument, so
``diff_traces.py`` makes these runs on two checkouts with this code.
"""

from __future__ import annotations

import hashlib
import sys
from importlib import resources
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src")]

import dcts  # noqa: E402

SECONDS = 0.4
EVENT_START = 0.05
VARIANTS = ("plain", "early")


def bundled_scenarios(dcts) -> list[str]:
    """The names of the scenarios bundled with the package ``dcts``."""
    return sorted(p.name.removesuffix(".json")
                  for p in resources.files(dcts).joinpath("data/scenarios").iterdir()
                  if p.name.endswith(".json"))


def trace_arrays(dcts, name: str, variant: str, seconds: float = SECONDS) -> dict:
    """{(solver, array): values} of one lockstep run, by the package ``dcts``,
    of bundled scenario ``name`` with every solver it accepts, ``seconds``
    long and with every event moved to EVENT_START in the "early" variant."""
    sim, solvers = dcts.sim, dcts.solvers
    scenario = sim.load_bundled_scenario(name)
    scenario.duration = seconds
    if variant == "early":
        for ev in scenario.events:
            ev.start = EVENT_START
    names = [s for s in solvers.SOLVER_NAMES
             if solvers.solver_error(s, len(scenario.tasks)) is None]
    return {(solver, attr): getattr(trace, attr)
            for solver, trace in zip(names, sim.run_scenario(scenario, names))
            for attr, _, _, _ in sim._COLUMNS}


def main() -> None:
    for name in bundled_scenarios(dcts):
        for variant in VARIANTS:
            for (solver, attr), values in trace_arrays(dcts, name, variant).items():
                digest = hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()
                print(f"{name} {variant} {solver} {attr} {digest}", flush=True)


if __name__ == "__main__":
    main()
