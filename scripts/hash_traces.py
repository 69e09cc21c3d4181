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
"""

from __future__ import annotations

import hashlib
import sys
from importlib import resources
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src")]

from dcts import sim, solvers  # noqa: E402

SECONDS = 0.4
EVENT_START = 0.05


def trace_hashes(name: str, variant: str):
    """Yield (solver, array, sha256) for every trace array of one run."""
    scenario = sim.load_bundled_scenario(name)
    scenario.duration = SECONDS
    if variant == "early":
        for ev in scenario.events:
            ev.start = EVENT_START
    names = [s for s in solvers.SOLVER_NAMES
             if solvers.solver_error(s, len(scenario.tasks)) is None]
    for solver, trace in zip(names, sim.run_scenario(scenario, names)):
        for attr, _, _, _ in sim._COLUMNS:
            data = np.ascontiguousarray(getattr(trace, attr)).tobytes()
            yield solver, attr, hashlib.sha256(data).hexdigest()


def main() -> None:
    scenarios = sorted(p.name.removesuffix(".json")
                       for p in resources.files("dcts").joinpath("data/scenarios").iterdir()
                       if p.name.endswith(".json"))
    for name in scenarios:
        for variant in ("plain", "early"):
            for solver, attr, digest in trace_hashes(name, variant):
                print(f"{name} {variant} {solver} {attr} {digest}", flush=True)


if __name__ == "__main__":
    main()
