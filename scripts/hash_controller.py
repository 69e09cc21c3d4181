#!/usr/bin/env python3
"""SHA-256 of every controller output of the ``control_replay`` benchmark ticks.

    python scripts/hash_controller.py [SEED ...]       # seeds 1 and 2 by default

For each seed, runs one cycle of the ``control_replay`` workload (its
generator and tick loop are imported from ``dctsbench/workloads.py``,
unchanged): every segment through all four solvers, one controller tick per
sample, no plant. Prints one line per (seed, solver): the seed, the solver,
the SHA-256 over ``tau``, ``qdd``, ``s``, ``status`` and every diagnostics
entry of every tick, with ``last_qp`` as its JSON, a second SHA-256 over
the same ticks without the solve counts ``stages`` and ``qp_iterations``,
and a third over the commands alone: ``tau``, ``qdd``, ``s`` and ``status``.
Two checkouts whose controllers compute the same bytes print the same lines,
so a change that must not move any controller output is checked with

    python scripts/hash_controller.py > after.txt      # in each checkout
    diff before.txt after.txt

A change that only drops solves keeps the second column of every line, and
one that only adds or drops diagnostics keeps the third. ``run_cycle``
hands each tick's output to a callback; ``diff_traces.py`` records the
commands of two checkouts with it.

Exits 1 if any tick fails the benchmark's command checks.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "dctsbench")]

import workloads  # noqa: E402

# function of dcts.solvers -> solver name, as the benchmark times them
SOLVER_FUNCTIONS = {span.split(".")[1]: solver for span, solver in workloads.SOLVER_SPANS.items()}


def _feed(h, value) -> None:
    """Hash one diagnostics value with its type, so no two layouts collide."""
    h.update(type(value).__name__.encode())
    if hasattr(value, "to_json"):                     # qpcore.QpProblem
        h.update(value.to_json().encode())
    elif isinstance(value, np.ndarray):
        h.update(f"{value.dtype} {value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, dict):
        for key in sorted(value):
            h.update(repr(key).encode())
            _feed(h, value[key])
    elif isinstance(value, (list, tuple)):
        h.update(str(len(value)).encode())
        for item in value:
            _feed(h, item)
    else:
        h.update(repr(value).encode())


# the diagnostics that count solves, which the second hash leaves out
SOLVE_COUNTS = ("stages", "qp_iterations")


def run_cycle(dcts, seed: int, on_output) -> workloads.Tally:
    """Run one control_replay cycle of the package ``dcts``, handing each
    tick's ``ControlOutput`` to ``on_output(solver, output)``, and return the
    cycle's tally. The ``dcts.solvers`` functions are restored afterwards."""
    solvers = dcts.solvers
    originals = {name: getattr(solvers, name) for name in SOLVER_FUNCTIONS}

    def handing(name):
        def call(*args, **kwargs):
            out = originals[name](*args, **kwargs)
            on_output(SOLVER_FUNCTIONS[name], out)
            return out
        return call

    tally = workloads.Tally()
    try:
        for name in SOLVER_FUNCTIONS:
            setattr(solvers, name, handing(name))
        workloads.run_replay_cycle(dcts, workloads.setup_replay(dcts, seed), tally)
    finally:
        for name, fn in originals.items():
            setattr(solvers, name, fn)
    return tally


def controller_hashes(dcts, seed: int) -> tuple[dict, workloads.Tally]:
    """{solver: (sha256, sha256 without the solve counts, sha256 of the
    commands alone)} over one control_replay cycle, and the cycle's tally."""
    hashes = {solver: tuple(hashlib.sha256() for _ in range(3))
              for solver in workloads.SOLVERS}

    def hashing(solver, out):
        rest = {k: v for k, v in out.diagnostics.items() if k not in SOLVE_COUNTS}
        commands = [np.asarray(arr) for arr in (out.tau, out.qdd, out.s)] + [out.status]
        for h, diagnostics in zip(hashes[solver], ([out.diagnostics], [rest], [])):
            for value in commands + diagnostics:
                _feed(h, value)

    tally = run_cycle(dcts, seed, hashing)
    return {solver: tuple(h.hexdigest() for h in hs) for solver, hs in hashes.items()}, tally


def main(argv: list[str]) -> int:
    try:
        seeds = [int(a) for a in argv] or [1, 2]
    except ValueError:
        print("usage: hash_controller.py [SEED ...] (integer seeds)", file=sys.stderr)
        return 1
    dcts = workloads.import_dcts(ROOT / "src")
    code = 0
    for seed in seeds:
        digests, tally = controller_hashes(dcts, seed)
        for solver, columns in digests.items():
            print(seed, solver, *columns, flush=True)
        if tally.failed:
            code = 1
            print(f"seed {seed}: {tally.failed} of {tally.ticks} ticks failed", file=sys.stderr)
            for problem in tally.problems:
                print(f"  {problem}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
