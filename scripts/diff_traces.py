#!/usr/bin/env python3
"""Deviation of every trace array and controller output between two checkouts.

    python scripts/diff_traces.py CHECKOUT_A CHECKOUT_B [SEED ...]

Imports ``dcts`` afresh from ``CHECKOUT_A/src`` and from ``CHECKOUT_B/src``
and runs on both, with ``hash_traces.trace_arrays``, the runs
``hash_traces.py`` makes: each bundled scenario for 0.4 s with every solver
it accepts, as shipped ("plain") and with every event moved to 0.05 s
("early"). Prints one line per trace array: scenario, variant, solver,
array, the largest absolute deviation, the largest relative deviation
|a - b| / max(|a|, |b|) and the number of ticks whose row differs. Then the
same per solver for the controller outputs ``tau``, ``qdd``, ``s`` and
``status`` of one ``control_replay`` cycle per seed (1 and 2 by default),
the ticks ``hash_controller.py`` hashes, run by its ``run_cycle``; a
``status`` line gives only its count of changed ticks. The last lines give,
for each trace array and each controller output, the largest absolute
deviation over every run, the run it came from and the changed ticks of all
runs.

A change that moves output bytes on purpose re-records the hashes; this
table bounds how far the outputs moved.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "scripts"), str(ROOT / "dctsbench")]

import workloads  # noqa: E402
from ab_controller import import_dcts  # noqa: E402
from hash_controller import run_cycle  # noqa: E402
from hash_traces import VARIANTS, bundled_scenarios, trace_arrays  # noqa: E402

COMMANDS = ("tau", "qdd", "s", "status")


def controller_outputs(dcts, seed: int) -> dict:
    """{(solver, output): per-tick values} over one control_replay cycle."""
    outputs = {(solver, name): [] for solver in workloads.SOLVERS for name in COMMANDS}

    def recording(solver, out):
        for output in COMMANDS:
            outputs[solver, output].append(getattr(out, output))

    run_cycle(dcts, seed, recording)
    return {key: np.array(values) for key, values in outputs.items()}


def deviation(a: np.ndarray, b: np.ndarray) -> tuple[float, float, int]:
    """(largest |a - b|, largest |a - b| / max(|a|, |b|), rows that differ)
    of two arrays of one shape; the first two are NaN for arrays of strings."""
    changed = int(np.count_nonzero((a != b).reshape(len(a), -1).any(axis=1))) if len(a) else 0
    if a.dtype.kind not in "biuf":
        return float("nan"), float("nan"), changed
    a, b = a.astype(float), b.astype(float)
    diff = np.abs(a - b)
    scale = np.maximum(np.abs(a), np.abs(b))
    rel = np.divide(diff, scale, out=np.zeros_like(diff), where=scale > 0)
    return float(diff.max(initial=0.0)), float(rel.max(initial=0.0)), changed


def compare(runs_a: dict, runs_b: dict):
    """Yield (run, array, max abs, max rel, changed rows) for each array of
    each run, run by run and array by array in the order of ``runs_a``."""
    for run, arrays in runs_a.items():
        for (solver, array), a in arrays.items():
            yield (*run, solver), array, *deviation(a, runs_b[run][solver, array])


def collect(dcts, seeds: list[int]) -> dict:
    runs = {(name, variant): trace_arrays(dcts, name, variant)
            for name in bundled_scenarios(dcts) for variant in VARIANTS}
    runs.update({("control_replay", f"seed{seed}"): controller_outputs(dcts, seed)
                 for seed in seeds})
    return runs


def main(argv: list[str]) -> int:
    if len(argv) < 2 or not all((Path(c) / "src" / "dcts").is_dir() for c in argv[:2]):
        print("usage: diff_traces.py CHECKOUT_A CHECKOUT_B [SEED ...] "
              "(checkouts with a src/dcts package)", file=sys.stderr)
        return 1
    try:
        seeds = [int(a) for a in argv[2:]] or [1, 2]
    except ValueError:
        print("usage: diff_traces.py CHECKOUT_A CHECKOUT_B [SEED ...] (integer seeds)",
              file=sys.stderr)
        return 1
    runs_a, runs_b = (collect(import_dcts(Path(c)), seeds) for c in argv[:2])
    worst, changed_ticks = {}, {}
    print("scenario variant solver array max_abs max_rel changed_ticks")
    for run, array, max_abs, max_rel, changed in compare(runs_a, runs_b):
        print(*run, array, f"{max_abs:.3g}", f"{max_rel:.3g}", changed)
        key = ("controller" if run[0] == "control_replay" else "trace", array)
        if key not in worst or max_abs > worst[key][0]:
            worst[key] = (max_abs, " ".join(run) if max_abs > 0 else "-")
        changed_ticks[key] = changed_ticks.get(key, 0) + changed
    print("largest over every run: kind array max_abs run; changed ticks in all runs")
    for key, (max_abs, run) in worst.items():
        print(*key, f"{max_abs:.3g}", f"{run};", changed_ticks[key])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
