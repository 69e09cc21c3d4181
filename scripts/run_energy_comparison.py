#!/usr/bin/env python3
"""Redundancy-resolution energy comparison on the rotation-hold scenario.

Runs the 15-degree reorientation with all four controllers and prints the
task/null-space kinetic energy split and acceleration-energy effort, the
numbers behind the "which solver injects energy into the null space"
comparison. Traces land in --out for plotting.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src")]

from dcts import sim  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/energy", help="trace output directory")
    ap.add_argument("--solvers", nargs="+",
                    default=["osc", "dcts", "qp-mt", "qp-md"])
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    scenario = sim.load_bundled_scenario("rotation_hold")
    print(f"{'solver':8s} {'E_null peak':>12s} {'E_null @2s':>12s} "
          f"{'E_task peak':>12s} {'int E_acc raw':>14s} {'err end':>10s}")
    for name, tr in zip(args.solvers, sim.run_scenario(scenario, args.solvers)):
        tr.to_csv(out / f"rotation_hold__{name}.trace.csv")
        i2 = np.searchsorted(tr.t, 2.0)
        print(f"{name:8s} {tr.e_kin_null.max():12.3e} {tr.e_kin_null[i2]:12.3e} "
              f"{tr.e_kin_task.max():12.3e} "
              f"{np.trapezoid(tr.e_acc_raw, tr.t):14.1f} {tr.pos_err[-1]:10.2e}")
    column = tr.header().index("E_kin_null") + 1
    print(f"\ntraces in {out}/ (gnuplot: plot 'file.csv' using 1:{column} with lines)")


if __name__ == "__main__":
    main()
