#!/usr/bin/env python3
"""External-torque bound-offset ablation on the limit-push scenario.

Runs the scripted hand-guiding push twice: once with external torques in the
shaped acceleration bounds (the framework's full form) and once without, and
reports the per-joint velocity-limit overshoot of each run.
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
    ap.add_argument("--out", default="out/limit_push", help="trace output directory")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    scenario = sim.load_bundled_scenario("limit_push")
    lset = scenario.limits
    for offsets in (True, False):
        scenario.solver_config.ext_force_in_bounds = offsets
        [tr] = sim.run_scenario(scenario, ["dcts"])
        tag = "with_offsets" if offsets else "without_offsets"
        tr.to_csv(out / f"limit_push__{tag}.trace.csv")
        v_over = 100.0 * (np.abs(tr.qd) - lset.v_max) / lset.v_max
        span = lset.c_max - lset.c_min
        q_over = 100.0 * np.maximum(tr.q - lset.c_max, lset.c_min - tr.q) / span
        print(f"{tag}:")
        print(f"  velocity overshoot per joint [% of v_max]: "
              f"{np.round(np.maximum(v_over.max(axis=0), 0.0), 2)}")
        print(f"  worst position overshoot [% of range]: "
              f"{max(q_over.max(), 0.0):.3f}")


if __name__ == "__main__":
    main()
