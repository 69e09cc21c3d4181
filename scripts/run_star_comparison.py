#!/usr/bin/env python3
"""Octagon star-path tracking: hierarchy solver vs projector baseline.

Reproduces the tracking comparison: mean path/acceleration errors and the
limit-violation bookkeeping for the constrained hierarchy solver against the
projector controller with naive torque saturation.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src")]

from dcts import cli, sim  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/star", help="trace output directory")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    scenario = sim.load_bundled_scenario("star_octagon")
    names = ("osc", "dcts")
    summaries = []
    for name, tr in zip(names, sim.run_scenario(scenario, names)):
        tr.to_csv(out / f"star__{name}.trace.csv")
        summaries.append(tr.summary())
        sat = tr.saturated.any(axis=1)
        vv = tr.viol_v.any(axis=1)
        extra = ""
        if sat.any():
            ep = sat.copy()
            for i in np.nonzero(sat)[0]:
                ep[max(0, i - 25):i + 26] = True
            extra = (f"  [{name}: {100 * vv[ep].mean():.1f}% velocity violations "
                     f"inside torque-saturated episodes]")
        print(f"{name}: done{extra}")
    print()
    print(cli.comparison_table(summaries), end="")


if __name__ == "__main__":
    main()
