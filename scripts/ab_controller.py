#!/usr/bin/env python3
"""In-process A/B of controller latency on the ``control_replay`` workload.

    python scripts/ab_controller.py CHECKOUT_A CHECKOUT_B [--seed N] [--rounds R] [--solver S]

Imports ``dcts`` afresh from ``CHECKOUT_A/src`` and from ``CHECKOUT_B/src``
(through ``workloads.import_dcts``, so each package is its own module tree)
and runs one ``control_replay`` cycle of each per round, in one process,
alternating which side runs first. The generator and tick loop are those of
this checkout's ``dctsbench/workloads.py``, unchanged, so both sides run the
same ticks. Prints, for solver S (``dcts`` by default), the p50 and the p95
of each side's ticks in every round, each with the round's winner. Every
round runs all four solvers, so it then prints, for each side and each
solver, p50 and p95 of the per-tick medians over all rounds, as the
benchmark takes them, with the mean QP solves per tick of S
(``diagnostics["stages"]``, for a solver that reports it), the B/A ratio of
each solver's p95 and the wins per round of S in p50 and in p95. A change
to code all solvers share is thus compared in one run. Times
are scaled to the nominal host speed with ``workloads.HostSpeed``, as the
benchmark scales them. Host speed drifts by
tens of percent over minutes; interleaving single cycles lets both sides see
the same drift, so an edit is compared in about a minute. On a shared 2-core
host two runs of the same tree still read up to about 9 % apart in p95, so a
smaller edit needs more rounds, and the benchmark's paired 30 s runs stay
the measure for a final claim.

Exits 1 if any tick of either side fails the benchmark's command checks.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "dctsbench")]

import workloads  # noqa: E402


def import_dcts(checkout: Path):
    """dcts imported afresh from ``checkout/src``."""
    src = checkout.resolve() / "src"
    sys.path.insert(0, str(src))
    try:
        return workloads.import_dcts(src)
    finally:
        sys.path.remove(str(src))


def count_stages(dcts, solver: str, stages: list) -> None:
    """Wrap solver ``solver`` of ``dcts`` to append each tick's
    ``diagnostics["stages"]`` (None when it reports none) to ``stages``."""
    name = next(span.split(".")[1] for span, s in workloads.SOLVER_SPANS.items() if s == solver)
    solve = getattr(dcts.solvers, name)

    def counted(*args, **kwargs):
        out = solve(*args, **kwargs)
        stages.append(out.diagnostics.get("stages"))
        return out

    setattr(dcts.solvers, name, counted)


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkouts", nargs=2, type=Path, metavar="CHECKOUT",
                    help="source checkouts A and B, each with a src/dcts package")
    ap.add_argument("--seed", type=int, default=29)
    ap.add_argument("--rounds", type=int, default=8)
    ap.add_argument("--solver", choices=workloads.SOLVERS, default="dcts")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    for checkout in args.checkouts:
        if not (checkout / "src" / "dcts").is_dir():
            ap.error(f"{checkout}: no src/dcts package")

    tallies = [workloads.Tally(), workloads.Tally()]
    stages = [[], []]
    names = ("A", "B")
    wins = {"p50": [0, 0], "p95": [0, 0]}
    print(f"seed {args.seed}, solver {args.solver}, {args.rounds} rounds; "
          f"A = {args.checkouts[0]}, B = {args.checkouts[1]}")
    for r in range(args.rounds):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        for k in order:
            dcts = import_dcts(args.checkouts[k])
            count_stages(dcts, args.solver, stages[k])
            tally = tallies[k]
            tally.speed = workloads.HostSpeed()
            gc.collect()            # no side inherits the other's garbage
            workloads.run_replay_cycle(dcts, workloads.setup_replay(dcts, args.seed), tally)
            # to the nominal host speed, as the benchmark scales its times
            for latency in tally.cycles[-1].latency_s.values():
                latency[:] = np.multiply(latency, tally.speed.factor()).tolist()
        line = []
        for stat, q in (("p50", 50), ("p95", 95)):
            a, b = (np.percentile(tally.cycles[-1].latency_s[args.solver], q) * 1e6
                    for tally in tallies)
            winner = "tie"
            if a != b:
                k = int(b < a)
                wins[stat][k] += 1
                winner = names[k]
            line.append(f"{stat} A {a:.0f} us, B {b:.0f} us -> {winner}")
        print(f"round {r + 1} ({names[order[0]]} first): {'; '.join(line)}", flush=True)

    code = 0
    p95 = {}
    for name, tally, counts in zip(names, tallies, stages):
        _, latency = workloads.steady_times(tally)
        counts = [c for c in counts if c is not None]
        solves = f"{np.mean(counts):.2f} QP solves per tick" if counts else "no stage count"
        print(f"{name}: per-tick medians over {len(tally.cycles)} cycles; "
              f"{args.solver}: {solves}")
        for solver in workloads.SOLVERS:
            p50, p95[name, solver] = np.percentile(latency[solver] * 1e6, [50, 95])
            print(f"  {solver}: p50 {p50:.0f} us, p95 {p95[name, solver]:.0f} us")
        if tally.failed:
            code = 1
            print(f"{name}: {tally.failed} of {tally.ticks} ticks failed", file=sys.stderr)
            for problem in tally.problems:
                print(f"  {problem}", file=sys.stderr)
    ratios = ", ".join(f"{s} {p95['B', s] / p95['A', s]:.3f}" for s in workloads.SOLVERS)
    won = "; ".join(f"{stat} A {a}, B {b}" for stat, (a, b) in wins.items())
    print(f"B/A p95: {ratios}; wins per round ({args.solver}): {won} of {args.rounds}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
