"""Command-line front end: run scenarios across solvers, write traces, compare.

Each scenario is read and checked once, and every check runs before any run
starts; ``--validate`` runs the same checks and stops there. Exit codes: 0
no tick fell back to braking, 1 a configuration error (nothing is run), 2 a
tick of some run ended in the braking fallback (infeasible or out of QP
iterations). Any other exception is a bug and propagates. Input configs are
never modified; this module writes every output file, all under --out. The
solvers of one scenario run in lockstep in one ``sim.run_scenario`` call;
``--jobs N`` runs up to N scenarios in parallel.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from pathlib import Path

from . import qpcore, rbd, sim, solvers


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dcts",
        description="Torque-level redundancy-resolution simulator: "
                    "projector OSC, QP baselines and DCTS under joint limits.")
    p.add_argument("--scenario", nargs="+", required=True, metavar="PATH",
                   help="scenario JSON file(s); 'bundled:<name>' works too")
    p.add_argument("--solver", nargs="*", default=None, metavar="NAME",
                   help=f"override solver(s) to run per scenario; "
                        f"valid: {', '.join(solvers.SOLVER_NAMES)}")
    p.add_argument("--out", default="out", metavar="DIR",
                   help="output directory for traces and summaries")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.add_argument("--no-ext-force-bounds", action="store_true",
                   help="do not offset the shaped acceleration bounds by external torques")
    p.add_argument("--dump-qp", action="store_true",
                   help="dump the QP of the last stage each dcts run decided to JSON; "
                        "it may be a bisection trial decided from its level's "
                        "feasibility limit without a solve (the other solvers write none)")
    p.add_argument("--validate", action="store_true",
                   help="check the configs as a run would, then exit without running")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel worker processes (at least 1), one scenario at a time each; "
                        "the solvers of a scenario run in lockstep in one process")
    return p


def _run_one(job) -> list[dict]:
    """Run one scenario with all its solvers in lockstep and write each
    solver's trace and summary, and with ``dump_qp`` the QP of the last stage
    its run decided; returns the summaries in solver order."""
    scenario, names, out_dir, dump_qp = job
    last_qp = {}

    def keep_last_qp(solver, tick, state, dyn, realized, out):
        last_qp[solver] = out.diagnostics.get("last_qp")

    traces = sim.run_scenario(scenario, names, keep_last_qp if dump_qp else None)
    summaries = []
    for trace in traces:
        stem = Path(out_dir) / f"{scenario.name}__{trace.solver}"
        trace.to_csv(f"{stem}.trace.csv")
        summaries.append(trace.summary())
        Path(f"{stem}.summary.json").write_text(
            json.dumps(summaries[-1], indent=2, sort_keys=True) + "\n")
        if last_qp.get(trace.solver) is not None:
            qpcore.dump_problem(last_qp[trace.solver], f"{stem}.qp.json")
    return summaries


def comparison_table(summaries: list[dict]) -> str:
    """Text table of tracking errors and limit violations per (scenario, solver)."""
    header = (f"{'scenario':<22} {'solver':<8} {'mean pos err':>13} "
              f"{'mean acc err':>13} {'viol q%':>8} {'viol v%':>8} "
              f"{'viol tau%':>9} {'sat%':>6} {'min s':>6}")
    lines = [header, "-" * len(header)]
    for s in summaries:
        lines.append(
            f"{s['scenario']:<22} {s['solver']:<8} "
            f"{s['mean_position_error']:>13.4g} "
            f"{s['mean_acceleration_error']:>13.4g} "
            f"{s['violation_pct']['q']:>8.2f} {s['violation_pct']['v']:>8.2f} "
            f"{s['violation_pct']['tau']:>9.2f} {s['saturation_pct']:>6.2f} "
            f"{s['scaling']['min']:>6.3f}")
    return "\n".join(lines) + "\n"


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.seed is not None and args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 1
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 1
    jobs, clean, runs = [], True, set()
    for ref in args.scenario:
        scenario, issues = sim.read_scenario(ref)
        if scenario is not None:
            if args.seed is not None:
                scenario.seed = args.seed
            if args.no_ext_force_bounds:
                scenario.solver_config.ext_force_in_bounds = False
            names = tuple(args.solver or [scenario.solver])
            for solver in names:
                problem = solvers.solver_error(solver, len(scenario.tasks))
                if (scenario.name, solver) in runs:
                    problem = (f"a second run named {scenario.name!r} with {solver!r} "
                               f"would overwrite the outputs of the first")
                runs.add((scenario.name, solver))
                if problem is not None:
                    issues.append(("error", f"{scenario.source}: {problem}"))
            jobs.append((scenario, names, args.out, args.dump_qp))
        # a path's control characters reach the terminal escaped
        if args.validate and not issues:
            print(rbd._escaped(f"{ref}: ok"))
        for level, msg in issues:
            print(rbd._escaped(f"{level}: {msg}"),
                  file=sys.stdout if args.validate else sys.stderr)
        clean = clean and all(level != "error" for level, _ in issues)
    if args.validate or not clean:
        return 0 if clean else 1

    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as e:        # a file in the way, or no permission
        print(f"error: --out {args.out}: {e.strerror.lower()}", file=sys.stderr)
        return 1
    # the pool starts every worker at once, so it gets no more than there are jobs
    workers = min(args.jobs, len(jobs))
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        per_job = list((pool.map if pool else map)(_run_one, jobs))
    summaries = [summary for job_summaries in per_job for summary in job_summaries]

    table = comparison_table(summaries)
    print(table, end="")
    (Path(args.out) / "comparison.txt").write_text(table)
    aborted = any(s["status_counts"]["infeasible"] + s["status_counts"]["max_iter"] > 0
                  for s in summaries)
    return 2 if aborted else 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
