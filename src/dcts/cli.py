"""Command-line front end: run scenarios across solvers, write traces, compare.

Exit codes: 0 all runs optimal at every tick, 1 configuration error,
2 a solver aborted (infeasible/max-iteration ticks ended in the braking
fallback). Input configs are never modified; everything lands under --out.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import sim, solvers

log = logging.getLogger("dcts")


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
    p.add_argument("--no-ext-force-task", action="store_true",
                   help="do not include external torques in the task constraint")
    p.add_argument("--dump-qp", action="store_true",
                   help="dump the last assembled QP of each run to JSON")
    p.add_argument("--validate", action="store_true",
                   help="validate the configs and exit without running")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel worker processes for batch runs")
    return p


def _load(path_arg: str) -> sim.Scenario:
    if path_arg.startswith("bundled:"):
        return sim.load_bundled_scenario(path_arg.split(":", 1)[1])
    return sim.load_scenario(path_arg)


def _validate_one(path_arg: str) -> list[tuple[str, str]]:
    if path_arg.startswith("bundled:"):
        path = sim.bundled_scenario_path(path_arg.split(":", 1)[1])
    else:
        path = Path(path_arg)
    if not path.exists():
        return [("error", f"{path}: no such file")]
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        return [("error", f"{path}:{e.lineno}: invalid JSON ({e.msg})")]
    return sim.validate_scenario_dict(data, source=str(path), model_dir=path.parent)


def _run_one(args_tuple):
    path_arg, solver, out_dir, seed, no_bounds, no_task, dump_qp = args_tuple
    scenario = _load(path_arg)
    if seed is not None:
        scenario.seed = seed
    stem = f"{scenario.name}__{solver}"
    dump = str(Path(out_dir) / f"{stem}.qp.json") if dump_qp else None
    trace = sim.run_scenario(scenario, solver=solver,
                             ext_force_in_bounds=not no_bounds if no_bounds else None,
                             ext_force_in_task=not no_task if no_task else None,
                             dump_qp_path=dump)
    trace.to_csv(Path(out_dir) / f"{stem}.trace.csv")
    summary = trace.summary()
    (Path(out_dir) / f"{stem}.summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


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
    logging.basicConfig(level=os.environ.get("DCTS_LOG_LEVEL", "WARNING").upper())

    if args.validate:
        clean = True
        for path_arg in args.scenario:
            issues = _validate_one(path_arg)
            if not issues:
                print(f"{path_arg}: ok")
            for level, msg in issues:
                print(f"{level}: {msg}")
                clean = clean and level != "error"
        return 0 if clean else 1

    if args.solver:
        for name in args.solver:
            if name not in solvers.SOLVER_NAMES:
                print(f"error: unknown solver {name!r}; "
                      f"valid: {', '.join(solvers.SOLVER_NAMES)}", file=sys.stderr)
                return 1

    jobs = []
    for path_arg in args.scenario:
        issues = _validate_one(path_arg)
        errors = [m for level, m in issues if level == "error"]
        if errors:
            for m in errors:
                print(f"error: {m}", file=sys.stderr)
            return 1
        scenario = _load(path_arg)
        for solver in args.solver or [scenario.solver]:
            # reject before any run starts rather than after earlier solvers
            problem = sim.task_count_error(solver, len(scenario.task_configs))
            if problem is not None:
                print(f"error: {scenario.source}: {problem}", file=sys.stderr)
                return 1
            jobs.append((path_arg, solver, args.out, args.seed,
                         args.no_ext_force_bounds, args.no_ext_force_task,
                         args.dump_qp))

    Path(args.out).mkdir(parents=True, exist_ok=True)
    summaries = []
    try:
        if args.jobs > 1:
            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                summaries = list(pool.map(_run_one, jobs))
        else:
            for job in jobs:
                log.info("running %s with %s", job[0], job[1])
                summaries.append(_run_one(job))
    except sim.ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:
        print(f"solver abort: {e}", file=sys.stderr)
        return 2

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
