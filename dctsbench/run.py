#!/usr/bin/env python3
"""dcts benchmark: closed-loop throughput and per-tick controller latency.

Run from the root of a source checkout (dcts is imported from ./src):

    python3 dctsbench/run.py --workload control_replay --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one untraced
cycle and then traced cycles, and prints the per-layer metrics. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Spans, the environment stamp and
sample counts go to ``.bench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("star_track", "event_mix", "control_replay")
SETUP_REPS_PER_CYCLE = 2
MIN_CYCLES = 3          # each tick's time is its median over the cycles
# Times and rates are reported at the nominal host speed measured by
# workloads.HostSpeed: a time is multiplied by the speed factor, a rate
# divided by it.
POWER = {"s": 1, "us": 1, "1/s": -1}
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def stamp(loadavg) -> dict:
    import numpy
    import scipy
    return {"git_sha": git_sha(ROOT), "src_sha256_16": src_digest(SRC),
            "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "loadavg_at_start": [round(v, 2) for v in loadavg]}


def measure(cycle, seconds: float, at_least: int) -> tuple[int, float]:
    """Run whole cycles, at least ``at_least``, while the next is expected to
    fit in ``seconds``; return (cycles, elapsed seconds)."""
    begin = time.perf_counter()
    done = 0
    while True:
        cycle()
        done += 1
        elapsed = time.perf_counter() - begin
        if done >= at_least and elapsed * (done + 1) / done > seconds:
            return done, elapsed


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "dcts" / "__init__.py").is_file():
        print(f"error: no dcts sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import scipy.linalg  # noqa: F401  numpy/scipy load once, outside set-up time
    import workloads as wl

    workdir = ROOT / ".bench_out" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    env = stamp(loadavg)

    setup_times = []

    def setup():
        """Import dcts afresh, load the model and generate the inputs."""
        start = time.perf_counter()
        dcts = wl.import_dcts(SRC)
        if args.workload == "control_replay":
            inputs = wl.setup_replay(dcts, args.seed)
        else:
            inputs = wl.setup_closed(dcts, SRC, args.workload, args.seed, workdir)
        setup_times.append(time.perf_counter() - start)
        return dcts, inputs

    dcts, inputs = setup()
    closed = args.workload != "control_replay"

    def cycle_fn(tally, tracer):
        if closed:
            return lambda: wl.run_closed_cycle(dcts, inputs, workdir, tally, tracer)
        return lambda: wl.run_replay_cycle(dcts, inputs, tally, tracer)

    tally = wl.Tally()
    extra = {}
    if not args.trace:
        tally.speed = wl.HostSpeed()
        # closed loops see their ticks through a small probe
        probe = wl.layer_tracer(dcts, wl.PROBE) if closed else None
        run_cycle = cycle_fn(tally, probe)

        def timed_cycle():
            run_cycle()
            if closed:
                wl.split_closed_cycle(probe, tally.cycles[-1])
            # repeat the set-up between cycles, not back to back, so that its
            # median is not taken inside one burst of host interference
            for _ in range(SETUP_REPS_PER_CYCLE):
                setup()

        with probe or contextlib.nullcontext():
            cycles, _ = measure(timed_cycle, args.seconds, MIN_CYCLES)
        rate, latency = wl.steady_times(tally)
        speed = tally.speed.factor()
        raw = end_to_end(rate, latency, statistics.median(setup_times), tally)
        metrics = {name: _m(m["value"] * speed ** POWER.get(m["unit"], 0), m["unit"])
                   for name, m in raw.items()}
        extra["host_speed"] = speed
        extra["unscaled"] = {name: m["value"] for name, m in raw.items()}
        extra["latency_samples"] = {s: len(v) * cycles for s, v in latency.items()}
    else:
        plain = wl.Tally()
        _, spent = measure(cycle_fn(plain, None), args.seconds / 3, 1)
        tracer = wl.layer_tracer(dcts, list(wl.TRACED))
        with tracer:
            cycles, _ = measure(cycle_fn(tally, tracer), args.seconds - spent, 1)
        metrics = per_layer(tracer, tally, plain)
        tally.ticks += plain.ticks
        tally.failed += plain.failed
        tally.dcts_ticks += plain.dcts_ticks
        tally.dcts_scaled += plain.dcts_scaled
        for p in plain.problems:
            tally.problem(p)
        by_layer = {}
        for name, m in metrics.items():
            if name.endswith(".us_per_tick"):
                layer = name.split(".")[0]
                by_layer[layer] = by_layer.get(layer, 0.0) + m["value"]
        extra["self_us_per_tick_by_layer"] = {k: round(v, 1) for k, v in by_layer.items()}
        spans = workdir / "spans.csv"
        tracer.write_csv(spans)
        extra["spans"] = str(spans.relative_to(ROOT))
        extra["spans_count"] = len(tracer.spans)

    if args.workload == "control_replay":
        lo, hi = wl.REPLAY["scaled_band_pct"]
        share = 100.0 * tally.dcts_scaled / max(tally.dcts_ticks, 1)
        extra["dcts_scaled_pct"] = round(share, 3)
        if not lo <= share <= hi:
            tally.problem(f"DCTS ticks needing scaling {share:.1f}% outside the band [{lo}, {hi}]%")

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "cycles": cycles, "ticks": tally.ticks, "stamp": env,
              "setup_s_reps": setup_times, "problems": tally.problems, **extra}
    (workdir / f"result-trace{args.trace}.json").write_text(
        json.dumps({**report, "metrics": metrics}, indent=1) + "\n")
    print("stamp: " + json.dumps(env, sort_keys=True))
    print("run: " + json.dumps({k: v for k, v in report.items() if k != "stamp"}))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for p in tally.problems:
        print(f"check failed: {p}")
    print(json.dumps({"correct": not tally.problems, "attempted": max(tally.ticks, 1),
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def _m(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(rate: float, latency: dict, setup_s: float, tally) -> dict:
    import numpy as np
    metrics = {"setup_s": _m(setup_s, "s"), "ticks_per_s": _m(rate, "1/s")}
    for solver in ("dcts", "osc"):
        p50, p95 = np.percentile(latency[solver] * 1e6, [50, 95])
        metrics[f"ctrl_us_p50.{solver}"] = _m(p50, "us")
        metrics[f"ctrl_us_p95.{solver}"] = _m(p95, "us")
    metrics["peak_rss_mb"] = _m(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    metrics["ok_pct"] = _m(100.0 * (tally.ticks - tally.failed) / max(tally.ticks, 1), "%")
    return metrics


def per_layer(tracer, tally, plain) -> dict:
    import workloads as wl
    from tracer import self_times
    ticks = max(tally.ticks, 1)
    totals = self_times(tracer.spans)
    metrics = {}
    for name in wl.TRACED:
        ns, calls = totals.get(name, (0, 0))
        metrics[f"{name}.us_per_tick"] = _m(ns / 1e3 / ticks, "us")
        metrics[f"{name}.calls_per_tick"] = _m(calls / ticks, "count")
    c = tracer.counts

    def ratio(num, den, scale=1.0):
        return scale * c[num] / c[den] if c[den] else 0.0

    metrics["limits.repaired_pct"] = _m(ratio("repaired", "limit_realizations", 100.0), "%")
    metrics["qpcore.iterations_per_solve"] = _m(ratio("qp_iterations", "qp_solves"), "count")
    metrics["qpcore.optimal_ratio"] = _m(ratio("qp_optimal", "qp_solves"), "ratio")
    metrics["solvers.dcts.stages_per_tick"] = _m(ratio("dcts_stages", "dcts_ticks"), "count")
    metrics["solvers.dcts.scaled_pct"] = _m(ratio("dcts_scaled", "dcts_ticks", 100.0), "%")
    metrics["solvers.fallback_pct"] = _m(ratio("fallbacks", "solver_ticks", 100.0), "%")
    traced_rate = tally.ticks / tally.busy_s
    plain_rate = plain.ticks / plain.busy_s
    metrics["trace.overhead_pct"] = _m(100.0 * (plain_rate / traced_rate - 1.0), "%")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
