"""Workloads of the dcts benchmark: seeded input generators, cycle runners and
output checks.

Every workload is single-process and single-threaded. A run repeats one
*cycle* — a fixed list of jobs built from the seed — so a traced run covers
whole cycles and its per-tick counts repeat exactly for a given seed.

- ``star_track``: closed loop through ``cli.run`` on generated, truncated
  copies of the bundled ``star_octagon`` with ``dcts`` and ``osc``. The plant
  substeps (``rbd``) dominate; the controller rarely needs to scale.
- ``event_mix``: closed loop through ``cli.run`` on ``push_recovery``
  (osc, dcts, qp-md), ``limit_push`` (dcts) and ``payload_drop`` (osc, dcts,
  qp-md) with jittered events; each window covers its event.
- ``control_replay``: open loop over seeded joint trajectories, calling only
  the controller pipeline (dynamics, a two-level task stack, bound shaping,
  one solver) with no plant. A fixed share of segments demands more than the
  limits allow, so a stated band of DCTS ticks needs scaling.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from tracer import Tracer, resolve

SOLVERS = ("dcts", "osc", "qp-mt", "qp-md")
SOLVER_SPANS = {"solvers.solve_dcts_multi": "dcts", "solvers.solve_osc_saturated": "osc",
                "solvers.solve_qp_mt": "qp-mt", "solvers.solve_qp_md": "qp-md"}

# Layer functions the traced run wraps, as span name -> attribute path under
# the dcts package. ``qpcore.QpProblem`` times construction (validation).
TRACED = {name: name for name in (
    "rbd.forward_dynamics", "rbd.link_transforms", "rbd.mass_matrix",
    "rbd.bias_and_gravity", "rbd.compute_dynamics", "rbd.jacobian",
    "rbd.jacobian_dot_qd", "rbd.task_dynamics", "rbd.inverse_dynamics",
    "sim.payload_observer", "sim.scripted_tau_ext", "sim.run_scenario",
    "sim.energy_metrics", "sim.Trace.to_csv", "tasks.realize_task",
    "limits.realize_joint_limits", "qpcore.solve",
    "solvers.solve_dcts_multi", "solvers.solve_osc_saturated",
    "solvers.solve_qp_mt", "solvers.solve_qp_md", "cli.run")}
TRACED["qpcore.QpProblem"] = "qpcore.QpProblem.__init__"

# A DCTS tick "needs scaling" when some task scale ends below this.
SCALED_BELOW = 1.0 - 1e-6
# Tolerances of the control_replay command checks: the QP solves to 1e-8 on
# normalized rows and DCTS backs its scale off by 1e-8.
TAU_TOL_NM = 1e-6
ACC_TOL = 1e-6

STAR = {
    "window_s": 0.15,              # far below the ~22.9 s at which the tracker coasts
    "variants": 3,
    "phase_deg": (0.0, 45.0),      # the octagon repeats every 45 deg
    "q0_jitter_rad": 0.02,         # uniform, per joint
    "solvers": ("dcts", "osc"),
}
EVENT_MIX = {
    "push_recovery": {"solvers": ("osc", "dcts", "qp-md"), "window_s": 0.15,
                      "start_s": (0.02, 0.03), "duration_s": 0.1,
                      "force_x_n": (9.0, 11.0)},
    "limit_push": {"solvers": ("dcts",), "window_s": 0.2,
                   "start_s": (0.02, 0.03), "duration_s": 0.15, "ramp_s": 0.04,
                   "amplitude_nm": (41.0, 45.0)},
    "payload_drop": {"solvers": ("osc", "dcts", "qp-md"), "window_s": 0.1,
                     "start_s": (0.0, 0.01), "mass_kg": (3.9, 4.3)},
}
REPLAY = {
    "segments": 24,
    "segment_ticks": 25,
    "hard_segments": 6,                   # chosen by the seed
    "posture_rad": 0.2,                   # centre = Q_NOMINAL +- this, per joint
    "amplitude_rad": (0.05, 0.2),
    "frequency_hz": (0.3, 1.2),
    "speed_share": 0.12,                  # amplitude*omega <= share * v_max
    "easy_offset_m": (0.005, 0.02),       # target circle radius, easy segment
    "hard_offset_m": (0.18, 0.28),        # ... hard segment: limits force scaling
    "offset_frequency_hz": (0.5, 2.0),
    "pulse_nm": (2.0, 8.0),               # joint-torque pulse on odd segments
    "pulse_ticks": (8, 20),
    "scaled_band_pct": (10.0, 40.0),      # DCTS ticks that need scaling
}
Q_NOMINAL = np.array([0.0, 0.3, 0.0, -1.5, 0.0, 1.0, 0.0])
REPLAY_ACC_LIMIT = np.array([30.0, 25.0, 60.0, 70.0, 400.0, 400.0, 600.0])
REPLAY_DT = 1e-3


def import_dcts(src: Path):
    """Import (or re-import) dcts from ``src``, dropping any cached copy."""
    for name in [m for m in sys.modules if m == "dcts" or m.startswith("dcts.")]:
        del sys.modules[name]
    pkg = importlib.import_module("dcts")
    importlib.import_module("dcts.cli")
    if Path(pkg.__file__).resolve().parent != (src / "dcts").resolve():
        raise ImportError(f"dcts imported from {pkg.__file__}, not from {src}")
    return pkg


def layer_tracer(dcts, names) -> Tracer:
    """Tracer over the given span names of ``TRACED`` plus the counters."""
    targets = [(name, *resolve(dcts, TRACED[name])) for name in names]
    return Tracer(targets, observers=_observers())


def _observers():
    def limits_obs(res, c):
        c["limit_realizations"] += 1
        c["repaired"] += bool(res.bounds.any_repaired)

    def qp_obs(res, c):
        c["qp_solves"] += 1
        c["qp_iterations"] += res.iterations
        c["qp_optimal"] += res.status == "optimal"

    def solver_obs(res, c):
        c["solver_ticks"] += 1
        c["fallbacks"] += "fallback" in res.diagnostics

    def dcts_obs(res, c):
        solver_obs(res, c)
        c["dcts_ticks"] += 1
        c["dcts_stages"] += res.diagnostics.get("stages", 0)
        c["dcts_scaled"] += ("fallback" not in res.diagnostics
                             and float(np.min(res.s)) < SCALED_BELOW)

    obs = {name: solver_obs for name in SOLVER_SPANS}
    obs["solvers.solve_dcts_multi"] = dcts_obs
    obs["limits.realize_joint_limits"] = limits_obs
    obs["qpcore.solve"] = qp_obs
    return obs


@dataclass
class CycleTimes:
    """Host times of one cycle, each list in the cycle's fixed order."""

    tick_s: list = field(default_factory=list)       # per control tick
    extra_s: list = field(default_factory=list)      # per closed-loop job, outside its ticks
    job_runs: list = field(default_factory=list)     # tracer run id of each job
    latency_s: dict = field(default_factory=lambda: {s: [] for s in SOLVERS})


class HostSpeed:
    """Times a fixed kernel of small numpy/LAPACK calls and Python object
    work, between jobs, to follow how fast the host runs during a run.

    Other tenants of a shared host change its speed by tens of percent over
    minutes. Over 30 s runs the benchmark's times follow this kernel's time
    (correlation 0.8-0.99 depending on the metric), so times scaled by
    ``factor`` compare across runs far better than raw times.
    """

    NOMINAL_S = 1.5e-3          # kernel time on the host the bounds were set on
    REPS = 5

    def __init__(self):
        a = np.random.default_rng(0).standard_normal((7, 7))
        self.m = a @ a.T + 7.0 * np.eye(7)
        self.b = np.ones(7)
        self.samples: list[float] = []

    def sample(self) -> None:
        for _ in range(self.REPS):
            start = time.perf_counter()
            for _ in range(40):
                x = cho_solve(cho_factor(self.m, lower=True), self.b)
                y = {"x": x, "mx": self.m @ x}
                [float(v) for v in y["mx"]]
            self.samples.append(time.perf_counter() - start)

    def factor(self) -> float:
        """Host speed over nominal: a time times this is the nominal-host time."""
        return self.NOMINAL_S / statistics.median(self.samples)


@dataclass
class Tally:
    """What a run measured and checked."""

    speed: HostSpeed | None = None
    ticks: int = 0
    failed: int = 0
    busy_s: float = 0.0
    problems: list = field(default_factory=list)
    cycles: list = field(default_factory=list)
    dcts_ticks: int = 0
    dcts_scaled: int = 0

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)


def _per_tick_median(rows: list) -> np.ndarray:
    """Median over cycles of each position; cycles repeat the same work."""
    width = min(len(r) for r in rows)
    return np.median(np.array([r[:width] for r in rows], dtype=float), axis=0)


def steady_times(tally: Tally) -> tuple[float, dict]:
    """(ticks per second, per-solver tick latencies) with each tick's time
    taken as its median over the run's cycles, so that a burst of host
    interference during one cycle does not move the result."""
    cycles = tally.cycles
    tick = _per_tick_median([c.tick_s for c in cycles])
    extra = _per_tick_median([c.extra_s for c in cycles]) if cycles[0].extra_s else np.zeros(0)
    latency = {s: _per_tick_median([c.latency_s[s] for c in cycles])
               for s in SOLVERS if cycles[0].latency_s[s]}
    return len(tick) / (tick.sum() + extra.sum()), latency


# ---------------------------------------------------------------------------
# closed loops through cli.run


@dataclass
class Job:
    path: Path
    scenario: str
    solvers: tuple
    window_ticks: int

    @property
    def ticks(self) -> int:
        return self.window_ticks * len(self.solvers)


def _bundled(src: Path, name: str) -> dict:
    return json.loads((src / "dcts" / "data" / "scenarios" / f"{name}.json").read_text())


def star_inputs(src: Path, seed: int) -> list[tuple[dict, tuple]]:
    """Truncated star_octagon copies: seeded octagon phase and q0."""
    rng = np.random.default_rng([seed, 1])
    base = _bundled(src, "star_octagon")
    out = []
    for i in range(STAR["variants"]):
        data = json.loads(json.dumps(base))
        data["name"] = f"star-{i}"
        data["duration_s"] = STAR["window_s"]
        data["tasks"][0]["waypoints"]["phase_deg"] = float(rng.uniform(*STAR["phase_deg"]))
        jitter = rng.uniform(-1.0, 1.0, len(data["q0_rad"])) * STAR["q0_jitter_rad"]
        data["q0_rad"] = [float(v) for v in np.asarray(data["q0_rad"]) + jitter]
        out.append((data, STAR["solvers"]))
    return out


def event_mix_inputs(src: Path, seed: int) -> list[tuple[dict, tuple]]:
    """push_recovery, limit_push and payload_drop with jittered events."""
    rng = np.random.default_rng([seed, 2])
    out = []
    for name, spec in EVENT_MIX.items():
        data = _bundled(src, name)
        data["name"] = name.replace("_", "-")
        data["duration_s"] = spec["window_s"]
        ev = data["events"][0]
        ev["start_s"] = float(rng.uniform(*spec["start_s"]))
        if name == "push_recovery":
            ev["duration_s"] = spec["duration_s"]
            ev["force_n"] = [float(rng.uniform(*spec["force_x_n"])), 0.0, 0.0]
        elif name == "limit_push":
            ev["duration_s"] = spec["duration_s"]
            ev["ramp_s"] = spec["ramp_s"]
            ev["amplitude_nm"] = float(rng.uniform(*spec["amplitude_nm"]))
        else:
            ev["duration_s"] = spec["window_s"] - ev["start_s"]     # on to the window's end
            ev["mass_kg"] = float(rng.uniform(*spec["mass_kg"]))
        out.append((data, spec["solvers"]))
    return out


def setup_closed(dcts, src: Path, workload: str, seed: int, workdir: Path) -> list[Job]:
    """Write the generated scenario files and load each once."""
    make = star_inputs if workload == "star_track" else event_mix_inputs
    inputs = workdir / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    jobs = []
    for data, solver_names in make(src, seed):
        path = inputs / f"{data['name']}.json"
        path.write_text(json.dumps(data, indent=1))
        scenario = dcts.sim.load_scenario(path)
        ticks = int(round(scenario.duration / scenario.control_dt))
        jobs.append(Job(path, scenario.name, tuple(solver_names), ticks))
    return jobs


def run_closed_cycle(dcts, jobs: list[Job], workdir: Path, tally: Tally,
                     tracer: Tracer | None = None) -> None:
    out_dir = workdir / "out"
    cycle = CycleTimes()
    tally.cycles.append(cycle)
    for job in jobs:
        if tally.speed is not None:
            tally.speed.sample()
        stems = [out_dir / f"{job.scenario}__{s}" for s in job.solvers]
        for stem in stems:
            for suffix in (".trace.csv", ".summary.json"):
                stem.with_name(stem.name + suffix).unlink(missing_ok=True)
        if tracer is not None:
            tracer.run += 1
            cycle.job_runs.append(tracer.run)
        argv = ["--scenario", str(job.path), "--solver", *job.solvers, "--out", str(out_dir)]
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = dcts.cli.run(argv)
        except (Exception, SystemExit) as exc:      # a raising run is a failed run
            code = f"raised {type(exc).__name__}: {exc}"
        cycle.extra_s.append(time.perf_counter() - start)
        tally.busy_s += cycle.extra_s[-1]
        tally.ticks += job.ticks
        problems = _check_closed(job, stems, code)
        for p in problems:
            tally.problem(p)
        if problems:
            tally.failed += job.ticks


def _check_closed(job: Job, stems: list[Path], code) -> list[str]:
    """Exit code 0, a finite full-length trace, every tick optimal or
    degraded, and no torque or velocity violation for DCTS."""
    if code != 0:
        return [f"{job.scenario}: cli.run returned {code}"]
    problems = []
    for solver, stem in zip(job.solvers, stems):
        where = f"{job.scenario}/{solver}"
        try:
            summary = json.loads(stem.with_name(stem.name + ".summary.json").read_text())
            rows = np.loadtxt(stem.with_name(stem.name + ".trace.csv"), delimiter=",",
                              skiprows=1, ndmin=2)
        except (OSError, ValueError) as exc:
            problems.append(f"{where}: unreadable output ({exc})")
            continue
        if rows.shape[0] != job.window_ticks or not np.all(np.isfinite(rows)):
            problems.append(f"{where}: trace has {rows.shape[0]} rows or non-finite values")
        counts = summary["status_counts"]
        bad = counts["infeasible"] + counts["max_iter"]
        if bad:
            problems.append(f"{where}: {bad} ticks ended infeasible/max_iter")
        viol = summary["violation_pct"]
        if solver == "dcts" and (viol["v"] > 0 or viol["tau"] > 0):
            problems.append(f"{where}: velocity/torque violations {viol}")
    return problems


PROBE = ("rbd.compute_dynamics", "sim.run_scenario", *SOLVER_SPANS)


def split_closed_cycle(probe: Tracer, cycle: CycleTimes) -> None:
    """Split the cycle's job times into ticks using the probe's spans, then
    drop the spans.

    A tick runs from the start of its ``compute_dynamics`` call to the start
    of the next tick (the last one to the end of ``run_scenario``); its
    controller latency ends when its solver call returns. What a job spends
    outside its ticks (validation, loading, trace writing) stays in
    ``extra_s``.
    """
    in_ticks: dict[int, float] = {}
    tick_start = None
    starts = []
    for _sid, _parent, name, start, end, run in probe.spans:
        if name == "rbd.compute_dynamics":
            tick_start = start
        elif name in SOLVER_SPANS:
            cycle.latency_s[SOLVER_SPANS[name]].append((end - tick_start) * 1e-9)
            starts.append(tick_start)
        elif name == "sim.run_scenario":
            bounds = starts + [end]
            ticks = [(b - a) * 1e-9 for a, b in zip(bounds, bounds[1:])]
            cycle.tick_s.extend(ticks)
            in_ticks[run] = in_ticks.get(run, 0.0) + sum(ticks)
            starts = []
    for j, run in enumerate(cycle.job_runs):
        cycle.extra_s[j] -= in_ticks.get(run, 0.0)
    probe.spans.clear()


# ---------------------------------------------------------------------------
# open-loop controller replay


@dataclass
class Segment:
    q: np.ndarray          # (T, n)
    qd: np.ndarray         # (T, n)
    offset: np.ndarray     # (T, 3) target offset from the tool position [m]
    tau_ext: np.ndarray    # (T, n) joint-torque pulse [N m]
    hard: bool


def replay_inputs(seed: int, v_max: np.ndarray) -> list[Segment]:
    """Smooth sinusoidal joint trajectories around an interior posture.

    ``hard_segments`` of them get a target circle far beyond what the
    acceleration and torque limits allow; odd segments carry a joint-torque
    pulse passed to the controllers as tau_ext.
    """
    p = REPLAY
    rng = np.random.default_rng([seed, 3])
    n = len(v_max)
    hard = set(rng.choice(p["segments"], p["hard_segments"], replace=False).tolist())
    t = np.arange(p["segment_ticks"]) * REPLAY_DT
    segments = []
    for k in range(p["segments"]):
        centre = Q_NOMINAL + rng.uniform(-p["posture_rad"], p["posture_rad"], n)
        omega = 2.0 * math.pi * rng.uniform(*p["frequency_hz"], n)
        amp = np.minimum(rng.uniform(*p["amplitude_rad"], n), p["speed_share"] * v_max / omega)
        phase = rng.uniform(0.0, 2.0 * math.pi, n)
        arg = omega * t[:, None] + phase
        radius = rng.uniform(*p["hard_offset_m" if k in hard else "easy_offset_m"])
        w_off = 2.0 * math.pi * rng.uniform(*p["offset_frequency_hz"])
        phi = rng.uniform(0.0, 2.0 * math.pi)
        offset = np.stack([np.zeros_like(t), radius * np.cos(w_off * t + phi),
                           radius * np.sin(w_off * t + phi)], axis=1)
        tau_ext = np.zeros((len(t), n))
        if k % 2 == 1:
            joint = rng.integers(0, n)
            first = rng.integers(0, len(t) // 2)
            tau_ext[first:first + rng.integers(*p["pulse_ticks"]), joint] = rng.uniform(*p["pulse_nm"])
        segments.append(Segment(q=centre + amp * np.sin(arg), qd=amp * omega * np.cos(arg),
                                offset=offset, tau_ext=tau_ext, hard=k in hard))
    return segments


@dataclass
class Replay:
    model: object
    limit_set: object
    cfg: object
    segments: list
    specs: list            # per segment: [tool_pos spec, tool_rot_xy spec]


def setup_replay(dcts, seed: int) -> Replay:
    rbd, tasks = dcts.rbd, dcts.tasks
    model = rbd.load_bundled_model()
    lset = dcts.limits.limit_set(model.q_min, model.q_max, model.v_min, model.v_max,
                                 -REPLAY_ACC_LIMIT, REPLAY_ACC_LIMIT, REPLAY_DT, 0.2)
    segments = replay_inputs(seed, model.v_max)
    specs = []
    for seg in segments:
        T0 = rbd.link_transforms(model, seg.q[0])[model.tool_frame]
        pose = dict(target_position=T0[:3, 3].copy(), target_rotation=T0[:3, :3].copy())
        specs.append([
            tasks.TaskSpec(priority=1, mode="impedance", selector="tool_pos",
                           stiffness=400.0 * np.eye(3), damping=40.0 * np.eye(3),
                           name="tool-target", **pose),
            tasks.TaskSpec(priority=2, mode="impedance", selector="tool_rot_xy",
                           stiffness=200.0 * np.eye(2), damping=28.0 * np.eye(2),
                           name="hold-orientation", **pose)])
    return Replay(model, lset, dcts.solvers.SolverConfig(), segments, specs)


def run_replay_cycle(dcts, rp: Replay, tally: Tally, tracer: Tracer | None = None) -> None:
    """Every segment through every solver, one controller tick per sample.

    ``osc``, ``qp-mt`` and ``qp-md`` get the priority-1 task only; bound
    shaping runs for the solvers that take limits (as in ``sim.run_scenario``).
    """
    rbd, tasks, limits, solvers = dcts.rbd, dcts.tasks, dcts.limits, dcts.solvers
    model, lset, cfg = rp.model, rp.limit_set, rp.cfg
    tool = model.tool_frame
    clock = time.perf_counter
    cycle = CycleTimes()
    tally.cycles.append(cycle)
    for solver in SOLVERS:
        lat = cycle.latency_s[solver]
        for seg, specs in zip(rp.segments, rp.specs):
            if tally.speed is not None:
                tally.speed.sample()
            if tracer is not None:
                tracer.run += 1
            has_ext = seg.tau_ext.any(axis=1)
            done = 0
            try:
                for i in range(len(seg.q)):
                    start = clock()
                    state = rbd.JointState(seg.q[i], seg.qd[i])
                    dyn = rbd.compute_dynamics(model, state)
                    specs[0].target_position = dyn.transforms[tool][:3, 3] + seg.offset[i]
                    realized = [tasks.realize_task(sp, dyn) for sp in specs]
                    tau_ext = seg.tau_ext[i] if has_ext[i] else None
                    limit_real = None
                    if solver == "dcts":
                        limit_real = limits.realize_joint_limits(
                            lset, state.q, state.qd,
                            None if tau_ext is None else dyn.minv(tau_ext))
                        out = solvers.solve_dcts_multi(model, state, realized, limit_real,
                                                       tau_ext, cfg, dyn)
                    elif solver == "osc":
                        limit_real = limits.realize_joint_limits(lset, state.q, state.qd)
                        out = solvers.solve_osc_saturated(model, state, realized[0],
                                                          limit_real, tau_ext, cfg, dyn)
                    elif solver == "qp-mt":
                        out = solvers.solve_qp_mt(model, state, realized[0], cfg=cfg, dyn=dyn)
                    else:
                        out = solvers.solve_qp_md(model, state, realized[0], cfg=cfg, dyn=dyn)
                    elapsed = clock() - start
                    done += 1
                    lat.append(elapsed)
                    cycle.tick_s.append(elapsed)
                    tally.busy_s += elapsed
                    tally.ticks += 1
                    problem = _check_command(model, solver, out, limit_real)
                    if problem is not None:
                        tally.failed += 1
                        tally.problem(f"{solver} tick {i}: {problem}")
                    if solver == "dcts":
                        tally.dcts_ticks += 1
                        tally.dcts_scaled += bool(float(np.min(out.s)) < SCALED_BELOW)
            except Exception as exc:                 # a raising replay fails its remaining ticks
                rest = len(seg.q) - done
                tally.ticks += rest
                tally.failed += rest
                tally.problem(f"{solver}: raised {type(exc).__name__}: {exc}")


def _check_command(model, solver: str, out, limit_real) -> str | None:
    """A tick fails unless it ended optimal or degraded with a finite command
    inside the torque limits; DCTS also keeps the shaped acceleration bounds
    and every scale in [0, 1]."""
    if out.status not in ("optimal", "degraded"):
        return f"status {out.status}"
    tau = out.tau
    if not np.all(np.isfinite(tau)):
        return "non-finite torque"
    over = max(float(np.max(tau - model.tau_max)), float(np.max(model.tau_min - tau)))
    if over > TAU_TOL_NM:
        return f"torque limit exceeded by {over:.3g} N m"
    if solver == "dcts":
        b = limit_real.bounds
        over = max(float(np.max(out.qdd - b.acc_max)), float(np.max(b.acc_min - out.qdd)))
        if over > ACC_TOL:
            return f"shaped acceleration bound exceeded by {over:.3g} rad/s^2"
        if np.any(out.s < 0.0) or np.any(out.s > 1.0):
            return f"task scale {out.s} outside [0, 1]"
    return None
