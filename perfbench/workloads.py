"""Workloads, seeded inputs and the correctness gate of the benchmark.

Every workload is a closed loop with one client: the next MPC step is
issued only after the previous one returned.  The program sees only the
generated `Scenario` / `PlatoonState` inputs; the seed stays here.

- p1-brake: horizon 1, the brake-and-recover scenario of acceptance
  criteria 1, 4 and 5, on the three presets in turn.  Warm-started
  convex rounds on the kernel's free path; no p > 1 stage runs.
- p5-burst: horizon 5, `small` preset, a seeded brake-and-recover burst
  after criterion 12's (-a for 4 steps, +a/2 for 8, a near 2 m/s^2).
  Dominated by the loss-free warm start and the box-only warm-up.
- p1-cold: single horizon-1 steps from seeded random feasible states on
  freshly formulated agents, presets in turn.  Active safety rows push
  the kernel off its free path; this is also the recursive-feasibility
  probe.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("p1-brake", "p5-burst", "p1-cold")
HORIZON = {"p1-brake": 1, "p5-burst": 5, "p1-cold": 1}
CLOSED_LOOP = ("p1-brake", "p5-burst")
PRESETS = ("small", "medium", "large")
# later gain claims must also hold on this seed, which was not used
# while the baseline was taken
HELD_OUT_SEED = 7919
# criterion 4's limit on the mean relative error against the
# centralized one-step solve
REL_ERR_LIMIT = 5e-3
BURST_STEPS = 16


@dataclass
class Size:
    """Problem size of a run; the self-test shrinks it."""

    n: int = 10
    brake_steps: int = 150
    replay_steps: dict = field(default_factory=lambda: {
        "p1-brake": 20, "p5-burst": 2, "p1-cold": 1})


@dataclass
class Step:
    """One issued MPC step that returned a plan."""

    step_id: int
    preset: str
    state: object
    plan: np.ndarray
    seconds: float
    counters: tuple
    feasible: bool
    applied: bool


@dataclass
class RunLog:
    """What a run did."""

    steps: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)


class _Stop(Exception):
    """Ends a closed loop from inside the step once the budget is spent."""


class Budget:
    """When a run stops issuing steps: after `seconds` of timed phase or
    `max_steps` steps, whichever comes first.  Between two steps it calls
    `pause` (if given) once every `every` seconds; the time that takes is
    left out of the timed phase."""

    def __init__(self, seconds: float, max_steps: int, pause=None,
                 every: float = float("inf")) -> None:
        self.max_steps = max_steps
        self.pause = pause
        self.every = every
        self.start = time.perf_counter()
        self.deadline = self.start + seconds
        self.next_pause = self.start + every
        self.paused = 0.0

    def spent(self, attempted: int) -> bool:
        if attempted >= self.max_steps:
            return True
        now = time.perf_counter()
        if self.pause is not None and self.next_pause <= now < self.deadline:
            self.pause()
            took = time.perf_counter() - now
            self.paused += took
            self.deadline += took
            now += took
            self.next_pause = now + self.every
        return now >= self.deadline

    def elapsed(self) -> float:
        """Seconds of timed phase so far, pauses left out."""
        return time.perf_counter() - self.start - self.paused


def counters(diag) -> tuple:
    """The deterministic counters of one step."""
    return (diag.prox_calls, diag.inner_iters, diag.lin_rounds,
            diag.warm_rounds, diag.outer_iters, diag.guard_rounds,
            diag.messages)


# ---------------------------------------------------------------------------
# seeded inputs; each generator yields (preset name, input) without end

def brake_episodes(mods, seed: int, size: Size):
    """The criterion scenario on small, medium and large in turn.  The
    inputs are fixed: every seed gets the same step mix, so the run's
    median does not depend on which preset a seed happens to start on."""
    scen = mods.loop.brake_scenario(size.brake_steps)
    while True:
        for preset in PRESETS:
            yield preset, scen


def burst_episodes(mods, seed: int, size: Size):
    """Brake-and-recover bursts from cruise at 25 m/s: onset after 1 or 2
    cruise steps, -a for 4 steps, then +a/2 for 8 steps, which brings the
    leader back to 25 m/s, then cruise.  a = 2 m/s^2 scaled by up to 2%:
    the kernel path taken at the recovery steps, which costs up to 5x a
    plain step, is sensitive to the amplitude, and a run holds only about
    twenty steps, so a wider jitter would make the run median depend on
    the seed."""
    rng = np.random.default_rng([seed, 5])
    while True:
        onset = int(rng.integers(1, 3))
        amp = 2.0 * float(rng.uniform(0.98, 1.02))
        u0 = np.zeros(BURST_STEPS)
        u0[onset:onset + 4] = -amp
        u0[onset + 4:onset + 12] = amp / 2.0
        yield "small", mods.loop.Scenario("burst", u0)


def cold_inputs(mods, seed: int, size: Size):
    """Random feasible states with a leader control drawn from the part
    of the leader box that keeps the leader inside the speed band."""
    rng = np.random.default_rng([seed, 1])
    k = seed % len(PRESETS)
    while True:
        preset = PRESETS[k]
        cfg = mods.presets.platoon_preset(preset, n=size.n)
        while True:
            state = mods.platoon.random_feasible_state(cfg, rng)
            v0 = float(state.v[0])
            lo = max(cfg.leader.accel_min, (cfg.speed_min - v0) / cfg.tau)
            hi = min(cfg.leader.accel_max, (cfg.speed_max - v0) / cfg.tau)
            state.u0 = float(rng.uniform(lo, hi))
            if mods.platoon.is_feasible_state(cfg, state):
                break
        k = (k + 1) % len(PRESETS)
        yield preset, state


# ---------------------------------------------------------------------------
# drivers

class Problems:
    """Preset, weights and structural matrices per preset name."""

    def __init__(self, mods, p: int, n: int):
        self.mods, self.p, self.n = mods, p, n
        self._cache = {}

    def __call__(self, preset: str):
        if preset not in self._cache:
            m = self.mods
            self._cache[preset] = (
                m.presets.platoon_preset(preset, n=self.n),
                m.presets.weight_preset(preset, self.p, n=self.n),
                m.assembly.build_structural(self.n, self.p))
        return self._cache[preset]


def _solver_errors(mods):
    return (mods.loop.SimulationError, mods.solver.WarmStartError,
            mods.convex.QcqpInfeasibleError)


def closed_loop(mods, episodes, problems: Problems, options, log: RunLog,
                budget: Budget, tracer=None) -> None:
    """Run `simulate` over the episodes until the budget is spent.  The
    budget is checked before each step by a wrapper around the solve_mpc
    binding that simulate calls, which also times and records every
    step.  An aborted episode counts its failing step and
    all its remaining steps as failed; the next episode starts afresh."""
    solve = mods.loop.solve_mpc

    def step(agents, options=None, state=None):
        if budget.spent(log.attempted):
            raise _Stop
        sid = log.attempted
        log.attempted += 1
        if tracer is not None:
            tracer.step_id = sid
        before = state.copy()
        t0 = time.perf_counter()
        res = solve(agents, options, state=state)
        seconds = time.perf_counter() - t0
        feasible = bool(res.diagnostics.feasible)
        log.steps.append(Step(sid, preset, before, res.u_plan.copy(),
                              seconds, counters(res.diagnostics),
                              feasible, feasible))
        return res

    mods.loop.solve_mpc = step
    try:
        for preset, scen in episodes:
            cfg, weights, _ = problems(preset)
            first = log.attempted
            if tracer is not None:
                tracer.step_id = first
            try:
                mods.loop.simulate(cfg, weights, scen, options=options)
            except _Stop:
                break
            except _solver_errors(mods) as err:
                issued = log.attempted - first
                if log.steps and log.steps[-1].step_id == log.attempted - 1:
                    log.steps[-1].applied = False
                log.failed += 1 + scen.steps - issued
                log.attempted += scen.steps - issued
                log.errors.append(f"{preset} step {issued - 1}: {err}")
    finally:
        mods.loop.solve_mpc = solve


def cold_steps(mods, inputs, problems: Problems, options, log: RunLog,
               budget: Budget, tracer=None) -> None:
    """One step per generated state, each on freshly formulated agents."""
    for preset, state in inputs:
        if budget.spent(log.attempted):
            break
        sid = log.attempted
        log.attempted += 1
        if tracer is not None:
            tracer.step_id = sid
        cfg, weights, _ = problems(preset)
        try:
            agents = mods.solver.formulate_local(cfg, weights, state)
            t0 = time.perf_counter()
            res = mods.solver.solve_mpc(agents, options, state=state)
            seconds = time.perf_counter() - t0
        except _solver_errors(mods) as err:
            log.failed += 1
            log.errors.append(f"{preset} step {sid}: {err}")
        else:
            feasible = bool(res.diagnostics.feasible)
            log.failed += not feasible
            log.steps.append(Step(sid, preset, state.copy(),
                                  res.u_plan.copy(), seconds,
                                  counters(res.diagnostics), feasible,
                                  feasible))


def drive(mods, workload: str, seed: int, size: Size, options,
          log: RunLog, budget: Budget, tracer=None):
    problems = Problems(mods, HORIZON[workload], size.n)
    if workload in CLOSED_LOOP:
        gen = brake_episodes if workload == "p1-brake" else burst_episodes
        closed_loop(mods, gen(mods, seed, size), problems, options, log,
                    budget, tracer)
    else:
        cold_steps(mods, cold_inputs(mods, seed, size), problems, options,
                   log, budget, tracer)
    return problems


# ---------------------------------------------------------------------------
# correctness gate

def gate(mods, log: RunLog, problems: Problems, options) -> tuple[dict, dict]:
    """Checks on the recorded steps.  Returns {check: (ok, detail)} and
    the quality numbers computed on the way (plan_rel_err for p = 1,
    gap_dev_max_m for the closed loops).

    solve_mpc flags its own plan feasible with this same plan_violation
    call, and the drivers apply only flagged plans, so the plan and state
    checks cross-check the program's flag and its dynamics: they fail
    when the flag disagrees with the recomputed violation, on any
    recorded step, or when an applied plan or a visited state is
    infeasible.  A step the program itself reports infeasible counts as
    failed (ok_step_share) and does not make the run incorrect."""
    checks = {}
    applied = [s for s in log.steps if s.applied]
    worst = 0.0
    bad_plans = 0
    disagree = 0
    bad_states = 0
    gap_dev = 0.0
    for s in log.steps:
        cfg, _, struct = problems(s.preset)
        viol = mods.solver.plan_violation(cfg, s.state, s.plan, struct)
        disagree += (viol <= options.feas_tol) != s.feasible
        bad_states += not mods.platoon.is_feasible_state(cfg, s.state)
        if s.applied:
            worst = max(worst, viol)
            bad_plans += viol > options.feas_tol
            gap_dev = max(gap_dev, float(np.max(np.abs(
                s.state.spacing_error(cfg.gap)))))
    checks["plan_violation"] = (
        bad_plans == 0 and disagree == 0,
        f"{bad_plans} of {len(applied)} applied plans above feas_tol "
        f"{options.feas_tol:.0e}, worst {worst:.3e}; solver flag disagrees "
        f"on {disagree} of {len(log.steps)} steps")
    checks["feasible_states"] = (
        bad_states == 0, f"{bad_states} of {len(log.steps)} states fail "
                         "is_feasible_state")
    quality = {"gap_dev_max_m": gap_dev}
    if problems.p == 1:
        errs = []
        misses = []
        for s in applied:
            cfg, weights, struct = problems(s.preset)
            ref = mods.solver.solve_centralized_p1(cfg, weights, s.state)
            scale = float(np.linalg.norm(ref))
            if scale <= 1e-9:
                continue
            err = float(np.linalg.norm(s.plan[:, 0] - ref)) / scale
            if err > REL_ERR_LIMIT and reference_beaten(
                    mods, cfg, weights, struct, s, ref, options.feas_tol):
                misses.append(s.step_id)
                continue
            errs.append(err)
        mean = float(np.mean(errs)) if errs else 0.0
        quality["plan_rel_err"] = mean
        quality["reference_misses"] = misses
        checks["centralized_p1"] = (
            mean <= REL_ERR_LIMIT and len(misses) <= len(errs),
            f"mean relative error {mean:.3e} over {len(errs)} plans "
            f"(limit {REL_ERR_LIMIT:.0e}); reference not optimal on "
            f"{len(misses)} more, steps {misses}")
    return checks, quality


def one_step_cost(mods, cfg, weights, state, u: np.ndarray) -> float:
    """The cost solve_centralized_p1 minimizes, up to a constant:
    u'Wu / 2 + (c - V e)'u, with e the drag and rolling losses at the
    current speeds."""
    model = mods.assembly.assemble_quadratic_model(cfg, weights,
                                                   state=state)
    e = np.array([veh.drag * state.v[i + 1] ** 2
                  + veh.roll * mods.platoon.GRAVITY
                  for i, veh in enumerate(cfg.vehicles)])
    return float(0.5 * u @ model.W @ u + (model.c - model.V @ e) @ u)


def reference_beaten(mods, cfg, weights, struct, step: Step,
                     ref: np.ndarray, feas_tol: float) -> bool:
    """True when the step's plan proves the reference is not the optimum
    of its own problem: the plan meets the same constraints (at p = 1
    plan_violation checks exactly the reference's rows) and costs less.
    The problem is strongly convex, so its optimum is unique and no
    feasible plan can cost less than it."""
    u = step.plan[:, 0]
    if mods.solver.plan_violation(cfg, step.state, step.plan,
                                  struct) > feas_tol:
        return False
    ref_cost = one_step_cost(mods, cfg, weights, step.state, ref)
    margin = 1e-6 * max(1.0, abs(ref_cost))
    return one_step_cost(mods, cfg, weights, step.state, u) < ref_cost - margin


def replay_check(first: RunLog, again: RunLog, first_paths=None,
                 again_paths=None) -> tuple[bool, str]:
    """Counters and plans of the replayed steps must repeat exactly; with
    tracing, so must the per-step kernel path counts ({step id: Counter})."""
    mine = {s.step_id: s for s in first.steps}
    diffs = 0
    for s in again.steps:
        old = mine.get(s.step_id)
        if old is None or old.counters != s.counters or \
                not np.array_equal(old.plan, s.plan):
            diffs += 1
        elif first_paths is not None and \
                first_paths.get(s.step_id) != again_paths.get(s.step_id):
            diffs += 1
    ok = diffs == 0 and len(again.steps) > 0
    return ok, f"{len(again.steps)} replayed steps, {diffs} differ"
