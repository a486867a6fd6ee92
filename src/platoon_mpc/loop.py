"""Closed-loop behavior of the controlled platoon.

The tracking coordinates (spacing errors z, relative speeds z') obey a
double-integrator recursion driven by relative controls; with the losses
switched off the unconstrained horizon cost is an explicit quadratic in
those relative controls, which gives the linear feedback gain, the closed
loop matrix and its stability radius in closed form.  The loss terms enter
the recursion through a quadratic speed-coupling function whose linear and
quadratic parts are split out for the perturbation analysis.  On top of
that sits the step-by-step simulator that runs the distributed solver in
the loop and checks every visited state against the safety margins.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .assembly import WeightSchedule
from .platoon import (GRAVITY, PlatoonConfig, PlatoonState, nonlinear_step,
                      spacing_bound)
from .solver import (MpcDiagnostics, SolverConfig, formulate_local, solve_mpc)

LEADER_CLIP = (-8.0, 1.8)


class SimulationError(RuntimeError):
    """Raised when a simulated step leaves the feasible set."""


@dataclass
class TrackingState:
    """Spacing errors and relative speeds of every follower."""

    z: np.ndarray
    zp: np.ndarray

    @classmethod
    def from_platoon(cls, config: PlatoonConfig,
                     state: PlatoonState) -> "TrackingState":
        return cls(z=state.spacing_error(config.gap), zp=state.rel_speed())


@dataclass
class ClosedLoopMatrices:
    """Linear closed-loop data in the tracking coordinates.  K and d map
    the current (z, z') and the leader control to the first-stage relative
    controls; A_c is the loss-free closed loop map.  The single-step
    entries (W_hat onward) are only populated for p = 1."""

    p: int
    A: np.ndarray
    B: np.ndarray
    H: np.ndarray
    G: np.ndarray
    g: np.ndarray
    K: np.ndarray
    d: np.ndarray
    A_c: np.ndarray
    W_hat: np.ndarray | None = None
    B_breve: np.ndarray | None = None
    D: np.ndarray | None = None
    Delta_A: np.ndarray | None = None
    A_c_direct: np.ndarray | None = None


def speed_coupling(config: PlatoonConfig) -> np.ndarray:
    """Linear part of the loss mismatch in the relative speeds: the drag
    gradient at the leader speed, telescoped across the platoon."""
    n = config.n
    s_n = np.tril(np.ones((n, n)))
    s_n_inv = np.eye(n) - np.diag(np.ones(n - 1), -1)
    return -2.0 * s_n_inv @ np.diag(config.drag) @ s_n


def h_tilde(config: PlatoonConfig, z_prime: np.ndarray) -> np.ndarray:
    """Quadratic remainder of the loss mismatch; vanishes at z' = 0 and
    carries no leader-speed dependence."""
    n = config.n
    s_n = np.tril(np.ones((n, n)))
    s = s_n @ np.asarray(z_prime, dtype=float)
    lower = np.eye(n) - np.diag(np.ones(n - 1), -1)
    return lower @ (config.drag * s * s)


def loss_mismatch(config: PlatoonConfig, z_prime: np.ndarray,
                  v0: float) -> np.ndarray:
    """Relative loss residual h(z', v0): per follower, the difference of
    the predecessor's and the own quadratic speed losses, written in the
    relative-speed coordinates."""
    n = config.n
    s_n = np.tril(np.ones((n, n)))
    s = s_n @ np.asarray(z_prime, dtype=float)
    c2 = config.drag
    h = np.empty(n)
    h[0] = c2[0] * s[0] * (s[0] - 2.0 * v0)
    for i in range(1, n):
        h[i] = (c2[i - 1] * s[i - 1] * (2.0 * v0 - s[i - 1])
                - c2[i] * s[i] * (2.0 * v0 - s[i]))
    return h


def equilibrium_we(config: PlatoonConfig, v0: float) -> np.ndarray:
    """Relative controls that hold every follower at the leader speed:
    the telescoped difference of the stationary loss compensations."""
    c2 = config.drag
    c3 = config.roll
    c2_prev = np.concatenate(([0.0], c2[:-1]))
    c3_prev = np.concatenate(([0.0], c3[:-1]))
    return (c2_prev - c2) * v0 * v0 + (c3_prev - c3) * GRAVITY


def build_closed_loop(config: PlatoonConfig,
                      weights: WeightSchedule) -> ClosedLoopMatrices:
    """Assemble the tracking-coordinate quadratic cost and the resulting
    linear feedback.  The first-stage rows of -H^{-1}G and H^{-1}g are the
    gain K and the leader feedthrough d; A_c = A + B K."""
    n = config.n
    p = weights.p
    tau = config.tau
    qz = np.asarray(weights.qz, dtype=float)
    qzp = np.asarray(weights.qzp, dtype=float)
    qw = np.asarray(weights.qw, dtype=float)

    H = np.zeros((n * p, n * p))
    for i in range(1, p + 1):
        for j in range(1, p + 1):
            dvec = np.zeros(n)
            for s in range(max(i, j), p + 1):
                dvec += (tau ** 4 / 4.0 * (2 * (s - i) + 1)
                         * (2 * (s - j) + 1) * qz[s - 1]
                         + tau ** 2 * qzp[s - 1])
            if i == j:
                dvec = dvec + tau ** 2 * qw[i - 1]
            H[(i - 1) * n:i * n, (j - 1) * n:j * n] = np.diag(dvec)

    G = np.zeros((n * p, 2 * n))
    for i in range(1, p + 1):
        g1 = np.zeros(n)
        g2 = np.zeros(n)
        for s in range(i, p + 1):
            g1 += tau ** 2 * (2 * (s - i) + 1) / 2.0 * qz[s - 1]
            g2 += (tau ** 3 * s * (2 * (s - i) + 1) / 2.0 * qz[s - 1]
                   + tau * qzp[s - 1])
        G[(i - 1) * n:i * n, :n] = np.diag(g1)
        G[(i - 1) * n:i * n, n:] = np.diag(g2)

    g = np.zeros(n * p)
    for i in range(p):
        g[i * n] = tau ** 2 * qw[i, 0]

    sol_G = np.linalg.solve(H, G)
    sol_g = np.linalg.solve(H, g)
    K = -sol_G[:n]
    d = sol_g[:n]

    A = np.block([[np.eye(n), tau * np.eye(n)],
                  [np.zeros((n, n)), np.eye(n)]])
    B = np.vstack([tau ** 2 / 2.0 * np.eye(n), tau * np.eye(n)])
    A_c = A + B @ K

    out = ClosedLoopMatrices(p=p, A=A, B=B, H=H, G=G, g=g, K=K, d=d, A_c=A_c)
    D = speed_coupling(config)
    out.D = D
    out.Delta_A = B @ np.hstack([np.zeros((n, n)), D])
    if p == 1:
        w_hat = 1.0 / (tau ** 2 / 4.0 * qz[0] + qzp[0] + qw[0])
        out.W_hat = np.diag(w_hat)
        out.B_breve = B @ np.diag(1.0 - w_hat * (tau ** 2 / 4.0 * qz[0]
                                                 + qzp[0]))
        wq = w_hat * qz[0]
        wzp = w_hat * qzp[0]
        out.A_c_direct = np.block([
            [np.diag(1.0 - tau ** 2 / 4.0 * wq),
             tau * np.eye(n) - np.diag(tau ** 3 / 4.0 * wq
                                       + tau / 2.0 * wzp)],
            [np.diag(-tau / 2.0 * wq),
             np.diag(1.0 - tau ** 2 / 2.0 * wq - wzp)]])
    return out


def schur_check(a_c: np.ndarray) -> tuple[float, bool]:
    """Spectral radius of the closed loop map and the stability verdict."""
    radius = float(np.max(np.abs(np.linalg.eigvals(a_c))))
    return radius, radius < 1.0 - 1e-9


def steady_state_error(config: PlatoonConfig, weights: WeightSchedule,
                       v0_inf: float) -> tuple[np.ndarray, bool]:
    """Stationary spacing errors under a constant leader speed.  For a
    one-step horizon the loss compensation admits a closed form; longer
    horizons fall back on the simulated fixed point (flag False)."""
    if weights.p == 1:
        w_e = equilibrium_we(config, v0_inf)
        qz = np.asarray(weights.qz[0], dtype=float)
        qw = np.asarray(weights.qw[0], dtype=float)
        return -2.0 * (qw / qz) * w_e, True
    scen = cruise_scenario(200, v_start=v0_inf)
    rec = simulate(config, weights, scen)
    return rec.z[-20:].mean(axis=0), False


# ---------------------------------------------------------------------------
# leader scenarios

@dataclass
class Scenario:
    """Leader forcing for a simulation run: one control per step, the
    common starting speed, and optionally the sampling time the profile
    was built for."""

    name: str
    u0: np.ndarray
    v_start: float = 25.0
    tau: float | None = None
    clipped_steps: int = 0

    @property
    def steps(self) -> int:
        return len(self.u0)


def cruise_scenario(steps: int = 150, v_start: float = 25.0) -> Scenario:
    return Scenario("cruise", np.zeros(steps), v_start)


def brake_scenario(steps: int = 150, window: int = 4,
                   v_start: float = 25.0) -> Scenario:
    """Hard braking burst followed by a recovery ramp: -2 m/s^2 starting
    at step 51, zero until step 100, +1 m/s^2 for steps 101..108."""
    u0 = np.zeros(steps)
    u0[50:50 + window] = -2.0
    u0[100:108] = 1.0
    return Scenario("brake", u0, v_start)


def wave_scenario(steps: int = 150, v_start: float = 25.0) -> Scenario:
    """Period-4 forcing over steps 51..100.  The phase +1, -1, -1, +1 makes
    the leader speed triangle one unit above and below the cruise value and
    land back on it when the forcing stops, even though 50 steps cover the
    last cycle only halfway."""
    u0 = np.zeros(steps)
    pattern = (1.0, -1.0, -1.0, 1.0)
    for k in range(50, min(100, steps)):
        u0[k] = pattern[(k - 50) % 4]
    return Scenario("wave", u0, v_start)


def oscillation_scenario(steps: int = 150, v_start: float = 25.0) -> Scenario:
    """Irregular speed oscillations through a 45-step window starting at
    step 5, then a return to the cruise speed.  Two incommensurate waves
    under a half-sine envelope keep the excursions inside +-1.8 m/s and
    close the window exactly on the starting speed."""
    ks = np.arange(steps + 1, dtype=float)
    v = np.full(steps + 1, float(v_start))
    win = (ks >= 5) & (ks <= 50)
    t = (ks[win] - 5.0) / 45.0
    v[win] += np.sin(np.pi * t) * (1.2 * np.sin(2.0 * np.pi * 3.0 * t)
                                   + 0.6 * np.sin(2.0 * np.pi * 7.0 * t + 1.0))
    return Scenario("oscillation", np.diff(v), v_start)


def trace_scenario(path) -> Scenario:
    """Leader profile recovered from a recorded trajectory: controls are
    the per-step speed differences, clipped to the admissible range."""
    x0, v0, tau = read_leader_trace(path)
    raw = np.diff(v0) / tau
    u0 = np.clip(raw, LEADER_CLIP[0], LEADER_CLIP[1])
    scen = Scenario("trace", u0, v_start=float(v0[0]), tau=tau)
    scen.clipped_steps = int(np.sum(np.abs(raw - u0) > 1e-12))
    return scen


def synthetic_leader(steps: int = 150, tau: float = 1.0, v0: float = 25.0,
                     amp: float = 1.5, period: float = 40.0
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Smooth oscillatory stand-in trajectory for the trace scenario:
    positions and speeds of a leader breathing around a cruise speed."""
    k = np.arange(steps + 1, dtype=float)
    v = v0 + amp * np.sin(2.0 * np.pi * k / period)
    u = np.diff(v) / tau
    x = np.zeros(steps + 1)
    x[1:] = np.cumsum(tau * v[:-1] + tau ** 2 / 2.0 * u)
    return x, v


def write_leader_trace(path, x0: np.ndarray, v0: np.ndarray,
                       tau: float) -> None:
    path = Path(path)
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["k", "x0", "v0"])
        for k, (x, v) in enumerate(zip(x0, v0)):
            wr.writerow([k, f"{x:.10g}", f"{v:.10g}"])
    with open(path.with_suffix(".json"), "w") as fh:
        json.dump({"tau": tau}, fh)


def read_leader_trace(path) -> tuple[np.ndarray, np.ndarray, float]:
    path = Path(path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    x0 = np.array([float(r["x0"]) for r in rows])
    v0 = np.array([float(r["v0"]) for r in rows])
    with open(path.with_suffix(".json")) as fh:
        tau = float(json.load(fh)["tau"])
    return x0, v0, tau


# ---------------------------------------------------------------------------
# simulation

@dataclass
class SimRecord:
    """Full trajectory of a closed-loop run.  States are recorded before
    each step (row k) plus the terminal state; controls row k is the plan
    applied at step k."""

    scenario: str
    tau: float
    spacings: np.ndarray
    speeds: np.ndarray
    controls: np.ndarray
    leader_u: np.ndarray
    z: np.ndarray
    zp: np.ndarray
    diagnostics: list[MpcDiagnostics] = field(default_factory=list)
    track_gap: float = 0.0

    @property
    def steps(self) -> int:
        return len(self.controls)

    @property
    def times(self) -> np.ndarray:
        return self.tau * np.arange(self.steps + 1)


def initial_state(config: PlatoonConfig, v_start: float) -> PlatoonState:
    """Every vehicle at the desired spacing and the common start speed."""
    n = config.n
    x = -config.gap * np.arange(n + 1, dtype=float)
    return PlatoonState(x, np.full(n + 1, float(v_start)), 0.0)


def _check_state(config: PlatoonConfig, state: PlatoonState, k: int,
                 tol: float) -> None:
    v = state.v[1:]
    if np.any(v < config.speed_min - tol) or \
            np.any(v > config.speed_max + tol):
        raise SimulationError(
            f"step {k}: follower speed left the admissible band")
    margin = state.spacings() - spacing_bound(config, v)
    if np.any(margin < -tol):
        raise SimulationError(
            f"step {k}: spacing fell below the safe bound by "
            f"{-float(margin.min()):.3e} m")


def simulate(config: PlatoonConfig, weights: WeightSchedule,
             scenario: Scenario,
             options: SolverConfig | None = None,
             state: PlatoonState | None = None) -> SimRecord:
    """Run the distributed controller in closed loop over the scenario.
    Every visited state is checked against the speed band and the safety
    spacing bound, to options.feas_tol; a violated step aborts with its
    index."""
    options = options or SolverConfig()
    if scenario.tau is not None and abs(scenario.tau - config.tau) > 1e-12:
        raise ValueError("scenario was sampled at a different tau")
    n = config.n
    steps = scenario.steps
    state = state.copy() if state is not None else \
        initial_state(config, scenario.v_start)

    spac = np.empty((steps + 1, n))
    spd = np.empty((steps + 1, n + 1))
    ctrl = np.empty((steps, n))
    zs = np.empty((steps + 1, n))
    zps = np.empty((steps + 1, n))
    diags: list[MpcDiagnostics] = []

    agents = formulate_local(config, weights, state)
    # tracking copy propagated through the relative-control recursion;
    # must match the state-derived coordinates at every step
    z_prop = state.spacing_error(config.gap).copy()
    zp_prop = state.rel_speed().copy()
    track_gap = 0.0
    tau = config.tau

    _check_state(config, state, 0, options.feas_tol)
    for k in range(steps):
        state.u0 = float(scenario.u0[k])
        spac[k] = state.spacings()
        spd[k] = state.v
        zs[k] = state.spacing_error(config.gap)
        zps[k] = state.rel_speed()

        res = solve_mpc(agents, options, state=state)
        diags.append(res.diagnostics)
        if not res.diagnostics.feasible:
            raise SimulationError(
                f"step {k}: solver plan violates constraints by "
                f"{res.diagnostics.violation:.3e}")
        u = res.u_plan[:, 0]
        ctrl[k] = u

        accel = np.concatenate(
            ([state.u0],
             u - config.drag * state.v[1:] ** 2 - config.roll * GRAVITY))
        rel = accel[:-1] - accel[1:]
        z_prop = z_prop + tau * zp_prop + tau ** 2 / 2.0 * rel
        zp_prop = zp_prop + tau * rel

        u0_next = float(scenario.u0[k + 1]) if k + 1 < steps else 0.0
        state = nonlinear_step(config, state, u, u0_next)
        _check_state(config, state, k + 1, options.feas_tol)
        track_gap = max(
            track_gap,
            float(np.max(np.abs(z_prop - state.spacing_error(config.gap)))),
            float(np.max(np.abs(zp_prop - state.rel_speed()))))

    spac[steps] = state.spacings()
    spd[steps] = state.v
    zs[steps] = state.spacing_error(config.gap)
    zps[steps] = state.rel_speed()
    return SimRecord(scenario=scenario.name, tau=tau, spacings=spac,
                     speeds=spd, controls=ctrl, leader_u=scenario.u0.copy(),
                     z=zs, zp=zps, diagnostics=diags, track_gap=track_gap)


def simulate_linear_reference(config: PlatoonConfig,
                              weights: WeightSchedule,
                              scenario: Scenario,
                              z0: np.ndarray | None = None,
                              zp0: np.ndarray | None = None) -> SimRecord:
    """Loss-free unconstrained reference: iterate the closed loop matrix
    on the tracking coordinates.  Spacings and speeds are reconstructed
    around the leader trajectory implied by the scenario."""
    n = config.n
    mats = build_closed_loop(config, weights)
    steps = scenario.steps
    zs = np.empty((steps + 1, n))
    zps = np.empty((steps + 1, n))
    spac = np.empty((steps + 1, n))
    spd = np.empty((steps + 1, n + 1))
    ctrl = np.empty((steps, n))
    s_n = np.tril(np.ones((n, n)))

    vec = np.concatenate([z0 if z0 is not None else np.zeros(n),
                          zp0 if zp0 is not None else np.zeros(n)])
    v0 = scenario.v_start
    for k in range(steps + 1):
        zs[k] = vec[:n]
        zps[k] = vec[n:]
        spac[k] = config.gap + vec[:n]
        spd[k, 0] = v0
        spd[k, 1:] = v0 - s_n @ vec[n:]
        if k == steps:
            break
        u0 = float(scenario.u0[k])
        w = mats.K @ vec + u0 * mats.d
        ctrl[k] = u0 * np.ones(n) - s_n @ w
        vec = mats.A_c @ vec + mats.B @ (u0 * mats.d)
        v0 = v0 + config.tau * u0
    return SimRecord(scenario=scenario.name, tau=config.tau, spacings=spac,
                     speeds=spd, controls=ctrl, leader_u=scenario.u0.copy(),
                     z=zs, zp=zps)


def write_trajectory_csv(path, record: SimRecord) -> None:
    """One row per step: step index, time, then spacing, speed and
    control columns for every follower."""
    n = record.controls.shape[1]
    header = ["k", "t"]
    for i in range(1, n + 1):
        header += [f"S_{i - 1}_{i}", f"v_{i}", f"u_{i}"]
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for k in range(record.steps):
            row = [k, f"{record.tau * k:.10g}"]
            for i in range(n):
                row += [f"{record.spacings[k, i]:.10g}",
                        f"{record.speeds[k, i + 1]:.10g}",
                        f"{record.controls[k, i]:.10g}"]
            wr.writerow(row)
