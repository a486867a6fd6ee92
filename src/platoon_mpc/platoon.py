"""Longitudinal platoon model and one-step feasibility machinery.

Vehicles are indexed 0..n with 0 the uncontrolled leader.  Controls are
commanded accelerations; the realized acceleration subtracts quadratic
drag and rolling resistance.  Safety is a worst-case stopping argument:
the gap to the predecessor must cover the reaction distance plus the
braking-to-minimum-speed distance at all times.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

GRAVITY = 9.8

# numerical slack for feasibility checks on states produced by simulation
FEAS_SLACK = 1e-9
# strictness threshold below which an interior point is considered degenerate
NO_MARGIN = 1e-12


class NoMarginError(RuntimeError):
    """Raised when no strictly interior control survives the line search."""


@dataclass
class VehicleParams:
    """Physical description of one vehicle.

    length:    occupied road length incl. standstill buffer [m]
    headway:   speed-proportional gap coefficient [s], must be >= tau
    accel_min: most negative effective acceleration [m/s^2]
    accel_max: largest effective acceleration [m/s^2]
    drag:      quadratic speed loss coefficient [1/m]
    roll:      rolling resistance coefficient (multiplies g)
    """

    length: float
    headway: float
    accel_min: float
    accel_max: float
    drag: float = 0.0
    roll: float = 0.0

    def validate(self, tau: float, v_max: float, is_leader: bool = False,
                 strict: bool = True) -> None:
        if self.length <= 0:
            raise ValueError("vehicle length must be positive")
        if self.accel_min >= 0 or self.accel_max <= 0:
            raise ValueError("need accel_min < 0 < accel_max")
        if strict and self.headway < tau:
            raise ValueError(
                f"headway {self.headway} shorter than step {tau}; gap policy "
                "cannot absorb one reaction step")
        if self.drag < 0 or self.roll < 0:
            raise ValueError("drag and roll must be nonnegative")
        if is_leader and (self.drag != 0.0 or self.roll != 0.0):
            raise ValueError("leader is modeled loss-free (drag = roll = 0)")
        # losses at top speed must leave usable forward authority
        if self.drag * v_max * v_max + self.roll * GRAVITY >= self.accel_max:
            raise ValueError(
                "losses at v_max exceed accel_max; platoon cannot hold speed")


def stack_params(vehicles: list[VehicleParams]) -> VehicleParams:
    """The listed vehicles as one VehicleParams whose fields are arrays in
    list order, which the horizon rows of the assembly module broadcast
    over."""
    return VehicleParams(**{
        f.name: np.array([getattr(veh, f.name) for veh in vehicles],
                         dtype=float) for f in fields(VehicleParams)})


@dataclass
class PlatoonConfig:
    """Platoon-wide constants: step length, desired spacing, speed band,
    leader parameters and one VehicleParams per controlled vehicle."""

    tau: float
    gap: float
    speed_min: float
    speed_max: float
    leader: VehicleParams
    vehicles: list[VehicleParams] = field(default_factory=list)
    # strict mode rejects headway < tau; the invariance argument needs it,
    # though a percent-level shave only degrades the guarantee by centimeters
    strict: bool = True

    def __post_init__(self) -> None:
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if not 0 <= self.speed_min < self.speed_max:
            raise ValueError("need 0 <= speed_min < speed_max")
        if not self.vehicles:
            raise ValueError("at least one controlled vehicle required")
        self.leader.validate(self.tau, self.speed_max, is_leader=True,
                             strict=self.strict)
        for veh in self.vehicles:
            veh.validate(self.tau, self.speed_max, strict=self.strict)
        if self.gap <= max(v.length for v in self.vehicles):
            raise ValueError("desired spacing does not clear vehicle length")

    @property
    def n(self) -> int:
        return len(self.vehicles)

    def _col(self, name: str) -> np.ndarray:
        return np.array([getattr(v, name) for v in self.vehicles], dtype=float)

    @property
    def lengths(self) -> np.ndarray:
        return self._col("length")

    @property
    def headways(self) -> np.ndarray:
        return self._col("headway")

    @property
    def accel_min(self) -> np.ndarray:
        return self._col("accel_min")

    @property
    def accel_max(self) -> np.ndarray:
        return self._col("accel_max")

    @property
    def drag(self) -> np.ndarray:
        return self._col("drag")

    @property
    def roll(self) -> np.ndarray:
        return self._col("roll")

    @property
    def followers(self) -> VehicleParams:
        """Every controlled vehicle, stacked (stack_params)."""
        return stack_params(self.vehicles)

    @property
    def predecessors(self) -> VehicleParams:
        """Every controlled vehicle's predecessor, the leader first,
        stacked (stack_params)."""
        return stack_params([self.leader] + self.vehicles[:-1])

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "PlatoonConfig":
        data = dict(data)
        data["leader"] = VehicleParams(**data["leader"])
        data["vehicles"] = [VehicleParams(**v) for v in data["vehicles"]]
        return cls(**data)

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def loads(cls, text: str) -> "PlatoonConfig":
        return cls.from_dict(json.loads(text))


def load_config(path) -> PlatoonConfig:
    with open(path) as fh:
        return PlatoonConfig.from_dict(json.load(fh))


def save_config(config: PlatoonConfig, path) -> None:
    with open(path, "w") as fh:
        fh.write(config.dumps())


@dataclass
class PlatoonState:
    """Positions and speeds for leader + followers, plus the leader control
    u0 applied during the current step.  x[0], v[0] belong to the leader."""

    x: np.ndarray
    v: np.ndarray
    u0: float = 0.0

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if self.x.shape != self.v.shape or self.x.ndim != 1 or self.x.size < 2:
            raise ValueError("x and v must be 1-d arrays of equal length >= 2")

    @property
    def n(self) -> int:
        return self.x.size - 1

    def spacings(self) -> np.ndarray:
        """Front-to-front distance to the predecessor, one per follower."""
        return self.x[:-1] - self.x[1:]

    def spacing_error(self, gap: float) -> np.ndarray:
        return self.spacings() - gap

    def rel_speed(self) -> np.ndarray:
        return self.v[:-1] - self.v[1:]

    def copy(self) -> "PlatoonState":
        return PlatoonState(self.x.copy(), self.v.copy(), self.u0)


def effective_accel(params: VehicleParams, v, u):
    """Realized acceleration once drag and rolling losses are subtracted."""
    return u - params.drag * v * v - params.roll * GRAVITY


def _effective_accel_vec(config: PlatoonConfig, v: np.ndarray,
                         u: np.ndarray) -> np.ndarray:
    return u - config.drag * v * v - config.roll * GRAVITY


def _kinematic_step(config: PlatoonConfig, state: PlatoonState,
                    accel: np.ndarray, u0_next) -> PlatoonState:
    tau = config.tau
    x_new = state.x + tau * state.v + 0.5 * tau * tau * accel
    v_new = state.v + tau * accel
    u0 = state.u0 if u0_next is None else float(u0_next)
    return PlatoonState(x_new, v_new, u0)


def nonlinear_step(config: PlatoonConfig, state: PlatoonState,
                   u: np.ndarray, u0_next=None) -> PlatoonState:
    """One step of the lossy model; leader moves with state.u0."""
    u = np.asarray(u, dtype=float)
    accel = np.concatenate(
        ([state.u0], _effective_accel_vec(config, state.v[1:], u)))
    return _kinematic_step(config, state, accel, u0_next)


def linear_step(config: PlatoonConfig, state: PlatoonState,
                u: np.ndarray, u0_next=None) -> PlatoonState:
    """One step of the loss-free model (controls are accelerations)."""
    u = np.asarray(u, dtype=float)
    accel = np.concatenate(([state.u0], u))
    return _kinematic_step(config, state, accel, u0_next)


def spacing_bound(config: PlatoonConfig, v: np.ndarray) -> np.ndarray:
    """Minimum admissible spacing at follower speeds v: reaction distance
    plus braking distance down to speed_min."""
    d = v - config.speed_min
    return (config.lengths + config.headways * v
            - d * d / (2.0 * config.accel_min))


def safety_gap_p(config: PlatoonConfig, state: PlatoonState) -> np.ndarray:
    """Safety residual per follower; <= 0 means the gap is sufficient."""
    return spacing_bound(config, state.v[1:]) - state.spacings()


def h_one_step(config: PlatoonConfig, state: PlatoonState,
               u: np.ndarray) -> np.ndarray:
    """Safety residual after one step under controls u (leader: state.u0).
    <= 0 certifies the next state keeps every gap admissible."""
    tau = config.tau
    u = np.asarray(u, dtype=float)
    accel = np.concatenate(
        ([state.u0], _effective_accel_vec(config, state.v[1:], u)))
    v_next = state.v + tau * accel
    gap_next = (state.spacings() + tau * state.rel_speed()
                + 0.5 * tau * tau * (accel[:-1] - accel[1:]))
    d = v_next[1:] - config.speed_min
    return (config.lengths + config.headways * v_next[1:]
            - d * d / (2.0 * config.accel_min) - gap_next)


def q_reaction(config: PlatoonConfig, params: VehicleParams, v: float,
               w: float) -> float:
    """Spacing-policy margin transferred through one braking step at rate w.
    Satisfies q(accel_min) == headway * accel_min + speed_min exactly."""
    tau = config.tau
    return (v + (0.5 * tau + params.headway) * w
            - (v - config.speed_min) * w / params.accel_min
            - tau * w * w / (2.0 * params.accel_min))


def feasible_control(config: PlatoonConfig, state: PlatoonState) -> np.ndarray:
    """Maximal admissible braking for every follower.  From any feasible
    state this control keeps the next state feasible."""
    v = state.v[1:]
    hard = v + config.tau * config.accel_min >= config.speed_min
    brake = np.where(hard, config.accel_min, (config.speed_min - v) / config.tau)
    return brake + config.drag * v * v + config.roll * GRAVITY


def control_violation(config: PlatoonConfig, state: PlatoonState,
                      u: np.ndarray) -> float:
    """Largest violation of the one-step constraint set at (state, u):
    control box, next-step speed band, next-step safety.  <= 0 is feasible."""
    u = np.asarray(u, dtype=float)
    v_next = state.v[1:] + config.tau * _effective_accel_vec(
        config, state.v[1:], u)
    worst = max(
        float(np.max(config.accel_min - u)),
        float(np.max(u - config.accel_max)),
        float(np.max(config.speed_min - v_next)),
        float(np.max(v_next - config.speed_max)),
        float(np.max(h_one_step(config, state, u))),
    )
    return worst


def is_feasible_state(config: PlatoonConfig, state: PlatoonState,
                      slack: float = FEAS_SLACK, explain: bool = False):
    """Check speeds, the leader control box and every safety residual."""
    v0_next = state.v[0] + config.tau * state.u0
    checks = {
        "speed_low": float(np.min(state.v) - config.speed_min),
        "speed_high": float(config.speed_max - np.max(state.v)),
        "leader_box_low": state.u0 - config.leader.accel_min,
        "leader_box_high": config.leader.accel_max - state.u0,
        "leader_next_speed_low": v0_next - config.speed_min,
        "leader_next_speed_high": config.speed_max - v0_next,
        "safety": float(-np.max(safety_gap_p(config, state))),
    }
    ok = all(val >= -slack for val in checks.values())
    if explain:
        return ok, checks
    return ok


def interior_control(config: PlatoonConfig, state: PlatoonState,
                     eps0: float = 0.1) -> np.ndarray:
    """Strictly interior one-step control, built front-to-back by perturbing
    the maximal braking control.  Requires the leader to stay strictly above
    speed_min through the step."""
    tau = config.tau
    v = state.v[1:]
    if state.v[0] <= config.speed_min or \
            state.v[0] + tau * state.u0 <= config.speed_min:
        raise NoMarginError("leader must stay strictly above speed_min")
    if not is_feasible_state(config, state):
        raise NoMarginError("state is not feasible")

    base = feasible_control(config, state)
    u_hat = base.copy()
    work = state.copy()
    for i in range(config.n):
        par = config.vehicles[i]
        eps = eps0
        while True:
            cand = base[i] + eps
            u_hat[i] = cand
            a_i = effective_accel(par, v[i], cand)
            v_next = v[i] + tau * a_i
            strict = (
                cand > par.accel_min + NO_MARGIN
                and cand < par.accel_max - NO_MARGIN
                and v_next > config.speed_min + NO_MARGIN
                and v_next < config.speed_max - NO_MARGIN
                and h_one_step(config, work, u_hat)[i] < -NO_MARGIN
            )
            if strict:
                break
            eps *= 0.5
            if eps < NO_MARGIN:
                raise NoMarginError(
                    f"vehicle {i + 1}: no strict margin found")
    return u_hat


def random_feasible_state(config: PlatoonConfig, rng: np.random.Generator,
                          margin_lo: float = 0.5,
                          margin_hi: float = 20.0) -> PlatoonState:
    """Sample speeds uniformly inside the speed band and spacings a random
    margin above the safety bound.  Leader control is zero."""
    n = config.n
    v = rng.uniform(config.speed_min + 0.5, config.speed_max - 0.5, n + 1)
    gaps = spacing_bound(config, v[1:]) + rng.uniform(margin_lo, margin_hi, n)
    x = np.concatenate(([0.0], -np.cumsum(gaps)))
    return PlatoonState(x, v, u0=0.0)
