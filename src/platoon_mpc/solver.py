"""Distributed solution of the horizon control problem.

One agent runs per controlled vehicle.  An agent owns its control sequence
and keeps working copies of its neighbors'; agreement between copies is
reached by Douglas-Rachford splitting over the consensus subspace, with
every cross-agent read carried by a message fabric that only links adjacent
positions.  For a one-step horizon the problem is a convex QCQP and a
single splitting run solves it.  For longer horizons the nonconvex speed
and safety rows are replaced by quadratic majorants around the current
iterate and the resulting convex subproblems are re-solved until the
iterates settle; the first iterate comes from the loss-free cost minimized
over inner convex restrictions of the true constraint sets, so every later
iterate inherits feasibility.  When the caller sets a tolerance, the
longer horizons run the convergent variant of this scheme (see
SolverConfig.convergent).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .assembly import (DecomposedModel, LocalObjective, QuadraticModel,
                       StructuralMatrices, WeightSchedule,
                       assemble_quadratic_model, build_local_objectives,
                       build_structural, decompose_model, local_objective,
                       local_objective_hessian, restricted_convex_sets,
                       safety_constraint_fn, safety_constraint_hessians,
                       speed_constraint_fn)
from .convex import (ConvexQcqp, QcqpInfeasibleError, QcqpResult, box_prox,
                     qcqp_prox, qcqp_solve)
from .platoon import GRAVITY, PlatoonConfig, PlatoonState, VehicleParams

# splitting tolerances per horizon length; the p = 1 entry is the single
# convex run and is kept tight because the closed-loop stationary offsets
# inherit any solver bias roughly 17-fold, the rest split into outer
# (linearization) and inner rounds
OUTER_TOL = {1: 1.0e-5, 2: 6.5e-3, 3: 7.5e-3, 4: 1.0e-2, 5: 1.25e-2}
INNER_TOL = {2: 4.0e-3, 3: 5.0e-3, 4: 7.5e-3, 5: 1.0e-2}
# curvature scaling of the local cost majorants
NU = {2: 0.8, 3: 0.8, 4: 0.9, 5: 0.9}
# splitting step of the convergent scheme, whose prox distances are
# measured in the metric of _block_metric
RHO_METRIC = 0.04
# rounds over which a stage of the convergent scheme measures its
# contraction rate
RATE_WINDOW = 10
# round tolerance of the loss-free warm start, and the violation of the
# true rows its plan may keep
LIN_TOL = 1e-5
GUARD_TOL = 1e-8
# safety rows couple neighbouring blocks, so the assembled plan can sit a
# consensus gap away from each owner's feasible prox point; every retry
# tightens the round tolerance tenfold until the gap is immaterial
GUARD_RETRIES = 6
# round tolerance of the box-only warm-up of a calibrated stage
WARM_TOL = 1e-7
# an agent whose iterate moves by at most FREEZE_STEP in FREEZE_ROUNDS
# consecutive outer iterations collapses to its current point
FREEZE_STEP = 1e-9
FREEZE_ROUNDS = 2


class LocalityError(RuntimeError):
    """Raised when an agent tries to read or write beyond its neighbors."""


class WarmStartError(RuntimeError):
    """Raised when no feasible first iterate can be produced."""


@dataclass
class SolverConfig:
    """Knobs of the splitting scheme.  Tolerances default to the per-p
    tables above; lip_factor scales the constraint-row majorants and the
    NU table the cost majorant (1.0 makes both provably global for the
    row curvatures at hand, smaller trades margin for speed)."""

    alpha: float = 0.9
    rho: float = 0.1
    tol_outer: float | None = None
    tol_inner: float | None = None
    max_outer: int = 60
    max_inner: int = 500
    lip_factor: float = 0.9
    feas_tol: float = 1e-6

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.rho <= 0.0:
            raise ValueError("rho must be positive")

    def outer_tol_for(self, p: int) -> float:
        return self.tol_outer if self.tol_outer is not None else OUTER_TOL[p]

    def inner_tol_for(self, p: int) -> float:
        return self.tol_inner if self.tol_inner is not None else INNER_TOL[p]

    def nu_for(self, p: int) -> float:
        return NU.get(p, 0.9)

    @property
    def convergent(self) -> bool:
        """Whether horizons p > 1 run the convergent scheme, which the
        caller asks for by setting tol_outer or tol_inner.  The default
        tables drive the calibrated scheme instead: an isotropic cost
        majorant and box-only warm-ups, whose outer loop stops near the
        loss-free warm start, and on which the acceptance figures of the
        horizon-5 closed loops rest.  The convergent scheme measures prox
        distances in the per-vehicle metric of _block_metric, models the
        cost by its Hessian (scp_step), carries the splitting state from
        one stage to the next, and ends a stage once its rounds are
        estimated to lie within tol_inner of their fixed point; the outer
        loop stops once a stage moves the plan by at most tol_outer."""
        return self.tol_outer is not None or self.tol_inner is not None


class LocalExchange:
    """Message fabric between agents.  Every cross-agent read passes
    through transfer(), which refuses non-adjacent pairs and counts
    traffic for the diagnostics."""

    def __init__(self, n: int):
        self.n = n
        self.messages = 0
        self.floats = 0

    def transfer(self, src: int, dst: int, payload: np.ndarray) -> np.ndarray:
        if not (1 <= src <= self.n and 1 <= dst <= self.n):
            raise LocalityError(f"agent index out of range: {src} -> {dst}")
        if abs(src - dst) > 1:
            raise LocalityError(
                f"agents {src} and {dst} are not adjacent")
        self.messages += 1
        self.floats += payload.size
        return np.array(payload, copy=True)


@dataclass
class SharedContext:
    """Problem data common to all agents for the current step.  The
    quadratic weights and their decomposition never change between steps;
    the linear terms and local costs follow the state."""

    config: PlatoonConfig
    weights: WeightSchedule
    struct: StructuralMatrices
    dec: DecomposedModel
    model: QuadraticModel
    objectives: list[LocalObjective]
    state: PlatoonState


@dataclass
class AgentState:
    """One agent: vehicle index, the stacked local vector (own block plus
    neighbor copies, blocks ascending), splitting iterates and the data of
    the current convex subproblem."""

    i: int
    span: tuple[int, int]
    p: int
    lo: np.ndarray
    hi: np.ndarray
    shared: SharedContext
    u_hat: np.ndarray = None
    z: np.ndarray = None
    w: np.ndarray | None = None
    w_prev: np.ndarray | None = None
    y_last: np.ndarray | None = None
    base: np.ndarray = None
    olo: np.ndarray = None
    ohi: np.ndarray = None
    problem: ConvexQcqp | None = None
    grad_J: np.ndarray | None = None
    L_J: float = 0.0
    warm: QcqpResult | None = None
    metric: np.ndarray | None = None
    carry_z: np.ndarray | None = None
    frozen: bool = False
    still: int = 0
    prox_calls: int = 0
    prox_time: float = 0.0

    def __post_init__(self) -> None:
        d = self.lo.size
        if self.u_hat is None:
            self.u_hat = np.zeros(d)
        if self.z is None:
            self.z = np.zeros(d)
        if self.base is None:
            self.base = np.zeros(d)
        if self.olo is None:
            self.olo = self.lo.copy()
        if self.ohi is None:
            self.ohi = self.hi.copy()

    @property
    def blocks(self) -> list[int]:
        return list(range(self.span[0], self.span[1] + 1))

    @property
    def own_pos(self) -> int:
        return self.i - self.span[0]

    @property
    def dim(self) -> int:
        return self.lo.size

    def sl(self, pos: int) -> slice:
        return slice(pos * self.p, (pos + 1) * self.p)

    def own(self, vec: np.ndarray) -> np.ndarray:
        return vec[self.sl(self.own_pos)]


# ---------------------------------------------------------------------------
# formulation

def formulate_local(config: PlatoonConfig, weights: WeightSchedule,
                    state: PlatoonState,
                    options: SolverConfig | None = None) -> list[AgentState]:
    """Build the agent graph for one platoon.  The agents persist across
    steps; call solve_mpc with a new state to re-linearize around it."""
    p, n = weights.p, config.n
    struct = build_structural(n, p)
    model = assemble_quadratic_model(config, weights, state=state)
    dec = decompose_model(model)
    objectives = build_local_objectives(config, model, dec, state)
    shared = SharedContext(config=config, weights=weights, struct=struct,
                           dec=dec, model=model, objectives=objectives,
                           state=state.copy())
    agents = []
    for i in range(1, n + 1):
        span = dec.spans[i - 1]
        pars = [config.vehicles[j - 1] for j in range(span[0], span[1] + 1)]
        lo = np.concatenate([np.full(p, v.accel_min) for v in pars])
        hi = np.concatenate([np.full(p, v.accel_max) for v in pars])
        agents.append(AgentState(i=i, span=span, p=p, lo=lo, hi=hi,
                                 shared=shared))
    return agents


def _block_metric(model: QuadraticModel, span: tuple[int, int]) -> np.ndarray:
    """Prox metric of one agent in the convergent scheme: every vehicle
    block of the loss-free cost Hessian, scaled to unit norm.  The horizon
    steps are weighted very unevenly (the Hessian's condition number is
    about 2e5 at p = 3), so an identity metric leaves the splitting rounds
    crawling along the lightly weighted late steps; scaled per block, the
    spread is a few hundred.  Copies of a block share its metric, so the
    consensus step stays a plain average."""
    p = model.p
    dim = (span[1] - span[0] + 1) * p
    out = np.zeros((dim, dim))
    for k, j in enumerate(range(span[0], span[1] + 1)):
        blk = model.W[(j - 1) * p:j * p, (j - 1) * p:j * p]
        out[k * p:(k + 1) * p, k * p:(k + 1) * p] = (
            blk / np.linalg.eigvalsh(blk)[-1])
    return out


def _refresh(agents: list[AgentState], state: PlatoonState) -> None:
    sh = agents[0].shared
    sh.model = assemble_quadratic_model(sh.config, sh.weights, state=state)
    sh.objectives = build_local_objectives(sh.config, sh.model, sh.dec, state)
    sh.state = state.copy()


def _prev_of(config: PlatoonConfig, i: int) -> VehicleParams:
    return config.leader if i == 1 else config.vehicles[i - 2]


def _tracking(config: PlatoonConfig, state: PlatoonState, i: int):
    """State pieces entering vehicle i's constraint rows."""
    z = state.spacing_error(config.gap)
    zp = state.rel_speed()
    return (float(state.v[i]), float(state.v[i - 1]), float(z[i - 1]),
            float(zp[i - 1]))


def _prev_controls(a: AgentState) -> np.ndarray:
    """The predecessor sequence seen by agent i's safety rows: its local
    copy, or the constant leader control for the first vehicle."""
    if a.i == 1:
        return np.full(a.p, a.shared.state.u0)
    return a.u_hat[a.sl(a.own_pos - 1)]


# ---------------------------------------------------------------------------
# consensus and splitting rounds

def _consensus(agents: list[AgentState], net: LocalExchange) -> dict:
    """Average every vehicle's copies at its owner and hand the mean back.
    Contributions are summed in fixed index order so the result does not
    depend on agent scheduling."""
    p = agents[0].p
    contrib: dict[int, dict[int, np.ndarray]] = {}
    for a in agents:
        for pos, j in enumerate(a.blocks):
            seg = a.z[a.sl(pos)]
            if j != a.i:
                seg = net.transfer(a.i, j, seg)
            contrib.setdefault(j, {})[a.i] = seg
    means = {}
    for j, parts in contrib.items():
        stack = [parts[k] for k in sorted(parts)]
        means[j] = sum(stack) / float(len(stack))
    for a in agents:
        w = np.empty_like(a.z)
        for pos, j in enumerate(a.blocks):
            m = means[j] if j == a.i else net.transfer(j, a.i, means[j])
            w[a.sl(pos)] = m
        a.w_prev, a.w = a.w, w
    return means


def _agent_prox(a: AgentState, anchor: np.ndarray,
                options: SolverConfig) -> np.ndarray:
    if a.frozen:
        # the agent's set collapsed to its current point
        return np.zeros_like(anchor)
    t0 = time.perf_counter()
    rho = options.rho if a.metric is None else RHO_METRIC
    try:
        if a.problem is None:
            lin = a.grad_J if a.grad_J is not None else np.zeros(a.dim)
            y = box_prox(np.full(a.dim, a.L_J + 1.0 / rho),
                         lin - anchor / rho, a.olo, a.ohi)
        else:
            res = qcqp_prox(a.problem, anchor, rho, warm=a.warm,
                            metric=a.metric)
            a.warm = res
            y = res.y
    except QcqpInfeasibleError as err:
        raise QcqpInfeasibleError(f"agent {a.i}: {err}") from err
    finally:
        a.prox_time += time.perf_counter() - t0
        a.prox_calls += 1
    return y


def dr_round(agents: list[AgentState], options: SolverConfig,
             net: LocalExchange | None = None) -> float:
    """One synchronous splitting round: average the copies, then every
    agent applies its prox to the reflected iterate.  Returns the largest
    change of any agent's consensus iterate (inf on the first round)."""
    if net is None:
        net = LocalExchange(len(agents))
    _consensus(agents, net)
    resid = np.inf
    if all(a.w_prev is not None for a in agents):
        resid = max(float(np.max(np.abs(a.w - a.w_prev))) for a in agents)
    for a in agents:
        y = _agent_prox(a, 2.0 * a.w - a.z, options)
        a.y_last = y
        a.z = a.z + 2.0 * options.alpha * (y - a.w)
    return resid


def _distance_estimate(trace: list[float], window: int) -> float:
    """Bound on the distance still to go to the fixed point, for rounds
    that contract at the rate q seen over the last window rounds: the
    remaining steps sum to at most resid / (1 - q).  Infinite until the
    window is filled or while the residual does not shrink."""
    resid = trace[-1]
    if resid == 0.0:
        return 0.0
    if len(trace) <= window or trace[-1 - window] <= 0.0:
        return np.inf
    q = (resid / trace[-1 - window]) ** (1.0 / window)
    return resid / (1.0 - q) if q < 1.0 else np.inf


def _run_rounds(agents, options, net, tol, max_rounds, window=0):
    """Splitting rounds until the residual is at most tol, or, with a
    window, until the distance estimate over that window is."""
    trace = []
    converged = False
    for _ in range(max_rounds):
        resid = dr_round(agents, options, net)
        if np.isfinite(resid):
            trace.append(resid)
            est = _distance_estimate(trace, window) if window else resid
            if est <= tol:
                converged = True
                break
    return trace, converged


def _begin_stage(agents: list[AgentState], base_by_block: dict | None,
                 seed: str = "zero") -> None:
    """Reset the splitting state for a new stage.  All copies of a block
    share one base vector, so consensus in offset coordinates is exact.
    The "shift" seed keeps the last stage's state and moves it to offsets
    from the new base."""
    for a in agents:
        old_base = a.base
        if base_by_block is None:
            a.base = np.zeros(a.dim)
        else:
            a.base = np.concatenate([base_by_block[j] for j in a.blocks])
        a.olo = a.lo - a.base
        a.ohi = a.hi - a.base
        if seed == "shift":
            a.z = a.z + old_base - a.base
        elif seed == "carry" and a.carry_z is not None:
            a.z = a.carry_z.copy()
        else:
            a.z = np.zeros(a.dim)
        a.w = None
        a.w_prev = None
        a.y_last = None


def _collect_plan(agents: list[AgentState]) -> np.ndarray:
    """The per-vehicle control sequences at the current consensus point."""
    return np.vstack([a.own(a.base + a.w) for a in agents])


def _collect_prox_plan(agents: list[AgentState]) -> np.ndarray:
    """Per-vehicle control sequences read from each owner's last prox
    output.  When a constraint row is active the consensus average sits
    slightly outside the feasible set, while the prox point satisfies the
    owner's rows by construction, so the returned plan is the one to
    check and apply."""
    rows = []
    for a in agents:
        y = a.y_last if a.y_last is not None else a.w
        rows.append(a.own(a.base + y))
    return np.vstack(rows)


def _consensus_gap(agents: list[AgentState]) -> float:
    """Worst disagreement between a prox copy and the owner's prox block."""
    gap = 0.0
    for a in agents:
        if a.y_last is None:
            continue
        for pos, j in enumerate(a.blocks):
            if j == a.i:
                continue
            other = agents[j - 1]
            if other.y_last is None:
                continue
            d = a.y_last[a.sl(pos)] - other.own(other.y_last)
            gap = max(gap, float(np.max(np.abs(d))))
    return gap


def _stationarity(agents: list[AgentState]) -> float:
    """Fixed-point gap of the splitting at exit: prox output vs consensus."""
    vals = [float(np.max(np.abs(a.y_last - a.w)))
            for a in agents if a.y_last is not None and a.w is not None]
    return max(vals) if vals else np.inf


# ---------------------------------------------------------------------------
# constraint evaluation at a full plan

def plan_violation(config: PlatoonConfig, state: PlatoonState,
                   u_plan: np.ndarray, struct: StructuralMatrices) -> float:
    """Worst violation of the boxes, speed band and safety rows of the
    horizon model at a full (n, p) control plan."""
    n, p = u_plan.shape
    z = state.spacing_error(config.gap)
    zp = state.rel_speed()
    worst = 0.0
    for i in range(1, n + 1):
        par = config.vehicles[i - 1]
        u = u_plan[i - 1]
        worst = max(worst, float(np.max(par.accel_min - u)),
                    float(np.max(u - par.accel_max)))
        q, _ = speed_constraint_fn(config, par, float(state.v[i]), u)
        worst = max(worst, float(np.max(config.speed_min - q)),
                    float(np.max(q - config.speed_max)))
        prev = _prev_of(config, i)
        u_prev = (np.full(p, state.u0) if i == 1 else u_plan[i - 2])
        h, _, _ = safety_constraint_fn(
            config, par, prev, float(state.v[i]), float(state.v[i - 1]),
            float(z[i - 1]), float(zp[i - 1]), u, u_prev, struct)
        worst = max(worst, float(np.max(h)))
    return worst


def _embed(dim: int, pos_vecs: list[tuple[slice, np.ndarray]]) -> np.ndarray:
    out = np.zeros(dim)
    for sl, vec in pos_vecs:
        out[sl] = vec
    return out


# ---------------------------------------------------------------------------
# per-vehicle constraint rows
#
# Vehicle i's speed and safety rows involve only its own controls and its
# predecessor's.  The builders return them over the (predecessor, own)
# blocks, the own block alone for the first vehicle, whose predecessor is
# the leader; _place writes them into an agent's local vector or into the
# whole platoon's, so the split and the unsplit problems share the rows.

def _losses(config: PlatoonConfig, state: PlatoonState,
            vehicles) -> np.ndarray:
    """Drag and rolling losses of the listed (1-based) vehicles at their
    measured speeds."""
    return np.array([config.vehicles[j - 1].drag * state.v[j] ** 2
                     + config.vehicles[j - 1].roll * GRAVITY
                     for j in vehicles])


def _one_step_rows(config: PlatoonConfig, state: PlatoonState,
                   struct: StructuralMatrices, i: int) -> list:
    """Speed band and safety row of vehicle i at the one-step horizon,
    which is exactly quadratic: drag is charged at the measured speed and
    the safety row is expanded around u = 0."""
    tau = config.tau
    par = config.vehicles[i - 1]
    prev = _prev_of(config, i)
    v, v_prev, z, zp = _tracking(config, state, i)
    e_own = float(_losses(config, state, [i])[0])
    width = 2 if i > 1 else 1
    up = np.zeros(width)
    up[-1] = tau
    u_prev0 = np.array([state.u0]) if i == 1 else np.zeros(1)
    h0, g_own0, g_prev0 = safety_constraint_fn(
        config, par, prev, v, v_prev, z, zp, np.zeros(1), u_prev0, struct)
    own_h, _ = safety_constraint_hessians(config, par, prev, v, np.zeros(1),
                                          struct)
    A = np.zeros((width, width))
    A[-1, -1] = own_h[0, 0, 0]
    b = np.zeros(width)
    b[-1] = g_own0[0, 0]
    if i > 1:
        b[0] = g_prev0[0, 0]
    return [(np.zeros((width, width)), -up,
             config.speed_min - v + tau * e_own),
            (np.zeros((width, width)), up,
             v - tau * e_own - config.speed_max),
            (A, b, float(h0[0]))]


def _restricted_rows(config: PlatoonConfig, state: PlatoonState,
                     struct: StructuralMatrices, i: int, p: int) -> list:
    """Inner convex restrictions of vehicle i's horizon rows: the
    cumulative-control corridor of its speed band, then the convex safety
    rows."""
    v, v_prev, z, zp = _tracking(config, state, i)
    rs = restricted_convex_sets(config, i, v, v_prev, z, zp, p, struct,
                                u0=state.u0)
    width = 2 * p if rs.includes_prev else p
    s_p = np.tril(np.ones((p, p)))
    rows = []
    for j in range(p):
        row = np.zeros(width)
        row[-p:] = s_p[j]
        rows.append((np.zeros((width, width)), -row, float(rs.cum_lo[j])))
        rows.append((np.zeros((width, width)), row, -float(rs.cum_hi[j])))
    return rows + [(A, b, float(c)) for A, b, c in rs.quads]


def _place(rows: list, i: int, first: int, dim: int, p: int) -> list:
    """Vehicle i's rows written into dim-vectors whose first block holds
    vehicle `first` (1-based): an agent's local vector, or with first = 1
    the whole platoon's."""
    start = (max(i - 1, 1) - first) * p
    out = []
    for A, b, c in rows:
        idx = slice(start, start + b.size)
        Af = np.zeros((dim, dim))
        Af[idx, idx] = A
        bf = np.zeros(dim)
        bf[idx] = b
        out.append((Af, bf, c))
    return out


# ---------------------------------------------------------------------------
# warm start: loss-free cost over restricted convex sets

def _linear_problem(a: AgentState) -> ConvexQcqp:
    sh = a.shared
    q = _embed(a.dim, [(a.sl(a.own_pos), sh.model.c_block(a.i))])
    rows = _restricted_rows(sh.config, sh.state, sh.struct, a.i, a.p)
    return ConvexQcqp(sh.dec.W_hat[a.i - 1], q, a.lo, a.hi,
                      _place(rows, a.i, a.span[0], a.dim, a.p))


def warm_start_linear(agents: list[AgentState],
                      options: SolverConfig | None = None,
                      net: LocalExchange | None = None,
                      diag: "MpcDiagnostics | None" = None) -> np.ndarray:
    """First iterate: minimize the loss-free quadratic cost over the inner
    convex restrictions of the horizon constraints, by splitting rounds.
    The result is checked against the true rows and the rounds continue at
    a tighter tolerance if the averaging left a violation behind."""
    options = options or SolverConfig()
    if net is None:
        net = LocalExchange(len(agents))
    sh = agents[0].shared
    for a in agents:
        a.problem = _linear_problem(a)
    _begin_stage(agents, None, seed="carry")
    tol = LIN_TOL
    full_trace = []
    capped = 0
    for attempt in range(GUARD_RETRIES + 1):
        trace, conv = _run_rounds(agents, options, net, tol,
                                  options.max_inner)
        full_trace += trace
        capped += not conv
        plan = _collect_plan(agents)
        gap = plan_violation(sh.config, sh.state, plan, sh.struct)
        if gap <= GUARD_TOL:
            break
        if attempt == GUARD_RETRIES:
            raise WarmStartError(
                f"restricted stage kept violation {gap:.2e} above "
                f"{GUARD_TOL:.0e} after {attempt + 1} attempts")
        tol /= 10.0
    if diag is not None:
        diag.lin_rounds = len(full_trace)
        diag.capped_runs += capped
        diag.residual_trace["linear"] = [float(r) for r in full_trace]
    means = {j + 1: plan[j] for j in range(len(agents))}
    for a in agents:
        a.carry_z = a.z.copy()
        a.u_hat = np.concatenate([means[j] for j in a.blocks])
        a.problem = None
    return plan


# ---------------------------------------------------------------------------
# linearization of one outer step

def lipschitz_estimates(agents: list[AgentState],
                        options: SolverConfig | None = None) -> list[dict]:
    """Curvature bounds at the current iterates: nu * ||local cost
    Hessian|| for the cost and lip_factor * ||row Hessian|| for each
    constraint row (upper speed rows are concave in no direction that
    matters: they enter through their convex negatives and need none)."""
    options = options or SolverConfig()
    out = []
    for a in agents:
        sh = a.shared
        p = a.p
        par = sh.config.vehicles[a.i - 1]
        prev = _prev_of(sh.config, a.i)
        v, _, _, _ = _tracking(sh.config, sh.state, a.i)
        u_by_block = [a.u_hat[a.sl(b)] for b in range(len(a.blocks))]
        hj = local_objective_hessian(sh.objectives[a.i - 1], u_by_block)
        l_obj = options.nu_for(p) * float(
            np.max(np.abs(np.linalg.eigvalsh(hj))))
        u_own = a.own(a.u_hat)
        own_h, prev_h = safety_constraint_hessians(
            sh.config, par, prev, v, u_own, sh.struct)
        tau = sh.config.tau
        s_p = np.tril(np.ones((p, p)))
        speed_lo = []
        d2 = np.zeros((p, p))
        for j in range(p):
            if j > 0:
                d2 = d2 + 2.0 * tau ** 3 * par.drag * np.outer(
                    s_p[j - 1], s_p[j - 1])
            speed_lo.append(options.lip_factor * float(
                np.max(np.abs(np.linalg.eigvalsh(d2)))) if j > 0 else 0.0)
        safety = [options.lip_factor * float(max(
            np.max(np.abs(np.linalg.eigvalsh(own_h[j]))),
            np.max(np.abs(np.linalg.eigvalsh(prev_h[j])))))
            for j in range(p)]
        out.append({"objective": l_obj, "speed_lower": speed_lo,
                    "safety": safety})
    return out


def scp_step(agents: list[AgentState],
             options: SolverConfig | None = None) -> None:
    """Relinearize every active agent at its current iterate: gradient and
    curvature bound of the local cost, plus one quadratic majorant row per
    speed/safety constraint, all expressed in offsets from the iterate.
    The convergent scheme models the cost by its Hessian instead, with the
    negative eigenvalues clipped to zero: the summed models bound the
    cost's curvature from above at the iterate, and the stages take
    Newton-like steps instead of crawling along the lightly weighted
    horizon steps."""
    options = options or SolverConfig()
    lips = lipschitz_estimates(agents, options)
    for a, lp in zip(agents, lips):
        if a.frozen:
            a.problem = None
            continue
        sh = a.shared
        p, dim = a.p, a.dim
        own_sl = a.sl(a.own_pos)
        par = sh.config.vehicles[a.i - 1]
        prev = _prev_of(sh.config, a.i)
        v, v_prev, z, zp = _tracking(sh.config, sh.state, a.i)
        u_own = a.own(a.u_hat)
        u_prev = _prev_controls(a)

        u_by_block = [a.u_hat[a.sl(b)] for b in range(len(a.blocks))]
        _, grads = local_objective(sh.objectives[a.i - 1], u_by_block)
        a.grad_J = np.concatenate(grads)
        a.L_J = lp["objective"]
        if options.convergent:
            vals, vecs = np.linalg.eigh(
                local_objective_hessian(sh.objectives[a.i - 1], u_by_block))
            model = (vecs * np.maximum(vals, 0.0)) @ vecs.T
        else:
            model = a.L_J * np.eye(dim)

        q, q_grad = speed_constraint_fn(sh.config, par, v, u_own)
        h, g_own, g_prev = safety_constraint_fn(
            sh.config, par, prev, v, v_prev, z, zp, u_own, u_prev, sh.struct)
        quads = []
        for j in range(p):
            b = _embed(dim, [(own_sl, -q_grad[j])])
            quads.append((lp["speed_lower"][j] * np.eye(dim), b,
                          float(sh.config.speed_min - q[j])))
        for j in range(p):
            b = _embed(dim, [(own_sl, q_grad[j])])
            quads.append((np.zeros((dim, dim)), b,
                          float(q[j] - sh.config.speed_max)))
        for j in range(p):
            parts = [(own_sl, g_own[j])]
            if a.i > 1:
                parts.append((a.sl(a.own_pos - 1), g_prev[j]))
            b = _embed(dim, parts)
            quads.append((lp["safety"][j] * np.eye(dim), b, float(h[j])))
        a.problem = ConvexQcqp(model, a.grad_J.copy(),
                               a.lo - a.u_hat, a.hi - a.u_hat, quads)


def warm_start_inner(agents: list[AgentState],
                     options: SolverConfig | None = None,
                     net: LocalExchange | None = None) -> list[float]:
    """Box-only warm-up of an inner stage: with the constraint rows
    dropped the prox is a coordinatewise clip, so rounds are cheap.  The
    splitting state it leaves behind seeds the full stage."""
    options = options or SolverConfig()
    if net is None:
        net = LocalExchange(len(agents))
    saved = [a.problem for a in agents]
    for a in agents:
        a.problem = None
    trace, _ = _run_rounds(agents, options, net, WARM_TOL,
                           options.max_inner)
    for a, prob in zip(agents, saved):
        a.problem = prob
    return trace


# ---------------------------------------------------------------------------
# full solve

@dataclass
class MpcDiagnostics:
    p: int
    outer_iters: int = 0
    inner_iters: int = 0
    lin_rounds: int = 0
    warm_rounds: int = 0
    prox_calls: int = 0
    messages: int = 0
    outer_step: float = np.inf
    inner_residual: float = np.inf
    stationarity: float = np.inf
    consensus_gap: float = np.inf
    violation: float = np.inf
    guard_rounds: int = 0
    # splitting runs that hit max_inner short of their tolerance: warm
    # start attempts, stages, the p = 1 runs and guard runs
    capped_runs: int = 0
    frozen: int = 0
    converged: bool = False
    feasible: bool = False
    wall_time: float = 0.0
    agent_time: list = field(default_factory=list)
    residual_trace: dict = field(default_factory=dict)


@dataclass
class MpcResult:
    u_plan: np.ndarray
    diagnostics: MpcDiagnostics


def _p1_problem(a: AgentState) -> ConvexQcqp:
    """The one-step horizon is exactly quadratic: build the agent's QCQP
    with drag charged at the measured speeds."""
    sh = a.shared
    tau = sh.config.tau
    e = _losses(sh.config, sh.state, a.blocks)
    w_hat = sh.dec.W_hat[a.i - 1]
    m_hat = w_hat - tau * tau * sh.dec.Psi_hat[a.i - 1]
    q = _embed(a.dim, [(a.sl(a.own_pos), sh.model.c_block(a.i))]) - m_hat @ e
    rows = _one_step_rows(sh.config, sh.state, sh.struct, a.i)
    return ConvexQcqp(w_hat, q, a.lo, a.hi,
                      _place(rows, a.i, a.span[0], a.dim, 1))


def _outer_converged(p: int, step: float, scale: float, tol: float) -> bool:
    if step <= tol:
        return True
    if p in (2, 3) and scale > 0.0 and step / scale <= tol:
        return True
    return False


def solve_mpc(agents: list[AgentState],
              options: SolverConfig | None = None,
              state: PlatoonState | None = None) -> MpcResult:
    """Solve one MPC step on the agent graph and return the control plan
    with the splitting diagnostics.  Passing a state re-linearizes the
    local problems around it first."""
    options = options or SolverConfig()
    if state is not None:
        _refresh(agents, state)
    sh = agents[0].shared
    p = agents[0].p
    t0 = time.perf_counter()
    net = LocalExchange(len(agents))
    diag = MpcDiagnostics(p=p)
    for a in agents:
        a.frozen = False
        a.still = 0
        a.prox_calls = 0
        a.prox_time = 0.0

    if p == 1:
        for a in agents:
            a.problem = _p1_problem(a)
        _begin_stage(agents, None, seed="carry")
        tol = options.outer_tol_for(1)
        traces = []
        for attempt in range(GUARD_RETRIES + 1):
            trace, conv = _run_rounds(agents, options, net, tol,
                                      options.max_inner)
            traces += trace
            diag.capped_runs += not conv
            plan = _collect_prox_plan(agents)
            viol = plan_violation(sh.config, sh.state, plan, sh.struct)
            if viol <= options.feas_tol or not conv:
                break
            diag.guard_rounds += 1
            tol /= 10.0
        for a in agents:
            a.carry_z = a.z.copy()
            a.u_hat = np.concatenate(
                [plan[j - 1] for j in a.blocks])
        diag.outer_iters = 1
        diag.inner_iters = len(traces)
        diag.inner_residual = traces[-1] if traces else np.inf
        diag.outer_step = diag.inner_residual
        diag.converged = conv
        diag.residual_trace["rounds"] = [float(r) for r in traces]
    else:
        for a in agents:
            a.metric = (_block_metric(sh.model, a.span)
                        if options.convergent else None)
        plan = warm_start_linear(agents, options, net, diag)
        diag.residual_trace["inner"] = []
        step = np.inf
        tol_outer = options.outer_tol_for(p)
        tol_inner = options.inner_tol_for(p)
        conv = False
        for k in range(options.max_outer):
            scp_step(agents, options)
            base = {a.i: a.own(a.u_hat).copy() for a in agents}
            if options.convergent:
                # the rounds resume from the warm start's state, then from
                # the last stage's, which sit near the next fixed point
                _begin_stage(agents, base, seed="shift")
                trace, inner_ok = _run_rounds(agents, options, net,
                                              tol_inner, options.max_inner,
                                              window=RATE_WINDOW)
            else:
                _begin_stage(agents, base, seed="zero")
                diag.warm_rounds += len(
                    warm_start_inner(agents, options, net))
                trace, inner_ok = _run_rounds(agents, options, net,
                                              tol_inner, options.max_inner)
            diag.inner_iters += len(trace)
            diag.capped_runs += not inner_ok
            diag.residual_trace["inner"].append(
                [float(r) for r in trace])
            diag.inner_residual = trace[-1] if trace else np.inf
            means = {j + 1: row for j, row in
                     enumerate(_collect_plan(agents))}
            step = 0.0
            scale = 0.0
            for a in agents:
                new_local = np.concatenate([means[j] for j in a.blocks])
                a_step = float(np.max(np.abs(new_local - a.u_hat)))
                step = max(step, a_step)
                scale = max(scale, float(np.max(np.abs(new_local))))
                if a_step <= FREEZE_STEP:
                    a.still += 1
                    if a.still >= FREEZE_ROUNDS:
                        a.frozen = True
                else:
                    a.still = 0
                a.u_hat = new_local
            iter_plan = np.vstack([a.own(a.u_hat) for a in agents])
            diag.residual_trace.setdefault("outer_violation", []).append(
                float(plan_violation(sh.config, sh.state, iter_plan,
                                     sh.struct)))
            diag.outer_iters = k + 1
            if _outer_converged(p, step, scale, tol_outer):
                conv = True
                break
        diag.outer_step = step
        diag.converged = conv
        plan = _collect_prox_plan(agents)
        viol = plan_violation(sh.config, sh.state, plan, sh.struct)
        for attempt in range(GUARD_RETRIES):
            if viol <= options.feas_tol:
                break
            diag.guard_rounds += 1
            tol_inner /= 10.0
            trace, conv = _run_rounds(agents, options, net, tol_inner,
                                      options.max_inner)
            diag.inner_iters += len(trace)
            diag.capped_runs += not conv
            means = {j + 1: row for j, row in
                     enumerate(_collect_plan(agents))}
            for a in agents:
                a.u_hat = np.concatenate([means[j] for j in a.blocks])
            plan = _collect_prox_plan(agents)
            viol = plan_violation(sh.config, sh.state, plan, sh.struct)

    diag.violation = plan_violation(sh.config, sh.state, plan, sh.struct)
    diag.feasible = diag.violation <= options.feas_tol
    diag.stationarity = _stationarity(agents)
    diag.consensus_gap = _consensus_gap(agents)
    diag.prox_calls = sum(a.prox_calls for a in agents)
    diag.messages = net.messages
    diag.frozen = sum(a.frozen for a in agents)
    diag.agent_time = [a.prox_time for a in agents]
    diag.wall_time = time.perf_counter() - t0
    return MpcResult(u_plan=plan, diagnostics=diag)


# ---------------------------------------------------------------------------
# centralized references

def solve_centralized_p1(config: PlatoonConfig, weights: WeightSchedule,
                         state: PlatoonState,
                         mu_final: float = 1e-12) -> np.ndarray:
    """High precision reference for the one-step problem: the whole
    platoon solved as a single QCQP."""
    if weights.p != 1:
        raise ValueError("one-step reference needs p == 1")
    model = assemble_quadratic_model(config, weights, state=state)
    n = config.n
    struct = build_structural(n, 1)
    e = _losses(config, state, range(1, n + 1))
    quads = []
    for i in range(1, n + 1):
        quads += _place(_one_step_rows(config, state, struct, i), i, 1, n, 1)
    prob = ConvexQcqp(model.W, model.c - model.V @ e,
                      config.accel_min.astype(float),
                      config.accel_max.astype(float), quads)
    return qcqp_solve(prob, mu_final=mu_final).y


def solve_centralized_linear(config: PlatoonConfig, weights: WeightSchedule,
                             state: PlatoonState,
                             mu_final: float = 1e-11) -> np.ndarray:
    """Reference for the warm-start stage: loss-free cost over the
    restricted sets, solved as one program.  Returns an (n, p) plan."""
    model = assemble_quadratic_model(config, weights, state=state)
    n, p = config.n, weights.p
    struct = build_structural(n, p)
    quads = []
    for i in range(1, n + 1):
        quads += _place(_restricted_rows(config, state, struct, i, p), i, 1,
                        n * p, p)
    prob = ConvexQcqp(model.W, model.c,
                      np.repeat(config.accel_min.astype(float), p),
                      np.repeat(config.accel_max.astype(float), p), quads)
    return qcqp_solve(prob, mu_final=mu_final).y.reshape(n, p)
