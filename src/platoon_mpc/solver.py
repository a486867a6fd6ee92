"""Distributed solution of the horizon control problem.

One agent runs per controlled vehicle.  An agent owns its control sequence
and keeps working copies of its neighbors'; agreement between copies is
reached by Douglas-Rachford splitting over the consensus subspace, with
every cross-agent read carried by a message fabric that only links adjacent
positions.  The splitting iterates of all agents live in one
SplittingState on the agents' SharedContext, as stacked vectors in
ConsensusLayout order; agent i's local vector is the slice
layout.slices[i - 1] of each.  For a one-step horizon the problem is a
convex QCQP and a single splitting run solves it.  For longer horizons
the nonconvex speed and safety rows are replaced by quadratic majorants
around the current iterate and the resulting convex subproblems are
re-solved until the iterates settle; the first iterate comes from the
loss-free cost minimized over inner convex restrictions of the true
constraint sets, so every later iterate inherits feasibility.  When the
caller sets a tolerance, the longer horizons run the convergent variant
of this scheme (see SolverConfig.convergent).  The speed and safety
rows come from the row model of the assembly module, evaluated once per
call for the whole platoon: in plan_violation, for the one-step problems
of a step and for each linearization, where every agent's rows read its
own block and its own copy of its predecessor's.  The restricted rows of
the warm start come from one evaluation for the whole platoon too, and
each linearization evaluates every agent's cost share once.  Rows reach
the QCQP kernel as the stacked arrays they are built as, and the two
exactly convex stages, the one-step horizon and the loss-free warm start,
run through one routine that differs only in the losses it charges and
the tolerances it meets, and hands the owners' prox blocks to the guard.
Every agent applies its prox in every round.

A vehicle's safety rows read its own block and its predecessor's, and
each agent's prox point meets them against its own copy of the
predecessor's block, so the plan assembled from the owners' blocks can
miss a row by the consensus gap.  One guard serves the warm start, the
one-step horizon and the end of the outer loop: while the plan violates
its rows it runs a repair pass down the chain, in which every agent
receives its predecessor's repaired block and projects its own block onto
its rows with that block held fixed.  The rows of the warm start and of
the one-step horizon are exact, so one pass is final there; at longer
horizons every pass first relinearizes at the plan, and passes run while
they lower the violation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .assembly import (DecomposedModel, HorizonRows, LocalObjective,
                       QuadraticModel, StructuralMatrices, WeightSchedule,
                       assemble_quadratic_model, build_local_objectives,
                       build_structural, decompose_model, local_objective,
                       restricted_convex_sets)
from .convex import (ConvexQcqp, QcqpInfeasibleError, QcqpResult, box_prox,
                     qcqp_prox, qcqp_solve)
from .platoon import GRAVITY, PlatoonConfig, PlatoonState

# splitting tolerances per horizon length; the p = 1 entry is the single
# convex run and is kept tight because the closed-loop stationary offsets
# inherit any solver bias roughly 17-fold, the rest split into outer
# (linearization) and inner rounds
OUTER_TOL = {1: 1.0e-5, 2: 6.5e-3, 3: 7.5e-3, 4: 1.0e-2, 5: 1.25e-2}
INNER_TOL = {2: 4.0e-3, 3: 5.0e-3, 4: 7.5e-3, 5: 1.0e-2}
# curvature scaling of the local cost majorants
NU = {2: 0.8, 3: 0.8, 4: 0.9, 5: 0.9}
# relaxation of the splitting rounds, and their step under the identity
# prox metric
ALPHA = 0.9
RHO = 0.1
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
# round tolerance of the box-only warm-up of a calibrated stage
WARM_TOL = 1e-7
# scaling of the curvature bounds of the constraint-row majorants (1.0
# makes them provably global for the row curvatures at hand, smaller
# trades margin for speed)
LIP_FACTOR = 0.9
# the trailing zero the consensus average reads for a missing copy
_ZERO = np.zeros(1)


class LocalityError(RuntimeError):
    """Raised when an agent tries to read or write beyond its neighbors."""


class WarmStartError(RuntimeError):
    """Raised when no feasible first iterate can be produced."""


@dataclass
class SolverConfig:
    """Settings of the splitting scheme that a caller may change: the
    tolerances, which default to the per-p tables above, the round and
    outer-iteration caps, and the violation a returned plan may keep.
    The relaxation ALPHA, the steps RHO and RHO_METRIC, the NU table of
    cost-majorant scalings and LIP_FACTOR are module constants.  A setting
    that cannot work raises ValueError: a tolerance that is not finite and
    positive, a cap below 1, or a negative or non-finite feas_tol."""

    tol_outer: float | None = None
    tol_inner: float | None = None
    max_outer: int = 60
    max_inner: int = 500
    feas_tol: float = 1e-6

    def __post_init__(self) -> None:
        tols = [t for t in (self.tol_outer, self.tol_inner) if t is not None]
        if not all(np.isfinite(t) and t > 0.0 for t in tols):
            raise ValueError("tol_outer and tol_inner must be finite and > 0")
        if self.max_outer < 1 or self.max_inner < 1:
            raise ValueError("max_outer and max_inner must be >= 1")
        if not (np.isfinite(self.feas_tol) and self.feas_tol >= 0.0):
            raise ValueError("feas_tol must be finite and >= 0")

    def outer_tol_for(self, p: int) -> float:
        return self.tol_outer if self.tol_outer is not None else OUTER_TOL[p]

    def inner_tol_for(self, p: int) -> float:
        return self.tol_inner if self.tol_inner is not None else INNER_TOL[p]

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
    """Message fabric between agents.  It refuses non-adjacent pairs and
    counts traffic for the diagnostics.  One fabric serves an agent graph
    for its lifetime (ConsensusLayout.net): the layout checks its fixed
    routes once with check(), and every consensus average counts one
    round, and its messages, with record_round().  A repair pass (see
    _repair) adds its messages and no round.  The counts add up over all
    solves on the graph; solve_mpc reports its own share as the
    difference."""

    def __init__(self, n: int):
        self.n = n
        self.messages = 0
        self.rounds = 0

    def check(self, src: int, dst: int) -> None:
        if not (1 <= src <= self.n and 1 <= dst <= self.n):
            raise LocalityError(f"agent index out of range: {src} -> {dst}")
        if abs(src - dst) > 1:
            raise LocalityError(
                f"agents {src} and {dst} are not adjacent")

    def record_round(self, messages: int) -> None:
        self.messages += messages
        self.rounds += 1


@dataclass
class SharedContext:
    """Problem data common to all agents for the current step.  The
    quadratic weights and their decomposition never change between steps;
    the linear terms and local costs follow the state.  The splitting
    state is built on first use (see _splitting)."""

    config: PlatoonConfig
    weights: WeightSchedule
    struct: StructuralMatrices
    dec: DecomposedModel
    model: QuadraticModel
    objectives: list[LocalObjective]
    state: PlatoonState
    split: "SplittingState | None" = None


@dataclass
class AgentState:
    """One agent: vehicle index, the layout of its local vector (own block
    plus neighbor copies, blocks ascending) and the data of its current
    convex subproblem.  Its splitting iterates are the slice
    shared.split.layout.slices[i - 1] of the stacked SplittingState."""

    i: int
    span: tuple[int, int]
    p: int
    lo: np.ndarray
    hi: np.ndarray
    shared: SharedContext
    problem: ConvexQcqp | None = None
    grad_J: np.ndarray | None = None
    L_J: float = 0.0
    warm: QcqpResult | None = None
    metric: np.ndarray | None = None
    prox_calls: int = 0

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
                    state: PlatoonState) -> list[AgentState]:
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


def _platoon_rows(config: PlatoonConfig, state: PlatoonState,
                  u_own: np.ndarray, u_prev: np.ndarray,
                  struct: StructuralMatrices):
    """The row model of every vehicle at the (n, p) own control sequences
    u_own, whose safety rows read the predecessor sequences u_prev (row 0
    holds the leader's): the HorizonRows, and the safety residuals with
    their Jacobians."""
    rows = HorizonRows(config, config.followers, state.v[1:], u_own)
    return rows, rows.safety(config.predecessors, state.v[:-1],
                             state.spacing_error(config.gap),
                             state.rel_speed(), u_prev, struct)


# ---------------------------------------------------------------------------
# consensus and splitting rounds

class ConsensusLayout:
    """Index plan of the stacked splitting vectors for the agents' fixed
    layout: agent i's local vector is the slice slices[i - 1].  The
    consensus average appends one trailing zero to the stacked z and
    reads, for each entry of each block, its copies in ascending agent
    order: row h of copy_idx is the h-th holder's copy, or the trailing
    zero when the block has fewer holders.  scatter maps every stacked
    entry to its entry of the flat (n, p) plan, own maps the plan back to
    each owner's block, and owner maps every stacked entry to the owner's
    copy of it.  Row i - 1 of prev holds agent i's copy of its
    predecessor's block; the first agent's predecessor is the leader, so
    its row points one past the stacked vector, where callers append the
    leader's control.  The layout owns the agents' message fabric, net:
    building the plan checks every route against it, so a copy held
    beyond a neighbor raises LocalityError; a round then sends one
    message out and one back per held copy."""

    def __init__(self, agents: list[AgentState]):
        p, n = agents[0].p, len(agents)
        self.net = net = LocalExchange(n)
        # (agent, start of its copy in the stacked z) for every block
        holders: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        self.slices = []
        self.own = np.empty(n * p, dtype=int)
        self.prev = np.empty((n, p), dtype=int)
        start = copies = 0
        for a in agents:
            for pos, j in enumerate(a.blocks):
                if j != a.i:
                    net.check(a.i, j)
                    net.check(j, a.i)
                    copies += 1
                holders[j - 1].append((a.i, start + pos * p))
            self.own[(a.i - 1) * p:a.i * p] = (start + a.own_pos * p
                                               + np.arange(p))
            self.prev[a.i - 1] = start + (a.own_pos - 1) * p + np.arange(p)
            self.slices.append(slice(start, start + a.dim))
            start += a.dim
        self.copy_idx = np.full((max(map(len, holders)), n * p), start)
        for j, held in enumerate(holders):
            for h, (_, first) in enumerate(sorted(held)):
                self.copy_idx[h, j * p:(j + 1) * p] = first + np.arange(p)
        self.prev[0] = start
        self.count = np.repeat([float(len(held)) for held in holders], p)
        self.scatter = np.concatenate(
            [np.arange((j - 1) * p, j * p) for a in agents for j in a.blocks])
        self.owner = self.own[self.scatter]
        self.messages = 2 * copies
        self.shape = (n, p)


class SplittingState:
    """The splitting iterates of all agents, stacked in layout order:
    u_hat, the point the current stage is linearized at; base, the stage's
    origin, and olo/ohi, the boxes in offsets from it; the consensus
    iterate z, the average w and the previous one w_prev; y, the last prox
    outputs; carry_z, the z that the last p = 1 run or warm start ended
    with, from which the next step's run resumes.  w, w_prev and y are
    None until the rounds of the current stage have produced them."""

    def __init__(self, agents: list[AgentState]):
        self.layout = ConsensusLayout(agents)
        self.lo = np.concatenate([a.lo for a in agents])
        self.hi = np.concatenate([a.hi for a in agents])
        self.u_hat = np.zeros(self.lo.size)
        self.base = np.zeros(self.lo.size)
        self.olo = self.lo.copy()
        self.ohi = self.hi.copy()
        self.z = np.zeros(self.lo.size)
        self.w = self.w_prev = self.y = self.carry_z = None


def _splitting(agents: list[AgentState]) -> SplittingState:
    """The agents' splitting state, built on first use, which checks every
    route (see ConsensusLayout)."""
    sh = agents[0].shared
    if sh.split is None:
        sh.split = SplittingState(agents)
    return sh.split


def _average(st: SplittingState) -> np.ndarray:
    """Average every vehicle's copies at its owner and hand the mean back.
    Copies are summed in ascending agent order, starting from zero, so
    the result does not depend on agent scheduling.  Sets w (and w_prev)
    and returns the block means as a flat (n, p) plan; the round and its
    messages are counted on the layout's fabric."""
    lay = st.layout
    copies = np.concatenate((st.z, _ZERO))[lay.copy_idx]
    total = 0.0 + copies[0]
    for row in copies[1:]:
        total += row
    means = total / lay.count
    st.w_prev, st.w = st.w, means[lay.scatter]
    lay.net.record_round(lay.messages)
    return means


def _agent_prox(a: AgentState, anchor: np.ndarray, olo: np.ndarray,
                ohi: np.ndarray) -> np.ndarray:
    a.prox_calls += 1
    rho = RHO if a.metric is None else RHO_METRIC
    if a.problem is None:
        # box-only warm-up: scp_step has set grad_J and L_J
        return box_prox(np.full(a.dim, a.L_J + 1.0 / rho),
                        a.grad_J - anchor / rho, olo, ohi)
    try:
        a.warm = qcqp_prox(a.problem, anchor, rho, warm=a.warm,
                           metric=a.metric)
    except QcqpInfeasibleError as err:
        raise QcqpInfeasibleError(f"agent {a.i}: {err}") from err
    return a.warm.y


def dr_round(agents: list[AgentState]) -> float:
    """One synchronous splitting round: average the copies, then every
    agent applies its prox to its slice of the reflected iterate.  Returns
    the largest change of the consensus average (inf on the first round
    of a stage)."""
    st = _splitting(agents)
    _average(st)
    resid = np.inf
    if st.w_prev is not None:
        resid = float(np.max(np.abs(st.w - st.w_prev)))
    anchor = 2.0 * st.w - st.z
    st.y = np.concatenate([
        _agent_prox(a, anchor[sl], st.olo[sl], st.ohi[sl])
        for a, sl in zip(agents, st.layout.slices)])
    st.z = st.z + 2.0 * ALPHA * (st.y - st.w)
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


def _run_rounds(agents, tol, max_rounds, window=0):
    """Splitting rounds until the residual is at most tol, or, with a
    window, until the distance estimate over that window is.  Returns the
    residuals of the rounds and whether the run converged."""
    trace = []
    converged = False
    for _ in range(max_rounds):
        resid = dr_round(agents)
        if np.isfinite(resid):
            trace.append(resid)
            est = _distance_estimate(trace, window) if window else resid
            if est <= tol:
                converged = True
                break
    return trace, converged


def _begin_stage(agents: list[AgentState], plan: np.ndarray | None,
                 seed: str = "zero") -> SplittingState:
    """Reset the splitting state for a new stage around the (n, p) plan,
    or around zero, and return it.  All copies of a block share one base
    vector, so consensus in offset coordinates is exact.  The "shift" seed
    keeps the last stage's state and moves it to offsets from the new
    base."""
    st = _splitting(agents)
    old_base = st.base
    st.base = (np.zeros(st.lo.size) if plan is None
               else plan.ravel()[st.layout.scatter])
    st.olo = st.lo - st.base
    st.ohi = st.hi - st.base
    if seed == "shift":
        st.z = st.z + old_base - st.base
    elif seed == "carry" and st.carry_z is not None:
        st.z = st.carry_z.copy()
    else:
        st.z = np.zeros(st.lo.size)
    st.w = st.w_prev = st.y = None
    return st


def _collect_plan(st: SplittingState) -> np.ndarray:
    """The per-vehicle control sequences at the current consensus point."""
    return (st.base + st.w)[st.layout.own].reshape(st.layout.shape)


def _collect_prox_plan(st: SplittingState) -> np.ndarray:
    """Per-vehicle control sequences read from each owner's last prox
    output.  When a constraint row is active the consensus average sits
    slightly outside the feasible set, while the prox point satisfies the
    owner's rows by construction, so the returned plan is the one to
    check and apply."""
    y = st.y if st.y is not None else st.w
    return (st.base + y)[st.layout.own].reshape(st.layout.shape)


def _consensus_gap(st: SplittingState) -> float:
    """Worst disagreement between a prox copy and the owner's prox block."""
    if st.y is None:
        return 0.0
    return float(np.max(np.abs(st.y - st.y[st.layout.owner])))


def _stationarity(st: SplittingState) -> float:
    """Fixed-point gap of the splitting at exit: prox output vs consensus."""
    if st.y is None or st.w is None:
        return np.inf
    return float(np.max(np.abs(st.y - st.w)))


# ---------------------------------------------------------------------------
# constraint evaluation at a full plan

def plan_violation(config: PlatoonConfig, state: PlatoonState,
                   u_plan: np.ndarray, struct: StructuralMatrices) -> float:
    """Worst violation of the boxes, speed band and safety rows of the
    horizon model at a full (n, p) control plan, from one evaluation of the
    whole platoon's rows; 0.0 when every row holds, inf when a plan entry
    or a row value is not finite."""
    u_prev = np.vstack((np.full((1, u_plan.shape[1]), state.u0),
                        u_plan[:-1]))
    rows, (h, _, _) = _platoon_rows(config, state, u_plan, u_prev, struct)
    if not (np.isfinite(u_plan).all() and np.isfinite(rows.q).all()
            and np.isfinite(h).all()):
        return np.inf
    return max(0.0, float(np.max(config.accel_min[:, None] - u_plan)),
               float(np.max(u_plan - config.accel_max[:, None])),
               float(np.max(config.speed_min - rows.q)),
               float(np.max(rows.q - config.speed_max)),
               float(np.max(h)))


# ---------------------------------------------------------------------------
# constraint rows of the exactly convex problems
#
# Vehicle i's speed and safety rows involve only its own controls and its
# predecessor's.  The builders return the rows of every vehicle as stacks
# along a leading vehicle axis, A (n, m, 2p, 2p), b (n, m, 2p) and c (n, m)
# over its (predecessor, own) blocks of p steps each (p = 1 for the
# one-step rows); the first vehicle's predecessor is the leader, whose
# columns are not read.  _place writes one vehicle's stacks into an
# agent's local vector or into the whole platoon's, so the split and the
# unsplit problems share the rows, and the kernel takes them as stacks.

def _losses(config: PlatoonConfig, state: PlatoonState) -> np.ndarray:
    """Drag and rolling losses of every vehicle at its measured speed."""
    return config.drag * state.v[1:] ** 2 + config.roll * GRAVITY


def _one_step_rows(config: PlatoonConfig, state: PlatoonState,
                   struct: StructuralMatrices) -> tuple:
    """Speed band and safety row of every vehicle at the one-step horizon,
    which is exactly quadratic: drag is charged at the measured speed and
    the safety row is expanded around u = 0.  One evaluation of the
    platoon's rows gives all of them, as (n, 3, 2, 2), (n, 3, 2) and
    (n, 3) stacks."""
    tau, n, v = config.tau, config.n, state.v[1:]
    e = _losses(config, state)
    u_prev0 = np.zeros((n, 1))
    u_prev0[0] = state.u0
    rows, (h0, g_own0, g_prev0) = _platoon_rows(
        config, state, np.zeros((n, 1)), u_prev0, struct)
    own_h, _ = rows.hessians(config.predecessors, struct)
    # columns (predecessor, own); the first vehicle keeps the own column
    b = np.zeros((n, 3, 2))
    b[:, :2, 1] = (-tau, tau)
    b[1:, 2, 0] = g_prev0[1:, 0, 0]
    b[:, 2, 1] = g_own0[:, 0, 0]
    A = np.zeros((n, 3, 2, 2))
    A[:, 2, 1, 1] = own_h[:, 0, 0, 0]
    c = np.stack([config.speed_min - v + tau * e,
                  v - tau * e - config.speed_max, h0[:, 0]], axis=1)
    return A, b, c


def _restricted_rows(config: PlatoonConfig, state: PlatoonState,
                     struct: StructuralMatrices, p: int) -> tuple:
    """Inner convex restrictions of every vehicle's horizon rows, from one
    evaluation of the platoon's restricted sets, as (n, 3p, 2p, 2p),
    (n, 3p, 2p) and (n, 3p) stacks: the cumulative-control corridor of its
    speed band, the low and the high row of each step in turn, then the
    convex safety rows."""
    rs = restricted_convex_sets(config, state, p, struct)
    n = config.n
    A = np.zeros((n, 3 * p, 2 * p, 2 * p))
    A[:, 2 * p:] = rs.A
    b = np.zeros((n, 3 * p, 2 * p))
    b[:, 0:2 * p:2, p:] = -struct.S_p
    b[:, 1:2 * p:2, p:] = struct.S_p
    b[:, 2 * p:] = rs.b
    c = np.concatenate([np.stack([rs.cum_lo, -rs.cum_hi], axis=-1)
                        .reshape(n, 2 * p), rs.c], axis=1)
    return A, b, c


def _place(rows: tuple, i: int, first: int, dim: int, p: int) -> tuple:
    """Vehicle i's stacks of the platoon's rows written into dim-vectors
    whose first block holds vehicle `first` (1-based): an agent's local
    vector, or with first = 1 the whole platoon's."""
    A, b, c = (r[i - 1] for r in rows)
    w = p if i == 1 else 2 * p
    start = (max(i - 1, 1) - first) * p
    idx = slice(start, start + w)
    A_out = np.zeros((c.size, dim, dim))
    A_out[:, idx, idx] = A[:, -w:, -w:]
    b_out = np.zeros((c.size, dim))
    b_out[:, idx] = b[:, -w:]
    return A_out, b_out, c


def _exact_problems(agents: list[AgentState], rows: tuple,
                    e: np.ndarray) -> None:
    """Build every agent's QCQP of an exactly convex stage from the
    platoon's rows: its cost share with the losses e (n, p) charged, and
    its vehicle's rows.  The one-step horizon charges the losses at the
    measured speeds; the loss-free warm start charges none."""
    sh = agents[0].shared
    for a in agents:
        q = np.zeros(a.dim)
        q[a.sl(a.own_pos)] = sh.model.c_block(a.i)
        q -= sh.objectives[a.i - 1].M @ e[a.span[0] - 1:a.span[1]].ravel()
        a.problem = ConvexQcqp(sh.dec.W_hat[a.i - 1], q, a.lo, a.hi,
                               *_place(rows, a.i, a.span[0], a.dim, a.p))


# ---------------------------------------------------------------------------
# feasibility guard: repair passes down the chain

def _repair(agents: list[AgentState], plan: np.ndarray) -> np.ndarray:
    """One pass down the chain: agent i receives its predecessor's
    repaired block, one message over a route the layout has checked,
    holds the rest of its local vector at the (n, p) plan and projects
    its own block onto the rows of its current problem, which are in
    offsets from the stage base.  Returns the repaired plan."""
    st = _splitting(agents)
    lay = st.layout
    lay.net.messages += len(agents) - 1
    out = plan.copy()
    for a, sl in zip(agents, lay.slices):
        own = a.sl(a.own_pos)
        x = out.ravel()[lay.scatter[sl]] - st.base[sl]
        q = -x[own]
        x[own] = 0.0
        prob = a.problem
        A, b = prob.A, prob.b
        sub = ConvexQcqp(np.eye(a.p), q, prob.lo[own], prob.hi[own],
                         A[:, own, own], b[:, own] + A[:, own] @ x,
                         prob.c + b @ x + 0.5 * (A @ x) @ x)
        out[a.i - 1] = st.base[sl][own] + qcqp_solve(sub).y
    return out


def _guard(agents: list[AgentState], plan: np.ndarray, tol: float,
           diag: "MpcDiagnostics",
           options: SolverConfig | None = None) -> tuple:
    """Repair passes while the plan violates its rows by more than tol;
    a pass is kept only if it lowers the violation, and the guard stops
    at the first that does not.  The agents' problems hold the exact rows
    unless options are given: then every pass first relinearizes at the
    plan (scp_step), and otherwise one pass is final.  Returns the plan
    and its violation; the passes run go to diag.guard_rounds."""
    sh = agents[0].shared
    st = _splitting(agents)
    viol = plan_violation(sh.config, sh.state, plan, sh.struct)
    while viol > tol:
        if options is not None:
            st.u_hat = st.base = plan.ravel()[st.layout.scatter]
            scp_step(agents, options)
        diag.guard_rounds += 1
        try:
            fixed = _repair(agents, plan)
        except QcqpInfeasibleError:
            break
        fixed_viol = plan_violation(sh.config, sh.state, fixed, sh.struct)
        if fixed_viol >= viol:
            break
        plan, viol = fixed, fixed_viol
        if options is None:
            break
    return plan, viol


def _exact_run(agents: list[AgentState], rows: tuple, e: np.ndarray,
               tol: float, guard_tol: float, options: SolverConfig,
               diag: "MpcDiagnostics") -> tuple:
    """One run of an exactly convex stage, the one-step horizon or the
    loss-free warm start, on the problems of _exact_problems: the rounds
    resume from carry_z and run to tol, their end state becomes the next
    carry_z, a capped run is counted in diag, and the owners' prox blocks
    go to the guard at guard_tol.  Returns the plan, its violation, the
    residual trace and whether the rounds converged."""
    _exact_problems(agents, rows, e)
    st = _begin_stage(agents, None, seed="carry")
    trace, conv = _run_rounds(agents, tol, options.max_inner)
    st.carry_z = st.z.copy()
    diag.capped_runs += not conv
    plan, viol = _guard(agents, _collect_prox_plan(st), guard_tol, diag)
    return plan, viol, trace, conv


# ---------------------------------------------------------------------------
# warm start: loss-free cost over restricted convex sets

def warm_start_linear(agents: list[AgentState],
                      options: SolverConfig | None = None,
                      diag: "MpcDiagnostics | None" = None) -> np.ndarray:
    """First iterate: minimize the loss-free quadratic cost over the inner
    convex restrictions of the horizon constraints, by splitting rounds
    (_exact_run).  The owners' prox blocks are checked against the true
    rows and repaired if they miss one (see _guard).  The rounds of this
    call, its capped run and its repair passes go to diag when given."""
    options = options or SolverConfig()
    sh, p = agents[0].shared, agents[0].p
    diag = diag or MpcDiagnostics(p=p)
    st = _splitting(agents)
    rounds0 = st.layout.net.rounds
    plan, gap, _, _ = _exact_run(
        agents, _restricted_rows(sh.config, sh.state, sh.struct, p),
        np.zeros((sh.config.n, p)), LIN_TOL, GUARD_TOL, options, diag)
    if gap > GUARD_TOL:
        raise WarmStartError(
            f"restricted stage kept violation {gap:.2e} above "
            f"{GUARD_TOL:.0e} after its repair")
    diag.lin_rounds = st.layout.net.rounds - rounds0
    st.u_hat = plan.ravel()[st.layout.scatter]
    return plan


# ---------------------------------------------------------------------------
# linearization of one outer step

def scp_step(agents: list[AgentState],
             options: SolverConfig | None = None) -> None:
    """Relinearize every agent at its current iterate: gradient and
    curvature bound nu * ||local cost Hessian|| of the local cost, plus
    one quadratic majorant row per speed/safety constraint, all expressed
    in offsets from the iterate.  The lower speed and the safety rows
    carry LIP_FACTOR times the norm of their Hessian as curvature; the
    upper speed rows are concave in no direction that matters and enter
    through their convex negatives, which need none.  The convergent
    scheme models the cost by its Hessian instead, with the negative
    eigenvalues clipped to zero: the summed models bound the cost's
    curvature from above at the iterate, and the stages take Newton-like
    steps instead of crawling along the lightly weighted horizon steps."""
    options = options or SolverConfig()
    st = _splitting(agents)
    lay = st.layout
    sh = agents[0].shared
    config, struct, p = sh.config, sh.struct, agents[0].p
    # every agent's rows read its own block and its copy of its
    # predecessor's, both from its local vector
    rows, (h, g_own, g_prev) = _platoon_rows(
        config, sh.state, st.u_hat[lay.own].reshape(lay.shape),
        np.append(st.u_hat, sh.state.u0)[lay.prev], struct)
    own_h, prev_h = rows.hessians(config.predecessors, struct)

    def bound(hess):
        return LIP_FACTOR * np.abs(np.linalg.eigvalsh(hess)).max(axis=-1)

    # per agent: curvature, affine part and constant of the 3p rows, lower
    # speed, upper speed, safety; the affine parts in stacked coordinates
    curv = np.concatenate([bound(rows.speed_hessians(struct)),
                           np.zeros((config.n, p)),
                           np.maximum(bound(own_h), bound(prev_h))], axis=1)
    const = np.concatenate([config.speed_min - rows.q,
                            rows.q - config.speed_max, h], axis=1)
    B = np.zeros((3 * p, st.u_hat.size + 1))
    B[:, lay.own.reshape(lay.shape)] = np.concatenate(
        [-rows.q_grad, rows.q_grad, g_own], axis=1).transpose(1, 0, 2)
    B[2 * p:, lay.prev] = g_prev.transpose(1, 0, 2)
    for a, sl, a_curv, a_const in zip(agents, lay.slices, curv, const):
        u_loc = st.u_hat[sl]
        u_by_block = [u_loc[a.sl(b)] for b in range(len(a.blocks))]
        _, grads, hj = local_objective(sh.objectives[a.i - 1], u_by_block)
        a.grad_J = np.concatenate(grads)
        if options.convergent:
            vals, vecs = np.linalg.eigh(hj)
            model = (vecs * np.maximum(vals, 0.0)) @ vecs.T
        else:
            a.L_J = NU[p] * float(np.max(np.abs(np.linalg.eigvalsh(hj))))
            model = a.L_J * np.eye(a.dim)
        a.problem = ConvexQcqp(model, a.grad_J.copy(),
                               a.lo - u_loc, a.hi - u_loc,
                               a_curv[:, None, None] * np.eye(a.dim),
                               B[:, sl], a_const)


def warm_start_inner(agents: list[AgentState],
                     options: SolverConfig | None = None) -> None:
    """Box-only warm-up of an inner stage: with the constraint rows
    dropped the prox is a coordinatewise clip, so rounds are cheap.  The
    splitting state it leaves behind seeds the full stage."""
    options = options or SolverConfig()
    saved = [a.problem for a in agents]
    for a in agents:
        a.problem = None
    _run_rounds(agents, WARM_TOL, options.max_inner)
    for a, prob in zip(agents, saved):
        a.problem = prob


# ---------------------------------------------------------------------------
# full solve

@dataclass
class MpcDiagnostics:
    p: int
    outer_iters: int = 0
    # splitting rounds run: lin_rounds in the loss-free warm start,
    # warm_rounds in the box-only warm-ups, inner_iters in all the others
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
    # repair passes of the feasibility guards, the warm start's included
    guard_rounds: int = 0
    # splitting runs that hit max_inner short of their tolerance: the warm
    # start, the stages and the p = 1 run
    capped_runs: int = 0
    converged: bool = False
    feasible: bool = False
    wall_time: float = 0.0
    # worst violation of the true rows by each outer iterate's plan
    outer_violation: list = field(default_factory=list)


@dataclass
class MpcResult:
    u_plan: np.ndarray
    diagnostics: MpcDiagnostics


def _outer_converged(p: int, step: float, scale: float, tol: float) -> bool:
    return step <= tol or (p in (2, 3) and scale > 0.0 and step / scale <= tol)


def solve_mpc(agents: list[AgentState],
              options: SolverConfig | None = None,
              state: PlatoonState | None = None) -> MpcResult:
    """Solve one MPC step on the agent graph and return the control plan
    with the splitting diagnostics.  Passing a state re-linearizes the
    local problems around it first.  The round and message counters of
    the diagnostics are this call's share of the agent graph's fabric,
    which counts over all solves on the graph."""
    options = options or SolverConfig()
    if state is not None:
        _refresh(agents, state)
    sh = agents[0].shared
    p = agents[0].p
    t0 = time.perf_counter()
    st = _splitting(agents)
    net = st.layout.net
    rounds0, messages0 = net.rounds, net.messages
    diag = MpcDiagnostics(p=p)
    for a in agents:
        a.prox_calls = 0

    if p == 1:
        plan, viol, trace, conv = _exact_run(
            agents, _one_step_rows(sh.config, sh.state, sh.struct),
            _losses(sh.config, sh.state)[:, None], options.outer_tol_for(1),
            options.feas_tol, options, diag)
        diag.outer_iters = 1
        diag.inner_residual = diag.outer_step = trace[-1] if trace else np.inf
        diag.converged = conv
    else:
        for a in agents:
            a.metric = (_block_metric(sh.model, a.span)
                        if options.convergent else None)
        plan = warm_start_linear(agents, options, diag)
        step = np.inf
        tol_outer = options.outer_tol_for(p)
        tol_inner = options.inner_tol_for(p)
        conv = False
        for k in range(options.max_outer):
            scp_step(agents, options)
            if options.convergent:
                # the rounds resume from the warm start's state, then from
                # the last stage's, which sit near the next fixed point
                _begin_stage(agents, plan, seed="shift")
                trace, inner_ok = _run_rounds(agents, tol_inner,
                                              options.max_inner,
                                              window=RATE_WINDOW)
            else:
                _begin_stage(agents, plan, seed="zero")
                warm0 = net.rounds
                warm_start_inner(agents, options)
                diag.warm_rounds += net.rounds - warm0
                trace, inner_ok = _run_rounds(agents, tol_inner,
                                              options.max_inner)
            diag.capped_runs += not inner_ok
            diag.inner_residual = trace[-1] if trace else np.inf
            plan = _collect_plan(st)
            u_hat = plan.ravel()[st.layout.scatter]
            step = float(np.max(np.abs(u_hat - st.u_hat)))
            scale = float(np.max(np.abs(u_hat)))
            st.u_hat = u_hat
            diag.outer_violation.append(
                plan_violation(sh.config, sh.state, plan, sh.struct))
            diag.outer_iters = k + 1
            if _outer_converged(p, step, scale, tol_outer):
                conv = True
                break
        diag.outer_step = step
        diag.converged = conv
        plan, viol = _guard(agents, _collect_prox_plan(st),
                            options.feas_tol, diag, options)

    diag.inner_iters = (net.rounds - rounds0 - diag.lin_rounds
                        - diag.warm_rounds)
    diag.violation = viol
    diag.feasible = diag.violation <= options.feas_tol
    diag.stationarity = _stationarity(st)
    diag.consensus_gap = _consensus_gap(st)
    diag.prox_calls = sum(a.prox_calls for a in agents)
    diag.messages = net.messages - messages0
    diag.wall_time = time.perf_counter() - t0
    return MpcResult(u_plan=plan, diagnostics=diag)


# ---------------------------------------------------------------------------
# centralized references

def solve_centralized_p1(config: PlatoonConfig, weights: WeightSchedule,
                         state: PlatoonState) -> np.ndarray:
    """High precision reference for the one-step problem: the whole
    platoon solved as a single QCQP."""
    if weights.p != 1:
        raise ValueError("one-step reference needs p == 1")
    model = assemble_quadratic_model(config, weights, state=state)
    n = config.n
    struct = build_structural(n, 1)
    rows = _one_step_rows(config, state, struct)
    placed = [_place(rows, i, 1, n, 1) for i in range(1, n + 1)]
    prob = ConvexQcqp(model.W, model.c - model.V @ _losses(config, state),
                      config.accel_min.astype(float),
                      config.accel_max.astype(float),
                      *map(np.concatenate, zip(*placed)))
    return qcqp_solve(prob, mu_final=1e-12).y


def solve_centralized_linear(config: PlatoonConfig, weights: WeightSchedule,
                             state: PlatoonState) -> np.ndarray:
    """Reference for the warm-start stage: loss-free cost over the
    restricted sets, solved as one program.  Returns an (n, p) plan."""
    model = assemble_quadratic_model(config, weights, state=state)
    n, p = config.n, weights.p
    struct = build_structural(n, p)
    rows = _restricted_rows(config, state, struct, p)
    placed = [_place(rows, i, 1, n * p, p) for i in range(1, n + 1)]
    prob = ConvexQcqp(model.W, model.c,
                      np.repeat(config.accel_min.astype(float), p),
                      np.repeat(config.accel_max.astype(float), p),
                      *map(np.concatenate, zip(*placed)))
    return qcqp_solve(prob).y.reshape(n, p)
