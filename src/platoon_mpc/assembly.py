"""Horizon cost assembly for the platoon controller.

The decision vector stacks per-vehicle control sequences (vehicle-major):
u = (u_1, ..., u_n) with u_i in R^p ordered by time.  The spacing error
and relative-speed recursions are linear in the effective accelerations,
so the tracking cost is an explicit quadratic in the stacked accelerations
with state-independent curvature.  This module builds that quadratic, its
per-vehicle decomposition, and the horizon constraint rows used by the
solver.  The decomposition is exact and PSD for every WeightSchedule: the
curvature is W = sum_i d_i^T Q_i d_i, where d_i picks vehicle i's
accelerations relative to its predecessor's and each Q_i is PSD (qz,
qzp >= 0, qw > 0), so agent i's share, half of each term that reads its
vehicle, is PSD; Psi has the same form with qw alone.

Each vehicle's cost share and constraint rows read only its own and its
predecessor's controls, and three models follow from this, each with one
entry point:
- the local cost share: local_objective gives its value, gradients and
  Hessian in one pass;
- the restricted (inner convex) rows of the warm start:
  restricted_convex_sets builds every vehicle's in one broadcast;
- the horizon rows: HorizonRows serves one vehicle or, given stacked
  parameters (platoon.stack_params), the whole platoon along a leading
  axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .platoon import GRAVITY, PlatoonConfig, PlatoonState, VehicleParams


@dataclass
class WeightSchedule:
    """Stage weights over the horizon.  Row s (0-based) holds the weights
    for prediction stage s+1; columns follow vehicle order.

    qz:  spacing-error weights, >= 0
    qzp: relative-speed weights, >= 0
    qw:  ride-comfort weights on relative controls, > 0
    """

    qz: np.ndarray
    qzp: np.ndarray
    qw: np.ndarray

    def __post_init__(self) -> None:
        self.qz = np.atleast_2d(np.asarray(self.qz, dtype=float))
        self.qzp = np.atleast_2d(np.asarray(self.qzp, dtype=float))
        self.qw = np.atleast_2d(np.asarray(self.qw, dtype=float))
        if not (self.qz.shape == self.qzp.shape == self.qw.shape):
            raise ValueError("weight arrays must share one (p, n) shape")
        if np.any(self.qz < 0) or np.any(self.qzp < 0):
            raise ValueError("qz and qzp must be nonnegative")
        if np.any(self.qw <= 0):
            raise ValueError("qw must be strictly positive")

    @property
    def p(self) -> int:
        return self.qz.shape[0]

    @property
    def n(self) -> int:
        return self.qz.shape[1]


@dataclass
class StructuralMatrices:
    """Index-only matrices for a platoon of n vehicles and horizon p."""

    n: int
    p: int
    S_n_inv: np.ndarray    # first-difference inverse
    S_p: np.ndarray        # cumulative sum over the horizon
    S_p_shift: np.ndarray  # one-step-delayed cumulative sum
    R_p: np.ndarray        # odd-number kernel of the double integrator
    E: np.ndarray          # vehicle-major -> time-major permutation


def build_structural(n: int, p: int) -> StructuralMatrices:
    if n < 1 or p < 1:
        raise ValueError("need n >= 1 and p >= 1")
    S_n_inv = np.eye(n) - np.diag(np.ones(n - 1), -1) if n > 1 else np.eye(1)
    steps = np.arange(p)
    R_p = np.tril(2.0 * np.subtract.outer(steps, steps) + 1.0)
    # time-major row n * k + s reads vehicle-major entry p * s + k
    rows = np.arange(n * p)
    E = np.eye(n * p)[p * (rows % n) + rows // n]
    return StructuralMatrices(n, p, S_n_inv, np.tri(p), np.tri(p, k=-1),
                              R_p, E)


@dataclass
class QuadraticModel:
    """Exact quadratic form of the horizon cost in stacked accelerations:
    J = 1/2 a^T W a + c^T a + gamma + (tau^2/2) (u^T Psi u - a^T Psi a)
    with a the stacked effective accelerations of u.  W and Psi depend only
    on (n, p, tau, weights); c and gamma carry the state and u0."""

    n: int
    p: int
    tau: float
    W: np.ndarray
    Psi: np.ndarray
    V: np.ndarray
    c: np.ndarray
    gamma: float
    struct: StructuralMatrices

    def c_block(self, i: int) -> np.ndarray:
        """Linear coefficients on vehicle i's accelerations (i is 1-based)."""
        return self.c[(i - 1) * self.p: i * self.p]


def _sym(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.T)


def assemble_quadratic_model(config: PlatoonConfig, weights: WeightSchedule,
                             state: PlatoonState | None = None,
                             z: np.ndarray | None = None,
                             z_prime: np.ndarray | None = None,
                             u0: float | None = None) -> QuadraticModel:
    """Accumulate the horizon cost coefficients stage by stage.

    The spacing-error and relative-speed predictions are affine in the
    time-stacked accelerations; their quadratic stage costs are summed in
    time-major order and permuted to vehicle-major order at the end.
    """
    n, p, tau = config.n, weights.p, config.tau
    if weights.n != n:
        raise ValueError("weight schedule does not match platoon size")
    st = build_structural(n, p)

    if state is not None:
        z_state = state.spacing_error(config.gap)
        zp_state = state.rel_speed()
        if z is None:
            z = z_state
        elif np.max(np.abs(z - z_state)) > 1e-9:
            raise ValueError("z disagrees with state positions")
        if z_prime is None:
            z_prime = zp_state
        elif np.max(np.abs(z_prime - zp_state)) > 1e-9:
            raise ValueError("z_prime disagrees with state speeds")
        if u0 is None:
            u0 = state.u0
    if z is None or z_prime is None or u0 is None:
        raise ValueError("need either a state or (z, z_prime, u0)")
    z = np.asarray(z, dtype=float)
    zp = np.asarray(z_prime, dtype=float)

    np_dim = n * p
    e1 = np.zeros(n)
    e1[0] = 1.0
    kappa = 0.5 * st.R_p  # stage weights of the double integrator

    # ride-comfort curvature on relative accelerations, time-major
    psi_t = np.zeros((np_dim, np_dim))
    for s in range(p):
        block = st.S_n_inv.T @ np.diag(weights.qw[s]) @ st.S_n_inv
        psi_t[s * n:(s + 1) * n, s * n:(s + 1) * n] = block

    w_t = tau * tau * psi_t.copy()
    c_t = np.zeros(np_dim)
    gamma = 0.0
    for j in range(1, p + 1):
        # z(k+j) = beta_j + A_j a_t,  z'(k+j) = beta_pj + B_j a_t
        a_j = np.zeros((n, np_dim))
        b_j = np.zeros((n, np_dim))
        for s in range(j):
            a_j[:, s * n:(s + 1) * n] = -tau * tau * kappa[j - 1, s] * st.S_n_inv
            b_j[:, s * n:(s + 1) * n] = -tau * st.S_n_inv
        beta_j = z + j * tau * zp + u0 * tau * tau * 0.5 * j * j * e1
        beta_pj = zp + u0 * tau * j * e1
        qz_j = weights.qz[j - 1]
        qzp_j = weights.qzp[j - 1]
        w_t += a_j.T @ (qz_j[:, None] * a_j) + b_j.T @ (qzp_j[:, None] * b_j)
        c_t += a_j.T @ (qz_j * beta_j) + b_j.T @ (qzp_j * beta_pj)
        gamma += 0.5 * (beta_j @ (qz_j * beta_j) + beta_pj @ (qzp_j * beta_pj))

    W = _sym(st.E.T @ w_t @ st.E)
    Psi = _sym(st.E.T @ psi_t @ st.E)
    c = st.E.T @ c_t
    # curvature must be positive definite under the weight assumptions
    np.linalg.cholesky(W + 1e-12 * np.eye(np_dim))
    return QuadraticModel(n, p, tau, W, Psi, W - tau * tau * Psi, c,
                          float(gamma), st)


# ---------------------------------------------------------------------------
# per-vehicle decomposition

@dataclass
class DecomposedModel:
    """Per-vehicle splitting of W and Psi.  Agent i's block covers vehicles
    span[i] (1-based, inclusive); blocks overlap on shared vehicles and sum
    back to the full matrices.  Each matrix is sum_i d_i^T Q_i d_i with
    d_i vehicle i's relative accelerations and Q_i PSD, and agent i holds
    half of terms i and i + 1 (agent 1 all of term 1), so every block is
    PSD (see _rank_split)."""

    n: int
    p: int
    spans: list[tuple[int, int]]
    W_hat: list[np.ndarray]
    Psi_hat: list[np.ndarray]


def _block(mat: np.ndarray, p: int, i: int, j: int) -> np.ndarray:
    """p x p block for (1-based) vehicle pair (i, j)."""
    return mat[(i - 1) * p: i * p, (j - 1) * p: j * p]


def _spans(n: int) -> list[tuple[int, int]]:
    return [(max(1, i - 1), min(n, i + 1)) for i in range(1, n + 1)]


def _rank_split(mat: np.ndarray, n: int, p: int) -> list[np.ndarray]:
    """Split mat = sum_i d_i^T Q_i d_i along its terms.  d_i picks vehicle
    i's relative accelerations (d_1 = e_1, d_i = e_i - e_{i-1}), so the
    coupling block (i-1, i) is -Q_i and Q_1 = mat_11 - Q_2.  Agent i takes
    half of each term [[Q_j, -Q_j], [-Q_j, Q_j]] on vehicles (j-1, j) that
    reads its vehicle, and agent 1 all of Q_1; each share is PSD because
    every Q_i is."""
    q = [None, None] + [-_block(mat, p, j - 1, j) for j in range(2, n + 1)]
    q[1] = _block(mat, p, 1, 1) - (q[2] if n > 1 else 0.0)
    out = []
    for i, (lo, hi) in enumerate(_spans(n), start=1):
        m = hi - lo + 1
        blk = np.zeros((m, p, m, p))
        if i == 1:
            blk[0, :, 0, :] += q[1]
        for j in range(max(i, 2), min(i + 1, n) + 1):
            a, b, half = j - 1 - lo, j - lo, 0.5 * q[j]
            blk[a, :, a, :] += half
            blk[a, :, b, :] -= half
            blk[b, :, a, :] -= half
            blk[b, :, b, :] += half
        out.append(blk.reshape(m * p, m * p))
    return out


def decompose_model(model: QuadraticModel) -> DecomposedModel:
    n, p = model.n, model.p
    return DecomposedModel(n, p, _spans(n), _rank_split(model.W, n, p),
                           _rank_split(model.Psi, n, p))


def decomposition_residual(model: QuadraticModel,
                           dec: DecomposedModel) -> float:
    """Largest absolute entry of (sum of blocks) - full matrix."""
    worst = 0.0
    for full, blocks in ((model.W, dec.W_hat), (model.Psi, dec.Psi_hat)):
        acc = np.zeros_like(full)
        for (lo, hi), blk in zip(dec.spans, blocks):
            a = (lo - 1) * model.p
            b = hi * model.p
            acc[a:b, a:b] += blk
        worst = max(worst, float(np.max(np.abs(acc - full))))
    return worst


# ---------------------------------------------------------------------------
# horizon acceleration maps and constraint rows
#
# One row model serves one vehicle or the whole platoon.  Control
# sequences u_vec are (..., p) arrays; speeds, tracking errors and the
# fields of the VehicleParams are scalars or arrays over the same leading
# axes (platoon.stack_params stacks the vehicles' fields), and the results
# carry those axes in front.

def _col(x, k: int = 1) -> np.ndarray:
    """A scalar or per-vehicle quantity with k trailing unit axes, so that
    it broadcasts against the horizon axes of the rows."""
    x = np.asarray(x, dtype=float)
    return x.reshape(x.shape + (1,) * k)


def pseudo_speeds(tau: float, v, u_vec: np.ndarray) -> np.ndarray:
    """sigma_j = v + tau * (cumulative control sum)_j for j = 0..p.
    These are the loss-free speed predictions along the horizon."""
    cum = np.cumsum(u_vec, axis=-1)
    return _col(v) + tau * np.concatenate((np.zeros_like(cum[..., :1]), cum),
                                          axis=-1)


def exact_accel(params: VehicleParams, tau: float, v: float,
                u_vec: np.ndarray) -> np.ndarray:
    """Effective accelerations along the horizon via the speed recursion."""
    out = np.empty(len(u_vec))
    speed = v
    for t, u in enumerate(u_vec):
        a = u - params.drag * speed * speed - params.roll * GRAVITY
        out[t] = a
        speed += tau * a
    return out


def _accel(params: VehicleParams, sig: np.ndarray,
           u_vec: np.ndarray) -> np.ndarray:
    """approx_accel given the pseudo speeds sig of u_vec."""
    sig = sig[..., :-1]
    return u_vec - _col(params.drag) * sig * sig - _col(params.roll) * GRAVITY


def _accel_jacobian(params: VehicleParams, tau: float,
                    sig: np.ndarray) -> np.ndarray:
    """approx_accel_jacobian given the pseudo speeds sig of the controls:
    the speed of step t reads the controls before it."""
    p = sig.shape[-1] - 1
    return (np.eye(p) - 2.0 * _col(params.drag, 2) * tau
            * sig[..., :-1, None] * np.tri(p, k=-1))


def approx_accel(params: VehicleParams, tau: float, v,
                 u_vec: np.ndarray) -> np.ndarray:
    """Effective accelerations with drag evaluated at the loss-free speed
    predictions; exact when drag == 0 and O(drag^2) close otherwise."""
    return _accel(params, pseudo_speeds(tau, v, u_vec), u_vec)


def approx_accel_jacobian(params: VehicleParams, tau: float, v,
                          u_vec: np.ndarray) -> np.ndarray:
    return _accel_jacobian(params, tau, pseudo_speeds(tau, v, u_vec))


class HorizonRows:
    """The speed and safety rows of one vehicle, or of a stack of
    vehicles, at the control sequences u_vec.  Construction evaluates the
    pseudo speeds sig and the speed rows once: q (..., p), the predicted
    speeds with drag charged at the loss-free speeds, and their Jacobian
    q_grad (..., p, p); the speed band is speed_min <= q <= speed_max.
    safety() and hessians() build the safety rows on them."""

    def __init__(self, config: PlatoonConfig, params: VehicleParams, v,
                 u_vec: np.ndarray):
        tau = config.tau
        self.config, self.params = config, params
        self.u = np.asarray(u_vec, dtype=float)
        p = self.u.shape[-1]
        sig = self.sig = pseudo_speeds(tau, v, self.u)
        drag = _col(params.drag)
        self.q = sig[..., 1:] - tau * (
            np.arange(1, p + 1) * _col(params.roll) * GRAVITY
            + drag * np.cumsum(sig[..., :-1] ** 2, axis=-1))
        # stage j charges drag on the squared speeds of the steps before it
        s_p = np.tri(p)
        self.q_grad = tau * s_p - 2.0 * tau * tau * drag[..., None] * (
            np.tri(p, k=-1) @ (sig[..., 1:, None] * s_p))

    def safety(self, prev_params: VehicleParams, v_prev, z, zp,
               u_prev_vec: np.ndarray, struct: StructuralMatrices):
        """Horizon safety residuals h_j <= 0 and their Jacobians w.r.t. the
        own and predecessor control sequences.  The leader is handled by
        passing loss-free prev_params and a constant control sequence."""
        config, par, tau = self.config, self.params, self.config.tau
        p = self.u.shape[-1]
        kappa = 0.5 * struct.R_p
        sig_prev = pseudo_speeds(tau, v_prev, u_prev_vec)
        a_rel = (_accel(prev_params, sig_prev, u_prev_vec)
                 - _accel(par, self.sig, self.u))
        gap = (_col(z) + config.gap + np.arange(1, p + 1) * tau * _col(zp)
               + tau * tau * (a_rel @ kappa.T))
        margin = self.q - config.speed_min
        h = (_col(par.length) + _col(par.headway) * self.q
             - margin * margin / (2.0 * _col(par.accel_min)) - gap)
        coef = _col(par.headway) - margin / _col(par.accel_min)
        g_own = (coef[..., None] * self.q_grad
                 + tau * tau * (kappa @ _accel_jacobian(par, tau, self.sig)))
        g_prev = -tau * tau * (kappa @ _accel_jacobian(prev_params, tau,
                                                       sig_prev))
        return h, g_own, g_prev

    def speed_hessians(self, struct: StructuralMatrices) -> np.ndarray:
        """Per-stage Hessians of the speed rows q, (..., p, p, p); they do
        not depend on the controls."""
        s_p = struct.S_p
        outers = s_p[:, :, None] * s_p[:, None, :]
        return (-2.0 * self.config.tau ** 3 * _col(self.params.drag, 3)
                * np.tensordot(struct.S_p_shift, outers, 1))

    def hessians(self, prev_params: VehicleParams,
                 struct: StructuralMatrices):
        """Per-stage Hessians of the safety residuals.  There is no cross
        curvature between the own and predecessor controls, so each Hessian
        is block diagonal; the predecessor block is control-independent
        because its acceleration map is quadratic."""
        config, par, tau = self.config, self.params, self.config.tau
        s_p = struct.S_p
        # stage j weighs the outer products of rows t < j by kappa[j, t + 1]
        wk = np.tensordot(0.5 * struct.R_p[:, 1:],
                          (s_p[:, :, None] * s_p[:, None, :])[:-1], 1)
        d2q = self.speed_hessians(struct)
        grads = self.q_grad
        own = (_col(par.headway, 3) * d2q
               - (grads[..., :, :, None] * grads[..., :, None, :]
                  + _col(self.q - config.speed_min, 2) * d2q)
               / _col(par.accel_min, 3)
               - 2.0 * tau ** 4 * _col(par.drag, 3) * wk)
        prev = 2.0 * tau ** 4 * _col(prev_params.drag, 3) * wk
        return own, prev


# ---------------------------------------------------------------------------
# local objectives

@dataclass
class LocalObjective:
    """Vehicle i's share of the horizon cost, defined on the control
    sequences of the vehicles in span (ascending order)."""

    i: int
    span: tuple[int, int]
    p: int
    tau: float
    M: np.ndarray        # W_hat - tau^2 Psi_hat
    Psi_hat: np.ndarray
    c_own: np.ndarray
    params: list[VehicleParams]
    speeds: list[float]

    @property
    def blocks(self) -> list[int]:
        return list(range(self.span[0], self.span[1] + 1))

    @property
    def own_pos(self) -> int:
        return self.i - self.span[0]


def build_local_objectives(config: PlatoonConfig, model: QuadraticModel,
                           dec: DecomposedModel,
                           state: PlatoonState) -> list[LocalObjective]:
    out = []
    for i in range(1, model.n + 1):
        lo, hi = dec.spans[i - 1]
        psi_hat = dec.Psi_hat[i - 1]
        out.append(LocalObjective(
            i=i, span=(lo, hi), p=model.p, tau=model.tau,
            M=dec.W_hat[i - 1] - model.tau ** 2 * psi_hat, Psi_hat=psi_hat,
            c_own=model.c_block(i).copy(),
            params=[config.vehicles[j - 1] for j in range(lo, hi + 1)],
            speeds=[float(state.v[j]) for j in range(lo, hi + 1)]))
    return out


def local_objective(lo: LocalObjective, u_by_block: list[np.ndarray]):
    """Value, per-block gradients and exact Hessian of one vehicle's cost
    share under the loss-free-speed acceleration approximation, from one
    evaluation of each block's pseudo speeds."""
    p, tau = lo.p, lo.tau
    nblk = len(u_by_block)
    dim = nblk * p
    sigs = [pseudo_speeds(tau, v, u) for v, u in zip(lo.speeds, u_by_block)]
    a = np.concatenate([_accel(par, sig, u) for par, sig, u in
                        zip(lo.params, sigs, u_by_block)])
    u = np.concatenate(u_by_block)
    c_full = np.zeros(dim)
    c_full[lo.own_pos * p:(lo.own_pos + 1) * p] = lo.c_own

    ma_c = lo.M @ a + c_full
    value = 0.5 * a @ (lo.M @ a) + lo.c_own @ a[lo.own_pos * p:
                                                (lo.own_pos + 1) * p]
    value += 0.5 * tau * tau * (u @ (lo.Psi_hat @ u))

    psi_u = tau * tau * (lo.Psi_hat @ u)
    grads = []
    ja_full = np.zeros((dim, dim))
    for b, (par, sig) in enumerate(zip(lo.params, sigs)):
        sl = slice(b * p, (b + 1) * p)
        ja = ja_full[sl, sl] = _accel_jacobian(par, tau, sig)
        grads.append(ja.T @ ma_c[sl] + psi_u[sl])
    hess = ja_full.T @ lo.M @ ja_full + tau * tau * lo.Psi_hat
    # curvature of the acceleration map itself
    shift = np.tri(p, k=-1)
    for b, par in enumerate(lo.params):
        if par.drag == 0.0:
            continue
        sl = slice(b * p, (b + 1) * p)
        hess[sl, sl] += -2.0 * par.drag * tau * tau * (
            shift.T @ np.diag(ma_c[sl]) @ shift)
    return value, grads, _sym(hess)


# ---------------------------------------------------------------------------
# restricted (convex) constraint sets for the warm start

@dataclass
class RestrictedSets:
    """Inner convex approximation of the horizon constraints of every
    vehicle, along a leading vehicle axis: a corridor cum_lo <= S_p u_own
    <= cum_hi on cumulative control sums, (n, p) each, and p convex
    quadratic safety rows 1/2 y^T A y + b^T y + c <= 0 over the
    (predecessor, own) sequences y = (u_prev, u_own): A (n, p, 2p, 2p),
    b (n, p, 2p), c (n, p).  The first vehicle's predecessor is the leader,
    whose constant control u0 sits in c; its predecessor columns are
    zero."""

    cum_lo: np.ndarray
    cum_hi: np.ndarray
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray


def speed_envelopes(config: PlatoonConfig, params: VehicleParams, v,
                    p: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-stage lower (grave) and upper (breve) speed envelopes valid for
    any control sequence that satisfies the speed band, (..., p) over the
    leading axes of v and the parameters."""
    tau = config.tau
    c3g = params.roll * GRAVITY
    grave = [v]
    breve = [v]
    for j in range(1, p):
        grave.append(config.speed_min + j * tau * c3g)
        breve.append(config.speed_max + j * tau * c3g
                     + tau * params.drag * sum(b * b for b in breve))
    return np.stack(grave, axis=-1), np.stack(breve, axis=-1)


def restricted_convex_sets(config: PlatoonConfig, state: PlatoonState,
                           p: int, struct: StructuralMatrices
                           ) -> RestrictedSets:
    """Build the corridor and convex safety rows of every vehicle.  Any
    point satisfying vehicle i's rows satisfies its true horizon
    constraints."""
    tau, n = config.tau, config.n
    par, prev = config.followers, config.predecessors
    v, v_prev = state.v[1:], state.v[:-1]
    z, zp = state.spacing_error(config.gap), state.rel_speed()
    c3g = par.roll * GRAVITY
    grave, breve = speed_envelopes(config, par, v, p)
    grave_sq = np.cumsum(grave * grave, axis=-1)
    breve_sq = np.cumsum(breve * breve, axis=-1)
    j_idx = np.arange(1, p + 1)

    cum_lo = (config.speed_min + j_idx * tau * _col(c3g)
              + _col(tau * par.drag) * breve_sq - _col(v)) / tau
    cum_hi = (config.speed_max + j_idx * tau * _col(c3g)
              + _col(tau * par.drag) * grave_sq - _col(v)) / tau

    kappa = 0.5 * struct.R_p
    # stage j (row j - 1) is built on t_row = tau * S_p[j - 1]
    t_row = tau * struct.S_p
    A = np.zeros((n, p, 2 * p, 2 * p))
    b = np.zeros((n, p, 2 * p))
    # own speed expression with drag charged at the lower envelope
    phi = _col(v) + tau * (-j_idx * _col(c3g) - _col(par.drag) * grave_sq)
    c = _col(par.length) + _col(par.headway) * phi
    b[..., p:] = _col(par.headway, 2) * t_row
    # braking-distance square, convex because accel_min < 0
    m0 = phi - config.speed_min
    A[..., p:, p:] = _col(-1.0 / par.accel_min, 3) * (
        t_row[:, :, None] * t_row[:, None, :])
    b[..., p:] += (_col(-1.0 / par.accel_min) * m0)[..., None] * t_row
    c += _col(-1.0 / (2.0 * par.accel_min)) * m0 * m0
    # predicted-gap bracket, subtracted as a whole
    c -= _col(z) + config.gap + j_idx * tau * _col(zp)
    # the own and predecessor accelerations of step s enter every stage
    # j > s with weight k = tau^2 kappa[j - 1, s], which is 0 for s >= j;
    # the first vehicle's predecessor is the leader at constant control u0
    d_roll = _col(prev.roll - par.roll)
    pd, vp = _col(prev.drag[1:]), _col(v_prev[1:])
    for s in range(p):
        k = tau * tau * kappa[:, s]
        b[..., p + s] += k
        c += k * d_roll * GRAVITY
        # own drag charged at the lower speed envelope
        c -= k * _col(par.drag) * grave[:, s, None] * grave[:, s, None]
        # predecessor drag stays exact in its loss-free speeds
        row = tau * struct.S_p_shift[s]
        b[1:, :, s] -= k
        A[1:, :, :p, :p] += _col(2.0 * k * pd, 2) * np.outer(row, row)
        b[1:, :, :p] += _col(2.0 * k * pd * vp) * row
        c[1:] += k * pd * vp * vp
        c[0] -= k * state.u0
    return RestrictedSets(cum_lo, cum_hi, 0.5 * (A + A.swapaxes(-1, -2)), b,
                          c)
