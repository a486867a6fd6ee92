"""Horizon cost assembly for the platoon controller.

The decision vector stacks per-vehicle control sequences (vehicle-major):
u = (u_1, ..., u_n) with u_i in R^p ordered by time.  The spacing error
and relative-speed recursions are linear in the effective accelerations,
so the tracking cost is an explicit quadratic in the stacked accelerations
with state-independent curvature.  This module builds that quadratic, its
per-vehicle decomposition, and the horizon constraint rows used by the
solver.  One row model (HorizonRows, and the row functions built on it)
serves one vehicle or, given stacked parameters (platoon.stack_params),
the whole platoon along a leading axis in a single call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

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

    def to_dict(self) -> dict:
        return {"qz": self.qz.tolist(), "qzp": self.qzp.tolist(),
                "qw": self.qw.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "WeightSchedule":
        return cls(np.array(data["qz"]), np.array(data["qzp"]),
                   np.array(data["qw"]))

    def dumps(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def loads(cls, text: str) -> "WeightSchedule":
        return cls.from_dict(json.loads(text))


@dataclass
class StructuralMatrices:
    """Index-only matrices for a platoon of n vehicles and horizon p."""

    n: int
    p: int
    S_n: np.ndarray        # lower-triangular ones, cumulative sum over vehicles
    S_n_inv: np.ndarray    # first-difference inverse
    S_p: np.ndarray        # cumulative sum over the horizon
    S_p_shift: np.ndarray  # one-step-delayed cumulative sum
    R_p: np.ndarray        # odd-number kernel of the double integrator
    E: np.ndarray          # vehicle-major -> time-major permutation


def build_structural(n: int, p: int) -> StructuralMatrices:
    if n < 1 or p < 1:
        raise ValueError("need n >= 1 and p >= 1")
    S_n = np.tril(np.ones((n, n)))
    S_n_inv = np.eye(n) - np.diag(np.ones(n - 1), -1) if n > 1 else np.eye(1)
    steps = np.arange(p)
    R_p = np.tril(2.0 * np.subtract.outer(steps, steps) + 1.0)
    # time-major row n * k + s reads vehicle-major entry p * s + k
    rows = np.arange(n * p)
    E = np.eye(n * p)[p * (rows % n) + rows // n]
    return StructuralMatrices(n, p, S_n, S_n_inv, np.tri(p), np.tri(p, k=-1),
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
    back to the full matrices exactly."""

    n: int
    p: int
    spans: list[tuple[int, int]]
    W_hat: list[np.ndarray]
    Psi_hat: list[np.ndarray]


def _block(mat: np.ndarray, p: int, i: int, j: int) -> np.ndarray:
    """p x p block for (1-based) vehicle pair (i, j)."""
    return mat[(i - 1) * p: i * p, (j - 1) * p: j * p]


def _spans(n: int) -> list[tuple[int, int]]:
    spans = []
    for i in range(1, n + 1):
        lo = max(1, i - 1) if i > 1 else 1
        hi = min(n, i + 1)
        spans.append((lo, hi))
    return spans


def _proportional_split(mat: np.ndarray, n: int, p: int) -> list[np.ndarray]:
    """Fixed-share split: adjacent-coupling blocks are halved between the two
    agents that see them, diagonal blocks are shared 1/4-1/2-1/4 with the
    ends absorbing the missing quarter."""
    out = []
    for i, (lo, hi) in enumerate(_spans(n), start=1):
        size = (hi - lo + 1) * p
        blk = np.zeros((size, size))

        def put(a, b, share):
            ra = (a - lo) * p
            rb = (b - lo) * p
            blk[ra:ra + p, rb:rb + p] += share * _block(mat, p, a, b)

        for a in range(lo, hi + 1):
            if a == i:
                share = 0.5
                if i == 1:
                    share += 0.25
                if i == n:
                    share += 0.25
            else:
                share = 0.25
            put(a, a, share)
        for a in range(lo, hi):
            # coupling (a, a+1) belongs to agents a and a+1 only
            if i in (a, a + 1):
                put(a, a + 1, 0.5)
                put(a + 1, a, 0.5)
        out.append(blk)
    return out


def _natural_split(mat: np.ndarray, n: int, p: int) -> list[np.ndarray]:
    """Split along the rank-structured terms of the curvature.  The coupling
    block (i-1, i) is -Xi_i with Xi_i PSD, and each elementary term
    [[Xi, -Xi], [-Xi, Xi]] is halved between its two agents, which keeps
    every fragment PSD."""
    xi = [None] * (n + 2)  # 1-based, xi[n+1] stays zero
    for i in range(2, n + 1):
        xi[i] = -_block(mat, p, i - 1, i)
    xi[1] = _block(mat, p, 1, 1) - (xi[2] if n > 1 else 0.0)
    xi[n + 1] = np.zeros((p, p))

    out = []
    for i, (lo, hi) in enumerate(_spans(n), start=1):
        size = (hi - lo + 1) * p
        blk = np.zeros((size, size))

        def put(a, b, piece):
            ra = (a - lo) * p
            rb = (b - lo) * p
            blk[ra:ra + p, rb:rb + p] += piece

        def elementary(j, share):
            # term j couples vehicles (j-1, j); j == 1 sits on vehicle 1 alone
            if j == 1:
                put(1, 1, share * xi[1])
            else:
                put(j - 1, j - 1, share * xi[j])
                put(j - 1, j, -share * xi[j])
                put(j, j - 1, -share * xi[j])
                put(j, j, share * xi[j])

        if i == 1:
            elementary(1, 1.0)
            if n > 1:
                elementary(2, 0.5)
        else:
            elementary(i, 0.5)
            if i < n:
                elementary(i + 1, 0.5)
        out.append(blk)
    return out


def _min_eig(blocks: list[np.ndarray]) -> float:
    return min(float(np.linalg.eigvalsh(_sym(b))[0]) for b in blocks)


def _psd_split(mat: np.ndarray, n: int, p: int,
               floor: float = -1e-11) -> list[np.ndarray]:
    """Proportional split when it is already PSD; otherwise bisect toward
    the natural split until every block passes the eigenvalue floor."""
    prop = _proportional_split(mat, n, p)
    if _min_eig(prop) >= floor:
        return prop
    nat = _natural_split(mat, n, p)

    def mix(t):
        return [(1.0 - t) * a + t * b for a, b in zip(prop, nat)]

    lo_t, hi_t = 0.0, 1.0
    for _ in range(40):
        mid = 0.5 * (lo_t + hi_t)
        if _min_eig(mix(mid)) >= floor:
            hi_t = mid
        else:
            lo_t = mid
    blocks = mix(hi_t)
    if _min_eig(blocks) < floor:
        return nat
    return blocks


def decompose_model(model: QuadraticModel) -> DecomposedModel:
    n, p = model.n, model.p
    return DecomposedModel(n, p, _spans(n), _psd_split(model.W, n, p),
                           _psd_split(model.Psi, n, p))


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
# horizon acceleration maps and constraint functions
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


def speed_constraint_fn(config: PlatoonConfig, params: VehicleParams, v,
                        u_vec: np.ndarray):
    """Predicted speeds q_j (j = 1..p) with drag charged at the loss-free
    speeds, and their Jacobian.  The speed band constraint is
    speed_min <= q_j <= speed_max."""
    rows = HorizonRows(config, params, v, u_vec)
    return rows.q, rows.q_grad


def safety_constraint_fn(config: PlatoonConfig, params: VehicleParams,
                         prev_params: VehicleParams, v, v_prev, z, zp,
                         u_vec: np.ndarray, u_prev_vec: np.ndarray,
                         struct: StructuralMatrices):
    """HorizonRows.safety of the rows at u_vec."""
    return HorizonRows(config, params, v, u_vec).safety(
        prev_params, v_prev, z, zp, u_prev_vec, struct)


def safety_constraint_hessians(config: PlatoonConfig, params: VehicleParams,
                               prev_params: VehicleParams, v,
                               u_vec: np.ndarray, struct: StructuralMatrices):
    """HorizonRows.hessians of the rows at u_vec."""
    return HorizonRows(config, params, v, u_vec).hessians(prev_params, struct)


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
    W_hat: np.ndarray
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
        w_hat = dec.W_hat[i - 1]
        psi_hat = dec.Psi_hat[i - 1]
        out.append(LocalObjective(
            i=i, span=(lo, hi), p=model.p, tau=model.tau,
            M=w_hat - model.tau ** 2 * psi_hat,
            Psi_hat=psi_hat, W_hat=w_hat,
            c_own=model.c_block(i).copy(),
            params=[config.vehicles[j - 1] for j in range(lo, hi + 1)],
            speeds=[float(state.v[j]) for j in range(lo, hi + 1)]))
    return out


def local_objective(lo: LocalObjective, u_by_block: list[np.ndarray]):
    """Value and per-block gradients of one vehicle's cost share under the
    loss-free-speed acceleration approximation."""
    p, tau = lo.p, lo.tau
    nblk = len(u_by_block)
    a = np.concatenate([
        approx_accel(par, tau, v, u)
        for par, v, u in zip(lo.params, lo.speeds, u_by_block)])
    u = np.concatenate(u_by_block)
    c_full = np.zeros(nblk * p)
    c_full[lo.own_pos * p:(lo.own_pos + 1) * p] = lo.c_own

    ma_c = lo.M @ a + c_full
    value = 0.5 * a @ (lo.M @ a) + lo.c_own @ a[lo.own_pos * p:
                                                (lo.own_pos + 1) * p]
    value += 0.5 * tau * tau * (u @ (lo.Psi_hat @ u))

    psi_u = tau * tau * (lo.Psi_hat @ u)
    grads = []
    for b in range(nblk):
        sl = slice(b * p, (b + 1) * p)
        ja = approx_accel_jacobian(lo.params[b], tau, lo.speeds[b],
                                   u_by_block[b])
        grads.append(ja.T @ ma_c[sl] + psi_u[sl])
    return value, grads


def local_objective_hessian(lo: LocalObjective,
                            u_by_block: list[np.ndarray]) -> np.ndarray:
    """Exact Hessian of the local objective at the given point."""
    p, tau = lo.p, lo.tau
    nblk = len(u_by_block)
    dim = nblk * p
    a = np.concatenate([
        approx_accel(par, tau, v, u)
        for par, v, u in zip(lo.params, lo.speeds, u_by_block)])
    c_full = np.zeros(dim)
    c_full[lo.own_pos * p:(lo.own_pos + 1) * p] = lo.c_own
    ma_c = lo.M @ a + c_full

    ja_full = np.zeros((dim, dim))
    for b in range(nblk):
        sl = slice(b * p, (b + 1) * p)
        ja_full[sl, sl] = approx_accel_jacobian(
            lo.params[b], tau, lo.speeds[b], u_by_block[b])
    hess = ja_full.T @ lo.M @ ja_full + tau * tau * lo.Psi_hat
    # curvature of the acceleration map itself
    shift = np.tri(p, k=-1)
    for b in range(nblk):
        par = lo.params[b]
        if par.drag == 0.0:
            continue
        sl = slice(b * p, (b + 1) * p)
        y = ma_c[sl]
        hess[sl, sl] += -2.0 * par.drag * tau * tau * (
            shift.T @ np.diag(y) @ shift)
    return _sym(hess)


# ---------------------------------------------------------------------------
# restricted (convex) constraint sets for the warm start

@dataclass
class RestrictedSets:
    """Inner convex approximation of the horizon constraints for one
    vehicle: a corridor on cumulative control sums and convex quadratic
    safety rows over (u_prev, u_own) (own only for the first vehicle)."""

    cum_lo: np.ndarray
    cum_hi: np.ndarray
    quads: list[tuple[np.ndarray, np.ndarray, float]]
    includes_prev: bool


def speed_envelopes(config: PlatoonConfig, params: VehicleParams, v: float,
                    p: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-stage lower (grave) and upper (breve) speed envelopes valid for
    any control sequence that satisfies the speed band."""
    tau = config.tau
    c3g = params.roll * GRAVITY
    grave = [v]
    breve = [v]
    for j in range(1, p):
        grave.append(config.speed_min + j * tau * c3g)
        breve.append(config.speed_max + j * tau * c3g
                     + tau * params.drag * sum(b * b for b in breve))
    return np.array(grave), np.array(breve)


def restricted_convex_sets(config: PlatoonConfig, i: int, v: float,
                           v_prev: float, z: float, zp: float, p: int,
                           struct: StructuralMatrices,
                           u0: float = 0.0) -> RestrictedSets:
    """Build the corridor and convex safety rows for vehicle i (1-based).
    Any point satisfying them satisfies the true horizon constraints."""
    tau = config.tau
    params = config.vehicles[i - 1]
    prev_params = config.leader if i == 1 else config.vehicles[i - 2]
    c3g = params.roll * GRAVITY
    grave, breve = speed_envelopes(config, params, v, p)
    grave_sq = np.cumsum(grave * grave)
    breve_sq = np.cumsum(breve * breve)
    j_idx = np.arange(1, p + 1)

    cum_lo = (config.speed_min + j_idx * tau * c3g
              + tau * params.drag * breve_sq - v) / tau
    cum_hi = (config.speed_max + j_idx * tau * c3g
              + tau * params.drag * grave_sq - v) / tau

    kappa = 0.5 * struct.R_p
    s_p = struct.S_p
    includes_prev = i > 1
    dim = 2 * p if includes_prev else p
    own0 = p if includes_prev else 0

    quads = []
    for j in range(1, p + 1):
        A = np.zeros((dim, dim))
        b = np.zeros(dim)
        cst = 0.0
        # own speed expression with drag charged at the lower envelope
        phi = v + tau * (-j * c3g - params.drag * grave_sq[j - 1])
        t_row = tau * s_p[j - 1, :]
        cst += params.length + params.headway * phi
        b[own0:own0 + p] += params.headway * t_row
        # braking-distance square, convex because accel_min < 0
        m0 = phi - config.speed_min
        A[own0:own0 + p, own0:own0 + p] += (-1.0 / params.accel_min) * \
            np.outer(t_row, t_row)
        b[own0:own0 + p] += (-1.0 / params.accel_min) * m0 * t_row
        cst += (-1.0 / (2.0 * params.accel_min)) * m0 * m0
        # predicted-gap bracket, subtracted as a whole
        cst -= z + config.gap + j * tau * zp
        for s in range(j):
            k_js = tau * tau * kappa[j - 1, s]
            b[own0 + s] += k_js
            cst += k_js * (prev_params.roll - params.roll) * GRAVITY
            # own drag charged at the lower speed envelope
            cst -= k_js * params.drag * grave[s] * grave[s]
            if includes_prev:
                b[s] -= k_js
                # predecessor drag stays exact in its loss-free speeds
                row = tau * (s_p[s - 1, :] if s >= 1 else np.zeros(p))
                A[:p, :p] += 2.0 * k_js * prev_params.drag * np.outer(row, row)
                b[:p] += 2.0 * k_js * prev_params.drag * v_prev * row
                cst += k_js * prev_params.drag * v_prev * v_prev
            else:
                cst -= k_js * u0
        quads.append((_sym(A), b, cst))
    return RestrictedSets(cum_lo, cum_hi, quads, includes_prev)
