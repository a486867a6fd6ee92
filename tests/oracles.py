"""Independent reference implementations used to check the package.

Everything here is computed by a different route than the library code:
scalar recursions instead of matrix assembly, finite differences instead
of analytic gradients, subspace least squares instead of group averaging.
"""

from __future__ import annotations

import numpy as np

from platoon_mpc.convex import qcqp_solve
from platoon_mpc.platoon import GRAVITY, nonlinear_step


def tracking_cost_from_accels(config, weights, z0, zp0, u0, a_veh):
    """Horizon cost driven by stacked effective accelerations a_veh (n, p):
    spacing and relative-speed recursions advanced stage by stage, plus the
    ride cost charged on relative accelerations."""
    n, p = a_veh.shape
    tau = config.tau
    z = np.array(z0, dtype=float)
    zp = np.array(zp0, dtype=float)
    total = 0.0
    for s in range(p):
        b = np.empty(n)
        rel = np.empty(n)
        for i in range(n):
            lead = u0 if i == 0 else a_veh[i - 1, s]
            b[i] = lead - a_veh[i, s]
            rel[i] = a_veh[i, s] - (0.0 if i == 0 else a_veh[i - 1, s])
        z = z + tau * zp + 0.5 * tau * tau * b
        zp = zp + tau * b
        total += 0.5 * float(weights.qz[s] @ (z * z)
                             + weights.qzp[s] @ (zp * zp))
        total += 0.5 * tau * tau * float(weights.qw[s] @ (rel * rel))
    return total


def exact_horizon_cost(config, weights, state, u_plan):
    """Ground-truth horizon cost: roll the lossy dynamics forward under the
    control plan (leader holds state.u0) and sum the stage costs."""
    n, p = u_plan.shape
    tau = config.tau
    st = state.copy()
    total = 0.0
    for s in range(p):
        u_s = u_plan[:, s]
        rel = np.diff(u_s, prepend=0.0)
        total += 0.5 * tau * tau * float(weights.qw[s] @ (rel * rel))
        st = nonlinear_step(config, st, u_s)
        z = st.spacing_error(config.gap)
        zp = st.rel_speed()
        total += 0.5 * float(weights.qz[s] @ (z * z)
                             + weights.qzp[s] @ (zp * zp))
    return total


def fd_grad(fn, x, h=1e-6):
    """Central-difference gradient."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for k in range(x.size):
        step = np.zeros_like(x)
        step[k] = h
        out[k] = (fn(x + step) - fn(x - step)) / (2.0 * h)
    return out


def projection_by_lstsq(layout, stacked, p):
    """Orthogonal projection onto the agreement subspace via an explicit
    basis and least squares.  layout[a] lists the variable ids held by
    agent a; stacked concatenates all agents' slot vectors."""
    ids = sorted({j for blocks in layout for j in blocks})
    dim = sum(len(blocks) for blocks in layout) * p
    basis = []
    for j in ids:
        for t in range(p):
            col = np.zeros(dim)
            off = 0
            for blocks in layout:
                for b in blocks:
                    if b == j:
                        col[off + t] = 1.0
                    off += p
            basis.append(col)
    B = np.array(basis).T
    coeff, *_ = np.linalg.lstsq(B, stacked, rcond=None)
    return B @ coeff


def box_qp_brute(H, q, lo, hi):
    """Global box-QP minimizer by enumerating all lower/upper/free
    coordinate patterns; exact for convex H and small dimension."""
    d = q.size
    best = None
    best_val = np.inf
    for code in range(3 ** d):
        pattern = []
        c = code
        for _ in range(d):
            pattern.append(c % 3)
            c //= 3
        y = np.empty(d)
        free = [k for k, s in enumerate(pattern) if s == 0]
        for k, s in enumerate(pattern):
            if s == 1:
                y[k] = lo[k]
            elif s == 2:
                y[k] = hi[k]
        if free:
            fixed = [k for k in range(d) if k not in free]
            rhs = -q[free]
            if fixed:
                rhs = rhs - H[np.ix_(free, fixed)] @ y[fixed]
            try:
                y[free] = np.linalg.solve(H[np.ix_(free, free)], rhs)
            except np.linalg.LinAlgError:
                continue
            if np.any(y[free] < lo[free] - 1e-12) or \
                    np.any(y[free] > hi[free] + 1e-12):
                continue
        val = 0.5 * y @ (H @ y) + q @ y
        if val < best_val:
            best_val = val
            best = y.copy()
    return best, best_val


def prox_by_solve(prob, anchor, rho, warm=None, metric=None):
    """prox_{rho f}(anchor) as a fresh solve: the shifted problem with
    H + C and q - C anchor, C = metric/rho (I/rho when metric is None),
    handed to qcqp_solve, which finds its unconstrained point by an LU
    solve instead of the problem's memoized prox map."""
    curv = np.eye(prob.dim) / rho if metric is None else metric / rho
    pull = anchor / rho if metric is None else metric @ anchor / rho
    shifted = prob.with_objective(prob.H + curv, prob.q - pull)
    return qcqp_solve(shifted, y0=anchor, warm=warm)


def w_star_reference(config, weights, z, zp, v0, u0):
    """One-stage optimum of the unconstrained cost in relative-control
    coordinates, from the closed-form normal equations."""
    n = config.n
    tau = config.tau
    qz = np.diag(weights.qz[0])
    qzp = np.diag(weights.qzp[0])
    qw = np.diag(weights.qw[0])
    w_hat_inv = tau * tau / 4.0 * qz + qzp + qw
    s_n = np.tril(np.ones((n, n)))
    s = s_n @ zp
    c2 = config.drag
    c2_prev = np.concatenate(([0.0], c2[:-1]))
    s_prev = np.concatenate(([0.0], s[:-1]))
    h = (c2_prev * s_prev * (2.0 * v0 - s_prev)
         - c2 * s * (2.0 * v0 - s))
    roll_prev = np.concatenate(([0.0], config.roll[:-1]))
    w_e = (c2_prev - c2) * v0 * v0 + (roll_prev - config.roll) * GRAVITY
    e1 = np.zeros(n)
    e1[0] = 1.0
    d = w_e - u0 * e1
    rhs = (qz @ z / 2.0 + (tau * qz / 2.0 + qzp / tau) @ zp
           + (tau * tau / 4.0 * qz + qzp) @ h + qw @ d)
    w_hat = -np.linalg.solve(w_hat_inv, rhs)
    return w_hat + w_e


def consensus_gap_by_copies(agents, ys):
    """Worst disagreement between any agent's copy of a block and the
    block's owner, by a loop over every agent and every copy it holds;
    ys[k] is agent k+1's local vector."""
    gap = 0.0
    for a, y in zip(agents, ys):
        for pos, j in enumerate(a.blocks):
            if j == a.i:
                continue
            owner = agents[j - 1]
            d = y[a.sl(pos)] - owner.own(ys[j - 1])
            gap = max(gap, float(np.max(np.abs(d))))
    return gap


def stationarity_by_agent(ys, ws):
    """Largest gap between each agent's prox output and its average."""
    return max(float(np.max(np.abs(y - w))) for y, w in zip(ys, ws))


def horizon_minimizer(config, weights, state, x0):
    """Minimizer of the horizon problem the distributed solver works on,
    found as one centralized program by scipy's SLSQP from the (n, p) plan
    x0: the summed local objectives under the boxes and the speed and
    safety rows.  Returns the plan and the cost gradient norm there."""
    from scipy.optimize import minimize

    from platoon_mpc.assembly import (local_objective, safety_constraint_fn,
                                      speed_constraint_fn)
    from platoon_mpc.solver import formulate_local

    agents = formulate_local(config, weights, state)
    shared = agents[0].shared
    n, p = config.n, weights.p
    z = state.spacing_error(config.gap)
    zp = state.rel_speed()

    def cost(x):
        u = x.reshape(n, p)
        value, grad = 0.0, np.zeros((n, p))
        for a in agents:
            val, grads = local_objective(shared.objectives[a.i - 1],
                                         [u[j - 1] for j in a.blocks])
            value += val
            for j, g in zip(a.blocks, grads):
                grad[j - 1] += g
        return value, grad.ravel()

    def slack(x):
        u = x.reshape(n, p)
        out = []
        for i in range(1, n + 1):
            par = config.vehicles[i - 1]
            q, _ = speed_constraint_fn(config, par, float(state.v[i]),
                                       u[i - 1])
            prev = config.leader if i == 1 else config.vehicles[i - 2]
            u_prev = np.full(p, state.u0) if i == 1 else u[i - 2]
            h, _, _ = safety_constraint_fn(
                config, par, prev, float(state.v[i]), float(state.v[i - 1]),
                float(z[i - 1]), float(zp[i - 1]), u[i - 1], u_prev,
                shared.struct)
            out.append(np.concatenate([q - config.speed_min,
                                       config.speed_max - q, -h]))
        return np.concatenate(out)

    bounds = [(v.accel_min, v.accel_max) for v in config.vehicles
              for _ in range(p)]
    res = minimize(cost, np.ravel(x0), jac=True, method="SLSQP",
                   bounds=bounds, constraints=[{"type": "ineq", "fun": slack}],
                   options={"ftol": 1e-14, "maxiter": 2000})
    assert res.success, res.message
    return res.x.reshape(n, p), float(np.linalg.norm(cost(res.x)[1]))
