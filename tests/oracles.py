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


def kkt_newton_loop(prob, y, idx, lam_a):
    """Newton on the KKT equations of prob with the rows idx held as
    equalities, from y and the multipliers lam_a: the kernel's iteration
    for curved sets, run on any rows, affine ones included, as the
    reference for the kernel's one-shot solve of affine sets.  Stops at a
    residual of 1e-12 * (1 + max|q|); returns the point, the multipliers
    and whether the residual fell below 1e-9 * (1 + max|q|)."""
    d = prob.dim
    yv, lam_a = y.copy(), lam_a.copy()
    scale = 1.0 + float(np.max(np.abs(prob.q)))
    for _ in range(25):
        g = prob.con_values(yv)
        grads = prob.con_grads(yv)
        res = np.concatenate([prob.H @ yv + prob.q + grads[idx].T @ lam_a,
                              g[idx]])
        if np.max(np.abs(res)) < 1e-12 * scale:
            return yv, lam_a, True
        weights = np.zeros(prob.n_con)
        weights[idx] = lam_a
        jac = np.zeros((d + idx.size, d + idx.size))
        jac[:d, :d] = prob.add_row_hessians(prob.H.copy(), weights)
        jac[:d, d:] = grads[idx].T
        jac[d:, :d] = grads[idx]
        try:
            step = np.linalg.solve(jac + 1e-14 * np.eye(jac.shape[0]), -res)
        except np.linalg.LinAlgError:
            return yv, lam_a, False
        yv = yv + step[:d]
        lam_a = lam_a + step[d:]
    res = np.concatenate([
        prob.H @ yv + prob.q + prob.con_grads(yv)[idx].T @ lam_a,
        prob.con_values(yv)[idx]])
    return yv, lam_a, bool(np.max(np.abs(res)) < 1e-9 * scale)


def plan_violation_by_vehicle(config, state, u_plan, struct):
    """Worst violation of the boxes, speed band and safety rows of the
    horizon model at a full (n, p) plan, by a loop over the vehicles that
    calls the row functions once per vehicle; 0.0 when every row holds."""
    from platoon_mpc.assembly import HorizonRows

    n, p = u_plan.shape
    z = state.spacing_error(config.gap)
    zp = state.rel_speed()
    worst = 0.0
    for i in range(1, n + 1):
        par = config.vehicles[i - 1]
        u = u_plan[i - 1]
        worst = max(worst, float(np.max(par.accel_min - u)),
                    float(np.max(u - par.accel_max)))
        rows = HorizonRows(config, par, float(state.v[i]), u)
        worst = max(worst, float(np.max(config.speed_min - rows.q)),
                    float(np.max(rows.q - config.speed_max)))
        prev = config.leader if i == 1 else config.vehicles[i - 2]
        u_prev = np.full(p, state.u0) if i == 1 else u_plan[i - 2]
        h, _, _ = rows.safety(prev, float(state.v[i - 1]), float(z[i - 1]),
                              float(zp[i - 1]), u_prev, struct)
        worst = max(worst, float(np.max(h)))
    return worst


def restricted_sets_by_vehicle(config, state, i, p, struct):
    """Vehicle i's restricted corridor and convex safety rows, by scalar
    loops over the stages and the steps before each: (cum_lo, cum_hi,
    [(A, b, c)] per stage), the rows over (u_prev, u_own), or over u_own
    alone for the first vehicle."""
    tau = config.tau
    par = config.vehicles[i - 1]
    prev = config.leader if i == 1 else config.vehicles[i - 2]
    v, v_prev = state.v[i], state.v[i - 1]
    z = state.spacing_error(config.gap)[i - 1]
    zp = state.rel_speed()[i - 1]
    c3g = par.roll * GRAVITY
    grave, breve = [v], [v]
    for j in range(1, p):
        grave.append(config.speed_min + j * tau * c3g)
        breve.append(config.speed_max + j * tau * c3g
                     + tau * par.drag * sum(b * b for b in breve))
    grave, breve = np.array(grave), np.array(breve)
    grave_sq = np.cumsum(grave * grave)
    breve_sq = np.cumsum(breve * breve)
    j_idx = np.arange(1, p + 1)
    cum_lo = (config.speed_min + j_idx * tau * c3g
              + tau * par.drag * breve_sq - v) / tau
    cum_hi = (config.speed_max + j_idx * tau * c3g
              + tau * par.drag * grave_sq - v) / tau

    kappa = 0.5 * struct.R_p
    s_p = struct.S_p
    dim = 2 * p if i > 1 else p
    own0 = p if i > 1 else 0
    quads = []
    for j in range(1, p + 1):
        A = np.zeros((dim, dim))
        b = np.zeros(dim)
        cst = 0.0
        phi = v + tau * (-j * c3g - par.drag * grave_sq[j - 1])
        t_row = tau * s_p[j - 1, :]
        cst += par.length + par.headway * phi
        b[own0:own0 + p] += par.headway * t_row
        m0 = phi - config.speed_min
        A[own0:own0 + p, own0:own0 + p] += (-1.0 / par.accel_min) * \
            np.outer(t_row, t_row)
        b[own0:own0 + p] += (-1.0 / par.accel_min) * m0 * t_row
        cst += (-1.0 / (2.0 * par.accel_min)) * m0 * m0
        cst -= z + config.gap + j * tau * zp
        for s in range(j):
            k_js = tau * tau * kappa[j - 1, s]
            b[own0 + s] += k_js
            cst += k_js * (prev.roll - par.roll) * GRAVITY
            cst -= k_js * par.drag * grave[s] * grave[s]
            if i > 1:
                b[s] -= k_js
                row = tau * (s_p[s - 1, :] if s >= 1 else np.zeros(p))
                A[:p, :p] += 2.0 * k_js * prev.drag * np.outer(row, row)
                b[:p] += 2.0 * k_js * prev.drag * v_prev * row
                cst += k_js * prev.drag * v_prev * v_prev
            else:
                cst -= k_js * state.u0
        quads.append((0.5 * (A + A.T), b, cst))
    return cum_lo, cum_hi, quads


def _agent_row(a, own, prev=None, curv=0.0, const=0.0):
    """One row (A, b, c) of agent a in its local coordinates: the p-vector
    own on its own block, prev on its copy of the predecessor's block
    (ignored for the first agent), and curvature A = curv * I."""
    b = np.zeros(a.dim)
    b[a.sl(a.own_pos)] = own
    if a.i > 1 and prev is not None:
        b[a.sl(a.own_pos - 1)] = prev
    return curv * np.eye(a.dim), b, float(const)


def _vehicle_data(a):
    sh = a.shared
    cfg, st, i = sh.config, sh.state, a.i
    prev = cfg.leader if i == 1 else cfg.vehicles[i - 2]
    return (cfg, st, cfg.vehicles[i - 1], prev, float(st.v[i]),
            float(st.v[i - 1]), float(st.spacing_error(cfg.gap)[i - 1]),
            float(st.rel_speed()[i - 1]))


def p1_rows_by_agent(a):
    """Agent a's rows at the one-step horizon (speed band, then safety),
    rebuilt with one call of the row functions for its vehicle alone."""
    from platoon_mpc.assembly import HorizonRows

    cfg, st, par, prev, v, v_prev, z, zp = _vehicle_data(a)
    tau = cfg.tau
    e = par.drag * v * v + par.roll * GRAVITY
    u_prev = np.array([st.u0 if a.i == 1 else 0.0])
    rows = HorizonRows(cfg, par, v, np.zeros(1))
    h, g_own, g_prev = rows.safety(prev, v_prev, z, zp, u_prev,
                                   a.shared.struct)
    own_h, _ = rows.hessians(prev, a.shared.struct)
    safety = _agent_row(a, g_own[0], g_prev[0], const=h[0])
    safety[0][a.own_pos, a.own_pos] = own_h[0, 0, 0]
    return [_agent_row(a, -tau, const=cfg.speed_min - v + tau * e),
            _agent_row(a, tau, const=v - tau * e - cfg.speed_max), safety]


def scp_rows_by_agent(a, u_loc, lip_factor):
    """Agent a's majorant rows of one linearization (lower speed, upper
    speed, safety) at its local vector u_loc, rebuilt with one call of the
    row functions for its vehicle alone: the own block of u_loc and its
    copy of the predecessor's (the leader's constant control for the
    first agent)."""
    from platoon_mpc.assembly import HorizonRows

    cfg, st, par, prev, v, v_prev, z, zp = _vehicle_data(a)
    p, tau, struct = a.p, cfg.tau, a.shared.struct
    u_own = u_loc[a.sl(a.own_pos)]
    u_prev = (np.full(p, st.u0) if a.i == 1
              else u_loc[a.sl(a.own_pos - 1)])
    rows = HorizonRows(cfg, par, v, u_own)
    q, q_grad = rows.q, rows.q_grad
    h, g_own, g_prev = rows.safety(prev, v_prev, z, zp, u_prev, struct)
    own_h, prev_h = rows.hessians(prev, struct)
    lower, d2 = [], np.zeros((p, p))
    for j in range(p):
        if j:
            row = np.tril(np.ones((p, p)))[j - 1]
            d2 = d2 + 2.0 * tau ** 3 * par.drag * np.outer(row, row)
        lower.append(_agent_row(
            a, -q_grad[j], curv=lip_factor * np.max(np.abs(
                np.linalg.eigvalsh(d2))), const=cfg.speed_min - q[j]))
    upper = [_agent_row(a, q_grad[j], const=q[j] - cfg.speed_max)
             for j in range(p)]
    safety = [_agent_row(a, g_own[j], g_prev[j], lip_factor * max(
        np.max(np.abs(np.linalg.eigvalsh(own_h[j]))),
        np.max(np.abs(np.linalg.eigvalsh(prev_h[j])))), h[j])
        for j in range(p)]
    return lower + upper + safety


def stack_rows(rows, d):
    """The A (m, d, d), b (m, d) and c (m,) stacks of a list of m rows
    (A_k, b_k, c_k) in d variables."""
    return (np.array([A for A, _, _ in rows], dtype=float).reshape(-1, d, d),
            np.array([b for _, b, _ in rows], dtype=float).reshape(-1, d),
            np.array([c for _, _, c in rows], dtype=float))


def rows_by_vehicle(A, b, c, p):
    """Per-vehicle lists of (A_k, b_k, c_k) rows from the platoon stacks
    of a row builder, over the (predecessor, own) blocks and the own
    block alone for the first vehicle: the tuple format the one-step rows
    were handed over in."""
    return [list(zip(A[i, :, -w:, -w:], b[i, :, -w:], c[i]))
            for i, w in enumerate([p] + [2 * p] * (len(c) - 1))]


def restricted_rows_by_loop(config, state, struct, p):
    """Per-vehicle lists of restricted rows, built one row at a time from
    the platoon's restricted sets: the corridor's low and high row of each
    step, then the convex safety rows."""
    from platoon_mpc.assembly import restricted_convex_sets

    rs = restricted_convex_sets(config, state, p, struct)
    out = []
    for i, w in enumerate([p] + [2 * p] * (config.n - 1)):
        rows = []
        for j in range(p):
            row = np.zeros(w)
            row[-p:] = struct.S_p[j]
            rows.append((np.zeros((w, w)), -row, float(rs.cum_lo[i, j])))
            rows.append((np.zeros((w, w)), row, -float(rs.cum_hi[i, j])))
        out.append(rows + [(A[-w:, -w:], b[-w:], float(c))
                           for A, b, c in zip(rs.A[i], rs.b[i], rs.c[i])])
    return out


def kernel_stacks_by_list(quads, lo, hi):
    """aff_B, aff_c, curved and curved_A of a problem over the box
    [lo, hi] and the list of rows quads, gathered row by row with list
    comprehensions."""
    d, m = lo.size, len(quads)
    rows_b = np.array([b for _, b, _ in quads], dtype=float)
    aff_B = np.concatenate([-np.eye(d), np.eye(d), rows_b.reshape(m, d)])
    aff_c = np.concatenate([lo, -hi, np.array([c for _, _, c in quads],
                                               dtype=float)])
    curved = [k for k, (A, _, _) in enumerate(quads) if np.any(A)]
    curved_A = np.array([quads[k][0] for k in curved],
                        dtype=float).reshape(len(curved), d, d)
    return aff_B, aff_c, 2 * d + np.array(curved, dtype=int), curved_A


def place_rows(rows, i, first, dim, p):
    """Vehicle i's rows written one at a time into fresh dim-vectors whose
    first block holds vehicle `first` (1-based)."""
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

    from platoon_mpc.assembly import HorizonRows, local_objective
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
            val, grads, _ = local_objective(shared.objectives[a.i - 1],
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
            rows = HorizonRows(config, par, float(state.v[i]), u[i - 1])
            prev = config.leader if i == 1 else config.vehicles[i - 2]
            u_prev = np.full(p, state.u0) if i == 1 else u[i - 2]
            h, _, _ = rows.safety(prev, float(state.v[i - 1]),
                                  float(z[i - 1]), float(zp[i - 1]), u_prev,
                                  shared.struct)
            out.append(np.concatenate([rows.q - config.speed_min,
                                       config.speed_max - rows.q, -h]))
        return np.concatenate(out)

    bounds = [(v.accel_min, v.accel_max) for v in config.vehicles
              for _ in range(p)]
    res = minimize(cost, np.ravel(x0), jac=True, method="SLSQP",
                   bounds=bounds, constraints=[{"type": "ineq", "fun": slack}],
                   options={"ftol": 1e-14, "maxiter": 2000})
    assert res.success, res.message
    return res.x.reshape(n, p), float(np.linalg.norm(cost(res.x)[1]))
