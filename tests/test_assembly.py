import numpy as np
import pytest

from conftest import cruise_state
from oracles import (exact_horizon_cost, fd_grad, tracking_cost_from_accels,
                     w_star_reference)
from platoon_mpc.assembly import (
    WeightSchedule, approx_accel, approx_accel_jacobian,
    assemble_quadratic_model, build_local_objectives, build_structural,
    decompose_model, decomposition_residual, exact_accel, local_objective,
    local_objective_hessian, pseudo_speeds, restricted_convex_sets,
    safety_constraint_fn, safety_constraint_hessians, speed_constraint_fn,
    speed_envelopes,
)
from platoon_mpc.platoon import PlatoonState, h_one_step, random_feasible_state
from platoon_mpc.presets import PLATOON_NAMES, platoon_preset, weight_preset


def random_schedule(rng, n, p):
    return WeightSchedule(qz=rng.uniform(0.0, 50.0, (p, n)),
                          qzp=rng.uniform(0.0, 180.0, (p, n)),
                          qw=rng.uniform(0.5, 500.0, (p, n)))


def uniform_schedule(name, p, n):
    base = weight_preset(name, 1, n)
    return WeightSchedule(qz=np.tile(base.qz, (p, 1)),
                          qzp=np.tile(base.qzp, (p, 1)),
                          qw=np.tile(base.qw, (p, 1)))


def quad_value(quad, y):
    A, b, c = quad
    return 0.5 * y @ (A @ y) + b @ y + c


def test_structural_frozen():
    st = build_structural(3, 2)
    assert np.array_equal(st.S_n_inv, [[1, 0, 0], [-1, 1, 0], [0, -1, 1]])
    assert np.array_equal(st.R_p, [[1, 0], [3, 1]])
    ones = np.argwhere(st.E == 1.0)
    assert {tuple(r) for r in ones} == {(0, 0), (1, 2), (2, 4),
                                        (3, 1), (4, 3), (5, 5)}
    assert np.array_equal(st.E @ st.E.T, np.eye(6))
    st3 = build_structural(2, 3)
    assert np.array_equal(st3.R_p, [[1, 0, 0], [3, 1, 0], [5, 3, 1]])
    assert np.array_equal(st3.S_p_shift, [[0, 0, 0], [1, 0, 0], [1, 1, 0]])
    # stage sums of the double-integrator kernel are j^2 / 2
    kappa = 0.5 * st3.R_p
    assert np.allclose(kappa.sum(axis=1), [0.5, 2.0, 4.5])


def test_quadratic_model_canonical_frozen():
    cfg = platoon_preset("small", n=2)
    w = WeightSchedule(qz=[[38.85, 40.20]] * 2, qzp=[[130.61, 136.21]] * 2,
                       qw=[[62.0, 74.0]] * 2)
    z = np.array([0.5, -0.3])
    zp = np.array([0.2, -0.1])
    a = np.array([[0.1, -0.2], [0.05, 0.15]])
    model = assemble_quadratic_model(cfg, w, z=z, z_prime=zp, u0=0.3)
    av = a.reshape(-1)
    val = 0.5 * av @ model.W @ av + model.c @ av + model.gamma
    assert val == pytest.approx(143.9235375, abs=1e-9)
    assert tracking_cost_from_accels(cfg, w, z, zp, 0.3, a) == pytest.approx(
        143.9235375, abs=1e-9)


@pytest.mark.parametrize("n,p", [(2, 1), (2, 3), (4, 2), (4, 5), (3, 4)])
def test_quadratic_model_matches_recursion_oracle(n, p, rng):
    cfg = platoon_preset("medium", n=n)
    for _ in range(6):
        w = random_schedule(rng, n, p)
        z = rng.normal(0.0, 2.0, n)
        zp = rng.normal(0.0, 1.0, n)
        u0 = float(rng.uniform(-2.0, 1.0))
        a = rng.normal(0.0, 2.0, (n, p))
        model = assemble_quadratic_model(cfg, w, z=z, z_prime=zp, u0=u0)
        av = a.reshape(-1)
        val = 0.5 * av @ model.W @ av + model.c @ av + model.gamma
        ref = tracking_cost_from_accels(cfg, w, z, zp, u0, a)
        assert abs(val - ref) <= 1e-8 * (1.0 + abs(ref))


@pytest.mark.parametrize("name", PLATOON_NAMES)
def test_full_cost_matches_rolled_dynamics(name, rng):
    """With the exact accelerations plugged in, the quadratic plus the ride
    swap term reproduces the cost of simulating the lossy model."""
    cfg = platoon_preset(name, n=4)
    p = 3
    w = random_schedule(rng, 4, p)
    state = random_feasible_state(cfg, rng)
    state.u0 = -0.5
    u_plan = rng.uniform(-2.0, 1.0, (4, p))
    model = assemble_quadratic_model(cfg, w, state=state)
    a = np.concatenate([
        exact_accel(cfg.vehicles[i], cfg.tau, state.v[i + 1], u_plan[i])
        for i in range(4)])
    u = u_plan.reshape(-1)
    val = (0.5 * a @ model.W @ a + model.c @ a + model.gamma
           + 0.5 * cfg.tau ** 2 * (u @ model.Psi @ u - a @ model.Psi @ a))
    ref = exact_horizon_cost(cfg, w, state, u_plan)
    assert abs(val - ref) <= 1e-8 * (1.0 + abs(ref))


def test_curvature_is_state_independent(rng):
    cfg = platoon_preset("small", n=3)
    w = uniform_schedule("small", 2, 3)
    m1 = assemble_quadratic_model(cfg, w, z=rng.normal(size=3),
                                  z_prime=rng.normal(size=3), u0=0.4)
    m2 = assemble_quadratic_model(cfg, w, z=rng.normal(size=3),
                                  z_prime=rng.normal(size=3), u0=-1.0)
    assert np.array_equal(m1.W, m2.W)
    assert np.array_equal(m1.Psi, m2.Psi)
    assert not np.array_equal(m1.c, m2.c)


def test_linear_term_is_local(rng):
    """c on vehicle i depends on (z, z') of vehicles i and i+1 only."""
    n, p = 6, 3
    cfg = platoon_preset("small", n=n)
    w = uniform_schedule("small", p, n)
    z = rng.normal(size=n)
    zp = rng.normal(size=n)
    base = assemble_quadratic_model(cfg, w, z=z, z_prime=zp, u0=0.0)
    for i in range(1, n + 1):
        z2 = z.copy()
        zp2 = zp.copy()
        for j in range(n):
            if j + 1 not in (i, i + 1):
                z2[j] += rng.normal()
                zp2[j] += rng.normal()
        pert = assemble_quadratic_model(cfg, w, z=z2, z_prime=zp2, u0=0.0)
        assert np.allclose(base.c_block(i), pert.c_block(i), atol=1e-12)


def test_curvature_definiteness(rng):
    for name, p in (("small", 1), ("medium", 3), ("large", 5)):
        cfg = platoon_preset(name, n=5)
        w = weight_preset(name, p, n=5)
        model = assemble_quadratic_model(cfg, w, z=np.zeros(5),
                                        z_prime=np.zeros(5), u0=0.0)
        assert np.linalg.eigvalsh(model.W)[0] > 0.0
        assert np.linalg.eigvalsh(model.V)[0] >= -1e-9 * np.linalg.norm(
            model.V, 2)


def test_single_stage_relative_curvature(small):
    """In relative-control coordinates the one-stage cost is diagonal."""
    n = small.n
    w = weight_preset("small", 1, n)
    model = assemble_quadratic_model(small, w, z=np.zeros(n),
                                    z_prime=np.zeros(n), u0=0.0)
    s_n = np.tril(np.ones((n, n)))
    tau = small.tau
    got = s_n.T @ model.W @ s_n
    want = tau ** 2 * np.diag(tau ** 2 * w.qz[0] / 4.0 + w.qzp[0] + w.qw[0])
    assert np.allclose(got, want, atol=1e-8)


@pytest.mark.parametrize("name", PLATOON_NAMES)
def test_single_stage_optimum_matches_closed_form(name, rng):
    cfg = platoon_preset(name)
    n = cfg.n
    w = weight_preset(name, 1, n)
    for _ in range(5):
        v0 = float(rng.uniform(16.0, 26.0))
        zp = rng.normal(0.0, 0.8, n)
        v = v0 - np.cumsum(zp)
        z = rng.normal(0.0, 2.0, n)
        u0 = float(rng.uniform(-1.0, 1.0))
        x = np.concatenate(([0.0], -np.cumsum(cfg.gap + z)))
        state = PlatoonState(x, np.concatenate(([v0], v)), u0)
        model = assemble_quadratic_model(cfg, w, state=state)
        e = cfg.drag * v * v + cfg.roll * 9.8
        a_star = -np.linalg.solve(model.W,
                                  model.c + cfg.tau ** 2 * model.Psi @ e)
        u_star = a_star + e
        s_n = np.tril(np.ones((n, n)))
        w_star = np.linalg.solve(s_n, u0 * np.ones(n) - u_star)
        ref = w_star_reference(cfg, w, z, zp, v0, u0)
        assert np.max(np.abs(w_star - ref)) <= 1e-9 * (1.0 + np.max(np.abs(ref)))


@pytest.mark.parametrize("name,p", [("small", 1), ("small", 3), ("medium", 2),
                                    ("medium", 5), ("large", 4)])
def test_decomposition_exact_and_psd(name, p):
    cfg = platoon_preset(name)
    w = weight_preset(name, p)
    model = assemble_quadratic_model(cfg, w, z=np.zeros(10),
                                    z_prime=np.zeros(10), u0=0.0)
    dec = decompose_model(model)
    assert decomposition_residual(model, dec) <= 1e-10
    for blk in dec.W_hat + dec.Psi_hat:
        assert np.linalg.eigvalsh(0.5 * (blk + blk.T))[0] >= -1e-10
    assert dec.spans[0] == (1, 2)
    assert dec.spans[4] == (4, 6)
    assert dec.spans[9] == (9, 10)


def test_decomposition_random_schedules(rng):
    for _ in range(10):
        n = int(rng.integers(2, 7))
        p = int(rng.integers(1, 5))
        cfg = platoon_preset("medium", n=n)
        w = random_schedule(rng, n, p)
        model = assemble_quadratic_model(cfg, w, z=np.zeros(n),
                                        z_prime=np.zeros(n), u0=0.0)
        dec = decompose_model(model)
        assert decomposition_residual(model, dec) <= 1e-10
        for blk in dec.W_hat + dec.Psi_hat:
            assert np.linalg.eigvalsh(0.5 * (blk + blk.T))[0] >= -1e-10


def test_accel_maps_lossfree_and_error_order(rng):
    cfg = platoon_preset("small")
    par = cfg.vehicles[0]
    u = rng.uniform(-2.0, 1.0, 4)
    lossfree = type(par)(par.length, par.headway, par.accel_min,
                         par.accel_max, 0.0, par.roll)
    assert np.allclose(approx_accel(lossfree, 1.0, 24.0, u),
                       exact_accel(lossfree, 1.0, 24.0, u), atol=1e-14)
    # the mismatch is second order in the loss coefficients
    errs = []
    for scale in (1.0, 0.25):
        lossy = type(par)(par.length, par.headway, par.accel_min,
                          par.accel_max, par.drag * scale, par.roll * scale)
        errs.append(np.max(np.abs(approx_accel(lossy, 1.0, 24.0, u)
                                  - exact_accel(lossy, 1.0, 24.0, u))))
    ratio = errs[0] / errs[1]
    assert 11.0 <= ratio <= 21.0


def test_accel_jacobian_fd(rng):
    cfg = platoon_preset("large")
    par = cfg.vehicles[0]
    u = rng.uniform(-2.0, 1.0, 5)
    ja = approx_accel_jacobian(par, 1.0, 22.0, u)
    for t in range(5):
        g = fd_grad(lambda x: approx_accel(par, 1.0, 22.0, x)[t], u)
        assert np.max(np.abs(ja[t] - g)) <= 1e-6


def test_speed_constraint_single_stage_exact(small):
    par = small.vehicles[0]
    u = np.array([0.7])
    q, grad = speed_constraint_fn(small, par, 25.0, u)
    v_next = 25.0 + small.tau * (0.7 - par.drag * 625.0 - par.roll * 9.8)
    assert q[0] == pytest.approx(v_next, abs=1e-12)
    assert grad[0, 0] == pytest.approx(small.tau, abs=1e-12)


def test_speed_constraint_gradient_fd(rng):
    cfg = platoon_preset("large")
    par = cfg.vehicles[0]
    for _ in range(5):
        u = rng.uniform(-2.0, 1.0, 4)
        q, grad = speed_constraint_fn(cfg, par, 23.0, u)
        for t in range(4):
            g = fd_grad(lambda x: speed_constraint_fn(cfg, par, 23.0, x)[0][t],
                        u)
            assert np.max(np.abs(grad[t] - g)) <= 1e-6 * (1.0 + np.max(np.abs(g)))


def test_speed_constraint_tracks_rolled_speeds(rng):
    cfg = platoon_preset("medium")
    par = cfg.vehicles[2]
    u = rng.uniform(-1.0, 1.0, 5)
    q, _ = speed_constraint_fn(cfg, par, 24.0, u)
    speed = 24.0
    rolled = []
    for t in range(5):
        speed += cfg.tau * (u[t] - par.drag * speed * speed - par.roll * 9.8)
        rolled.append(speed)
    # drift is second order in the losses, accruing ~ j^2 over the horizon
    assert abs(q[0] - rolled[0]) <= 1e-12
    assert np.max(np.abs(q - np.array(rolled))) <= 0.06


def test_safety_constraint_single_stage_matches_one_step(medium, rng):
    n = medium.n
    struct = build_structural(n, 1)
    for _ in range(5):
        state = random_feasible_state(medium, rng)
        state.u0 = -0.8
        u = rng.uniform(-2.0, 1.0, n)
        ref = h_one_step(medium, state, u)
        z = state.spacing_error(medium.gap)
        zp = state.rel_speed()
        for i in range(1, n + 1):
            par = medium.vehicles[i - 1]
            prev = medium.leader if i == 1 else medium.vehicles[i - 2]
            u_prev = (np.array([state.u0]) if i == 1
                      else np.array([u[i - 2]]))
            h, _, _ = safety_constraint_fn(
                medium, par, prev, state.v[i], state.v[i - 1],
                z[i - 1], zp[i - 1], np.array([u[i - 1]]), u_prev, struct)
            assert h[0] == pytest.approx(ref[i - 1], abs=1e-9)


def test_safety_constraint_gradients_fd(large, rng):
    p = 4
    struct = build_structural(large.n, p)
    par = large.vehicles[1]
    prev = large.vehicles[0]
    u = rng.uniform(-2.0, 1.0, p)
    u_prev = rng.uniform(-2.0, 1.0, p)
    h, g_own, g_prev = safety_constraint_fn(
        large, par, prev, 23.0, 24.0, 1.5, -0.4, u, u_prev, struct)
    for j in range(p):
        g1 = fd_grad(lambda x: safety_constraint_fn(
            large, par, prev, 23.0, 24.0, 1.5, -0.4, x, u_prev, struct)[0][j],
            u)
        g2 = fd_grad(lambda x: safety_constraint_fn(
            large, par, prev, 23.0, 24.0, 1.5, -0.4, u, x, struct)[0][j],
            u_prev)
        assert np.max(np.abs(g_own[j] - g1)) <= 1e-6 * (1.0 + np.max(np.abs(g1)))
        assert np.max(np.abs(g_prev[j] - g2)) <= 1e-6 * (1.0 + np.max(np.abs(g2)))


def test_safety_constraint_hessians_fd(large, rng):
    p = 4
    struct = build_structural(large.n, p)
    par = large.vehicles[2]
    prev = large.vehicles[1]
    u = rng.uniform(-2.0, 1.0, p)
    u_prev = rng.uniform(-2.0, 1.0, p)
    own, prv = safety_constraint_hessians(large, par, prev, 23.0, u, struct)

    def row(j, x, xp):
        return safety_constraint_fn(large, par, prev, 23.0, 24.0, 1.5, -0.4,
                                    x, xp, struct)[0][j]

    eps = 1e-4
    for j in range(p):
        fd_own = np.zeros((p, p))
        fd_prev = np.zeros((p, p))
        for a in range(p):
            for b in range(p):
                ea, eb = np.eye(p)[a], np.eye(p)[b]
                fd_own[a, b] = (row(j, u + eps * ea + eps * eb, u_prev)
                                - row(j, u + eps * ea - eps * eb, u_prev)
                                - row(j, u - eps * ea + eps * eb, u_prev)
                                + row(j, u - eps * ea - eps * eb, u_prev)) \
                    / (4.0 * eps * eps)
                fd_prev[a, b] = (row(j, u, u_prev + eps * ea + eps * eb)
                                 - row(j, u, u_prev + eps * ea - eps * eb)
                                 - row(j, u, u_prev - eps * ea + eps * eb)
                                 + row(j, u, u_prev - eps * ea - eps * eb)) \
                    / (4.0 * eps * eps)
        assert np.max(np.abs(own[j] - fd_own)) <= 1e-5 * (1.0 + np.max(np.abs(fd_own)))
        assert np.max(np.abs(prv[j] - fd_prev)) <= 1e-5 * (1.0 + np.max(np.abs(fd_prev)))
        # no curvature across the two blocks
        mid = (row(j, u + eps * np.eye(p)[0], u_prev + eps * np.eye(p)[1])
               - row(j, u + eps * np.eye(p)[0], u_prev - eps * np.eye(p)[1])
               - row(j, u - eps * np.eye(p)[0], u_prev + eps * np.eye(p)[1])
               + row(j, u - eps * np.eye(p)[0], u_prev - eps * np.eye(p)[1])) \
            / (4.0 * eps * eps)
        assert abs(mid) <= 1e-6


def test_local_objectives_sum_to_central(rng):
    n, p = 5, 3
    cfg = platoon_preset("medium", n=n)
    w = weight_preset("medium", p, n=n)
    state = random_feasible_state(cfg, rng)
    state.u0 = 0.5
    model = assemble_quadratic_model(cfg, w, state=state)
    dec = decompose_model(model)
    locs = build_local_objectives(cfg, model, dec, state)
    u_plan = rng.uniform(-2.0, 1.0, (n, p))
    total = 0.0
    for lo in locs:
        blocks = [u_plan[j - 1] for j in lo.blocks]
        val, _ = local_objective(lo, blocks)
        total += val
    a = np.concatenate([
        approx_accel(cfg.vehicles[i], cfg.tau, state.v[i + 1], u_plan[i])
        for i in range(n)])
    u = u_plan.reshape(-1)
    central = (0.5 * a @ model.W @ a + model.c @ a
               + 0.5 * cfg.tau ** 2 * (u @ model.Psi @ u - a @ model.Psi @ a))
    assert abs(total - central) <= 1e-9 * (1.0 + abs(central))


def test_local_objective_gradients_fd(rng):
    n, p = 4, 3
    cfg = platoon_preset("large", n=n)
    w = weight_preset("large", p, n=n)
    state = random_feasible_state(cfg, rng)
    model = assemble_quadratic_model(cfg, w, state=state)
    dec = decompose_model(model)
    locs = build_local_objectives(cfg, model, dec, state)
    for lo in locs:
        blocks = [rng.uniform(-2.0, 1.0, p) for _ in lo.blocks]
        val, grads = local_objective(lo, blocks)
        flat = np.concatenate(blocks)

        def as_fn(x):
            parts = [x[b * p:(b + 1) * p] for b in range(len(blocks))]
            return local_objective(lo, parts)[0]

        g_ref = fd_grad(as_fn, flat, h=1e-6)
        g_got = np.concatenate(grads)
        assert np.max(np.abs(g_got - g_ref)) <= 1e-5 * (1.0 + np.max(np.abs(g_ref)))


def test_local_objective_hessian_fd(rng):
    n, p = 3, 2
    cfg = platoon_preset("medium", n=n)
    w = weight_preset("medium", p, n=n)
    state = random_feasible_state(cfg, rng)
    model = assemble_quadratic_model(cfg, w, state=state)
    dec = decompose_model(model)
    locs = build_local_objectives(cfg, model, dec, state)
    lo = locs[1]
    blocks = [rng.uniform(-2.0, 1.0, p) for _ in lo.blocks]
    hess = local_objective_hessian(lo, blocks)
    flat = np.concatenate(blocks)
    dim = flat.size
    for _ in range(3):
        d = rng.normal(size=dim)
        d /= np.linalg.norm(d)
        h = 1e-5

        def grad_at(x):
            parts = [x[b * p:(b + 1) * p] for b in range(len(blocks))]
            return np.concatenate(local_objective(lo, parts)[1])

        ref = (grad_at(flat + h * d) - grad_at(flat - h * d)) / (2.0 * h)
        assert np.max(np.abs(hess @ d - ref)) <= 1e-5 * (1.0 + np.max(np.abs(ref)))


def test_speed_envelopes_bracket_pseudo_speeds(small, rng):
    par = small.vehicles[0]
    p = 5
    grave, breve = speed_envelopes(small, par, 25.0, p)
    assert np.all(grave <= breve + 1e-12)
    for _ in range(40):
        u = rng.uniform(-2.0, 1.0, p)
        q, _ = speed_constraint_fn(small, par, 25.0, u)
        if np.any(q < small.speed_min) or np.any(q > small.speed_max):
            continue
        sig = pseudo_speeds(small.tau, 25.0, u)[:-1]
        assert np.all(sig >= grave - 1e-9)
        assert np.all(sig <= breve + 1e-9)


def test_restricted_corridor_lossfree_reduces_to_band():
    cfg = platoon_preset("small", n=2)
    for veh in cfg.vehicles:
        veh.drag = 0.0
        veh.roll = 0.0
    struct = build_structural(2, 3)
    rs = restricted_convex_sets(cfg, 1, 24.0, 25.0, 0.0, 0.0, 3, struct)
    assert np.allclose(rs.cum_lo, (cfg.speed_min - 24.0) / cfg.tau)
    assert np.allclose(rs.cum_hi, (cfg.speed_max - 24.0) / cfg.tau)


def test_restricted_quads_are_convex(medium):
    struct = build_structural(medium.n, 4)
    for i in (1, 2, 5):
        rs = restricted_convex_sets(medium, i, 23.0, 24.0, 0.5, -0.2, 4,
                                    struct)
        assert rs.includes_prev == (i > 1)
        for A, b, c in rs.quads:
            assert np.linalg.eigvalsh(A)[0] >= -1e-12


@pytest.mark.parametrize("tight", [False, True])
def test_restricted_sets_are_inner(tight, rng):
    """Points of the restricted corridor-and-quadratic set satisfy the true
    horizon constraints."""
    cfg = platoon_preset("large", n=3)
    p = 3
    struct = build_structural(3, p)
    i = 2
    par = cfg.vehicles[i - 1]
    prev = cfg.vehicles[i - 2]
    v, v_prev = 22.0, 23.0
    z = -24.0 if tight else 0.0   # tight: 0.9 m above the safety bound
    zp = v_prev - v
    rs = restricted_convex_sets(cfg, i, v, v_prev, z, zp, p, struct)
    checked = 0
    for _ in range(400):
        u_own = rng.uniform(par.accel_min, par.accel_max, p)
        u_prev = rng.uniform(prev.accel_min, prev.accel_max, p)
        cums = np.cumsum(u_own)
        if np.any(cums < rs.cum_lo - 1e-12) or np.any(cums > rs.cum_hi + 1e-12):
            continue
        y = np.concatenate([u_prev, u_own])
        tilde = np.array([quad_value(qd, y) for qd in rs.quads])
        h, _, _ = safety_constraint_fn(cfg, par, prev, v, v_prev, z, zp,
                                       u_own, u_prev, struct)
        # the convex rows upper-bound the true residuals ...
        assert np.all(tilde >= h - 1e-9)
        q, _ = speed_constraint_fn(cfg, par, v, u_own)
        assert np.all(q >= cfg.speed_min - 1e-9)
        assert np.all(q <= cfg.speed_max + 1e-9)
        # ... so restricted-feasible points are truly feasible
        if np.all(tilde <= 0.0):
            assert np.all(h <= 1e-9)
            checked += 1
    assert checked >= 10


def test_restricted_sets_leader_term(small, rng):
    """For the first vehicle the predecessor contribution is the constant
    leader control."""
    p = 2
    struct = build_structural(small.n, p)
    u0 = -1.0
    rs = restricted_convex_sets(small, 1, 24.0, 25.0, 0.0, 1.0, p, struct,
                                u0=u0)
    assert not rs.includes_prev
    par = small.vehicles[0]
    u_own = rng.uniform(-2.0, 1.0, p)
    tilde = np.array([quad_value(qd, u_own) for qd in rs.quads])
    h, _, _ = safety_constraint_fn(small, par, small.leader, 24.0, 25.0,
                                   0.0, 1.0, u_own, np.full(p, u0), struct)
    assert np.all(tilde >= h - 1e-9)


@pytest.mark.parametrize("name, p", [("small", 1), ("medium", 3),
                                     ("large", 5)])
def test_row_functions_broadcast_over_vehicles(name, p, rng):
    # one call on the stacked platoon equals the per-vehicle calls stacked
    cfg = platoon_preset(name)
    struct = build_structural(cfg.n, p)
    st = random_feasible_state(cfg, rng)
    u = rng.uniform(-2.0, 1.0, (cfg.n, p))
    u_prev = rng.uniform(-2.0, 1.0, (cfg.n, p))
    z, zp = st.spacing_error(cfg.gap), st.rel_speed()
    v, v_prev = st.v[1:], st.v[:-1]
    own, prev = cfg.followers, cfg.predecessors
    preds = [cfg.leader] + cfg.vehicles[:-1]
    calls = [
        (lambda: pseudo_speeds(cfg.tau, v, u),
         lambda i: pseudo_speeds(cfg.tau, v[i], u[i])),
        (lambda: approx_accel(own, cfg.tau, v, u),
         lambda i: approx_accel(cfg.vehicles[i], cfg.tau, v[i], u[i])),
        (lambda: approx_accel_jacobian(own, cfg.tau, v, u),
         lambda i: approx_accel_jacobian(cfg.vehicles[i], cfg.tau, v[i],
                                         u[i])),
        (lambda: speed_constraint_fn(cfg, own, v, u),
         lambda i: speed_constraint_fn(cfg, cfg.vehicles[i], v[i], u[i])),
        (lambda: safety_constraint_fn(cfg, own, prev, v, v_prev, z, zp, u,
                                      u_prev, struct),
         lambda i: safety_constraint_fn(cfg, cfg.vehicles[i], preds[i], v[i],
                                        v_prev[i], z[i], zp[i], u[i],
                                        u_prev[i], struct)),
        (lambda: safety_constraint_hessians(cfg, own, prev, v, u, struct),
         lambda i: safety_constraint_hessians(cfg, cfg.vehicles[i],
                                              preds[i], v[i], u[i], struct)),
    ]
    for batched, single in calls:
        got = batched()
        want = [single(i) for i in range(cfg.n)]
        if not isinstance(got, tuple):
            got, want = (got,), [(w,) for w in want]
        for k, part in enumerate(got):
            ref = np.stack([w[k] for w in want])
            assert part.shape == ref.shape
            assert np.max(np.abs(part - ref)) <= \
                1e-12 * (1.0 + np.max(np.abs(ref)))
