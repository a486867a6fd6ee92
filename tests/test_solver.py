"""Splitting solver: fabric locality and message counts, the consensus
average, determinism, stagewise feasibility, agreement with the
centralized references, validity of the majorant rows, capped-run
counts, and the freeze heuristic at steady cruise."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import cruise_state
from oracles import (horizon_minimizer, projection_by_lstsq,
                     w_star_reference)
from platoon_mpc.assembly import (assemble_quadratic_model,
                                  safety_constraint_fn, speed_constraint_fn)
from platoon_mpc.convex import ConvexQcqp, box_prox
from platoon_mpc.platoon import GRAVITY, PlatoonState
from platoon_mpc.presets import platoon_preset, weight_preset
from platoon_mpc.solver import (
    INNER_TOL, NU, OUTER_TOL, LocalExchange, LocalityError, SolverConfig,
    _begin_stage, _consensus, _run_rounds, dr_round, formulate_local,
    plan_violation, scp_step, solve_centralized_linear, solve_centralized_p1,
    solve_mpc, warm_start_linear,
)


def offset_state(config, dx=0.4, dv=0.3, speed=25.0, u0=0.0):
    """Cruise state with a linear ramp of spacing and speed offsets."""
    st = cruise_state(config, speed=speed, u0=u0)
    n = config.n
    st.x[1:] += np.linspace(dx, -dx, n)
    st.v[1:] += np.linspace(-dv, dv, n)
    return st


def loss_scaled(config, s):
    """Same platoon with the drag and rolling losses scaled by s; at s = 0
    the dynamics are linear and the horizon problem is convex."""
    vehs = [replace(v, drag=v.drag * s, roll=v.roll * s)
            for v in config.vehicles]
    return replace(config, vehicles=vehs)


def quad_value(quad, y):
    A, b, c = quad
    return 0.5 * y @ (A @ y) + b @ y + c


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(alpha=0.0)
    with pytest.raises(ValueError):
        SolverConfig(alpha=1.0)
    with pytest.raises(ValueError):
        SolverConfig(rho=-0.1)
    opts = SolverConfig()
    assert opts.outer_tol_for(1) == 1e-5
    assert opts.outer_tol_for(4) == 1.0e-2
    assert opts.inner_tol_for(3) == 5.0e-3
    assert opts.nu_for(2) == 0.8
    assert opts.nu_for(5) == 0.9
    assert SolverConfig(tol_outer=1e-6).outer_tol_for(3) == 1e-6
    assert set(OUTER_TOL) == {1, 2, 3, 4, 5}
    assert set(INNER_TOL) == set(NU) == {2, 3, 4, 5}


def test_exchange_rejects_distant_pairs():
    net = LocalExchange(4)
    payload = np.zeros(3)
    net.transfer(2, 3, payload)
    net.transfer(3, 2, payload)
    net.transfer(1, 1, payload)
    with pytest.raises(LocalityError):
        net.transfer(1, 3, payload)
    with pytest.raises(LocalityError):
        net.transfer(0, 1, payload)
    with pytest.raises(LocalityError):
        net.transfer(4, 5, payload)
    assert net.messages == 3
    assert net.floats == 9


def test_consensus_matches_lstsq(rng):
    # on a 4-vehicle platoon the agents hold blocks [1, 2], [1, 2, 3],
    # [2, 3, 4] and [3, 4]; averaging the copies is the orthogonal
    # projection onto the agreement subspace
    p = 3
    cfg = platoon_preset("small", n=4)
    agents = formulate_local(cfg, weight_preset("small", p, n=4),
                             cruise_state(cfg))
    layout = [a.blocks for a in agents]
    for a in agents:
        a.z = rng.normal(size=a.dim)
    z = [a.z.copy() for a in agents]
    net = LocalExchange(cfg.n)
    means = _consensus(agents, net)
    got = np.concatenate([a.w for a in agents])
    ref = projection_by_lstsq(layout, np.concatenate(z), p)
    assert np.max(np.abs(got - ref)) <= 1e-9
    assert net.messages == 4 * (cfg.n - 1)
    # idempotent, and each mean is the average of its copies
    for a in agents:
        a.z = a.w.copy()
    _consensus(agents, net)
    assert np.max(np.abs(np.concatenate([a.w for a in agents]) - got)) \
        <= 1e-12
    manual = (z[0][p:] + z[1][p:2 * p] + z[2][:p]) / 3.0
    assert np.allclose(means[2], manual, atol=1e-12)


def test_transfer_returns_a_copy():
    net = LocalExchange(2)
    payload = np.ones(2)
    got = net.transfer(1, 2, payload)
    got[0] = 7.0
    assert payload[0] == 1.0


def test_determinism_bitwise(small):
    w = weight_preset("small", 3, n=small.n)
    plans, diags = [], []
    for _ in range(2):
        st = offset_state(small)
        agents = formulate_local(small, w, st)
        res = solve_mpc(agents)
        plans.append(res.u_plan)
        diags.append(res.diagnostics)
    assert plans[0].tobytes() == plans[1].tobytes()
    assert diags[0].outer_iters == diags[1].outer_iters
    assert diags[0].inner_iters == diags[1].inner_iters
    assert diags[0].messages == diags[1].messages
    assert diags[0].prox_calls == diags[1].prox_calls


def test_warm_start_matches_centralized_restricted(small):
    p = 3
    w = weight_preset("small", p, n=small.n)
    st = offset_state(small)
    agents = formulate_local(small, w, st)
    plan = warm_start_linear(agents)
    ref = solve_centralized_linear(small, w, st)
    assert np.max(np.abs(plan - ref)) <= 2e-3
    sh = agents[0].shared
    assert plan_violation(small, st, plan, sh.struct) <= 1e-6


def test_loss_free_terminates_fast_and_matches(small):
    # without losses the dynamics are linear, the horizon problem is the
    # convex one, and a single relinearization is already stationary
    p = 3
    cfg0 = loss_scaled(small, 0.0)
    w = weight_preset("small", p, n=cfg0.n)
    st = offset_state(cfg0)
    agents = formulate_local(cfg0, w, st)
    res = solve_mpc(agents)
    ref = solve_centralized_linear(cfg0, w, st)
    assert res.diagnostics.outer_iters <= 2
    assert np.max(np.abs(res.u_plan - ref)) <= 2e-3
    assert res.diagnostics.feasible


def test_loss_halving_shrinks_distance(small):
    # the minimizer depends continuously on the nonlinearity: halving the
    # loss coefficients walks the solution toward the loss-free optimum
    p = 3
    w = weight_preset("small", p, n=small.n)
    st = offset_state(small)
    ref = solve_centralized_linear(loss_scaled(small, 0.0), w, st)
    dists = []
    for m in range(6):
        cfg_m = loss_scaled(small, 0.5 ** m)
        agents = formulate_local(cfg_m, w, st)
        res = solve_mpc(agents)
        dists.append(float(np.linalg.norm(res.u_plan - ref)))
    assert all(b < a for a, b in zip(dists, dists[1:]))
    assert dists[0] > 0.05
    assert dists[-1] < 5e-3


def test_set_tolerances_reach_horizon_minimizer(small):
    pytest.importorskip("scipy")
    p = 3
    w = weight_preset("small", p, n=small.n)
    st = offset_state(small)
    ref = solve_centralized_linear(loss_scaled(small, 0.0), w, st)
    mins = {}
    for s in (1.0, 1 / 16, 1 / 32):
        mins[s], grad = horizon_minimizer(loss_scaled(small, s), w, st, ref)
        assert grad <= 1e-6
    # the minimizer stays a first-order distance from the loss-free plan,
    # and its first-order extrapolation to zero loss lands on that plan
    assert np.linalg.norm(mins[1 / 32] - ref) > 1e-2
    assert np.linalg.norm(2.0 * mins[1 / 32] - mins[1 / 16] - ref) <= 1e-4
    # with tolerances set, the SCP loop runs to the minimizer instead of
    # stopping near the loss-free warm start
    tight = SolverConfig(tol_outer=1e-5, tol_inner=1e-5)
    for s in (1.0, 1 / 32):
        res = solve_mpc(formulate_local(loss_scaled(small, s), w, st), tight)
        assert res.diagnostics.converged
        assert np.linalg.norm(res.u_plan - mins[s]) <= 1e-4


def test_one_step_matches_centralized(small):
    w = weight_preset("small", 1, n=small.n)
    st = offset_state(small)
    agents = formulate_local(small, w, st)
    res = solve_mpc(agents, SolverConfig(tol_outer=1e-5))
    ref = solve_centralized_p1(small, w, st)
    scale = max(1.0, float(np.max(np.abs(ref))))
    assert np.max(np.abs(res.u_plan.ravel() - ref)) <= 1e-3 * scale
    assert res.diagnostics.converged
    assert res.diagnostics.feasible


# A random feasible state of medium, with the leader braking at
# -5.8 m/s^2, on which the one-step reference misses its optimum.
MISS_X = [0.0, -54.63250780688778, -90.21313120154252, -140.61063159239097,
          -173.563140199904, -227.99951453947995, -262.77637512850816,
          -292.05858585334266, -324.67604221146917, -349.81535752659096,
          -388.0336174192614]
MISS_V = [20.390625255937685, 22.384859082521103, 17.831296997087314,
          19.530057488126772, 13.476470999521165, 25.603404600609355,
          16.02812893494517, 17.34047419250181, 16.601544049138973,
          13.798318760571146, 13.25434023596996]
MISS_U0 = -5.819724177886707


@pytest.mark.xfail(strict=True, reason="the barrier path of qcqp_solve "
                   "stalls short of the optimum on this state")
def test_centralized_p1_is_the_optimum(medium):
    # the problem is strongly convex, so no plan meeting its rows may cost
    # less than the reference; the distributed plan does, by 5.8%
    w = weight_preset("medium", 1)
    st = PlatoonState(np.array(MISS_X), np.array(MISS_V), MISS_U0)
    ref = solve_centralized_p1(medium, w, st)
    agents = formulate_local(medium, w, st)
    plan = solve_mpc(agents).u_plan
    assert plan_violation(medium, st, plan, agents[0].shared.struct) <= 1e-6
    model = assemble_quadratic_model(medium, w, state=st)
    e = np.array([veh.drag * st.v[i + 1] ** 2 + veh.roll * GRAVITY
                  for i, veh in enumerate(medium.vehicles)])

    def cost(u):
        return 0.5 * u @ model.W @ u + (model.c - model.V @ e) @ u

    assert cost(ref) <= cost(plan[:, 0]) + 1e-9 * abs(cost(ref))


def test_one_step_unconstrained_matches_closed_form(small):
    # mild offsets keep every constraint slack, so the splitting must land
    # on the closed-form optimum of the quadratic cost
    w = weight_preset("small", 1, n=small.n)
    st = offset_state(small, dx=0.2, dv=0.1)
    agents = formulate_local(small, w, st)
    res = solve_mpc(agents, SolverConfig(tol_outer=1e-8))
    n = small.n
    z = st.spacing_error(small.gap)
    zp = st.rel_speed()
    w_ref = w_star_reference(small, w, z, zp, st.v[0], st.u0)
    s_n = np.tril(np.ones((n, n)))
    u_ref = st.u0 * np.ones(n) - s_n @ w_ref
    assert np.max(np.abs(res.u_plan.ravel() - u_ref)) <= 1e-6 * (
        1.0 + np.max(np.abs(u_ref)))


@pytest.mark.parametrize("name", ["small", "medium"])
@pytest.mark.parametrize("p", [1, 3])
def test_every_round_sends_four_messages_per_link(name, p):
    # with no agent frozen, a round averages every shared block at its
    # owner: one message out and one back per copy, two copies per link
    cfg = platoon_preset(name)
    st = cruise_state(cfg, u0=-2.0)
    d = solve_mpc(formulate_local(cfg, weight_preset(name, p), st)).diagnostics
    assert d.frozen == 0
    assert d.prox_calls > 0
    assert d.messages * cfg.n == 4 * (cfg.n - 1) * d.prox_calls


def test_capped_runs_are_counted(small):
    # a splitting run has no residual after its first round, so a run cut
    # at max_inner records max_inner - 1 residuals
    st = offset_state(small)
    w1 = weight_preset("small", 1, n=small.n)
    d = solve_mpc(formulate_local(small, w1, st)).diagnostics
    assert d.capped_runs == 0
    d = solve_mpc(formulate_local(small, w1, st),
                  SolverConfig(max_inner=3)).diagnostics
    assert d.capped_runs == 1
    assert not d.converged
    w3 = weight_preset("small", 3, n=small.n)
    d = solve_mpc(formulate_local(small, w3, st)).diagnostics
    assert d.capped_runs == 0
    # the warm start's first attempt is capped and passes its guard
    d = solve_mpc(formulate_local(small, w3, st),
                  SolverConfig(max_inner=100)).diagnostics
    assert d.lin_rounds == 99
    assert d.capped_runs == 1
    # the convergent scheme: the warm start and every stage are capped
    d = solve_mpc(formulate_local(small, w3, st),
                  SolverConfig(max_inner=10, tol_outer=1e-5,
                               tol_inner=1e-5)).diagnostics
    assert d.inner_iters == 9 * d.outer_iters
    assert d.capped_runs == d.outer_iters + 1


def test_decoupled_consensus_reaches_box_solution(small):
    # supply hand-built local problems whose data touch only the agent's
    # own block; the consensus fixed point is then the coordinatewise clip
    cfg = platoon_preset("small", n=2)
    p = 2
    w = weight_preset("small", p, n=2)
    st = cruise_state(cfg)
    agents = formulate_local(cfg, w, st)
    curvs = [2.0, 5.0]
    lins = [np.array([0.5, -9.0]), np.array([-30.0, 1.0])]
    for a, c, g in zip(agents, curvs, lins):
        H = np.zeros((a.dim, a.dim))
        q = np.zeros(a.dim)
        sl = a.sl(a.own_pos)
        H[sl, sl] = c * np.eye(p)
        q[sl] = g
        a.problem = ConvexQcqp(H, q, a.lo, a.hi, [])
    _begin_stage(agents, None)
    trace, conv = _run_rounds(agents, SolverConfig(), None, 1e-10, 400)
    assert conv
    for a, c, g in zip(agents, curvs, lins):
        sl = a.sl(a.own_pos)
        want = box_prox(np.full(p, c), g, a.lo[sl], a.hi[sl])
        got = a.own(a.base + a.w)
        assert np.max(np.abs(got - want)) <= 1e-8


def test_converged_stage_is_a_fixed_point(small):
    p = 2
    w = weight_preset("small", p, n=small.n)
    st = offset_state(small)
    agents = formulate_local(small, w, st)
    res = solve_mpc(agents)
    assert res.diagnostics.converged
    extra = dr_round(agents, SolverConfig(), LocalExchange(small.n))
    assert extra <= 2.0 * SolverConfig().inner_tol_for(p)


def test_every_outer_iterate_feasible(small):
    p = 4
    w = weight_preset("small", p, n=small.n)
    st = offset_state(small, dx=0.6, dv=0.5, u0=-2.0)
    agents = formulate_local(small, w, st)
    res = solve_mpc(agents)
    trail = res.diagnostics.residual_trace["outer_violation"]
    assert len(trail) == res.diagnostics.outer_iters
    assert max(trail) <= 1e-6
    assert res.diagnostics.feasible
    assert res.diagnostics.violation <= 1e-6


def test_cruise_freezes_agents(small):
    p = 3
    w = weight_preset("small", p, n=small.n)
    agents = formulate_local(small, w, cruise_state(small))
    res = solve_mpc(agents)
    d = res.diagnostics
    assert d.converged
    assert d.frozen >= 1
    assert d.stationarity <= 1e-4
    assert d.consensus_gap <= 1e-4
    assert d.feasible


def test_outer_cap_returns_flagged_iterate(small):
    p = 3
    w = weight_preset("small", p, n=small.n)
    st = offset_state(small)
    agents = formulate_local(small, w, st)
    res = solve_mpc(agents, SolverConfig(max_outer=1))
    assert not res.diagnostics.converged
    assert res.diagnostics.outer_iters == 1
    assert res.diagnostics.feasible


def test_refreeze_on_new_state_resets(small):
    # a second call with a fresh state must not inherit frozen agents
    p = 2
    w = weight_preset("small", p, n=small.n)
    agents = formulate_local(small, w, cruise_state(small))
    first = solve_mpc(agents)
    assert first.diagnostics.frozen >= 1
    st = offset_state(small, dx=0.8, dv=0.6)
    res = solve_mpc(agents, state=st)
    assert res.diagnostics.feasible
    assert np.max(np.abs(res.u_plan - first.u_plan)) > 0.05
    cold = solve_mpc(formulate_local(small, w, st))
    assert np.max(np.abs(res.u_plan - cold.u_plan)) <= 0.02


def test_majorant_rows_dominate_sampled(small, rng):
    p = 3
    w = weight_preset("small", p, n=small.n)
    st = offset_state(small, dx=0.6, dv=0.5)
    agents = formulate_local(small, w, st)
    opts = SolverConfig(lip_factor=1.0)
    for a in agents:
        a.u_hat = rng.uniform(-0.4, 0.4, a.dim)
    scp_step(agents, opts)
    z = st.spacing_error(small.gap)
    zp = st.rel_speed()
    for a in agents:
        assert len(a.problem.quads) == 3 * p
        par = small.vehicles[a.i - 1]
        prev = small.leader if a.i == 1 else small.vehicles[a.i - 2]
        v, v_prev = st.v[a.i], st.v[a.i - 1]
        own_sl = a.sl(a.own_pos)
        u_own = a.own(a.u_hat)
        u_prev = (np.full(p, st.u0) if a.i == 1
                  else a.u_hat[a.sl(a.own_pos - 1)])
        for _ in range(25):
            d = np.clip(a.u_hat + rng.uniform(-0.5, 0.5, a.dim),
                        a.lo, a.hi) - a.u_hat
            y_own = u_own + d[own_sl]
            y_prev = u_prev if a.i == 1 else u_prev + d[a.sl(a.own_pos - 1)]
            q_t, _ = speed_constraint_fn(small, par, v, y_own)
            h_t, _, _ = safety_constraint_fn(
                small, par, prev, v, v_prev, z[a.i - 1], zp[a.i - 1],
                y_own, y_prev, a.shared.struct)
            for j in range(p):
                # lower speed rows carry a constant curvature bound, so the
                # majorant is global; safety curvature drifts with the
                # iterate, hence the looser slack
                assert (small.speed_min - q_t[j]
                        <= quad_value(a.problem.quads[j], d) + 1e-9)
                assert (q_t[j] - small.speed_max
                        <= quad_value(a.problem.quads[p + j], d) + 1e-9)
                assert (h_t[j]
                        <= quad_value(a.problem.quads[2 * p + j], d) + 1e-4)


def test_plan_violation_flags_bad_plans(small):
    p = 2
    w = weight_preset("small", p, n=small.n)
    st = cruise_state(small)
    agents = formulate_local(small, w, st)
    struct = agents[0].shared.struct
    ok = np.zeros((small.n, p))
    assert plan_violation(small, st, ok, struct) <= 0.0
    bad = np.zeros((small.n, p))
    bad[0, 0] = small.accel_max[0] + 0.5
    assert plan_violation(small, st, bad, struct) >= 0.5 - 1e-12
