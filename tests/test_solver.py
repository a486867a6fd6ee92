"""Splitting solver: fabric locality and message counts, the consensus
average, determinism, stagewise feasibility, agreement with the
centralized references, validity of the majorant rows, capped-run
counts, and the freeze heuristic at steady cruise."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import cruise_state
from oracles import (consensus_gap_by_copies, horizon_minimizer,
                     p1_rows_by_agent, plan_violation_by_vehicle,
                     projection_by_lstsq, prox_by_solve, scp_rows_by_agent,
                     stationarity_by_agent, w_star_reference)
from platoon_mpc import loop, solver
from platoon_mpc.assembly import (assemble_quadratic_model, build_structural,
                                  safety_constraint_fn, speed_constraint_fn)
from platoon_mpc.convex import ConvexQcqp, box_prox
from platoon_mpc.loop import Scenario, cruise_scenario, simulate
from platoon_mpc.platoon import (GRAVITY, PlatoonState,
                                 random_feasible_state)
from platoon_mpc.presets import platoon_preset, weight_preset
from platoon_mpc.solver import (
    INNER_TOL, LIP_FACTOR, NU, OUTER_TOL, LocalExchange, LocalityError,
    MpcDiagnostics, SolverConfig, _average, _begin_stage, _block_metric,
    _consensus_gap, _p1_problems, _run_rounds, _splitting, _stationarity,
    dr_round, formulate_local, plan_violation, scp_step,
    solve_centralized_linear, solve_centralized_p1, solve_mpc,
    warm_start_linear,
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
    opts = SolverConfig()
    assert opts.outer_tol_for(1) == 1e-5
    assert opts.outer_tol_for(4) == 1.0e-2
    assert opts.inner_tol_for(3) == 5.0e-3
    assert NU[2] == 0.8
    assert NU[5] == 0.9
    assert SolverConfig(tol_outer=1e-6).outer_tol_for(3) == 1e-6
    assert set(OUTER_TOL) == {1, 2, 3, 4, 5}
    assert set(INNER_TOL) == set(NU) == {2, 3, 4, 5}


def test_exchange_rejects_distant_pairs():
    # checking a route counts no traffic; only record_round does
    net = LocalExchange(4)
    net.check(2, 3)
    net.check(3, 2)
    net.check(1, 1)
    with pytest.raises(LocalityError):
        net.check(1, 3)
    with pytest.raises(LocalityError):
        net.check(0, 1)
    with pytest.raises(LocalityError):
        net.check(4, 5)
    assert net.messages == 0
    assert net.rounds == 0
    net.record_round(6)
    assert net.messages == 6
    assert net.rounds == 1


def test_consensus_matches_lstsq(rng):
    # on a 4-vehicle platoon the agents hold blocks [1, 2], [1, 2, 3],
    # [2, 3, 4] and [3, 4]; averaging the copies is the orthogonal
    # projection onto the agreement subspace
    p = 3
    cfg = platoon_preset("small", n=4)
    agents = formulate_local(cfg, weight_preset("small", p, n=4),
                             cruise_state(cfg))
    layout = [a.blocks for a in agents]
    st = _splitting(agents)
    st.z = rng.normal(size=st.z.size)
    z = [st.z[sl].copy() for sl in st.layout.slices]
    means = _average(st)
    got = st.w
    ref = projection_by_lstsq(layout, np.concatenate(z), p)
    assert np.max(np.abs(got - ref)) <= 1e-9
    assert st.layout.net.messages == 4 * (cfg.n - 1)
    # idempotent, and each mean is the average of its copies
    st.z = st.w.copy()
    _average(st)
    assert np.max(np.abs(st.w - got)) <= 1e-12
    manual = (z[0][p:] + z[1][p:2 * p] + z[2][:p]) / 3.0
    assert np.allclose(means[p:2 * p], manual, atol=1e-12)


def test_consensus_sums_copies_in_agent_order(rng):
    # each mean is its copies summed from zero in ascending agent order,
    # bit for bit
    p = 3
    cfg = platoon_preset("small", n=5)
    agents = formulate_local(cfg, weight_preset("small", p, n=5),
                             cruise_state(cfg))
    st = _splitting(agents)
    st.z = rng.normal(size=st.z.size)
    means = _average(st)
    for j in range(1, cfg.n + 1):
        mean = means[(j - 1) * p:j * p]
        parts = [st.z[sl][a.sl(a.blocks.index(j))]
                 for a, sl in zip(agents, st.layout.slices)
                 if j in a.blocks]
        assert mean.tobytes() == (sum(parts) / float(len(parts))).tobytes()


def test_consensus_refuses_a_distant_copy():
    # agent 1 of a 4-vehicle platoon given a copy of block 3, which it is
    # not adjacent to: building the splitting state's layout refuses the
    # route, so no splitting state, and no fabric to count rounds on, is
    # ever built
    p = 2
    cfg = platoon_preset("small", n=4)
    agents = formulate_local(cfg, weight_preset("small", p, n=4),
                             cruise_state(cfg))
    a = agents[0]
    a.span = (1, 3)
    a.lo, a.hi = np.full(3 * p, -5.0), np.full(3 * p, 2.0)
    with pytest.raises(LocalityError):
        _average(_splitting(agents))
    with pytest.raises(LocalityError):
        dr_round(agents)
    assert a.shared.split is None


@pytest.mark.parametrize("n", [2, 3, 6])
@pytest.mark.parametrize("p", [1, 3])
def test_exit_gaps_match_per_copy_loops(n, p, rng):
    # the stacked consensus gap and stationarity equal the per-agent,
    # per-copy loops on random splitting states
    cfg = platoon_preset("small", n=n)
    agents = formulate_local(cfg, weight_preset("small", p, n=n),
                             cruise_state(cfg))
    st = _splitting(agents)
    assert _consensus_gap(st) == 0.0
    assert _stationarity(st) == np.inf
    for _ in range(20):
        st.y = rng.normal(size=st.z.size)
        st.w = rng.normal(size=st.z.size)
        ys = [st.y[sl] for sl in st.layout.slices]
        ws = [st.w[sl] for sl in st.layout.slices]
        assert _consensus_gap(st) == consensus_gap_by_copies(agents, ys)
        assert _stationarity(st) == stationarity_by_agent(ys, ws)
    # copies that agree with their owners leave no gap
    st.y = np.repeat(rng.normal(size=n), p)[st.layout.scatter]
    assert _consensus_gap(st) == 0.0


def test_p1_resolve_resumes_from_carried_state(small):
    # the p = 1 run leaves its consensus iterate behind; solving the same
    # state again on the same agents resumes at the fixed point and needs
    # a small fraction of the rounds
    w = weight_preset("small", 1, n=small.n)
    st = offset_state(small, dv=0.0, u0=-2.0)
    agents = formulate_local(small, w, st)
    first = solve_mpc(agents, state=st)
    again = solve_mpc(agents, state=st)
    assert first.diagnostics.inner_iters >= 50
    assert again.diagnostics.inner_iters * 10 < first.diagnostics.inner_iters
    assert np.max(np.abs(again.u_plan - first.u_plan)) <= 1e-4
    assert again.diagnostics.feasible
    # fresh agents start from zero and take the long way again
    cold = solve_mpc(formulate_local(small, w, st), state=st)
    assert cold.diagnostics.inner_iters == first.diagnostics.inner_iters


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


def test_centralized_p1_is_the_optimum(medium):
    # the problem is strongly convex, so no plan meeting its rows may cost
    # less than the reference.  With the active-set search capped at 18
    # rounds, this d = 10 problem went to the barrier path, which stalled
    # 5.8% above the distributed plan's cost (the stall itself is
    # test_convex.py::test_barrier_exit_is_a_kkt_point)
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


@pytest.mark.parametrize("p, scheme", [(1, "default"), (3, "calibrated"),
                                       (3, "convergent")])
def test_step_counters_do_not_leak_across_steps(small, monkeypatch, p,
                                                scheme):
    # one fabric serves the agent graph for the whole closed loop; every
    # step reports its own rounds, counted here at dr_round, and four
    # messages per link and round, frozen agents included
    calls = []
    one_round = solver.dr_round

    def counted(agents):
        calls.append(1)
        return one_round(agents)

    monkeypatch.setattr(solver, "dr_round", counted)
    per_step = []
    solve = loop.solve_mpc

    def step(agents, options=None, state=None):
        first = len(calls)
        res = solve(agents, options, state=state)
        per_step.append(len(calls) - first)
        return res

    monkeypatch.setattr(loop, "solve_mpc", step)
    opts = None
    if scheme == "calibrated":
        scen = cruise_scenario(4)
    else:
        u0 = np.zeros(5 if p == 1 else 4)
        u0[1:3] = -2.0
        scen = Scenario("brake", u0)
        if scheme == "convergent":
            opts = SolverConfig(tol_outer=OUTER_TOL[p], tol_inner=INNER_TOL[p])
    rec = simulate(small, weight_preset("small", p), scen, options=opts)
    assert len(per_step) == scen.steps
    for d, rounds in zip(rec.diagnostics, per_step):
        total = d.lin_rounds + d.warm_rounds + d.inner_iters
        assert total == rounds > 0
        assert d.messages == 4 * (small.n - 1) * total
    if scheme == "calibrated":
        assert any(d.frozen for d in rec.diagnostics)


@pytest.mark.parametrize("p, scheme", [(1, "default"), (5, "calibrated"),
                                       (5, "convergent")])
def test_prox_map_keeps_the_closed_loop(small, monkeypatch, p, scheme):
    # the memoized prox map in place of a fresh solve per prox call
    # changes plans only at rounding level and no counter: a p = 1
    # brake-and-recover and the onset of a p = 5 brake burst, both
    # schemes, run once as they are and once through the oracle
    if p == 1:
        u0 = np.zeros(20)
        u0[2:6] = -2.0
        u0[10:18] = 1.0
    else:
        u0 = np.array([0.0, -2.0, -2.0, -2.0])
    opts = (SolverConfig(tol_outer=OUTER_TOL[p], tol_inner=INNER_TOL[p])
            if scheme == "convergent" else None)
    solve = loop.solve_mpc

    def run():
        steps = []

        def step(agents, options=None, state=None):
            res = solve(agents, options, state=state)
            d = res.diagnostics
            steps.append((res.u_plan, (
                d.prox_calls, d.inner_iters, d.lin_rounds, d.warm_rounds,
                d.outer_iters, d.guard_rounds, d.messages, d.capped_runs)))
            return res

        with monkeypatch.context() as m:
            m.setattr(loop, "solve_mpc", step)
            simulate(small, weight_preset("small", p), Scenario("burst", u0),
                     options=opts)
        return steps

    mapped = run()
    monkeypatch.setattr(solver, "qcqp_prox", prox_by_solve)
    solved = run()
    assert len(mapped) == len(solved) == u0.size
    for (plan, counts), (want, want_counts) in zip(mapped, solved):
        assert counts == want_counts
        assert np.max(np.abs(plan - want)) <= 1e-10


@pytest.mark.parametrize("p, seed, u0", [(1, 2, -3.0), (3, 5, -1.0)])
def test_reported_violation_is_the_returned_plans(large, p, seed, u0):
    # the diagnostics report the guard's own measurement of the returned
    # plan; these states end a hair outside a row (1.8e-15 both) without
    # a guard retry
    st = random_feasible_state(large, np.random.default_rng(seed))
    st.u0 = u0
    agents = formulate_local(large, weight_preset("large", p), st)
    res = solve_mpc(agents, state=st)
    viol = plan_violation(large, st, res.u_plan, agents[0].shared.struct)
    assert viol > 0.0
    assert res.diagnostics.violation == viol


def test_cold_p3_step_stays_off_the_barrier(small, monkeypatch):
    # the first p1-cold-style state of default_rng(3) (leader at +1.31
    # m/s^2) at p = 3 on the default scheme: hundreds of its prox problems
    # are not solved by the warm polish, and a barrier exit is neither a
    # KKT point (see test_barrier_exit_is_a_kkt_point) nor cheap, so the
    # active-set search must solve each of them
    rng = np.random.default_rng(3)
    st = random_feasible_state(small, rng)
    v0 = float(st.v[0])
    st.u0 = float(rng.uniform(
        max(small.leader.accel_min, (small.speed_min - v0) / small.tau),
        min(small.leader.accel_max, (small.speed_max - v0) / small.tau)))
    assert st.u0 == pytest.approx(1.3114318140738135, abs=1e-12)
    statuses = []
    qcqp_prox = solver.qcqp_prox

    def prox(*args, **kwargs):
        res = qcqp_prox(*args, **kwargs)
        statuses.append(res.status)
        return res

    monkeypatch.setattr(solver, "qcqp_prox", prox)
    agents = formulate_local(small, weight_preset("small", 3), st)
    res = solve_mpc(agents, state=st)
    assert len(statuses) > 10000
    assert "barrier" not in statuses
    assert res.diagnostics.feasible
    assert plan_violation(small, st, res.u_plan,
                          agents[0].shared.struct) <= SolverConfig().feas_tol


def test_reported_violation_after_guard_retries(large, monkeypatch):
    # the hard-braking case at p = 5 retries the guard at step 3 and
    # returns a plan that still violates its rows
    u0 = np.zeros(4)
    u0[2:4] = -6.0
    solve = loop.solve_mpc
    seen = []

    def step(agents, options=None, state=None):
        res = solve(agents, options, state=state)
        seen.append((res, plan_violation(large, state, res.u_plan,
                                         agents[0].shared.struct)))
        return res

    monkeypatch.setattr(loop, "solve_mpc", step)
    with pytest.raises(loop.SimulationError):
        simulate(large, weight_preset("large", 5), Scenario("brake", u0))
    res, viol = seen[-1]
    assert res.diagnostics.guard_rounds > 0
    assert viol > 1e-6
    assert res.diagnostics.violation == viol


def test_capped_runs_are_counted(small):
    # a run cut at max_inner counts max_inner rounds, the first round of a
    # stage included, although that round has no residual to record
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
    assert d.lin_rounds == 100
    assert d.capped_runs == 1
    # the convergent scheme: the warm start and every stage are capped
    d = solve_mpc(formulate_local(small, w3, st),
                  SolverConfig(max_inner=10, tol_outer=1e-5,
                               tol_inner=1e-5)).diagnostics
    assert d.inner_iters == 10 * d.outer_iters
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
    trace, conv = _run_rounds(agents, 1e-10, 400)
    assert conv
    st = _splitting(agents)
    for a, c, g in zip(agents, curvs, lins):
        sl = a.sl(a.own_pos)
        want = box_prox(np.full(p, c), g, a.lo[sl], a.hi[sl])
        got = a.own((st.base + st.w)[st.layout.slices[a.i - 1]])
        assert np.max(np.abs(got - want)) <= 1e-8


def test_converged_stage_is_a_fixed_point(small):
    p = 2
    w = weight_preset("small", p, n=small.n)
    st = offset_state(small)
    agents = formulate_local(small, w, st)
    res = solve_mpc(agents)
    assert res.diagnostics.converged
    extra = dr_round(agents)
    assert extra <= 2.0 * SolverConfig().inner_tol_for(p)


def test_every_outer_iterate_feasible(small):
    p = 4
    w = weight_preset("small", p, n=small.n)
    st = offset_state(small, dx=0.6, dv=0.5, u0=-2.0)
    agents = formulate_local(small, w, st)
    res = solve_mpc(agents)
    trail = res.diagnostics.outer_violation
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


def test_majorant_rows_dominate_sampled(small, rng, monkeypatch):
    p = 3
    w = weight_preset("small", p, n=small.n)
    st = offset_state(small, dx=0.6, dv=0.5)
    agents = formulate_local(small, w, st)
    monkeypatch.setattr("platoon_mpc.solver.LIP_FACTOR", 1.0)
    split = _splitting(agents)
    split.u_hat = np.concatenate([rng.uniform(-0.4, 0.4, a.dim)
                                  for a in agents])
    scp_step(agents, SolverConfig())
    z = st.spacing_error(small.gap)
    zp = st.rel_speed()
    for a, sl in zip(agents, split.layout.slices):
        assert len(a.problem.quads) == 3 * p
        par = small.vehicles[a.i - 1]
        prev = small.leader if a.i == 1 else small.vehicles[a.i - 2]
        v, v_prev = st.v[a.i], st.v[a.i - 1]
        own_sl = a.sl(a.own_pos)
        u_hat = split.u_hat[sl]
        u_own = a.own(u_hat)
        u_prev = (np.full(p, st.u0) if a.i == 1
                  else u_hat[a.sl(a.own_pos - 1)])
        for _ in range(25):
            d = np.clip(u_hat + rng.uniform(-0.5, 0.5, a.dim),
                        a.lo, a.hi) - u_hat
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


@pytest.mark.parametrize("name", ["small", "medium", "large"])
def test_plan_violation_matches_the_per_vehicle_loop(name):
    # plans inside and outside the boxes and rows, with the leader
    # braking or accelerating, at every horizon
    cfg = platoon_preset(name)
    rng = np.random.default_rng(["small", "medium", "large"].index(name))
    feasible = infeasible = 0
    for p in range(1, 6):
        struct = build_structural(cfg.n, p)
        for k in range(40):
            # random states under wide plans; offset cruise states under
            # plans near the ones that hold the speeds
            u0 = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 0.5))
            if k % 2:
                st = offset_state(cfg, *rng.uniform(-0.5, 0.5, 2), u0=u0)
            else:
                st = random_feasible_state(cfg, rng)
                st.u0 = u0
            hold = cfg.drag * st.v[1:] ** 2 + cfg.roll * GRAVITY
            spread = 0.05 if k % 2 else 2.0
            plan = hold[:, None] + rng.uniform(-spread, spread, (cfg.n, p))
            want = plan_violation_by_vehicle(cfg, st, plan, struct)
            got = plan_violation(cfg, st, plan, struct)
            assert abs(got - want) <= 1e-12 * (1.0 + abs(want))
            feasible += want == 0.0
            infeasible += want > 1e-6
    assert feasible >= 50
    assert infeasible >= 50


def assert_same_rows(got, want):
    assert len(got) == len(want)
    for (A, b, c), (A_ref, b_ref, c_ref) in zip(got, want):
        scale = 1.0 + max(np.max(np.abs(A_ref)), np.max(np.abs(b_ref)),
                          abs(c_ref))
        assert np.max(np.abs(A - A_ref)) <= 1e-12 * scale
        assert np.max(np.abs(b - b_ref)) <= 1e-12 * scale
        assert abs(c - c_ref) <= 1e-12 * scale
        assert np.any(A) == np.any(A_ref)


@pytest.mark.parametrize("name, u0", [("small", -2.0), ("medium", 0.0),
                                      ("large", 1.0)])
def test_p1_rows_match_a_per_agent_rebuild(name, u0, rng):
    cfg = platoon_preset(name)
    st = random_feasible_state(cfg, rng)
    st.u0 = u0
    agents = formulate_local(cfg, weight_preset(name, 1), st)
    _p1_problems(agents)
    for a in agents:
        assert_same_rows(a.problem.quads, p1_rows_by_agent(a))


@pytest.mark.parametrize("name, p", [("small", 2), ("medium", 3),
                                     ("large", 5)])
@pytest.mark.parametrize("copies", ["agree", "disagree"])
def test_scp_rows_match_a_per_agent_rebuild(name, p, copies, rng):
    # with disagreeing copies every agent's rows must read its own block
    # and its own copy of its predecessor's
    cfg = platoon_preset(name)
    st = offset_state(cfg, dx=0.6, dv=0.5, u0=-1.0)
    agents = formulate_local(cfg, weight_preset(name, p), st)
    split = _splitting(agents)
    plan = rng.uniform(-0.5, 0.5, (cfg.n, p))
    split.u_hat = (plan.ravel()[split.layout.scatter] if copies == "agree"
                   else rng.uniform(-0.5, 0.5, split.u_hat.size))
    scp_step(agents, SolverConfig())
    for a, sl in zip(agents, split.layout.slices):
        assert_same_rows(a.problem.quads,
                         scp_rows_by_agent(a, split.u_hat[sl], LIP_FACTOR))


# the p = 5 `medium` state 1 of default_rng([11, 5]) (random_feasible_state,
# leader control kept in the speed band for the whole horizon)
P5_X = [0.0, -56.957212560033824, -91.3169101265624, -133.93477693154247,
        -159.13744816466297, -212.1892502865527, -267.2884907705947,
        -307.1723321884345, -339.63006512567546, -365.58505479179814,
        -414.0331373517987]
P5_V = [16.828714849976606, 23.992234698714796, 15.10710152573899,
        20.656037327327933, 14.512077649642656, 19.007562175281798,
        20.159545947649317, 18.24184048435926, 15.204965561219804,
        11.436275417271906, 23.43830156203729]
P5_U0 = 0.33934217101112263


def test_convergent_warm_start_stays_off_the_barrier(medium, monkeypatch):
    # with the active-set search capped at 18 rounds, the d = 15 agents'
    # prox calls ended on the barrier path 2445 times off a KKT point,
    # and the warm start raised WarmStartError after 3500 rounds
    st = PlatoonState(np.array(P5_X), np.array(P5_V), P5_U0)
    agents = formulate_local(medium, weight_preset("medium", 5), st)
    for a in agents:
        a.metric = _block_metric(agents[0].shared.model, a.span)
    statuses = []
    qcqp_prox = solver.qcqp_prox

    def prox(*args, **kwargs):
        res = qcqp_prox(*args, **kwargs)
        statuses.append(res.status)
        return res

    monkeypatch.setattr(solver, "qcqp_prox", prox)
    diag = MpcDiagnostics(p=5)
    plan = warm_start_linear(agents, SolverConfig(tol_outer=OUTER_TOL[5],
                                                  tol_inner=INNER_TOL[5]),
                             diag)
    assert "barrier" not in statuses
    assert diag.capped_runs == 0
    assert plan_violation(medium, st, plan,
                          agents[0].shared.struct) <= 1e-8
