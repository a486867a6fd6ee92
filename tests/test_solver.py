"""Splitting solver: fabric locality and message counts, the consensus
average, determinism, stagewise feasibility, the repair passes of the
feasibility guard, agreement with the centralized references, validity
of the majorant rows, capped-run counts, and convergence at steady
cruise."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import cruise_state
from oracles import (consensus_gap_by_copies, horizon_minimizer,
                     kernel_stacks_by_list, p1_rows_by_agent, place_rows,
                     plan_violation_by_vehicle, projection_by_lstsq,
                     prox_by_solve, restricted_rows_by_loop, rows_by_vehicle,
                     scp_rows_by_agent, stack_rows, stationarity_by_agent,
                     w_star_reference)
from platoon_mpc import loop, solver
from platoon_mpc.assembly import (HorizonRows, assemble_quadratic_model,
                                  build_structural)
from platoon_mpc.convex import ConvexQcqp, QcqpInfeasibleError, box_prox
from platoon_mpc.loop import (Scenario, cruise_scenario, initial_state,
                              simulate)
from platoon_mpc.platoon import (GRAVITY, PlatoonState,
                                 random_feasible_state)
from platoon_mpc.presets import platoon_preset, weight_preset
from platoon_mpc.solver import (
    GUARD_TOL, INNER_TOL, LIP_FACTOR, NU, OUTER_TOL, LocalExchange,
    LocalityError, MpcDiagnostics, SolverConfig, _average, _begin_stage,
    _block_metric, _consensus_gap, _exact_problems, _losses, _one_step_rows,
    _place, _restricted_rows, _run_rounds, _splitting, _stationarity,
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


def row_of(prob, k):
    """Row k of a problem's stacks as (A, b, c)."""
    return prob.A[k], prob.b[k], prob.c[k]


def p1_problems(agents):
    """Every agent's one-step problem, as solve_mpc builds it."""
    sh = agents[0].shared
    _exact_problems(agents, _one_step_rows(sh.config, sh.state, sh.struct),
                    _losses(sh.config, sh.state)[:, None])


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


@pytest.mark.parametrize("bad", [
    {"tol_outer": float("nan")}, {"tol_outer": -1.0}, {"tol_outer": 0.0},
    {"tol_outer": float("inf")}, {"tol_inner": float("nan")},
    {"tol_inner": -5e-3}, {"max_outer": 0}, {"max_inner": 0},
    {"feas_tol": -1e-6}, {"feas_tol": float("nan")},
    {"feas_tol": float("inf")}])
def test_config_rejects_settings_that_cannot_work(bad):
    # a nan or negative tolerance never stops a run: every step would run
    # to the outer cap and still report feasible
    with pytest.raises(ValueError):
        SolverConfig(**bad)
    SolverConfig(feas_tol=0.0, max_outer=1, max_inner=1, tol_inner=1e-12)


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


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_warm_start_owner_blocks_need_no_repair(large, seed):
    # cold p = 3 states whose consensus average sits outside the restricted
    # rows: the owners' prox blocks, which meet each owner's rows, pass the
    # warm start's guard without a repair pass
    st = random_feasible_state(large, np.random.default_rng(seed))
    st.u0 = -1.0
    agents = formulate_local(large, weight_preset("large", 3), st)
    diag = MpcDiagnostics(p=3)
    plan = warm_start_linear(agents, diag=diag)
    assert diag.guard_rounds == 0
    assert plan_violation(large, st, plan,
                          agents[0].shared.struct) <= GUARD_TOL


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
    # a round averages every shared block at its owner: one message out
    # and one back per copy, two copies per link
    cfg = platoon_preset(name)
    st = cruise_state(cfg, u0=-2.0)
    d = solve_mpc(formulate_local(cfg, weight_preset(name, p), st)).diagnostics
    assert d.prox_calls > 0
    assert d.messages * cfg.n == 4 * (cfg.n - 1) * d.prox_calls


@pytest.mark.parametrize("p, scheme", [(1, "default"), (3, "calibrated"),
                                       (3, "convergent")])
def test_step_counters_do_not_leak_across_steps(small, monkeypatch, p,
                                                scheme):
    # one fabric serves the agent graph for the whole closed loop; every
    # step reports its own rounds, counted here at dr_round, and four
    # messages per link and round, plus one per link and repair pass
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
        assert d.messages == (small.n - 1) * (4 * total + d.guard_rounds)


def cold_states(config, rng, count):
    """p1-cold-style states: random feasible states with a leader control
    drawn from the part of the leader box that keeps the leader inside
    the speed band."""
    for _ in range(count):
        st = random_feasible_state(config, rng)
        v0 = float(st.v[0])
        st.u0 = float(rng.uniform(
            max(config.leader.accel_min, (config.speed_min - v0) / config.tau),
            min(config.leader.accel_max, (config.speed_max - v0) / config.tau)))
        yield st


@pytest.mark.parametrize("p, scheme", [(1, "default"), (1, "cold"),
                                       (5, "calibrated"), (5, "convergent")])
def test_prox_map_keeps_the_closed_loop(small, monkeypatch, p, scheme):
    # the memoized prox map and its KKT cache in place of a fresh solve
    # per prox call change plans only at rounding level and no counter: a
    # p = 1 brake-and-recover, whose prox calls almost all stay on the
    # free path, single p = 1 steps from random feasible states on fresh
    # agents, where about half end on a warm active set, and the onset of
    # a p = 5 brake burst, both schemes, run once as they are and once
    # through the oracle
    if scheme == "cold":
        states = list(cold_states(small, np.random.default_rng(0), 6))
    elif p == 1:
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

        if scheme == "cold":
            for st in states:
                step(formulate_local(small, weight_preset("small", 1), st),
                     state=st)
            return steps
        with monkeypatch.context() as m:
            m.setattr(loop, "solve_mpc", step)
            simulate(small, weight_preset("small", p), Scenario("burst", u0),
                     options=opts)
        return steps

    statuses = []
    mapped_prox = solver.qcqp_prox

    def tally(*args, **kwargs):
        res = mapped_prox(*args, **kwargs)
        statuses.append(res.status)
        return res

    with monkeypatch.context() as m:
        m.setattr(solver, "qcqp_prox", tally)
        mapped = run()
    if scheme == "cold":
        assert statuses.count("warm") > 0.3 * len(statuses)
    monkeypatch.setattr(solver, "qcqp_prox", prox_by_solve)
    solved = run()
    assert len(mapped) == len(solved) == (
        len(states) if scheme == "cold" else u0.size)
    for (plan, counts), (want, want_counts) in zip(mapped, solved):
        assert counts == want_counts
        assert np.max(np.abs(plan - want)) <= 1e-10


# the fourth state of the large platoon's p = 5 hard-braking run (the
# leader at -6 m/s^2 from step 2), where the rounds end with a plan about
# 2e-5 outside a row
BRAKE_X = [72.0, 7.074502694514702, -58.140085809523, -123.27838367248212,
           -188.32100651334412, -253.33514047546458, -318.3382590172289,
           -383.3386951410487, -448.33874051077333, -513.3387563492198,
           -578.3387632164827]
BRAKE_V = [19.0, 19.76703039407318, 19.74269401067818, 19.73450363167421,
           19.713659558878923, 19.706403761657192, 19.704476768551086,
           19.704136203979992, 19.704070146891375, 19.704037655230987,
           19.70402428700597]


@pytest.mark.parametrize("p, seed, u0", [(1, 2, -3.0), (3, 38, -1.0)])
def test_reported_violation_is_the_returned_plans(large, p, seed, u0):
    # the diagnostics report the guard's own measurement of the returned
    # plan; these states end outside a row without a guard pass, the p = 1
    # one by a hair (9.8e-15), the p = 3 one by 4.1e-05, within feas_tol
    st = random_feasible_state(large, np.random.default_rng(seed))
    st.u0 = u0
    agents = formulate_local(large, weight_preset("large", p), st)
    res = solve_mpc(agents, SolverConfig(feas_tol=1e-4), state=st)
    viol = plan_violation(large, st, res.u_plan, agents[0].shared.struct)
    assert res.diagnostics.guard_rounds == 0
    assert viol > 0.0
    assert res.diagnostics.violation == viol


def test_reported_violation_beyond_rounding(large):
    # the same report on a plan that sits well outside a row: with
    # feas_tol above its violation the guard accepts the plan
    # at once, so the plan is the one the rounds ended on, outside a row
    # by far more than rounding
    st = PlatoonState(np.array(BRAKE_X), np.array(BRAKE_V), -6.0)
    agents = formulate_local(large, weight_preset("large", 5), st)
    res = solve_mpc(agents, SolverConfig(feas_tol=1e-3), state=st)
    viol = plan_violation(large, st, res.u_plan, agents[0].shared.struct)
    assert res.diagnostics.guard_rounds == 0
    assert viol > 1e-9
    assert res.diagnostics.violation == viol


def test_cold_p3_step_stays_off_the_barrier(small, monkeypatch):
    # the first p1-cold-style state of default_rng(3) (leader at +1.31
    # m/s^2) at p = 3 on the default scheme: dozens of its prox problems
    # are not solved by the warm polish, and a barrier exit is neither a
    # KKT point (see test_barrier_exit_is_a_kkt_point) nor cheap, so the
    # active-set search must solve each of them
    st = next(cold_states(small, np.random.default_rng(3), 1))
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
    assert statuses.count("active") > 50
    assert "barrier" not in statuses
    assert res.diagnostics.feasible
    assert plan_violation(small, st, res.u_plan,
                          agents[0].shared.struct) <= SolverConfig().feas_tol


def _brake_run(large, monkeypatch):
    # the hard-braking case at p = 5, with each step's result, state and
    # last residual trace kept, and each plan handed to a repair pass
    u0 = np.zeros(4)
    u0[2:4] = -6.0
    run_rounds, repair, solve = (solver._run_rounds, solver._repair,
                                 loop.solve_mpc)
    traces, repaired, seen = [], [], []

    def rounds(*args, **kwargs):
        out = run_rounds(*args, **kwargs)
        traces.append(out[0])
        return out

    def one_pass(agents, plan):
        repaired.append(plan)
        return repair(agents, plan)

    def step(agents, options=None, state=None):
        res = solve(agents, options, state=state)
        seen.append((res, state, traces[-1]))
        return res

    monkeypatch.setattr(solver, "_run_rounds", rounds)
    monkeypatch.setattr(solver, "_repair", one_pass)
    monkeypatch.setattr(loop, "solve_mpc", step)
    simulate(large, weight_preset("large", 5), Scenario("brake", u0))
    return seen, repaired


def test_reported_violation_after_guard_retries(large, monkeypatch):
    # the hard-braking case at p = 5 fires the guard at step 3; the
    # diagnostics report the guard's own measurement of the plan it
    # returns, the repaired one
    seen, _ = _brake_run(large, monkeypatch)
    res, state, _ = seen[-1]
    assert res.diagnostics.guard_rounds > 0
    assert res.diagnostics.feasible
    assert res.diagnostics.violation == plan_violation(
        large, state, res.u_plan, build_structural(large.n, 5))


def test_guard_retries_report_their_residual(large, monkeypatch):
    # the same step: a repair runs no rounds, so after the guard's passes
    # the reported inner residual is the last round's of the last stage,
    # the run that produced the plan the repair started from
    seen, _ = _brake_run(large, monkeypatch)
    res, _, trace = seen[-1]
    assert res.diagnostics.guard_rounds > 0
    assert res.diagnostics.inner_residual == trace[-1]


def test_repair_of_the_hard_brake_step(large, monkeypatch):
    # the same case: at step 3 the rounds end outside a row, and one
    # repair pass down the chain returns a feasible plan near theirs; each
    # of its n projections is solved off the barrier path
    solved = []
    qcqp_solve = solver.qcqp_solve

    def solve(*args, **kwargs):
        res = qcqp_solve(*args, **kwargs)
        solved.append(res.status)
        return res

    monkeypatch.setattr(solver, "qcqp_solve", solve)
    seen, repaired = _brake_run(large, monkeypatch)
    assert [res.diagnostics.guard_rounds for res, *_ in seen] == [0, 0, 0, 1]
    assert len(solved) == large.n
    assert "barrier" not in solved
    res, state, _ = seen[-1]
    struct = build_structural(large.n, 5)
    assert plan_violation(large, state, repaired[0], struct) > 1e-6
    assert res.diagnostics.feasible
    assert np.max(np.abs(res.u_plan - repaired[0])) <= 1e-4
    # the pass sends one message down each link and runs no round
    d = res.diagnostics
    rounds = d.lin_rounds + d.warm_rounds + d.inner_iters
    assert d.messages == 4 * (large.n - 1) * rounds + large.n - 1


def test_a_failed_repair_keeps_the_plan(large, monkeypatch):
    # a repair pass whose projection has no feasible point ends the guard,
    # and the plan the rounds ended on comes back, flagged infeasible
    st = PlatoonState(np.array(BRAKE_X), np.array(BRAKE_V), -6.0)
    w5 = weight_preset("large", 5)
    unrepaired = solve_mpc(formulate_local(large, w5, st),
                           SolverConfig(feas_tol=1e-3)).u_plan

    def infeasible(*args, **kwargs):
        raise QcqpInfeasibleError("no strictly feasible point")

    monkeypatch.setattr(solver, "qcqp_solve", infeasible)
    res = solve_mpc(formulate_local(large, w5, st))
    assert res.diagnostics.guard_rounds == 1
    assert not res.diagnostics.feasible
    assert np.array_equal(res.u_plan, unrepaired)


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
    # the warm start is capped and passes its guard
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
        a.problem = ConvexQcqp(H, q, a.lo, a.hi)
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


def test_cruise_step_converges_to_a_fixed_point(small):
    p = 3
    w = weight_preset("small", p, n=small.n)
    agents = formulate_local(small, w, cruise_state(small))
    res = solve_mpc(agents)
    d = res.diagnostics
    assert d.converged
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


def test_new_state_moves_the_plan_to_its_cold_solve(small):
    # a second call with a fresh state leaves the first state's plan and
    # lands near the plan of fresh agents
    p = 2
    w = weight_preset("small", p, n=small.n)
    agents = formulate_local(small, w, cruise_state(small))
    first = solve_mpc(agents)
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
        assert len(a.problem.c) == 3 * p
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
            rows = HorizonRows(small, par, v, y_own)
            q_t = rows.q
            h_t, _, _ = rows.safety(prev, v_prev, z[a.i - 1], zp[a.i - 1],
                                    y_prev, a.shared.struct)
            for j in range(p):
                # lower speed rows carry a constant curvature bound, so the
                # majorant is global; safety curvature drifts with the
                # iterate, hence the looser slack
                assert (small.speed_min - q_t[j]
                        <= quad_value(row_of(a.problem, j), d) + 1e-9)
                assert (q_t[j] - small.speed_max
                        <= quad_value(row_of(a.problem, p + j), d) + 1e-9)
                assert (h_t[j]
                        <= quad_value(row_of(a.problem, 2 * p + j), d)
                        + 1e-4)


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


def test_plan_violation_flags_a_nan_plan():
    # a NaN entry fails every comparison, so the worst violation read 0.0
    # and solve_mpc would report the plan as feasible
    cfg = platoon_preset("small", n=4)
    st = initial_state(cfg, 25.0)
    struct = build_structural(4, 1)
    plan = np.zeros((4, 1))
    assert plan_violation(cfg, st, plan, struct) == 0.0
    plan[2, 0] = np.nan
    assert plan_violation(cfg, st, plan, struct) == np.inf


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


def assert_same_rows(prob, want):
    # the problem's stacks, row by row, against a list of (A, b, c) rows
    assert len(prob.c) == len(want)
    for (A, b, c), (A_ref, b_ref, c_ref) in zip(
            zip(prob.A, prob.b, prob.c), want):
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
    p1_problems(agents)
    for a in agents:
        assert_same_rows(a.problem, p1_rows_by_agent(a))


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
        assert_same_rows(a.problem,
                         scp_rows_by_agent(a, split.u_hat[sl], LIP_FACTOR))


def assert_same_stacks(prob, rows):
    # bit for bit: the problem's row stacks against the stacked list of
    # reference rows, and its kernel stacks against the ones gathered row
    # by row from that list
    for got, want in zip((prob.A, prob.b, prob.c),
                         stack_rows(rows, prob.dim)):
        assert np.array_equal(got, want)
    for got, want in zip((prob.aff_B, prob.aff_c, prob.curved,
                          prob.curved_A),
                         kernel_stacks_by_list(rows, prob.lo, prob.hi)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("name", ["small", "medium", "large"])
def test_row_stacks_match_the_per_row_placement(name):
    # the one-step rows (p = 1) and the restricted rows (p = 1..5) of
    # every agent and of the whole platoon against the same rows written
    # one at a time into fresh vectors, and the linearization's majorant
    # rows (p = 2..5) against the per-row curvature times identity
    cfg = platoon_preset(name)
    n = cfg.n
    rng = np.random.default_rng(["small", "medium", "large"].index(name))
    for p in range(1, 6):
        st = random_feasible_state(cfg, rng)
        st.u0 = float(rng.uniform(-1.0, 0.5))
        agents = formulate_local(cfg, weight_preset(name, p), st)
        sh = agents[0].shared
        kinds = [(_restricted_rows(cfg, st, sh.struct, p),
                  restricted_rows_by_loop(cfg, st, sh.struct, p),
                  np.zeros((n, p)))]
        if p == 1:
            rows = _one_step_rows(cfg, st, sh.struct)
            kinds.append((rows, rows_by_vehicle(*rows, 1),
                          _losses(cfg, st)[:, None]))
        for rows, ref, e in kinds:
            _exact_problems(agents, rows, e)
            for a in agents:
                assert_same_stacks(a.problem, place_rows(
                    ref[a.i - 1], a.i, a.span[0], a.dim, p))
            placed = [_place(rows, i, 1, n * p, p) for i in range(1, n + 1)]
            whole = ConvexQcqp(sh.model.W, sh.model.c,
                               np.repeat(cfg.accel_min.astype(float), p),
                               np.repeat(cfg.accel_max.astype(float), p),
                               *map(np.concatenate, zip(*placed)))
            assert_same_stacks(whole, [
                row for i in range(1, n + 1)
                for row in place_rows(ref[i - 1], i, 1, n * p, p)])
        if p == 1:
            continue
        split = _splitting(agents)
        split.u_hat = rng.uniform(-0.5, 0.5, split.u_hat.size)
        scp_step(agents, SolverConfig())
        for a in agents:
            prob = a.problem
            assert_same_stacks(prob, [
                (k * np.eye(a.dim), b, c)
                for k, b, c in zip(prob.A[:, 0, 0], prob.b, prob.c)])


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


# States on which the default (calibrated) scheme broke recursive
# feasibility when its guard retried the rounds at tighter tolerances:
# each is feasible, its leader control keeps the leader in the speed band
# for the whole horizon, and no feasible plan came back.  The repair
# passes of the guard make every plan feasible.  The default_rng([11, p])
# and default_rng([1, p]) states are drawn like P5_X, the presets in turn
# from state 0.

# random_feasible_state(large, default_rng(13)) with u0 = -1.0: the plan
# ended 2.848e-05 outside its rows after 6 guard retries
LARGE_P3_X = [0.0, -73.65056781628351, -130.53073179965247,
              -169.94216637653747, -211.36866963458874, -282.5484391572569,
              -337.7193958706272, -363.7036251808962, -440.59917017484725,
              -515.9013892810462, -552.4415093279293]
LARGE_P3_V = [25.011303510138323, 24.851976200559953, 24.10897263160126,
              14.887069944568477, 11.795406900515111, 26.381695795884944,
              20.79942457577037, 10.54414404584931, 25.77663244794476,
              27.02500231448618, 15.30405701790834]
LARGE_P3_U0 = -1.0

# state 7 of default_rng([11, 3]) (medium): 1.834e-03 outside its rows
# after 6 guard retries; the p > 1 repair moves the plan by 1.1e-2
MEDIUM_P3_X = [0.0, -44.624605242988096, -103.02671884105561,
               -145.5477532626869, -204.04560836913595, -272.0808193840407,
               -326.078580202938, -358.31410692048934, -381.35902653570196,
               -440.3728587407757, -483.77985833739865]
MEDIUM_P3_V = [26.061291696584494, 17.09734390287189, 22.97641579463705,
               15.752541581218765, 22.038527469480172, 25.704788950193922,
               25.76130769622675, 18.809373541151462, 11.41181735217089,
               25.455762463772018, 15.041719021189953]
MEDIUM_P3_U0 = -3.226558171436542

# state 7 of default_rng([11, 5]) (medium): 6.419e-05 outside its rows
# after 6 guard retries and 58 outer steps
MEDIUM_P5_X = [0.0, -61.10105227875905, -109.75024828308275,
               -147.61180260193618, -184.3819739142387, -234.90603719744263,
               -267.48906095229813, -312.4034056534884, -372.03768724067953,
               -412.60999183871473, -452.6730439002703]
MEDIUM_P5_V = [13.039422788940898, 22.806828963620966, 19.80892059207654,
               16.47556984636749, 13.568482788827328, 23.78146746962341,
               11.412642075413926, 19.8928896656602, 26.534027020503487,
               13.000994511053864, 14.66575068718091]
MEDIUM_P5_U0 = 0.0082494659334581

# state 3 of default_rng([11, 5]) (small): the warm start raised
# WarmStartError, its plan 2.07e-08 outside the rows against GUARD_TOL 1e-08
# after 6 retries; one warm-start repair pass mends it
SMALL_P5_X = [0.0, -51.124815830046906, -88.80851312224962,
              -118.69381225649272, -179.79104779786002, -243.3236980673393,
              -290.5175176469212, -321.3539740736902, -340.4631976257354,
              -374.6517888081602, -424.74048799938566]
SMALL_P5_V = [25.030445848262005, 24.31903745640031, 15.101773559683444,
              13.650364802439965, 25.8651417075479, 25.493799976997252,
              20.41430815164364, 17.835592339651452, 10.849565057056317,
              13.094590271889501, 20.759314302595428]
SMALL_P5_U0 = -0.20205565766574463


# states 1, 6 and 7 of default_rng([1, 3]), cold p = 3 steps: states 1
# and 7 (medium) ended 4.4e-04 and 9.6e-03 outside their rows after 6
# guard retries; state 6 (small) needs a second p > 1 repair pass
COLD1_X = [0.0, -54.60510048572034, -106.62761672872928, -137.57921810247166,
           -189.07075527430803, -234.12993704403888, -291.72748773400707,
           -348.75052336258165, -373.22282589601156, -399.42057157586737,
           -460.81636721441845]
COLD1_V = [18.84077082571814, 19.42258051610535, 19.602538884298568,
           11.730034420568805, 22.946622645756882, 17.4706551977337,
           25.51358676836388, 26.703610162843848, 13.070425713713483,
           14.372296372706566, 24.752452312681875]
COLD1_U0 = 1.1534126187100209
COLD6_X = [0.0, -32.26795203400222, -79.61838471562044, -146.77535825345308,
           -189.71409715851894, -217.75990143321985, -247.38775889741913,
           -276.74463313825845, -313.96022912265835, -368.1102046696161,
           -398.25459091049555]
COLD6_V = [11.74766773685452, 15.600624215746874, 20.97748848392748,
           26.18143523484155, 24.115053691024166, 14.846291867603139,
           16.264381315186984, 11.08284703711696, 16.356269539858435,
           24.667562479566385, 11.396292567084208]
COLD6_U0 = 0.05351280607036024
COLD7_X = [0.0, -54.948616263326734, -83.69716494247393, -134.05543705529604,
           -177.8000419811583, -218.66101549795192, -277.71739627675163,
           -338.54280634249716, -393.38451465850585, -453.6501891074779,
           -478.0793283402532]
COLD7_V = [24.11030276127113, 26.07165685429414, 14.644233709527573,
           19.883965199782814, 21.08416159989814, 17.271932352264816,
           24.28592972583285, 24.833698331063548, 26.166772235496452,
           24.9733086658081, 13.977484484487796]
COLD7_U0 = 1.1940763415067446


FEASIBILITY_CASES = {
    "large-p3": ("large", 3, LARGE_P3_X, LARGE_P3_V, LARGE_P3_U0),
    "medium-p3": ("medium", 3, MEDIUM_P3_X, MEDIUM_P3_V, MEDIUM_P3_U0),
    "medium-p5": ("medium", 5, MEDIUM_P5_X, MEDIUM_P5_V, MEDIUM_P5_U0),
    "small-p5": ("small", 5, SMALL_P5_X, SMALL_P5_V, SMALL_P5_U0),
    "cold1-medium-p3": ("medium", 3, COLD1_X, COLD1_V, COLD1_U0),
    "cold6-small-p3": ("small", 3, COLD6_X, COLD6_V, COLD6_U0),
    "cold7-medium-p3": ("medium", 3, COLD7_X, COLD7_V, COLD7_U0),
}


@pytest.mark.parametrize("case", list(FEASIBILITY_CASES))
def test_default_scheme_returns_a_feasible_plan(case):
    name, p, x, v, u0 = FEASIBILITY_CASES[case]
    st = PlatoonState(np.array(x), np.array(v), u0)
    res = solve_mpc(formulate_local(platoon_preset(name),
                                    weight_preset(name, p), st))
    assert res.diagnostics.feasible
