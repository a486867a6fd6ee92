import csv
from dataclasses import replace

import numpy as np
import pytest

from platoon_mpc.loop import (LEADER_CLIP, Scenario, SimulationError,
                              TrackingState, brake_scenario, build_closed_loop,
                              cruise_scenario, equilibrium_we, h_tilde,
                              initial_state, loss_mismatch, read_leader_trace,
                              schur_check, simulate, simulate_linear_reference,
                              speed_coupling, steady_state_error,
                              synthetic_leader, trace_scenario, wave_scenario,
                              write_leader_trace, write_trajectory_csv)
from platoon_mpc.presets import platoon_preset, weight_preset
from platoon_mpc.solver import SolverConfig

from conftest import cruise_state
from test_solver import loss_scaled


def truncated(config, n):
    return replace(config, vehicles=config.vehicles[:n])


def test_closed_loop_cross_construction(small, medium, large):
    for cfg in (small, medium, large):
        mats = build_closed_loop(cfg, weight_preset("small", 1))
        assert mats.A_c_direct is not None
        assert np.max(np.abs(mats.A_c - mats.A_c_direct)) <= 1e-10
        # B_breve collapses to B(I - W_hat(tau^2/4 Qz + Qzp)) only for p = 1
        n = cfg.n
        lhs = mats.B_breve
        w_hat = np.diag(mats.W_hat)
        qz = weight_preset("small", 1).qz[0]
        qzp = weight_preset("small", 1).qzp[0]
        rhs = mats.B @ np.diag(1.0 - w_hat * (cfg.tau ** 2 / 4.0 * qz + qzp))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12
        assert np.max(np.abs(mats.Delta_A - mats.B @ np.hstack(
            [np.zeros((n, n)), mats.D]))) <= 1e-12


def test_horizon_one_matrices_are_diagonal(small):
    mats = build_closed_loop(small, weight_preset("small", 1))
    assert np.max(np.abs(mats.H - np.diag(np.diag(mats.H)))) == 0.0
    assert np.max(np.abs(mats.W_hat @ mats.H - np.eye(small.n))) <= 1e-12


def test_schur_radii_frozen():
    # the p = 1 loop is weight-preset independent across the three platoons
    for name, expected in (("small", [0.694517, 0.666672, 0.666560,
                                      0.666558, 0.666557]),
                           ("medium", [0.694517, 0.666672, 0.666560,
                                       0.666558, 0.666557]),
                           ("large", [0.694517, 0.693111, 0.693007,
                                      0.693002, 0.693001])):
        cfg = platoon_preset(name)
        for p, want in zip(range(1, 6), expected):
            radius, stable = schur_check(
                build_closed_loop(cfg, weight_preset(name, p)).A_c)
            assert stable
            assert radius == pytest.approx(want, abs=1e-6)


def test_open_loop_is_not_stable(small):
    mats = build_closed_loop(small, weight_preset("small", 1))
    radius, stable = schur_check(mats.A)
    assert radius == pytest.approx(1.0, abs=1e-12)
    assert not stable


def test_gain_invariant_under_weight_scaling(small):
    base = weight_preset("small", 3)
    scaled = replace(base, qz=3.7 * base.qz, qzp=3.7 * base.qzp,
                     qw=3.7 * base.qw)
    m0 = build_closed_loop(small, base)
    m1 = build_closed_loop(small, scaled)
    assert np.max(np.abs(m0.K - m1.K)) <= 1e-10
    assert np.max(np.abs(m0.d - m1.d)) <= 1e-12
    assert np.max(np.abs(m0.A_c - m1.A_c)) <= 1e-10


def test_loss_mismatch_reconstruction(small, medium, large, rng):
    for cfg in (small, medium, large):
        for _ in range(20):
            zp = rng.uniform(-2.0, 2.0, cfg.n)
            v0 = rng.uniform(15.0, 30.0)
            direct = loss_mismatch(cfg, zp, v0)
            split = v0 * speed_coupling(cfg) @ zp + h_tilde(cfg, zp)
            assert np.max(np.abs(direct - split)) <= 1e-12
    assert np.max(np.abs(loss_mismatch(small, np.zeros(small.n), 25.0))) == 0.0


def test_h_tilde_quadratic_bound(medium, rng):
    n = medium.n
    s_n = np.tril(np.ones((n, n)))
    lower = np.eye(n) - np.diag(np.ones(n - 1), -1)
    const = np.linalg.norm(lower, 2) * np.linalg.norm(s_n, 2) ** 2
    phi_d = np.linalg.norm(medium.drag, np.inf)
    for _ in range(50):
        zp = rng.uniform(-3.0, 3.0, n)
        bound = const * phi_d * np.linalg.norm(zp) ** 2
        assert np.linalg.norm(h_tilde(medium, zp)) <= bound + 1e-12


def test_equilibrium_compensation_frozen(small, medium, large):
    assert equilibrium_we(small, 25.0)[0] == pytest.approx(-0.215050,
                                                           abs=1e-6)
    assert equilibrium_we(large, 25.0)[0] == pytest.approx(-0.428250,
                                                           abs=1e-6)
    # homogeneous platoons compensate at the first follower only
    assert np.max(np.abs(equilibrium_we(small, 25.0)[1:])) == 0.0
    assert np.max(np.abs(equilibrium_we(large, 25.0)[1:])) == 0.0
    assert np.max(np.abs(equilibrium_we(medium, 25.0)[1:])) > 1e-3


def test_steady_state_closed_form_frozen(small, medium, large):
    for cfg, name, want in ((small, "small", 0.057199),
                            (medium, "medium", 0.094108),
                            (large, "large", 0.113906)):
        zss, closed = steady_state_error(cfg, weight_preset(name, 1), 25.0)
        assert closed
        assert np.max(np.abs(zss)) == pytest.approx(want, abs=1e-6)
        assert zss[0] > 0.0
    for cfg, name in ((small, "small"), (large, "large")):
        zss, _ = steady_state_error(cfg, weight_preset(name, 1), 25.0)
        assert np.max(np.abs(zss[1:])) == 0.0


def test_steady_state_scales_with_weights(small):
    base = weight_preset("small", 1)
    softer = replace(base, qw=2.0 * base.qw)
    stiffer = replace(base, qz=2.0 * base.qz)
    z0, _ = steady_state_error(small, base, 25.0)
    z1, _ = steady_state_error(small, softer, 25.0)
    z2, _ = steady_state_error(small, stiffer, 25.0)
    assert np.max(np.abs(z1 - 2.0 * z0)) <= 1e-12
    assert np.max(np.abs(z2 - 0.5 * z0)) <= 1e-12


def test_loss_free_cruise_stays_put(small):
    cfg = loss_scaled(small, 0.0)
    rec = simulate(cfg, weight_preset("small", 1), cruise_scenario(40))
    assert np.max(np.abs(rec.z)) <= 1e-9
    assert np.max(np.abs(rec.controls)) <= 1e-9
    assert rec.track_gap <= 1e-9


def test_simulation_matches_linear_reference(small):
    # losses off and a gentle burst keep every constraint inactive, so the
    # distributed pipeline must follow the closed-loop matrix step for step
    cfg = loss_scaled(small, 0.0)
    u0 = np.zeros(40)
    u0[5:9] = -0.3
    u0[20:24] = 0.3
    scen = Scenario("gentle", u0)
    opts = SolverConfig(tol_outer=1e-9)
    rec = simulate(cfg, weight_preset("small", 1), scen, options=opts)
    ref = simulate_linear_reference(cfg, weight_preset("small", 1), scen)
    assert np.max(np.abs(rec.z - ref.z)) <= 1e-5
    assert np.max(np.abs(rec.zp - ref.zp)) <= 1e-5
    assert np.max(np.abs(rec.controls - ref.controls)) <= 1e-5


def test_cruise_fixed_point_matches_closed_form(small):
    w = weight_preset("small", 1)
    rec = simulate(small, w, cruise_scenario(60))
    zss, _ = steady_state_error(small, w, 25.0)
    assert np.max(np.abs(rec.z[-1] - zss)) <= 1e-4
    assert rec.track_gap <= 1e-9
    assert all(d.feasible for d in rec.diagnostics)


def test_flagged_simulated_steady_state():
    cfg = truncated(platoon_preset("small"), 2)
    w = weight_preset("small", 2, n=2)
    zss, closed = steady_state_error(cfg, w, 25.0)
    assert not closed
    assert zss.shape == (2,)
    assert 0.01 < np.max(np.abs(zss)) < 0.5
    # beyond one step the stationary offsets spread past the first follower
    # even for a homogeneous platoon
    assert abs(zss[1]) > 1e-3


def test_infeasible_start_raises(small):
    st = cruise_state(small)
    st.v[3] = small.speed_max + 1.0
    with pytest.raises(SimulationError, match="step 0"):
        simulate(small, weight_preset("small", 1), cruise_scenario(5),
                 state=st)
    st2 = cruise_state(small)
    st2.x[5] = st2.x[4] - 1.0  # follower 5 glued to its predecessor
    with pytest.raises(SimulationError, match="spacing"):
        simulate(small, weight_preset("small", 1), cruise_scenario(5),
                 state=st2)


def test_tracking_state_from_platoon(small):
    st = cruise_state(small)
    ts = TrackingState.from_platoon(small, st)
    assert np.max(np.abs(ts.z)) == 0.0
    assert np.max(np.abs(ts.zp)) == 0.0
    st.x[1] -= 0.4
    st.v[1] += 0.2
    ts = TrackingState.from_platoon(small, st)
    assert ts.z[0] == pytest.approx(0.4)
    assert ts.zp[0] == pytest.approx(-0.2)
    assert ts.z[1] == pytest.approx(-0.4)


def test_scenario_profiles_frozen():
    br = brake_scenario()
    assert br.steps == 150
    assert np.all(br.u0[50:54] == -2.0)
    assert np.all(br.u0[100:108] == 1.0)
    assert np.count_nonzero(br.u0) == 12
    assert float(np.sum(br.u0)) == 0.0

    wv = wave_scenario()
    assert np.count_nonzero(wv.u0) == 50
    assert np.all(wv.u0[:50] == 0.0) and np.all(wv.u0[100:] == 0.0)
    assert list(wv.u0[50:54]) == [1.0, -1.0, -1.0, 1.0]
    v = wv.v_start + np.cumsum(np.concatenate(([0.0], wv.u0)))
    assert v.min() == 24.0 and v.max() == 26.0
    # the forcing window closes on the cruise speed
    assert np.all(v[100:] == wv.v_start)

    cr = cruise_scenario(30, v_start=20.0)
    assert cr.steps == 30 and cr.v_start == 20.0
    assert np.count_nonzero(cr.u0) == 0


def test_leader_trace_roundtrip(tmp_path):
    x, v = synthetic_leader(60, tau=0.5, amp=1.2)
    path = tmp_path / "leader.csv"
    write_leader_trace(path, x, v, 0.5)
    x2, v2, tau = read_leader_trace(path)
    assert tau == 0.5
    # ten significant digits in the file
    assert np.max(np.abs(x2 - x)) <= 1e-6
    assert np.max(np.abs(v2 - v)) <= 1e-7

    scen = trace_scenario(path)
    assert scen.tau == 0.5
    assert scen.clipped_steps == 0
    assert scen.v_start == pytest.approx(v[0])
    assert np.max(np.abs(np.cumsum(scen.u0) * 0.5 - (v[1:] - v[0]))) <= 1e-6


def test_leader_trace_clipping(tmp_path):
    v = np.full(6, 25.0)
    v[3] = 29.0  # one jump beyond the acceleration cap
    x = np.concatenate(([0.0], np.cumsum(v[:-1])))
    path = tmp_path / "jump.csv"
    write_leader_trace(path, x, v, 1.0)
    scen = trace_scenario(path)
    # the +4 jump exceeds the cap; the -4 recovery is inside the floor
    assert scen.clipped_steps == 1
    assert np.max(scen.u0) == LEADER_CLIP[1]
    assert np.min(scen.u0) == -4.0


def test_tau_mismatch_rejected(small, tmp_path):
    x, v = synthetic_leader(10, tau=0.5)
    path = tmp_path / "halfstep.csv"
    write_leader_trace(path, x, v, 0.5)
    scen = trace_scenario(path)
    with pytest.raises(ValueError, match="tau"):
        simulate(small, weight_preset("small", 1), scen)


def test_trajectory_csv_layout(small, tmp_path):
    rec = simulate_linear_reference(small, weight_preset("small", 1),
                                    cruise_scenario(3))
    path = tmp_path / "run.csv"
    write_trajectory_csv(path, rec)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:2] == ["k", "t"]
    assert rows[0][2:5] == ["S_0_1", "v_1", "u_1"]
    assert len(rows[0]) == 2 + 3 * small.n
    assert len(rows) == 1 + rec.steps
    assert float(rows[1][2]) == pytest.approx(small.gap)
    assert float(rows[1][3]) == pytest.approx(25.0)


def test_initial_state_sits_on_the_gaps(large):
    st = initial_state(large, 25.0)
    assert np.max(np.abs(st.spacings() - large.gap)) == 0.0
    assert np.max(np.abs(st.spacing_error(large.gap))) == 0.0
    assert np.all(st.v == 25.0)


def hard_brake():
    """Cruise at 25 m/s with the leader at -6 m/s^2 for steps 2 and 3."""
    u0 = np.zeros(8)
    u0[2:4] = -6.0
    return Scenario("hard-brake", u0)


def test_hard_braking_keeps_the_plans_feasible(large):
    # step 3's rounds end 2.265e-05 outside the rows under the default
    # (calibrated) scheme, and one repair pass makes the plan feasible
    rec = simulate(large, weight_preset("large", 5), hard_brake())
    assert all(d.feasible for d in rec.diagnostics)


def test_hard_braking_on_the_convergent_scheme(large):
    # the same case at the table tolerances of p = 5, set explicitly
    opts = SolverConfig(tol_outer=1.25e-2, tol_inner=1.0e-2)
    rec = simulate(large, weight_preset("large", 5), hard_brake(),
                   options=opts)
    assert len(rec.diagnostics) == 8
    assert all(d.capped_runs == 0 for d in rec.diagnostics)
    assert all(d.feasible for d in rec.diagnostics)
