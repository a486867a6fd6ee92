import numpy as np
import pytest

from oracles import box_qp_brute
from platoon_mpc.convex import (
    ConvexQcqp, QcqpInfeasibleError, box_prox, kkt_residual, qcqp_prox,
    qcqp_solve,
)


def random_pd(rng, d, floor=0.3):
    m = rng.normal(size=(d, d))
    return m @ m.T + floor * np.eye(d)


def random_feasible_qcqp(rng, d, n_ball=2, n_aff=2):
    """Instance whose constraints are all strictly satisfied at a known
    interior point."""
    H = random_pd(rng, d)
    q = rng.normal(0.0, 3.0, d)
    lo = rng.uniform(-4.0, -1.0, d)
    hi = rng.uniform(1.0, 4.0, d)
    center = rng.uniform(-0.5, 0.5, d)
    quads = []
    for _ in range(n_ball):
        A = random_pd(rng, d, floor=0.1)
        b = rng.normal(size=d)
        slack = rng.uniform(0.5, 3.0)
        c = -(0.5 * center @ (A @ center) + b @ center) - slack
        quads.append((A, b, float(c)))
    for _ in range(n_aff):
        b = rng.normal(size=d)
        slack = rng.uniform(0.5, 3.0)
        quads.append((np.zeros((d, d)), b, float(-b @ center - slack)))
    return ConvexQcqp(H, q, lo, hi, quads), center


def sample_feasible(prob, rng, count=400):
    d = prob.dim
    out = []
    for _ in range(count * 4):
        y = rng.uniform(prob.lo, prob.hi)
        if np.all(prob.con_values(y) <= 0.0):
            out.append(y)
            if len(out) == count:
                break
    return out


def test_box_prox_matches_quadratic_minimum(rng):
    h = rng.uniform(0.5, 3.0, 5)
    lin = rng.normal(0.0, 4.0, 5)
    lo = np.full(5, -1.0)
    hi = np.full(5, 2.0)
    y = box_prox(h, lin, lo, hi)
    for _ in range(200):
        other = rng.uniform(lo, hi)
        assert np.sum(0.5 * h * y * y + lin * y) <= \
            np.sum(0.5 * h * other * other + lin * other) + 1e-12


def test_box_qp_vs_brute(rng):
    for _ in range(25):
        d = int(rng.integers(2, 5))
        H = random_pd(rng, d)
        q = rng.normal(0.0, 4.0, d)
        lo = rng.uniform(-2.0, -0.5, d)
        hi = rng.uniform(0.5, 2.0, d)
        prob = ConvexQcqp(H, q, lo, hi)
        res = qcqp_solve(prob)
        y_ref, val_ref = box_qp_brute(H, q, lo, hi)
        assert res.value <= val_ref + 1e-8
        assert np.max(np.abs(res.y - y_ref)) <= 1e-6
        assert kkt_residual(prob, res.y, res.lam) <= 1e-9


def test_ball_projection_frozen():
    """Projecting (3, 4) onto the radius-2 ball gives (1.2, 1.6) with
    multiplier 0.75."""
    prob = ConvexQcqp(np.eye(2), np.array([-3.0, -4.0]),
                      np.array([-10.0, -10.0]), np.array([10.0, 10.0]),
                      [(2.0 * np.eye(2), np.zeros(2), -4.0)])
    res = qcqp_solve(prob)
    assert np.max(np.abs(res.y - np.array([1.2, 1.6]))) <= 1e-9
    assert res.lam[-1] == pytest.approx(0.75, abs=1e-8)
    assert kkt_residual(prob, res.y, res.lam) <= 1e-9


def test_free_shortcut():
    H = np.diag([2.0, 4.0])
    q = np.array([-1.0, -2.0])
    prob = ConvexQcqp(H, q, np.array([-5.0, -5.0]), np.array([5.0, 5.0]),
                      [(np.zeros((2, 2)), np.array([1.0, 1.0]), -50.0)])
    res = qcqp_solve(prob)
    assert res.status == "free"
    assert np.allclose(res.y, [0.5, 0.5], atol=1e-12)


def test_random_qcqp_kkt_and_optimality(rng):
    for _ in range(12):
        d = int(rng.integers(2, 6))
        prob, _ = random_feasible_qcqp(rng, d)
        res = qcqp_solve(prob)
        assert kkt_residual(prob, res.y, res.lam) <= 1e-9
        assert np.all(prob.con_values(res.y) <= 1e-9)
        for y in sample_feasible(prob, rng, 60):
            assert res.value <= prob.value(y) + 1e-7


def test_warm_start_agrees(rng):
    prob, center = random_feasible_qcqp(rng, 4)
    cold = qcqp_solve(prob)
    warm = qcqp_solve(prob, y0=center + 0.1)
    assert np.max(np.abs(cold.y - warm.y)) <= 1e-7


def test_prox_kkt_and_nonexpansive(rng):
    prob, _ = random_feasible_qcqp(rng, 3)
    rho = 0.4
    shifted_pairs = []
    for _ in range(6):
        anchor = rng.normal(0.0, 2.0, 3)
        res = qcqp_prox(prob, anchor, rho)
        shifted = ConvexQcqp(prob.H + np.eye(3) / rho,
                             prob.q - anchor / rho, prob.lo, prob.hi,
                             prob.quads)
        assert kkt_residual(shifted, res.y, res.lam) <= 1e-9
        shifted_pairs.append((anchor, res.y))
    for (a1, y1), (a2, y2) in zip(shifted_pairs[:-1], shifted_pairs[1:]):
        assert np.linalg.norm(y1 - y2) <= np.linalg.norm(a1 - a2) + 1e-8


def test_prox_of_interior_point_with_large_rho(rng):
    prob, center = random_feasible_qcqp(rng, 3)
    res = qcqp_prox(prob, center, 1e-7)
    assert np.max(np.abs(res.y - center)) <= 1e-4


def test_infeasible_detection():
    prob = ConvexQcqp(np.eye(2), np.zeros(2), np.array([-1.0, -1.0]),
                      np.array([1.0, 1.0]),
                      [(2.0 * np.eye(2), np.zeros(2), 1.0)])
    with pytest.raises(QcqpInfeasibleError):
        qcqp_solve(prob)


def test_tiny_box_interior_requirement():
    with pytest.raises(ValueError):
        ConvexQcqp(np.eye(1), np.zeros(1), np.array([1.0]),
                   np.array([1.0]))

