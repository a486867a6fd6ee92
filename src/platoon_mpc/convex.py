"""Small dense convex QCQP kernel.

Problems have a PSD quadratic objective over a box intersected with convex
quadratic inequalities 1/2 y'A_k y + b_k'y + c_k <= 0 (affine rows use
A_k = 0), handed over as the stacks A (m x d x d), b (m x d) and c (m).
qcqp_solve tries cheap exits first: the unconstrained minimizer, the
active set of a previous solution, and an active-set search that adds one
violated row at a time.  On an active set with no curved row the KKT
equations are linear and one solve of [H B'; B 0] gives the point and its
multipliers; a set with a curved row is solved by Newton on the same
equations.  Only when all of these fail does the solve follow a primal
log-barrier with damped Newton steps, polished by the same active-set
solve; when no hint is strictly feasible, its start comes from the same
barrier loop run on the epigraph problem (phase I).  Every exit but the
last barrier one is checked against the full KKT conditions.  The prox
operator at the bottom is the building block of the operator-splitting
rounds in the solver module.
Its unconstrained point is affine in the anchor, so each problem keeps a
prox map (ConvexQcqp.prox_map) built once per step size rho and metric
object: on the free path a prox call is one matrix-vector product.  The
prox problems of one map share their Hessian and rows and differ only in
q, so the KKT matrix [H B'; B 0] of an affine active set, and the rank of
B, are fixed for the map: both are built on the set's first use and kept
in the map's cache, and a later solve on the set is one LU solve.  The
matrix is solved, not inverted, so every answer is the one a fresh solve
gives, to the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class QcqpInfeasibleError(RuntimeError):
    """Raised when the phase-I search cannot find a strictly feasible point."""


class ProxMap(NamedTuple):
    """The prox problems of one (rho, metric): their Hessian hess, the
    gain and offset of their unconstrained point, and kkt_cache, which
    maps an affine active set (its sorted row indices, as bytes) to the
    rank of its rows and its KKT matrix (None once found singular)."""

    hess: np.ndarray
    gain: np.ndarray
    offset: np.ndarray
    kkt_cache: dict


@dataclass
class ConvexQcqp:
    """min 1/2 y'Hy + q'y  s.t.  lo <= y <= hi,
    1/2 y'A[k]y + b[k]'y + c[k] <= 0 for every row k of the stacks
    A (m x d x d), b (m x d) and c (m); leaving them out gives m = 0.

    All constraints, the box included, are stacked once, at construction,
    in the order of con_values: aff_B ((2d + m) x d) and aff_c hold their
    affine parts, lo - y <= 0 as [-I; lo] and y - hi <= 0 as [I; -hi];
    curved holds the ascending indices of the constraints with a nonzero
    A, is_curved marks them in a mask over all constraints, and curved_A
    (k x d x d) holds those matrices.  A problem is not changed
    after construction; with_objective derives problems that share its
    stacks.

    kkt_cache holds, per affine active set the solver has tried, the rank
    of its rows and its KKT matrix, both fixed by H and the rows; it
    starts empty.  prox_map(rho, metric) is memoized on the problem,
    keyed on the value of rho and the identity of the metric array: a
    splitting stage, which holds both fixed, builds it once.  The map
    carries the cache its prox problems share, empty when the map is
    built.  A derived problem starts with no map and an empty cache."""

    H: np.ndarray
    q: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    A: np.ndarray | None = None
    b: np.ndarray | None = None
    c: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.H = np.atleast_2d(np.asarray(self.H, dtype=float))
        self.q = np.asarray(self.q, dtype=float)
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)
        if np.any(self.hi - self.lo <= 0):
            raise ValueError("box must have nonempty interior")
        d = self.dim
        self.A = np.asarray(np.zeros((0, d, d)) if self.A is None else self.A,
                            dtype=float)
        self.b = np.asarray(np.zeros((0, d)) if self.b is None else self.b,
                            dtype=float)
        self.c = np.asarray(np.zeros(0) if self.c is None else self.c,
                            dtype=float)
        m = self.c.size
        if (self.A.shape != (m, d, d) or self.b.shape != (m, d)
                or self.c.shape != (m,)):
            raise ValueError("row stacks need shapes (m, d, d), (m, d), (m,)")
        self.aff_B = np.concatenate([-np.eye(d), np.eye(d), self.b])
        self.aff_c = np.concatenate([self.lo, -self.hi, self.c])
        curved = np.flatnonzero(self.A.any(axis=(1, 2)))
        self.curved = 2 * d + curved
        self.is_curved = np.zeros(self.n_con, dtype=bool)
        self.is_curved[self.curved] = True
        self.curved_A = self.A[curved]
        self.kkt_cache = {}
        self._prox = None

    @property
    def dim(self) -> int:
        return self.q.size

    @property
    def n_con(self) -> int:
        return self.aff_c.size

    def with_objective(self, H: np.ndarray, q: np.ndarray) -> ConvexQcqp:
        """The same constraint set under the objective 1/2 y'Hy + q'y,
        sharing this problem's row stacks."""
        out = object.__new__(ConvexQcqp)
        out.__dict__.update(self.__dict__)
        out.H, out.q, out.kkt_cache, out._prox = H, q, {}, None
        return out

    def prox_map(self, rho: float,
                 metric: np.ndarray | None = None) -> ProxMap:
        """The ProxMap of the prox problems with the curvature
        C = metric/rho (I/rho when metric is None): hess = H + C, and the
        unconstrained minimizer for an anchor a is gain @ a + offset, with
        gain = hess^-1 C and offset = -hess^-1 q.  Computed on the first
        call, with an empty cache, and kept for the later calls with the
        same rho and metric object.  An explicit inverse, since numpy has
        no triangular solve to reuse a Cholesky factor with, and d is
        small.  rho must be finite and positive; a NaN never matches the
        memo, so every call with one is checked."""
        memo = self._prox
        if memo is None or memo[0] != rho or memo[1] is not metric:
            if not 0.0 < rho < np.inf:
                raise ValueError(
                    f"prox step rho must be finite and > 0, got {rho}")
            curv = np.eye(self.dim) / rho if metric is None else metric / rho
            hess = self.H + curv
            inv = np.linalg.inv(hess)
            memo = self._prox = (rho, metric, ProxMap(
                hess, inv @ curv, -(inv @ self.q), {}))
        return memo[2]

    def value(self, y: np.ndarray) -> float:
        return float(0.5 * y @ (self.H @ y) + self.q @ y)

    def con_values(self, y: np.ndarray) -> np.ndarray:
        # per constraint (1/2 y'A y + b'y) + c; vecdot takes the same dot
        # product as b @ y row by row, and on the box rows it is exact
        vals = np.vecdot(self.aff_B, y)
        if self.curved.size:
            vals[self.curved] += np.vecdot(self.curved_A @ y, 0.5 * y)
        vals += self.aff_c
        return vals

    def con_grads(self, y: np.ndarray) -> np.ndarray:
        grads = self.aff_B.copy()
        if self.curved.size:
            grads[self.curved] += self.curved_A @ y
        return grads

    def add_row_hessians(self, out: np.ndarray,
                         weights: np.ndarray) -> np.ndarray:
        """out += weights[k] * A_k for every curved constraint k, in
        order; weights has one entry per constraint."""
        for k, A in zip(self.curved, self.curved_A):
            out += weights[k] * A
        return out


@dataclass
class QcqpResult:
    y: np.ndarray
    lam: np.ndarray
    status: str


def kkt_residual(prob: ConvexQcqp, y: np.ndarray, lam: np.ndarray,
                 g: np.ndarray | None = None) -> float:
    """Largest violation among stationarity, primal and dual feasibility
    and complementary slackness; inf at a point or multiplier that is not
    finite.  g, when given, is prob.con_values(y).  With no multiplier on
    a curved row the row gradients reduce to aff_B in the stationarity
    sum: the curved terms are multiplied by exact zeros."""
    if not (np.isfinite(y).all() and np.isfinite(lam).all()):
        return np.inf
    if g is None:
        g = prob.con_values(y)
    grads = prob.con_grads(y) if lam[prob.curved].any() else prob.aff_B
    stat = prob.H @ y + prob.q + grads.T @ lam
    return max(float(np.abs(stat).max()), float(g.max(initial=0.0)),
               float((-lam).max(initial=0.0)),
               float(np.abs(lam * g).max(initial=0.0)))


def _newton_barrier(prob: ConvexQcqp, y: np.ndarray, t: float,
                    max_steps: int = 60) -> np.ndarray:
    """Damped Newton on t*f(y) - sum log(-g(y)) from a strictly
    feasible y."""
    d = prob.dim
    for _ in range(max_steps):
        g = prob.con_values(y)
        grads = prob.con_grads(y)
        inv_g = -1.0 / g
        grad = t * (prob.H @ y + prob.q) + grads.T @ inv_g
        hess = prob.add_row_hessians(
            t * prob.H + (grads * (inv_g ** 2)[:, None]).T @ grads, inv_g)
        try:
            step = -np.linalg.solve(hess + 1e-12 * np.eye(d), grad)
        except np.linalg.LinAlgError:
            break
        decrement = float(-grad @ step)
        if decrement <= 1e-16 * (1.0 + abs(t * prob.value(y))):
            break
        alpha = 1.0
        phi0 = t * prob.value(y) - float(np.sum(np.log(-g)))
        accepted = False
        for _ in range(60):
            cand = y + alpha * step
            gc = prob.con_values(cand)
            if np.all(gc < 0.0):
                phi = t * prob.value(cand) - float(np.sum(np.log(-gc)))
                if phi <= phi0 - 1e-4 * alpha * decrement:
                    y = cand
                    accepted = True
                    break
            alpha *= 0.5
        if not accepted:
            break
        if decrement < 1e-12:
            break
    return y


def _strictly_feasible_start(prob: ConvexQcqp, y0: np.ndarray | None,
                             margin: float = 1e-7) -> np.ndarray:
    """Return a point with every constraint strictly negative, running
    phase I when the hints fail: the barrier loop of _newton_barrier on
    the epigraph problem, centred at t = 1, 10, ... until its point is
    done (_phase_done)."""
    width = prob.hi - prob.lo
    cands = []
    if y0 is not None:
        cands.append(np.clip(y0, prob.lo + 1e-9 * width,
                             prob.hi - 1e-9 * width))
    cands.append(0.5 * (prob.lo + prob.hi))
    for cand in cands:
        if np.all(prob.con_values(cand) < -1e-9):
            return cand

    # phase I (Boyd and Vandenberghe, Convex Optimization, 11.4): the
    # barrier method on min s s.t. g_k(y) <= s for every row, box rows
    # included, with y in the box and s in [-max width, s0 + 1]; the box
    # rows keep s above -max width / 2, so its lower bound only closes
    # the box
    y, d, m = cands[-1], prob.dim, prob.n_con
    s0 = float(np.max(prob.con_values(y))) + 1.0
    A = np.zeros((m, d + 1, d + 1))
    A[2 * d:, :d, :d] = prob.A
    epi = ConvexQcqp(np.zeros((d + 1, d + 1)), np.eye(d + 1)[d],
                     np.append(prob.lo, -width.max()),
                     np.append(prob.hi, s0 + 1.0), A,
                     np.hstack([prob.aff_B, -np.ones((m, 1))]), prob.aff_c)
    ys = np.append(y, s0)
    t = 1.0
    while t <= 1e12:
        ys = _newton_barrier(epi, ys, t)
        if _phase_done(prob, ys[:d], margin):
            return ys[:d]
        t *= 10.0
    y = ys[:d]
    if _phase_done(prob, y, 1e-12):
        return y
    worst = float(np.max(prob.con_values(y)))
    raise QcqpInfeasibleError(
        f"phase I stalled with violation {worst:.3e}")


def _phase_done(prob: ConvexQcqp, y: np.ndarray, margin: float) -> bool:
    """Strictly inside the box with every quadratic row clear of zero."""
    g = prob.con_values(y)
    d2 = 2 * prob.dim
    if not np.all(g < 0.0):
        return False
    return g.size == d2 or float(np.max(g[d2:])) < -margin


def _affine_set(prob: ConvexQcqp, idx: np.ndarray) -> list | None:
    """For a set idx of affine rows, [rank of their gradients aff_B[idx],
    their KKT matrix [H B'; B 0]] from prob's kkt_cache, where it is built
    and kept on the set's first use; a solve that finds the matrix
    singular replaces it by None.  None for a set with a curved row."""
    key = idx.tobytes()
    entry = prob.kkt_cache.get(key)
    if entry is None and not prob.is_curved[idx].any():
        d = prob.dim
        B = prob.aff_B[idx]
        kkt = np.zeros((d + idx.size, d + idx.size))
        kkt[:d, :d] = prob.H
        kkt[:d, d:] = B.T
        kkt[d:, :d] = B
        entry = prob.kkt_cache[key] = [int(np.linalg.matrix_rank(B)), kkt]
    return entry


def _kkt_newton(prob: ConvexQcqp, y: np.ndarray, idx: np.ndarray,
                lam_a: np.ndarray):
    """Solve the KKT equations with the rows idx held as equalities, from
    the point y and the multipliers lam_a of those rows.  Returns the
    point, the multipliers and whether the solve succeeded.

    When no row of idx is curved the equations are linear,
    [H B'; B 0] [y; lam] = [-q; -c] with B, c the rows' affine parts, and
    one solve of the cached matrix gives the answer: it has no stopping
    test, and a singular matrix or a non-finite answer is a failure.
    Otherwise Newton on the equations, which stops at a residual of
    1e-12 * (1 + max|q|) once the residual and every |lam * g| of the set
    are also at most 1e-10, a tenth of the absolute KKT check of
    _finish_active: |q| is in the thousands on prox problems, where the
    relative stop alone leaves correct sets above that check."""
    d = prob.dim
    affine = _affine_set(prob, idx)
    if affine is not None:
        if affine[1] is None:
            return y, lam_a, False
        try:
            sol = np.linalg.solve(
                affine[1], -np.concatenate([prob.q, prob.aff_c[idx]]))
        except np.linalg.LinAlgError:
            # singular whatever the right-hand side
            affine[1] = None
            return y, lam_a, False
        if not np.isfinite(sol).all():
            return y, lam_a, False
        return sol[:d], sol[d:], True
    yv = y.copy()
    lam_a = lam_a.copy()
    scale = 1.0 + float(np.max(np.abs(prob.q)))
    for _ in range(25):
        g = prob.con_values(yv)
        grads = prob.con_grads(yv)
        stat = prob.H @ yv + prob.q + grads[idx].T @ lam_a
        res = np.concatenate([stat, g[idx]])
        if (np.max(np.abs(res)) < min(1e-12 * scale, 1e-10)
                and np.max(np.abs(lam_a * g[idx])) <= 1e-10):
            return yv, lam_a, True
        weights = np.zeros(prob.n_con)
        weights[idx] = lam_a
        hess = prob.add_row_hessians(prob.H.copy(), weights)
        jac = np.zeros((d + idx.size, d + idx.size))
        jac[:d, :d] = hess
        jac[:d, d:] = grads[idx].T
        jac[d:, :d] = grads[idx]
        try:
            step = np.linalg.solve(jac + 1e-14 * np.eye(jac.shape[0]), -res)
        except np.linalg.LinAlgError:
            return yv, lam_a, False
        yv = yv + step[:d]
        lam_a = lam_a + step[d:]
    g = prob.con_values(yv)
    stat = prob.H @ yv + prob.q + prob.con_grads(yv)[idx].T @ lam_a
    res = np.concatenate([stat, g[idx]])
    return yv, lam_a, bool(np.max(np.abs(res)) < 1e-9 * scale)


def _finish_active(prob: ConvexQcqp, yv: np.ndarray, idx: np.ndarray,
                   lam_a: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(yv, multipliers over all rows) when yv with the multipliers lam_a
    of the rows idx passes the KKT check, else None.  The rows are
    evaluated once; a point or multiplier that is not finite fails."""
    g = prob.con_values(yv)
    violated = g > 1e-10
    violated[idx] = False
    if (lam_a < -1e-9).any() or violated.any() or \
            np.abs(g[idx]).max(initial=0.0) > 1e-10:
        return None
    lam_full = np.zeros(prob.n_con)
    lam_full[idx] = np.maximum(lam_a, 0.0)
    if kkt_residual(prob, yv, lam_full, g) > 1e-9:
        return None
    return yv, lam_full


def _polish(prob: ConvexQcqp, y: np.ndarray, lam: np.ndarray,
            active: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Newton solve of the KKT system restricted to the active set; returns
    None when the guess is inconsistent."""
    idx = active.nonzero()[0]
    yv, lam_a, ok = _kkt_newton(prob, y, idx, lam[idx])
    if not ok:
        return None
    return _finish_active(prob, yv, idx, lam_a)


def _active_set_solve(prob: ConvexQcqp, y: np.ndarray) -> QcqpResult | None:
    """Active-set search from the unconstrained minimizer y, in the order
    of Goldfarb and Idnani's dual method: it starts from the empty set and
    each round adds the most violated row.  When the enlarged set fails
    its KKT solve, the new row is tried in place of each active row in
    ascending order.  A set whose row gradients at the current point are
    linearly dependent counts as failed without a solve: its KKT system
    is singular, as it is for a row parallel to an active box row.  The
    rank of an affine set's rows does not depend on the point and comes
    from the problem's cache.  Only when no row is violated is a row with
    a negative multiplier dropped, the most negative first.  Sets already
    seen are skipped, so a drop that would return to one tries the next
    negative row, and a set holds at most dim rows.  The search runs at
    most 3 * n_con rounds, room for every row to enter, leave and enter
    again.  Every exit is verified against the full KKT conditions, so a
    None just routes the problem to the barrier."""
    act: list[int] = []
    lam = np.zeros(0)
    seen = {frozenset()}
    for _ in range(3 * prob.n_con):
        g = prob.con_values(y)
        g[act] = -np.inf
        new = int(np.argmax(g))
        if g[new] > 1e-10:
            cands = [act + [new]] + [act[:j] + [new] + act[j + 1:]
                                     for j in range(len(act))]
        elif lam.size and lam.min() < -1e-10:
            cands = [act[:j] + act[j + 1:] for j in np.argsort(lam)
                     if lam[j] < -1e-10]
        else:
            idx = np.array(act, dtype=int)
            done = _finish_active(prob, y, idx, lam)
            if done is None:
                return None
            return QcqpResult(done[0], done[1], "active")
        start = dict(zip(act, lam.tolist()))
        for cand in cands:
            key = frozenset(cand)
            if key in seen or len(cand) > prob.dim:
                continue
            seen.add(key)
            cand = sorted(cand)
            idx = np.array(cand, dtype=int)
            affine = _affine_set(prob, idx)
            rank = (np.linalg.matrix_rank(prob.con_grads(y)[idx])
                    if affine is None else affine[0])
            if rank < idx.size:
                continue
            y_new, lam_new, ok = _kkt_newton(
                prob, y, idx, np.array([start.get(k, 0.0) for k in cand]))
            if ok:
                break
        else:
            return None
        act, y, lam = cand, y_new, lam_new
    return None


def qcqp_solve(prob: ConvexQcqp, y0: np.ndarray | None = None,
               mu_final: float = 1e-11,
               warm: QcqpResult | None = None) -> QcqpResult:
    """Solve the QCQP.  Tries the unconstrained minimizer, the active set
    of a previous solution and the active-set search first, then follows
    the barrier path; the active-set polish usually ends it early at
    machine precision, otherwise the path is driven to mu_final.  An H
    that cannot be factored, H = 0 among them, gives no unconstrained
    minimizer; such a problem goes to the barrier unless a warm active
    set solves it."""
    try:
        free = np.linalg.solve(prob.H, -prob.q)
    except np.linalg.LinAlgError:
        free = None
    return _solve_from(prob, free, y0, mu_final, warm)


def _solve_from(prob: ConvexQcqp, free: np.ndarray | None,
                y0: np.ndarray | None = None, mu_final: float = 1e-11,
                warm: QcqpResult | None = None) -> QcqpResult:
    """qcqp_solve given the unconstrained minimizer free of prob (None
    when there is none).  A free point that is not finite, as a prox
    anchor that is not finite gives, raises ValueError; the free path
    never takes one, so the check costs it nothing."""
    if free is not None and (prob.con_values(free) < -1e-8).all():
        return QcqpResult(free, np.zeros(prob.n_con), "free")
    if free is not None and not np.isfinite(free).all():
        raise ValueError("the unconstrained point is not finite")
    if warm is not None and warm.lam.size == prob.n_con:
        active = warm.lam > 1e-9
        done = (_polish(prob, warm.y, warm.lam, active)
                if active.any() else None)
        if done is not None:
            return QcqpResult(done[0], done[1], "warm")
    fast = None if free is None else _active_set_solve(prob, free)
    if fast is not None:
        return fast

    y = _strictly_feasible_start(prob, y0)
    m = prob.n_con
    t = max(1.0, m / (1.0 + abs(prob.value(y))))
    for target in (1e-6, mu_final):
        while True:
            y = _newton_barrier(prob, y, t)
            if m / t <= target:
                break
            t *= 10.0
        lam = 1.0 / (t * np.maximum(-prob.con_values(y), 1e-300))
        active = lam > np.sqrt(1.0 / t)
        if active.any():
            polished = _polish(prob, y, lam, active)
            if polished is not None:
                yv, lam_full = polished
                return QcqpResult(yv, lam_full, "polished")
        t *= 10.0
    lam = 1.0 / ((t / 10.0) * np.maximum(-prob.con_values(y), 1e-300))
    return QcqpResult(y, lam, "barrier")


def qcqp_prox(prob: ConvexQcqp, anchor: np.ndarray, rho: float,
              warm: QcqpResult | None = None,
              metric: np.ndarray | None = None) -> QcqpResult:
    """prox_{rho f}(anchor) for f the objective restricted to the
    constraint set: adds (1/rho) * (1/2 ||y||^2 - anchor'y), with the
    norm taken in the positive definite metric when one is given.  The
    prox problem shares the KKT cache of prob's prox map for rho and
    metric.  rho must be finite and positive (checked by prox_map), and
    so must every anchor entry (checked by _solve_from)."""
    hess, gain, offset, kkt_cache = prob.prox_map(rho, metric)
    pull = anchor / rho if metric is None else metric @ anchor / rho
    shifted = prob.with_objective(hess, prob.q - pull)
    shifted.kkt_cache = kkt_cache
    return _solve_from(shifted, gain @ anchor + offset, y0=anchor,
                       warm=warm)


def box_prox(hdiag: np.ndarray, lin: np.ndarray, lo: np.ndarray,
             hi: np.ndarray) -> np.ndarray:
    """Coordinatewise minimizer of 1/2 h y^2 + lin y over the box."""
    return np.clip(-lin / hdiag, lo, hi)
