"""Small dense convex QCQP kernel.

Problems have a PSD quadratic objective over a box intersected with convex
quadratic inequalities 1/2 y'Ay + b'y + c <= 0 (affine rows use A = 0).
Solved with a primal log-barrier and damped Newton steps, then polished by
a Newton solve of the active-set KKT system, which brings the KKT residual
to machine precision at these sizes.  The prox operator at the bottom is
the building block of the operator-splitting rounds in the solver module.
Its unconstrained point is affine in the anchor, so each problem keeps a
prox map (ConvexQcqp.prox_map) built once per step size rho and metric
object: on the free path a prox call is one matrix-vector product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class QcqpInfeasibleError(RuntimeError):
    """Raised when the phase-I search cannot find a strictly feasible point."""


@dataclass
class ConvexQcqp:
    """min 1/2 y'Hy + q'y  s.t.  lo <= y <= hi,
    1/2 y'A_k y + b_k'y + c_k <= 0 for every (A_k, b_k, c_k) in quads.

    All constraints, the box included, are stacked once, at construction,
    in the order of con_values: aff_B ((2d + m) x d) and aff_c hold their
    affine parts, lo - y <= 0 as [-I; lo] and y - hi <= 0 as [I; -hi];
    curved holds the ascending indices of the constraints with a nonzero
    A and curved_A (k x d x d) those matrices.  A problem is not changed
    after construction; with_objective derives problems that share its
    stacks.

    prox_map(rho, metric) is memoized on the problem, keyed on the value
    of rho and the identity of the metric array: a splitting stage, which
    holds both fixed, builds it once.  A derived problem starts with no
    map."""

    H: np.ndarray
    q: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    quads: list = field(default_factory=list)

    def __post_init__(self) -> None:
        self.H = np.atleast_2d(np.asarray(self.H, dtype=float))
        self.q = np.asarray(self.q, dtype=float)
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)
        if np.any(self.hi - self.lo <= 0):
            raise ValueError("box must have nonempty interior")
        d, m = self.dim, len(self.quads)
        rows_b = np.array([b for _, b, _ in self.quads], dtype=float)
        self.aff_B = np.concatenate([-np.eye(d), np.eye(d),
                                     rows_b.reshape(m, d)])
        self.aff_c = np.concatenate([
            self.lo, -self.hi,
            np.array([c for _, _, c in self.quads], dtype=float)])
        curved = [k for k, (A, _, _) in enumerate(self.quads) if np.any(A)]
        self.curved = 2 * d + np.array(curved, dtype=int)
        self.curved_A = np.array([self.quads[k][0] for k in curved],
                                 dtype=float).reshape(len(curved), d, d)
        self._prox = None

    @property
    def dim(self) -> int:
        return self.q.size

    @property
    def n_con(self) -> int:
        return 2 * self.dim + len(self.quads)

    def with_objective(self, H: np.ndarray, q: np.ndarray) -> ConvexQcqp:
        """The same constraint set under the objective 1/2 y'Hy + q'y,
        sharing this problem's row stacks."""
        out = object.__new__(ConvexQcqp)
        out.__dict__.update(self.__dict__)
        out.H, out.q, out._prox = H, q, None
        return out

    def prox_map(self, rho: float, metric: np.ndarray | None = None
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(hess, gain, offset) of the prox problem with the curvature
        C = metric/rho (I/rho when metric is None): hess = H + C, and its
        unconstrained minimizer for an anchor a is gain @ a + offset, with
        gain = hess^-1 C and offset = -hess^-1 q.  Computed on the first
        call and kept for the later calls with the same rho and metric
        object.  An explicit inverse, since numpy has no triangular solve
        to reuse a Cholesky factor with, and d is small."""
        memo = self._prox
        if memo is None or memo[0] != rho or memo[1] is not metric:
            curv = np.eye(self.dim) / rho if metric is None else metric / rho
            hess = self.H + curv
            inv = np.linalg.inv(hess)
            memo = self._prox = (rho, metric, hess, inv @ curv,
                                 -(inv @ self.q))
        return memo[2:]

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
    newton_steps: int = 0


def kkt_residual(prob: ConvexQcqp, y: np.ndarray,
                 lam: np.ndarray) -> float:
    """Largest violation among stationarity, primal and dual feasibility
    and complementary slackness."""
    g = prob.con_values(y)
    grads = prob.con_grads(y)
    stat = prob.H @ y + prob.q + grads.T @ lam
    return max(float(np.max(np.abs(stat))),
               float(np.max(g, initial=0.0)),
               float(np.max(-lam, initial=0.0)),
               float(np.max(np.abs(lam * g), initial=0.0)))


def _newton_barrier(prob: ConvexQcqp, y: np.ndarray, t: float,
                    max_steps: int = 60) -> tuple[np.ndarray, int]:
    """Damped Newton on t*f(y) - sum log(-g(y)) from a strictly
    feasible y."""
    d = prob.dim
    steps = 0
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
        steps += 1
        if not accepted:
            break
        if decrement < 1e-12:
            break
    return y, steps


def _strictly_feasible_start(prob: ConvexQcqp, y0: np.ndarray | None,
                             margin: float = 1e-7) -> np.ndarray:
    """Return a point with every constraint strictly negative, running an
    epigraph phase-I when the hints fail."""
    width = prob.hi - prob.lo
    cands = []
    if y0 is not None:
        cands.append(np.clip(y0, prob.lo + 1e-9 * width,
                             prob.hi - 1e-9 * width))
    cands.append(0.5 * (prob.lo + prob.hi))
    for cand in cands:
        if np.all(prob.con_values(cand) < -1e-9):
            return cand

    # phase I: minimize s subject to g_k(y) <= s inside the box
    y = cands[-1]
    s = float(np.max(prob.con_values(y))) + 1.0
    t = 1.0
    for _ in range(40):
        for _ in range(50):
            g = prob.con_values(y)
            slack = s - g
            box_lo = y - (prob.lo + 1e-12 * width)
            box_hi = (prob.hi - 1e-12 * width) - y
            inv = 1.0 / slack
            grads = prob.con_grads(y)
            grad_y = grads.T @ inv - 1.0 / box_lo + 1.0 / box_hi
            grad_s = t - float(np.sum(inv))
            hess_yy = prob.add_row_hessians(
                (grads * (inv ** 2)[:, None]).T @ grads
                + np.diag(1.0 / box_lo ** 2 + 1.0 / box_hi ** 2), inv)
            hess_ys = -grads.T @ (inv ** 2)
            hess_ss = float(np.sum(inv ** 2))
            kkt = np.block([[hess_yy, hess_ys[:, None]],
                            [hess_ys[None, :], np.array([[hess_ss]])]])
            rhs = -np.concatenate([grad_y, [grad_s]])
            try:
                step = np.linalg.solve(kkt + 1e-12 * np.eye(prob.dim + 1),
                                       rhs)
            except np.linalg.LinAlgError:
                break
            dec = float(rhs @ step)
            if dec <= 1e-14 * (1.0 + abs(s)):
                break
            alpha = 1.0
            ok = False
            for _ in range(60):
                yc = y + alpha * step[:-1]
                sc = s + alpha * step[-1]
                if (np.all(yc > prob.lo + 1e-12 * width)
                        and np.all(yc < prob.hi - 1e-12 * width)
                        and np.all(prob.con_values(yc) < sc)):
                    y, s = yc, sc
                    ok = True
                    break
                alpha *= 0.5
            if not ok:
                break
            if _phase_done(prob, y, margin):
                return y
        if _phase_done(prob, y, margin):
            return y
        t *= 10.0
        if t > 1e12:
            break
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


def _kkt_newton(prob: ConvexQcqp, y: np.ndarray, idx: np.ndarray,
                lam_a: np.ndarray):
    """Newton on the KKT equations with the rows idx held as equalities."""
    d = prob.dim
    yv = y.copy()
    lam_a = lam_a.copy()
    scale = 1.0 + float(np.max(np.abs(prob.q)))
    for _ in range(25):
        g = prob.con_values(yv)
        grads = prob.con_grads(yv)
        stat = prob.H @ yv + prob.q
        if idx.size:
            stat = stat + grads[idx].T @ lam_a
        res = np.concatenate([stat, g[idx]])
        if np.max(np.abs(res)) < 1e-12 * scale:
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
    stat = prob.H @ yv + prob.q
    if idx.size:
        stat = stat + prob.con_grads(yv)[idx].T @ lam_a
    res = np.concatenate([stat, g[idx]])
    return yv, lam_a, bool(np.max(np.abs(res)) < 1e-9 * scale)


def _finish_active(prob: ConvexQcqp, yv: np.ndarray, idx: np.ndarray,
                   lam_a: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    g = prob.con_values(yv)
    inactive = np.ones(prob.n_con, dtype=bool)
    inactive[idx] = False
    if np.any(lam_a < -1e-9) or \
            np.any(g[inactive] > 1e-10) or \
            np.max(np.abs(g[idx]), initial=0.0) > 1e-10:
        return None
    lam_full = np.zeros(prob.n_con)
    lam_full[idx] = np.maximum(lam_a, 0.0)
    if kkt_residual(prob, yv, lam_full) > 1e-9:
        return None
    return yv, lam_full


def _polish(prob: ConvexQcqp, y: np.ndarray, lam: np.ndarray,
            active: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Newton solve of the KKT system restricted to the active set; returns
    None when the guess is inconsistent."""
    idx = np.flatnonzero(active)
    yv, lam_a, ok = _kkt_newton(prob, y, idx, lam[idx])
    if not ok:
        return None
    return _finish_active(prob, yv, idx, lam_a)


def _active_set_solve(prob: ConvexQcqp, y: np.ndarray) -> QcqpResult | None:
    """Combinatorial active-set search seeded from the unconstrained
    minimizer y; every exit is verified against the full KKT conditions,
    so a None just routes the problem to the barrier."""
    act = set(np.flatnonzero(prob.con_values(y) > 0.0).tolist())
    lam: dict[int, float] = {k: 0.0 for k in act}
    seen = set()
    for _ in range(18):
        key = frozenset(act)
        if key in seen or len(act) > prob.dim + 1:
            return None
        seen.add(key)
        idx = np.array(sorted(act), dtype=int)
        y, lam_a, ok = _kkt_newton(prob, y, idx,
                                   np.array([lam[k] for k in idx]))
        if not ok:
            return None
        lam = {int(k): float(lam_a[pos]) for pos, k in enumerate(idx)}
        g = prob.con_values(y)
        viol = [k for k in range(prob.n_con)
                if k not in act and g[k] > 1e-10]
        negs = [k for k in idx if lam[k] < -1e-10]
        if viol:
            kbest = max(viol, key=lambda k: g[k])
            act.add(kbest)
            lam[kbest] = 0.0
        elif negs:
            worst = min(negs, key=lambda k: lam[k])
            act.discard(worst)
            lam.pop(worst)
        else:
            done = _finish_active(prob, y, idx, lam_a)
            if done is None:
                return None
            yv, lam_full = done
            return QcqpResult(yv, lam_full, "active")
    return None


def qcqp_solve(prob: ConvexQcqp, y0: np.ndarray | None = None,
               mu_final: float = 1e-11,
               warm: QcqpResult | None = None) -> QcqpResult:
    """Solve the QCQP.  Tries the unconstrained minimizer and the active
    set of a previous solution first, then follows the barrier path; the
    active-set polish usually ends it early at machine precision, otherwise
    the path is driven to mu_final.  An H that cannot be factored, H = 0
    among them, gives no unconstrained minimizer; such a problem goes to
    the barrier unless a warm active set solves it."""
    try:
        free = np.linalg.solve(prob.H, -prob.q)
    except np.linalg.LinAlgError:
        free = None
    return _solve_from(prob, free, y0, mu_final, warm)


def _solve_from(prob: ConvexQcqp, free: np.ndarray | None,
                y0: np.ndarray | None = None, mu_final: float = 1e-11,
                warm: QcqpResult | None = None) -> QcqpResult:
    """qcqp_solve given the unconstrained minimizer free of prob (None
    when there is none)."""
    if free is not None and (prob.con_values(free) < -1e-8).all():
        return QcqpResult(free, np.zeros(prob.n_con), "free")
    if warm is not None and warm.lam.size == prob.n_con:
        active = warm.lam > 1e-9
        done = (_polish(prob, warm.y, warm.lam, active)
                if np.any(active) else None)
        if done is not None:
            return QcqpResult(done[0], done[1], "warm")
    fast = None if free is None else _active_set_solve(prob, free)
    if fast is not None:
        return fast

    y = _strictly_feasible_start(prob, y0)
    m = prob.n_con
    t = max(1.0, m / (1.0 + abs(prob.value(y))))
    total = 0
    for target in (1e-6, mu_final):
        while True:
            y, steps = _newton_barrier(prob, y, t)
            total += steps
            if m / t <= target:
                break
            t *= 10.0
        lam = 1.0 / (t * np.maximum(-prob.con_values(y), 1e-300))
        active = lam > np.sqrt(1.0 / t)
        if np.any(active):
            polished = _polish(prob, y, lam, active)
            if polished is not None:
                yv, lam_full = polished
                return QcqpResult(yv, lam_full, "polished", total)
        t *= 10.0
    lam = 1.0 / ((t / 10.0) * np.maximum(-prob.con_values(y), 1e-300))
    return QcqpResult(y, lam, "barrier", total)


def qcqp_prox(prob: ConvexQcqp, anchor: np.ndarray, rho: float,
              warm: QcqpResult | None = None,
              metric: np.ndarray | None = None) -> QcqpResult:
    """prox_{rho f}(anchor) for f the objective restricted to the
    constraint set: adds (1/rho) * (1/2 ||y||^2 - anchor'y), with the
    norm taken in the positive definite metric when one is given."""
    hess, gain, offset = prob.prox_map(rho, metric)
    pull = anchor / rho if metric is None else metric @ anchor / rho
    shifted = prob.with_objective(hess, prob.q - pull)
    return _solve_from(shifted, gain @ anchor + offset, y0=anchor,
                       warm=warm)


def box_prox(hdiag: np.ndarray, lin: np.ndarray, lo: np.ndarray,
             hi: np.ndarray) -> np.ndarray:
    """Coordinatewise minimizer of 1/2 h y^2 + lin y over the box."""
    return np.clip(-lin / hdiag, lo, hi)
