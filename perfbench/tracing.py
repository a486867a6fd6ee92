"""Spans around calls into the program's public functions.

The benchmark replaces module attributes of `platoon_mpc` with wrappers
that record one span per call: name, start, end, parent span and step id.
Nothing inside the program changes; a call the program makes through its
own module globals (solver.dr_round calling solver.qcqp_prox, say) passes
through the wrapper because the global is looked up at call time.  Spans
are kept in flat arrays and turned into per-layer metrics after the run.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

# kernel paths as named by QcqpResult.status
PATHS = ("free", "warm", "active", "polished", "barrier")

# (span name, module, attribute); a name may cover several bindings of the
# same function, e.g. loop.solve_mpc (used by simulate) and solver.solve_mpc
WRAPPED = (
    ("loop.simulate", "loop", "simulate"),
    ("solver.formulate_local", "loop", "formulate_local"),
    ("solver.formulate_local", "solver", "formulate_local"),
    ("solver.solve_mpc", "loop", "solve_mpc"),
    ("solver.solve_mpc", "solver", "solve_mpc"),
    ("solver.warm_start_linear", "solver", "warm_start_linear"),
    ("solver.warm_start_inner", "solver", "warm_start_inner"),
    ("solver.scp_step", "solver", "scp_step"),
    ("solver.dr_round", "solver", "dr_round"),
    ("solver.plan_violation", "solver", "plan_violation"),
    ("convex.qcqp_prox", "solver", "qcqp_prox"),
    ("convex.box_prox", "solver", "box_prox"),
    ("assembly.assemble_quadratic_model", "solver",
     "assemble_quadratic_model"),
    ("assembly.build_local_objectives", "solver", "build_local_objectives"),
    ("assembly.restricted_convex_sets", "solver", "restricted_convex_sets"),
)


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.step = array("l")
        self.path = array("b")
        self.step_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self, modules) -> None:
        for name, mod, attr in WRAPPED:
            module = getattr(modules, mod)
            inner = getattr(module, attr)
            self._saved.append((module, attr, inner))
            setattr(module, attr, self._wrap(name, inner))

    def uninstall(self) -> None:
        for module, attr, inner in reversed(self._saved):
            setattr(module, attr, inner)
        self._saved.clear()

    def _wrap(self, name: str, inner):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        is_prox = name == "convex.qcqp_prox"
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.step.append(self.step_id)
            self.path.append(-1)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = inner(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if is_prox:
                self.path[idx] = PATHS.index(out.status)
            return out

        return traced

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def name_of(self, idx: int) -> str:
        return self.names[self.name[idx]]

    def paths_by_step(self) -> dict[int, Counter]:
        """Kernel path counts of the qcqp_prox calls, per step id."""
        out: dict[int, Counter] = {}
        for idx in range(len(self)):
            if self.path[idx] >= 0:
                out.setdefault(self.step[idx], Counter())[
                    PATHS[self.path[idx]]] += 1
        return out


def layer_metrics(tracer: Tracer, steps: int, n_agents: int,
                  max_inner: int, diag_sums: dict) -> dict:
    """Per-layer numbers of one traced run.  Times and counts are per
    completed step; shares are of the total solve_mpc time.  diag_sums
    holds the summed MpcDiagnostics counters (messages, guard_rounds)."""
    n = len(tracer)
    dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
    names = [tracer.name_of(i) for i in range(n)]
    child = [0.0] * n
    kids: dict[int, list[int]] = {}
    for i in range(n):
        par = tracer.parent[i]
        if par >= 0:
            child[par] += dur[i]
            kids.setdefault(par, []).append(i)

    total = Counter()
    own = Counter()
    calls = Counter()
    for i in range(n):
        total[names[i]] += dur[i]
        own[names[i]] += dur[i] - child[i]
        calls[names[i]] += 1

    def parent_name(i):
        par = tracer.parent[i]
        return names[par] if par >= 0 else None

    lin_rounds = capped = inner_rounds = constrained = 0
    for i in range(n):
        if names[i] == "solver.dr_round":
            parent = parent_name(i)
            if parent == "solver.warm_start_linear":
                lin_rounds += 1
            elif parent == "solver.warm_start_inner":
                inner_rounds += 1
            elif parent == "solver.solve_mpc":
                constrained += 1
        elif names[i] == "solver.warm_start_linear":
            # one attempt is a run of rounds closed by its guard check
            run = 0
            for k in kids.get(i, []):
                if names[k] == "solver.dr_round":
                    run += 1
                elif names[k] == "solver.plan_violation":
                    capped += run >= max_inner
                    run = 0
    refresh = sum(dur[i] for i in range(n)
                  if names[i] in ("assembly.assemble_quadratic_model",
                                  "assembly.build_local_objectives")
                  and parent_name(i) == "solver.solve_mpc")

    step_s = total["solver.solve_mpc"]
    per = 1.0 / max(steps, 1)
    paths = sum(tracer.paths_by_step().values(), Counter())
    prox_calls = calls["convex.qcqp_prox"]
    dr_self = own["solver.dr_round"]

    def share(seconds):
        return seconds / step_s if step_s > 0 else 0.0

    out = {
        "solver.step.s": step_s * per,
        "solver.warm_start_linear.s": total["solver.warm_start_linear"] * per,
        "solver.warm_start_linear.share": share(
            total["solver.warm_start_linear"]),
        "solver.warm_start_linear.rounds": lin_rounds * per,
        "solver.warm_start_linear.capped": capped * per,
        "solver.warm_start_inner.s": total["solver.warm_start_inner"] * per,
        "solver.warm_start_inner.share": share(
            total["solver.warm_start_inner"]),
        "solver.warm_start_inner.rounds": inner_rounds * per,
        "solver.scp_step.s": total["solver.scp_step"] * per,
        "solver.scp_step.share": share(total["solver.scp_step"]),
        "solver.scp_step.calls": calls["solver.scp_step"] * per,
        "solver.constrained_rounds": constrained * per,
        "solver.constrained_rounds_per_stage": (
            constrained / calls["solver.scp_step"]
            if calls["solver.scp_step"] else 0.0),
        "convex.qcqp_prox.s": total["convex.qcqp_prox"] * per,
        "convex.qcqp_prox.share": share(total["convex.qcqp_prox"]),
        "convex.qcqp_prox.calls": prox_calls * per,
        "convex.qcqp_prox.us_per_call": (
            1e6 * total["convex.qcqp_prox"] / prox_calls
            if prox_calls else 0.0),
    }
    for path in PATHS:
        out[f"convex.qcqp_prox.path.{path}"] = paths[path] * per
    out["convex.qcqp_prox.free_share"] = (
        paths["free"] / prox_calls if prox_calls else 0.0)
    out.update({
        "convex.box_prox.s": total["convex.box_prox"] * per,
        "convex.box_prox.share": share(total["convex.box_prox"]),
        "convex.box_prox.calls": calls["convex.box_prox"] * per,
        "solver.dr_round.calls": calls["solver.dr_round"] * per,
        "solver.dr_round.self_s": dr_self * per,
        "solver.dr_round.self_share": share(dr_self),
        "solver.dr_round.us_per_agent_round": (
            1e6 * dr_self / (calls["solver.dr_round"] * n_agents)
            if calls["solver.dr_round"] else 0.0),
        "solver.messages": diag_sums["messages"] * per,
        "solver.plan_violation.s": total["solver.plan_violation"] * per,
        "solver.plan_violation.share": share(
            total["solver.plan_violation"]),
        "solver.plan_violation.calls": calls["solver.plan_violation"] * per,
        "solver.guard_rounds": diag_sums["guard_rounds"] * per,
        "assembly.refresh.s": refresh * per,
        "assembly.refresh.share": share(refresh),
        "assembly.restricted_convex_sets.s": (
            total["assembly.restricted_convex_sets"] * per),
        "assembly.restricted_convex_sets.share": share(
            total["assembly.restricted_convex_sets"]),
        "solver.formulate_local.s": total["solver.formulate_local"] * per,
        "loop.simulate.other_s": own["loop.simulate"] * per,
    })
    return out
