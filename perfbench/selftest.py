"""Fast self-test of the benchmark at tiny sizes (three vehicles, one
second per run).

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

Checks that every end-to-end and per-layer metric named in
BENCHMARK.json is emitted, with its unit, on every workload, and that the
correctness gate trips on a deliberately infeasible plan and on a plan
moved off the optimum.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from workloads import (WORKLOADS, Budget, RunLog, Size, drive,  # noqa: E402
                       gate, replay_check)

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = Size(n=3, brake_steps=60,
            replay_steps={"p1-brake": 5, "p5-burst": 1, "p1-cold": 1})


def _named(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _emitted(result: dict) -> dict:
    return {k: v["unit"] for k, v in result["metrics"].items()}


def test_workloads_match_spec():
    assert tuple(w["name"] for w in SPEC["workloads"]) == WORKLOADS


def test_end_to_end_metrics_on_every_workload():
    for workload in WORKLOADS:
        result, _ = bench.run(workload, 3, 1.0, False, size=TINY)
        assert result["correct"], workload
        assert result["failed"] == 0, workload
        assert _emitted(result) == _named("end_to_end"), workload
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_per_layer_metrics_on_every_workload():
    for workload in WORKLOADS:
        result, _ = bench.run(workload, 3, 1.0, True, size=TINY)
        assert result["correct"], workload
        assert _emitted(result) == _named("per_layer"), workload


def test_gate_trips_on_infeasible_plan():
    bench.load_program()
    _, mods = bench.setup_once("p1-brake", TINY)
    options = mods.solver.SolverConfig()
    log = RunLog()
    problems = drive(mods, "p1-brake", 3, TINY, options, log,
                     Budget(float("inf"), 3))
    checks, _ = gate(mods, log, problems, options)
    assert all(ok for ok, _ in checks.values())
    # the solver's own flag must agree with the recomputed violation
    log.steps[0].feasible = False
    checks, _ = gate(mods, log, problems, options)
    assert not checks["plan_violation"][0]
    log.steps[0].feasible = True
    # far below every vehicle's braking limit
    log.steps[1].plan = log.steps[1].plan - 50.0
    checks, _ = gate(mods, log, problems, options)
    assert not checks["plan_violation"][0]
    again = RunLog()
    drive(mods, "p1-brake", 3, TINY, options, again, Budget(float("inf"), 3))
    assert not replay_check(log, again)[0]
    # a plan moved off the one-step optimum
    log.steps[1].plan = 0.9 * log.steps[1].plan
    checks, _ = gate(mods, log, problems, options)
    assert not checks["centralized_p1"][0]


def test_gate_on_a_reference_miss():
    """On the third state of this p1-cold seed (medium, ten vehicles)
    solve_centralized_p1 ends on its barrier path at a point that the
    distributed plan beats: both meet the same constraints and the plan
    costs less.  The gate must not count that against the plan."""
    bench.load_program()
    _, mods = bench.setup_once("p1-cold", Size())
    options = mods.solver.SolverConfig()
    log = RunLog()
    problems = drive(mods, "p1-cold", 886137593, Size(), options, log,
                     Budget(float("inf"), 3))
    checks, quality = gate(mods, log, problems, options)
    assert all(ok for ok, _ in checks.values()), checks
    assert quality["plan_rel_err"] <= 5e-3


if __name__ == "__main__":
    tests = [(k, v) for k, v in sorted(globals().items())
             if k.startswith("test_") and callable(v)]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} passed")
