"""Step-latency benchmark of the distributed platoon MPC.

Run from the root of a checkout:

    python3 perfbench/run.py --workload p1-brake --seed 1 --seconds 30 \
        --trace 0

Builds nothing: the program is imported from ./src.  One process, no
worker pools, BLAS and OpenMP pinned to one thread.  The report goes to
stdout; its last line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With --trace 0 the metrics are the end-to-end
ones, with --trace 1 the per-layer ones from wrapped public functions.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import (CLOSED_LOOP, HELD_OUT_SEED, HORIZON,  # noqa: E402
                       WORKLOADS, Budget, RunLog, Size, drive, gate,
                       replay_check)

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "platoon_mpc"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"]
         for kind in ("end_to_end", "per_layer") for m in SPEC[kind]}
# set-up repeats before the timed phase, then one between two steps every
# SETUP_EVERY seconds: the host's speed changes over seconds, so repeats
# in one burst would sample a single moment of it
SETUP_FIRST = 3
SETUP_EVERY = 1.0
TAIL_BEYOND = 10


class MissingProgram(RuntimeError):
    """The checkout holds no program to measure."""


def load_program():
    """Put ./src first on the path and refuse any other copy of the
    package, so a checkout without sources fails instead of measuring
    something installed elsewhere."""
    src = ROOT / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        raise MissingProgram(f"no {PACKAGE} sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def import_fresh():
    """Import the package with none of its modules cached."""
    for name in [m for m in sys.modules
                 if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    if not Path(pkg.__file__).resolve().is_relative_to(ROOT / "src"):
        raise MissingProgram(f"{PACKAGE} resolved outside {ROOT / 'src'}")
    return pkg


def setup_once(workload: str, size: Size):
    """One set-up, from import through preset, weights and the first
    formulate_local: its seconds and the modules it imported.  Each call
    re-executes the package's modules; third-party modules stay loaded
    after the first."""
    p = HORIZON[workload]
    t0 = time.perf_counter()
    pkg = import_fresh()
    cfg = pkg.platoon_preset("small", n=size.n)
    weights = pkg.weight_preset("small", p, n=size.n)
    pkg.formulate_local(cfg, weights, pkg.initial_state(cfg, 25.0))
    seconds = time.perf_counter() - t0
    mods = SimpleNamespace(**{m: sys.modules[f"{PACKAGE}.{m}"] for m in (
        "assembly", "convex", "loop", "platoon", "presets", "solver")})
    return seconds, mods


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def tail(values: list) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples above it:
    the (TAIL_BEYOND + 1)-th largest value, its percentile and the number
    of samples above it.  With too few samples, the largest value."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[-TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, \
        TAIL_BEYOND


@contextmanager
def installed(tracer, mods):
    """The tracer's wrappers in place for the duration; no-op for None."""
    if tracer is None:
        yield
        return
    tracer.install(mods)
    try:
        yield
    finally:
        tracer.uninstall()


def timed_run(mods, workload, seed, seconds, size, options, tracer,
              pause=None):
    """Issue steps for `seconds`, then finish the step in flight; call
    `pause` between two steps every SETUP_EVERY seconds, outside the
    timed phase.  Returns the log, the problem data and the seconds the
    phase took."""
    log = RunLog()
    with installed(tracer, mods):
        budget = Budget(seconds, sys.maxsize, pause, SETUP_EVERY)
        problems = drive(mods, workload, seed, size, options, log, budget,
                         tracer)
        elapsed = budget.elapsed()
    return log, problems, elapsed


def run(workload: str, seed: int, seconds: float, trace: bool,
        size: Size | None = None):
    """One benchmark run.  Returns (result, report lines)."""
    size = size or Size()
    load_program()
    setup_times = []
    for _ in range(SETUP_FIRST):
        took, mods = setup_once(workload, size)
        setup_times.append(took)
    options = mods.solver.SolverConfig()
    tracer = Tracer() if trace else None
    # the traced run reports no setup_s, so it takes no set-up pauses
    pause = None if trace else (
        lambda: setup_times.append(setup_once(workload, size)[0]))
    log, problems, timed_s = timed_run(mods, workload, seed, seconds, size,
                                       options, tracer, pause)

    checks, quality = gate(mods, log, problems, options)
    # replay the first steps of the same seed: counters, plans and, when
    # traced, kernel paths must repeat exactly
    again = RunLog()
    replay_tracer = Tracer() if trace else None
    with installed(replay_tracer, mods):
        drive(mods, workload, seed, size, options, again,
              Budget(float("inf"),
                     min(size.replay_steps[workload], log.attempted)),
              replay_tracer)
    checks["replay"] = replay_check(
        log, again,
        tracer.paths_by_step() if tracer else None,
        replay_tracer.paths_by_step() if replay_tracer else None)
    correct = all(ok for ok, _ in checks.values())

    step_ms = [1e3 * s.seconds for s in log.steps]
    steps_per_s = len(log.steps) / timed_s if timed_s > 0 else 0.0
    lines = [f"# workload {workload} seed {seed} (held-out seed "
             f"{HELD_OUT_SEED}) seconds {seconds} trace {int(trace)}",
             "# env " + json.dumps(environment())]
    if trace:
        sums = {"messages": sum(s.counters[6] for s in log.steps),
                "guard_rounds": sum(s.counters[5] for s in log.steps)}
        values = layer_metrics(tracer, len(log.steps), size.n,
                               options.max_inner, sums)
        values["trace.steps_per_s"] = steps_per_s
    else:
        values = end_to_end(setup_times, step_ms, steps_per_s, log)
        lines.append(f"# setup_s is the median of {len(setup_times)} "
                     "set-ups")
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    for name, m in metrics.items():
        lines.append(f"{name} {m['value']:.6g} {m['unit']}")
    if step_ms:
        _, pct, beyond = tail(step_ms)
        lines.append(f"# step_ms_tail is p{pct:.1f} of {len(step_ms)} "
                     f"steps ({beyond} beyond it)")
    lines.append(f"# failed_step_share {log.failed / max(log.attempted, 1):g}"
                 f" ({log.failed} of {log.attempted})")
    if "plan_rel_err" in quality:
        lines.append(f"# plan_rel_err {quality['plan_rel_err']:.4g}")
        lines.append("# reference_misses "
                     f"{json.dumps(quality['reference_misses'])}")
    if workload in CLOSED_LOOP:
        lines.append(f"# gap_dev_max_m {quality['gap_dev_max_m']:.4g} m")
    digest = [s.counters for s in again.steps]
    lines.append(f"# replay counters {json.dumps(digest)}")
    for name, (ok, detail) in checks.items():
        lines.append(f"# check {name} {'ok' if ok else 'FAILED'}: {detail}")
    for err in log.errors:
        lines.append(f"# error {err}")
    result = {"correct": correct, "attempted": max(log.attempted, 1),
              "failed": log.failed if log.attempted else 1,
              "metrics": metrics}
    return result, lines


def end_to_end(setup_times: list, step_ms: list, steps_per_s: float,
               log: RunLog) -> dict:
    return {
        "setup_s": statistics.median(setup_times),
        "step_ms_p50": statistics.median(step_ms) if step_ms else 0.0,
        "step_ms_tail": tail(step_ms)[0] if step_ms else 0.0,
        "steps_per_s": steps_per_s,
        "ok_step_share": ((log.attempted - log.failed)
                          / max(log.attempted, 1)),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        result, lines = run(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    except MissingProgram as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
