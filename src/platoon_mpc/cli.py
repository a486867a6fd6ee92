"""Command line front end: load a platoon, run a scenario through the
closed loop, write the trajectory and solver diagnostics to disk, and
summarize spacing errors, solve times and, on request, the gap to a
centralized reference solve."""

from __future__ import annotations

import json
import statistics
from dataclasses import asdict, dataclass, field
from pathlib import Path

import click
import numpy as np

from .loop import (SimRecord, brake_scenario, cruise_scenario,
                   oscillation_scenario, simulate, steady_state_error,
                   synthetic_leader, trace_scenario, wave_scenario,
                   write_leader_trace, write_trajectory_csv)
from .platoon import PlatoonConfig, PlatoonState, load_config
from .presets import PLATOON_NAMES, platoon_preset, weight_preset
from .solver import SolverConfig, solve_centralized_p1

SCENARIOS = ("1", "2", "3", "cruise")


@dataclass
class RunSpec:
    """Everything one closed-loop run needs; the CLI is a thin shell
    around this."""

    platoon: str = "small"
    scenario: str = "1"
    horizon: int = 1
    steps: int = 150
    leader_csv: str | None = None
    out: str | None = None
    centralized: bool = False
    seed: int = 0
    overrides: dict = field(default_factory=dict)

    def solver_config(self) -> SolverConfig:
        return SolverConfig(**{k: v for k, v in self.overrides.items()
                               if v is not None})


def load_platoon(name: str, horizon: int):
    """Named preset or a JSON platoon file.  File platoons reuse the
    shared base weight rule, cut down to their own size."""
    if name in PLATOON_NAMES:
        return platoon_preset(name), weight_preset(name, horizon)
    config = load_config(name)
    return config, weight_preset("small", horizon, n=config.n)


def build_scenario(spec: RunSpec):
    if spec.scenario == "1":
        return brake_scenario(spec.steps)
    if spec.scenario == "2":
        return wave_scenario(spec.steps)
    if spec.scenario == "3":
        if spec.leader_csv:
            return trace_scenario(spec.leader_csv)
        return oscillation_scenario(spec.steps)
    if spec.scenario == "cruise":
        return cruise_scenario(spec.steps)
    raise ValueError(f"unknown scenario {spec.scenario!r}")


def _quartiles(values):
    if not values:
        return 0.0, 0.0, 0.0
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q = statistics.quantiles(values, n=4)
    return float(q[0]), float(statistics.median(values)), float(q[2])


def compare_centralized(config: PlatoonConfig, weights,
                        record: SimRecord) -> dict:
    """Solve every state of a horizon-1 run as one high precision
    whole-platoon program and record the relative error of the run's
    control per step whenever the reference control is nonzero.  Only the
    spacings, the speeds and the leader control enter the problem."""
    errors = []
    for k in range(record.steps):
        x = np.concatenate(([0.0], -np.cumsum(record.spacings[k])))
        state = PlatoonState(x, record.speeds[k], float(record.leader_u[k]))
        ref = solve_centralized_p1(config, weights, state)
        scale = float(np.linalg.norm(ref))
        if scale > 1e-9:
            errors.append(
                float(np.linalg.norm(record.controls[k] - ref)) / scale)
    return {
        "steps_compared": len(errors),
        "mean_relative_error": float(np.mean(errors)) if errors else 0.0,
        "max_relative_error": float(np.max(errors)) if errors else 0.0,
    }


def summarize(record: SimRecord, config: PlatoonConfig, spec: RunSpec) -> dict:
    walls = [d.wall_time for d in record.diagnostics]
    q1, med, q3 = _quartiles(walls)
    zss = record.z[-20:].mean(axis=0)
    return {
        "platoon": spec.platoon,
        "scenario": record.scenario,
        "horizon": record.diagnostics[0].p if record.diagnostics else 0,
        "steps": record.steps,
        "seed": spec.seed,
        "tau": record.tau,
        "n": config.n,
        "max_steady_state_error": float(np.max(np.abs(zss))),
        "max_spacing_deviation": float(np.max(np.abs(record.z))),
        "max_first_gap_deviation": float(np.max(np.abs(record.z[:, 0]))),
        "solve_time_median": med,
        "solve_time_iqr": [q1, q3],
        "outer_iterations_median": float(np.median(
            [d.outer_iters for d in record.diagnostics])) if walls else 0.0,
        "all_steps_feasible": bool(all(d.feasible
                                       for d in record.diagnostics)),
        "tracking_gap": record.track_gap,
    }


def write_artifacts(out: Path, record: SimRecord, summary: dict) -> None:
    out.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(out / "trajectory.csv", record)
    diags = [{k: v for k, v in asdict(d).items() if k != "outer_violation"}
             for d in record.diagnostics]
    with open(out / "diagnostics.json", "w") as fh:
        json.dump(diags, fh, indent=1)
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    write_plot_script(out / "plot.gp", record)


def write_plot_script(path: Path, record: SimRecord) -> None:
    n = record.controls.shape[1]
    spacing_cols = ", ".join(
        f"'trajectory.csv' using 1:{3 + 3 * i} with lines title 'S_{i}_{i+1}'"
        for i in range(n))
    speed_cols = ", ".join(
        f"'trajectory.csv' using 1:{4 + 3 * i} with lines title 'v_{i+1}'"
        for i in range(n))
    control_cols = ", ".join(
        f"'trajectory.csv' using 1:{5 + 3 * i} with lines title 'u_{i+1}'"
        for i in range(n))
    text = "\n".join([
        "set datafile separator ','",
        "set key outside font ',7'",
        "set term pngcairo size 900,1200",
        f"set output '{record.scenario}.png'",
        "set multiplot layout 3,1",
        "set ylabel 'spacing (m)'",
        f"plot {spacing_cols}",
        "set ylabel 'speed (m/s)'",
        f"plot {speed_cols}",
        "set ylabel 'control (m/s^2)'",
        "set xlabel 'step'",
        f"plot {control_cols}",
        "unset multiplot",
        "",
    ])
    path.write_text(text)


def run_spec(spec: RunSpec) -> dict:
    config, weights = load_platoon(spec.platoon, spec.horizon)
    if spec.centralized and weights.p != 1:
        raise click.ClickException(
            "the centralized reference covers horizon 1 only")
    scenario = build_scenario(spec)
    options = spec.solver_config()
    record = simulate(config, weights, scenario, options=options)
    summary = summarize(record, config, spec)
    if scenario.name == "trace":
        summary["clipped_leader_steps"] = scenario.clipped_steps
    if spec.centralized:
        summary["centralized"] = compare_centralized(config, weights,
                                                     record)
    if spec.out:
        write_artifacts(Path(spec.out), record, summary)
    return summary


def _spec_from(platoon, scenario, horizon, steps, leader_csv, out,
               centralized, seed, tol_outer, tol_inner):
    return RunSpec(platoon=platoon, scenario=scenario, horizon=horizon,
                   steps=steps, leader_csv=leader_csv, out=out,
                   centralized=centralized, seed=seed,
                   overrides={"tol_outer": tol_outer,
                              "tol_inner": tol_inner})


_shared_options = [
    click.option("--platoon", default="small", show_default=True,
                 help="preset name or path to a platoon JSON file"),
    click.option("--scenario", default="1", show_default=True,
                 type=click.Choice(SCENARIOS)),
    click.option("--horizon", default=1, show_default=True,
                 type=click.IntRange(1, 5)),
    click.option("--steps", default=150, show_default=True,
                 type=click.IntRange(1, None)),
    click.option("--leader-csv", default=None,
                 type=click.Path(exists=True, dir_okay=False),
                 help="recorded leader trajectory for scenario 3"),
    click.option("--out", default=None, type=click.Path(file_okay=False),
                 help="artifact directory (omit to print the summary only)"),
    click.option("--centralized", is_flag=True,
                 help="also solve every step as one program (horizon 1)"),
    click.option("--seed", default=0, show_default=True, type=int),
    click.option("--tol-outer", default=None, type=float),
    click.option("--tol-inner", default=None, type=float),
]


def shared_options(fn):
    for opt in reversed(_shared_options):
        fn = opt(fn)
    return fn


@click.group()
def main():
    """Distributed MPC platooning simulator."""


@main.command()
@shared_options
def run(**kwargs):
    """Run one closed-loop scenario and write its artifacts."""
    spec = _spec_from(**kwargs)
    try:
        summary = run_spec(spec)
    except (ValueError, RuntimeError) as exc:
        raise click.ClickException(str(exc))
    click.echo(json.dumps(summary, indent=1, sort_keys=True))


@main.command("compare-centralized")
@shared_options
def compare(**kwargs):
    """Per-step relative error of the distributed solve against a high
    precision centralized reference (horizon 1)."""
    kwargs["centralized"] = True
    spec = _spec_from(**kwargs)
    try:
        summary = run_spec(spec)
    except (ValueError, RuntimeError) as exc:
        raise click.ClickException(str(exc))
    stats = summary["centralized"]
    click.echo(f"steps compared: {stats['steps_compared']}")
    click.echo(f"mean relative error: {stats['mean_relative_error']:.3e}")
    click.echo(f"max relative error: {stats['max_relative_error']:.3e}")


@main.command("preset-catalog")
def preset_catalog():
    """List the embedded platoon and weight presets."""
    rows = {}
    for name in PLATOON_NAMES:
        config = platoon_preset(name)
        weights = weight_preset(name, 1)
        rows[name] = {
            "n": config.n,
            "tau": config.tau,
            "gap": config.gap,
            "speed_band": [config.speed_min, config.speed_max],
            "drag_range": [float(config.drag.min()),
                           float(config.drag.max())],
            "roll_range": [float(config.roll.min()),
                           float(config.roll.max())],
            "accel_range": [float(config.accel_min.min()),
                            float(config.accel_max.max())],
            "p1_weights_head": {
                "qz": list(weights.qz[0][:3]),
                "qzp": list(weights.qzp[0][:3]),
                "qw": list(weights.qw[0][:3]),
            },
            "steady_state_error_p1": float(np.max(np.abs(
                steady_state_error(config, weights, 25.0)[0]))),
        }
    click.echo(json.dumps(rows, indent=1))


@main.command("make-leader")
@click.option("--steps", default=150, show_default=True,
              type=click.IntRange(1, None))
@click.option("--tau", default=1.0, show_default=True, type=float)
@click.option("--v0", default=25.0, show_default=True, type=float)
@click.option("--amp", default=1.5, show_default=True, type=float)
@click.option("--period", default=40.0, show_default=True, type=float)
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def make_leader(steps, tau, v0, amp, period, out):
    """Write a synthetic oscillating leader trajectory for scenario 3."""
    x, v = synthetic_leader(steps, tau=tau, v0=v0, amp=amp, period=period)
    write_leader_trace(out, x, v, tau)
    click.echo(f"wrote {steps + 1} samples to {out}")


if __name__ == "__main__":
    main()
