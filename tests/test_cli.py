import json
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

from platoon_mpc.cli import RunSpec, build_scenario, main, run_spec
from platoon_mpc.platoon import save_config
from platoon_mpc.presets import platoon_preset


def cruise_spec(steps=6, **kw):
    return RunSpec(platoon="small", scenario="cruise", steps=steps, **kw)


def test_run_spec_writes_artifacts(tmp_path):
    out = tmp_path / "run"
    summary = run_spec(cruise_spec(out=str(out)))
    for name in ("trajectory.csv", "diagnostics.json", "summary.json",
                 "plot.gp"):
        assert (out / name).exists()
    assert summary["n"] == 10
    assert summary["steps"] == 6
    assert summary["all_steps_feasible"]
    assert summary["max_spacing_deviation"] < 0.08
    diags = json.loads((out / "diagnostics.json").read_text())
    assert len(diags) == 6
    assert {"outer_iters", "capped_runs", "wall_time",
            "feasible"} <= set(diags[0])
    assert "trajectory.csv" in (out / "plot.gp").read_text()
    on_disk = json.loads((out / "summary.json").read_text())
    assert on_disk["max_spacing_deviation"] == \
        summary["max_spacing_deviation"]


def test_reruns_are_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_spec(cruise_spec(out=str(out_a)))
    run_spec(cruise_spec(out=str(out_b)))
    assert (out_a / "trajectory.csv").read_bytes() == \
        (out_b / "trajectory.csv").read_bytes()


def test_scenario_table():
    assert build_scenario(cruise_spec()).name == "cruise"
    assert build_scenario(RunSpec(scenario="1")).name == "brake"
    assert build_scenario(RunSpec(scenario="2")).name == "wave"
    assert build_scenario(RunSpec(scenario="3")).name == "oscillation"
    with pytest.raises(ValueError, match="scenario"):
        build_scenario(RunSpec(scenario="7"))


def test_custom_platoon_file(tmp_path):
    config = platoon_preset("small")
    short = replace(config, vehicles=config.vehicles[:3])
    path = tmp_path / "trio.json"
    save_config(short, path)
    summary = run_spec(RunSpec(platoon=str(path), scenario="cruise", steps=5))
    assert summary["n"] == 3
    assert summary["all_steps_feasible"]


def test_solver_overrides_reach_the_solver():
    loose = run_spec(cruise_spec(steps=40, overrides={"tol_outer": 1e-2}))
    tight = run_spec(cruise_spec(steps=40, overrides={"tol_outer": 1e-7}))
    assert tight["max_steady_state_error"] == pytest.approx(
        0.057199, abs=1e-4)
    # a loose consensus stop leaves a visibly biased fixed point
    assert abs(loose["max_steady_state_error"]
               - tight["max_steady_state_error"]) > 1e-3


def test_cli_run_prints_summary():
    runner = CliRunner()
    res = runner.invoke(main, ["run", "--scenario", "cruise", "--steps", "5"])
    assert res.exit_code == 0, res.output
    summary = json.loads(res.output)
    assert summary["scenario"] == "cruise"
    assert summary["all_steps_feasible"] is True


@pytest.mark.parametrize("flag", ["--tol-outer=nan", "--tol-outer=-1",
                                  "--tol-inner=inf"])
def test_cli_run_rejects_tolerances_that_cannot_work(flag):
    runner = CliRunner()
    res = runner.invoke(main, ["run", "--platoon", "small", "--scenario", "1",
                               "--horizon", "2", "--steps", "2", flag])
    assert res.exit_code != 0
    assert "must be finite and > 0" in res.output


def test_cli_compare_centralized_lines():
    runner = CliRunner()
    res = runner.invoke(main, ["compare-centralized", "--scenario", "cruise",
                               "--steps", "4"])
    assert res.exit_code == 0, res.output
    lines = res.output.strip().splitlines()
    assert lines[0] == "steps compared: 4"
    mean = float(lines[1].split(": ")[1])
    assert mean < 5e-3


def test_cli_compare_rejects_longer_horizons():
    runner = CliRunner()
    res = runner.invoke(main, ["compare-centralized", "--horizon", "3",
                               "--scenario", "cruise", "--steps", "3"])
    assert res.exit_code != 0
    assert "horizon 1" in res.output


def test_cli_preset_catalog_frozen():
    runner = CliRunner()
    res = runner.invoke(main, ["preset-catalog"])
    assert res.exit_code == 0
    rows = json.loads(res.output)
    assert set(rows) == {"small", "medium", "large"}
    assert rows["small"]["gap"] == 50.0
    assert rows["medium"]["gap"] == 60.0
    assert rows["large"]["gap"] == 65.0
    assert rows["small"]["drag_range"] == [2.5e-4, 2.5e-4]
    assert rows["large"]["drag_range"] == [4.5e-4, 4.5e-4]
    assert rows["medium"]["drag_range"][0] < rows["medium"]["drag_range"][1]
    assert rows["small"]["steady_state_error_p1"] == pytest.approx(
        0.057199, abs=1e-5)


def test_cli_make_leader_roundtrip(tmp_path):
    runner = CliRunner()
    lead = tmp_path / "lead.csv"
    res = runner.invoke(main, ["make-leader", "--steps", "30",
                               "--out", str(lead)])
    assert res.exit_code == 0
    assert lead.exists() and lead.with_suffix(".json").exists()
    res = runner.invoke(main, ["run", "--scenario", "3", "--leader-csv",
                               str(lead), "--steps", "30"])
    assert res.exit_code == 0, res.output
    summary = json.loads(res.output)
    assert summary["scenario"] == "trace"
    assert summary["clipped_leader_steps"] == 0


def test_cli_missing_leader_csv_fails():
    runner = CliRunner()
    res = runner.invoke(main, ["run", "--scenario", "3", "--leader-csv",
                               "/nonexistent/leader.csv"])
    assert res.exit_code != 0
