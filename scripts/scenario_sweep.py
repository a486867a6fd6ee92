"""Run a scenario on each of the three platoon presets in turn and
tabulate the spacing deviations, steady-state errors and solve times.

The runs go one after another; artifacts land in one directory per run,
<out>/<platoon>_s<scenario>_p<horizon>.
"""

import argparse
from pathlib import Path

from platoon_mpc.cli import RunSpec, run_spec
from platoon_mpc.presets import PLATOON_NAMES


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scenario", default="1",
                    choices=("1", "2", "3", "cruise"))
    ap.add_argument("--horizon", type=int, default=1)
    ap.add_argument("--steps", type=int, default=150)
    ap.add_argument("--out", default="runs")
    args = ap.parse_args()

    specs = [RunSpec(platoon=name, scenario=args.scenario,
                     horizon=args.horizon, steps=args.steps,
                     out=str(Path(args.out)
                             / f"{name}_s{args.scenario}_p{args.horizon}"))
             for name in PLATOON_NAMES]
    results = [run_spec(s) for s in specs]

    head = (f"{'platoon':<8} {'max |z|':>9} {'first gap':>10} "
            f"{'|z_ss|':>8} {'med solve':>10}")
    print(head)
    for s in results:
        print(f"{s['platoon']:<8} {s['max_spacing_deviation']:>9.4f} "
              f"{s['max_first_gap_deviation']:>10.4f} "
              f"{s['max_steady_state_error']:>8.4f} "
              f"{s['solve_time_median'] * 1e3:>8.0f} ms")
    print(f"artifacts under {args.out}/")


if __name__ == "__main__":
    main()
