"""Run the benchmark over several seeds and report each metric's median
and quartile spread (distance between the first and third quartile as a
share of the median), next to the bound BENCHMARK.json fixes for it.

    python3 perfbench/spread.py --workloads p1-cold --seeds 1 2 3 4 5
    python3 perfbench/spread.py --seeds 1-10 --out runs.json

Runs are sequential, one benchmark process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(values: list[str]) -> list[int]:
    out = []
    for v in values:
        if "-" in v:
            lo, hi = v.split("-")
            out += list(range(int(lo), int(hi) + 1))
        else:
            out.append(int(v))
    return out


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    ap.add_argument("--seeds", nargs="+", default=["1-10"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write every run's result here")
    args = ap.parse_args(argv)
    seeds = seeds_arg(args.seeds)
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    runs = {}
    worst = 0.0
    for workload in args.workloads:
        results = []
        for seed in seeds:
            res = run_once(spec, workload, seed, args.trace)
            results.append(res)
            print(f"{workload} seed {seed}: correct {res['correct']} "
                  f"attempted {res['attempted']} failed {res['failed']}",
                  file=sys.stderr)
        runs[workload] = results
        print(f"== {workload} ({len(seeds)} seeds, all correct: "
              f"{all(r['correct'] for r in results)})")
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            med, rel = spread(vals)
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                flag = f"bound {bound:g}" + ("  WIDE" if rel > bound / 3
                                             else "")
                worst = max(worst, rel / bound)
            print(f"  {m['name']:<40} median {med:<12.6g} spread "
                  f"{rel:8.4f}  {flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1))
    if not args.trace:
        print(f"largest spread / bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
