"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the repository root::

    python3 perfbench/spread.py --seeds 1-10 [--out FILE]

For every workload it makes one run per seed with tracing off, then one
traced run, each through run.py in its own process. For each end-to-end
metric it prints the median, the quartiles (``statistics.quantiles(n=4)``)
and their distance as a share of the median, against the metric's bound in
BENCHMARK.json. ``--out`` writes everything, per-layer medians included, as
a JSON result set.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    env = json.loads(lines[0].split(" env=", 1)[1])
    return {"env": env, **json.loads(lines[-1])}


def spread(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="FIRST-LAST")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    first, last = (int(v) for v in args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}

    report = {"run_seconds": SPEC["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in [w["name"] for w in SPEC["workloads"]]:
        runs = [run_once(workload, seed, 0) for seed in seeds]
        entry = {
            "env": runs[0]["env"],
            "all_correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {name: spread([r["metrics"][name]["value"] for r in runs])
                           for name in bounds},
        }
        print(f"{workload}: correct={entry['all_correct']} "
              f"failed={entry['failed']}/{entry['attempted']}", flush=True)
        for name, s in entry["end_to_end"].items():
            flag = ("ok" if s["spread"] < bounds[name] / 3
                    else "within bound" if s["spread"] <= bounds[name] else "OVER BOUND")
            print(f"  {name:<20} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} bound {bounds[name]} {flag}",
                  flush=True)
        traced = run_once(workload, seeds[0], 1)
        entry["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
        entry["per_layer_seed"] = seeds[0]
        report["workloads"][workload] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
