"""Run one workload in this process and print its metrics.

Started by run.py in a fresh child process with single-threaded BLAS. With
``--trace 0`` it times set-up and operations with no wrappers installed and
prints the end-to-end metrics; with ``--trace 1`` it runs each operation
twice, untraced then traced, and prints the per-layer metrics. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = Path(".bench_work")
SETUP_REPS = 7

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# Metric name -> unit, in the order BENCHMARK.json lists them.
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# Percentiles tried for a tail figure, highest first; the first one with at
# least TAIL_BEYOND samples above it is reported.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10


def tail(samples: list):
    """(percentile, value, samples beyond it) by nearest rank, or None."""
    xs = sorted(samples)
    for p in TAIL_PERCENTILES:
        k = max(math.ceil(p / 100.0 * len(xs)) - 1, 0)
        if len(xs) - 1 - k >= TAIL_BEYOND:
            return p, xs[k], len(xs) - 1 - k
    return None


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mixedhk").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
        "input_set": workloads.input_set(seed),
    }


def load_expected(workload: str, seed: int):
    pinned = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    return pinned["workloads"].get(workload, {}).get(str(workloads.input_set(seed)))


class Run:
    """One benchmark run: set-up, the operation loop, and failure accounting."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.wl = workloads.WORKLOADS[name](seed, workdir)
        self.expected = load_expected(name, seed)
        self.problems: list[str] = []
        if self.expected is None:
            self.problems.append("no pinned fingerprints for this input set")
        self.attempted = 0
        self.failed = 0
        self.seen: dict = {}
        self.simulate_s: list[float] = []  # simulate calls of untraced set-ups

    def setup(self, tracer=None) -> float:
        """Set up once, traced if a tracer is given; returns the wall time."""
        if tracer is not None:
            tracer.op = "setup"
            tracer.install()
        t0 = perf_counter()
        try:
            produced = self.wl.setup()
        finally:
            if tracer is not None:
                tracer.uninstall()
        wall = perf_counter() - t0
        if tracer is None and hasattr(self.wl, "simulate_s"):
            self.simulate_s.append(self.wl.simulate_s)
        if self.expected is not None and produced != self.expected["setup"]:
            self.problems.append(f"set-up fingerprint mismatch: {produced}")
        return wall

    def operation(self, key):
        """Run and check one operation; returns (wall seconds, outcome or None)."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            outcome = self.wl.run(key)
        except Exception:
            wall = perf_counter() - t0
            self._fail(f"op {key!r} raised:\n{traceback.format_exc()}")
            return wall, None
        wall = perf_counter() - t0
        try:
            fingerprint, problems = self.wl.verify(key, outcome)
        except Exception:
            self._fail(f"op {key!r} output could not be checked:\n{traceback.format_exc()}")
            return wall, None
        finally:
            # Keep only the counts, so that memory does not grow with the
            # number of operations a run finishes.
            outcome.value = None
        pinned = self.expected["ops"].get(str(key)) if self.expected else None
        if fingerprint != pinned:
            problems.append(f"fingerprint {fingerprint} != pinned {pinned}")
        if self.seen.setdefault(key, fingerprint) != fingerprint:
            problems.append("fingerprint differs from an earlier run of the same operation")
        if problems:
            self._fail(f"op {key!r}: " + "; ".join(problems))
        return wall, outcome

    def _fail(self, message: str):
        self.failed += 1
        sys.stderr.write(f"FAILED {message}\n")


def measure(run: Run, seconds: float) -> tuple[list, list]:
    """Closed loop: run operations until ``seconds`` have passed and every key
    has run once. Set-ups are spread evenly over the run, so that set-up time
    and operation time sample the same stretch of machine load.

    Returns the set-up times and (key, wall, outcome) records.
    """
    setups = [run.setup()]
    keys = run.wl.keys()
    records = []
    start = perf_counter()
    i = 0
    while i < len(keys) or perf_counter() - start < seconds:
        if len(setups) < SETUP_REPS and perf_counter() - start >= len(setups) * seconds / SETUP_REPS:
            setups.append(run.setup())
        key = keys[i % len(keys)]
        wall, outcome = run.operation(key)
        records.append((key, wall, outcome))
        i += 1
    while len(setups) < SETUP_REPS:
        setups.append(run.setup())
    return setups, records


def measure_traced(run: Run, tracer, seconds: float) -> list:
    """Like measure, but each operation runs twice, untraced and traced, in
    alternating order so that warm-up does not bias the overhead ratio.

    Returns (key, untraced wall, traced wall, traced outcome, op id) records.
    """
    keys = run.wl.keys()
    records = []
    start = perf_counter()
    i = 0
    while i < len(keys) or perf_counter() - start < seconds:
        key = keys[i % len(keys)]
        if i % 2 == 0:
            plain, _ = run.operation(key)
        tracer.op = i
        tracer.install()
        try:
            traced, outcome = run.operation(key)
        finally:
            tracer.uninstall()
        if i % 2 == 1:
            plain, _ = run.operation(key)
        records.append((key, plain, traced, outcome, i))
        i += 1
    return records


def faster_half_median(values: list) -> float:
    """Median of the larger half of ``values`` (its upper quartile)."""
    ranked = sorted(values, reverse=True)
    return statistics.median(ranked[:(len(ranked) + 1) // 2])


def end_to_end(run: Run, setup_times: list, records: list) -> tuple[dict, list]:
    """Contract metrics, and the report lines that name them per workload.

    On a shared 2-vCPU VM, other tenants slowed a fixed kernel by up to 1.6x
    in phases lasting seconds, so a run's median moves with them. Contention
    only ever adds time, so the contract throughput takes, for each operation
    key, the median of its faster half of operations, and then the median
    over keys. The report lines keep the plain medians.
    """
    good = [(key, o) for key, _, o in records if o is not None]
    rates: dict = {}
    for key, o in good:
        rates.setdefault(key, []).append(o.agent_steps / o.compute_s)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "agent_steps_per_s": (statistics.median(faster_half_median(r) for r in rates.values())
                              if rates else 0.0),
    }
    lines = [("error_rate", run.failed / run.attempted,
              f"failed/attempted ({run.failed}/{run.attempted})")]
    if good:
        lines += workload_lines(run.wl.name, [o for _, o in good])
    return metrics, lines


def workload_lines(name: str, good: list) -> list:
    """The per-workload figures, under their workload-specific names."""
    n = len(good)
    rate = statistics.median(o.agent_steps / o.compute_s for o in good)
    if name == "sim-large":
        return [
            ("sim_agent_steps_per_s", rate, f"n*T/s of simulate (median of {n})"),
            ("traj_write_s_p50", statistics.median(o.parts["write_s"] for o in good),
             f"s (median of {n})"),
            ("traj_read_s_p50", statistics.median(o.parts["read_s"] for o in good),
             f"s (median of {n})"),
        ]
    if name == "check-stored":
        return [("check_agent_steps_per_s", rate, f"n*T/s of check (median of {n})")]
    if name == "batch-async":
        # Each operation is one batch_run call with one run.
        return [
            ("batch_runs_per_s", n / sum(o.compute_s for o in good), f"runs/s ({n} runs)"),
            ("batch_agent_steps_per_s", rate, f"n*steps/s (median of {n} calls)"),
        ]
    calls = [o.compute_s for o in good]
    lines = [("spectral_s_p50", statistics.median(calls), f"s (median of {n})")]
    t = tail(calls)
    if t is None:
        lines.append(("spectral_s_tail", float("nan"), f"s (fewer than {TAIL_BEYOND + 1} samples)"))
    else:
        p, value, beyond = t
        lines.append(("spectral_s_tail", value, f"s (p{p:g} of {n} samples, {beyond} beyond)"))
    return lines


def per_layer(run: Run, tracer, records: list, simulate_s: list) -> dict:
    """Per-layer metrics from the traced operations, per operation."""
    ops = {op for *_, op in records}
    n_ops = len(ops)
    totals = tracing.layer_totals(tracer.spans, ops)
    setup_totals = tracing.layer_totals(tracer.spans, {"setup"})
    counts: dict = {}
    for op in ops:
        for key, value in tracer.counts.get(op, {}).items():
            counts[key] = counts.get(key, 0) + value
    outcomes = [o for _, _, _, o, _ in records if o is not None]
    states = sum(o.states for o in outcomes)
    plain = [p for _, p, _, _, _ in records]
    traced = [t for _, _, t, _, _ in records]
    unaccounted = [t - tracing.root_time(tracer.spans, op) for _, _, t, _, op in records]

    out = {}
    for name in PER_LAYER:
        base, _, field = name.rpartition(".")
        if name.startswith("config."):
            out[name] = setup_totals[base]["self_s"] if base in setup_totals else 0.0
        elif field in ("calls", "self_s"):
            out[name] = totals[base][field] / n_ops if base in totals else 0.0
        else:
            out[name] = counts.get(name, 0) / n_ops
    out["profile.build_profile.calls_per_state"] = (
        totals["profile.build_profile"]["calls"] / states if states else 0.0)
    runs = counts.get("batch.runs", 0)
    out["batch.stop_steady_share"] = counts.get("batch.steady_runs", 0) / runs if runs else 0.0
    out["cli.report_bytes"] = sum(o.report_bytes for o in outcomes) / n_ops
    out["monitors.check_over_simulate_x"] = (
        statistics.median(plain) / statistics.median(simulate_s) if simulate_s else 0.0)
    out["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    out["trace.unaccounted_s"] = statistics.median(unaccounted)
    return out


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"tmp-{os.getpid()}"
    workdir.mkdir()
    try:
        run = Run(workload, seed, workdir)
        result = {"env": environment(seed), "workload": workload, "trace": int(trace)}
        if not trace:
            setup_times, records = measure(run, seconds)
            metrics, lines = end_to_end(run, setup_times, records)
            result["setup_walls"] = setup_times
            result["op_walls"] = [w for _, w, _ in records]
        else:
            tracer = tracing.Tracer()
            run.setup(tracer)
            for _ in range(SETUP_REPS - 1):
                run.setup()
            records = measure_traced(run, tracer, seconds)
            # Check cost over the bare simulate that produced the checked trajectory.
            simulate_s = run.simulate_s if workload == "check-stored" else []
            metrics = per_layer(run, tracer, records, simulate_s)
            lines = []
            tracer.write(WORK / "traces" / f"{workload}-seed{seed}.jsonl.gz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = PER_LAYER if trace else END_TO_END
    result.update(
        correct=not run.problems and run.failed == 0,
        attempted=run.attempted,
        failed=run.failed,
        problems=run.problems,
        lines=lines,
        metrics={name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    )
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"# {args.workload} seed={args.seed} trace={args.trace} env={json.dumps(result['env'])}")
    for problem in result["problems"]:
        print(f"# problem: {problem}")
    for name, value, unit in result["lines"]:
        print(f"{name:<26} {value:>16.6g} {unit}")
    for name, entry in result["metrics"].items():
        print(f"{name:<44} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
