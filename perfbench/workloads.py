"""The benchmark's workloads: inputs made from a seed, one operation each,
and the fingerprint that pins the operation's output.

Each workload is a closed loop: one client, one operation after another, in
one single-threaded process. A seed selects one of ``POOL`` input sets, every
one of which has its fingerprints pinned in ``expected.json``, so every run
checks its outputs against the seed commit. Input set 7 holds the inputs on
which the two known defects described in METRICS.md were first reported.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field, replace
from importlib import import_module
from pathlib import Path
from time import perf_counter

import numpy as np

from mixedhk.dynamics import ModelConfig, StubbornnessSchedule

# Layer calls go through module attributes, so a tracer's patches apply. The
# modules are looked up by name because the package attribute
# ``mixedhk.simulate`` is the re-exported function, not the module.
batch, cli, config, simulate, trajio = (
    import_module(f"mixedhk.{name}") for name in ("batch", "cli", "config", "simulate", "trajio"))

POOL = 32
EPSILON = 1.0


def input_set(seed: int) -> int:
    return seed % POOL


def _json_default(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"cannot serialise {type(obj).__name__}")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_json_default)


def sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def file_digest(path: Path) -> str:
    """sha256 of a trajectory file and its ``.meta.json`` sidecar."""
    return sha256(path.read_bytes(), trajio._sidecar(path).read_bytes())


def trajectory_digest(traj) -> str:
    """sha256 of every state and stubbornness vector, in order, plus the stop."""
    return sha256(*(x.tobytes() for x in traj.states), *(a.tobytes() for a in traj.alphas),
                  traj.stop_reason.encode())


@dataclass
class Outcome:
    """What one operation produced, plus the counts its rates are made of."""

    value: object
    compute_s: float  # seconds in the workload's main call
    agent_steps: int  # n times steps processed by that call
    states: int  # opinion states the operation processed
    parts: dict = field(default_factory=dict)  # other timed parts, seconds
    report_bytes: int = 0  # bytes the CLI printed


def _run_cli(argv: list) -> tuple[int, str, float]:
    buf = io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue(), perf_counter() - t0


class Workload:
    """Base: a seeded input set, a set-up step and a repeatable operation."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.input_set = input_set(seed)
        self.workdir = workdir

    def _parsed_config(self, cfg: ModelConfig, monitors_off: bool) -> ModelConfig:
        """Write ``cfg`` in the config format and parse it back.

        The format cannot switch every monitor off (an empty [monitors]
        section means the defaults), so those workloads clear them after
        parsing.
        """
        path = self.workdir / "run.cfg"
        path.write_text(config.config_to_text(cfg), encoding="utf-8")
        parsed = config.parse_config(path)
        return replace(parsed, monitors=()) if monitors_off else parsed

    def keys(self) -> list:
        """Operation keys; a run cycles through them and covers each once."""
        return ["op"]

    def setup(self) -> dict:
        """Build the inputs; returns fingerprints of what set-up produced."""
        raise NotImplementedError

    def run(self, key) -> Outcome:
        raise NotImplementedError

    def verify(self, key, outcome: Outcome) -> tuple[dict, list]:
        """Fingerprint of an outcome, and the problems an invariant check found."""
        raise NotImplementedError

    def summary(self, key, outcome: Outcome) -> dict:
        """Readable facts about an outcome, pinned beside its fingerprint."""
        return {}


class _ConstantSchedule(Workload):
    """Uniform start in [0, BOX]^D, constant stubbornness drawn from ALPHAS,
    monitors off."""

    N = D = STEPS = 0
    BOX = 0.0
    ALPHAS = ()

    def _constant_config(self) -> ModelConfig:
        rng = np.random.default_rng(self.input_set)
        x = rng.uniform(0.0, self.BOX, (self.N, self.D))
        alpha = rng.choice(self.ALPHAS, self.N)
        cfg = ModelConfig(x, EPSILON, StubbornnessSchedule("constant", alpha=alpha),
                          self.STEPS, seed=self.input_set, monitors=())
        return self._parsed_config(cfg, monitors_off=True)


class SimLarge(_ConstantSchedule):
    name = "sim-large"
    N, D, BOX, STEPS = 1000, 2, 10.0, 4
    ALPHAS = (0.0, 0.25, 0.5, 0.9, 1.0)

    def setup(self) -> dict:
        self.config = self._constant_config()
        return {}

    def run(self, key) -> Outcome:
        path = self.workdir / "sim.csv"
        t0 = perf_counter()
        traj = simulate.simulate(self.config)
        t1 = perf_counter()
        trajio.write_trajectory(traj, path)
        t2 = perf_counter()
        reloaded = trajio.read_trajectory(path)
        t3 = perf_counter()
        return Outcome((traj, reloaded, path), t1 - t0, traj.n * traj.steps, len(traj.states),
                       {"write_s": t2 - t1, "read_s": t3 - t2})

    def verify(self, key, outcome):
        traj, reloaded, path = outcome.value
        problems = []
        if trajectory_digest(reloaded) != trajectory_digest(traj):
            problems.append("reloaded trajectory differs from the simulated one")
        if reloaded.header() != traj.header():
            problems.append("reloaded header differs")
        return {"trajectory": trajectory_digest(traj), "csv": file_digest(path)}, problems

    def summary(self, key, outcome):
        traj = outcome.value[0]
        return {"steps": traj.steps, "stop_reason": traj.stop_reason}


class _StoredTrajectory(_ConstantSchedule):
    """Set-up simulates the config and stores the trajectory as CSV."""

    def setup(self) -> dict:
        self.config = self._constant_config()
        t0 = perf_counter()
        self.traj = simulate.simulate(self.config)
        self.simulate_s = perf_counter() - t0
        self.path = self.workdir / "stored.csv"
        trajio.write_trajectory(self.traj, self.path)
        return {"stored_csv": file_digest(self.path)}

    def _verify_report(self, outcome):
        rc, text = outcome.value
        try:
            report = json.loads(text)
        except ValueError:
            return {"rc": rc, "report": None}, ["report is not JSON"]
        return {"rc": rc, "report": sha256(canonical_json(report).encode())}, []


class CheckStored(_StoredTrajectory):
    name = "check-stored"
    N, D, BOX, STEPS = 120, 2, 8.8, 40
    ALPHAS = (0.0, 0.3, 0.6)

    def run(self, key) -> Outcome:
        rc, text, wall = _run_cli(["check", "--trajectory", str(self.path)])
        return Outcome((rc, text), wall, self.traj.n * self.traj.steps, len(self.traj.states),
                       report_bytes=len(text.encode()))

    def verify(self, key, outcome):
        fp, problems = self._verify_report(outcome)
        if not problems:
            ok = json.loads(outcome.value[1])["ok"]
            if outcome.value[0] != (0 if ok else 1):
                problems.append(f"exit code {outcome.value[0]} disagrees with ok={ok}")
        return fp, problems

    def summary(self, key, outcome):
        report = json.loads(outcome.value[1])
        return {"rc": outcome.value[0], "violations": report["violations"],
                "merge_events": len(report["merge_events"])}


class SpectralSmall(_StoredTrajectory):
    name = "spectral-small"
    N, D, BOX, STEPS = 16, 2, 1.4, 30
    ALPHAS = (0.0, 0.3, 0.6)

    def keys(self) -> list:
        return list(range(len(self.traj.states)))

    def run(self, key) -> Outcome:
        alpha = ",".join(repr(float(a)) for a in self.config.schedule.alpha)
        rc, text, wall = _run_cli(["spectral", "--trajectory", str(self.path),
                                   "--step", str(key), "--alpha", alpha])
        return Outcome((rc, text), wall, self.traj.n, 1, report_bytes=len(text.encode()))

    def verify(self, key, outcome):
        return self._verify_report(outcome)

    def summary(self, key, outcome):
        report = json.loads(outcome.value[1])
        return {"rc": outcome.value[0], "lambda2": report["lambda2"],
                "chain": "skipped" not in report["lambda2_chain"]}


class BatchAsync(Workload):
    name = "batch-async"
    N, D, BOX, STEPS = 30, 1, 6.0, 400
    SEEDS = (101, 102, 103, 104)

    def setup(self) -> dict:
        rng = np.random.default_rng(self.input_set)
        x = rng.uniform(0.0, self.BOX, (self.N, self.D))
        cfg = ModelConfig(x, EPSILON, StubbornnessSchedule("asynchronous"), self.STEPS,
                          seed=self.input_set)
        self.config = self._parsed_config(cfg, monitors_off=False)
        return {}

    def keys(self) -> list:
        # One call per seed, so a run yields several timings; every run
        # covers all four seeds.
        return list(self.SEEDS)

    def run(self, key) -> Outcome:
        t0 = perf_counter()
        summary = batch.batch_run(self.config, 1, key)
        wall = perf_counter() - t0
        steps = sum(r["steps"] for r in summary["per_run"])
        return Outcome(summary, wall, self.N * steps, steps + summary["runs"])

    def verify(self, key, outcome):
        summary = outcome.value
        problems = []
        if sum(summary["stop_reasons"].values()) != summary["runs"]:
            problems.append("stop reasons do not add up to the run count")
        return {"ok": summary["ok"], "report": sha256(canonical_json(summary).encode())}, problems

    def summary(self, key, outcome):
        return {"per_run": [{k: r[k] for k in ("seed", "steps", "stop_reason")}
                            for r in outcome.value["per_run"]]}


WORKLOADS = {w.name: w for w in (SimLarge, CheckStored, BatchAsync, SpectralSmall)}
