"""Tests of the benchmark itself.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import harness
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def _span(name, start, end, parent, op=0):
    return [name, start, end, parent, op]


def test_self_time_on_nested_span_tree():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.inner", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
        _span("b.x", 5.5, 6.0, 3),
        _span("b.y", 7.0, 8.5, 3),
        _span("other-op", 0.0, 1.0, -1, op=1),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.0, 0.5, 1.5, 1.0])
    totals = tracing.layer_totals(spans, {0})
    assert totals["root"] == {"calls": 1, "self_s": pytest.approx(3.0)}
    assert "other-op" not in totals
    assert tracing.root_time(spans, 0) == 10.0


def test_self_time_clips_overlapping_children():
    spans = [_span("p", 0.0, 4.0, -1), _span("c1", 1.0, 3.0, 0), _span("c2", 2.0, 5.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_tracer_patches_every_binding_and_restores():
    import mixedhk
    import mixedhk.dynamics as dynamics

    simulate_mod = sys.modules["mixedhk.simulate"]
    profile_mod = sys.modules["mixedhk.profile"]
    original_step = dynamics.step
    original_equal = profile_mod.opinions_equal
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert simulate_mod.step is dynamics.step is not original_step
        assert profile_mod.squared_distances is dynamics.squared_distances
        assert profile_mod.opinions_equal is original_equal
        x = np.array([[0.0], [0.5], [3.0]])
        tracer.op = 0
        dynamics.step(dynamics.OpinionState(0, x, 1.0), np.zeros(3))
    finally:
        tracer.uninstall()
    assert simulate_mod.step is original_step is mixedhk.step
    names = [s[0] for s in tracer.spans]
    assert names[0] == "dynamics.step"
    assert {"dynamics.neighbor_matrix", "dynamics.squared_distances",
            "dynamics.neighbor_means"} <= set(names[1:])
    assert tracer.counts[0]["dynamics.pairs_evaluated"] == 9


def test_faster_half_median():
    assert harness.faster_half_median([5.0]) == 5.0
    assert harness.faster_half_median([1.0, 9.0]) == 9.0
    assert harness.faster_half_median([3.0, 1.0, 4.0, 2.0, 5.0]) == 4.0


def test_tail_needs_ten_samples_beyond():
    assert harness.tail(list(range(10))) is None
    p, value, beyond = harness.tail([float(v) for v in range(1, 201)])
    assert (p, value, beyond) == (95.0, 190.0, 10)


def test_one_flipped_bit_in_a_state_is_a_failed_operation(tmp_path, monkeypatch):
    run = harness.Run("sim-large", 7, tmp_path)
    run.wl.setup()
    run.operation("op")
    assert (run.attempted, run.failed) == (1, 0)

    real = workloads.simulate.simulate

    def flipped(config):
        traj = real(config)
        bits = traj.states[3].view(np.uint64)
        bits[17, 1] ^= np.uint64(1)
        return traj

    monkeypatch.setattr(workloads.simulate, "simulate", flipped)
    run.operation("op")
    assert (run.attempted, run.failed) == (2, 1)


def test_pinned_fingerprints_keep_the_known_defects():
    pinned = json.loads((ROOT / "perfbench" / "expected.json").read_text(encoding="utf-8"))
    assert set(pinned["workloads"]) == set(workloads.WORKLOADS)
    for entries in pinned["workloads"].values():
        assert sorted(map(int, entries)) == list(range(workloads.POOL))
    # False-positive hull violations on near-collinear clusters: check exits 1.
    check = pinned["workloads"]["check-stored"]["7"]
    assert check["ops"]["op"]["rc"] == 1
    assert check["summary"]["op"]["violations"]["hull"] == 5
    assert check["summary"]["op"]["merge_events"] == 151
    # An isolated chosen agent leaves the state unchanged: "steady" at t=178.
    batch = pinned["workloads"]["batch-async"]["7"]["summary"]["101"]["per_run"]
    assert batch == [{"seed": 101, "steps": 178, "stop_reason": "steady"}]


@pytest.mark.parametrize("trace", [False, True])
def test_a_run_emits_every_metric(tmp_path, monkeypatch, trace):
    monkeypatch.chdir(tmp_path)
    result = harness.bench("spectral-small", 3, 0.1, trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 31
    key = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in SPEC[key]]
    assert all(NAME_RE.fullmatch(name) for name in result["metrics"])
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
