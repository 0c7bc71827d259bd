"""Config parsing/serialization and trajectory persistence round-trips."""

import re
from dataclasses import replace

import numpy as np
import pytest

from mixedhk.config import DEFAULT_MONITORS, MONITOR_FLAGS

from mixedhk import (
    Checker,
    ConfigError,
    IntegrityError,
    ModelConfig,
    StubbornnessSchedule,
    config_to_text,
    parse_config,
    parse_config_text,
    read_initial_csv,
    read_trajectory,
    simulate,
    write_trajectory,
)

MINIMAL = """\
n = 2
d = 1
epsilon = 1.0
max_steps = 10

[schedule]
kind = synchronous

[initial]
source = inline
row.0 = 0.0
row.1 = 0.5
"""


class TestParseConfig:
    def test_minimal_synchronous(self):
        cfg = parse_config_text(MINIMAL)
        assert cfg.n == 2 and cfg.d == 1
        assert cfg.schedule.kind == "synchronous"
        assert cfg.consensus_tol == 1e-12 and cfg.seed == 0

    def test_power_law(self):
        text = MINIMAL.replace("kind = synchronous", "kind = power_law\na = 2")
        cfg = parse_config_text(text)
        assert cfg.schedule.kind == "power_law"
        assert cfg.schedule.exponent == 2.0

    def test_constant_alpha(self):
        text = MINIMAL.replace("kind = synchronous",
                               "kind = constant\nalpha = 0.25, 0.75")
        cfg = parse_config_text(text)
        assert np.array_equal(cfg.schedule.alpha, [0.25, 0.75])

    def test_table_rows(self):
        text = MINIMAL.replace("kind = synchronous",
                               "kind = table\nrow.0 = 0.0, 0.0\nrow.1 = 1.0, 0.5")
        cfg = parse_config_text(text)
        assert len(cfg.schedule.table) == 2

    def test_negative_epsilon_names_constraint_and_line(self):
        text = MINIMAL.replace("epsilon = 1.0", "epsilon = -1")
        with pytest.raises(ConfigError, match=r"3.*epsilon must be positive"):
            parse_config_text(text)

    def test_alpha_out_of_range(self):
        text = MINIMAL.replace("kind = synchronous",
                               "kind = constant\nalpha = 0.5, 1.5")
        with pytest.raises(ConfigError, match="lie in"):
            parse_config_text(text)

    def test_unknown_key_rejected_with_line(self):
        text = MINIMAL + "\nbogus = 1\n"
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text(text)

    def test_missing_required_key(self):
        text = MINIMAL.replace("epsilon = 1.0\n", "")
        with pytest.raises(ConfigError, match="missing required key 'epsilon'"):
            parse_config_text(text)

    def test_duplicate_key(self):
        text = MINIMAL.replace("epsilon = 1.0", "epsilon = 1.0\nepsilon = 2.0")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text(text)

    def test_wrong_row_count(self):
        text = MINIMAL.replace("row.1 = 0.5\n", "")
        with pytest.raises(ConfigError, match="inline rows"):
            parse_config_text(text)

    def test_csv_source(self, tmp_path):
        csv = tmp_path / "init.csv"
        csv.write_text("agent,coord_0,coord_1\n0,0.25,0.5\n1,1.0,2.0\n", encoding="utf-8")
        text = (
            "n = 2\nd = 2\nepsilon = 1.0\nmax_steps = 5\n"
            "[schedule]\nkind = synchronous\n"
            f"[initial]\nsource = csv\npath = {csv}\n"
        )
        cfg = parse_config_text(text)
        assert np.array_equal(cfg.initial, [[0.25, 0.5], [1.0, 2.0]])


# line numbers: n 1, d 2, epsilon 3, max_steps 4, consensus_tol 5, seed 6, [schedule] 7,
# kind 8, alpha 9, [initial] 10, source 11, rows 12-13, [monitors] 14, energy 15
FULL = """\
n = 2
d = 1
epsilon = 1.0
max_steps = 10
consensus_tol = 1e-12
seed = 3
[schedule]
kind = constant
alpha = 0.25, 0.75
[initial]
source = inline
row.0 = 0.0
row.1 = 0.5
[monitors]
energy = true
"""
ALPHA = "kind = constant\nalpha = 0.25, 0.75"

# (find, replace with, the whole message of the ConfigError that FULL then raises);
# a few edits make two faults, and pin which one is reported
CONFIG_ERRORS = [
    ("n = 2", "n = two", "<config>:1: n must be an integer, got 'two'"),
    # values that convert but that the state validator rejects name their key's line
    ("epsilon = 1.0", "epsilon = inf", "<config>:3: epsilon**2 must be a normal float "
     "(so the neighbor predicate compares exactly), got epsilon=inf"),
    ("epsilon = 1.0", "epsilon = 1e-200", "<config>:3: epsilon**2 must be a normal float "
     "(so the neighbor predicate compares exactly), got epsilon=1e-200"),
    ("epsilon = 1.0", "epsilon = 1e154", "<config>:3: epsilon=1e+154 is too large for 2 agents: "
     "n*n*epsilon**2 must be finite, so no capped energy overflows"),
    ("row.1 = 0.5", "row.1 = inf", "<config>:13: opinions must be finite (no NaN/Inf)"),
    ("row.0 = 0.0", "row.0 = nan", "<config>:12: opinions must be finite (no NaN/Inf)"),
    ("row.0 = 0.0", "row.00 = inf", "<config>:12: opinions must be finite (no NaN/Inf)"),
    ("row.0 = 0.0", "row.0 = -1.5e308", "<config>:12: opinions too far apart: their squared "
     "distances overflow (the sum of squared coordinate ranges is not finite)"),
    ("d = 1", "d = 1.0", "<config>:2: d must be an integer, got '1.0'"),
    ("epsilon = 1.0", "epsilon = wide", "<config>:3: epsilon must be a number, got 'wide'"),
    ("epsilon = 1.0", "epsilon = 0", "<config>:3: epsilon must be positive, got 0.0"),
    ("epsilon = 1.0", "epsilon = nan", "<config>:3: epsilon must be positive, got nan"),
    ("epsilon = 1.0\n", "", "<config>: missing required key 'epsilon'"),
    ("n = 2\n", "", "<config>: missing required key 'n'"),
    ("max_steps = 10", "max_steps = 0", "<config>:4: max_steps must be >= 1, got 0"),
    ("max_steps = 10", "max_steps = ten",
     "<config>:4: max_steps must be an integer, got 'ten'"),
    ("consensus_tol = 1e-12", "consensus_tol = -1e-3",
     "<config>:5: consensus_tol must be positive, got -0.001"),
    ("consensus_tol = 1e-12", "consensus_tol = tiny",
     "<config>:5: consensus_tol must be a number, got 'tiny'"),
    ("seed = 3", "seed = 3.5", "<config>:6: seed must be an integer, got '3.5'"),
    ("kind = constant", "kind = random",
     "<config>:8: unknown schedule kind 'random'"),
    ("kind = constant\n", "", "<config>: missing required key 'schedule.kind'"),
    (ALPHA, "kind = constant", "<config>:8: constant schedule requires schedule.alpha"),
    ("alpha = 0.25, 0.75", "alpha = 0.25, x",
     "<config>:9: schedule.alpha must be a comma-separated list of numbers, "
     "got '0.25, x'"),
    ("alpha = 0.25, 0.75", "alpha = 0.25",
     "<config>:9: schedule.alpha has 1 entries, expected n=2"),
    ("alpha = 0.25, 0.75", "alpha = 0.25, 1.5",
     "<config>:9: every stubbornness entry must lie in [0, 1]"),
    ("alpha = 0.25, 0.75", "alpha = 0.25, nan",
     "<config>:9: every stubbornness entry must lie in [0, 1]"),
    ("alpha = 0.25, 0.75", "alpha = 0.5, 0.5, 2",
     "<config>:9: schedule.alpha has 3 entries, expected n=2"),
    (ALPHA, "kind = power_law\na = 1", "<config>:9: schedule.a must be > 1, got 1.0"),
    (ALPHA, "kind = power_law\na = steep", "<config>:9: schedule.a must be a number, got 'steep'"),
    (ALPHA, "kind = power_law", "<config>: missing required key 'schedule.a'"),
    (ALPHA, "kind = table", "<config>:8: table schedule requires schedule.row.<t> entries"),
    (ALPHA, "kind = table\nrow.0 = 0.5",
     "<config>:9: table row has 1 entries, expected n=2"),
    (ALPHA, "kind = table\nrow.0 = 0.5, 0.5\nrow.1 = -0.5, 0.5",
     "<config>:10: every stubbornness entry must lie in [0, 1]"),
    (ALPHA, "kind = table\nrow.1 = 0.5, 0.5\nrow.0 = 0.5",
     "<config>:10: table row has 1 entries, expected n=2"),
    (ALPHA, "kind = table\nrow.0 = 0.5, 0.5\nrow.2 = 0.5",
     "<config>: schedule.row.1 is missing (rows must be contiguous from 0)"),
    (ALPHA, "kind = table\nrow.0 = 0.5, 0.5\nrow.1 = 0.5; 0.5",
     "<config>:10: schedule.row.1 must be a comma-separated list of numbers, "
     "got '0.5; 0.5'"),
    (ALPHA, "kind = asynchronous\nseed = x",
     "<config>:9: schedule.seed must be an integer, got 'x'"),
    (ALPHA, "kind = power_law\na = 2\nseed = 1", "<config>:10: unknown key 'schedule.seed'"),
    ("row.1 = 0.5", "row.1 = 0.5, 0.5",
     "<config>:13: initial row has 2 coordinates, expected d=1"),
    ("row.1 = 0.5", "row.1 = 0.5\nrow.2 = 0.5, 1.0",
     "<config>:11: initial has 3 inline rows, expected n=2"),
    ("row.1 = 0.5", "row.2 = 0.5",
     "<config>: initial.row.1 is missing (rows must be contiguous from 0)"),
    ("row.1 = 0.5", "row.1 = half",
     "<config>:13: initial.row.1 must be a comma-separated list of numbers, got 'half'"),
    ("source = inline", "source = file",
     "<config>:11: initial.source must be 'inline' or 'csv', got 'file'"),
    ("source = inline\n", "", "<config>: missing required key 'initial.source'"),
    ("energy = true", "energy = yes",
     "<config>:15: monitors.energy must be true or false, got 'yes'"),
    ("energy = true", "energy = true\nhull = 1",
     "<config>:16: monitors.hull must be true or false, got '1'"),
    ("energy = true", "sound = true", "<config>:15: unknown key 'monitors.sound'"),
    ("energy = true", "energy = true\nenergy = false",
     "<config>:16: duplicate key 'monitors.energy'"),
    ("[monitors]", "[alarms]", "<config>:14: unknown section [alarms]"),
    ("seed = 3", "seed 3", "<config>:6: expected 'key = value', got 'seed 3'"),
]


class TestConfigErrors:
    @pytest.mark.parametrize("find,new,message", CONFIG_ERRORS)
    def test_message_and_line(self, find, new, message):
        assert find in FULL
        with pytest.raises(ConfigError) as info:
            parse_config_text(FULL.replace(find, new, 1))
        assert str(info.value) == message

    def test_rejected_state_names_the_line_of_n_or_of_the_csv(self, tmp_path):
        no_rows = (FULL.replace("n = 2", "n = 0").replace("row.0 = 0.0\nrow.1 = 0.5\n", "")
                   .replace(ALPHA, "kind = synchronous"))
        with pytest.raises(ConfigError) as info:
            parse_config_text(no_rows)
        assert str(info.value) == "<config>:1: opinions must be a 2-D array, got shape (0,)"
        (tmp_path / "init.csv").write_text("agent,coord_0\n0,0.0\n1,inf\n", encoding="utf-8")
        from_csv = FULL.replace("source = inline\nrow.0 = 0.0\nrow.1 = 0.5",
                                "source = csv\npath = init.csv")
        path = tmp_path / "run.cfg"
        path.write_text(from_csv, encoding="utf-8")
        with pytest.raises(ConfigError) as info:
            parse_config(path)
        assert str(info.value) == f"{path}:12: opinions must be finite (no NaN/Inf)"
        # a CSV of the wrong shape names the initial.path line too
        (tmp_path / "init.csv").write_text("agent,coord_0\n0,0.0\n1,0.5\n2,1.0\n",
                                           encoding="utf-8")
        with pytest.raises(ConfigError) as info:
            parse_config(path)
        assert str(info.value) == f"{path}:12: initial CSV has shape (3, 1), expected (2, 1)"

    def test_full_parses(self):
        cfg = parse_config_text(FULL)
        assert (cfg.n, cfg.d, cfg.max_steps, cfg.seed) == (2, 1, 10, 3)
        assert cfg.monitors == ("energy",)


class TestMonitorFlags:
    def test_every_flag_set_round_trips(self):
        # every subset, the empty one included, comes back as written
        base = parse_config_text(FULL)
        for k in range(2 ** len(MONITOR_FLAGS)):
            flags = tuple(f for b, f in enumerate(MONITOR_FLAGS) if k >> b & 1)
            text = config_to_text(replace(base, monitors=flags))
            assert parse_config_text(text).monitors == flags, text

    def test_all_false_switches_monitoring_off(self):
        off = "\n".join(f"{flag} = false" for flag in MONITOR_FLAGS)
        assert parse_config_text(FULL.replace("energy = true", off)).monitors == ()
        assert parse_config_text(FULL.replace("energy = true", "merge = false")).monitors == ()

    def test_no_flag_keys_mean_the_defaults(self):
        no_flags = FULL.replace("energy = true\n", "")
        assert parse_config_text(no_flags).monitors == DEFAULT_MONITORS
        assert parse_config_text(no_flags.replace("[monitors]\n", "")).monitors == \
            DEFAULT_MONITORS


class TestInitialCsv:
    def test_roundtrip_order_independent(self, tmp_path):
        path = tmp_path / "init.csv"
        path.write_text("agent,coord_0\n1,2.5\n0,-1.25\n", encoding="utf-8")
        assert np.array_equal(read_initial_csv(path), [[-1.25], [2.5]])

    def test_bad_header(self, tmp_path):
        path = tmp_path / "init.csv"
        path.write_text("id,x\n0,1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="header"):
            read_initial_csv(path)

    def test_gap_in_agent_ids(self, tmp_path):
        path = tmp_path / "init.csv"
        path.write_text("agent,coord_0\n0,1.0\n2,2.0\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="cover"):
            read_initial_csv(path)


class TestConfigRoundTrip:
    def test_every_schedule_kind(self):
        rng = np.random.default_rng(2)
        schedules = [
            StubbornnessSchedule("synchronous"),
            StubbornnessSchedule("asynchronous", seed=9),
            StubbornnessSchedule("constant", alpha=rng.uniform(0, 1, 4)),
            StubbornnessSchedule("power_law", exponent=2.5),
            StubbornnessSchedule("table", table=(rng.uniform(0, 1, 4),
                                                 rng.uniform(0, 1, 4))),
        ]
        for sched in schedules:
            cfg = ModelConfig(initial=rng.normal(size=(4, 2)), epsilon=0.7,
                              schedule=sched, max_steps=17,
                              consensus_tol=3e-13, seed=42,
                              monitors=("energy", "hull"))
            back = parse_config_text(config_to_text(cfg))
            assert back.n == cfg.n and back.d == cfg.d
            assert back.epsilon == cfg.epsilon
            assert back.max_steps == cfg.max_steps
            assert back.consensus_tol == cfg.consensus_tol
            assert back.seed == cfg.seed
            assert back.monitors == cfg.monitors
            assert np.array_equal(back.initial, cfg.initial)
            assert back.schedule.descriptor() == sched.descriptor()
            # serialization is a fixpoint
            assert config_to_text(back) == config_to_text(cfg)


class TestTrajectoryPersistence:
    def _run(self, seed=0, kind="constant"):
        rng = np.random.default_rng(31 + seed)
        if kind == "constant":
            sched = StubbornnessSchedule("constant", alpha=rng.uniform(0, 1, 5))
        else:
            sched = StubbornnessSchedule(kind)
        cfg = ModelConfig(initial=rng.normal(size=(5, 2)), epsilon=0.8,
                          schedule=sched, max_steps=20, seed=seed)
        return simulate(cfg)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bitwise_roundtrip(self, tmp_path, fmt):
        traj = self._run()
        path = tmp_path / f"run.{fmt}"
        write_trajectory(traj, path, fmt)
        back = read_trajectory(path)
        assert back.n == traj.n and back.d == traj.d
        assert back.epsilon == traj.epsilon
        assert len(back.states) == len(traj.states)
        for a, b in zip(traj.states, back.states):
            assert a.tobytes() == b.tobytes()
        for a, b in zip(traj.alphas, back.alphas):
            assert a.tobytes() == b.tobytes()
        assert back.events == traj.events
        assert back.stop_reason == traj.stop_reason

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_metrics_read_back_equal_the_run(self, tmp_path, fmt):
        # every subset of the [monitors] flags: the run's step records and
        # the ones read back are the same dicts
        rng = np.random.default_rng(37)
        x, alpha = rng.normal(size=(5, 2)), rng.choice([0.0, 0.4, 0.9], 5)
        for k in range(2 ** len(MONITOR_FLAGS)):
            flags = tuple(f for b, f in enumerate(MONITOR_FLAGS) if k >> b & 1)
            cfg = ModelConfig(initial=x, epsilon=1.2, max_steps=12, monitors=flags,
                              schedule=StubbornnessSchedule("constant", alpha=alpha))
            traj = simulate(cfg)
            back = read_trajectory(write_trajectory(traj, tmp_path / f"m{k}.{fmt}", fmt))
            assert back.metrics == traj.metrics
            # a run checked while it is simulated records the same
            assert simulate(cfg, Checker(cfg.epsilon, hull=k % 2 == 0)).metrics == traj.metrics
            recorded = bool(set(flags) - {"merge"})
            assert (traj.metrics is not None) == recorded
            if recorded:
                assert len(traj.metrics) == traj.steps == 12
                assert all(type(m) is dict for m in traj.metrics)
                assert {type(m["interaction"]) for m in traj.metrics} == (
                    {bool} if "interaction" in flags else {type(None)})
                assert {type(m["hull_ok"]) for m in traj.metrics} == (
                    {bool} if "hull" in flags else {type(None)})

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rewrite_is_byte_identical(self, tmp_path, fmt):
        traj = self._run(seed=3)
        p1 = tmp_path / f"a.{fmt}"
        p2 = tmp_path / f"b.{fmt}"
        write_trajectory(traj, p1, fmt)
        write_trajectory(read_trajectory(p1), p2, fmt)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("sched", [
        StubbornnessSchedule("synchronous"),
        StubbornnessSchedule("asynchronous", seed=5),
        StubbornnessSchedule("constant", alpha=[0.0, 0.3, 0.6, 0.9, 1.0]),
        StubbornnessSchedule("power_law", exponent=2.5),
        StubbornnessSchedule("table", table=([0.1] * 5, [0.2] * 5, [0.7] * 5)),
    ], ids=lambda sched: sched.kind)
    def test_every_schedule_kind_rewrites_byte_for_byte(self, tmp_path, fmt, sched):
        # the CSV's .meta.json sidecar too: its header holds the schedule descriptor
        rng = np.random.default_rng(41)
        cfg = ModelConfig(initial=rng.normal(size=(5, 2)), epsilon=0.8, schedule=sched,
                          max_steps=3, seed=2, monitors=("energy", "merge"))
        first = write_trajectory(simulate(cfg), tmp_path / f"a.{fmt}", fmt)
        again = write_trajectory(read_trajectory(first), tmp_path / f"b.{fmt}", fmt)
        assert first.read_bytes() == again.read_bytes()
        if fmt == "csv":
            meta = tmp_path / "a.meta.json"
            assert meta.read_bytes() == (tmp_path / "b.meta.json").read_bytes()

    def test_identical_configs_identical_files(self, tmp_path):
        t1, t2 = self._run(seed=7, kind="asynchronous"), self._run(seed=7, kind="asynchronous")
        p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        write_trajectory(t1, p1)
        write_trajectory(t2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_corrupted_row_named(self, tmp_path):
        traj = self._run()
        path = tmp_path / "run.csv"
        write_trajectory(traj, path)
        lines = path.read_text().split("\n")
        lines[7] = lines[7].replace(",", ";", 1)
        path.write_text("\n".join(lines))
        with pytest.raises(IntegrityError, match="row 8"):
            read_trajectory(path)

    def test_row_after_a_blank_line_named_by_its_file_line(self, tmp_path):
        # a blank file line 5, then a bad value on file line 8
        path = tmp_path / "blank.csv"
        path.write_text("# mixed-hk-trajectory v1\n"
                        '# header={"version": 1, "n": 2, "d": 1, "epsilon": 1.0, '
                        '"schedule": {"kind": "synchronous"}, "seed": 0}\n'
                        "t,agent,x_0,alpha\n0,0,0.0,0.0\n\n0,1,0.5,0.0\n1,0,0.25,\n"
                        "1,1,oops,\n", encoding="utf-8")
        with pytest.raises(IntegrityError, match=re.escape("row 8: malformed values in "
                                                           "'1,1,oops,'")):
            read_trajectory(path)

    def test_truncated_file(self, tmp_path):
        traj = self._run()
        path = tmp_path / "run.csv"
        write_trajectory(traj, path)
        lines = [ln for ln in path.read_text().split("\n") if ln]
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(IntegrityError, match="truncated"):
            read_trajectory(path)

    def test_version_mismatch(self, tmp_path):
        traj = self._run()
        path = tmp_path / "run.csv"
        write_trajectory(traj, path)
        text = path.read_text().replace("trajectory v1", "trajectory v99").replace(
            '"version": 1', '"version": 99')
        path.write_text(text)
        with pytest.raises(IntegrityError):
            read_trajectory(path)

    def test_empty_trajectory_header_only(self, tmp_path):
        from mixedhk import Trajectory
        empty = Trajectory(n=2, d=1, epsilon=1.0, schedule={"kind": "synchronous"},
                           seed=0, states=[], alphas=[], stop_reason="horizon")
        path = tmp_path / "empty.csv"
        write_trajectory(empty, path)
        back = read_trajectory(path)
        assert back.states == [] and back.alphas == []
