"""Built-in scenarios and the command-line surface."""

import json
import os
import sys

import numpy as np
import pytest

from mixedhk import SCENARIOS, batch_run, config_to_text, parse_config_text, run_scenario
from mixedhk.cli import main
from mixedhk.scenarios import Scenario


class TestScenarios:
    def test_registry_complete(self):
        assert set(SCENARIOS) == {"example1", "example2", "example3",
                                  "sync-hk", "async-hk", "powerlaw-a2"}

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario_passes(self, name):
        report = run_scenario(name)
        assert report["passed"], report["assertions"]
        assert all(a["claim"] for a in report["assertions"])

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_config_round_trips(self, name):
        scenario: Scenario = SCENARIOS[name]()
        text = config_to_text(scenario.config)
        back = parse_config_text(text)
        assert np.array_equal(back.initial, scenario.config.initial)
        assert back.schedule.descriptor() == scenario.config.schedule.descriptor()
        assert config_to_text(back) == text

    def test_unknown_scenario(self):
        with pytest.raises(KeyError):
            run_scenario("nope")


@pytest.fixture
def sync_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "n = 4\nd = 2\nepsilon = 0.6\nmax_steps = 50\nseed = 11\n"
        "[schedule]\nkind = synchronous\n"
        "[initial]\nsource = inline\n"
        "row.0 = 0.1, 0.1\nrow.1 = 0.3, 0.2\nrow.2 = 0.9, 0.9\nrow.3 = 0.8, 0.7\n",
        encoding="utf-8",
    )
    return path


def count_calls(monkeypatch, fn) -> list:
    """Patch every binding of ``fn`` in the mixedhk modules with a wrapper
    that counts its calls; returns the one-element counter."""
    count = [0]

    def wrapper(*args, **kwargs):
        count[0] += 1
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is not None and (name == "mixedhk" or name.startswith("mixedhk.")):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, wrapper)
    return count


MAGIC = "# mixed-hk-trajectory v1"
HEADER = ('{"version": 1, "n": 2, "d": 1, "epsilon": 1.0, '
          '"schedule": {"kind": "synchronous"}, "seed": 0}')


def reject_constant(name):
    raise ValueError(f"report is not strict JSON: it contains {name}")


class TestCli:
    def test_simulate_and_check(self, tmp_path, sync_config, capsys):
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--config", str(sync_config), "--out", str(out)]) == 0
        assert out.exists() and out.with_name("traj.meta.json").exists()
        capsys.readouterr()
        code = main(["check", "--trajectory", str(out)])
        captured = capsys.readouterr().out
        assert code == 0
        report = json.loads(captured)
        assert report["ok"] and report["total_violations"] == 0
        assert report["tau_delta"] is not None

    def test_simulate_json_format(self, tmp_path, sync_config, capsys):
        out = tmp_path / "traj.json"
        assert main(["simulate", "--config", str(sync_config), "--out", str(out),
                     "--format", "json"]) == 0
        payload = json.loads(out.read_text())
        assert payload["header"]["n"] == 4
        capsys.readouterr()
        assert main(["check", "--trajectory", str(out)]) == 0

    def test_seed_override_changes_async_run(self, tmp_path, capsys):
        cfg = tmp_path / "async.cfg"
        cfg.write_text(
            "n = 3\nd = 1\nepsilon = 2.0\nmax_steps = 9\nseed = 1\n"
            "[schedule]\nkind = asynchronous\n"
            "[initial]\nsource = inline\nrow.0 = 0.0\nrow.1 = 0.5\nrow.2 = 1.0\n",
            encoding="utf-8",
        )
        out1, out2, out3 = (tmp_path / f"t{i}.csv" for i in range(3))
        main(["simulate", "--config", str(cfg), "--out", str(out1)])
        main(["simulate", "--config", str(cfg), "--out", str(out2)])
        main(["simulate", "--config", str(cfg), "--out", str(out3), "--seed", "2"])
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_bytes() != out3.read_bytes()

    def test_spectral_report(self, tmp_path, sync_config, capsys):
        code = main(["spectral", "--config", str(sync_config), "--alpha", "0,0,0,0"])
        captured = capsys.readouterr().out
        assert code == 0
        report = json.loads(captured)
        assert set(report) >= {"eigenvalues", "lambda2", "cheeger", "verdicts"}
        assert len(report["eigenvalues"]) == 4
        assert report["update_factorization"]["residual"] <= 1e-12

    def test_spectral_from_trajectory_step(self, tmp_path, sync_config, capsys):
        out = tmp_path / "t.csv"
        main(["simulate", "--config", str(sync_config), "--out", str(out)])
        capsys.readouterr()
        code = main(["spectral", "--trajectory", str(out), "--step", "1",
                     "--alpha", "0.2,0.2,0.2,0.2"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(report["eigenvalues"]) == 4
        assert main(["spectral", "--trajectory", str(out), "--step", "999"]) == 2

    def test_spectral_disconnected_chain_skipped(self, tmp_path, capsys):
        cfg = tmp_path / "far.cfg"
        cfg.write_text(
            "n = 2\nd = 1\nepsilon = 1.0\nmax_steps = 5\n"
            "[schedule]\nkind = synchronous\n"
            "[initial]\nsource = inline\nrow.0 = 0.0\nrow.1 = 9.0\n",
            encoding="utf-8",
        )
        code = main(["spectral", "--config", str(cfg)])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert "skipped" in report["lambda2_chain"]

    def test_spectral_analyzes_the_state_once(self, sync_config, capsys, monkeypatch):
        import mixedhk.dynamics
        import mixedhk.profile

        analyses = count_calls(monkeypatch, mixedhk.profile.analyze_state)
        masks = count_calls(monkeypatch, mixedhk.dynamics.neighbor_matrix)
        assert main(["spectral", "--config", str(sync_config), "--alpha", "0,0,0,0"]) == 0
        assert (analyses, masks) == ([1], [0])

    def test_single_agent_spectral_report_is_strict_json(self, tmp_path, capsys):
        # the Cheeger constant of one agent is +inf (a minimum over no subsets)
        cfg = tmp_path / "one.cfg"
        cfg.write_text(
            "n = 1\nd = 1\nepsilon = 1.0\nmax_steps = 5\n"
            "[schedule]\nkind = synchronous\n"
            "[initial]\nsource = inline\nrow.0 = 0.0\n",
            encoding="utf-8",
        )
        assert main(["spectral", "--config", str(cfg)]) == 0
        report = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
        assert report["cheeger"] is None

    @pytest.mark.parametrize("epsilon, states", [
        (1e-310, [[[0.0], [1e-300]], [[0.0], [1e-300]]]),  # epsilon**2 underflows
        (1.0, [[[1e200], [-1e200]], [[1e200], [-1e200]]]),  # squared distances overflow
        (1e154, [[[0.0], [0.45e154], [0.9e154]]] * 2),  # the capped energy overflows
    ])
    def test_check_rejects_states_outside_the_numeric_domain(self, tmp_path, capsys,
                                                             epsilon, states):
        from mixedhk import Trajectory, write_trajectory

        n = len(states[0])
        traj = Trajectory(n=n, d=1, epsilon=epsilon, schedule={"kind": "synchronous"},
                          seed=0, states=[np.array(x) for x in states],
                          alphas=[np.zeros(n)], stop_reason="steady")
        path = tmp_path / "outside.csv"
        write_trajectory(traj, path)
        assert main(["check", "--trajectory", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err

    @pytest.mark.parametrize("text", [
        MAGIC + "\n# header=" + HEADER + "\nt,agent,x_0,alpha\n",  # no states
        '{"header": ' + HEADER + ', "states": [], "alphas": []}',  # no states
        MAGIC + "\n# header=" + HEADER.replace('"n": 2', '"n": 0') + "\nt,agent,x_0,alpha\n",
        MAGIC + '\n# header={"version": 1}\nt,agent,x_0,alpha\n',  # no n or d
        MAGIC + "\n# header=[1,2]\nt,agent,x_0,alpha\n",  # not an object
        '{"header": ' + HEADER.replace("1.0", '"1.0"') + ', "states": [[[0.0], [1.0]]], '
        '"alphas": []}',  # epsilon is a string
        MAGIC + "\n# header=" + HEADER.replace('{"kind": "synchronous"}', "[1]")
        + "\nt,agent,x_0,alpha\n0,0,0.0,\n0,1,1.0,\n",  # schedule is not an object
    ], ids=["header-only-csv", "json-without-states", "n-zero", "no-n-or-d", "header-list",
            "epsilon-string", "schedule-list"])
    def test_check_rejects_malformed_trajectory_files(self, tmp_path, capsys, text):
        path = tmp_path / ("bad.json" if text.startswith("{") else "bad.csv")
        path.write_text(text, encoding="utf-8")
        assert main(["check", "--trajectory", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("value", [1.5, -0.5, float("nan")], ids=["1.5", "-0.5", "nan"])
    def test_check_rejects_stored_stubbornness_outside_the_unit_interval(
            self, tmp_path, capsys, fmt, value):
        from mixedhk import Trajectory, write_trajectory

        traj = Trajectory(n=2, d=1, epsilon=1.0, schedule={"kind": "synchronous"}, seed=0,
                          states=[np.array([[0.0], [0.5]])] * 3,
                          alphas=[np.ones(2), np.array([1.0, value])], stop_reason="steady")
        path = write_trajectory(traj, tmp_path / f"bad.{fmt}", fmt=fmt)
        assert main(["check", "--trajectory", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert str(path) in captured.err and "t=1" in captured.err

    def test_settling_bound_beyond_the_float_range_is_null(self, tmp_path, capsys):
        from mixedhk import Trajectory, write_trajectory

        traj = Trajectory(n=2, d=1, epsilon=1.0, schedule={"kind": "synchronous"}, seed=0,
                          states=[np.array([[0.0], [0.5]]), np.array([[0.25], [0.25]])],
                          alphas=[np.zeros(2)], stop_reason="consensus")
        path = tmp_path / "two.csv"
        write_trajectory(traj, path)
        out = tmp_path / "report.json"
        argv = ["check", "--trajectory", str(path), "--delta", "1e-200"]
        assert main(argv + ["--out", str(out)]) == 0
        report = json.loads(out.read_text(), parse_constant=reject_constant)
        assert report["tau_bound"] is None and report["interaction_bound"] == 2.0**10 / 2.0

    def test_scenario_subcommand(self, capsys):
        assert main(["scenario", "--list"]) == 0
        assert "example1" in capsys.readouterr().out
        assert main(["scenario", "example2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"]

    def test_scenario_unknown_exits_2(self, capsys):
        assert main(["scenario", "bogus"]) == 2

    def test_batch_subcommand(self, tmp_path, sync_config, capsys):
        code = main(["batch", "--config", str(sync_config), "--runs", "5"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["runs"] == 5 and report["ok"]

    def test_check_flags_doctored_trajectory(self, tmp_path, capsys):
        # a fabricated run whose diameter expands must exit 1
        from mixedhk import Trajectory, write_trajectory

        doctored = Trajectory(
            n=2, d=1, epsilon=1.0, schedule={"kind": "synchronous"}, seed=0,
            states=[np.array([[0.0], [0.5]]), np.array([[0.0], [0.9]])],
            alphas=[np.zeros(2)], stop_reason="horizon")
        path = tmp_path / "doctored.csv"
        write_trajectory(doctored, path)
        code = main(["check", "--trajectory", str(path)])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert not report["ok"]
        assert report["violations"]["nonexpansion"] >= 1

    def test_bad_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("epsilon = -1\n", encoding="utf-8")
        assert main(["simulate", "--config", str(bad)]) == 2

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate"])  # missing --config
        assert exc.value.code == 2

    def test_csv_format_report(self, sync_config, tmp_path, capsys):
        out = tmp_path / "t.csv"
        main(["simulate", "--config", str(sync_config), "--out", str(out)])
        capsys.readouterr()
        code = main(["check", "--trajectory", str(out), "--format", "csv"])
        captured = capsys.readouterr().out
        assert code == 0
        assert captured.startswith("key,value")


class TestBatch:
    def test_deterministic_summary(self, sync_config):
        cfg = parse_config_text(sync_config.read_text(), str(sync_config))
        s1 = batch_run(cfg, 6, seed_base=100)
        s2 = batch_run(cfg, 6, seed_base=100)
        s1.pop("per_run"), s2.pop("per_run")
        assert s1 == s2
        assert s1["ok"] and s1["total_violations"] == 0

    def test_single_run_reduces_to_check(self, sync_config):
        cfg = parse_config_text(sync_config.read_text(), str(sync_config))
        summary = batch_run(cfg, 1, seed_base=11)
        assert summary["runs"] == 1
        assert summary["tau_delta"]["found"] in (0, 1)

    def test_async_single_mover_counted(self):
        from mixedhk import ModelConfig, StubbornnessSchedule
        rng = np.random.default_rng(3)
        cfg = ModelConfig(initial=rng.uniform(0, 0.4, size=(5, 2)), epsilon=1.0,
                          schedule=StubbornnessSchedule("asynchronous"),
                          max_steps=30, consensus_tol=1e-300)
        summary = batch_run(cfg, 10, seed_base=0)
        assert summary["single_mover_violations"] == 0
        assert summary["ok"]

    def test_num_runs_validated(self, sync_config):
        cfg = parse_config_text(sync_config.read_text(), str(sync_config))
        with pytest.raises(ValueError):
            batch_run(cfg, 0, seed_base=0)

    def test_hull_flag_adds_check(self, sync_config):
        cfg = parse_config_text(sync_config.read_text(), str(sync_config))
        summary = batch_run(cfg, 2, seed_base=3, hull=True)
        assert summary["ok"]
        assert summary["violations"]["hull"] == 0
