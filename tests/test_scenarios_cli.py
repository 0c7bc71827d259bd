"""Built-in scenarios and the command-line surface."""

import csv
import io
import json
import os
import sys
from dataclasses import replace

import numpy as np
import pytest

from mixedhk import (SCENARIOS, OpinionState, batch_run, build_profile, check_cheeger,
                     check_trajectory, config_to_text, detect_merge_events, parse_config,
                     parse_config_text, read_trajectory, run_scenario, simulate,
                     write_trajectory)
from mixedhk.cli import build_parser, main
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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_checks_hold_on_a_read_back_trajectory(self, tmp_path, fmt):
        # the checks read the run and its check report; a copy written and
        # read back holds the same states and step records and checks to the
        # same report, so every check gives the same verdict, expectation and
        # observation
        for name in SCENARIOS:
            scenario: Scenario = SCENARIOS[name]()
            traj = simulate(scenario.config)
            back = read_trajectory(write_trajectory(traj, tmp_path / f"{name}.{fmt}", fmt))
            assert back.metrics == traj.metrics
            report = check_trajectory(back, hull=False)
            got = [check.fn(back, report) for check in scenario.checks]
            want = [(a["passed"], a["expected"], a["observed"])
                    for a in run_scenario(name)["assertions"]]
            assert [(bool(p), e, o) for p, e, o in got] == want
            assert all(p for p, _, _ in want)

    def test_merge_events_are_the_records_of_reports_and_runs(self):
        # one list of event dicts: detection, the check report and a run's events
        traj = simulate(SCENARIOS["example2"]().config)
        events = detect_merge_events(traj.states)
        assert events == [{"type": "merge", "t": 1, "i": 0, "j": 1, "departed": True}]
        assert check_trajectory(traj, hull=False)["merge_events"] == events
        assert traj.events == events


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


def flat_report(report: dict, prefix: str = "") -> dict:
    """The leaves of a JSON report, keyed by their dotted paths."""
    leaves = {}
    for k, v in report.items():
        key = f"{prefix}.{k}" if prefix else k
        leaves.update(flat_report(v, key) if isinstance(v, dict) else {key: v})
    return leaves


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

    @pytest.mark.parametrize("alpha", ["nan,0,0,0", "-0.5,0,0,0", "inf,0,0,0", "0,1.5,0,0"])
    def test_spectral_rejects_invalid_stubbornness(self, sync_config, capsys, alpha):
        assert main(["spectral", "--config", str(sync_config), f"--alpha={alpha}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: every stubbornness entry must lie in [0, 1]\n"

    def test_spectral_wrong_alpha_length_is_skipped(self, sync_config, capsys):
        assert main(["spectral", "--config", str(sync_config), "--alpha", "0,0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "skipped" in report["update_factorization"]
        assert "skipped" in report["lambda2_chain"]

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

    @pytest.mark.parametrize("name, text, t", [
        ("nan.csv", MAGIC + "\n# header=" + HEADER + "\nt,agent,x_0,alpha\n"
         "0,0,nan,0.0\n0,1,0.5,0.0\n1,0,0.25,\n1,1,0.25,\n", 0),
        ("inf.json", '{"header": ' + HEADER + ', "states": [[[0.0], [0.5]], [[0.25], ["inf"]]], '
         '"alphas": [[0.0, 0.0]]}', 1),
    ], ids=["nan-csv", "inf-json"])
    def test_stored_states_outside_the_numeric_domain_name_the_state(self, tmp_path, capsys,
                                                                     name, text, t):
        from mixedhk import IntegrityError

        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        message = f"state {t}: opinions must be finite (no NaN/Inf)"
        with pytest.raises(IntegrityError) as info:
            check_trajectory(read_trajectory(path))
        assert str(info.value) == message
        for argv in (["check", "--trajectory", str(path)],
                     ["spectral", "--trajectory", str(path), "--step", str(t)]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == f"error: {message}\n"

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

    def test_one_parser_serves_every_call(self, tmp_path, sync_config, capsys):
        traj = str(tmp_path / "t.csv")
        calls = [
            ["simulate", "--config", str(sync_config), "--out", traj],
            ["check", "--trajectory", traj],
            ["spectral", "--trajectory", traj, "--step", "1", "--alpha", "0.2,0.2,0.2,0.2"],
            ["scenario", "--list"],
            ["batch", "--config", str(sync_config), "--runs", "2"],
            ["check", "--trajectory", traj, "--no-hull", "--format", "csv"],
            ["simulate"],
            ["spectral", "--help"],
            ["scenario", "no-such-scenario"],
            ["spectral", "--config", str(sync_config), "--alpha", "0,0,0,0"],
        ]

        def run(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        shared = [run(argv) for argv in calls]
        assert build_parser() is build_parser()
        fresh = []
        for argv in calls:
            build_parser.cache_clear()
            fresh.append(run(argv))
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 0, 0, 0, 0, 0, 2, 0, 2, 0]

    def test_csv_format_report(self, sync_config, tmp_path, capsys):
        out = tmp_path / "t.csv"
        main(["simulate", "--config", str(sync_config), "--out", str(out)])
        capsys.readouterr()
        code = main(["check", "--trajectory", str(out), "--format", "csv"])
        captured = capsys.readouterr().out
        assert code == 0
        assert captured.startswith("key,value")
        # every report: two fields per row, a string as it is, any other value
        # (a list, a number, a boolean, null) as its JSON text
        calls = [["check", "--trajectory", str(out)],
                 ["spectral", "--config", str(sync_config), "--alpha", "0,0,0,0"],
                 ["spectral", "--config", str(sync_config), "--alpha", "0.5,0.5"],
                 ["batch", "--config", str(sync_config), "--runs", "3"],
                 ["scenario", "example2"],
                 ["scenario", "--list"]]
        for argv in calls:
            capsys.readouterr()
            main(argv)
            leaves = flat_report(json.loads(capsys.readouterr().out))
            main(argv + ["--format", "csv"])
            rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
            assert all(len(row) == 2 for row in rows), (argv, rows)
            assert rows[0] == ["key", "value"]
            assert [key for key, _ in rows[1:]] == list(leaves)
            for key, value in rows[1:]:
                want = leaves[key]
                if isinstance(want, list):
                    assert json.loads(value) == want, (argv, key)
                if isinstance(want, str):
                    assert value == want, (argv, key)
                else:
                    assert value == json.dumps(want), (argv, key)
        # the skipped chain's reason holds a comma, so it is quoted
        main(["spectral", "--config", str(sync_config), "--alpha", "0.5,0.5", "--format", "csv"])
        assert ('lambda2_chain.skipped,"alpha has shape (2,), expected (4,)"\n'
                in capsys.readouterr().out)

    @pytest.mark.parametrize("rows", [
        [0.0],  # n = 1
        [0.0, 0.5],  # n = 2
        [0.0, 0.5, 3.0, 3.2, 3.9],  # disconnected
        [0.0, 0.6, 1.2, 1.5, 2.1, 2.2],  # connected
    ])
    def test_check_cheeger_returns_the_printed_report(self, tmp_path, capsys, rows):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"n = {len(rows)}\nd = 1\nepsilon = 1.0\nmax_steps = 5\n"
                       "[schedule]\nkind = synchronous\n[initial]\nsource = inline\n"
                       + "".join(f"row.{i} = {x}\n" for i, x in enumerate(rows)),
                       encoding="utf-8")
        main(["spectral", "--config", str(cfg)])
        printed = json.loads(capsys.readouterr().out)
        del printed["update_factorization"], printed["lambda2_chain"]
        config = parse_config(cfg)
        report = check_cheeger(build_profile(OpinionState(0, config.initial, config.epsilon)))
        assert report == printed
        assert list(report) == list(printed)

    @pytest.mark.parametrize("rows", [
        [0.0],
        [0.0, 0.5, 3.0, 3.2, 3.9],  # disconnected
        [0.0, 0.6, 1.2, 1.5, 2.1, 2.2],  # connected
    ])
    def test_spectral_solves_the_laplacian_and_factorizes_once(self, tmp_path, capsys,
                                                               monkeypatch, rows):
        from mixedhk import spectral
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"n = {len(rows)}\nd = 1\nepsilon = 1.0\nmax_steps = 5\n"
                       "[schedule]\nkind = synchronous\n[initial]\nsource = inline\n"
                       + "".join(f"row.{i} = {x}\n" for i, x in enumerate(rows)),
                       encoding="utf-8")
        config = parse_config(cfg)
        profile = build_profile(OpinionState(0, config.initial, config.epsilon))
        alpha = np.full(len(rows), 0.25)
        # the library route: each check solves and factorizes on its own
        expected = check_cheeger(profile)
        expected["update_factorization"] = {
            "residual": spectral.update_factorization(profile, alpha).residual}
        try:
            expected["lambda2_chain"] = spectral.lambda2_chain_check(profile, alpha)
        except ValueError as exc:
            expected["lambda2_chain"] = {"skipped": str(exc)}
        L = spectral.laplacian(profile)
        solves = []

        def recording(name, fn):
            def wrapper(M, **kwargs):
                solves.append((name, np.array_equal(M, L)))
                return fn(M, **kwargs)
            return wrapper

        for name in ("eigh", "eigvalsh"):
            fn = getattr(spectral, name)
            for module in (spectral, sys.modules["mixedhk.cli"]):
                if getattr(module, name, None) is fn:
                    monkeypatch.setattr(module, name, recording(name, fn))
        factorizations = count_calls(monkeypatch, spectral.update_factorization)
        main(["spectral", "--config", str(cfg), "--alpha", ",".join(["0.25"] * len(rows))])
        printed = json.loads(capsys.readouterr().out)
        assert printed == expected and list(printed) == list(expected)
        assert factorizations[0] == 1
        chain = "skipped" not in expected["lambda2_chain"]
        assert [name for name, of_L in solves if of_L] == (["eigh"] if chain else ["eigvalsh"])


class TestBatch:
    def test_batch_runs_detect_no_merge_events(self, monkeypatch, sync_config):
        from mixedhk import profile
        cfg = parse_config_text(sync_config.read_text(), str(sync_config))
        detections = count_calls(monkeypatch, profile.detect_merge_events)
        summary = batch_run(cfg, 2, seed_base=100)
        assert detections[0] == 0
        report = check_trajectory(simulate(replace(cfg, seed=101, monitors=())), hull=False)
        assert detections[0] == 1
        assert {k: summary["per_run"][1][k] for k in
                ("violations", "tau_delta", "consensus_reached", "final_diameter")} == {
            k: report[k] for k in ("violations", "tau_delta", "consensus_reached",
                                   "final_diameter")}

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

    def test_steps_with_a_second_mover_are_counted_by_bits(self, monkeypatch):
        # doctored runs: agent 0 is 1e-3 off at t = 3, and agent 1's second
        # coordinate, +0.0 throughout, reads -0.0 at t = 5; each is a second
        # mover on both of its steps at these seeds, four steps in all
        import mixedhk.batch
        from mixedhk import ModelConfig, StubbornnessSchedule

        def doctored(config, checker=None):
            traj = simulate(config, checker)
            traj.states = [x.copy() for x in traj.states]
            traj.states[3][0] += 1e-3
            traj.states[5][1, 1] = -0.0
            return traj

        monkeypatch.setattr(mixedhk.batch, "simulate", doctored)
        rng = np.random.default_rng(5)
        initial = np.column_stack([rng.uniform(0.0, 0.4, size=5), np.zeros(5)])
        cfg = ModelConfig(initial=initial, epsilon=1.0,
                          schedule=StubbornnessSchedule("asynchronous"),
                          max_steps=30, consensus_tol=1e-300)
        summary = batch_run(cfg, 4, seed_base=0)
        for run in summary["per_run"]:
            states = doctored(replace(cfg, seed=run["seed"], monitors=())).states
            want = sum(sum(a.tobytes() != b.tobytes() for a, b in zip(x, y)) > 1
                       for x, y in zip(states, states[1:]))
            assert run["single_mover_violations"] == want == 4

    def test_num_runs_validated(self, sync_config):
        cfg = parse_config_text(sync_config.read_text(), str(sync_config))
        with pytest.raises(ValueError):
            batch_run(cfg, 0, seed_base=0)

    def test_hull_flag_adds_check(self, sync_config):
        cfg = parse_config_text(sync_config.read_text(), str(sync_config))
        summary = batch_run(cfg, 2, seed_base=3, hull=True)
        assert summary["ok"]
        assert summary["violations"]["hull"] == 0
