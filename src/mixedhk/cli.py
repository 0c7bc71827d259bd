"""Command-line interface.

Subcommands: simulate, check, spectral, scenario, batch. Exit codes: 0 on
success, 1 when an assertion or monitor check failed, 2 on usage or
configuration errors.

With ``--format csv`` a report prints as key,value rows, one per leaf: a
string as it is, any other value as its JSON text (``true``, ``null``, a
list), so every value has one spelling and numbers keep their JSON bytes.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .batch import batch_run
from .config import parse_config
from .dynamics import OpinionState, _check_alpha
from .errors import MixedHKError
from .monitors import check_trajectory
from .profile import build_profile
from .scenarios import SCENARIOS, run_scenario
from .simulate import simulate
from .spectral import check_cheeger, lambda2_chain_check, update_factorization
from .trajio import read_trajectory, write_trajectory


def _add_common(parser):
    parser.add_argument("--seed", type=int, default=None,
                        help="override the run seed")
    parser.add_argument("--out", type=Path, default=None,
                        help="output file path")
    parser.add_argument("--format", choices=("csv", "json"), default=None,
                        help="output format (default: csv for trajectories, json for reports)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="mixed-hk",
        description="Simulate mixed stubborn-averaging opinion dynamics and "
                    "verify its convergence guarantees numerically.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one configuration to a trajectory file")
    p.add_argument("--config", type=Path, required=True)
    _add_common(p)

    p = sub.add_parser("check", help="recompute all monitors over a stored trajectory")
    p.add_argument("--trajectory", type=Path, required=True)
    p.add_argument("--delta", type=float, default=None,
                   help="settling threshold (default epsilon/4)")
    p.add_argument("--no-hull", action="store_true",
                   help="skip the hull-containment check")
    _add_common(p)

    p = sub.add_parser("spectral", help="emit the spectral report for one profile")
    p.add_argument("--config", type=Path)
    p.add_argument("--trajectory", type=Path)
    p.add_argument("--step", type=int, default=0,
                   help="which recorded time to analyze (with --trajectory)")
    p.add_argument("--alpha", type=str, default=None,
                   help="comma-separated stubbornness vector for the operator checks")
    _add_common(p)

    p = sub.add_parser("scenario", help="run a built-in scenario's assertions")
    p.add_argument("name", nargs="?", help="scenario name")
    p.add_argument("--list", action="store_true", help="list built-in scenarios")
    _add_common(p)

    p = sub.add_parser("batch", help="run seeded independent simulations and aggregate")
    p.add_argument("--config", type=Path, required=True)
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--hull", action="store_true",
                   help="include the hull-containment check in every run")
    _add_common(p)

    return parser


def _emit(report: dict, out, fmt):
    """Write a report as JSON (default) or as the key,value CSV rows of the
    module docstring, a field quoted where it holds a comma or a quote."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("key", "value"))

        def flatten(prefix, obj):
            if isinstance(obj, dict):
                for k, v in obj.items():
                    flatten(f"{prefix}.{k}" if prefix else str(k), v)
            else:
                writer.writerow((prefix, obj if isinstance(obj, str)
                                 else json.dumps(obj, default=str, allow_nan=False)))

        flatten("", report)
        text = buf.getvalue()
    else:
        text = json.dumps(report, indent=1, default=str, allow_nan=False) + "\n"
    if out is not None:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_simulate(args) -> int:
    config = parse_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    traj = simulate(config)
    fmt = args.format or "csv"
    out = args.out or Path(f"trajectory.{fmt}")
    write_trajectory(traj, out, fmt)
    sys.stdout.write(json.dumps({
        "out": str(out), "steps": traj.steps, "stop_reason": traj.stop_reason,
    }) + "\n")
    return 0


def _cmd_check(args) -> int:
    traj = read_trajectory(args.trajectory)
    report = check_trajectory(traj, args.delta, hull=not args.no_hull)
    compact = {k: v for k, v in report.items() if k != "per_step"}
    _emit(report if args.out else compact, args.out, args.format)
    if args.out:
        sys.stdout.write(json.dumps({"ok": report["ok"], "out": str(args.out)}) + "\n")
    return 0 if report["ok"] else 1


def _cmd_spectral(args) -> int:
    if (args.config is None) == (args.trajectory is None):
        raise MixedHKError("spectral needs exactly one of --config or --trajectory")
    if args.config is not None:
        config = parse_config(args.config)
        state = OpinionState(0, config.initial, config.epsilon)
    else:
        traj = read_trajectory(args.trajectory)
        if not (0 <= args.step < len(traj.states)):
            raise MixedHKError(f"--step {args.step} outside recorded range "
                               f"0..{len(traj.states) - 1}")
        state = traj.state_at(args.step)
    profile = build_profile(state)
    report = check_cheeger(profile)
    if args.alpha is not None:
        alpha = np.array([float(v) for v in args.alpha.split(",")])
        _check_alpha(alpha)  # a wrong length is reported as skipped below
    else:
        alpha = np.zeros(profile.n)
    try:
        fact = update_factorization(profile, alpha)
        report["update_factorization"] = {"residual": fact.residual}
    except (MixedHKError, ValueError) as exc:
        report["update_factorization"] = {"skipped": str(exc)}
    try:
        report["lambda2_chain"] = lambda2_chain_check(
            profile, alpha, seed=args.seed if args.seed is not None else 0)
    except (MixedHKError, ValueError) as exc:
        report["lambda2_chain"] = {"skipped": str(exc)}
    _emit(report, args.out, args.format)
    verdicts_ok = all(report["verdicts"].values())
    chain = report["lambda2_chain"]
    if "skipped" not in chain:
        verdicts_ok &= all(bool(chain[k]) for k in
                           ("zero_simple", "chain_bound", "perron_frobenius", "variational"))
    return 0 if verdicts_ok else 1


def _cmd_scenario(args) -> int:
    if args.list or args.name is None:
        _emit({"scenarios": sorted(SCENARIOS)}, args.out, args.format)
        return 0
    if args.name not in SCENARIOS:
        raise MixedHKError(f"unknown scenario {args.name!r}; known: {sorted(SCENARIOS)}")
    report = run_scenario(args.name)
    _emit(report, args.out, args.format)
    return 0 if report["passed"] else 1


def _cmd_batch(args) -> int:
    config = parse_config(args.config)
    seed_base = args.seed if args.seed is not None else config.seed
    summary = batch_run(config, args.runs, seed_base, args.delta, hull=args.hull)
    compact = {k: v for k, v in summary.items() if k != "per_run"}
    _emit(summary if args.out else compact, args.out, args.format)
    return 0 if summary["ok"] else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "check": _cmd_check,
        "spectral": _cmd_spectral,
        "scenario": _cmd_scenario,
        "batch": _cmd_batch,
    }
    try:
        return handlers[args.command](args)
    except (MixedHKError, KeyError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
