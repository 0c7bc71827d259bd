"""Run-configuration files: a small sectioned key-value format.

Example::

    n = 3
    d = 2
    epsilon = 1.0
    max_steps = 200
    consensus_tol = 1e-12
    seed = 42

    [schedule]
    kind = constant
    alpha = 0.5, 0.5, 0.0

    [initial]
    source = inline
    row.0 = 0.0, 0.0
    row.1 = 1.0, 0.0
    row.2 = 0.5, 1.0

    [monitors]
    energy = true

Sections prefix their keys (``schedule.kind``). ``#`` starts a comment.
Unknown keys are rejected with their line number; floats serialize via repr
so configs round-trip bitwise.
"""

from __future__ import annotations

import re
from functools import partial
from pathlib import Path

import numpy as np

from .dynamics import (DEFAULT_MONITORS, MONITOR_FLAGS, ModelConfig, OpinionState,
                       StubbornnessSchedule)
from .errors import ConfigError

_ROW_RE = re.compile(r"^(schedule|initial)\.row\.(\d+)$")


def _parse_lines(text: str, path) -> tuple:
    """Each key's value text, and each key's line number."""
    entries, lines = {}, {}
    section = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in ("schedule", "initial", "monitors"):
                raise ConfigError(f"unknown section [{section}]", path, lineno)
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", path, lineno)
        key, value = line.split("=", 1)
        key = key.strip()
        full = f"{section}.{key}" if section else key
        if full in lines:
            raise ConfigError(f"duplicate key {full!r}", path, lineno)
        entries[full] = value.strip()
        lines[full] = lineno
    return entries, lines


def _floats(value: str) -> list:
    return list(map(float, value.split(",")))


def _flag(value: str) -> bool:
    if value not in ("true", "false"):
        raise ValueError(value)
    return value == "true"


# what a value must be, named in the error when its converter rejects it
_MUST_BE = {int: "an integer", float: "a number",
            _floats: "a comma-separated list of numbers", _flag: "true or false"}
_REQUIRED = object()


def _take(entries, lines, path, key, convert=str, default=_REQUIRED, check=None):
    """Pop ``key`` from ``entries`` and return its value through ``convert``.

    A missing key gives ``default``, or raises when the key is required. A
    value that ``convert`` rejects, or for which ``check`` returns a message,
    raises a ConfigError naming the key's line in ``lines``.
    """
    if key not in entries:
        if default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r}", path)
        return default
    text, line = entries.pop(key), lines[key]
    try:
        value = convert(text)
    except ValueError:
        raise ConfigError(f"{key} must be {_MUST_BE[convert]}, got {text!r}",
                          path, line) from None
    if check is not None and (problem := check(value)):
        raise ConfigError(problem, path, line)
    return value


def _rule(ok, message):
    """A check that returns ``message``, with the value, unless ``ok(value)``."""
    return lambda value: None if ok(value) else f"{message}, got {value}"


def _stubbornness(values, name, n):
    """The message for a stubbornness row without ``n`` entries in [0, 1], else None."""
    if len(values) != n:
        return f"{name} has {len(values)} entries, expected n={n}"
    if any(not (0.0 <= v <= 1.0) for v in values):
        return "every stubbornness entry must lie in [0, 1]"
    return None


def _rows(entries, lines, path, prefix):
    """``(values, line)`` of the rows ``<prefix>0``, ``<prefix>1``, ...,
    which must be contiguous from 0."""
    rows = {}
    for key in [k for k in entries if k.startswith(prefix) and _ROW_RE.match(k)]:
        rows[int(key[len(prefix):])] = (_take(entries, lines, path, key, _floats), lines[key])
    for i in range(len(rows)):
        if i not in rows:
            raise ConfigError(f"{prefix}{i} is missing (rows must be contiguous from 0)", path)
    return [rows[i] for i in range(len(rows))]


def parse_config_text(text: str, path="<config>") -> ModelConfig:
    entries, lines = _parse_lines(text, path)
    take = partial(_take, entries, lines, path)

    n = take("n", int)
    d = take("d", int)
    epsilon = take("epsilon", float, check=_rule(lambda v: v > 0, "epsilon must be positive"))
    max_steps = take("max_steps", int, check=_rule(lambda v: v >= 1, "max_steps must be >= 1"))
    consensus_tol = take("consensus_tol", float, 1e-12,
                         _rule(lambda v: v > 0, "consensus_tol must be positive"))
    seed = take("seed", int, 0)

    kind = take("schedule.kind")
    kind_line = lines["schedule.kind"]
    if kind == "constant":
        if "schedule.alpha" not in entries:
            raise ConfigError("constant schedule requires schedule.alpha", path, kind_line)
        alpha = take("schedule.alpha", _floats,
                     check=lambda v: _stubbornness(v, "schedule.alpha", n))
        schedule = StubbornnessSchedule("constant", alpha=np.array(alpha))
    elif kind == "power_law":
        a = take("schedule.a", float, check=_rule(lambda v: v > 1, "schedule.a must be > 1"))
        schedule = StubbornnessSchedule("power_law", exponent=a)
    elif kind == "table":
        rows = _rows(entries, lines, path, "schedule.row.")
        if not rows:
            raise ConfigError("table schedule requires schedule.row.<t> entries", path, kind_line)
        for values, line in rows:
            if problem := _stubbornness(values, "table row", n):
                raise ConfigError(problem, path, line)
        schedule = StubbornnessSchedule("table", table=tuple(v for v, _ in rows))
    elif kind in ("synchronous", "asynchronous"):
        schedule = StubbornnessSchedule(kind, seed=take("schedule.seed", int, None))
    else:
        raise ConfigError(f"unknown schedule kind {kind!r}", path, kind_line)

    source = take("initial.source")
    if source == "inline":
        rows = _rows(entries, lines, path, "initial.row.")
        if len(rows) != n:
            raise ConfigError(f"initial has {len(rows)} inline rows, expected n={n}",
                              path, lines["initial.source"])
        for values, line in rows:
            if len(values) != d:
                raise ConfigError(f"initial row has {len(values)} coordinates, expected d={d}",
                                  path, line)
        initial = np.array([v for v, _ in rows])
    elif source == "csv":
        csv_path = take("initial.path")
        base = Path(path).parent if path not in ("<config>", "<scenario>") else Path(".")
        initial = read_initial_csv(Path(csv_path) if Path(csv_path).is_absolute()
                                   else base / csv_path)
        if initial.shape != (n, d):
            raise ConfigError(f"initial CSV has shape {initial.shape}, expected ({n}, {d})",
                              path, lines["initial.path"])
    else:
        raise ConfigError(f"initial.source must be 'inline' or 'csv', got {source!r}",
                          path, lines["initial.source"])

    # flag keys, when there are any, name exactly the monitors that run
    flags = {f: on for f in MONITOR_FLAGS
             if (on := take(f"monitors.{f}", _flag, None)) is not None}
    monitors = tuple(f for f, on in flags.items() if on) if flags else DEFAULT_MONITORS

    if entries:
        key = next(iter(entries))
        raise ConfigError(f"unknown key {key!r}", path, lines[key])

    try:
        return ModelConfig(initial=initial, epsilon=epsilon, schedule=schedule,
                           max_steps=max_steps, consensus_tol=consensus_tol,
                           seed=seed, monitors=monitors)
    except ValueError as exc:  # the state validator's: name the key it rejected
        line = _rejected_line(lines, initial, epsilon, rows if source == "inline" else None)
        raise ConfigError(str(exc), path, line) from None


def _rejected_line(lines: dict, initial: np.ndarray, epsilon: float, rows) -> int:
    """The line of the key whose value the state validator rejected in a
    config whose every value converted: ``n`` when there are no opinions,
    the first inline row holding a non-finite opinion, ``epsilon`` when it
    is out of range for n agents, else the inline row holding the largest
    opinion (the opinions are too far apart). ``rows`` are the inline rows'
    ``(values, line)`` pairs in agent order; opinions read from a CSV file
    (``rows`` None) are named by the ``initial.path`` line."""
    if initial.ndim != 2 or 0 in initial.shape:
        return lines["n"]
    bad = np.flatnonzero(~np.isfinite(initial).all(axis=1))
    if bad.size:
        agent = bad[0]
    else:
        try:
            OpinionState(0, np.zeros((initial.shape[0], 1)), epsilon)
        except ValueError:
            return lines["epsilon"]
        agent = np.abs(initial).max(axis=1).argmax()
    return lines["initial.path"] if rows is None else rows[agent][1]


def parse_config(path) -> ModelConfig:
    """Parse a configuration file into a validated ModelConfig."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", str(path)) from None
    return parse_config_text(text, str(path))


def config_to_text(config: ModelConfig) -> str:
    """Serialize a ModelConfig to the config format, full float precision."""
    lines = [
        f"n = {config.n}",
        f"d = {config.d}",
        f"epsilon = {config.epsilon!r}",
        f"max_steps = {config.max_steps}",
        f"consensus_tol = {config.consensus_tol!r}",
        f"seed = {config.seed}",
        "",
        "[schedule]",
        f"kind = {config.schedule.kind}",
    ]
    sched = config.schedule
    if sched.kind == "constant":
        lines.append("alpha = " + ", ".join(repr(float(v)) for v in sched.alpha))
    elif sched.kind == "power_law":
        lines.append(f"a = {sched.exponent!r}")
    elif sched.kind == "table":
        for t, row in enumerate(sched.table):
            lines.append(f"row.{t} = " + ", ".join(repr(float(v)) for v in row))
    if sched.seed is not None:
        lines.append(f"seed = {sched.seed}")
    lines += ["", "[initial]", "source = inline"]
    for i in range(config.n):
        lines.append(f"row.{i} = " + ", ".join(repr(float(v)) for v in config.initial[i]))
    lines += ["", "[monitors]"]
    for flag in MONITOR_FLAGS:
        lines.append(f"{flag} = {str(flag in config.monitors).lower()}")
    return "\n".join(lines) + "\n"


def read_initial_csv(path) -> np.ndarray:
    """Load initial opinions from ``agent,coord_0,...,coord_{d-1}`` CSV."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read initial CSV: {exc}", str(path)) from None
    lines = [ln for ln in text.split("\n") if ln.strip()]
    if not lines:
        raise ConfigError("initial CSV is empty", str(path), 1)
    header = [h.strip() for h in lines[0].split(",")]
    if header[0] != "agent" or len(header) < 2:
        raise ConfigError(f"bad CSV header {lines[0]!r}; expected "
                          "agent,coord_0,...,coord_{d-1}", str(path), 1)
    d = len(header) - 1
    if header[1:] != [f"coord_{k}" for k in range(d)]:
        raise ConfigError(f"bad coordinate columns in header {lines[0]!r}", str(path), 1)
    rows = {}
    for lineno, line in enumerate(lines[1:], start=2):
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != d + 1:
            raise ConfigError(f"expected {d + 1} fields, got {len(parts)}", str(path), lineno)
        try:
            agent = int(parts[0])
            coords = [float(p) for p in parts[1:]]
        except ValueError:
            raise ConfigError(f"malformed row {line!r}", str(path), lineno) from None
        if agent in rows:
            raise ConfigError(f"duplicate agent id {agent}", str(path), lineno)
        rows[agent] = coords
    n = len(rows)
    if sorted(rows) != list(range(n)):
        raise ConfigError(f"agent ids must cover 0..{n - 1} exactly", str(path))
    return np.array([rows[i] for i in range(n)])
