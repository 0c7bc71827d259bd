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
from pathlib import Path

import numpy as np

from .dynamics import DEFAULT_MONITORS, MONITOR_FLAGS, ModelConfig, StubbornnessSchedule
from .errors import ConfigError

_TOP_KEYS = {"n", "d", "epsilon", "max_steps", "consensus_tol", "seed"}
_SCHEDULE_KEYS = {"schedule.kind", "schedule.alpha", "schedule.a", "schedule.seed"}
_INITIAL_KEYS = {"initial.source", "initial.path"}
_ROW_RE = re.compile(r"^(schedule|initial)\.row\.(\d+)$")


def _parse_lines(text: str, path) -> dict:
    entries = {}
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
        if full in entries:
            raise ConfigError(f"duplicate key {full!r}", path, lineno)
        entries[full] = (value.strip(), lineno)
    return entries


def _want_int(entries, key, path, required=True, default=None):
    if key not in entries:
        if required:
            raise ConfigError(f"missing required key {key!r}", path)
        return default
    value, line = entries.pop(key)
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {value!r}", path, line) from None


def _want_float(entries, key, path, required=True, default=None):
    if key not in entries:
        if required:
            raise ConfigError(f"missing required key {key!r}", path)
        return default
    value, line = entries.pop(key)
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {value!r}", path, line) from None


def _want_str(entries, key, path, required=True, default=None):
    if key not in entries:
        if required:
            raise ConfigError(f"missing required key {key!r}", path)
        return default
    return entries.pop(key)[0]


def _want_floats(entries, key, path):
    value, line = entries.pop(key)
    try:
        return [float(v) for v in value.split(",")], line
    except ValueError:
        raise ConfigError(f"{key} must be a comma-separated list of numbers, "
                          f"got {value!r}", path, line) from None


def _collect_rows(entries, prefix, path):
    rows = {}
    for key in [k for k in entries if k.startswith(prefix)]:
        m = _ROW_RE.match(key)
        if not m:
            continue
        idx = int(m.group(2))
        values, line = _want_floats(entries, key, path)
        rows[idx] = (values, line)
    if not rows:
        return []
    out = []
    for i in range(len(rows)):
        if i not in rows:
            raise ConfigError(f"{prefix}{i} is missing (rows must be contiguous from 0)", path)
        out.append(rows[i])
    return out


def parse_config_text(text: str, path="<config>") -> ModelConfig:
    entries = _parse_lines(text, path)

    n = _want_int(entries, "n", path)
    d = _want_int(entries, "d", path)
    eps_line = entries.get("epsilon", (None, None))[1]
    epsilon = _want_float(entries, "epsilon", path)
    if not (epsilon > 0):
        raise ConfigError(f"epsilon must be positive, got {epsilon}", path, eps_line)
    max_line = entries.get("max_steps", (None, None))[1]
    max_steps = _want_int(entries, "max_steps", path)
    if max_steps < 1:
        raise ConfigError(f"max_steps must be >= 1, got {max_steps}", path, max_line)
    tol_line = entries.get("consensus_tol", (None, None))[1]
    consensus_tol = _want_float(entries, "consensus_tol", path, required=False, default=1e-12)
    if not (consensus_tol > 0):
        raise ConfigError(f"consensus_tol must be positive, got {consensus_tol}", path, tol_line)
    seed = _want_int(entries, "seed", path, required=False, default=0)

    kind_line = entries.get("schedule.kind", (None, None))[1]
    kind = _want_str(entries, "schedule.kind", path)
    if kind == "constant":
        if "schedule.alpha" not in entries:
            raise ConfigError("constant schedule requires schedule.alpha", path, kind_line)
        values, line = _want_floats(entries, "schedule.alpha", path)
        if len(values) != n:
            raise ConfigError(f"schedule.alpha has {len(values)} entries, expected n={n}",
                              path, line)
        if any(not (0.0 <= v <= 1.0) for v in values):
            raise ConfigError("every stubbornness entry must lie in [0, 1]", path, line)
        schedule = StubbornnessSchedule("constant", alpha=np.array(values))
    elif kind == "power_law":
        a_line = entries.get("schedule.a", (None, None))[1]
        a = _want_float(entries, "schedule.a", path)
        if not (a > 1):
            raise ConfigError(f"schedule.a must be > 1, got {a}", path, a_line)
        schedule = StubbornnessSchedule("power_law", exponent=a)
    elif kind == "table":
        rows = _collect_rows(entries, "schedule.row.", path)
        if not rows:
            raise ConfigError("table schedule requires schedule.row.<t> entries", path, kind_line)
        for values, line in rows:
            if len(values) != n:
                raise ConfigError(f"table row has {len(values)} entries, expected n={n}",
                                  path, line)
            if any(not (0.0 <= v <= 1.0) for v in values):
                raise ConfigError("every stubbornness entry must lie in [0, 1]", path, line)
        schedule = StubbornnessSchedule("table", table=tuple(v for v, _ in rows))
    elif kind in ("synchronous", "asynchronous"):
        sched_seed = _want_int(entries, "schedule.seed", path, required=False)
        schedule = StubbornnessSchedule(kind, seed=sched_seed)
    else:
        raise ConfigError(f"unknown schedule kind {kind!r}", path, kind_line)

    source = _want_str(entries, "initial.source", path)
    if source == "inline":
        rows = _collect_rows(entries, "initial.row.", path)
        if len(rows) != n:
            raise ConfigError(f"initial has {len(rows)} inline rows, expected n={n}", path)
        for values, line in rows:
            if len(values) != d:
                raise ConfigError(f"initial row has {len(values)} coordinates, expected d={d}",
                                  path, line)
        initial = np.array([v for v, _ in rows])
    elif source == "csv":
        csv_path = _want_str(entries, "initial.path", path)
        base = Path(path).parent if path not in ("<config>", "<scenario>") else Path(".")
        initial = read_initial_csv(Path(csv_path) if Path(csv_path).is_absolute()
                                   else base / csv_path)
        if initial.shape != (n, d):
            raise ConfigError(f"initial CSV has shape {initial.shape}, expected ({n}, {d})", path)
    else:
        raise ConfigError(f"initial.source must be 'inline' or 'csv', got {source!r}", path)

    monitors = []
    for flag in MONITOR_FLAGS:
        key = f"monitors.{flag}"
        if key in entries:
            value, line = entries.pop(key)
            if value not in ("true", "false"):
                raise ConfigError(f"{key} must be true or false, got {value!r}", path, line)
            if value == "true":
                monitors.append(flag)

    if entries:
        key, (_, line) = next(iter(entries.items()))
        raise ConfigError(f"unknown key {key!r}", path, line)

    return ModelConfig(initial=initial, epsilon=epsilon, schedule=schedule,
                       max_steps=max_steps, consensus_tol=consensus_tol,
                       seed=seed, monitors=tuple(monitors) or DEFAULT_MONITORS)


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
        if flag in config.monitors:
            lines.append(f"{flag} = true")
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
