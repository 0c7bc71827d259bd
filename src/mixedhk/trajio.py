"""Trajectory persistence: CSV rows plus a JSON sidecar, or one JSON file.

Floats are written with repr (shortest round-trip decimal), so a reload
reproduces every state bit for bit; the determinism and merge-detection
contracts survive persistence.

CSV layout::

    # mixed-hk-trajectory v1
    # header={"version":1,"n":...,...}
    t,agent,x_0,...,x_{d-1},alpha
    0,0,0.0,0.0,0.5
    ...

The alpha column holds the stubbornness applied to that agent at that t and
is empty on the final time's rows. Events and metrics go to a ``.meta.json``
sidecar (events always, metrics when recorded).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import IntegrityError
from .trajectory import FORMAT_VERSION, Trajectory

MAGIC = f"# mixed-hk-trajectory v{FORMAT_VERSION}"
# JSON type of each header value a trajectory is built from
HEADER_TYPES = {"n": int, "d": int, "epsilon": (int, float), "schedule": dict,
                "seed": int, "consensus_tol": (int, float)}


def _sidecar(path: Path) -> Path:
    return path.with_name(path.stem + ".meta.json")


def _metrics_records(traj: Trajectory):
    if traj.metrics is None:
        return None
    return [m.as_record() if hasattr(m, "as_record") else m for m in traj.metrics]


def write_trajectory(traj: Trajectory, path, fmt: str = "csv") -> Path:
    """Write a trajectory; returns the main file path."""
    path = Path(path)
    if fmt == "json":
        payload = {
            "header": traj.header(),
            "states": [[[float(v) for v in row] for row in x] for x in traj.states],
            "alphas": [[float(v) for v in a] for a in traj.alphas],
            "events": traj.events,
            "metrics": _metrics_records(traj),
        }
        path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
        return path
    if fmt != "csv":
        raise ValueError(f"unknown trajectory format {fmt!r}")
    lines = [MAGIC, "# header=" + json.dumps(traj.header(), sort_keys=True)]
    lines.append("t,agent," + ",".join(f"x_{k}" for k in range(traj.d)) + ",alpha")
    last = len(traj.states) - 1
    for t, x in enumerate(traj.states):
        for i in range(traj.n):
            coords = ",".join(repr(float(v)) for v in x[i])
            alpha = repr(float(traj.alphas[t][i])) if t < last else ""
            lines.append(f"{t},{i},{coords},{alpha}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    meta = {"header": traj.header(), "events": traj.events,
            "metrics": _metrics_records(traj)}
    _sidecar(path).write_text(json.dumps(meta, indent=1) + "\n", encoding="utf-8")
    return path


def read_trajectory(path) -> Trajectory:
    """Reload a trajectory written by write_trajectory (CSV or JSON)."""
    path = Path(path)
    if path.suffix == ".json":
        return _read_json(path)
    return _read_csv(path)


def _check_header(header, path) -> dict:
    """The parsed header, once it is an object holding every required key,
    this format's version, each value of its JSON type, and n and d of at
    least one."""
    if not isinstance(header, dict):
        raise IntegrityError(f"{path}: missing header object")
    for key in ("version", "n", "d", "epsilon", "schedule", "seed"):
        if key not in header:
            raise IntegrityError(f"{path}: header is missing {key!r}")
    if header["version"] != FORMAT_VERSION:
        raise IntegrityError(
            f"{path}: format version {header['version']} unsupported "
            f"(expected {FORMAT_VERSION})"
        )
    for key, kind in HEADER_TYPES.items():
        value = header.get(key)
        if key in header and (isinstance(value, bool) or not isinstance(value, kind)):
            raise IntegrityError(f"{path}: header {key} has the wrong type: {value!r}")
    for key in ("n", "d"):
        if header[key] < 1:
            raise IntegrityError(f"{path}: header {key} must be at least 1, got {header[key]}")
    return header


def _traj_from_parts(header: dict, states, alphas, events, metrics, path) -> Trajectory:
    traj = Trajectory(
        n=header["n"],
        d=header["d"],
        epsilon=header["epsilon"],
        schedule=header["schedule"],
        seed=header["seed"],
        states=states,
        alphas=alphas,
        stop_reason=header.get("stop_reason", "unknown"),
        consensus_tol=header.get("consensus_tol", 1e-12),
        metrics=metrics,
        events=events or [],
    )
    return traj


def _read_json(path: Path) -> Trajectory:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise IntegrityError(f"{path}: cannot parse trajectory JSON: {exc}") from None
    header = _check_header(payload.get("header") if isinstance(payload, dict) else None, path)
    try:
        states = [np.array([[float(v) for v in row] for row in x]) for x in payload["states"]]
        alphas = [np.array([float(v) for v in a]) for a in payload["alphas"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise IntegrityError(f"{path}: malformed states/alphas: {exc}") from None
    _check_shapes(header, states, alphas, path)
    return _traj_from_parts(header, states, alphas, payload.get("events"),
                            payload.get("metrics"), path)


def _read_csv(path: Path) -> Trajectory:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise IntegrityError(f"{path}: cannot read trajectory: {exc}") from None
    lines = text.split("\n")
    if not lines or lines[0] != MAGIC:
        raise IntegrityError(f"{path}: not a trajectory file (bad or missing magic line); "
                             f"expected {MAGIC!r}")
    if len(lines) < 3 or not lines[1].startswith("# header="):
        raise IntegrityError(f"{path}: missing header line")
    try:
        header = _check_header(json.loads(lines[1][len("# header="):]), path)
    except json.JSONDecodeError as exc:
        raise IntegrityError(f"{path}: malformed header JSON: {exc}") from None
    n, d = header["n"], header["d"]
    expected_cols = "t,agent," + ",".join(f"x_{k}" for k in range(d)) + ",alpha"
    if lines[2] != expected_cols:
        raise IntegrityError(f"{path}: unexpected column header {lines[2]!r}")
    rows = [ln for ln in lines[3:] if ln.strip()]
    if len(rows) % n != 0:
        raise IntegrityError(f"{path}: truncated file: {len(rows)} data rows is not a "
                             f"multiple of n={n}")
    num_times = len(rows) // n
    states = []
    alphas = []
    row_iter = iter(enumerate(rows, start=4))
    for t in range(num_times):
        x = np.empty((n, d))
        a = np.empty(n)
        has_alpha = None
        for i in range(n):
            lineno, row = next(row_iter)
            parts = row.split(",")
            if len(parts) != d + 3:
                raise IntegrityError(f"{path}: row {lineno}: expected {d + 3} fields, "
                                     f"got {len(parts)}")
            try:
                row_t, row_i = int(parts[0]), int(parts[1])
                coords = [float(v) for v in parts[2:2 + d]]
            except ValueError:
                raise IntegrityError(f"{path}: row {lineno}: malformed values in {row!r}") from None
            if row_t != t or row_i != i:
                raise IntegrityError(f"{path}: row {lineno}: expected (t={t}, agent={i}), "
                                     f"got (t={row_t}, agent={row_i})")
            x[i] = coords
            alpha_field = parts[2 + d]
            this_has = alpha_field != ""
            if has_alpha is None:
                has_alpha = this_has
            elif has_alpha != this_has:
                raise IntegrityError(f"{path}: row {lineno}: inconsistent alpha column at t={t}")
            if this_has:
                try:
                    a[i] = float(alpha_field)
                except ValueError:
                    raise IntegrityError(f"{path}: row {lineno}: malformed alpha "
                                         f"{alpha_field!r}") from None
        states.append(x)
        if has_alpha:
            alphas.append(a)
        elif t != num_times - 1:
            raise IntegrityError(f"{path}: missing alpha column at non-final t={t}")
    _check_shapes(header, states, alphas, path)
    meta_path = _sidecar(path)
    events, metrics = [], None
    if meta_path.exists():
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise IntegrityError(f"{meta_path}: malformed sidecar: {exc}") from None
        events = meta.get("events") or []
        metrics = meta.get("metrics")
    return _traj_from_parts(header, states, alphas, events, metrics, path)


def _check_shapes(header: dict, states, alphas, path):
    # a header-only file (no states at all) is a valid empty trajectory
    n, d = header["n"], header["d"]
    expected = max(len(states) - 1, 0)
    if len(alphas) != expected:
        raise IntegrityError(f"{path}: {len(states)} states need {expected} "
                             f"alpha vectors, got {len(alphas)}")
    for t, x in enumerate(states):
        if x.shape != (n, d):
            raise IntegrityError(f"{path}: state {t} has shape {x.shape}, expected ({n}, {d})")
    for t, a in enumerate(alphas):
        if a.shape != (n,):
            raise IntegrityError(f"{path}: alpha {t} has shape {a.shape}, expected ({n},)")
        # NaN fails both comparisons, so this also rejects every non-finite entry
        if not np.all((a >= 0.0) & (a <= 1.0)):
            raise IntegrityError(f"{path}: alpha at t={t} must hold finite stubbornness "
                                 f"values in [0, 1]")
