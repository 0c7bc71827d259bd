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

Both formats are written and read a column at a time: the writer joins the
``repr`` strings of whole columns, and the readers parse every state into
one (T+1, n, d) array, whose per-state views are ``Trajectory.states``, and
check it with array comparisons. A file the array pass cannot take whole
(a CSV value spelled in a way that only ``float()`` or ``int()`` accepts, a
JSON value that is not a plain number, or any malformed file) is read again
one value at a time, which accepts it or raises the ``IntegrityError`` that
names the first bad row.
"""

from __future__ import annotations

import json
from itertools import repeat
from pathlib import Path

import numpy as np

from .dynamics import _check_epsilon
from .errors import IntegrityError
from .trajectory import FORMAT_VERSION, Trajectory

MAGIC = f"# mixed-hk-trajectory v{FORMAT_VERSION}"
# JSON type of each header value a trajectory is built from
HEADER_TYPES = {"n": int, "d": int, "epsilon": (int, float), "schedule": dict,
                "seed": int, "consensus_tol": (int, float)}
# StubbornnessSchedule.descriptor's key order
_SCHEDULE_KEYS = ("kind", "alpha", "a", "table", "seed")
# ASCII characters that numpy's text parser strips as whitespace but float()
# and int() reject; outside them, and outside non-ASCII text, the two accept
# the same CSV fields with the same values
_NUMPY_ONLY_SPACES = "\x1c\x1d\x1e\x1f"


def _sidecar(path: Path) -> Path:
    return path.with_name(path.stem + ".meta.json")


def write_trajectory(traj: Trajectory, path, fmt: str = "csv") -> Path:
    """Write a trajectory; returns the main file path."""
    path = Path(path)
    if fmt == "json":
        payload = {
            "header": traj.header(),
            "states": [np.asarray(x, dtype=np.float64).tolist() for x in traj.states],
            "alphas": [np.asarray(a, dtype=np.float64).tolist() for a in traj.alphas],
            "events": traj.events,
            "metrics": traj.metrics,
        }
        path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
        return path
    if fmt != "csv":
        raise ValueError(f"unknown trajectory format {fmt!r}")
    agents = [str(i) for i in range(traj.n)]
    no_alpha = repeat("")
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"{MAGIC}\n# header={json.dumps(traj.header(), sort_keys=True)}\n"
                 "t,agent," + ",".join(f"x_{k}" for k in range(traj.d)) + ",alpha\n")
        for t, x in enumerate(traj.states):
            columns = [map(repr, col) for col in np.asarray(x, dtype=np.float64).T.tolist()]
            alpha = (map(repr, np.asarray(traj.alphas[t], dtype=np.float64).tolist())
                     if t < len(traj.alphas) else no_alpha)
            rows = map(",".join, zip(repeat(str(t)), agents, *columns, alpha))
            fh.write("\n".join(rows) + "\n")
    meta = {"header": traj.header(), "events": traj.events,
            "metrics": traj.metrics}
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


def _traj_from_parts(header: dict, states, alphas, events, metrics) -> Trajectory:
    return Trajectory(
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


def _json_arrays(values, shape: tuple) -> list:
    """A JSON list of number arrays of ``shape``, as float64 arrays: one
    ``np.array`` over the whole list when every value is a plain number and
    every array has the shape, else ``float()`` of one value at a time."""
    try:
        stacked = np.array(values)
    except (ValueError, TypeError, OverflowError):  # ragged, or numbers numpy cannot hold
        stacked = None
    if (stacked is not None and stacked.dtype.kind in "fi"
            and stacked.ndim == len(shape) + 1 and stacked.shape[1:] == shape):
        return list(stacked.astype(np.float64, copy=False))
    if len(shape) == 2:
        return [np.array([[float(v) for v in row] for row in x]) for x in values]
    return [np.array([float(v) for v in a]) for a in values]


def _read_json(path: Path) -> Trajectory:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise IntegrityError(f"{path}: cannot parse trajectory JSON: {exc}") from None
    header = _check_header(payload.get("header") if isinstance(payload, dict) else None, path)
    try:
        states = _json_arrays(payload["states"], (header["n"], header["d"]))
        alphas = _json_arrays(payload["alphas"], (header["n"],))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # OverflowError: an integer literal beyond the float range
        raise IntegrityError(f"{path}: malformed states/alphas: {exc}") from None
    _check_shapes(header, states, alphas, path)
    return _traj_from_parts(header, states, alphas, payload.get("events"),
                            payload.get("metrics"))


def _read_lines(path: Path) -> tuple[list, bool]:
    """The file's lines, and whether numpy's parser may read its fields."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise IntegrityError(f"{path}: cannot read trajectory: {exc}") from None
    numpy_safe = text.isascii() and not any(c in text for c in _NUMPY_ONLY_SPACES)
    return text.split("\n"), numpy_safe


def _read_csv(path: Path) -> Trajectory:
    lines, numpy_safe = _read_lines(path)
    if not lines or lines[0] != MAGIC:
        raise IntegrityError(f"{path}: not a trajectory file (bad or missing magic line); "
                             f"expected {MAGIC!r}")
    if len(lines) < 3 or not lines[1].startswith("# header="):
        raise IntegrityError(f"{path}: missing header line")
    try:
        header = _check_header(json.loads(lines[1][len("# header="):]), path)
    except json.JSONDecodeError as exc:
        raise IntegrityError(f"{path}: malformed header JSON: {exc}") from None
    # the header line sorts its keys: put the schedule's back in the writer's
    # order, so that a rewritten sidecar matches byte for byte
    schedule = header["schedule"]
    header["schedule"] = {**{k: schedule[k] for k in _SCHEDULE_KEYS if k in schedule},
                          **schedule}
    n, d = header["n"], header["d"]
    expected_cols = "t,agent," + ",".join(f"x_{k}" for k in range(d)) + ",alpha"
    if lines[2] != expected_cols:
        raise IntegrityError(f"{path}: unexpected column header {lines[2]!r}")
    rows = list(filter(str.strip, lines[3:]))  # blank lines are skipped
    if len(rows) % n != 0:
        raise IntegrityError(f"{path}: truncated file: {len(rows)} data rows is not a "
                             f"multiple of n={n}")
    parsed = _parse_columns(rows, n, d) if numpy_safe and rows else None
    states, alphas = parsed or _parse_rows(rows, lines, n, d, path)
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
    return _traj_from_parts(header, states, alphas, events, metrics)


def _parse_columns(rows: list, n: int, d: int):
    """States and alphas of the data ``rows``, parsed by one ``np.loadtxt``
    call into whole columns, or None when some row is not exactly as the
    writer spells it (each field a plain ASCII number, t and agent in
    order, alpha empty on exactly the final time's rows)."""
    last = rows[-n:]
    if not all(row.endswith(",") for row in last):
        return None
    # the final rows' empty alpha gets a digit, so that one call parses every row
    fields = [("ti", np.int64, (2,)), ("x", np.float64, (d,)), ("alpha", np.float64)]
    try:
        table = np.loadtxt(rows[:-n] + [row + "0" for row in last], dtype=fields,
                           delimiter=",", comments=None, ndmin=1)
    except (ValueError, OverflowError):
        return None
    times = len(rows) // n
    ti = table["ti"].reshape(times, n, 2)
    if not ((ti[..., 0] == np.arange(times)[:, None]).all()
            and (ti[..., 1] == np.arange(n)).all()):
        return None
    states = np.ascontiguousarray(table["x"]).reshape(times, n, d)
    alphas = np.ascontiguousarray(table["alpha"][:-n]).reshape(times - 1, n)
    return list(states), list(alphas)


def _parse_rows(rows: list, lines: list, n: int, d: int, path: Path) -> tuple[list, list]:
    """States and alphas of the data ``rows`` by ``int()`` and ``float()``
    of one field at a time; raises the ``IntegrityError`` of the first bad
    row, named by its line in the file (``lines``)."""

    def bad_row(k: int, what: str) -> IntegrityError:
        # the file line of data row k: the blank lines skipped above still count
        lineno = 4 + [j for j, ln in enumerate(lines[3:]) if ln.strip()][k]
        return IntegrityError(f"{path}: row {lineno}: {what}")

    num_times = len(rows) // n
    states = []
    alphas = []
    row_iter = iter(enumerate(rows))
    for t in range(num_times):
        x = np.empty((n, d))
        a = np.empty(n)
        has_alpha = None
        for i in range(n):
            k, row = next(row_iter)
            parts = row.split(",")
            if len(parts) != d + 3:
                raise bad_row(k, f"expected {d + 3} fields, got {len(parts)}")
            try:
                row_t, row_i = int(parts[0]), int(parts[1])
                coords = [float(v) for v in parts[2:2 + d]]
            except ValueError:
                raise bad_row(k, f"malformed values in {row!r}") from None
            if row_t != t or row_i != i:
                raise bad_row(k, f"expected (t={t}, agent={i}), got (t={row_t}, agent={row_i})")
            x[i] = coords
            alpha_field = parts[2 + d]
            this_has = alpha_field != ""
            if has_alpha is None:
                has_alpha = this_has
            elif has_alpha != this_has:
                raise bad_row(k, f"inconsistent alpha column at t={t}")
            if this_has:
                try:
                    a[i] = float(alpha_field)
                except ValueError:
                    raise bad_row(k, f"malformed alpha {alpha_field!r}") from None
        states.append(x)
        if has_alpha:
            alphas.append(a)
        elif t != num_times - 1:
            raise IntegrityError(f"{path}: missing alpha column at non-final t={t}")
    return states, alphas


def _check_shapes(header: dict, states, alphas, path):
    # a header-only file (no states at all) is a valid empty trajectory
    n, d = header["n"], header["d"]
    try:
        _check_epsilon(header["epsilon"], n)
    except ValueError as exc:
        raise IntegrityError(f"{path}: header: {exc}") from None
    expected = max(len(states) - 1, 0)
    if len(alphas) != expected:
        raise IntegrityError(f"{path}: {len(states)} states need {expected} "
                             f"alpha vectors, got {len(alphas)}")
    for t, x in enumerate(states):
        if x.shape != (n, d):
            raise IntegrityError(f"{path}: state {t} has shape {x.shape}, expected ({n}, {d})")
    # each alpha's shape, then its values, in t order: the first failing t names the error
    shaped = next((t for t, a in enumerate(alphas) if a.shape != (n,)), len(alphas))
    if shaped:
        # NaN fails both comparisons, so this also rejects every non-finite entry
        stacked = np.array(alphas[:shaped])
        in_range = ((stacked >= 0.0) & (stacked <= 1.0)).all(axis=1)
        if not in_range.all():
            raise IntegrityError(f"{path}: alpha at t={int(in_range.argmin())} must hold "
                                 f"finite stubbornness values in [0, 1]")
    if shaped < len(alphas):
        raise IntegrityError(f"{path}: alpha {shaped} has shape {alphas[shaped].shape}, "
                             f"expected ({n},)")
