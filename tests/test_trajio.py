"""Column-pass trajectory I/O against the row-by-row reader and writer it
replaced (``oracle_read_csv`` and ``oracle_csv_text`` in conftest): the same
bits for every file the old reader accepted, the same ``IntegrityError``
text for every file it rejected."""

import contextlib
import io
import json
import random
import tracemalloc

import numpy as np
import pytest

from conftest import oracle_csv_text, oracle_read_csv
from mixedhk import IntegrityError, Trajectory, cli, read_trajectory, write_trajectory

N, D, T = 4, 2, 4


def small_traj(n=N, d=D, steps=T, seed=0) -> Trajectory:
    rng = np.random.default_rng(seed)
    states = [rng.uniform(-3.0, 3.0, (n, d)) for _ in range(steps + 1)]
    alphas = [rng.choice([0.0, 0.3, 0.6, 1.0], n) for _ in range(steps)]
    return Trajectory(n=n, d=d, epsilon=1.0, schedule={"kind": "synchronous"}, seed=seed,
                      states=states, alphas=alphas, stop_reason="horizon")


def csv_lines(traj) -> list:
    return oracle_csv_text(traj).split("\n")


def outcome(read, path):
    """The bits a reader returns, or the text of the IntegrityError it raises."""
    try:
        result = read(path)
    except IntegrityError as exc:
        return "error", str(exc)
    states, alphas = (result.states, result.alphas) if isinstance(result, Trajectory) else result
    return "ok", [x.tobytes() for x in states], [a.tobytes() for a in alphas]


def assert_reads_as_oracle(path):
    expected = outcome(oracle_read_csv, path)
    assert outcome(read_trajectory, path) == expected
    return expected


def with_field(lines, t, i, col, value) -> list:
    """``lines`` with field ``col`` of data row (t, agent i) replaced by ``value``."""
    lines = list(lines)
    k = 3 + t * N + i
    fields = lines[k].split(",")
    fields[col] = value
    lines[k] = ",".join(fields)
    return lines


VALUE_SPELLINGS = [" 1.5", "1.5 ", "+1", "1_0", "１", "-0.0", "5e-324",
                   "1.7976931348623157e308", "1e400", "nan", "inf"]


@pytest.mark.parametrize("value", VALUE_SPELLINGS)
@pytest.mark.parametrize("col", [2, 3, 4], ids=["x_0", "x_1", "alpha"])
def test_value_spellings_read_as_the_row_reader(tmp_path, value, col):
    path = tmp_path / "v.csv"
    path.write_text("\n".join(with_field(csv_lines(small_traj()), 2, 1, col, value)),
                    encoding="utf-8")
    assert_reads_as_oracle(path)


@pytest.mark.parametrize("value", ["03", "+3", " 3", "3.0", "3 ", "-3", "３", "3_0"])
def test_time_and_agent_spellings_read_as_the_row_reader(tmp_path, value):
    lines = csv_lines(small_traj())
    for name, edited in (("t", with_field(lines, 3, 0, 0, value)),
                         ("agent", with_field(lines, 0, 3, 1, value))):
        path = tmp_path / f"{name}.csv"
        path.write_text("\n".join(edited), encoding="utf-8")
        assert_reads_as_oracle(path)


def test_spellings_of_three_are_accepted_where_int_takes_them(tmp_path):
    lines = csv_lines(small_traj())
    path = tmp_path / "t.csv"
    for value in ("03", "+3", " 3"):
        path.write_text("\n".join(with_field(lines, 3, 0, 0, value)), encoding="utf-8")
        assert assert_reads_as_oracle(path)[0] == "ok"
    path.write_text("\n".join(with_field(lines, 3, 0, 0, "3.0")), encoding="utf-8")
    assert assert_reads_as_oracle(path)[0] == "error"


def edited_files():
    """(name, text) of malformed or unusual files built from one good file."""
    traj = small_traj()
    lines = csv_lines(traj)
    body = lines[3:-1]
    yield "good", "\n".join(lines)
    yield "no trailing newline", "\n".join(lines[:-1])
    yield "blank lines", "\n".join(lines[:5] + [""] + lines[5:9] + ["", ""] + lines[9:])
    yield "whitespace-only lines", "\n".join(lines[:4] + ["   ", "\t"] + lines[4:])
    yield "form-feed line", "\n".join(lines[:6] + ["\x0c"] + lines[6:])
    yield "crlf", "\r\n".join(lines)
    for cut in (1, N, N + 1, len(body) - 1):
        yield f"truncated by {cut}", "\n".join(lines[:3] + body[:-cut]) + "\n"
    yield "header only", "\n".join(lines[:3]) + "\n"
    yield "header only, no newline", "\n".join(lines[:3])
    yield "one state", "\n".join(lines[:3] + [r.rsplit(",", 1)[0] + "," for r in body[:N]])
    yield "version mismatch", "\n".join(lines).replace("trajectory v1", "trajectory v99")
    yield "header version mismatch", "\n".join(lines).replace('"version": 1', '"version": 99')
    yield "final alpha present", "\n".join(lines[:-N - 1] + [r + "0.5" for r in lines[-N - 1:-1]])
    yield "final alpha partly present", "\n".join(with_field(lines, T, 1, 4, "0.5"))
    yield "missing alpha", "\n".join(with_field(lines, 1, 2, 4, ""))
    yield "missing alpha row", "\n".join(lines[:3 + N] + [r.rsplit(",", 1)[0] + ","
                                                           for r in body[N:2 * N]]
                                          + lines[3 + 2 * N:])
    yield "extra field", "\n".join(with_field(lines, 2, 2, 4, "0.5,1"))
    yield "extra final field", "\n".join(with_field(lines, T, 2, 4, "1,"))
    yield "missing field", "\n".join(with_field(lines, 1, 1, 3, "")).replace(",,", ",", 1)
    yield "swapped rows", "\n".join(lines[:4] + [lines[5], lines[4]] + lines[6:])
    yield "alpha out of range", "\n".join(with_field(lines, 2, 0, 4, "1.5"))
    yield "two alphas out of range", "\n".join(with_field(with_field(lines, 3, 0, 4, "-1"),
                                                          1, 2, 4, "nan"))
    yield "t overflows int64", "\n".join(with_field(lines, 1, 0, 0, "9" * 30))
    yield "information separator", "\n".join(with_field(lines, 1, 0, 2, "\x1c1.5"))
    yield "quoted value", "\n".join(with_field(lines, 1, 0, 2, '"1.5"'))
    yield "comment mark", "\n".join(with_field(lines, 1, 0, 2, "1.5#"))
    yield "hex", "\n".join(with_field(lines, 1, 0, 2, "0x10"))
    yield "non-ascii header", "\n".join(lines).replace('"synchronous"', '"synchron\\u00f6us"')
    yield "non-ascii in a field", "\n".join(with_field(lines, 1, 0, 2, "1.5\u00a0"))


@pytest.mark.parametrize("name,text", list(edited_files()), ids=[n for n, _ in edited_files()])
def test_edited_files_read_as_the_row_reader(tmp_path, name, text):
    path = tmp_path / "e.csv"
    path.write_bytes(text.encode("utf-8"))
    assert_reads_as_oracle(path)


def test_random_field_edits_read_as_the_row_reader(tmp_path):
    # fields drawn from the characters either parser gives a meaning to
    rng = random.Random(5)
    alphabet = "0123456789+-.eEnaifINF _,\t\x0b\x1d"
    lines = csv_lines(small_traj(d=1))
    path = tmp_path / "r.csv"
    accepted = 0
    for _ in range(400):
        edited = list(lines)
        for _ in range(rng.randint(1, 2)):
            k = rng.randrange(3, len(lines) - 1)
            fields = edited[k].split(",")
            fields[rng.randrange(len(fields))] = "".join(
                rng.choice(alphabet) for _ in range(rng.randint(0, 4)))
            edited[k] = ",".join(fields)
        path.write_text("\n".join(edited), encoding="utf-8")
        accepted += assert_reads_as_oracle(path)[0] == "ok"
    assert 0 < accepted < 400


@pytest.mark.parametrize("d", [1, 2, 3, 8, 9])
def test_writer_matches_the_row_writer(tmp_path, d):
    traj = small_traj(n=5, d=d, steps=3, seed=d)
    traj.states[1][0, 0] = -0.0
    traj.states[2][1, -1] = 5e-324
    traj.states[3][2, 0] = 1.7976931348623157e308
    path = write_trajectory(traj, tmp_path / "w.csv")
    assert path.read_text(encoding="utf-8") == oracle_csv_text(traj)
    back = read_trajectory(path)
    assert [x.tobytes() for x in back.states] == [x.tobytes() for x in traj.states]


def test_states_are_views_of_one_array(tmp_path):
    traj = small_traj()
    back = read_trajectory(write_trajectory(traj, tmp_path / "v.csv"))
    base = back.states[0].base
    assert base is not None and all(x.base is base for x in back.states)
    assert base.size == (T + 1) * N * D and base.flags.c_contiguous


EXTREMES = [-0.0, 5e-324, 1.7976931348623157e308, float("inf"), float("nan"), 1.5, 10.0]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_round_trip_of_extreme_values(tmp_path, fmt):
    traj = small_traj(n=len(EXTREMES), d=1, steps=1)
    traj.states[0][:, 0] = EXTREMES
    traj.states[1][:, 0] = EXTREMES[::-1]
    back = read_trajectory(write_trajectory(traj, tmp_path / f"x.{fmt}", fmt))
    assert [x.tobytes() for x in back.states] == [x.tobytes() for x in traj.states]
    assert [a.tobytes() for a in back.alphas] == [a.tobytes() for a in traj.alphas]


def json_payload(traj) -> dict:
    return {"header": traj.header(), "states": [x.tolist() for x in traj.states],
            "alphas": [a.tolist() for a in traj.alphas]}


@pytest.mark.parametrize("value,expected", [
    ("1.5", 1.5), (True, 1.0), (3, 3.0), (2 ** 63 + 1, float(2 ** 63 + 1)),
    (10 ** 30, 1e30), (-0.0, -0.0)])
def test_json_values_read_as_float_of_each(tmp_path, value, expected):
    payload = json_payload(small_traj())
    payload["states"][1][2][0] = value
    path = tmp_path / "v.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    got = read_trajectory(path).states[1][2, 0]
    assert np.float64(got).tobytes() == np.float64(expected).tobytes()


@pytest.mark.parametrize("value", [None, "x", [1.0], {"a": 1}, 10 ** 400])
def test_json_values_float_rejects_are_integrity_errors(tmp_path, value):
    payload = json_payload(small_traj())
    payload["states"][1][2][0] = value
    path = tmp_path / "v.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(IntegrityError, match="malformed states/alphas"):
        read_trajectory(path)


def test_json_ragged_state_names_its_shape(tmp_path):
    payload = json_payload(small_traj())
    payload["states"][2] = payload["states"][2][:-1]
    path = tmp_path / "r.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(IntegrityError, match=r"state 2 has shape \(3, 2\), expected \(4, 2\)"):
        read_trajectory(path)


def test_oversized_json_integer_exits_2(tmp_path):
    traj = small_traj()
    path = tmp_path / "big.json"
    text = json.dumps(json_payload(traj)).replace(repr(float(traj.states[0][0, 0])),
                                                  "1" + "0" * 400, 1)
    path.write_text(text, encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["check", "--trajectory", str(path)])
    assert rc == 2
    assert err.getvalue().startswith(f"error: {path}: malformed states/alphas")


def test_alpha_check_names_the_first_bad_step(tmp_path):
    payload = json_payload(small_traj())
    payload["alphas"][3][0] = 1.5
    payload["alphas"][1][2] = float("nan")
    path = tmp_path / "a.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(IntegrityError, match="alpha at t=1 must hold"):
        read_trajectory(path)
    payload["alphas"][1][2] = 0.5
    payload["alphas"][2] = payload["alphas"][2][:-1]
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(IntegrityError, match=r"alpha 2 has shape \(3,\)"):
        read_trajectory(path)


def traced_peak(read, path) -> int:
    tracemalloc.start()
    try:
        read(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reader_memory_within_a_quarter_of_the_row_reader(tmp_path):
    # the benchmark's check-stored shape: n = 120, d = 2, 41 states
    rng = np.random.default_rng(7)
    traj = Trajectory(n=120, d=2, epsilon=1.0, schedule={"kind": "synchronous"}, seed=7,
                      states=[rng.uniform(0.0, 8.8, (120, 2)) for _ in range(41)],
                      alphas=[rng.choice([0.0, 0.3, 0.6], 120) for _ in range(40)],
                      stop_reason="horizon")
    path = write_trajectory(traj, tmp_path / "big.csv")
    read_trajectory(path)  # imports and caches settle before tracing
    oracle = min(traced_peak(oracle_read_csv, path) for _ in range(2))
    peak = min(traced_peak(read_trajectory, path) for _ in range(2))
    assert peak <= 1.25 * oracle, (peak, oracle)
