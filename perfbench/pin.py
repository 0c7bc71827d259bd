"""Pin the fingerprints every benchmark run is checked against.

Usage, from the repository root::

    PYTHONPATH=src python3 perfbench/pin.py

Runs each workload's set-up and every operation key once per input set and
writes their fingerprints, with a readable summary, into expected.json. Pin
only at a commit whose outputs are known to be right: a run counts every
later difference as a failed operation.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"


def pin_one(name: str, index: int) -> dict:
    workdir = Path(tempfile.mkdtemp(prefix="pin-", dir="."))
    try:
        wl = workloads.WORKLOADS[name](index, workdir)
        entry = {"setup": wl.setup(), "ops": {}, "summary": {}}
        for key in wl.keys():
            outcome = wl.run(key)
            fingerprint, problems = wl.verify(key, outcome)
            if problems:
                raise RuntimeError(f"{name} input set {index} op {key}: {problems}")
            entry["ops"][str(key)] = fingerprint
            entry["summary"][str(key)] = wl.summary(key, outcome)
        return entry
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> None:
    pinned = {"pool": workloads.POOL, "workloads": {}}
    for name in sorted(workloads.WORKLOADS):
        for index in range(workloads.POOL):
            pinned["workloads"].setdefault(name, {})[str(index)] = pin_one(name, index)
            print(f"pinned {name} input set {index}", flush=True)
    EXPECTED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
