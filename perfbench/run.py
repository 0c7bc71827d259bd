"""mixedhk benchmark launcher.

Usage, from the repository root::

    python3 perfbench/run.py --workload sim-large --seed 1 --seconds 12 --trace 0

Runs the workload in a fresh child process (so peak RSS is per workload) with
BLAS and OpenMP pools pinned to one thread and ``MIXED_HK_THREADS`` unset,
waits for it, and passes its output through. The last line of standard output
is the result JSON. Exits non-zero, printing no result, when the library
sources are missing or the child fails.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def main(argv: list) -> int:
    src = ROOT / "src"
    if not (src / "mixedhk" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no mixedhk sources under {src}; "
                         "run from a checkout of the repository\n")
        return 2
    env = dict(os.environ)
    env.pop("MIXED_HK_THREADS", None)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(src), str(HERE)])
    try:
        child = subprocess.run([sys.executable, str(HERE / "harness.py"), *argv],
                               cwd=ROOT, env=env, stdout=subprocess.PIPE,
                               timeout=CHILD_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: workload exceeded {CHILD_TIMEOUT_S} s\n")
        return 3
    if child.returncode != 0:
        sys.stderr.write(f"perfbench: workload exited with code {child.returncode}\n")
        return child.returncode if child.returncode > 0 else 1
    sys.stdout.write(child.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
