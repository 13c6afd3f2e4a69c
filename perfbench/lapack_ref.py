"""LAPACK reference point: np.linalg.solve on each final-orthant system.

For a problem file with known solution z, the solution's orthant fixes
S = diag(sign z) and the AVE becomes the linear system (I - A S) z = b.
This script times np.linalg.solve on that system.  It is started as a
child process with OPENBLAS_NUM_THREADS=1, which must be in the
environment before numpy loads, so the figure is a single-threaded
baseline.

    OPENBLAS_NUM_THREADS=1 python3 perfbench/lapack_ref.py p1.json [p2.json ...]

Prints one JSON object: per file, the median seconds of REPEATS solves
and the relative error max|x - z| / (1 + ||z||_inf).
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import numpy as np

REPEATS = 7


def main(paths: list[str]) -> int:
    seconds, errors = [], []
    for path in paths:
        with open(path) as handle:
            data = json.load(handle)
        a = np.asarray(data["A"], dtype=float)
        b = np.asarray(data["b"], dtype=float)
        z = np.asarray(data["known_solution"], dtype=float)
        system = np.eye(a.shape[0]) - a * np.where(z >= 0.0, 1.0, -1.0)[None, :]
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            x = np.linalg.solve(system, b)
            times.append(time.perf_counter() - t0)
        seconds.append(statistics.median(times))
        errors.append(float(np.abs(x - z).max() / (1.0 + np.abs(z).max())))
    print(json.dumps({"seconds": seconds, "errors": errors}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
