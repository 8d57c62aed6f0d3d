"""Compare numpy's BLAS pool at one thread and at the default size.

Usage: python3 bench/blas_threads.py [REPEATS]

For each pool size, a fresh interpreter times ``jordan_closure_check`` on a
seeded conjugation map at d = 64 and an in-process ``perispec analyze`` of
ex2c (lambda0 = i, t = 1), REPEATS times each, and prints the median and the
interquartile spread as a share of the median, both as wall time and as
speed-corrected time (see speed.py). The pool size is fixed when numpy loads,
hence the fresh interpreters. This is the measurement behind
the one-thread setting in run.py.
"""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

CHILD = r"""
import gc, json, statistics, sys, tempfile, time
from pathlib import Path
import numpy as np
sys.path.insert(0, sys.argv[1])
sys.path.insert(0, sys.argv[2])
from perispec import BlockAlgebra, Superoperator, cli, jordan_closure_check, point_spectrum
import speed
from workloads import haar_unitary

repeats = int(sys.argv[3])
u = haar_unitary(np.random.default_rng([0, 2, 8]), 8)
phi = Superoperator(BlockAlgebra((8,)), np.kron(u, u.conj()))
spectrum = point_spectrum(phi)

def timed(fn):
    walls, kernels = [], [speed.kernel()]
    for _ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - start)
        kernels.append(speed.kernel())
    return {"wall": walls, "corrected": speed.corrected_times(walls, kernels)}

with tempfile.TemporaryDirectory(dir=sys.argv[4]) as tmp:
    mapfile = Path(tmp) / "ex2c.json"
    mapfile.write_text(json.dumps({"map": {"preset": {"name": "ex2c", "lambda0": [0.0, 1.0]}}}))
    report = str(Path(tmp) / "report.json")
    analyze = timed(lambda: cli.main(["analyze", str(mapfile), "--out", report]))
jordan = timed(lambda: jordan_closure_check(phi, spectrum))
print(json.dumps({"jordan_d64": jordan, "analyze_ex2c": analyze}))
"""


def spread(values: list[float]) -> str:
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return f"median {1000 * med:8.1f} ms  iqr/median {(q[2] - q[0]) / med:6.1%}"


def main() -> int:
    repeats = int(sys.argv[1]) if len(sys.argv) > 1 else 15
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    for threads in ("1", str(os.cpu_count())):
        env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, str(SRC), str(BENCH), str(repeats), str(out)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=600,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        for name, series in result.items():
            for kind, values in series.items():
                print(f"threads={threads:2s} {name:14s} {kind:9s} {spread(values)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
