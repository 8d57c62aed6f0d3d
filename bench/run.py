"""Benchmark for perispec: one workload per run, metrics as one JSON line.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test [--seed N]

A run writes the workload's inputs from the seed, times set-up in fresh
interpreters, runs one untimed warm-up operation, then runs whole passes
over the workload's operations until S seconds have gone by, and checks
every output. Timings are wall times corrected to a reference machine
speed with the kernel in speed.py, which runs next to every operation. The
last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics,
or with ``--trace 1`` the per-layer metrics from spans recorded around every
public function of perispec. A fuller record goes to
``bench/out/result-<workload>-s<seed>-trace<0|1>.json``. See bench/README.md.
"""

import os

# numpy's BLAS pool is pinned to one thread before numpy loads: the default
# pool of one thread per core made small-matrix work slower and less
# repeatable (bench/blas_threads.py measures it).
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import speed  # noqa: E402
from checks import check_map_report, check_suite_result, is_known_fault, self_test_mutations  # noqa: E402
from workloads import WORKLOADS, MapOp, SuiteOp, build  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Set-up is timed at least SETUP_MIN_REPEATS times, and again while the
# repeats have taken less than SETUP_BUDGET_S, up to SETUP_MAX_REPEATS.
SETUP_MIN_REPEATS = 5
SETUP_MAX_REPEATS = 15
SETUP_BUDGET_S = 3.0
SETUP_TIMEOUT_S = 120
# perispec suite's defaults
SUITE_SEED = 42
SUITE_SAMPLES = 10000


def import_perispec():
    """Import perispec from this checkout's src/ and nowhere else."""
    if not (SRC / "perispec" / "__init__.py").is_file():
        raise ImportError(f"no perispec sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import perispec
    import perispec.cli
    import perispec.suite

    if Path(perispec.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"perispec imported from {perispec.__file__}, not {SRC}")
    return perispec


class Runner:
    """Runs one operation and checks its output; remembers the digest and the
    verdict of each checked report, so a byte-identical report from a later
    pass is not parsed again."""

    def __init__(self, perispec, reports: Path) -> None:
        self.perispec = perispec
        self.reports = reports
        self.verified: dict[str, tuple[bytes, list]] = {}
        reports.mkdir(parents=True, exist_ok=True)

    def report_path(self, op: MapOp) -> Path:
        return self.reports / f"{op.label}.report.json"

    def run(self, op):
        if isinstance(op, MapOp):
            # attribute lookups at call time, so traced runs reach the wrappers
            return self.perispec.cli.main(["analyze", str(op.path), "--out", str(self.report_path(op))])
        criterion = getattr(self.perispec.suite, op.function)
        return criterion(SUITE_SEED, SUITE_SAMPLES, self.perispec.DEFAULT_TOL)

    def check(self, op, result) -> list:
        if isinstance(op, SuiteOp):
            return check_suite_result(result, op)
        if result != 0:
            return [("exit", f"perispec analyze exited {result} on {op.label}")]
        data = self.report_path(op).read_bytes()
        digest = hashlib.sha256(data).digest()
        cached = self.verified.get(op.label)
        if cached is not None and cached[0] == digest:
            return cached[1]
        problems = check_map_report(json.loads(data), op)
        self.verified[op.label] = (digest, problems)
        return problems


def measure_setup(workload) -> tuple[list[float], list[float]]:
    """Seconds to import perispec and load every input, in fresh interpreters:
    the wall times, and the same at the reference machine speed."""
    module = "perispec.suite" if workload.name == "acceptance-suite" else "perispec.cli"
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), module]
    cmd += [str(p) for p in workload.files]
    walls: list[float] = []
    kernels = [speed.kernel()]
    while len(walls) < SETUP_MIN_REPEATS or (
        len(walls) < SETUP_MAX_REPEATS and sum(walls) < SETUP_BUDGET_S
    ):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False)
        kernels.append(speed.kernel())
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        walls.append(float(proc.stdout.split()[-1]))
    return walls, speed.corrected_times(walls, kernels)


def measure(runner: Runner, workload, seconds: float, tracer=None) -> dict:
    """Whole passes over the workload until ``seconds`` have gone by.

    The speed kernel runs before every operation and once after the last, so
    each operation has a kernel time on either side."""
    ops = workload.ops
    run = runner.run if tracer is None else tracer.wrap("bench.op", runner.run)
    problems_seen: dict[str, list] = {}
    correct = True

    def attempt(op) -> tuple[float, float, bool]:
        nonlocal correct
        gc.collect()
        kernel = speed.kernel()
        start = perf_counter()
        try:
            result = run(op)
        except Exception as exc:  # a crashed operation is a failed one
            elapsed = perf_counter() - start
            problems = [("exception", f"{type(exc).__name__}: {exc}")]
        else:
            elapsed = perf_counter() - start
            problems = runner.check(op, result)
        if problems:
            problems_seen.setdefault(op.label, problems)
            if not is_known_fault(problems, op):
                correct = False
        return kernel, elapsed, bool(problems)

    attempt(ops[0])  # untimed warm-up
    walls: list[list[float]] = []
    kernels: list[float] = []
    spans: list[tuple[int, int]] = []
    failed = 0
    begin = perf_counter()
    while not walls or perf_counter() - begin < seconds:
        first = len(tracer) if tracer is not None else 0
        times = []
        for op in ops:
            kernel, elapsed, bad = attempt(op)
            kernels.append(kernel)
            times.append(elapsed)
            failed += bad
        walls.append(times)
        if tracer is not None:
            spans.append((first, len(tracer)))
    kernels.append(speed.kernel())
    scaled = speed.corrected_times([t for times in walls for t in times], kernels)
    n = len(ops)
    return {
        "walls": walls,
        "passes": [scaled[i : i + n] for i in range(0, len(scaled), n)],
        "kernels": kernels,
        "spans": spans,
        "failed": failed,
        "correct": correct,
        "problems": problems_seen,
    }


def end_to_end(workload, passes: list[list[float]], setup: list[float]) -> dict:
    per_op = [statistics.median(column) for column in zip(*passes)]
    return {
        "pass_s": {"value": statistics.median(sum(p) for p in passes), "unit": "s"},
        "op_ms_p50": {"value": 1000.0 * statistics.median(per_op), "unit": "ms"},
        "largest_op_s": {"value": statistics.median(p[workload.heaviest] for p in passes), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }


def per_layer(tracer, spans: list[tuple[int, int]]) -> dict:
    from spans import PER_LAYER

    per_pass = [tracer.aggregate(first, stop) for first, stop in spans]
    return {
        name: {"value": statistics.median(p[name] for p in per_pass), "unit": unit}
        for name, (unit, _, _) in PER_LAYER.items()
    }


def run_workload(args, perispec) -> int:
    run_dir = OUT / f"run-{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    try:
        (run_dir / "tmp").mkdir(parents=True)
        tempfile.tempdir = str(run_dir / "tmp")  # the suite's c10 writes temporary reports
        workload = build(args.workload, args.seed, run_dir / "inputs")
        setup_walls, setup = measure_setup(workload)
        tracer = None
        if args.trace:
            from spans import Tracer, install

            tracer = Tracer()
            install(tracer)
        runner = Runner(perispec, run_dir / "reports")
        timed = measure(runner, workload, args.seconds, tracer)
        metrics = end_to_end(workload, timed["passes"], setup)
        line = {
            "correct": timed["correct"],
            "attempted": len(timed["passes"]) * len(workload.ops),
            "failed": timed["failed"],
            "metrics": per_layer(tracer, timed["spans"]) if tracer else metrics,
        }
        stem = f"{args.workload}-s{args.seed}-trace{args.trace}"
        if tracer is not None:
            tracer.save(OUT / f"trace-{args.workload}-s{args.seed}.npz", timed["spans"])
        record = {
            "result": line,
            "end_to_end": metrics,
            "end_to_end_wall": end_to_end(workload, timed["walls"], setup_walls),
            "passes": len(timed["passes"]),
            "op_labels": [op.label for op in workload.ops],
            "pass_times_s": timed["passes"],
            "pass_walls_s": timed["walls"],
            "kernel_s": timed["kernels"],
            "setup_s": setup,
            "setup_walls_s": setup_walls,
            "problems": timed["problems"],
            "seconds": args.seconds,
            "reference_kernel_s": speed.REFERENCE_KERNEL_S,
            "blas_threads": int(BLAS_THREADS),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": f"{platform.machine()} {os.cpu_count()} cpus",
        }
        (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for label, problems in timed["problems"].items():
        sys.stderr.write(f"{label}: {problems}\n")
    print(json.dumps(line))
    return 0


def self_test(seed: int, perispec) -> int:
    """Smoke run of every workload at its smallest size, then proof that the
    checks reject deliberately wrong outputs."""
    run_dir = OUT / f"selftest-s{seed}-{os.getpid()}"
    ok = True
    try:
        (run_dir / "tmp").mkdir(parents=True)
        tempfile.tempdir = str(run_dir / "tmp")
        for name in WORKLOADS:
            workload = build(name, seed, run_dir / "inputs" / name, smallest=True)
            runner = Runner(perispec, run_dir / "reports" / name)
            tried = 0
            for op in workload.ops:
                result = runner.run(op)
                problems = runner.check(op, result)
                if problems and not is_known_fault(problems, op):
                    ok = False
                    print(f"FAIL {name} {op.label}: {problems}")
                    continue
                if problems:
                    print(f"known fault {name} {op.label}: {problems[0][1]}")
                    continue
                if isinstance(op, MapOp):
                    report = json.loads(runner.report_path(op).read_text())
                    count, missed = self_test_mutations(report, op)
                else:
                    wrong = dataclasses.replace(result, passed=False)
                    count, missed = 1, ([] if check_suite_result(wrong, op) else ["flipped passed"])
                tried += count
                for m in missed:
                    ok = False
                    print(f"FAIL {name} {op.label}: check accepted a report with a {m}")
            print(f"{name}: {len(workload.ops)} operations checked, {tried} wrong reports tried")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required unless --self-test is given")
    try:
        perispec = import_perispec()
    except ImportError as exc:
        sys.stderr.write(f"cannot import perispec from this checkout: {exc}\n")
        return 2
    OUT.mkdir(exist_ok=True)
    if args.self_test:
        return self_test(args.seed, perispec)
    return run_workload(args, perispec)


if __name__ == "__main__":
    sys.exit(main())
