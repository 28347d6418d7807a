"""ellipse-phase benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload verify|plot|oracle --seed N --seconds S --trace 0|1 [--smoke]

Runs the workload as a closed loop (one client, one thread: the next op starts
when the previous one has finished and been checked) for about S seconds, in
whole cycles of its fixed mix.  With --trace 0 it reports the end-to-end
metrics; with --trace 1 it runs the traced replay of layers.py and reports the
per-layer metrics.  The line before the last is the full record (every metric
with its unit, sample counts, run context); the last line is the summary
{"correct", "attempted", "failed", "metrics"} holding the metrics listed in
BENCHMARK.json.  --smoke runs a single cycle with one set-up sample.

The program is imported from src/ next to this directory, never from an
installed copy; without it the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# the program must see only the generated inputs: no seed override, and no
# ./ellipse-phase.json flag defaults (the ops run in an empty directory)
os.environ.pop("ELLIPSE_PHASE_SEED", None)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RECORD = "ellipse-phase-bench/1"

#: Cold set-up samples per run; set-up is the median.
SETUP_REPS = 15
#: Iterations of the pure-Python reference loop (an ungated noise indicator).
REFERENCE_LOOP = 1_000_000


def import_program():
    """Import ellipse_phase from SRC, refusing any other copy."""
    if not (SRC / "ellipse_phase" / "__init__.py").is_file():
        sys.exit(f"bench: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import ellipse_phase

    if Path(ellipse_phase.__file__).resolve().parent != SRC / "ellipse_phase":
        sys.exit(f"bench: imported ellipse_phase from {ellipse_phase.__file__}, not {SRC}")
    return ellipse_phase


SETUP_CODE = """
import sys, time
sys.path.insert(0, {src!r})
t0 = time.perf_counter()
import ellipse_phase.cli
from ellipse_phase import SigmaEvaluator, make_lattice
t1 = time.perf_counter()
lat = make_lattice(complex{p1!r}, complex{p2!r})
SigmaEvaluator(lat)
if {direct!r}:
    SigmaEvaluator(lat, backend="direct", truncation_shells={shells!r})
t2 = time.perf_counter()
print(t1 - t0, t2 - t0)
"""


class ColdSetup:
    """Cold set-up samples in fresh interpreters, spread over a timed run.

    The machine's speed drifts within a run; samples taken between cycles,
    evenly over the run, see the same mix of speeds as the ops do, where a
    burst of samples before the run would see only its first seconds.
    """

    def __init__(self, workload, reps: int, cwd: Path, seconds: float):
        from workloads import SHELLS

        lat = workload.setup_lattice()
        self.code = SETUP_CODE.format(
            src=str(SRC),
            p1=(lat.p1.real, lat.p1.imag),
            p2=(lat.p2.real, lat.p2.imag),
            direct=workload.setup_direct,
            shells=SHELLS,
        )
        self.reps, self.cwd, self.seconds = reps, cwd, seconds
        #: (perf_counter() at the start, import seconds, set-up seconds)
        self.samples: list[tuple[float, float, float]] = []

    def sample(self) -> None:
        t = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", self.code], cwd=self.cwd, capture_output=True, text=True, timeout=120
        )
        if proc.returncode != 0:
            sys.exit(f"bench: cold set-up failed: {proc.stderr.strip()[-500:]}")
        t_import, t_total = map(float, proc.stdout.split())
        self.samples.append((t, t_import, t_total))

    def between_cycles(self, wall: float) -> None:
        """Take a sample if the run, `wall` seconds in, is due one."""
        if len(self.samples) < self.reps and wall >= len(self.samples) * self.seconds / self.reps:
            self.sample()

    def take_due(self) -> None:
        """Take the samples still due."""
        while len(self.samples) < self.reps:
            self.sample()

    def median_import(self) -> float:
        self.take_due()
        return statistics.median(s[1] for s in self.samples)

    def medians(self, result: dict) -> tuple[float, float]:
        """Median set-up seconds, as timed and at the reference speed.

        Each sample is scaled by the reference blocks of the timed run
        `result` within REF_SPAN_S of it, as the ops are.
        """
        from workloads import REF_SECONDS, ref_median

        self.take_due()
        wall = statistics.median(s[2] for s in self.samples)
        adjusted = statistics.median(s[2] * REF_SECONDS / ref_median(result, s[0]) for s in self.samples)
        return wall, adjusted


def reference_loop() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOP):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_context(args, numpy_version: str) -> dict:
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "reference_loop_s": reference_loop(),
    }


def end_to_end(workload, result: dict, setup_wall_s: float, setup_s: float) -> tuple[dict, dict]:
    """All end-to-end metrics of a timed run, plus the sample details."""
    from workloads import metric, tail

    times = result["times"]
    attempted = len(result["ops"])
    median = statistics.median(times)
    # rates from the median op, not the mean: a burst of host contention
    # moves the mean of a run but not its median
    metrics = {"setup_s": metric(setup_s, "s"), "setup_wall_s": metric(setup_wall_s, "s")}
    metrics["specs_per_s"] = metric(1 / median, "1/s")
    if workload.extra_rate:
        metrics[workload.extra_rate] = metric(workload.units_per_op / median, "1/s")
    tail_ms, tail_pct = tail(times)
    metrics["op_p50_ms"] = metric(1e3 * median, "ms")
    metrics["op_tail_ms"] = metric(1e3 * tail_ms, "ms")
    metrics["op_p50_ref"] = metric(statistics.median(result["norm"]), "ref")
    whole = cycle_sums(result)
    if whole:
        metrics["cycle_p50_ref"] = metric(statistics.median(whole), "ref")
    metrics["fail_ratio"] = metric(len(result["errors"]) / attempted, "ratio")
    metrics["peak_rss_mb"] = metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    details = {
        "op_samples": len(times),
        "op_tail_percentile": tail_pct,
        "wall_s": result["wall"],
        "busy_s": sum(times),
        "ref_p50_ms": 1e3 * statistics.median(result["refs"]),
        "ref_blocks": len(result["refs"]),
    }
    return metrics, details


def cycle_sums(result: dict) -> list[float]:
    """Time in reference blocks of each cycle all of whose ops passed."""
    per_op = len(result["ops"]) // result["cycles"]
    sums: dict[int, list[float]] = {}
    for c, t in zip(result["cycle_of"], result["norm"]):
        sums.setdefault(c, []).append(t)
    return [sum(ts) for ts in sums.values() if len(ts) == per_op]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["verify", "plot", "oracle"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="one cycle, one set-up sample")
    args = parser.parse_args(argv)

    import_program()
    import numpy

    from workloads import WORKLOADS, metric, run_ops

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    work_dir = ROOT / "bench" / "_work"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir()
    os.chdir(work_dir)
    try:
        workload = WORKLOADS[args.workload](args.seed, work_dir)
        seconds = 0 if args.smoke else args.seconds
        setup = ColdSetup(workload, 1 if args.smoke else SETUP_REPS, work_dir, seconds)
        workload.prepare()
        if args.trace:
            import layers

            attempted, errors, metrics, details = layers.traced_run(workload, seconds)
            import_s = setup.median_import()
            metrics["import.cold_ms"] = metric(1e3 * import_s, "ms")
            details["metric_sources"]["import.cold_ms"] = "setup"
            wanted = [m["name"] for m in benchmark["per_layer"]]
        else:
            result = run_ops(workload, seconds, setup.between_cycles)
            attempted, errors = len(result["ops"]), result["errors"]
            metrics, details = end_to_end(workload, result, *setup.medians(result))
            wanted = [m["name"] for m in benchmark["end_to_end"]]
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = len(errors)
    record = {
        "record": RECORD,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:10],
        "metrics": metrics,
        **details,
        "context": run_context(args, numpy.__version__),
    }
    print(json.dumps(record))
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: metrics[name] for name in wanted},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
