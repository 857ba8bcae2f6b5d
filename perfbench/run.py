"""Benchmark of the dgtwolevel library: solving, verifying and tuning.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload {solve,verify,tune} --seed N \
        --seconds S --trace {0,1} [--size {full,tiny}]

Set-up (imports, inputs from the seed, warm-up) is timed in this process
and again in a fresh child process after every round (at least five
samples); ``setup_s`` is their median.  The timed phase runs whole rounds
of the workload's cases until ``--seconds`` have passed, checking every
output after its round.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` rounds alternate between untraced and traced, and the
object carries the per-layer metrics and the tracing overhead.  Results
and spans are also written to ``perfbench/out/``.
"""

import argparse
import gc
import gzip
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
OUT = HERE / "out"
MIN_SETUP_SAMPLES = 5
# Warm-up inputs do not depend on --seed, so set-up does the same work in
# every run.
WARM_UP_SEED = 0


def add_source_path():
    """Import dgtwolevel from this checkout's ``src``, never from elsewhere."""
    if not (SOURCE / "dgtwolevel" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no dgtwolevel sources under {SOURCE}")
    sys.path.insert(0, str(SOURCE))


def one_blas_thread():
    """One BLAS thread: the machine has two shared cores, and a second BLAS
    thread measured slower on these matrix sizes.  Must run before numpy is
    first imported; the set-up children inherit it."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def setup(workload, seed, size):
    """Import the library, make the inputs and warm up; returns
    ``(seconds, cases)``.  Warm-up runs and checks one fixed case of the
    tiny size, which reaches the workload's code paths and first BLAS calls."""
    start = time.perf_counter()
    import dgtwolevel  # noqa: F401  (timed: the import is part of set-up)
    import workloads

    if Path(dgtwolevel.__file__).resolve().parent != SOURCE / "dgtwolevel":
        raise SystemExit(f"perfbench: imported dgtwolevel from {dgtwolevel.__file__}")
    cases = workloads.make_cases(workload, seed, size)
    for case in workloads.make_cases(workload, WARM_UP_SEED, "tiny")[:1]:
        problems = workloads.CHECK[workload](case, workloads.RUN[workload](case))
        if problems:
            raise SystemExit(f"perfbench: warm-up case {case.id} failed: {problems}")
    return time.perf_counter() - start, cases


def setup_in_child(args):
    """Set-up time of a fresh interpreter running the same set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def environment(rounds):
    """What the numbers depend on, recorded with every run."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "affinity": rounds.allowed,
        "core_policy": "next core every case" if rounds.cores else "all cores",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
    }


class Rounds:
    """Runs whole rounds of the case list and keeps per-case results."""

    def __init__(self, workload, cases):
        import workloads

        self.run = workloads.RUN[workload]
        self.check = workloads.CHECK[workload]
        self.cases = cases
        self.times = []  # (round, case id, seconds)
        self.rounds = []  # (round, cases completed, seconds)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        # The two cores of the shared machine swing in speed independently
        # (one measured 40% slower than the other for seconds at a time), and
        # the scheduler keeps a process that runs one thread at a time on one
        # of them.  So such workloads move to the next allowed core before
        # every case, shifting by one core each round: every case runs on
        # every core.  Workloads with parallel pool threads keep all cores.
        self.allowed = sorted(os.sched_getaffinity(0))
        self.cores = None if workload in workloads.THREADED else self.allowed

    def round(self, index, tracer=None):
        """Run every case back to back, then check the outputs."""
        gc.collect()
        if tracer is not None:
            tracer.install()
        outputs = []
        start = time.perf_counter()
        try:
            for case in self.cases:
                if self.cores:
                    os.sched_setaffinity(0, {self.cores[(self.attempted + index) % len(self.cores)]})
                self.attempted += 1
                if tracer is not None:
                    tracer.case = f"{index}:{case.id}"
                t0 = time.perf_counter()
                try:
                    outputs.append((case, self.run(case)))
                except (ValueError, RuntimeError, ArithmeticError) as exc:
                    self.failed += 1
                    print(f"case {case.id} failed: {exc!r}", file=sys.stderr)
                    continue
                self.times.append((index, case.id, time.perf_counter() - t0))
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.remove()
        self.rounds.append((index, len(outputs), elapsed))
        for case, out in outputs:
            for problem in self.check(case, out):
                self.problems.append(f"{case.id}: {problem}")


def end_to_end(rounds, setup_samples):
    """Medians that a slow spell of the shared machine shifts only when it
    covers most of the run: throughput of the median round, and the
    median over cases of each case's median time over rounds."""
    per_case = {}
    for _, case_id, t in rounds.times:
        per_case.setdefault(case_id, []).append(t)
    return {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "cases_per_s": {
            "value": statistics.median(n / t for _, n, t in rounds.rounds), "unit": "1/s"
        },
        "case_s_p50": {
            "value": statistics.median(statistics.median(v) for v in per_case.values()),
            "unit": "s",
        },
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MiB",
        },
    }


def tracing_overhead(rounds, traced):
    """Median over cases of traced / untraced time, as a percentage."""
    plain, ratios = {}, []
    for index, case_id, t in rounds.times:
        if index in traced:
            if (index - 1, case_id) in plain:
                ratios.append(t / plain[(index - 1, case_id)])
        else:
            plain[(index, case_id)] = t
    return 100.0 * (statistics.median(ratios) - 1.0)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("solve", "verify", "tune"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    one_blas_thread()
    add_source_path()
    setup_s, cases = setup(args.workload, args.seed, args.size)
    if args.setup_only:
        print(repr(setup_s))
        return 0

    import tracing
    import workloads

    rounds = Rounds(args.workload, cases)
    tracer = tracing.Tracer() if args.trace else None
    traced = set()
    samples = [setup_s]
    start = time.perf_counter()
    index = 0
    # Whole rounds (pairs of untraced and traced rounds when tracing) until
    # the time is up, so every run attempts the same operations per round.
    # Set-up is sampled again in a fresh process after each untraced round,
    # so the samples are spread over the run like the rounds are.
    while index == 0 or time.perf_counter() - start < args.seconds:
        rounds.round(index)
        index += 1
        if tracer is not None:
            rounds.round(index, tracer)
            traced.add(index)
            index += 1
        else:
            samples.append(setup_in_child(args))
    if not rounds.times:
        raise SystemExit("perfbench: every case failed")

    os.sched_setaffinity(0, rounds.allowed)
    env = environment(rounds)
    result = {"workload": args.workload, "seed": args.seed, "size": args.size, "env": env}
    OUT.mkdir(exist_ok=True)
    if tracer is None:
        while len(samples) < MIN_SETUP_SAMPLES:
            samples.append(setup_in_child(args))
        metrics = end_to_end(rounds, samples)
        result["setup_samples"] = samples
    else:
        tracer.case = "probe"
        tracer.install()
        try:
            workloads.probe()
        finally:
            tracer.remove()
        metrics, source = tracing.layer_metrics(
            tracer, lambda case: case == "probe", len(traced) * len(cases), len(traced)
        )
        metrics["trace.overhead_pct"] = {"value": tracing_overhead(rounds, traced), "unit": "%"}
        result["metric_source"] = source
        trace = {**result, "span_fields": tracing.SPAN_FIELDS, "spans": tracer.spans}
        with gzip.open(OUT / f"trace-{args.workload}-{args.seed}.json.gz", "wt") as fh:
            json.dump(trace, fh)
    result["case_times"] = rounds.times
    result["round_times"] = rounds.rounds
    result["problems"] = rounds.problems
    summary = {
        "correct": not rounds.problems,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": metrics,
    }
    result.update(summary)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n"
    )
    for problem in rounds.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("env: " + json.dumps(env))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
