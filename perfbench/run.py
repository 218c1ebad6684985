"""Benchmark `parallo verify` on seeded inputs, one process per input.

Usage, from the root of a checkout (the program is read from ./src):

    python3 perfbench/run.py --workload surfaces-3d --seed 1 --seconds 30 --trace 0

Workloads (see `workloads.py` and README.md): surfaces-3d, lattices-4d,
zonotopes-3d. Each run writes the workload's inputs, then verifies them the
way a user does, one `parallo verify FILE` process per input, in a closed
loop with one client. Every report is checked against expected values that
do not come from the program (`check.py`), and the reports of an input
verified twice must be byte-identical.

--trace 0 makes whole passes over the inputs while the next pass is
expected to end within --seconds (at least one). After a single pass, the
input at the median rank is verified again, then the cheapest inputs while
they fit in the time left, so every run checks byte stability. It prints
the end-to-end metrics.

--trace 1 makes one plain pass and one pass under `shim.py`, which records
a span around each public function of the program's layers, and prints the
per-layer metrics of the traced pass (`layers.py`) with the tracing
overhead.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. The benchmark exits 2 without a result when ./src holds no
program.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import check
import layers
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SHIM = os.path.join(BENCH_DIR, "shim.py")
RUN_LIMIT_S = 170  # a run must end within 180 s; later children time out
ENTRY = "import sys; from parallo.cli import main; sys.exit(main())"


@dataclass
class Result:
    """One verify process: its wall time and what was wrong with its output."""

    path: str
    seconds: float
    problems: list[str]
    spawn: float  # time.monotonic() just before the process started


class Runner:
    """Runs and checks verify processes for one workload's inputs."""

    def __init__(self, root: str, cases, paths, deadline: float, after_each=None):
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.expected = {p: c.expected for p, c in zip(paths, cases)}
        self.deadline = deadline
        self.after_each = after_each  # called after every verify process
        self.first_stdout: dict[str, bytes] = {}
        self.results: list[Result] = []

    def verify(self, path: str, trace_to: str | None = None) -> Result:
        cmd = ([sys.executable, SHIM, trace_to] if trace_to
               else [sys.executable, "-c", ENTRY])
        cmd += ["verify", path]
        spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True,
                                  timeout=max(1.0, self.deadline - time.monotonic()))
            seconds = time.monotonic() - spawn
            stdout = proc.stdout
            problems = check.check(self.expected[path], path, proc.returncode, stdout)
            if proc.returncode < 0 or b"Traceback" in proc.stderr:
                problems.append(f"crashed: {proc.stderr.decode(errors='replace')[-300:]}")
        except subprocess.TimeoutExpired:
            seconds, stdout = time.monotonic() - spawn, b""
            problems = ["timed out"]
        if not problems and self.first_stdout.setdefault(path, stdout) != stdout:
            problems.append("report bytes differ from an earlier run of the same input")
        res = Result(path, seconds, problems, spawn)
        self.results.append(res)
        if self.after_each is not None:
            self.after_each()
        return res

    def run_pass(self, paths, trace_dir: str | None = None) -> list[Result]:
        out = []
        for k, path in enumerate(paths):
            trace_to = os.path.join(trace_dir, f"{k:02d}.json") if trace_dir else None
            out.append(self.verify(path, trace_to))
            if time.monotonic() > self.deadline:
                break
        return out

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if r.problems)


def setup(workload: str, seed: int, directory: str):
    """Generate and write the inputs and expected values into `directory`;
    return the time taken, the cases and the input paths (relative to the
    checkout root)."""
    t0 = time.perf_counter()
    cases = workloads.generate(workload, seed)
    paths = workloads.write_cases(cases, directory)
    return time.perf_counter() - t0, cases, [os.path.relpath(p) for p in paths]


def timed_run(runner: Runner, paths, seconds: float, setup_times: list[float]) -> dict:
    """End-to-end metrics from whole passes that fit in `seconds`.

    After a single pass, the input at the median rank (the one whose time
    sets `verify_p50_s`) is verified again, then the cheapest inputs while
    they fit in what is left of `seconds`; repeats add to their input's
    samples but not to `pass_s`.
    """
    start = time.perf_counter()
    passes: list[float] = []
    samples: dict[str, list[float]] = {p: [] for p in paths}
    while True:
        results = runner.run_pass(paths)
        # the pass's verify processes back to back, without the checking and
        # set-up re-timing done between them
        pass_s = sum(r.seconds for r in results)
        if len(results) == len(paths):
            passes.append(pass_s)
            for r in results:
                samples[r.path].append(r.seconds)
        if (len(results) < len(paths) or runner.failed
                or time.perf_counter() - start + pass_s > seconds):
            break
    if not passes:
        return {}
    if len(passes) == 1 and not runner.failed:
        by_cost = sorted(paths, key=lambda p: samples[p][0])
        mid = by_cost[len(by_cost) // 2]
        for k, p in enumerate([mid] + [q for q in by_cost if q != mid]):
            if k == 0 or samples[p][0] <= seconds - (time.perf_counter() - start):
                samples[p].append(runner.verify(p).seconds)
    per_input = {p: statistics.median(v) for p, v in samples.items()}
    print(f"passes: {len(passes)}, verify processes timed: "
          f"{sum(map(len, samples.values()))} (per input: "
          f"{', '.join(str(len(v)) for v in samples.values())})")
    for p in paths:
        print(f"  {per_input[p]:8.3f} s  {os.path.basename(p)}")
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return {name: {"value": value, "unit": unit} for name, value, unit in (
        ("pass_s", statistics.median(passes), "s"),
        ("verify_p50_s", statistics.median(per_input.values()), "s"),
        ("slowest_input_s", max(per_input.values()), "s"),
        ("setup_s", statistics.median(setup_times), "s"),
        ("peak_rss_mb", rss_mb, "MB"),
    )}


def traced_run(runner: Runner, paths, work: str) -> dict:
    """Per-layer metrics of one traced pass, after one plain pass."""
    plain = runner.run_pass(paths)
    trace_dir = os.path.join(work, "spans")
    os.makedirs(trace_dir)
    traced = runner.run_pass(paths, trace_dir)
    plain_s, traced_s = (sum(r.seconds for r in rs) for rs in (plain, traced))
    if len(plain) < len(paths) or len(traced) < len(paths) or runner.failed:
        return {}
    agg = layers.Aggregate()
    for k, r in enumerate(traced):
        agg.add_file(os.path.join(trace_dir, f"{k:02d}.json"), r.spawn)
    out = layers.metrics(agg)
    out["trace_overhead_frac"] = {"value": traced_s / plain_s - 1, "unit": "ratio"}
    per_input = agg.n(layers.HB) / len(paths)
    print(f"traced pass {traced_s:.3f} s, plain pass {plain_s:.3f} s; "
          f"{layers.HB} calls per input: {per_input:g}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "parallo", "cli.py")):
        print("error: no program at ./src/parallo; run from the root of a checkout",
              file=sys.stderr)
        return 2
    start = time.monotonic()
    work = os.path.relpath(os.path.join(BENCH_DIR, "_work", str(os.getpid())), root)
    try:
        setup_s, cases, paths = setup(args.workload, args.seed, os.path.join(work, "inputs"))
        if args.trace:
            runner = Runner(root, cases, paths, start + RUN_LIMIT_S)
            metrics = traced_run(runner, paths, work)
        else:
            # set-up is timed again after every verify process, so that its
            # median samples the machine across the whole run, as pass_s does
            setup_times = [setup_s]

            def resample():
                again = os.path.join(work, f"setup{len(setup_times)}")
                setup_times.append(setup(args.workload, args.seed, again)[0])

            runner = Runner(root, cases, paths, start + RUN_LIMIT_S, resample)
            metrics = timed_run(runner, paths, args.seconds, setup_times)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:  # another run is still using it
            pass
    for r in runner.results:
        for problem in r.problems:
            print(f"FAILED {r.path}: {problem}")
    attempted, failed = len(runner.results), runner.failed
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:14.6f} {m['unit']}")
    print(f"failed_frac {failed}/{attempted} = {failed / max(attempted, 1):.4f}")
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
