"""Compare two source trees stage by stage on `parallo verify --timing`.

    python3 tools/bench_stages.py PARENT CHANGE OUT.json [--pairs N] [DOC ...]

PARENT and CHANGE are checkouts of this repository. Each run is one
`verify --timing DOC` child process with PYTHONPATH=TREE/src; its wall
time and its own peak RSS (from `os.wait4`) are kept beside the
report's `timing_ms` stages. Each of the N pairs (default 5) runs every
DOC once on each tree, alternating which tree goes first. If any report
differs between the trees once `timing_ms` is removed, the script exits
1 with one line. OUT.json holds, per input and per metric, every run on
each side, each side's median and quartiles, and the number of pairs
the change won (every metric is better lower). The default DOCs are the
d = 5-7 root-lattice documents in tests/fixtures; E8 runs only when
named. Stdlib only.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import time

USAGE = ("usage: python3 tools/bench_stages.py PARENT CHANGE OUT.json "
         "[--pairs N] [DOC ...]")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(ROOT, "tests", "fixtures")
DEFAULT_DOCS = ("D5", "D6", "E6", "E7", "A5star", "A6star", "E6star", "E7star")


def run(tree: str, doc: str) -> tuple[dict, dict]:
    """One verify of doc on tree: its metrics, and its report without
    `timing_ms`."""
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.abspath(tree), "src")}
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "parallo.cli", "verify", doc,
                             "--timing"], stdout=subprocess.PIPE, env=env)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
    try:
        report = json.loads(out)
    except ValueError:
        sys.exit(f"error: verify {doc} on {tree} printed no report "
                 f"(exit {proc.returncode})")
    metrics = {**report.pop("timing_ms"), "wall_ms": round(wall * 1e3, 3),
               "peak_rss_mb": round(usage.ru_maxrss / 1024, 1)}
    return metrics, report


def summary(runs: list) -> dict:
    quartiles = statistics.quantiles(runs, n=4) if len(runs) > 1 else runs * 3
    return {"runs": runs, "median": statistics.median(runs),
            "quartiles": [quartiles[0], quartiles[2]]}


def main(argv: list[str]) -> int:
    pairs, args = 5, []
    while argv:
        arg = argv.pop(0)
        if arg != "--pairs":
            args.append(arg)
        elif argv and argv[0].isdigit():
            pairs = int(argv.pop(0))
        else:
            sys.exit(USAGE)
    if len(args) < 3 or pairs < 1:
        sys.exit(USAGE)
    parent, change, out_path, *docs = args
    trees = {"parent": parent, "change": change}
    docs = docs or [os.path.join(FIXTURES, f"{name}.json") for name in DEFAULT_DOCS]
    inputs = {}
    for doc in docs:
        sides = {"parent": [], "change": []}
        for k in range(pairs):
            reports = {}
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                metrics, reports[side] = run(trees[side], doc)
                sides[side].append(metrics)
            if reports["parent"] != reports["change"]:
                sys.exit(f"error: the reports of {doc} differ between the trees")
        metrics = {}
        for key in sides["parent"][0]:
            runs = {side: [m[key] for m in ms] for side, ms in sides.items()}
            won = sum(c < p for p, c in zip(runs["parent"], runs["change"]))
            metrics[key] = {**{side: summary(r) for side, r in runs.items()},
                            "change_won": won}
        inputs[os.path.basename(doc)] = metrics
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"pairs": pairs, "python": platform.python_version(),
                   "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
                   "inputs": inputs}, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
