"""The stage bench script, `tools/bench_stages.py`: one pair on D5 with
this tree on both sides writes every metric's runs, medians, quartiles
and wins, and a tree whose report differs stops it with one line."""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "tools", "bench_stages.py")
D5 = os.path.join(ROOT, "tests", "fixtures", "D5.json")


def bench(parent, change, out):
    return subprocess.run(
        [sys.executable, SCRIPT, str(parent), str(change), str(out),
         "--pairs", "1", D5], capture_output=True, text=True)


def test_one_pair_on_d5_writes_every_metric(tmp_path):
    out = tmp_path / "bench.json"
    proc = bench(ROOT, ROOT, out)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["pairs"] == 1 and list(doc["inputs"]) == ["D5.json"]
    metrics = doc["inputs"]["D5.json"]
    assert sorted(metrics) == sorted(["cell", "venkov", "tiling", "profile",
                                      "certify", "total", "wall_ms",
                                      "peak_rss_mb"])
    for metric in metrics.values():
        assert sorted(metric) == ["change", "change_won", "parent"]
        assert metric["change_won"] in (0, 1)
        for side in (metric["parent"], metric["change"]):
            assert sorted(side) == ["median", "quartiles", "runs"]
            (run,) = side["runs"]
            assert side["median"] == run and side["quartiles"] == [run, run]


def test_a_report_that_differs_stops_the_bench(tmp_path):
    """Negative control: a copy of `src/` whose `report.verify` writes
    one more key."""
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    report = tmp_path / "src" / "parallo" / "report.py"
    text = report.read_text()
    anchor = '    doc["timing_ms"] = None\n'
    assert anchor in text
    report.write_text(text.replace(anchor, anchor + '    doc["extra"] = True\n'))
    out = tmp_path / "bench.json"
    proc = bench(ROOT, tmp_path, out)
    assert proc.returncode == 1
    assert proc.stderr.count("\n") == 1 and "differ" in proc.stderr
    assert not out.exists()
