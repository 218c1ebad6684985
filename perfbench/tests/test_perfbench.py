"""Tests of the benchmark itself: inputs, checker, shim and span arithmetic.

Run from the root of a checkout:

    python3 -m pytest perfbench/tests -q

A few tests verify one small input with the program (a few seconds each).
"""

from __future__ import annotations

import filecmp
import itertools
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import check  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SRC = os.path.join(ROOT, "src")


def _write(tmp_path, workload, seed, sub):
    return workloads.write_cases(workloads.generate(workload, seed), str(tmp_path / sub))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    a = _write(tmp_path, workload, 7, "a")
    b = _write(tmp_path, workload, 7, "b")
    c = _write(tmp_path, workload, 8, "c")
    names = [os.path.basename(p) for p in a] + ["expected.json"]
    match, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", names,
                                               shallow=False)
    assert match == names and not mismatch and not errors
    assert [open(p).read() for p in a] != [open(p).read() for p in c]


def test_base_cells_are_the_catalog_cells():
    sys.path.insert(0, SRC)
    from parallo.catalog import catalog

    for name, points in workloads._BASE_3D.items():
        assert sorted(points) == sorted(catalog(name).polytope.vertices), name


def test_zonotope_counts_match_an_independent_hull():
    spatial = pytest.importorskip("scipy.spatial")
    import numpy as np

    for case in workloads.generate("zonotopes-3d", 3):
        pts = np.array([[float(Fraction(x)) for x in v] for v in case.document["vertices"]])
        hull = spatial.ConvexHull(pts)
        planes = {tuple(np.round(eq, 9)) for eq in hull.equations}
        vertices, edges, facets = case.expected["counts"]
        assert (len(hull.vertices), len(planes)) == (vertices, facets) == (22, 20)
        assert len(pts) == 32 and edges == 40


def _verify(path):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", run.ENTRY, "verify", path],
                          env=env, capture_output=True, cwd=ROOT, timeout=120)
    return proc.returncode, proc.stdout


def _case(workload, name):
    return next(c for c in workloads.generate(workload, 0) if c.name == name)


def _tamper(report: bytes, edit) -> bytes:
    doc = json.loads(report)
    edit(doc)
    return json.dumps(doc).encode()


def _drop_last_witness(doc):
    doc["venkov"]["witnesses"].pop()


def _bump_facets(doc):
    doc["ridge_graph"]["nodes"] += 1


def _bump_h1(doc):
    doc["topology"]["pi"]["components"][0]["h1_rank"] += 1


def _set_verdict(verdict):
    def edit(doc):
        doc["verdict"] = verdict
    return edit


@pytest.mark.parametrize("workload, name, edits", [
    ("surfaces-3d", "cube", [_set_verdict("dv-mismatch"), _bump_h1, _bump_facets]),
    ("lattices-4d", "Z4", [_set_verdict("scaling-fails"), _bump_facets]),
    ("zonotopes-3d", "zonotope0", [_set_verdict("certified"), _drop_last_witness]),
])
def test_checker_passes_real_reports_and_fails_tampered_ones(tmp_path, workload, name, edits):
    case = _case(workload, name)
    path = os.path.relpath(workloads.write_cases([case], str(tmp_path))[0], ROOT)
    code, out = _verify(path)
    assert check.check(case.expected, path, code, out) == []
    for edit in edits:
        assert check.check(case.expected, path, code, _tamper(out, edit)), edit
    assert check.check(case.expected, path, code + 1, out)
    assert check.check(case.expected, path, code, b"Traceback")


def test_runner_fails_an_input_whose_report_bytes_change(tmp_path):
    case = _case("surfaces-3d", "cube")
    path = os.path.relpath(workloads.write_cases([case], str(tmp_path))[0], ROOT)
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        runner = run.Runner(ROOT, [case], [path], deadline=time.monotonic() + 300)
        runner.first_stdout[path] = b"{}"
        res = runner.verify(path)
    finally:
        os.chdir(cwd)
    assert res.problems == ["report bytes differ from an earlier run of the same input"]


def test_shim_keeps_the_report_and_records_two_half_belt_spans(tmp_path):
    case = _case("surfaces-3d", "cube")
    path = os.path.relpath(workloads.write_cases([case], str(tmp_path))[0], ROOT)
    spans = str(tmp_path / "spans.json")
    env = dict(os.environ, PYTHONPATH=SRC)
    traced = subprocess.run([sys.executable, run.SHIM, spans, "verify", path],
                            env=env, capture_output=True, cwd=ROOT, timeout=120)
    assert (traced.returncode, traced.stdout) == _verify(path)
    agg = layers.Aggregate()
    agg.add_file(spans, 0.0)
    assert agg.n(layers.HB) == 2
    assert agg.n("cli.main") == 1 and agg.n("report.verify") == 1


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        [0, -1, 0, 100],   # root
        [1, 0, 10, 30],    # child
        [1, 0, 20, 50],    # overlapping child: union with the first is 10..50
        [2, 0, 90, 120],   # runs past the root's end: only 90..100 counts
        [3, 1, 12, 18],    # grandchild, covered by its own parent
    ]
    assert layers.self_times(spans) == [100 - 40 - 10, 20 - 6, 30, 30, 6]


def test_aggregate_splits_dv_cell_by_parent_and_counts_outermost_totals():
    names = ["report.verify", layers.DV, layers.VF, "linalg.rref"]
    spans = [
        [0, -1, 0, 1000, 0, 0],
        [1, 0, 0, 300, 0, 0],      # input cell
        [3, 1, 0, 100, 6, 0],
        [3, 2, 10, 20, 4, 0],      # rref nested in rref: counted once in totals
        [2, 0, 400, 900, 0, 0],
        [1, 4, 500, 800, 0, 0],    # certificate rebuild
    ]
    agg = layers.Aggregate()
    agg.add_process(names, spans, spawn_monotonic=1.0, main_start_monotonic=1.5)
    assert agg.dv_cell_ns == {"input": 300, "certificate": 300}
    assert agg.n("linalg.rref") == 2 and agg.work_a("linalg.rref") == 10
    assert agg.total_ns["linalg.rref"] == 100
    assert agg.self_ns["linalg.rref"] == 90 + 10
    assert agg.self_ns["report.verify"] == 1000 - 300 - 500
    assert agg.children(layers.DV, "linalg.rref") == 1
    assert agg.startup_s == 0.5
    m = layers.metrics(agg)
    assert m["lattice.dv_cell.certificate.total_s"]["value"] == pytest.approx(3e-7)
    assert m["report.self_s"]["value"] == pytest.approx(2e-7)


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    expected = {k: (unit, better) for k, (unit, better, _) in layers.PER_LAYER.items()}
    expected["trace_overhead_frac"] = ("ratio", "lower")
    assert per_layer == expected
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "pass_s", "verify_p50_s", "slowest_input_s", "setup_s", "peak_rss_mb"}


def test_zonotope_generators_are_in_general_position():
    import random

    gens = workloads.random_zonotope_generators(random.Random(1), 5)
    assert all(workloads._det3(*t) != 0 for t in itertools.combinations(gens, 3))
    assert all(-2 <= x <= 2 for g in gens for x in g)
