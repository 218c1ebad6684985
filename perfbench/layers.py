"""Per-layer metrics from the spans the traced children write.

Self time is a span's duration minus the part of it its child spans cover.
A total time counts only the outermost span of each name, so a call nested
in a call of the same name is not counted twice. Every metric is summed
over all inputs of one pass.
"""

from __future__ import annotations

import json

FV = "polytope.Polytope.from_vertices"
FH = "polytope.Polytope.from_halfspaces"
DV = "lattice.dv_cell"
VB = "lattice.vectors_in_ball"
VF = "scaling.voronoi_form"
HB = "topology.half_belt_span_d3"
MODULES = ("linalg", "polytope", "lattice", "parallelohedron", "scaling",
           "topology", "report", "serialize", "cli")

NS = 1e-9
ROW = 6  # numbers per span in a span file: name, parent, start, end, work a, b


def self_times(spans) -> list[int]:
    """Per span: duration minus the union of its children's intervals
    (clipped to the span). Rows are [name, parent row or -1, start, end, ...]."""
    children: list[list[int]] = [[] for _ in spans]
    for i, row in enumerate(spans):
        if row[1] >= 0:
            children[row[1]].append(i)
    out = []
    for row, kids in zip(spans, children):
        start, end = row[2], row[3]
        covered, lo, hi = 0, None, None
        for a, b in sorted((max(spans[k][2], start), min(spans[k][3], end)) for k in kids):
            if b <= a:
                continue
            if hi is None or a > hi:
                covered += 0 if hi is None else hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        covered += 0 if hi is None else hi - lo
        out.append(end - start - covered)
    return out


class Aggregate:
    """Span statistics summed over the traced processes of one pass."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.work: dict[str, list[int]] = {}
        self.direct: dict[tuple[str, str], int] = {}
        self.dv_cell_ns = {"input": 0, "certificate": 0}
        self.startup_s = 0.0

    def add_process(self, names: list[str], spans, spawn_monotonic: float,
                    main_start_monotonic: float):
        """Fold in one process's spans; its start-up is spawn to `cli.main`."""
        self.startup_s += main_start_monotonic - spawn_monotonic
        ancestors: list[frozenset] = []
        for row, own in zip(spans, self_times(spans)):
            name, parent = names[row[0]], row[1]
            if parent >= 0:
                up = ancestors[parent]
                pname = names[spans[parent][0]]
                anc = up if pname in up else up | {pname}
                key = (pname, name)
                self.direct[key] = self.direct.get(key, 0) + 1
            else:
                anc = frozenset()
            ancestors.append(anc)
            dur = row[3] - row[2]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_ns[name] = self.self_ns.get(name, 0) + own
            if name not in anc:
                self.total_ns[name] = self.total_ns.get(name, 0) + dur
                if name == DV:
                    self.dv_cell_ns["certificate" if VF in anc else "input"] += dur
            w = self.work.setdefault(name, [0, 0])
            w[0] += row[4]
            w[1] += row[5]

    def add_file(self, path: str, spawn_monotonic: float):
        """Fold in a span file written by `shim.py` (rows of ROW numbers)."""
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        flat = doc["spans"]
        rows = [flat[i:i + ROW] for i in range(0, len(flat), ROW)]
        self.add_process(doc["names"], rows, spawn_monotonic,
                         doc["main_start_monotonic"])

    # -- accessors used by the metric table --

    def n(self, name):
        return self.calls.get(name, 0)

    def total(self, name):
        return self.total_ns.get(name, 0) * NS

    def own(self, name):
        return self.self_ns.get(name, 0) * NS

    def work_a(self, name):
        return self.work.get(name, [0, 0])[0]

    def work_b(self, name):
        return self.work.get(name, [0, 0])[1]

    def children(self, parent, child):
        return self.direct.get((parent, child), 0)

    def module_self(self, module):
        prefix = module + "."
        return sum(v for k, v in self.self_ns.items() if k.startswith(prefix)) * NS


def _ratio(a, b):
    return a / b if b else 0.0


def _subsets_fh(g: Aggregate):
    """d-subsets tried by from_halfspaces: vertex solves plus the
    boundedness test's hyperplane kernels."""
    return g.children(FH, "linalg.solve_linear") + g.children(FH, "linalg.nullspace")


# name -> (unit, better, value from an Aggregate)
PER_LAYER = {
    "linalg.rref.calls": ("count", "lower", lambda g: g.n("linalg.rref")),
    "linalg.rref.cells": ("count", "lower", lambda g: g.work_a("linalg.rref")),
    "linalg.rref.self_s": ("s", "lower", lambda g: g.own("linalg.rref")),
    "linalg.matmul.self_s": ("s", "lower", lambda g: g.own("linalg.matmul")),
    "linalg.nullspace.calls": ("count", "lower", lambda g: g.n("linalg.nullspace")),
    "linalg.solve_linear.calls": ("count", "lower", lambda g: g.n("linalg.solve_linear")),
    "polytope.from_vertices.calls": ("count", "lower", lambda g: g.n(FV)),
    "polytope.from_vertices.self_s": ("s", "lower", lambda g: g.own(FV)),
    "polytope.from_vertices.subsets": (
        "count", "lower", lambda g: g.children(FV, "linalg.nullspace")),
    "polytope.from_halfspaces.calls": ("count", "lower", lambda g: g.n(FH)),
    "polytope.from_halfspaces.self_s": ("s", "lower", lambda g: g.own(FH)),
    "polytope.from_halfspaces.subsets": ("count", "lower", _subsets_fh),
    "polytope.from_halfspaces.vertex_ratio": (
        "ratio", "higher",
        lambda g: _ratio(g.work_a(FH), g.children(FH, "linalg.solve_linear"))),
    "polytope.face_lattice.self_s": (
        "s", "lower", lambda g: g.own("polytope.Polytope.face_lattice")),
    "polytope.face_lattice.faces": (
        "count", "lower", lambda g: g.work_a("polytope.Polytope.face_lattice")),
    "lattice.dv_cell.input.total_s": ("s", "lower", lambda g: g.dv_cell_ns["input"] * NS),
    "lattice.dv_cell.certificate.total_s": (
        "s", "lower", lambda g: g.dv_cell_ns["certificate"] * NS),
    "lattice.vectors_in_ball.calls": ("count", "lower", lambda g: g.n(VB)),
    "lattice.vectors_in_ball.self_s": ("s", "lower", lambda g: g.own(VB)),
    "lattice.vectors_in_ball.vectors": ("count", "lower", lambda g: g.work_a(VB)),
    "lattice.vectors_in_ball.box_points": ("count", "lower", lambda g: g.work_b(VB)),
    "lattice.vectors_in_ball.hit_ratio": (
        "ratio", "higher", lambda g: _ratio(g.work_a(VB), g.work_b(VB))),
    "parallelohedron.build.self_s": (
        "s", "lower", lambda g: g.own("parallelohedron.Parallelohedron.build")),
    "parallelohedron.primitivity_profile.total_s": (
        "s", "lower",
        lambda g: g.total("parallelohedron.Parallelohedron.primitivity_profile")),
    "parallelohedron.primitivity_profile.self_s": (
        "s", "lower",
        lambda g: g.own("parallelohedron.Parallelohedron.primitivity_profile")),
    "parallelohedron.dual_cell.calls": (
        "count", "lower", lambda g: g.n("parallelohedron.Parallelohedron.dual_cell")),
    "scaling.build_ridge_graph.total_s": (
        "s", "lower", lambda g: g.total("scaling.build_ridge_graph")),
    "scaling.canonical_scaling.total_s": (
        "s", "lower", lambda g: g.total("scaling.canonical_scaling")),
    "scaling.voronoi_form.self_s": ("s", "lower", lambda g: g.own(VF)),
    "topology.half_belt_span_d3.calls": ("count", "lower", lambda g: g.n(HB)),
    "topology.half_belt_span_d3.total_s": ("s", "lower", lambda g: g.total(HB)),
    "topology.half_belt_span_d3.self_s": ("s", "lower", lambda g: g.own(HB)),
    "topology.delta_complex.total_s": (
        "s", "lower", lambda g: g.total("topology.delta_complex")),
    "topology.pi_complex.total_s": ("s", "lower", lambda g: g.total("topology.pi_complex")),
    "topology.topology_report.total_s": (
        "s", "lower", lambda g: g.total("topology.topology_report")),
    "topology.ridge_connectivity.total_s": (
        "s", "lower", lambda g: g.total("topology.ridge_connectivity")),
    "report.verify.self_s": ("s", "lower", lambda g: g.own("report.verify")),
    "serialize.load_document.self_s": (
        "s", "lower", lambda g: g.own("serialize.load_document")),
    "serialize.dumps.total_s": ("s", "lower", lambda g: g.total("serialize.dumps")),
    "cli.startup_s": ("s", "lower", lambda g: g.startup_s),
    **{
        f"{m}.self_s": ("s", "lower", lambda g, m=m: g.module_self(m))
        for m in MODULES
    },
}


def metrics(g: Aggregate) -> dict[str, dict]:
    """Every per-layer metric except the tracing overhead, with its unit."""
    return {name: {"value": fn(g), "unit": unit}
            for name, (unit, _better, fn) in PER_LAYER.items()}
