"""End-to-end verification pipeline and machine-readable reports.

verify() runs: Venkov conditions -> belts -> ridge graph -> canonical
scaling -> quadratic-form recovery -> an independent inequality proof
that the polytope is the Voronoi cell under the recovered form (every
facet a bisector, no short lattice vector cutting a vertex), and
collects belts, primitivity, topology (d = 3) and the certificate into
one stable-ordered report. Exit codes follow the pipeline stage that
failed: 0 certified, 2 scaling inconsistency, 3 Venkov failure, 4
form/cell mismatch (1 is reserved for parse errors in the CLI). A
"dv-mismatch" certificate carries its witness: the facet that is not a
bisector, or the lattice vector and the vertex it cuts.

For d = 3 one dual-block complex (see `topology`) gives both surface
reports and the half-belt span, which is written under both the
"delta" and the "pi" surface. A component reads "compact" exactly when
no ridge is non-primitive: the boundary is connected, so once anything
is removed every component touches it.

Reports are byte-stable on identical input: keys are sorted, rationals
are canonical "p/q" strings, and the timing field is null unless
explicitly requested.
"""

from __future__ import annotations

import time

from . import serialize
from .polytope import Polytope
from .venkov import VenkovVerdict, _analyze

# the stages after the Venkov checks are imported where a verdict first
# needs them; these names serve the annotations only (typing.TYPE_CHECKING
# without importing typing)
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .lattice import Lattice
    from .parallelohedron import Parallelohedron
    from .scaling import MismatchWitness, ScalingWitness, VoronoiCertificate
    from .topology import HalfBeltSpan, TopologyReport

EXIT_CERTIFIED = 0
EXIT_PARSE = 1
EXIT_SCALING = 2
EXIT_VENKOV = 3
EXIT_DV_MISMATCH = 4


class VerificationReport:
    """What `verify` found, filled in stage by stage; every stage after
    the Venkov checks stays None when they fail."""

    def __init__(self, name: str | None, dim: int, venkov: VenkovVerdict):
        self.name = name
        self.dim = dim
        self.venkov = venkov
        self.belts: tuple | None = None
        self.primitivity: dict | None = None
        self.ridge_graph: dict | None = None
        self.certificate: VoronoiCertificate | None = None
        self.topology: dict | None = None
        self.gram_match: dict | None = None
        self.timing_ms: float | None = None

    @property
    def verdict(self) -> str:
        if not self.venkov.ok:
            return "venkov-fails"
        if self.certificate is None:
            return "scaling-fails"
        return self.certificate.verdict

    @property
    def exit_code(self) -> int:
        return {
            "certified": EXIT_CERTIFIED,
            "scaling-fails": EXIT_SCALING,
            "venkov-fails": EXIT_VENKOV,
            "form-not-pd": EXIT_DV_MISMATCH,
            "dv-mismatch": EXIT_DV_MISMATCH,
        }[self.verdict]

    def as_dict(self, include_timing: bool = False) -> dict:
        doc: dict = {
            "name": self.name,
            "dim": self.dim,
            "verdict": self.verdict,
            "exit_code": self.exit_code,
            "venkov": _venkov_dict(self.venkov),
            "timing_ms": round(self.timing_ms, 3) if include_timing else None,
        }
        if self.belts is not None:
            doc["belts"] = [
                {"length": b.length, "facets": list(b.facets)}
                for b in self.belts
            ]
        if self.primitivity is not None:
            doc["primitivity"] = {str(k): v for k, v in self.primitivity.items()}
        if self.ridge_graph is not None:
            doc["ridge_graph"] = self.ridge_graph
        cert = self.certificate
        if cert is not None:
            if cert.scaling is not None:
                doc["scaling"] = {
                    "values": [serialize.rational_to_str(v) for v in cert.scaling.values],
                    "base_facets": list(cert.scaling.base_facets),
                    "components": list(cert.scaling.groups),
                }
            if cert.witness is not None:
                doc["witness"] = _witness_dict(cert.witness)
            doc["certificate"] = certificate_dict(cert)
        if self.topology is not None:
            doc["topology"] = self.topology
        if self.gram_match is not None:
            doc["gram_match"] = self.gram_match
        return doc


def _venkov_dict(v: VenkovVerdict) -> dict:
    return {
        "ok": v.ok,
        "witnesses": [
            {
                "condition": w.condition,
                "detail": w.detail,
                "face_vertex_ids": list(w.face_vertex_ids),
            }
            for w in v.witnesses
        ],
    }


def _witness_dict(w: ScalingWitness | MismatchWitness) -> dict:
    from .scaling import MismatchWitness

    if isinstance(w, MismatchWitness):
        if w.kind == "facet":
            return {"kind": w.kind, "facet": w.facet}
        return {
            "kind": w.kind,
            "lattice_vector": serialize.vector_to_strs(w.lattice_vector),
            "vertex": serialize.vector_to_strs(w.vertex),
        }
    doc = {"kind": w.kind, "gain": serialize.rational_to_str(w.gain)}
    if w.walk is not None:
        doc["facets"] = list(w.walk.facets)
    if w.facet_pair is not None:
        doc["facet_pair"] = list(w.facet_pair)
    return doc


def certificate_dict(cert: VoronoiCertificate) -> dict:
    doc: dict = {"verdict": cert.verdict}
    if cert.scaling is not None:
        doc["scaling"] = [
            serialize.rational_to_str(v) for v in cert.scaling.values
        ]
    if cert.gram is not None:
        doc["gram"] = serialize.matrix_to_strs(cert.gram)
    if cert.component_factors is not None:
        doc["component_factors"] = [
            serialize.rational_to_str(c) for c in cert.component_factors
        ]
    if cert.witness is not None:
        doc["witness"] = _witness_dict(cert.witness)
    if cert.verdict == "form-not-pd":
        doc["solution_basis"] = [
            serialize.vector_to_strs(b) for b in cert.solution_basis
        ]
    return doc


def _gram_match(recovered, source) -> dict:
    """Is recovered == q * source for one positive rational q?"""
    scale = None
    for i in range(len(source)):
        for j in range(len(source)):
            if source[i][j] != 0:
                scale = recovered[i][j] / source[i][j]
                break
        if scale is not None:
            break
    matched = (
        scale is not None
        and scale > 0
        and all(
            recovered[i][j] == scale * source[i][j]
            for i in range(len(source))
            for j in range(len(source))
        )
    )
    return {
        "matched": matched,
        "scale": serialize.rational_to_str(scale) if scale is not None else None,
    }


def _surface_dict(rep: TopologyReport, span: HalfBeltSpan,
                  expected: dict | None) -> dict:
    doc = rep.as_dict()
    doc["half_belt_span"] = {
        "h1_rank": span.h1_rank,
        "span_rank": span.span_rank,
        "spanned": span.spanned,
        "cycles": span.n_cycles,
    }
    doc["flags"] = []
    ref = (expected or {}).get(rep.surface)
    if ref is not None:
        computed_ranks = sorted(c.h1_rank for c in rep.components)
        for field_name, computed, reference in (
            ("component_count", rep.component_count, ref["component_count"]),
            ("h1_ranks", computed_ranks, sorted(ref["h1_ranks"])),
        ):
            if computed != reference:
                doc["flags"].append({
                    "field": field_name,
                    "computed": computed,
                    "reference": reference,
                    "reference_source": ref.get("source", "unknown"),
                    "reference_disputed": bool(ref.get("disputed", False)),
                })
    return doc


def surface_dicts(para: Parallelohedron, expected: dict | None = None) -> dict:
    """The "delta" and "pi" topology reports as JSON, with flags where
    computed values disagree with stored reference values.

    Both come from one `topology.surface_topology` call, and the
    pi-surface's half-belt span is written under either surface. For
    d != 3 each report only gives the ridge-graph component count, the
    number of delta-surface components.
    """
    if para.dim != 3:
        n = len(set(para.delta_roots))
        return {kind: {"surface": kind, "unsupported_dimension": True,
                       "ridge_components": n} for kind in ("delta", "pi")}
    from . import topology

    *reports, span = topology.surface_topology(para)
    return {rep.surface: _surface_dict(rep, span, expected) for rep in reports}


def verify(source: Polytope | Lattice, name: str | None = None,
           expected: dict | None = None) -> VerificationReport:
    """Full certification pipeline for a polytope or a lattice's cell.

    The Venkov checks run once, on the recentred polytope; the tiling
    stages are imported only once they pass."""
    t0 = time.perf_counter()
    if isinstance(source, Polytope):
        p, source_gram = source, None
    else:
        p, source_gram = source.cell, source.gram
    q = p.recentered()
    verdict, *tiling = _analyze(q)
    rep = VerificationReport(name, p.dim, verdict)
    if not verdict.ok:
        rep.timing_ms = (time.perf_counter() - t0) * 1e3
        return rep
    from .parallelohedron import Parallelohedron
    from .scaling import build_ridge_graph, certify

    para = Parallelohedron(q, *tiling)
    graph = build_ridge_graph(para)
    rep.belts = para.belts
    rep.primitivity = para.primitivity_profile()
    rep.ridge_graph = {
        "nodes": p.n_facets,
        "edges": len(graph.edges),
        "components": graph.n_components,
    }
    rep.certificate = certify(graph)
    if rep.certificate.verdict == "certified" and source_gram is not None:
        rep.gram_match = _gram_match(rep.certificate.gram, source_gram)
    if p.dim == 3:
        rep.topology = surface_dicts(para, expected)
    else:
        rep.topology = {"ridge_components": graph.n_components}
    rep.timing_ms = (time.perf_counter() - t0) * 1e3
    return rep
