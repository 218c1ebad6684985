"""End-to-end verification pipeline and every printed JSON shape.

verify() runs: Venkov conditions -> belts -> ridge graph -> canonical
scaling -> quadratic-form recovery -> an independent inequality proof
that the polytope is the Voronoi cell under the recovered form (every
facet a bisector, no short lattice vector cutting a vertex). It builds
the document `parallo verify` prints in one pass, writing each key once
the stage that owns it has run: belts, primitivity, topology (d = 3)
and the certificate appear only once the Venkov checks pass. The
verdict is the certificate's, or "venkov-fails", and one table,
`EXIT_CODES`, gives its exit code: 0 certified, 2 scaling
inconsistency, 3 Venkov failure, 4 form/cell mismatch (1 is reserved
for parse errors in the CLI). A "dv-mismatch" certificate carries its
witness: the facet that is not a bisector, or the lattice vector and
the vertex it cuts. The `check` and `surface` documents are
`venkov_dict` and `surface_dicts`.

For d = 3 one dual-block complex (see `topology`) gives both surface
reports and the half-belt span, which is written under both the
"delta" and the "pi" surface. A component reads "compact" exactly when
no ridge is non-primitive: the boundary is connected, so once anything
is removed every component touches it.

The documents hold the pipeline's own exact values; the one JSON
encoder, which the CLI calls, writes each rational as its canonical
"p/q" string. Reports are byte-stable on identical input: keys are
sorted, and the timing field is null unless explicitly requested.
"""

from __future__ import annotations

import time

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

# the exit code of each verdict; 1 is the CLI's, for parse and usage errors
EXIT_CODES = {"certified": 0, "scaling-fails": 2, "venkov-fails": 3,
              "form-not-pd": 4, "dv-mismatch": 4}
EXIT_PARSE = 1


def venkov_dict(v: VenkovVerdict) -> dict:
    return {"ok": v.ok, "witnesses": [w._asdict() for w in v.witnesses]}


def _witness_dict(w: ScalingWitness | MismatchWitness) -> dict:
    return {k: x for k, x in w._asdict().items() if x is not None}


def certificate_dict(cert: VoronoiCertificate) -> dict:
    doc = {k: x for k, x in cert._asdict().items() if x is not None}
    if cert.scaling is not None:
        doc["scaling"] = cert.scaling.values
    if cert.witness is not None:
        doc["witness"] = _witness_dict(cert.witness)
    if cert.verdict != "form-not-pd":
        del doc["solution_basis"]
    return doc


def _gram_match(recovered, source) -> dict:
    """Is recovered == q * source for one positive rational q? Both are
    positive definite, so q can only be the ratio of their first entries."""
    scale = recovered[0][0] / source[0][0]
    return {"matched": all(r == scale * x for rr, xs in zip(recovered, source)
                           for r, x in zip(rr, xs)),
            "scale": scale}


def _surface_dict(rep: TopologyReport, span: HalfBeltSpan,
                  expected: dict | None) -> dict:
    doc = {
        "surface": rep.surface,
        "component_count": rep.component_count,
        "components": [
            {
                "cells": c.cell_counts,
                "chi": c.chi,
                "compact": c.compact,
                "h1_rank": c.h1_rank,
            }
            for c in rep.components
        ],
        "half_belt_span": dict(
            zip(("h1_rank", "span_rank", "spanned", "cycles"), span)),
        "flags": [],
    }
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
           expected: dict | None = None, timing: bool = False) -> dict:
    """The report `parallo verify` prints, for a polytope or a lattice's
    cell; `timing_ms` is null unless `timing` is set.

    The Venkov checks run once, on the recentred polytope; the tiling
    stages are imported, and their keys written, only once they pass."""
    t0 = time.perf_counter()
    if isinstance(source, Polytope):
        p, source_gram = source, None
    else:
        p, source_gram = source.cell, source.gram
    q = p.recentered()
    venkov, *tiling = _analyze(q)
    doc: dict = {"name": name, "dim": p.dim, "venkov": venkov_dict(venkov)}
    verdict = "venkov-fails"
    if venkov.ok:
        from .parallelohedron import Parallelohedron
        from .scaling import certify

        para = Parallelohedron(q, *tiling)
        components = len(set(para.delta_roots))
        doc["belts"] = [{"length": b.length, "facets": b.facets}
                        for b in para.belts]
        doc["primitivity"] = {
            str(k): v for k, v in para.primitivity_profile().items()}
        doc["ridge_graph"] = {
            "nodes": p.n_facets,
            "edges": len(para.primitive_ridges),
            "components": components,
        }
        cert = certify(para)
        verdict = cert.verdict
        if cert.scaling is not None:
            doc["scaling"] = dict(zip(("values", "base_facets", "components"),
                                      cert.scaling))
        if cert.witness is not None:
            doc["witness"] = _witness_dict(cert.witness)
        doc["certificate"] = certificate_dict(cert)
        if verdict == "certified" and source_gram is not None:
            doc["gram_match"] = _gram_match(cert.gram, source_gram)
        doc["topology"] = (surface_dicts(para, expected) if p.dim == 3
                           else {"ridge_components": components})
    doc["verdict"] = verdict
    doc["exit_code"] = EXIT_CODES[verdict]
    doc["timing_ms"] = (round((time.perf_counter() - t0) * 1e3, 3)
                        if timing else None)
    return doc
