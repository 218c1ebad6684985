"""End-to-end verification pipeline: the blocks of the stages, assembled.

verify() runs: Venkov conditions -> belts -> ridge graph -> canonical
scaling -> quadratic-form recovery -> an independent inequality proof
that the polytope is the Voronoi cell under the recovered form (every
facet a bisector, no short lattice vector cutting a vertex). Each stage
returns its block of the report in the shape it is printed, and owns
that shape: `venkov` (`venkov._analyze`; `check` prints the same block),
`scaling` and `certificate` (`scaling.certify`), and the surface blocks
and their half-belt span (`topology.surface_topology`).
This module only assembles them, in one pass, writing each key once the
stage that owns it has run: belts, primitivity, topology (d = 3) and the
certificate appear only once the Venkov checks pass. The verdict is the
certificate's, or "venkov-fails", and one table, `EXIT_CODES`, gives
its exit code: 0 certified, 2 scaling inconsistency, 3 Venkov failure,
4 form/cell mismatch (1 is reserved for parse errors in the CLI).
The `surface` documents are `surface_dicts`.

For d = 3 one dual-block complex (see `topology`) gives both surface
blocks and the half-belt span, which is written under the "pi" surface,
whose H1 it spans. A component reads "compact" exactly when no ridge
is non-primitive: the boundary is connected, so once anything is
removed every component touches it.

The documents hold the pipeline's own exact values; the one JSON
encoder, which the CLI calls, writes each rational as its canonical
"p/q" string. Reports are byte-stable on identical input: keys are
sorted, and the timing field is null unless explicitly requested.
"""

from __future__ import annotations

from time import perf_counter as now

from .polytope import Polytope
from .venkov import _analyze

# the stages after the Venkov checks are imported where a verdict first
# needs them; these names serve the annotations only (typing.TYPE_CHECKING
# without importing typing)
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .lattice import Lattice
    from .parallelohedron import Parallelohedron

# the exit code of each verdict; 1 is the CLI's, for parse and usage errors
EXIT_CODES = {"certified": 0, "scaling-fails": 2, "venkov-fails": 3,
              "form-not-pd": 4, "dv-mismatch": 4}
EXIT_PARSE = 1


def _gram_match(recovered, source) -> dict:
    """Is recovered == q * source for one positive rational q? Both are
    positive definite, so q can only be the ratio of their first entries."""
    scale = recovered[0][0] / source[0][0]
    return {"matched": all(r == scale * x for rr, xs in zip(recovered, source)
                           for r, x in zip(rr, xs)),
            "scale": scale}


def _surface_dict(block: dict, expected: dict | None) -> dict:
    """A surface block with flags where its values disagree with the
    stored reference values."""
    flags = []
    ref = (expected or {}).get(block["surface"])
    if ref is not None:
        computed_ranks = sorted(c["h1_rank"] for c in block["components"])
        for field_name, computed, reference in (
            ("component_count", block["component_count"],
             ref["component_count"]),
            ("h1_ranks", computed_ranks, sorted(ref["h1_ranks"])),
        ):
            if computed != reference:
                flags.append({
                    "field": field_name,
                    "computed": computed,
                    "reference": reference,
                    "reference_source": ref.get("source", "unknown"),
                    "reference_disputed": bool(ref.get("disputed", False)),
                })
    return {**block, "flags": flags}


def surface_dicts(para: Parallelohedron, expected: dict | None = None) -> dict:
    """The "delta" and "pi" topology reports as JSON, with flags where
    computed values disagree with stored reference values.

    Both come from one `topology.surface_topology` call, and the
    pi-surface's half-belt span is written under "pi". For d != 3 each
    report only gives the ridge-graph component count, the number of
    delta-surface components.
    """
    if para.dim != 3:
        n = len(set(para.delta_roots))
        return {kind: {"surface": kind, "unsupported_dimension": True,
                       "ridge_components": n} for kind in ("delta", "pi")}
    from . import topology

    delta, pi, span = topology.surface_topology(para)
    return {"delta": _surface_dict(delta, expected),
            "pi": {**_surface_dict(pi, expected), "half_belt_span": span}}


def verify(source: Polytope | Lattice, name: str | None = None,
           expected: dict | None = None, timing: bool = False) -> dict:
    """The report `parallo verify` prints, for a polytope or a lattice's
    cell; `timing_ms` is null unless `timing` is set, else the `total`
    milliseconds and those of each stage that ran, which are, in order,
    `cell`, `venkov`, `tiling`, `profile`, `certify` and `topology`.

    The Venkov checks run once, on the polytope as given, and hand the
    tiling stages its translate centred at the origin; those stages are
    imported, and their keys written, only once the checks pass."""
    start, laps = now(), {}  # laps: stage -> when it ended
    if isinstance(source, Polytope):
        p, source_gram = source, None
    else:
        p, source_gram = source.cell, source.gram
        laps["cell"] = now()
    venkov, *tiling = _analyze(p)
    laps["venkov"] = now()
    doc: dict = {"name": name, "dim": p.dim, "venkov": venkov}
    verdict = "venkov-fails"
    if venkov["ok"]:
        from .parallelohedron import Parallelohedron
        from .scaling import certify

        para = Parallelohedron(*tiling)
        components = len(set(para.delta_roots))
        doc["belts"] = [{"length": b.length, "facets": b.facets}
                        for b in para.belts]
        doc["ridge_graph"] = {
            "nodes": p.n_facets,
            "edges": len(para.primitive_ridges),
            "components": components,
        }
        laps["tiling"] = now()
        doc["primitivity"] = {
            str(k): v for k, v in para.primitivity_profile().items()}
        laps["profile"] = now()
        scaling, cert = certify(para)
        verdict = cert["verdict"]
        if scaling is not None:
            doc["scaling"] = scaling
        doc["certificate"] = cert
        if verdict == "certified" and source_gram is not None:
            doc["gram_match"] = _gram_match(cert["gram"], source_gram)
        laps["certify"] = now()
        if p.dim == 3:
            doc["topology"] = surface_dicts(para, expected)
            laps["topology"] = now()
        else:
            doc["topology"] = {"ridge_components": components}
    doc["verdict"] = verdict
    doc["exit_code"] = EXIT_CODES[verdict]
    doc["timing_ms"] = None
    if timing:  # each stage runs from the end of the one before it
        ends = [start, *laps.values(), now()]
        seconds = {s: b - a for s, a, b in zip(laps, ends, ends[1:])}
        seconds["total"] = ends[-1] - start
        doc["timing_ms"] = {k: round(t * 1e3, 3) for k, t in seconds.items()}
    return doc
