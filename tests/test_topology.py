import random

import pytest

import oracles
from conftest import POLYTOPE_CATALOG, SEED, built
from oracles import ChainComplex, CutComplex, cut_half_belt_span, random_unimodular
from parallo import report, topology
from parallo.catalog import catalog
from parallo.errors import GeometryError, UnsupportedDimensionError
from parallo.lattice import dv_cell
from parallo.parallelohedron import Parallelohedron, venkov_check
from parallo.polytope import Polytope
from parallo.scaling import Walk
from parallo.topology import (
    _DualComplex,
    delta_complex,
    half_belt_span_d3,
    pi_complex,
    ridge_connectivity,
    topology_report,
)


def _counts(complex_):
    out = [0, 0, 0]
    for c in complex_.cells:
        out[c.dim] += 1
    return tuple(out)


def test_delta_cell_counts():
    assert _counts(delta_complex(built("cube"))) == (0, 0, 6)
    assert _counts(delta_complex(built("hexagonal-prism"))) == (0, 6, 8)
    assert _counts(delta_complex(built("elongated-dodecahedron"))) == (10, 24, 12)
    assert _counts(delta_complex(built("rhombic-dodecahedron"))) == (14, 24, 12)
    assert _counts(delta_complex(built("truncated-octahedron"))) == (24, 36, 14)


def test_pi_cell_counts():
    assert _counts(pi_complex(built("cube"))) == (0, 0, 3)
    assert _counts(pi_complex(built("hexagonal-prism"))) == (0, 3, 4)
    assert _counts(pi_complex(built("truncated-octahedron"))) == (12, 18, 7)


def test_delta_reports():
    rep = topology_report(delta_complex(built("cube")))
    assert rep.component_count == 6
    assert all(c.chi == 1 and c.h1_rank == 0 and not c.compact
               for c in rep.components)

    rep = topology_report(delta_complex(built("hexagonal-prism")))
    assert rep.component_count == 3
    assert sorted(c.h1_rank for c in rep.components) == [0, 0, 1]
    strip = max(rep.components, key=lambda c: c.h1_rank)
    assert strip.chi == 0 and strip.cell_counts == (0, 6, 6)

    for name in ("rhombic-dodecahedron", "truncated-octahedron"):
        rep = topology_report(delta_complex(built(name)))
        assert rep.component_count == 1
        comp = rep.components[0]
        assert comp.compact and comp.chi == 2 and comp.h1_rank == 0

    rep = topology_report(delta_complex(built("elongated-dodecahedron")))
    assert rep.component_count == 1
    comp = rep.components[0]
    assert comp.chi == -2 and comp.h1_rank == 3 and not comp.compact


def test_pi_reports():
    rep = topology_report(pi_complex(built("cube")))
    assert rep.component_count == 3
    assert all(c.h1_rank == 0 for c in rep.components)

    rep = topology_report(pi_complex(built("hexagonal-prism")))
    assert rep.component_count == 2
    disk = min(rep.components, key=lambda c: c.h1_rank)
    mobius = max(rep.components, key=lambda c: c.h1_rank)
    assert disk.h1_rank == 0 and disk.chi == 1
    assert mobius.h1_rank == 1 and mobius.chi == 0
    assert mobius.cell_counts == (0, 3, 3)

    for name in ("rhombic-dodecahedron", "truncated-octahedron"):
        rep = topology_report(pi_complex(built(name)))
        assert rep.component_count == 1
        assert rep.components[0].compact
        assert rep.components[0].chi == 1  # projective plane
        assert rep.components[0].h1_rank == 0

    rep = topology_report(pi_complex(built("elongated-dodecahedron")))
    assert rep.component_count == 1
    comp = rep.components[0]
    assert comp.chi == -1 and not comp.compact
    assert comp.h1_rank == 2  # 1 - chi; the literature value 1 is disputed


def test_chi_halves_under_quotient():
    for name in POLYTOPE_CATALOG:
        para = built(name)
        chi_delta = sum(c.chi for c in
                        topology_report(delta_complex(para)).components)
        chi_pi = sum(c.chi for c in
                     topology_report(pi_complex(para)).components)
        assert chi_delta == 2 * chi_pi


def test_delta_components_match_ridge_graph():
    for name in POLYTOPE_CATALOG:
        para = built(name)
        assert topology_report(delta_complex(para)).component_count == \
            ridge_connectivity(para)


def test_ridge_connectivity_d4():
    para = built("lattice-D4")
    assert ridge_connectivity(para) == 1
    with pytest.raises(UnsupportedDimensionError):
        delta_complex(para)


def test_half_belt_spans():
    expectations = {
        "cube": (0, 0, True),
        "hexagonal-prism": (1, 1, True),
        "rhombic-dodecahedron": (0, 0, True),
        "truncated-octahedron": (0, 0, True),
        "elongated-dodecahedron": (2, 2, True),
    }
    for name, (h1, span, spanned) in expectations.items():
        result = half_belt_span_d3(built(name))
        assert (result.h1_rank, result.span_rank, result.spanned) == \
            (h1, span, spanned)


def test_chain_model_matches_open_surface_ranks():
    for name in POLYTOPE_CATALOG:
        para = built(name)
        result = half_belt_span_d3(para)
        delta_rank = sum(
            c.h1_rank for c in topology_report(delta_complex(para)).components
        )
        pi_rank = sum(
            c.h1_rank for c in topology_report(pi_complex(para)).components
        )
        # the unquotiented cut model is a test oracle only
        delta_chain = ChainComplex(CutComplex(para), quotient=False)
        assert delta_chain.h1_rank == delta_rank
        assert result.h1_rank == pi_rank


def test_half_belt_cycle_count():
    para = built("truncated-octahedron")
    result = half_belt_span_d3(para)
    assert result.n_cycles == 6 * 6  # six shifted walks per 6-belt


def _pi_h1(para) -> int:
    return sum(c.h1_rank for c in topology_report(pi_complex(para)).components)


def test_dual_complex_matches_the_cut_model_on_the_catalog():
    for name in POLYTOPE_CATALOG + ("lattice-Z3", "lattice-FCC", "lattice-BCC"):
        entry = catalog(name)
        para = Parallelohedron.build(
            dv_cell(entry.lattice) if entry.kind == "lattice" else entry.polytope)
        assert half_belt_span_d3(para) == cut_half_belt_span(para), name


def test_dual_complex_matches_the_cut_model_on_unimodular_images():
    rng = random.Random(SEED + 7)
    for name in POLYTOPE_CATALOG:
        for _ in range(2):
            image = Parallelohedron.build(built(name).polytope.apply_affine(
                random_unimodular(rng, 3), [rng.randint(-3, 3) for _ in range(3)]))
            span = half_belt_span_d3(image)
            assert span == cut_half_belt_span(image), name
            assert span.h1_rank == _pi_h1(image)


# -- negative controls: each check still rejects bad data -------------------


def test_corrupted_two_cell_boundary_is_rejected():
    complex_ = _DualComplex(built("truncated-octahedron"))
    complex_.check_boundaries()
    col = complex_.b2_cols[0]
    edge = next(e for e in col if complex_.b1_cols[e])
    col[edge] += 1
    with pytest.raises(GeometryError, match="boundary of a boundary is nonzero"):
        complex_.check_boundaries()


def test_open_half_belt_chain_is_rejected(monkeypatch):
    complex_ = _DualComplex(built("hexagonal-prism"))
    chain = complex_.chain
    # drop the last step: the walk ends one facet short of the opposite
    monkeypatch.setattr(complex_, "chain", lambda walk: chain(
        Walk(walk.facets[:-1], walk.ridges[:-1])))
    with pytest.raises(GeometryError, match="half-belt chain is not a cycle"):
        complex_.half_belt_cycles()


@pytest.mark.parametrize("name", ["truncated-octahedron",
                                  "elongated-dodecahedron"])
def test_dropped_two_cell_breaks_the_rank_check(monkeypatch, name):
    # the check of test_chain_model_matches_open_surface_ranks
    para = built(name)
    assert half_belt_span_d3(para).h1_rank == _pi_h1(para)
    vmap, _, _ = topology._antipodal_maps(para)
    face = next(f for f in para.polytope.face_lattice.faces(0)
                if topology.face_walk(para, f) is not None)
    orbit = {face.vertex_ids,
             tuple(sorted(vmap[v] for v in face.vertex_ids))}
    walk = topology.face_walk
    monkeypatch.setattr(topology, "face_walk", lambda para, face: (
        None if face.vertex_ids in orbit else walk(para, face)))
    assert half_belt_span_d3(para).h1_rank != _pi_h1(para)


def test_antipodal_fixed_cell_is_rejected(monkeypatch):
    para = built("truncated-octahedron")

    def identity_maps(para):
        return ({v: v for v in range(para.polytope.n_vertices)},
                {e: e for e in range(len(para.ridges))},
                {f: f for f in range(para.polytope.n_facets)})

    monkeypatch.setattr(topology, "_antipodal_maps", identity_maps)
    for build in (pi_complex, half_belt_span_d3):
        with pytest.raises(GeometryError, match="involution has a fixed cell"):
            build(para)


def test_kept_edge_crossing_a_cut_is_rejected(monkeypatch):
    # a control of the cut-model oracle
    fans = oracles._vertex_fans

    def misaligned(para, facet_cycles):
        # each facet moved one step round its vertex fan
        return [(es, fs[1:] + fs[:1]) for es, fs in fans(para, facet_cycles)]

    monkeypatch.setattr(oracles, "_vertex_fans", misaligned)
    with pytest.raises(GeometryError, match="kept edge crosses a cut"):
        CutComplex(built("hexagonal-prism"))


def test_belt_of_length_eight_is_rejected():
    octagon = [(2, 1), (1, 2), (-1, 2), (-2, 1),
               (-2, -1), (-1, -2), (1, -2), (2, -1)]
    prism = Polytope.from_vertices(
        [(x, y, z) for x, y in octagon for z in (1, -1)])
    verdict = venkov_check(prism)
    assert not verdict.ok
    assert {w.condition for w in verdict.witnesses} == {"belt"}
    assert "length 8" in verdict.witnesses[0].detail


def test_one_half_belt_span_per_verify(monkeypatch):
    calls = {"span": 0, "complex": 0}
    span_d3 = topology.half_belt_span_d3

    def counted_span(para):
        calls["span"] += 1
        return span_d3(para)

    class CountedComplex(_DualComplex):
        def __init__(self, *args, **kwargs):
            calls["complex"] += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(topology, "half_belt_span_d3", counted_span)
    monkeypatch.setattr(topology, "_DualComplex", CountedComplex)
    rep = report.verify(catalog("hexagonal-prism").polytope)
    assert rep.verdict == "certified"
    assert calls == {"span": 1, "complex": 1}


def test_one_delta_complex_per_verify(monkeypatch):
    calls = []
    build = topology.delta_complex

    def counted(para):
        calls.append(para)
        return build(para)

    monkeypatch.setattr(topology, "delta_complex", counted)
    rep = report.verify(catalog("hexagonal-prism").polytope)
    assert rep.verdict == "certified"
    assert len(calls) == 1
