import random

import pytest

import oracles
from conftest import POLYTOPE_CATALOG, SEED, built
from oracles import (
    ChainComplex,
    CutComplex,
    apply_affine,
    cut_half_belt_span,
    random_unimodular,
    ridge_graph_components,
)
from parallo import parallelohedron, report, topology
from parallo.catalog import catalog
from parallo.errors import GeometryError, UnsupportedDimensionError
from parallo.lattice import dv_cell
from parallo.parallelohedron import Parallelohedron
from parallo.polytope import Polytope
from parallo.topology import _DualComplex, surface_topology
from parallo.venkov import venkov_check


def _delta(para):
    return surface_topology(para)[0]


def _pi(para):
    return surface_topology(para)[1]


def _span(para):
    return surface_topology(para)[2]


def _counts(rep):
    return tuple(sum(c.cell_counts[i] for c in rep.components) for i in range(3))


def _h1(rep) -> int:
    return sum(c.h1_rank for c in rep.components)


def test_delta_cell_counts():
    assert _counts(_delta(built("cube"))) == (0, 0, 6)
    assert _counts(_delta(built("hexagonal-prism"))) == (0, 6, 8)
    assert _counts(_delta(built("elongated-dodecahedron"))) == (10, 24, 12)
    assert _counts(_delta(built("rhombic-dodecahedron"))) == (14, 24, 12)
    assert _counts(_delta(built("truncated-octahedron"))) == (24, 36, 14)


def test_pi_cell_counts():
    assert _counts(_pi(built("cube"))) == (0, 0, 3)
    assert _counts(_pi(built("hexagonal-prism"))) == (0, 3, 4)
    assert _counts(_pi(built("truncated-octahedron"))) == (12, 18, 7)


def test_delta_reports():
    rep = _delta(built("cube"))
    assert rep.component_count == 6
    assert all(c.chi == 1 and c.h1_rank == 0 and not c.compact
               for c in rep.components)

    rep = _delta(built("hexagonal-prism"))
    assert rep.component_count == 3
    assert sorted(c.h1_rank for c in rep.components) == [0, 0, 1]
    strip = max(rep.components, key=lambda c: c.h1_rank)
    assert strip.chi == 0 and strip.cell_counts == (0, 6, 6)
    # with a cap as facet 0, the strip still comes first: a component
    # with a ridge sorts before one with only a facet
    swapped = Parallelohedron.build(apply_affine(
        built("hexagonal-prism").polytope, [[0, 0, 1], [0, 1, 0], [1, 0, 0]]))
    assert not any(r in swapped.primitive_ridges
                   for r, pair in enumerate(swapped.ridge_facets) if 0 in pair)
    delta, pi, _ = surface_topology(swapped)
    assert [c.cell_counts for c in delta.components] == [(0, 6, 6), (0, 0, 1), (0, 0, 1)]
    assert [c.cell_counts for c in pi.components] == [(0, 3, 3), (0, 0, 1)]

    for name in ("rhombic-dodecahedron", "truncated-octahedron"):
        rep = _delta(built(name))
        assert rep.component_count == 1
        comp = rep.components[0]
        assert comp.compact and comp.chi == 2 and comp.h1_rank == 0

    rep = _delta(built("elongated-dodecahedron"))
    assert rep.component_count == 1
    comp = rep.components[0]
    assert comp.chi == -2 and comp.h1_rank == 3 and not comp.compact


def test_pi_reports():
    rep = _pi(built("cube"))
    assert rep.component_count == 3
    assert all(c.h1_rank == 0 for c in rep.components)

    rep = _pi(built("hexagonal-prism"))
    assert rep.component_count == 2
    disk = min(rep.components, key=lambda c: c.h1_rank)
    mobius = max(rep.components, key=lambda c: c.h1_rank)
    assert disk.h1_rank == 0 and disk.chi == 1
    assert mobius.h1_rank == 1 and mobius.chi == 0
    assert mobius.cell_counts == (0, 3, 3)

    for name in ("rhombic-dodecahedron", "truncated-octahedron"):
        rep = _pi(built(name))
        assert rep.component_count == 1
        assert rep.components[0].compact
        assert rep.components[0].chi == 1  # projective plane
        assert rep.components[0].h1_rank == 0

    rep = _pi(built("elongated-dodecahedron"))
    assert rep.component_count == 1
    comp = rep.components[0]
    assert comp.chi == -1 and not comp.compact
    assert comp.h1_rank == 2  # 1 - chi; the literature value 1 is disputed


def test_chi_halves_under_quotient():
    for name in POLYTOPE_CATALOG:
        delta, pi, _ = surface_topology(built(name))
        chi_delta = sum(c.chi for c in delta.components)
        chi_pi = sum(c.chi for c in pi.components)
        assert chi_delta == 2 * chi_pi


def test_delta_components_match_ridge_graph():
    for name in POLYTOPE_CATALOG:
        para = built(name)
        delta, pi, _ = surface_topology(para)
        assert delta.component_count == ridge_graph_components(para), name
        cut = CutComplex(para)
        assert delta.component_count == ChainComplex(cut, quotient=False).h0_rank
        assert pi.component_count == ChainComplex(cut, quotient=True).h0_rank


def test_ridge_connectivity_d4():
    para = built("lattice-D4")
    assert len(set(para.delta_roots)) == ridge_graph_components(para) == 1
    with pytest.raises(UnsupportedDimensionError):
        surface_topology(para)


def test_half_belt_spans():
    expectations = {
        "cube": (0, 0, True),
        "hexagonal-prism": (1, 1, True),
        "rhombic-dodecahedron": (0, 0, True),
        "truncated-octahedron": (0, 0, True),
        "elongated-dodecahedron": (2, 2, True),
    }
    for name, (h1, span, spanned) in expectations.items():
        result = _span(built(name))
        assert (result.h1_rank, result.span_rank, result.spanned) == \
            (h1, span, spanned)


def test_chain_model_matches_open_surface_ranks():
    for name in POLYTOPE_CATALOG:
        para = built(name)
        delta, pi, result = surface_topology(para)
        # the unquotiented cut model is a test oracle only
        delta_chain = ChainComplex(CutComplex(para), quotient=False)
        assert delta_chain.h1_rank == _h1(delta)
        assert result.h1_rank == _h1(pi)


def test_half_belt_cycle_count():
    result = _span(built("truncated-octahedron"))
    assert result.n_cycles == 6 * 6  # six shifted walks per 6-belt


def test_dual_complex_matches_the_cut_model_on_the_catalog():
    for name in POLYTOPE_CATALOG + ("lattice-Z3", "lattice-FCC", "lattice-BCC"):
        entry = catalog(name)
        para = Parallelohedron.build(
            dv_cell(entry.lattice) if entry.kind == "lattice" else entry.polytope)
        assert _span(para) == cut_half_belt_span(para), name


def test_dual_complex_matches_the_cut_model_on_unimodular_images():
    rng = random.Random(SEED + 7)
    for name in POLYTOPE_CATALOG:
        for _ in range(2):
            image = Parallelohedron.build(apply_affine(built(name).polytope,
                random_unimodular(rng, 3), [rng.randint(-3, 3) for _ in range(3)]))
            delta, pi, span = surface_topology(image)
            # the oracle's h1 is that of the quotient cut model
            oracle = cut_half_belt_span(image)
            assert span == oracle, name
            assert _h1(pi) == oracle.h1_rank, name
            delta_chain = ChainComplex(CutComplex(image), quotient=False)
            assert _h1(delta) == delta_chain.h1_rank, name
            assert delta.component_count == delta_chain.h0_rank, name
            for rep in (delta, pi):
                # components with a vertex sort last, and facet-only ones
                # after those with an edge
                tags = ["v" if c.cell_counts[0] else "e" if c.cell_counts[1]
                        else "f" for c in rep.components]
                assert tags == sorted(tags), name


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
    monkeypatch.setattr(complex_, "chain", lambda walk: chain(walk[:-1]))
    with pytest.raises(GeometryError, match="half-belt chain is not a cycle"):
        complex_.half_belt_cycles()


@pytest.mark.parametrize("name", ["truncated-octahedron",
                                  "elongated-dodecahedron"])
def test_dropped_two_cell_breaks_the_rank_check(monkeypatch, name):
    # judged by the quotient cut model: the reports' sum of 1 - chi_c
    # comes from the same walks and would move with the span's h1
    para = built(name)
    oracle = ChainComplex(CutComplex(para), quotient=True).h1_rank
    assert _span(para).h1_rank == oracle
    vmap, _, _ = oracles._antipodal_maps(para)
    face = next(f for f in para.polytope.face_lattice.faces(0)
                if topology.face_walk(para, f) is not None)
    orbit = {face.vertex_ids,
             tuple(sorted(vmap[v] for v in face.vertex_ids))}
    walk = topology.face_walk
    monkeypatch.setattr(topology, "face_walk", lambda para, face: (
        None if face.vertex_ids in orbit else walk(para, face)))
    assert _span(para).h1_rank != oracle


def test_antipodal_fixed_cell_is_rejected(monkeypatch):
    para = built("truncated-octahedron")
    for cells in ("opposite_ridge", "opposite_facet"):
        with monkeypatch.context() as patch:
            patch.setattr(para, cells, tuple(range(len(getattr(para, cells)))))
            with pytest.raises(GeometryError, match="involution has a fixed cell"):
                surface_topology(para)


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

    class CountedComplex(_DualComplex):
        def __init__(self, *args, **kwargs):
            calls["complex"] += 1
            super().__init__(*args, **kwargs)

        def half_belt_span(self):
            calls["span"] += 1
            return super().half_belt_span()

    monkeypatch.setattr(topology, "_DualComplex", CountedComplex)
    rep = report.verify(catalog("hexagonal-prism").polytope)
    assert rep["verdict"] == "certified"
    assert calls == {"span": 1, "complex": 1}


def test_one_delta_complex_per_verify(monkeypatch):
    surfaces = []

    class CountedComplex(_DualComplex):
        def report(self, surface):
            surfaces.append(surface)
            return super().report(surface)

    monkeypatch.setattr(topology, "_DualComplex", CountedComplex)
    rep = report.verify(catalog("hexagonal-prism").polytope)
    assert rep["verdict"] == "certified"
    assert sorted(surfaces) == ["delta", "pi"]


def test_one_surface_complex_per_verify(monkeypatch):
    calls = {"surface_topology": 0, "complex": 0}
    walked = []
    entry, walk = topology.surface_topology, topology.face_walk

    def counted_entry(para):
        calls["surface_topology"] += 1
        return entry(para)

    class CountedComplex(_DualComplex):
        def __init__(self, *args, **kwargs):
            calls["complex"] += 1
            super().__init__(*args, **kwargs)

    def counted_walk(para, face):
        walked.append(face.vertex_ids)
        return walk(para, face)

    monkeypatch.setattr(topology, "surface_topology", counted_entry)
    monkeypatch.setattr(topology, "_DualComplex", CountedComplex)
    monkeypatch.setattr(topology, "face_walk", counted_walk)
    # 10 of its 18 vertices lie on no non-primitive ridge
    rep = report.verify(catalog("elongated-dodecahedron").polytope)
    assert rep["verdict"] == "certified"
    assert calls == {"surface_topology": 1, "complex": 1}
    faces = built("elongated-dodecahedron").polytope.face_lattice.faces(0)
    assert sorted(walked) == [f.vertex_ids for f in faces]


def test_one_union_find_per_partition(monkeypatch):
    # the delta and the pi partition, each worked out once by the
    # parallelohedron and read by the ridge graph, the scaling and the
    # surface complex
    calls = []
    roots = parallelohedron.component_roots

    def counted_roots(n, pairs):
        calls.append(n)
        return roots(n, pairs)

    monkeypatch.setattr(parallelohedron, "component_roots", counted_roots)
    rep = report.verify(catalog("hexagonal-prism").polytope)
    assert rep["verdict"] == "certified" and "topology" in rep
    assert calls == [8, 8]
