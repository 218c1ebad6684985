"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import os
from contextlib import contextmanager
from fractions import Fraction

from conftest import (
    LATTICE_CATALOG,
    POLYTOPE_CATALOG,
    SEED,
    built,
    ridge_graph,
    verified,
)
from oracles import (
    apply_affine,
    covering_counts,
    half_belt_check,
    local_cycle_check,
    per_ridge_graph,
    random_unimodular,
    ridge_neighbors,
    walk_gain,
)
from parallo import linalg
from parallo.catalog import catalog
from parallo.cli import main as cli_main
from parallo.lattice import Lattice, dv_cell
from parallo.parallelohedron import Parallelohedron, dual3_census
from parallo.polytope import Polytope
from parallo.scaling import build_ridge_graph, certify
from parallo.topology import surface_topology

import random

F = Fraction
ALL_NAMES = POLYTOPE_CATALOG + LATTICE_CATALOG
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL [criterion {number}] {label}")
        raise
    print(f"ACCEPTANCE PASS [criterion {number}] {label}")


def test_criterion_1_catalog_certification():
    with criterion(1, "catalog certification incl. d=4 and gram recovery"):
        for name in ALL_NAMES:
            rep = verified(name)
            assert rep["verdict"] == "certified", f"{name}: {rep['verdict']}"
        for name in LATTICE_CATALOG:
            rep = verified(name)
            match = rep.get("gram_match")
            assert match is not None and match["matched"], f"{name}: {match}"
            scale = F(match["scale"])
            assert scale > 0
        assert verified("lattice-D4")["dim"] == 4


def test_criterion_2_topology_table():
    with criterion(2, "surface topology table and discrepancy flag"):
        rep = surface_topology(built("cube"))[0]
        assert rep["component_count"] == 6
        assert all(c["h1_rank"] == 0 for c in rep["components"])

        rep = surface_topology(built("hexagonal-prism"))[0]
        assert rep["component_count"] == 3
        assert sorted(c["h1_rank"] for c in rep["components"]) == [0, 0, 1]

        for name in ("rhombic-dodecahedron", "truncated-octahedron"):
            rep = surface_topology(built(name))[0]
            assert rep["component_count"] == 1
            assert rep["components"][0]["compact"]
            assert rep["components"][0]["h1_rank"] == 0

        rep = surface_topology(built("elongated-dodecahedron"))[0]
        assert rep["component_count"] == 1
        assert rep["components"][0]["chi"] == -2
        assert rep["components"][0]["h1_rank"] == 3

        rep = surface_topology(built("cube"))[1]
        assert rep["component_count"] == 3

        rep = surface_topology(built("hexagonal-prism"))[1]
        assert rep["component_count"] == 2
        ranks = sorted(c["h1_rank"] for c in rep["components"])
        chis = sorted(c["chi"] for c in rep["components"])
        assert ranks == [0, 1] and chis == [0, 1]  # disk + quotient strip

        # elongated dodecahedron quotient: computed values reported, and
        # the stored literature value (h1 = 1) must raise an explicit flag
        pi = verified("elongated-dodecahedron")["topology"]["pi"]
        assert any(
            f["field"] == "h1_ranks" and f["reference_disputed"]
            for f in pi["flags"]
        )
        assert pi["components"][0]["h1_rank"] == 2


def test_criterion_3_gain_lemma_suite():
    rng = random.Random(SEED)
    with criterion(3, "gain lemmas: reciprocity, backtrack, belts, local"):
        for name in POLYTOPE_CATALOG:
            para = built(name)
            gains = ridge_graph(name)
            for rid in gains:
                a, b = para.ridge_facets[rid]
                assert walk_gain(para, gains, (a, b)) * \
                    walk_gain(para, gains, (b, a)) == 1
                assert walk_gain(para, gains, (a, b, a)) == 1
            for belt in para.belts:
                if belt.length != 6:
                    continue
                assert half_belt_check(para, gains, belt) == 1
                assert walk_gain(para, gains, belt.facets + belt.facets[:1]) == 1
            for face in para.polytope.face_lattice.faces(para.dim - 3):
                res = local_cycle_check(para, face, gains)
                if not res.skipped:
                    assert res.product == 1
            # multiplicativity over random composable walks
            adjacency = ridge_neighbors(para, gains)
            checked = 0
            while checked < 100 and gains:
                start = rng.choice(
                    [f for f, ns in adjacency.items() if ns]
                )
                facets = [start]
                for _ in range(rng.randint(2, 8)):
                    nbrs = adjacency[facets[-1]]
                    if not nbrs:
                        break
                    facets.append(rng.choice(nbrs))
                if len(facets) < 3:
                    continue
                cut = rng.randint(1, len(facets) - 2)
                w1, w2 = tuple(facets[:cut + 1]), tuple(facets[cut:])
                assert walk_gain(para, gains, tuple(facets)) == \
                    walk_gain(para, gains, w1) * walk_gain(para, gains, w2)
                checked += 1


def _facet_map_under(para, image, a):
    """Facet index map induced by the linear bijection a (no shift)."""
    image_sets = {
        frozenset(image.polytope.vertices[i] for i in ids): fi
        for fi, ids in enumerate(image.polytope.facet_vertex_ids)
    }
    out = {}
    for fi, ids in enumerate(para.polytope.facet_vertex_ids):
        img = frozenset(
            linalg.matvec(a, para.polytope.vertices[i]) for i in ids
        )
        out[fi] = image_sets[img]
    return out


def test_criterion_4_invariance_suite():
    rng = random.Random(SEED + 4)
    with criterion(4, "affine and normal-rescaling invariance"):
        for name in POLYTOPE_CATALOG:
            para = built(name)
            gains = ridge_graph(name)
            base_verdict = verified(name)["verdict"]
            for _ in range(10):
                a = random_unimodular(rng, 3)
                image_p = apply_affine(
                    para.polytope,
                    a, [rng.randint(-3, 3) for _ in range(3)]
                )
                image = Parallelohedron.build(image_p)
                igains = build_ridge_graph(image)
                assert certify(image)[1]["verdict"] == base_verdict == "certified"
                fmap = _facet_map_under(para, image, linalg.mat(a))
                for belt in para.belts:
                    if belt.length != 6:
                        continue
                    for walk in (belt.facets + belt.facets[:1],
                                 belt.facets[:4], belt.facets[:3]):
                        mapped = tuple(fmap[f] for f in walk)
                        assert walk_gain(para, gains, walk) == \
                            walk_gain(image, igains, mapped)
            # per-facet positive rescaling of normals
            scale = {
                fi: F(rng.randint(1, 12), rng.randint(1, 12))
                for fi in range(para.polytope.n_facets)
            }
            scaled = per_ridge_graph(para, normal_scale=scale)
            for belt in para.belts:
                if belt.length != 6:
                    continue
                loop = belt.facets + belt.facets[:1]
                assert walk_gain(para, scaled, loop) == \
                    walk_gain(para, gains, loop)
            for face in para.polytope.face_lattice.faces(para.dim - 3):
                res = local_cycle_check(para, face, scaled)
                if not res.skipped:
                    assert res.product == 1


def test_criterion_5_delone_classification():
    with criterion(5, "dual 3-cell census realizes the five types"):
        expectations = {
            "cube": {"cube": 8},
            "hexagonal-prism": {"triangular prism": 12},
            "truncated-octahedron": {"tetrahedron": 24},
            "rhombic-dodecahedron": {"octahedron": 6, "tetrahedron": 8},
            "elongated-dodecahedron": {"quadrangular pyramid": 10,
                                       "tetrahedron": 8},
        }
        seen = set()
        for name, expected in expectations.items():
            census, anomalies = dual3_census(built(name))
            assert census == expected and anomalies == [], f"{name}: {census}"
            stored = {
                k: v for k, v in catalog(name).expected["dual3_census"].items()
                if k != "source"
            }
            assert census == stored
            seen |= set(census)
        assert seen == {"cube", "triangular prism", "tetrahedron",
                        "octahedron", "quadrangular pyramid"}


def test_criterion_6_negative_paths(capsys, tmp_path):
    with criterion(6, "negative inputs exit 3 / 3 / 1"):
        octa = Polytope.from_vertices(
            [(1, 0, 0), (-1, 0, 0), (0, 1, 0),
             (0, -1, 0), (0, 0, 1), (0, 0, -1)]
        )
        from parallo import serialize

        octa_path = tmp_path / "octahedron.json"
        octa_path.write_text(serialize.dumps(serialize.polytope_to_dict(octa)))
        code = cli_main(["verify", str(octa_path)])
        out = capsys.readouterr().out
        assert code == 3
        doc = json.loads(out)
        assert doc["venkov"]["witnesses"][0]["condition"] == "facet-symmetry"

        code = cli_main(["verify",
                         os.path.join(FIXTURES, "pentagon_prism.json")])
        capsys.readouterr()
        assert code == 3

        code = cli_main(["verify", os.path.join(FIXTURES, "corrupted.json")])
        capsys.readouterr()
        assert code == 1


def test_criterion_7_soundness_cross_check():
    rng = random.Random(SEED + 7)
    with criterion(7, "certified cells equal Voronoi cells; tiling covers"):
        for name in ALL_NAMES:
            rep = verified(name)
            assert rep["verdict"] == "certified"
            para = built(name)
            # oracle for the inequality proof in voronoi_form: rebuild
            # the Voronoi cell under the form the report prints
            gram = [[F(x) for x in row] for row in rep["certificate"]["gram"]]
            rebuilt = dv_cell(Lattice.create(para.lattice.basis, gram))
            assert rebuilt.vertices == para.polytope.vertices
            # tiling spot check in the plain coordinate metric: a sample
            # point is interior to exactly one translate, or (measure-zero
            # but possible with rational samples) on the shared boundary
            # of at least two
            tiling = Lattice.create(para.lattice.basis)
            cell = para.polytope
            d = cell.dim
            interior_hits = 0
            for _ in range(200):
                coeffs = [F(rng.randint(0, 996), 997) for _ in range(d)]
                x = tiling.from_coefficients(coeffs)
                closed, interior = covering_counts(tiling, cell, x)
                assert closed >= 1 and interior <= 1, (name, x)
                if interior == 1:
                    assert closed == 1, (name, x)
                    interior_hits += 1
                else:
                    assert closed >= 2, (name, x)
            assert interior_hits >= 190  # boundary hits are rare
