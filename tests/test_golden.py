"""Golden bytes: the verify report of every catalog entry and the OFF
export of every solid, as printed by `parallo verify NAME` and
`parallo export NAME --format off`, the `parallo catalog show NAME`
output of every entry (its cell's facets, its lattice and its expected
invariants), the `parallo surface NAME [--pi]` output of every 3-D
entry, which is the topology block of its verify report, and of the
2-D and 4-D lattices, the `parallo dual-cells NAME --codim k` output of
every entry, the `verify` report of the root lattices D5, D6, E6 and
E7 given by their Cartan Grams and of A4*, A5*, E6* and E7* given by
the inverses, the `venkov-fails` report of one input per Venkov condition,
the `scaling-fails` report of two doctored gain tables, and one
`form-not-pd` certificate.
Refactors must leave these bytes alone; a deliberate change to the
report format regenerates them."""

import json
import os
from fractions import Fraction

import pytest

from conftest import POLYTOPE_CATALOG, built, ridge_graph, verified
from parallo import report, scaling, serialize
from parallo.catalog import catalog, catalog_names
from parallo.cli import main
from parallo.scaling import canonical_scaling, voronoi_form

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
REPORTS = os.path.join(FIXTURES, "reports")


def _golden(filename: str) -> str:
    with open(os.path.join(REPORTS, filename), encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("name", catalog_names())
def test_verify_report_bytes(name):
    assert serialize.dumps(verified(name)) == _golden(f"{name}.json")


@pytest.mark.parametrize("name", POLYTOPE_CATALOG)
def test_off_export_bytes(name):
    off = serialize.polytope_to_off(catalog(name).polytope)
    assert off == _golden(f"{name}.off")


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_show_bytes(capsys, name):
    assert main(["catalog", "show", name]) == 0
    assert capsys.readouterr().out == _golden(f"{name}.catalog.json")


@pytest.mark.parametrize("surface", ["delta", "pi"])
@pytest.mark.parametrize(
    "name", POLYTOPE_CATALOG + ("lattice-Z3", "lattice-FCC", "lattice-BCC"))
def test_surface_command_bytes(capsys, name, surface):
    assert main(["surface", name] + (["--pi"] if surface == "pi" else [])) == 0
    report = json.loads(_golden(f"{name}.json"))
    assert capsys.readouterr().out == serialize.dumps(report["topology"][surface])


@pytest.mark.parametrize("surface", ["delta", "pi"])
@pytest.mark.parametrize("name, components", [("lattice-D4", 1), ("lattice-Z2", 4)])
def test_surface_command_bytes_beyond_d3(capsys, name, surface, components):
    """For d != 3 `parallo surface` prints the ridge-graph component
    count alone, under either surface."""
    assert main(["surface", name] + (["--pi"] if surface == "pi" else [])) == 0
    assert capsys.readouterr().out == (
        "{\n"
        f'  "ridge_components": {components},\n'
        f'  "surface": "{surface}",\n'
        '  "unsupported_dimension": true\n'
        "}\n")


def _dual_cell_cases():
    goldens = json.loads(_golden("dual-cells.json"))
    return [(name, int(k), doc) for name, by_codim in goldens.items()
            for k, doc in by_codim.items()]


@pytest.mark.parametrize("name, codim, doc", _dual_cell_cases())
def test_dual_cells_command_bytes(capsys, name, codim, doc):
    """`parallo dual-cells NAME --codim k` for every catalog entry and
    every k <= min(3, d), against `dual-cells.json`."""
    assert main(["dual-cells", name, "--codim", str(codim)]) == 0
    assert capsys.readouterr().out == serialize.dumps(doc)


@pytest.mark.parametrize("fixture, facets", [
    ("D5", 40),       # D_n: 2n(n - 1)
    ("E6", 72),
    ("E7", 126),
    ("A4star", 30),   # A_n*: 2^(n+1) - 2, the permutohedron
    ("D6", 60),
    ("A5star", 62),
    ("E6star", 126),  # computed
    ("E7star", 182),  # computed
])
def test_root_lattice_report_bytes(capsys, monkeypatch, fixture, facets):
    """A root lattice or its dual in d = 4-7, as the identity basis and
    its Cartan Gram or the Gram's inverse, certifies with the Gram
    matched. The cell of a root lattice has one facet per root (Conway
    & Sloane, ch. 21), and A_n*'s cell is the permutohedron; E6*'s and
    E7*'s counts were computed here."""
    monkeypatch.chdir(FIXTURES)
    assert main(["verify", f"{fixture}.json"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["ridge_graph"]["nodes"] == facets and doc["gram_match"]["matched"]
    assert out == _golden(f"{fixture}.json")


@pytest.mark.parametrize("fixture", [
    "octahedron",      # 8 facet-symmetry witnesses
    "pentagon_prism",  # central-symmetry
    "zonotope5",       # 40 belt witnesses of length 8, one per ridge
])
def test_venkov_failure_report_bytes(capsys, monkeypatch, fixture):
    # run beside the file, so the report's name is its bare file name
    monkeypatch.chdir(FIXTURES)
    assert main(["verify", f"{fixture}.json"]) == 3
    assert capsys.readouterr().out == _golden(f"{fixture}.json")


def _first_gain_tripled(para, gains):
    first = next(iter(gains))
    return {**gains, first: 3 * gains[first]}


def _cut_by_three(para, gains):
    """Gains times 3 from the facets whose normal's first nonzero entry
    is positive to the rest, and times 1/3 back: every cycle closes, but
    each facet ends a factor 3 from its opposite."""
    side = [next(x for x in n if x) > 0 for n in para.polytope.facet_normals]
    return {rid: gain * Fraction(3) ** (side[a] - side[b])
            for rid, gain in gains.items()
            for a, b in (para.ridge_facets[rid],)}


@pytest.mark.parametrize("doctor, golden", [
    (_first_gain_tripled, "truncated-octahedron-scaling-fails-cycle.json"),
    (_cut_by_three, "truncated-octahedron-scaling-fails-opposite.json"),
], ids=["cycle", "opposite-facet"])
def test_scaling_fails_report_bytes(monkeypatch, doctor, golden):
    """The `scaling-fails` report of the truncated octahedron under a
    doctored gain table: its witness walk, gain and exit code 2."""
    build = scaling.build_ridge_graph
    monkeypatch.setattr(scaling, "build_ridge_graph",
                        lambda para: doctor(para, build(para)))
    doc = report.verify(catalog("truncated-octahedron").polytope,
                        name="truncated-octahedron")
    assert (doc["verdict"], doc["exit_code"]) == ("scaling-fails", 2)
    assert serialize.dumps(doc) == _golden(golden)


def test_form_not_pd_certificate_bytes():
    """Negative control of the positive-definite test: the cube's
    scaling with the values of facet 0's group negated admits no
    positive-definite form, and the certificate keeps its 3-vector
    solution basis as the witness."""
    s, _ = canonical_scaling(built("cube"), ridge_graph("cube"))
    groups = s["components"]
    values = tuple(-v if g == groups[0] else v
                   for v, g in zip(s["values"], groups))
    cert = voronoi_form(built("cube"), {**s, "values": values})
    assert cert["verdict"] == "form-not-pd" and len(cert["solution_basis"]) == 3
    assert serialize.dumps(cert) == _golden("cube-form-not-pd.json")
