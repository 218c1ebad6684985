import json
from fractions import Fraction

import pytest

from parallo import serialize
from parallo.catalog import catalog
from parallo.errors import ParseError
from parallo.lattice import Lattice

F = Fraction


def test_rational_strings():
    assert serialize.rational_to_str(F(3, 4)) == "3/4"
    assert serialize.rational_to_str(F(-2)) == "-2"
    assert serialize.rational_from_str("3/4") == F(3, 4)
    assert serialize.rational_from_str("-2") == F(-2)
    assert serialize.rational_from_str(5) == F(5)
    with pytest.raises(ParseError):
        serialize.rational_from_str("1/0")
    with pytest.raises(ParseError):
        serialize.rational_from_str("x/2")
    with pytest.raises(ParseError):
        serialize.rational_from_str(0.5)


def printed(doc):
    """The document as `dumps` prints it, read back as JSON."""
    return json.loads(serialize.dumps(doc))


def test_polytope_round_trip_via_vertices():
    p = catalog("truncated-octahedron").polytope
    doc = printed(serialize.polytope_to_dict(p))
    q = serialize.polytope_from_dict({"dim": 3, "vertices": doc["vertices"]})
    assert q.vertices == p.vertices
    assert q.facet_normals == p.facet_normals


def test_polytope_round_trip_via_facets():
    p = catalog("cube").polytope
    doc = printed(serialize.polytope_to_dict(p))
    q = serialize.polytope_from_dict({"dim": 3, "facets": doc["facets"]})
    assert q.vertices == p.vertices


def test_dumps_writes_each_rational_once_and_refuses_other_objects():
    assert printed({"a": F(3), "b": 3, "c": (F(-1, 2), F(0))}) == {
        "a": "3", "b": 3, "c": ["-1/2", "0"]}
    assert serialize.dumps([F(3), 3]) == '[\n  "3",\n  3\n]\n'
    # negative controls: JSON cannot hold these, and no rational reads them
    for bad in (object(), {1, 2}, {"x": [F(1), object()]}):
        with pytest.raises(TypeError):
            serialize.dumps(bad)


def test_dumps_refuses_a_rational_past_the_digit_limit():
    huge = F(10 ** serialize._DIGITS + 1, 3)
    with pytest.raises(ParseError, match="too long to print"):
        serialize.dumps({"x": huge})
    with pytest.raises(ParseError, match="too long to print"):
        serialize.dumps({"x": [F(1), F(1, 10 ** serialize._DIGITS)]})


def test_polytope_parse_errors():
    with pytest.raises(ParseError):
        serialize.polytope_from_dict({"vertices": [["0"]]})
    with pytest.raises(ParseError):
        serialize.polytope_from_dict({"dim": 2})
    with pytest.raises(ParseError):
        serialize.polytope_from_dict(
            {"dim": 2, "vertices": [["0", "0", "0"]]}
        )
    with pytest.raises(ParseError):
        serialize.polytope_from_dict(
            {"dim": 2, "facets": [{"normal": ["1", "0"]}]}
        )


def test_lattice_documents():
    lat = catalog("lattice-A2-gram").lattice
    again = serialize.load_document(
        serialize.dumps(serialize.lattice_to_dict(lat)))
    assert again.basis == lat.basis and again.gram == lat.gram
    default = serialize.lattice_from_dict({"basis": [["1", "0"], ["0", "1"]]})
    assert isinstance(default, Lattice)
    assert default.gram == ((F(1), F(0)), (F(0), F(1)))
    with pytest.raises(ParseError):
        serialize.lattice_from_dict({})


def test_load_document_dispatch():
    assert isinstance(
        serialize.load_document('{"basis": [["1","0"],["0","1"]]}'), Lattice
    )
    p = serialize.load_document(
        '{"dim": 1, "vertices": [["0"], ["1"]]}'
    )
    assert p.dim == 1
    with pytest.raises(ParseError) as err:
        serialize.load_document("{broken")
    assert "line" in str(err.value)


def test_off_export_exact_decimals():
    cube = catalog("cube").polytope
    off = serialize.polytope_to_off(cube)
    lines = off.splitlines()
    assert lines[0] == "OFF"
    assert lines[1] == "8 6 12"
    assert lines[2].split()[:3] == ["-0.5", "-0.5", "-0.5"]
    assert "#exact" not in off
    # facet rows reference valid vertices and close up
    for row in lines[10:]:
        parts = row.split()
        assert int(parts[0]) == len(parts) - 1 == 4


def test_off_export_inexact_comment():
    prism = catalog("hexagonal-prism").polytope
    off = serialize.polytope_to_off(prism)
    assert "#exact" in off
    first = off.splitlines()[2]
    assert "1/3" in first


def test_dumps_stable():
    doc = {"b": 1, "a": [2, 3]}
    assert serialize.dumps(doc) == serialize.dumps({"a": [2, 3], "b": 1})
