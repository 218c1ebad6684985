import contextlib
import functools
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parallo
from conftest import POLYTOPE_CATALOG, fixture_polytope
from parallo import catalog, cli, lattice
from parallo.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    names = json.loads(out)["names"]
    assert "cube" in names and "lattice-D4" in names
    assert len(names) == 11


def test_catalog_show(capsys):
    code, out, _ = run(capsys, "catalog", "show", "cube")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "polytope"
    assert doc["expected"]["belts"] == {"4": 3, "6": 0, "source": "definitional"}
    assert len(doc["polytope"]["vertices"]) == 8


def test_catalog_show_unknown(capsys):
    code, _, err = run(capsys, "catalog", "show", "dodecahedron")
    assert code == 1
    assert "unknown catalog name" in err


@pytest.mark.parametrize("command", ["verify", "check", "export"])
def test_a_missing_input_file_gets_one_error_line(capsys, command):
    """An argument that is neither a file nor a catalog name is reported
    as such, with the catalog names, and not as an unknown name."""
    code, out, err = run(capsys, command, "no/such/file.json")
    assert (code, out) == (1, "")
    assert err.startswith("error: no such file or catalog name "
                          "'no/such/file.json'; catalog names: cube, ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [["catalog", "show"], ["catalog", "list", "cube"]],
                         ids=["show-without-name", "list-with-name"])
def test_catalog_name_misuse_gets_the_usage_line(capsys, argv):
    """`show` needs a NAME and `list` takes none; either mistake is a
    usage error, with the command's usage line."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error: usage: parallo catalog list|show [NAME]\n"


def test_check_pass_and_fail(capsys):
    code, out, _ = run(capsys, "check", "cube")
    assert code == 0 and json.loads(out)["ok"]
    code, out, _ = run(capsys, "check",
                       os.path.join(FIXTURES, "pentagon_prism.json"))
    assert code == 3
    doc = json.loads(out)
    assert not doc["ok"]
    assert doc["witnesses"]


def test_verify_certified(capsys):
    code, out, _ = run(capsys, "verify", "truncated-octahedron")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "certified"
    assert doc["certificate"]["gram"] == [["2", "0", "0"],
                                          ["0", "2", "0"],
                                          ["0", "0", "2"]]
    assert doc["timing_ms"] is None
    assert sorted(doc["scaling"]["values"]) == ["1"] * 8 + ["2"] * 6



D4_DOCUMENT = {"basis": [["1", "-1", "0", "0"], ["0", "1", "-1", "0"],
                         ["0", "0", "1", "-1"], ["0", "0", "1", "1"]]}
STAGES_TO_CERTIFY = ["venkov", "tiling", "profile", "certify"]


@pytest.mark.parametrize("name, fixture, exit_code, stages", [
    ("cube", "cube", 0, STAGES_TO_CERTIFY + ["topology"]),
    ("octahedron.json", "octahedron", 3, ["venkov"]),
    ("d4.json", None, 0, ["cell"] + STAGES_TO_CERTIFY),
], ids=["solid", "venkov-fails", "lattice-document"])
def test_verify_timing_changes_only_timing_ms(monkeypatch, tmp_path, capsys,
                                              name, fixture, exit_code,
                                              stages):
    """`--timing` fills `timing_ms` with the milliseconds of the whole
    run, `total`, and of each stage that ran: a lattice document's cell,
    and after a Venkov rejection no stage past the checks. Each is
    non-negative and rounded to 3 decimals, and the stages, run one after
    another, take at most the total. Every other key is the report
    without `--timing`, and a fixture's is the golden."""
    # a file report's name is the path as typed
    monkeypatch.chdir(FIXTURES if fixture else tmp_path)
    if fixture is None:
        (tmp_path / name).write_text(json.dumps(D4_DOCUMENT))
    code, plain, _ = run(capsys, "verify", name)
    assert code == exit_code
    if fixture is not None:
        with open(os.path.join(FIXTURES, "reports", f"{fixture}.json"),
                  encoding="utf-8") as fh:
            assert plain == fh.read()
    code, out, _ = run(capsys, "verify", name, "--timing")
    assert code == exit_code
    doc, golden = json.loads(out), json.loads(plain)
    timing = doc.pop("timing_ms")
    assert golden.pop("timing_ms") is None
    assert doc == golden
    assert sorted(timing) == sorted(stages + ["total"])
    assert all(isinstance(t, float) and t >= 0 and round(t, 3) == t
               for t in timing.values())
    # each rounded value is off by at most half a microsecond
    slack = 5e-4 * len(timing)
    assert sum(timing[s] for s in stages) <= timing["total"] + slack


def test_verify_builds_a_catalog_cell_once(monkeypatch, capsys):
    """`verify lattice-D4` builds the Voronoi cell for the catalog entry
    and reads the same cell in the pipeline."""
    calls = []
    dv_cell = lattice.dv_cell

    def counted(lat):
        calls.append(lat)
        return dv_cell(lat)

    monkeypatch.setattr(lattice, "dv_cell", counted)
    # a fresh catalog cache, so the entry is built inside this test
    monkeypatch.setattr(catalog, "catalog",
                        functools.lru_cache(None)(catalog.catalog.__wrapped__))
    code, out, _ = run(capsys, "verify", "lattice-D4")
    assert code == 0 and len(calls) == 1
    with open(os.path.join(FIXTURES, "reports", "lattice-D4.json"),
              encoding="utf-8") as fh:
        assert out == fh.read()


def test_a_fresh_catalog_entry_builds_no_cell(monkeypatch):
    """A catalog entry leaves its lattice's cell to the first reader, so
    `verify` of a lattice entry builds it inside its `cell` stage."""
    calls = []
    dv_cell = lattice.dv_cell
    monkeypatch.setattr(lattice, "dv_cell",
                        lambda lat: calls.append(lat) or dv_cell(lat))
    entry = catalog.catalog.__wrapped__("lattice-D4")
    assert calls == []
    assert entry.polytope is entry.lattice.cell and calls == [entry.lattice]


def test_verify_exit_codes(capsys):
    code, _, _ = run(capsys, "verify",
                     os.path.join(FIXTURES, "pentagon_prism.json"))
    assert code == 3
    code, _, _ = run(capsys, "verify",
                     os.path.join(FIXTURES, "perturbed_prism.json"))
    assert code == 3
    code, _, err = run(capsys, "verify",
                       os.path.join(FIXTURES, "corrupted.json"))
    assert code == 1
    assert "line" in err


def test_verify_byte_stability(capsys):
    _, out1, _ = run(capsys, "verify", "hexagonal-prism")
    _, out2, _ = run(capsys, "verify", "hexagonal-prism")
    assert out1 == out2


def test_surface_reports(capsys):
    code, out, _ = run(capsys, "surface", "elongated-dodecahedron")
    assert code == 0
    doc = json.loads(out)
    assert doc["surface"] == "delta"
    assert doc["component_count"] == 1
    assert doc["components"][0]["chi"] == -2
    assert doc["components"][0]["h1_rank"] == 3
    assert doc["flags"] == []

    code, out, _ = run(capsys, "surface", "elongated-dodecahedron", "--pi")
    doc = json.loads(out)
    assert doc["surface"] == "pi"
    assert doc["components"][0]["h1_rank"] == 2
    flags = doc["flags"]
    assert len(flags) == 1
    assert flags[0]["reference"] == [1]
    assert flags[0]["computed"] == [2]
    assert flags[0]["reference_disputed"] is True


def test_surface_d4_falls_back_to_connectivity(capsys):
    code, out, _ = run(capsys, "surface", "lattice-D4")
    assert code == 0
    doc = json.loads(out)
    assert doc["unsupported_dimension"] is True
    assert doc["ridge_components"] == 1


def test_dual_cells_command(capsys):
    code, out, _ = run(capsys, "dual-cells", "rhombic-dodecahedron",
                       "--codim", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["census"] == {"octahedron": 6, "tetrahedron": 8}
    code, out, _ = run(capsys, "dual-cells", "hexagonal-prism",
                       "--codim", "2")
    doc = json.loads(out)
    assert doc["census_by_center_count"] == {"3": 6, "4": 12}
    code, _, err = run(capsys, "dual-cells", "cube", "--codim", "9")
    assert code == 1


def test_dual_cells_checks_codim_before_the_venkov_checks(monkeypatch,
                                                          capsys):
    """The input's dimension alone decides the --codim range, so an
    out-of-range value is the error even for an input Venkov rejects,
    and it runs no Venkov check."""
    from parallo import parallelohedron, report, venkov

    calls = []
    analyze = venkov._analyze

    def counted(p):
        calls.append(p)
        return analyze(p)

    for module in (venkov, parallelohedron, report):
        monkeypatch.setattr(module, "_analyze", counted)
    for name in (os.path.join(FIXTURES, "zonotope5.json"), "lattice-D4"):
        code, out, err = run(capsys, "dual-cells", name, "--codim", "9")
        assert (code, out) == (1, "")
        assert err == "error: --codim must be between 1 and 3\n"
    assert calls == []


def test_dual_cells_reports_anomalies_and_exits_4(monkeypatch, capsys):
    """A dual 3-cell that matches none of the reference types is listed,
    not counted, and the command exits 4: with the tetrahedron taken out
    of the table, every one of the truncated octahedron's 24 cells is
    an anomaly."""
    from parallo import parallelohedron

    monkeypatch.setattr(parallelohedron, "DUAL3_TYPES", {
        key: kind for key, kind in parallelohedron.DUAL3_TYPES.items()
        if kind != "tetrahedron"})
    code, out, _ = run(capsys, "dual-cells", "truncated-octahedron",
                       "--codim", "3")
    assert code == 4
    doc = json.loads(out)
    assert (doc["cells"], doc["census"], len(doc["anomalies"])) == (24, {}, 24)
    assert all("matches none of the five reference types" in a["detail"]
               for a in doc["anomalies"])
    assert len({tuple(a["face_vertex_ids"]) for a in doc["anomalies"]}) == 24


def test_voronoi_cell_command(capsys):
    code, out, _ = run(capsys, "voronoi-cell", "lattice-Z3")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 3
    assert len(doc["vertices"]) == 8
    assert all(x in ("1/2", "-1/2") for v in doc["vertices"] for x in v)
    code, _, err = run(capsys, "voronoi-cell", "cube")
    assert code == 1
    assert "lattice" in err


def test_export_json_and_off(tmp_path, capsys):
    out_path = tmp_path / "cube.json"
    code, _, _ = run(capsys, "export", "cube", "--format", "json",
                     "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert len(doc["facets"]) == 6
    code, out, _ = run(capsys, "export", "cube", "--format", "off")
    assert code == 0
    assert out.startswith("OFF\n8 6 12\n")
    off_path = tmp_path / "cube.off"
    code, out, _ = run(capsys, "export", "cube", "--format", "off",
                       "--out", str(off_path))
    assert (code, out) == (0, "")
    with open(os.path.join(FIXTURES, "reports", "cube.off"),
              encoding="utf-8") as fh:
        assert off_path.read_text() == fh.read()


@pytest.mark.parametrize("target", [".", "missing/dir/x.off"],
                         ids=["a-directory", "a-missing-directory"])
@pytest.mark.parametrize("fmt", ["json", "off"])
def test_export_to_an_unwritable_path_gets_one_error_line(tmp_path, capsys,
                                                          target, fmt):
    path = str(tmp_path / target)
    code, out, err = run(capsys, "export", "cube", "--format", fmt,
                         "--out", path)
    assert (code, out) == (1, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot write {path}: ")


def test_verify_a_file_round_trip(tmp_path, capsys):
    code, out, _ = run(capsys, "export", "truncated-octahedron",
                       "--format", "json")
    path = tmp_path / "to.json"
    path.write_text(out)
    code, out2, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert json.loads(out2)["verdict"] == "certified"


def test_file_report_name_is_the_path_as_typed(monkeypatch, capsys):
    """The benchmark's report check compares `name` with the path it
    passed, so file reports keep the path exactly as typed."""
    monkeypatch.chdir(os.path.dirname(os.path.dirname(FIXTURES)))
    code, out, _ = run(capsys, "verify", "tests/fixtures/octahedron.json")
    assert code == 3
    assert json.loads(out)["name"] == "tests/fixtures/octahedron.json"


SQUARE = [["1", "1"], ["1", "-1"], ["-1", "1"], ["-1", "-1"]]


@pytest.mark.parametrize("doc, names", [
    ({"dim": True, "vertices": [["0"], ["1"]]}, '"dim"'),
    ({"dim": 0, "vertices": [[]]}, '"dim"'),
    ({"dim": -1, "vertices": SQUARE}, '"dim"'),
    ({"dim": 2, "facets": [{"normal": ["0", "0"], "offset": "1"},
                           {"normal": ["1", "0"], "offset": "1"}]},
     "zero vector"),
    ({"dim": 2, "vertices": "square"}, '"vertices"'),
    ({"basis": [["1", "0"], ["1"]]}, "basis"),
    ({"basis": [["1", "0"], ["0", "1"]],
      "gram": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}, "gram"),
    ({"basis": []}, '"basis"'),
    ({"dim": 2, "vertices": [[0, 0], [True, 0], [0, True], [True, True]]},
     "vertices[1]"),
], ids=["bool-dim", "zero-dim", "negative-dim", "zero-normal",
        "vertices-not-a-list", "ragged-basis", "gram-wrong-size", "empty-basis",
        "bool-coordinate"])
def test_malformed_documents_get_one_error_line(tmp_path, capsys, doc, names):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert names in lines[0]
    assert "Traceback" not in err


def test_a_deeply_nested_document_gets_one_error_line(tmp_path, capsys):
    """`json` reads nesting by recursion, so 100000 open brackets raise
    RecursionError inside the parser."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: invalid JSON: nested too deeply to read"]


def test_a_value_error_from_a_stage_gets_one_error_line(monkeypatch, capsys):
    """`linalg` raises ValueError on a malformed matrix; from any stage,
    it is one error line and exit code 1, not a traceback."""
    from parallo import linalg

    def refused(m):
        raise ValueError("positive definiteness requires a symmetric matrix")

    monkeypatch.setattr(linalg, "is_positive_definite", refused)
    code, out, err = run(capsys, "verify", "cube")
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        "error: positive definiteness requires a symmetric matrix"]


def test_a_document_that_is_not_utf8_gets_one_error_line(tmp_path, capsys):
    """Reading the file raises UnicodeDecodeError, a ValueError."""
    path = tmp_path / "latin1.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: 'utf-8' codec")


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs the /dev/full device")
@pytest.mark.parametrize("command", [["export", "cube"], ["verify", "cube"],
                                     ["verify", "--help"]])
def test_a_full_stdout_gets_one_error_line(command):
    """Every write to /dev/full fails with ENOSPC. The report's write and
    flush fail inside the CLI, and the flush at exit must not fail again:
    one error line, exit code 1. Buffered stdout, as in a plain shell."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(parallo.__file__))
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "parallo.cli", *command],
                              stdout=full, stderr=subprocess.PIPE, text=True,
                              env=env)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write stdout: ")
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


ONE_DIMENSIONAL = {
    "segment": {"dim": 1, "vertices": [["0"], ["1"]]},
    "lattice": {"basis": [["1"]]},
}


@pytest.mark.parametrize("command", [["check"], ["verify"], ["surface"],
                                     ["dual-cells", "--codim", "1"]],
                         ids=["check", "verify", "surface", "dual-cells"])
@pytest.mark.parametrize("kind", sorted(ONE_DIMENSIONAL))
def test_one_dimensional_inputs_are_unsupported(tmp_path, capsys, kind, command):
    """A segment tiles the line, so no Venkov verdict may reject it: d = 1
    exits 1 with one error line instead of a confident venkov-fails."""
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(ONE_DIMENSIONAL[kind]))
    code, out, err = run(capsys, command[0], str(path), *command[1:])
    assert (code, out) == (1, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: dimension 1 ")


@pytest.mark.parametrize("kind", sorted(ONE_DIMENSIONAL))
def test_one_dimensional_inputs_still_export(tmp_path, capsys, kind):
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(ONE_DIMENSIONAL[kind]))
    code, out, _ = run(capsys, "export", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 1 and len(doc["vertices"]) == 2


def test_a_flat_vertex_document_gets_one_error_line(tmp_path, capsys):
    """Four coplanar points with "dim": 3 have no 3-dimensional hull."""
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({"dim": 3, "vertices": [
        ["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"], ["1", "1", "0"]]}))
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out) == (1, "")
    assert err == "error: input is not full-dimensional\n"


SHIFTED_COMMANDS = [["verify"], ["check"], ["surface"], ["surface", "--pi"]] + [
    ["dual-cells", "--codim", str(k)] for k in (1, 2, 3)]


@pytest.mark.parametrize("name", POLYTOPE_CATALOG + (
    "fixture:octahedron", "fixture:zonotope5", "fixture:pentagon_prism"))
def test_a_shifted_input_gives_the_same_output(tmp_path, monkeypatch, capsys,
                                               name):
    """The Venkov stage puts the centre of symmetry at the origin, so a
    copy shifted by a rational vector prints the same bytes and exit code
    as the original for every command; both documents are read as
    `p.json`, so even the report's name agrees."""
    p = (fixture_polytope(name[len("fixture:"):]) if name.startswith("fixture:")
         else catalog.catalog(name).polytope)
    shift = (F(1, 3), F(-2), F(5, 7))
    for label, offset in (("original", (0, 0, 0)), ("shifted", shift)):
        (tmp_path / label).mkdir()
        (tmp_path / label / "p.json").write_text(json.dumps({
            "dim": 3, "vertices": [[str(x + t) for x, t in zip(v, offset)]
                                   for v in p.vertices]}))
    for command in SHIFTED_COMMANDS:
        outputs = []
        for label in ("original", "shifted"):
            monkeypatch.chdir(tmp_path / label)
            outputs.append(run(capsys, command[0], "p.json", *command[1:]))
        assert outputs[0] == outputs[1], command


@pytest.mark.parametrize("command", ["verify", "export"])
@pytest.mark.parametrize("x, says", [
    ("1e5000", "the exponent of '1e5000' would give more than"),
    ("12345e4298", "a rational is too long to print"),
], ids=["exponent-past-the-digit-limit", "numerator-past-the-digit-limit"])
def test_a_cube_past_the_digit_limit_gets_one_error_line(tmp_path, capsys,
                                                         command, x, says):
    """Python prints no int of more than 4300 digits. 1e5000 is refused
    while it is still a string; 12345e4298 reads, but its numerator has
    too many digits to print."""
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"dim": 3, "vertices": [
        [f"{sign}{x}" for sign in signs]
        for signs in product(("", "-"), repeat=3)]}))
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (1, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert says in lines[0]


def test_off_export_past_the_float_range_gets_one_error_line(tmp_path,
                                                              capsys):
    """10^400 / 3 has no exact decimal, and its float overflows."""
    x = "1" + "0" * 400 + "/3"
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"dim": 3, "vertices": [
        [f"{sign}{x}" for sign in signs]
        for signs in product(("", "-"), repeat=3)]}))
    code, out, err = run(capsys, "export", str(path), "--format", "off")
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: a coordinate is past the float "
                                "range of OFF"]


@pytest.mark.parametrize("argv", [
    [], ["verify"], ["frobnicate"], ["dual-cells", "cube", "--codim", "x"],
    ["dual-cells", "cube"], ["export", "cube", "--format", "svg"],
    ["export", "cube", "--out"], ["verify", "cube", "--no-such-flag"],
    ["verify", "cube", "--timing=yes"], ["verify", "cube", "cube"],
    ["catalog", "browse"],
], ids=["no-command", "verify-without-input", "unknown-command",
        "codim-not-an-integer", "codim-missing", "format-not-a-choice",
        "option-without-value", "unknown-option", "flag-with-value",
        "extra-argument", "action-not-a-choice"])
def test_usage_errors_get_one_error_line_and_exit_1(capsys, argv):
    """Exit code 2 means inconsistent gain cycles, so a usage error exits
    1 like any other input error."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("argv", [["-h"], ["--help"]]
                         + [[command, "--help"] for command in cli.COMMANDS]
                         + [["verify", "cube", "-h"]])
def test_help_exits_0(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: parallo ")
    for command, spec in cli.COMMANDS.items():
        if argv[0] == command:
            assert all(key in out for key in spec[3])


def test_options_go_anywhere_and_take_an_equals_sign(capsys):
    _, before, _ = run(capsys, "export", "cube", "--format", "off")
    _, after, _ = run(capsys, "export", "--format=off", "cube")
    assert before == after and before.startswith("OFF\n")
    code, out, _ = run(capsys, "dual-cells", "--codim=2", "hexagonal-prism")
    assert code == 0
    assert json.loads(out)["census_by_center_count"] == {"3": 6, "4": 12}


@pytest.mark.parametrize("command", [
    ["verify"], ["check"], ["surface"], ["dual-cells", "--codim", "1"],
    ["voronoi-cell"], ["export"]])
@pytest.mark.parametrize("aspect", ["1000000", "1e4000"])
def test_a_thin_lattice_succeeds_on_every_command(tmp_path, capsys, command, aspect):
    """The Voronoi cell of a thin lattice is a long rectangle. Each
    graded class search of its relevant vectors walks a handful of
    nodes, however long the rectangle, so every command succeeds and
    `verify` certifies."""
    path = tmp_path / "thin.json"
    path.write_text(json.dumps({"basis": [[aspect, 0], [0, 1]]}))
    code, out, err = run(capsys, command[0], str(path), *command[1:])
    assert (code, err) == (0, "")
    assert command != ["verify"] or json.loads(out)["verdict"] == "certified"


@pytest.mark.parametrize("command", ["verify", "check"])
def test_a_lattice_past_the_node_budget_gets_one_error_line(tmp_path, capsys, command):
    """Z^12 in its identity basis: the class search with top level m
    has radius m + 1, and the one with m = 10 needs more than 10^6
    nodes, so the command stops at the enumeration budget instead of
    hanging."""
    path = tmp_path / "z12.json"
    path.write_text(json.dumps(
        {"basis": [[int(i == j) for j in range(12)] for i in range(12)]}))
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        "error: lattice enumeration needs more than 1000000 nodes; "
        "the input is too large, too thin or too skewed"]


def test_a_thin_rectangle_given_by_its_vertices_certifies(tmp_path, capsys):
    """The cell of the 10^6 x 1 lattice above, given as its four
    vertices, certifies: its tiles are read off the classes of its
    vertices, and the graded class searches of the Voronoi proof stay
    small under the recovered form."""
    path = tmp_path / "thin.json"
    half = ["500000", "-500000"]
    path.write_text(json.dumps({"dim": 2, "vertices": [
        [x, y] for x in half for y in ("1/2", "-1/2")]}))
    code, out, err = run(capsys, "verify", str(path))
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["verdict"] == "certified"
    assert [belt["length"] for belt in doc["belts"]] == [4]
    assert doc["certificate"]["gram"] == [["1", "0"], ["0", "1"]]


RATIONALS = st.builds(lambda p, q: str(p) if q == 1 else f"{p}/{q}",
                      st.integers(-4, 4), st.integers(1, 3))
ENTRIES = st.one_of(RATIONALS, RATIONALS, st.integers(-3, 3), st.booleans(),
                    st.floats(-2, 2), st.sampled_from(["x", "", "1/0", None]),
                    st.lists(st.integers(0, 1), max_size=2))


@st.composite
def documents(draw):
    """A polytope or lattice document of dimension 1-3: mostly well
    formed, with some ragged rows and some boolean, float, string or
    nested entries."""
    d = draw(st.integers(1, 3))
    entries = draw(st.sampled_from([RATIONALS, ENTRIES]))

    def rows(n):
        return draw(st.lists(st.lists(entries, min_size=d - draw(
            st.sampled_from([0, 0, 0, 1])), max_size=d), min_size=n, max_size=n))

    kind = draw(st.sampled_from(["vertices", "facets", "lattice"]))
    if kind == "lattice":
        doc = {"basis": rows(d)}
        if draw(st.booleans()):
            doc["gram"] = rows(d)
        return doc
    if kind == "vertices":
        return {"dim": d, "vertices": rows(draw(st.integers(1, 2 ** d + 2)))}
    return {"dim": d, "facets": [
        {"normal": normal, "offset": draw(entries)}
        for normal in rows(draw(st.integers(1, 2 * d + 2)))]}


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


@given(doc=documents())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_verify_on_generated_documents_exits_with_a_known_code(fuzz_path, doc):
    """Every document ends in an exit code of 0-4, and an error in one
    `error:` line; nothing escapes `main`."""
    fuzz_path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(fuzz_path)])
    assert code in range(5)
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
    else:
        assert err.getvalue() == "" and json.loads(out.getvalue())
