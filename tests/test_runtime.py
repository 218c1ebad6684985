"""The runtime stays stdlib-only: importing every `parallo` module loads
nothing from outside the standard library. And start-up stays lean:
importing the CLI generates no code, and each stage is imported only
when a verdict first needs it."""

import json
import os
import pkgutil
import subprocess
import sys

import parallo

SCRIPT = """
import importlib, json, pkgutil, sys
import parallo
for mod in pkgutil.iter_modules(parallo.__path__):
    importlib.import_module("parallo." + mod.name)
print(json.dumps(sorted(sys.modules)))
"""


def test_every_module_imports_only_the_standard_library():
    src = os.path.dirname(os.path.dirname(parallo.__file__))
    # -S: no site-packages, so nothing a .pth file preloads is counted
    out = subprocess.run(
        [sys.executable, "-S", "-c", SCRIPT], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, check=True,
    )
    loaded = json.loads(out.stdout)
    names = {m.name for m in pkgutil.iter_modules(parallo.__path__)}
    assert {"parallo." + n for n in names} <= set(loaded)
    outside = sorted(
        m for m in loaded
        if m != "__main__" and m.split(".")[0] != "parallo"
        and m.split(".")[0] not in sys.stdlib_module_names
    )
    assert outside == []


# -- start-up: each stage is imported when a verdict first needs it ----

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ZONOTOPE = os.path.join(ROOT, "tests", "fixtures", "zonotope5.json")
OCTAHEDRON = os.path.join(ROOT, "tests", "fixtures", "octahedron.json")
# `dataclasses` imports `inspect` and builds methods with `exec`; `typing`
# would serve annotations only
HEAVY_STDLIB = {"dataclasses", "inspect", "typing"}
LATER_STAGES = {"parallo.lattice", "parallo.parallelohedron", "parallo.scaling",
                "parallo.topology", "parallo.catalog"}
TILING_STAGES = {"parallo.lattice", "parallo.parallelohedron"}


def modules_after(code: str) -> set[str]:
    """The modules loaded once `code` has run in a fresh `python -S`."""
    src = os.path.dirname(os.path.dirname(parallo.__file__))
    script = (code + "\nimport json, sys\n"
              "print(json.dumps(sorted(sys.modules)), file=sys.stderr)\n")
    out = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, cwd=ROOT, check=True,
    )
    return set(json.loads(out.stderr.splitlines()[-1]))


def test_importing_the_cli_loads_no_later_stage_and_no_code_generator():
    loaded = modules_after("import parallo.cli")
    assert loaded & (HEAVY_STDLIB | LATER_STAGES) == set()


def test_the_cli_reads_its_arguments_without_argparse():
    """`parallo verify` reads its arguments from the command table, so
    neither the import nor a verdict loads argparse."""
    loaded = modules_after(
        "from parallo import cli\n"
        f"assert cli.main(['verify', {ZONOTOPE!r}]) == 3")
    assert "argparse" not in loaded


def rejection_loads(path: str) -> set[str]:
    loaded = modules_after(
        "from parallo import cli\n"
        f"assert cli.main(['verify', {path!r}]) == 3")
    assert "parallo.venkov" in loaded
    return loaded


def test_a_venkov_rejection_loads_neither_scaling_nor_topology():
    """A belt rejection stops at `venkov`: no lattice, tiling, scaling,
    topology or catalog code is loaded."""
    assert rejection_loads(ZONOTOPE) & LATER_STAGES == set()


def test_a_facet_symmetry_rejection_loads_no_later_stage():
    assert rejection_loads(OCTAHEDRON) & LATER_STAGES == set()


def test_a_certified_3d_verdict_loads_scaling_and_topology():
    loaded = modules_after(
        "from parallo import cli\n"
        "assert cli.main(['verify', 'truncated-octahedron']) == 0")
    assert LATER_STAGES <= loaded
    assert loaded & HEAVY_STDLIB == set()


def test_a_lattice_document_loads_the_lattice_and_tiling_stages(tmp_path):
    """The negative control of the rejection test: reading a lattice
    document loads `lattice`, and certifying its cell `parallelohedron`."""
    doc = tmp_path / "z2.json"
    doc.write_text(json.dumps({"basis": [["1", "0"], ["0", "1"]]}))
    loaded = modules_after(
        "from parallo import cli\n"
        f"assert cli.main(['verify', {str(doc)!r}]) == 0")
    assert TILING_STAGES <= loaded


def test_every_exported_name_resolves():
    modules_after(
        "import parallo\n"
        "for name in parallo.__all__:\n"
        "    assert getattr(parallo, name) is not None, name\n"
        "scope = {}\n"
        "exec('from parallo import *', scope)\n"
        "assert set(parallo.__all__) <= set(scope)\n"
        "from parallo import Lattice, Polytope, surface_topology\n"
        "from parallo.topology import surface_topology as same\n"
        "assert surface_topology is same\n"
        "try:\n"
        "    parallo.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('unknown names must raise AttributeError')\n")
