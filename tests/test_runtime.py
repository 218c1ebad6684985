"""The runtime stays stdlib-only: importing every `parallo` module loads
nothing from outside the standard library."""

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
