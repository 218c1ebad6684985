"""Run `parallo` with a span around each public function of its layers.

Usage (from the root of a checkout, with ``src`` on PYTHONPATH):

    python3 perfbench/shim.py SPANS.json verify FILE

The shim imports the program, replaces every public function and method of
the layer modules with a wrapper that records a span, calls `cli.main` with
the remaining arguments and, at exit, writes the spans to SPANS.json. The
program itself is not changed: the report on stdout and the exit code are
those of `parallo verify FILE`.

A span is (name, parent span, start, end) in nanoseconds of this process's
monotonic clock. A few spans also carry work counts taken from the wrapped
call's arguments or result (see `_WORK`).

The linalg vector primitives and the per-point predicates in `_SKIP` are
not wrapped: they run once per coordinate or per point, millions of times
on one input, so a span around each would cost more than the work it times.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import json
import math
import sys
import time

LAYERS = ("linalg", "polytope", "lattice", "parallelohedron", "scaling",
          "topology", "report", "serialize", "cli")
ROW = 6  # numbers per span in Recorder.spans

_SKIP = frozenset({
    "linalg.frac", "linalg.vec", "linalg.mat", "linalg.zeros", "linalg.identity",
    "linalg.vadd", "linalg.vsub", "linalg.vneg", "linalg.vscale", "linalg.dot",
    "linalg.matvec", "linalg.transpose", "linalg.is_symmetric",
    "linalg.normalize_primitive", "linalg.scale_to_content_one",
    "linalg.floor_sqrt",
    "polytope.Polytope.contains", "polytope.Face.center_in",
    "lattice.Lattice.inner", "lattice.Lattice.norm_sq",
    "lattice.Lattice.from_coefficients",
    "scaling.RidgeGraph.gain", "scaling.Walk.reversed", "scaling.Walk.then",
    "serialize.rational_to_str", "serialize.rational_from_str",
    "serialize.vector_to_strs", "serialize.vector_from_strs",
})


class Recorder:
    """Spans of one process, kept in memory until `dump`."""

    def __init__(self):
        self.names: list[str] = []
        # flat rows of (name id, parent row or -1, start ns, end ns, work a,
        # work b); an array, not lists, so the garbage collector never scans
        # the hundreds of thousands of spans of one input
        self.spans = array.array("q")
        self._stack = [-1]
        self._paused = False

    def wrap(self, name: str, fn, work=None):
        """`fn` with a span named `name` around every call.

        `work(args, kwargs, result)` returns the span's work counts; it runs
        after the span ends, with recording paused so any program code it
        calls makes no spans.
        """
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            at = len(spans)
            stack.append(at // ROW)
            spans.extend((nid, stack[-2], clock(), 0, 0, 0))
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[at + 3] = clock()
                stack.pop()
            if work is not None:
                self._paused = True
                try:
                    spans[at + 4], spans[at + 5] = work(args, kwargs, result)
                finally:
                    self._paused = False
            return result

        return traced

    def dump(self, path: str, main_start: float):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans.tolist(),
                       "main_start_monotonic": main_start}, fh,
                      separators=(",", ":"))


def _rref_cells(args, kwargs, result):
    m = args[0] if args else kwargs["m"]
    return len(m) * (len(m[0]) if m else 0), 0


def _face_count(args, kwargs, result):
    return sum(len(faces) for faces in result.faces_by_dim.values()), 0


def _vertex_count(args, kwargs, result):
    return len(result.vertices), 0


def _ball_counts(args, kwargs, result):
    """(vectors found, points of the coefficient box swept)."""
    lattice = sys.modules["parallo.lattice"]
    box = getattr(lattice, "_coefficient_box", None)
    if box is None:  # the sweep no longer uses a coefficient box
        return len(result), 0
    bound = inspect.signature(lattice.vectors_in_ball).bind(*args, **kwargs)
    bound.apply_defaults()
    given = bound.arguments
    lat, r2 = given.get("lat"), given.get("r2")
    around, parity = given.get("around"), given.get("parity")
    if lat is None or r2 is None:
        return len(result), 0
    linalg = sys.modules["parallo.linalg"]
    center = (linalg.zeros(lat.dim) if around is None
              else lat.to_coefficients(linalg.vec(around)))
    axes = box(lat, r2, center)
    if parity is not None:
        axes = [range(r.start + (p - r.start) % 2, r.stop, 2)
                for p, r in zip(parity, axes)]
    return len(result), math.prod(len(r) for r in axes)


_WORK = {
    "linalg.rref": _rref_cells,
    "polytope.Polytope.face_lattice": _face_count,
    "polytope.Polytope.from_halfspaces": _vertex_count,
    "lattice.vectors_in_ball": _ball_counts,
}


def _wrapped_member(rec: Recorder, name: str, member):
    """A traced replacement for a class attribute, or None to leave it."""
    if isinstance(member, staticmethod):
        return staticmethod(rec.wrap(name, member.__func__, _WORK.get(name)))
    if isinstance(member, functools.cached_property):
        return functools.cached_property(rec.wrap(name, member.func, _WORK.get(name)))
    if inspect.isfunction(member):
        return rec.wrap(name, member, _WORK.get(name))
    return None


def install(rec: Recorder):
    """Wrap the public functions and methods of every layer module, and
    rebind every name under which a `parallo` module imported them."""
    replaced = {}
    for short in LAYERS:
        mod = importlib.import_module(f"parallo.{short}")
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and f"{short}.{attr}" not in _SKIP:
                name = f"{short}.{attr}"
                replaced[id(obj)] = rec.wrap(name, obj, _WORK.get(name))
            elif inspect.isclass(obj):
                for mname, member in list(vars(obj).items()):
                    name = f"{short}.{attr}.{mname}"
                    if mname.startswith("_") or name in _SKIP:
                        continue
                    new = _wrapped_member(rec, name, member)
                    if new is not None:
                        setattr(obj, mname, new)
                        if isinstance(new, functools.cached_property):
                            new.__set_name__(obj, mname)
    for modname, mod in list(sys.modules.items()):
        if modname == "parallo" or modname.startswith("parallo."):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    setattr(mod, attr, replaced[id(obj)])


def main(argv: list[str]) -> int:
    out_path, program_args = argv[0], argv[1:]
    rec = Recorder()
    install(rec)
    cli = sys.modules["parallo.cli"]
    main_start = time.monotonic()
    try:
        return cli.main(program_args)
    finally:
        rec.dump(out_path, main_start)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
