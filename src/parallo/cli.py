"""Command-line front end.

Commands take either a catalog name or a path to a JSON document (a
polytope or a lattice). Output is stable-ordered JSON on stdout; exit
codes: 0 success/certified, 1 parse error or unsupported input (such
as d = 1), 2 scaling inconsistency, 3 Venkov failure, 4 quadratic-form
or Voronoi-cell mismatch.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import report as report_mod
from . import serialize
from .errors import DualCellAnomaly, ParalloError, ParseError
from .lattice import Lattice
from .parallelohedron import Parallelohedron, classify_dual3, venkov_check
from .polytope import Polytope
from .report import EXIT_PARSE, EXIT_VENKOV


def _load_input(arg: str):
    """Resolve FILE|NAME to (source object, entry-or-None)."""
    if os.path.exists(arg):
        try:
            with open(arg, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read {arg}: {exc}") from exc
        return serialize.load_document(text), None
    from .catalog import catalog

    try:
        entry = catalog(arg)
    except KeyError as exc:
        raise ParseError(str(exc.args[0])) from exc
    if entry.kind == "lattice":
        return entry.lattice, entry
    return entry.polytope, entry


def _emit(doc, out_path: str | None = None):
    text = serialize.dumps(doc)
    if out_path and out_path != "-":
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_catalog(args) -> int:
    from .catalog import catalog, catalog_names

    if args.action == "list":
        _emit({"names": list(catalog_names())})
        return 0
    entry = catalog(args.name) if args.name in catalog_names() else None
    if entry is None:
        raise ParseError(f"unknown catalog name {args.name!r}")
    doc = {
        "name": entry.name,
        "kind": entry.kind,
        "expected": entry.expected,
        "polytope": serialize.polytope_to_dict(entry.polytope),
    }
    if entry.lattice is not None:
        doc["lattice"] = serialize.lattice_to_dict(entry.lattice)
    _emit(doc)
    return 0


def _as_polytope(source) -> Polytope:
    return source.cell if isinstance(source, Lattice) else source


def _cmd_check(args) -> int:
    source, _ = _load_input(args.input)
    verdict = venkov_check(_as_polytope(source))
    _emit(report_mod._venkov_dict(verdict))
    return 0 if verdict.ok else EXIT_VENKOV


def _cmd_verify(args) -> int:
    source, entry = _load_input(args.input)
    expected = entry.expected if entry is not None else None
    name = entry.name if entry is not None else args.input
    rep = report_mod.verify(source, name=name, expected=expected)
    _emit(rep.as_dict(include_timing=args.timing))
    return rep.exit_code


def _cmd_surface(args) -> int:
    source, entry = _load_input(args.input)
    para = Parallelohedron.build(_as_polytope(source))
    expected = entry.expected if entry is not None else None
    _emit(report_mod.surface_dicts(para, expected)["pi" if args.pi else "delta"])
    return 0


def _cmd_dual_cells(args) -> int:
    source, _ = _load_input(args.input)
    para = Parallelohedron.build(_as_polytope(source))
    codim = args.codim
    if codim < 1 or codim > min(3, para.dim):
        raise ParseError(f"--codim must be between 1 and {min(3, para.dim)}")
    cells = para.dual_cells(codim)
    doc: dict = {"codim": codim, "cells": len(cells)}
    if codim == 3:
        census: dict[str, int] = {}
        anomalies = []
        for cell in cells:
            try:
                kind = classify_dual3(cell)
            except DualCellAnomaly as exc:
                anomalies.append({
                    "face_vertex_ids": list(cell.face.vertex_ids),
                    "detail": str(exc),
                })
                continue
            census[kind] = census.get(kind, 0) + 1
        doc["census"] = dict(sorted(census.items()))
        if anomalies:
            # loud: these would contradict the dual-cell dimension expectation
            doc["anomalies"] = anomalies
    else:
        by_count: dict[str, int] = {}
        for cell in cells:
            key = str(len(cell.centers))
            by_count[key] = by_count.get(key, 0) + 1
        doc["census_by_center_count"] = dict(sorted(by_count.items()))
    _emit(doc)
    return 0 if not doc.get("anomalies") else 4


def _cmd_voronoi_cell(args) -> int:
    source, _ = _load_input(args.input)
    if not isinstance(source, Lattice):
        raise ParseError("voronoi-cell needs a lattice input")
    _emit(serialize.polytope_to_dict(source.cell))
    return 0


def _cmd_export(args) -> int:
    source, _ = _load_input(args.input)
    p = _as_polytope(source)
    if args.format == "json":
        _emit(serialize.polytope_to_dict(p), args.out)
    else:
        text = serialize.polytope_to_off(p)
        if args.out and args.out != "-":
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="parallo",
        description="Exact verification of parallelohedra and their "
                    "Voronoi-form certificates.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list or show built-in inputs")
    p.add_argument("action", choices=["list", "show"])
    p.add_argument("name", nargs="?", default=None)
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("check", help="run only the Venkov conditions")
    p.add_argument("input")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("verify", help="full certification pipeline")
    p.add_argument("input")
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock timing (breaks byte stability)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("surface", help="delta/pi surface topology report")
    p.add_argument("input")
    p.add_argument("--pi", action="store_true", help="report the pi-surface")
    p.set_defaults(func=_cmd_surface)

    p = sub.add_parser("dual-cells", help="dual-cell census at a codimension")
    p.add_argument("input")
    p.add_argument("--codim", type=int, required=True)
    p.set_defaults(func=_cmd_dual_cells)

    p = sub.add_parser("voronoi-cell", help="Voronoi cell of a lattice")
    p.add_argument("input")
    p.set_defaults(func=_cmd_voronoi_cell)

    p = sub.add_parser("export", help="write polytope as JSON or OFF")
    p.add_argument("input")
    p.add_argument("--format", choices=["off", "json"], default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_export)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ParalloError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
