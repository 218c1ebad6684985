"""Command-line front end.

Commands take either a catalog name or a path to a JSON document (a
polytope or a lattice). Output is stable-ordered JSON on stdout; exit
codes: 0 success/certified, 1 parse error or unsupported input (such
as d = 1), 2 scaling inconsistency, 3 Venkov failure, 4 quadratic-form
or Voronoi-cell mismatch. Usage errors are parse errors too: one
`error:` line and exit code 1. The arguments are read from one command
table, `COMMANDS`, which also gives the `--help` texts.
"""

from __future__ import annotations

import os
import sys

from . import report as report_mod
from . import serialize
from .errors import ParalloError, ParseError
from .polytope import Polytope
from .report import EXIT_CODES, EXIT_PARSE
from .venkov import venkov_check


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
    """Write a document (a dict as JSON, text as is) to stdout, or to
    `out_path` unless that is "-"."""
    text = doc if isinstance(doc, str) else serialize.dumps(doc)
    to_stdout = not out_path or out_path == "-"
    try:
        if to_stdout:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        if not to_stdout:
            raise ParseError(f"cannot write {out_path}: {exc}") from exc
        # the flush at exit would retry the unwritten bytes and fail again:
        # send them to the null device, as the Python docs do for SIGPIPE
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        raise ParseError(f"cannot write stdout: {exc}") from exc


def _cmd_catalog(args) -> int:
    from .catalog import catalog, catalog_names

    if (args["name"] is None) != (args["action"] == "list"):
        raise ParseError(_synopsis("catalog"))
    if args["action"] == "list":
        _emit({"names": list(catalog_names())})
        return 0
    entry = catalog(args["name"]) if args["name"] in catalog_names() else None
    if entry is None:
        raise ParseError(f"unknown catalog name {args['name']!r}")
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
    return source if isinstance(source, Polytope) else source.cell


def _cmd_check(args) -> int:
    source, _ = _load_input(args["input"])
    verdict = venkov_check(_as_polytope(source))
    _emit(report_mod.venkov_dict(verdict))
    return 0 if verdict.ok else EXIT_CODES["venkov-fails"]


def _cmd_verify(args) -> int:
    source, entry = _load_input(args["input"])
    expected = entry.expected if entry is not None else None
    name = entry.name if entry is not None else args["input"]
    doc = report_mod.verify(source, name=name, expected=expected,
                            timing=args["timing"])
    _emit(doc)
    return doc["exit_code"]


def _cmd_surface(args) -> int:
    from .parallelohedron import Parallelohedron

    source, entry = _load_input(args["input"])
    para = Parallelohedron.build(_as_polytope(source))
    expected = entry.expected if entry is not None else None
    reports = report_mod.surface_dicts(para, expected)
    _emit(reports["pi" if args["pi"] else "delta"])
    return 0


def _cmd_dual_cells(args) -> int:
    from .parallelohedron import Parallelohedron, dual3_census

    source, _ = _load_input(args["input"])
    codim = args["codim"]
    if not 1 <= codim <= min(3, source.dim):
        raise ParseError(f"--codim must be between 1 and {min(3, source.dim)}")
    para = Parallelohedron.build(_as_polytope(source))
    if codim == 3:
        census, anomalies = dual3_census(para)
        doc: dict = {"codim": codim,
                     "cells": sum(census.values()) + len(anomalies),
                     "census": census}
        if anomalies:
            # loud: these would contradict the dual-cell dimension expectation
            doc["anomalies"] = anomalies
        _emit(doc)
        return 4 if anomalies else 0
    faces = para.polytope.face_lattice.faces(para.dim - codim)
    by_count: dict[str, int] = {}
    for face in faces:
        key = str(para.dual_cell(face).bit_count())
        by_count[key] = by_count.get(key, 0) + 1
    _emit({"codim": codim, "cells": len(faces),
           "census_by_center_count": dict(sorted(by_count.items()))})
    return 0


def _cmd_voronoi_cell(args) -> int:
    source, _ = _load_input(args["input"])
    if isinstance(source, Polytope):
        raise ParseError("voronoi-cell needs a lattice input")
    _emit(serialize.polytope_to_dict(source.cell))
    return 0


def _cmd_export(args) -> int:
    source, _ = _load_input(args["input"])
    p = _as_polytope(source)
    _emit(serialize.polytope_to_dict(p) if args["format"] == "json"
          else serialize.polytope_to_off(p), args["out"])
    return 0


_REQUIRED = object()

# command -> (handler, summary, arguments, options). An argument is
# (name, how it is read); one whose name ends in "?" may be left out. An
# option is "--name": (how its value is read, or None for a flag; its
# default, or _REQUIRED). A value is read as `str`, `int` or one of a
# tuple of words.
COMMANDS = {
    "catalog": (_cmd_catalog, "list or show built-in inputs",
                (("action", ("list", "show")), ("name?", str)), {}),
    "check": (_cmd_check, "run only the Venkov conditions",
              (("input", str),), {}),
    "verify": (_cmd_verify, "full certification pipeline",
               (("input", str),), {"--timing": (None, False)}),
    "surface": (_cmd_surface, "delta/pi surface topology report",
                (("input", str),), {"--pi": (None, False)}),
    "dual-cells": (_cmd_dual_cells, "dual-cell census at a codimension",
                   (("input", str),), {"--codim": (int, _REQUIRED)}),
    "voronoi-cell": (_cmd_voronoi_cell, "Voronoi cell of a lattice",
                     (("input", str),), {}),
    "export": (_cmd_export, "write polytope as JSON or OFF",
               (("input", str),),
               {"--format": (("off", "json"), "json"), "--out": (str, None)}),
}


def _word(name: str, read) -> str:
    return "|".join(read) if isinstance(read, tuple) else name.upper()


def _synopsis(command: str) -> str:
    _, _, arguments, options = COMMANDS[command]
    words = [command]
    for name, read in arguments:
        word = _word(name.rstrip("?"), read)
        words.append(f"[{word}]" if name.endswith("?") else word)
    for key, (read, default) in options.items():
        word = key if read is None else f"{key} {_word(key[2:], read)}"
        words.append(word if default is _REQUIRED else f"[{word}]")
    return "usage: parallo " + " ".join(words)


def _help(command: str | None = None) -> str:
    if command is not None:
        return f"{_synopsis(command)}\n\n{COMMANDS[command][1]}"
    width = max(map(len, COMMANDS))
    return "\n".join([
        "usage: parallo COMMAND [ARGS]", "",
        "Exact verification of parallelohedra and their Voronoi-form "
        "certificates.", "", "commands:",
        *(f"  {name:<{width}}  {spec[1]}" for name, spec in COMMANDS.items()),
        "", "`parallo COMMAND --help` describes one command."])


def _value(read, text: str, what: str):
    if read is str or isinstance(read, tuple) and text in read:
        return text
    if read is int:
        try:
            return int(text)
        except ValueError:
            pass
    raise ParseError(f"{what} must be "
                     + ("an integer" if read is int else " or ".join(read))
                     + f", not {text!r}")


def _parse(argv: list[str]):
    """(handler, arguments) for a command line, or None once a help text
    is printed; a usage error raises ParseError."""
    if argv[:1] in (["-h"], ["--help"]):
        _emit(_help() + "\n")
        return None
    if not argv or argv[0] not in COMMANDS:
        what = f"unknown command {argv[0]!r}" if argv else "no command given"
        raise ParseError(f"{what} (see parallo --help)")
    command, *rest = argv
    handler, _, arguments, options = COMMANDS[command]
    if "-h" in rest or "--help" in rest:
        _emit(_help(command) + "\n")
        return None
    args = {key[2:]: default for key, (_, default) in options.items()}
    values = []
    tokens = iter(rest)
    for token in tokens:
        key, eq, text = token.partition("=")
        if key not in options:
            if token.startswith("-") and token != "-":
                raise ParseError(f"{command}: unknown option {key}")
            values.append(token)
            continue
        read = options[key][0]
        if read is None:
            if eq:
                raise ParseError(f"{command}: {key} takes no value")
            args[key[2:]] = True
            continue
        if not eq:
            text = next(tokens, None)
            if text is None:
                raise ParseError(f"{command}: {key} needs a value")
        args[key[2:]] = _value(read, text, f"{command}: {key}")
    if not (sum(not name.endswith("?") for name, _ in arguments)
            <= len(values) <= len(arguments)):
        raise ParseError(_synopsis(command))
    for k, (name, read) in enumerate(arguments):
        name = name.rstrip("?")
        args[name] = (_value(read, values[k], f"{command}: {name}")
                      if k < len(values) else None)
    missing = [key for key, value in args.items() if value is _REQUIRED]
    if missing:
        raise ParseError(f"{command}: --{missing[0]} is required")
    return handler, args


def main(argv=None) -> int:
    """Run one command line; every usage or input error is one `error:`
    line on stderr and exit code 1."""
    try:
        parsed = _parse(sys.argv[1:] if argv is None else list(argv))
        if parsed is None:
            return 0
        handler, args = parsed
        return handler(args)
    except ParalloError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
