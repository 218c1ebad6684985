"""Checks one `parallo verify` result against the expected values of its case.

The checker reads only the process's exit code and the report bytes, and
compares them with values fixed by the generator (see `workloads`). It
never imports the program.

What the report shows decides what can be checked:

- 3-D certified inputs: vertex, edge and facet counts (facets are the
  ridge-graph nodes, every edge lies in exactly one belt, and Euler's
  formula gives the vertices), belt lengths, primitivity, the delta- and
  pi-surface component counts and H1 ranks, and an exactly positive
  definite certificate.
- 4-D lattices: facet count, belt lengths, primitivity, ridge-graph
  components, the certificate, and that the recovered form is a multiple
  of the input Gram matrix.
- Zonotopes: the Venkov rejection, and one belt witness per edge, each
  naming a belt of 2(n-1) facets; the witnesses' vertex ids give the
  vertex count, and Euler's formula the facet count.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction


def check(expected: dict, path: str, exit_code: int, stdout: bytes) -> list[str]:
    """Problems with one verify result; an empty list means correct."""
    problems = []
    if exit_code != expected["exit_code"]:
        problems.append(f"exit code {exit_code}, expected {expected['exit_code']}")
    try:
        rep = json.loads(stdout)
    except ValueError as exc:
        return problems + [f"report is not JSON: {exc}"]
    if not isinstance(rep, dict):
        return problems + ["report is not a JSON object"]
    for key, want in (("name", path), ("dim", expected["dim"]),
                      ("verdict", expected["verdict"]),
                      ("exit_code", expected["exit_code"]), ("timing_ms", None)):
        if rep.get(key) != want:
            problems.append(f"{key} is {rep.get(key)!r}, expected {want!r}")
    try:
        problems += _KIND_CHECKS[expected["kind"]](rep, expected)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        problems.append(f"report is missing or garbles a field: {exc!r}")
    return problems


def _expect(problems, what, got, want):
    if got != want:
        problems.append(f"{what} is {got!r}, expected {want!r}")


def _belt_counts(rep) -> dict[int, int]:
    """Belts per length, with lengths 4 and 6 always present."""
    lengths = Counter(b["length"] for b in rep["belts"])
    for b in rep["belts"]:
        if len(b["facets"]) != b["length"]:
            raise ValueError(f"belt lists {len(b['facets'])} facets for length {b['length']}")
    return {4: lengths.get(4, 0), 6: lengths.get(6, 0), **lengths}


def _primitivity(rep) -> tuple:
    return tuple(rep["primitivity"][str(k)] for k in (1, 2, 3))


def _certificate(problems, rep):
    cert = rep["certificate"]
    _expect(problems, "certificate verdict", cert["verdict"], "certified")
    gram = [[Fraction(x) for x in row] for row in cert["gram"]]
    if not positive_definite(gram):
        problems.append("certificate Gram matrix is not symmetric positive definite")


def _surface(rep, exp) -> list[str]:
    problems: list[str] = []
    _expect(problems, "venkov", rep["venkov"], {"ok": True, "witnesses": []})
    belts = _belt_counts(rep)
    _expect(problems, "belt lengths", belts, exp["belts"])
    facets = rep["ridge_graph"]["nodes"]
    edges = sum(b["length"] for b in rep["belts"])
    _expect(problems, "(vertices, edges, facets)",
            (edges - facets + 2, edges, facets), tuple(exp["counts"]))
    _expect(problems, "primitivity", _primitivity(rep), tuple(exp["primitivity"]))
    for surface in ("delta", "pi"):
        doc = rep["topology"][surface]
        got = (doc["component_count"], sorted(c["h1_rank"] for c in doc["components"]))
        want = (exp[surface][0], sorted(exp[surface][1]))
        _expect(problems, f"{surface}-surface (components, H1 ranks)", got, want)
    _certificate(problems, rep)
    return problems


def _lattice(rep, exp) -> list[str]:
    problems: list[str] = []
    _expect(problems, "venkov", rep["venkov"], {"ok": True, "witnesses": []})
    _expect(problems, "belt lengths", _belt_counts(rep), exp["belts"])
    _expect(problems, "facets", rep["ridge_graph"]["nodes"], exp["facets"])
    _expect(problems, "primitivity", _primitivity(rep), tuple(exp["primitivity"]))
    _expect(problems, "ridge-graph components",
            (rep["ridge_graph"]["components"], rep["topology"]["ridge_components"]),
            (exp["ridge_components"],) * 2)
    _expect(problems, "recovered form matches the input Gram",
            rep["gram_match"]["matched"], True)
    _certificate(problems, rep)
    return problems


def _zonotope(rep, exp) -> list[str]:
    problems: list[str] = []
    if rep["venkov"]["ok"] is not False:
        problems.append("venkov check passed a zonotope with long belts")
    witnesses = rep["venkov"]["witnesses"]
    vertices, edges, facets = exp["counts"]
    suffix = f"has length {exp['belt_length']}, expected 4 or 6"
    for w in witnesses:
        if w["condition"] != "belt" or not w["detail"].endswith(suffix):
            problems.append(f"witness {w!r} is not a belt of length {exp['belt_length']}")
            break
    ridges = {tuple(w["face_vertex_ids"]) for w in witnesses}
    if len(ridges) != len(witnesses) or any(len(r) != 2 for r in ridges):
        problems.append("witnesses do not name distinct edges")
    ids = {i for r in ridges for i in r}
    _expect(problems, "(vertices, edges, facets)",
            (len(ids), len(witnesses), len(witnesses) - len(ids) + 2),
            (vertices, edges, facets))
    _expect(problems, "vertex ids", ids, set(range(vertices)))
    if "belts" in rep or "certificate" in rep:
        problems.append("a Venkov rejection carries pipeline results")
    return problems


_KIND_CHECKS = {"surface": _surface, "lattice": _lattice, "zonotope": _zonotope}


def positive_definite(m: list[list[Fraction]]) -> bool:
    """Symmetric with every leading principal minor positive (exact)."""
    n = len(m)
    if any(len(row) != n for row in m) or any(
            m[i][j] != m[j][i] for i in range(n) for j in range(n)):
        return False
    rows = [list(r) for r in m]
    for c in range(n):
        # without pivoting, the c-th pivot is the ratio of minors c+1 and c
        if rows[c][c] <= 0:
            return False
        for i in range(c + 1, n):
            f = rows[i][c] / rows[c][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return True
