"""JSON and OFF input/output.

Rationals travel as strings "p/q" (or "p" for integers) so no precision
is ever lost; JSON integers are read as well, JSON booleans are not.
`dumps` is the one place a rational is written: the documents the
program builds carry its own `Fraction` values, and `json.dumps` hands
each one to `rational_to_str`. Any other value JSON cannot hold is a
TypeError, and a rational whose digits Python would refuse to print is
an error line, not a traceback. OFF export is visualization-only:
coordinates whose denominators are products of 2s and 5s render as exact
decimals, the rest get a best-effort decimal plus a `#exact` comment
carrying the rational.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from . import linalg
from .errors import ParseError
from .polytope import Polytope

# `lattice` is imported where a lattice document is read; this name
# serves the annotations only
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .lattice import Lattice


# Python prints no int of more digits than its limit (4300 by default; 0
# turns the limit off), and an exponent past it is refused before 10**e,
# which could take hours, is computed
_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


def rational_to_str(q: Fraction) -> str:
    q = linalg.frac(q)
    try:
        return (str(q.numerator) if q.denominator == 1
                else f"{q.numerator}/{q.denominator}")
    except ValueError as exc:  # past the digit limit
        raise ParseError(f"a rational is too long to print ({exc})") from None


def rational_from_str(s, where: str = "value") -> Fraction:
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    if not isinstance(s, str):
        raise ParseError(f"{where}: expected rational string, got {s!r}")
    _, e, exponent = s.lower().partition("e")
    digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    if e and digits.isdigit() and (len(digits) > 9 or int(digits) >= _DIGITS):
        raise ParseError(f"{where}: the exponent of {s!r} would give more "
                         f"than {_DIGITS} digits")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{where}: bad rational {s!r} ({exc})") from exc


def vector_from_strs(xs, where: str = "vector"):
    if not isinstance(xs, list):
        raise ParseError(f"{where}: expected a list")
    return tuple(rational_from_str(x, where) for x in xs)


def matrix_from_strs(rows, where: str = "matrix", size: int | None = None):
    """Rows of rationals; with `size`, the matrix must be size x size."""
    if not isinstance(rows, list):
        raise ParseError(f"{where}: expected a list of rows")
    m = tuple(vector_from_strs(r, where) for r in rows)
    if size is not None and (len(m) != size or any(len(r) != size for r in m)):
        raise ParseError(f"{where}: expected a {size}x{size} matrix")
    return m


def dumps(obj) -> str:
    """The document as sorted, indented JSON, each Fraction as "p/q"."""
    return json.dumps(obj, sort_keys=True, indent=2,
                      default=rational_to_str) + "\n"


# -- polytopes --------------------------------------------------------


def polytope_to_dict(p: Polytope) -> dict:
    return {
        "dim": p.dim,
        "vertices": p.vertices,
        "facets": [{"normal": n, "offset": b}
                   for n, b in zip(p.facet_normals, p.facet_offsets)],
    }


def polytope_from_dict(doc: dict) -> Polytope:
    if not isinstance(doc, dict):
        raise ParseError("polytope document must be a JSON object")
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ParseError('polytope document needs a positive integer "dim" field')
    for key in ("vertices", "facets"):
        if key in doc and not isinstance(doc[key], list):
            raise ParseError(f'"{key}" must be a list')
    if "vertices" in doc:
        verts = [vector_from_strs(v, f"vertices[{i}]") for i, v in enumerate(doc["vertices"])]
        if any(len(v) != dim for v in verts):
            raise ParseError("vertex length disagrees with dim")
        return Polytope.from_vertices(verts)
    if "facets" in doc:
        hs = []
        for i, f in enumerate(doc["facets"]):
            if not isinstance(f, dict) or "normal" not in f or "offset" not in f:
                raise ParseError(f'facets[{i}]: need "normal" and "offset"')
            n = vector_from_strs(f["normal"], f"facets[{i}].normal")
            if len(n) != dim:
                raise ParseError(f"facets[{i}]: normal length disagrees with dim")
            if not any(n):
                raise ParseError(f"facets[{i}]: normal is the zero vector")
            hs.append((n, rational_from_str(f["offset"], f"facets[{i}].offset")))
        return Polytope.from_halfspaces(hs, dim)
    raise ParseError('polytope document needs "vertices" or "facets"')


# -- lattices ---------------------------------------------------------


def lattice_to_dict(lat: Lattice) -> dict:
    return {"basis": lat.basis, "gram": lat.gram}


def lattice_from_dict(doc: dict) -> Lattice:
    from .lattice import Lattice

    if not isinstance(doc, dict) or "basis" not in doc:
        raise ParseError('lattice document needs a "basis" field')
    rows = doc["basis"]
    if not isinstance(rows, list) or not rows:
        raise ParseError('"basis" must be a non-empty list of rows')
    basis = matrix_from_strs(rows, "basis", size=len(rows))
    gram = matrix_from_strs(doc["gram"], "gram", size=len(rows)) if "gram" in doc else None
    return Lattice.create(basis, gram)


def load_document(text: str) -> Polytope | Lattice:
    """Parse a JSON document holding either a polytope or a lattice."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply to read") from None
    if isinstance(doc, dict) and "basis" in doc:
        return lattice_from_dict(doc)
    return polytope_from_dict(doc)


# -- OFF export (d = 3) ------------------------------------------------


def _decimal_or_none(q: Fraction):
    """Exact decimal string when the denominator is 2^a * 5^b, else None."""
    den = q.denominator
    e2 = e5 = 0
    while den % 2 == 0:
        den //= 2
        e2 += 1
    while den % 5 == 0:
        den //= 5
        e5 += 1
    if den != 1:
        return None
    e = max(e2, e5)
    num = q.numerator * (2 ** (e - e2)) * (5 ** (e - e5))
    if e == 0:
        return str(num)
    s = str(abs(num)).rjust(e + 1, "0")
    return ("-" if num < 0 else "") + s[:-e] + "." + s[-e:]


def polytope_to_off(p: Polytope) -> str:
    if p.dim != 3:
        raise ParseError("OFF export is only defined for d = 3")
    lines = ["OFF"]
    lat = p.face_lattice
    n_edges = len(lat.faces(1))
    lines.append(f"{p.n_vertices} {p.n_facets} {n_edges}")
    for v in p.vertices:
        rendered = []
        exact_note = []
        for x in v:
            dec = _decimal_or_none(x)
            if dec is None:
                try:
                    rendered.append(repr(float(x)))
                except OverflowError:
                    raise ParseError("a coordinate is past the float range "
                                     "of OFF") from None
                exact_note.append(rational_to_str(x))
            else:
                rendered.append(dec)
        line = " ".join(rendered)
        if exact_note:
            line += "  #exact " + " ".join(map(rational_to_str, v))
        lines.append(line)
    for cyc in p.facet_cycles:
        lines.append(str(len(cyc)) + " " + " ".join(str(c) for c in cyc))
    return "\n".join(lines) + "\n"
