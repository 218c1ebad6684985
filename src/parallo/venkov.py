"""The Minkowski-Venkov conditions and the belts they walk.

A convex polytope tiles space by translations iff it is centrally
symmetric, has centrally symmetric facets, and every ridge (codim-2
face) lies in a belt of 4 or 6 facets. This module decides those
conditions and nothing after them: it needs only the polytope and its
face lattice, so a rejection loads no lattice or tiling code (see
`parallelohedron` for what a passing polytope goes on to).

Both symmetry conditions are read off vertex-id involutions: the point
reflection of P, and of each facet through its center, computed once on
the integer vertex rows X = s x of `Polytope.integer_form`. The column
sums of the first give P's centre of symmetry, so this stage also fixes
the tiling frame: it translates P once to put that centre at the origin,
and hands the tiling stages that polytope with its facet vectors
t_F = 2 c_F (Venkov 1954; McMullen 1980) as the integer rows
s t_F = X + X' of any vertex X of F and its mirror X'. Belts are found
by walking: enter a facet through a ridge, map the ridge's vertex ids
through the facet's involution to find the parallel exit ridge, cross to
the other facet, repeat. Each belt is walked once, from its least ridge,
whatever its length; a ridge is primitive iff its belt closes after 6
facets (three tiles meet at it rather than four).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import UnsupportedDimensionError
from .polytope import Polytope


def _witness(condition, detail, face_vertex_ids=()) -> dict:
    """A failed condition ("central-symmetry", "facet-symmetry" or
    "belt"), what failed, and the vertex ids of the face it failed on."""
    return {"condition": condition, "detail": detail,
            "face_vertex_ids": tuple(face_vertex_ids)}


def _failed(p, witnesses):
    return {"ok": False, "witnesses": witnesses}, p, (), ()


class Belt(namedtuple("Belt", "facets ridges")):
    """Cyclic facet sequence sharing parallel ridges; length 4 or 6.
    facets[i] and facets[i+1] share ridges[i], an id into the face
    lattice's faces(d-2)."""

    __slots__ = ()

    @property
    def length(self) -> int:
        return len(self.facets)


def _involution(rows: list[list[int]]):
    """The point reflection of m integer rows through their centroid, as
    the position of each row's image (None if some image is not a row),
    and the column sums S: row x maps to x' with m x' = 2 S - m x."""
    m = len(rows)
    sums = [sum(col) for col in zip(*rows)]
    at = {tuple(m * x for x in r): k for k, r in enumerate(rows)}
    image = tuple(at.get(tuple(2 * s - m * x for s, x in zip(sums, r)))
                  for r in rows)
    return (None if None in image else image), sums


class _BeltWalkError(Exception):
    def __init__(self, detail, face_ids=()):
        self.detail = detail
        self.face_ids = face_ids
        super().__init__(detail)


def _walk_belt(ridges, ridge_ids_by_key, mirrors, start_ridge):
    """Belt through a ridge: facet cycle and aligned ridge cycle; each
    facet's vertex involution maps its entry ridge to its exit ridge."""

    def mirrored(f, r):
        return ridge_ids_by_key.get(
            tuple(sorted(mirrors[f][i] for i in ridges[r].vertex_ids)))

    r0 = start_ridge
    f_pair = ridges[r0].facets
    if len(f_pair) != 2:
        raise _BeltWalkError(
            f"ridge lies on {len(f_pair)} facets, expected 2",
            ridges[r0].vertex_ids,
        )
    f_prev, f_cur = f_pair
    facets = [f_prev, f_cur]
    belt_ridges = [r0]
    entry = r0
    for _ in range(2 * len(mirrors) + 1):
        ridge_ids = ridges[entry].vertex_ids
        nxt = mirrored(f_cur, entry)
        if nxt is None:
            raise _BeltWalkError(
                "facet is not centrally symmetric around its center "
                "(ridge reflection is not a ridge)",
                ridge_ids,
            )
        pair = ridges[nxt].facets
        if f_cur not in pair or len(pair) != 2:
            raise _BeltWalkError("ridge incidence is not dihedral", ridge_ids)
        f_next = pair[0] if pair[1] == f_cur else pair[1]
        belt_ridges.append(nxt)
        if f_next == facets[0] and nxt != r0:
            # closed: the next reflection must return the starting ridge
            if mirrored(f_next, nxt) != r0:
                raise _BeltWalkError("belt does not close consistently",
                                     ridge_ids)
            return Belt(tuple(facets), tuple(belt_ridges))
        facets.append(f_next)
        f_cur = f_next
        entry = nxt
    raise _BeltWalkError("belt walk failed to close", ())


def _analyze(p: Polytope):
    """Run the Venkov checks on any polytope; return the report's
    `venkov` block (`ok` and the failure witnesses), the polytope with
    its centre of symmetry at the origin (`p` itself when it is there
    already, or when there is none), its belts and its facet vectors
    t_F = 2 c_F as the integer rows s t_F on the scale s of that
    polytope's `integer_form`, the last two empty on failure."""
    if p.dim < 2:
        raise UnsupportedDimensionError(
            f"dimension {p.dim} is not supported: the belt conditions "
            "need ridges, so d >= 2")
    rows, scale, *_ = p.integer_form
    image, sums = _involution(rows)
    if image is None:
        return _failed(p, [_witness("central-symmetry",
                                    "vertex set is not centrally symmetric")])
    if any(sums):
        # the centre is S / (m s); a translation keeps the vertex order
        p = p.translated(tuple(Fraction(-x, len(rows) * scale) for x in sums))
        rows = p.integer_form[0]
    witnesses = []
    mirrors, facet_vectors = [], []
    for fi, ids in enumerate(p.facet_vertex_ids):
        image, sums = _involution([rows[i] for i in ids])
        if image is None:
            witnesses.append(_witness(
                "facet-symmetry", f"facet {fi} is not centrally symmetric", ids))
            continue
        mirrors.append({i: ids[k] for i, k in zip(ids, image)})
        facet_vectors.append(tuple(2 * s // len(ids) for s in sums))
    if witnesses:
        return _failed(p, witnesses)

    ridges = p.face_lattice.faces(p.dim - 2)
    ridge_ids_by_key = {r.vertex_ids: i for i, r in enumerate(ridges)}
    belts = []
    walked: dict[int, Belt] = {}  # per ridge, the belt through it
    for rid in range(len(ridges)):
        if rid not in walked:
            try:
                belt = _walk_belt(ridges, ridge_ids_by_key, mirrors, rid)
            except _BeltWalkError as exc:
                witnesses.append(_witness("belt", exc.detail, exc.face_ids))
                continue
            walked.update(dict.fromkeys(belt.ridges, belt))
            if belt.length in (4, 6):
                belts.append(belt)
        length = walked[rid].length
        if length not in (4, 6):
            witnesses.append(_witness(
                "belt",
                f"belt through ridge {rid} has length {length}, expected 4 or 6",
                ridges[rid].vertex_ids,
            ))
    if witnesses:
        return _failed(p, witnesses)
    return {"ok": True, "witnesses": []}, p, tuple(belts), tuple(facet_vectors)


def venkov_check(p: Polytope) -> dict:
    """Minkowski-Venkov test, as the `venkov` block of the report: `ok`
    iff p is a parallelohedron, else a witness per failure."""
    return _analyze(p)[0]
