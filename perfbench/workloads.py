"""Seeded inputs for the benchmark workloads, with their expected results.

The program sees only the JSON files written here. Expected values never
come from the code under test: the 3-D entries carry the catalog's frozen
invariants (copied, so a change to the catalog cannot move the target),
the 4-D lattices carry counts that follow from their definitions, and the
zonotopes carry the closed formulas for n generators in general position
in R^3: 2(1 + (n-1) + C(n-1, 2)) vertices, n(n-1) facets and one belt of
2(n-1) facets per generator.

Every random choice is drawn from `random.Random(seed)`, so one seed gives
byte-identical files. The maps are kept small and of one fixed skew per
input type (see `_shear_class`), because the time a map costs depends on
how far it stretches the cell, and a pass must cost the same on every seed.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction as F

WORKLOADS = ("surfaces-3d", "lattices-4d", "zonotopes-3d")

ZONOTOPES_PER_PASS = 4
ZONOTOPE_GENERATORS = 5
ZONOTOPE_ENTRY_RANGE = range(-2, 3)


@dataclass(frozen=True)
class Case:
    """One input file and what a correct `verify` report says about it."""

    name: str
    document: dict
    expected: dict


# -- the five 3-D parallelohedron types ----------------------------------

def _signs(n):
    return itertools.product((-1, 1), repeat=n)


_BASE_3D = {
    "cube": [(F(x, 2), F(y, 2), F(z, 2)) for x, y, z in _signs(3)],
    "hexagonal-prism": [
        (F(a, 3), F(b, 3), F(s, 2))
        for a, b in ((1, 1), (-1, -1), (2, -1), (-2, 1), (-1, 2), (1, -2))
        for s in (-1, 1)
    ],
    # Voronoi cell of the FCC lattice
    "rhombic-dodecahedron": [
        tuple(F(s) if k == i else F(0) for k in range(3))
        for i in range(3) for s in (-1, 1)
    ] + [(F(x, 2), F(y, 2), F(z, 2)) for x, y, z in _signs(3)],
    "elongated-dodecahedron": (
        [(F(x, 2), F(y, 2), F(z, 4)) for x, y, z in _signs(3)]
        + [(F(x, 2), F(0), F(z, 2)) for x, z in _signs(2)]
        + [(F(0), F(y, 2), F(z, 2)) for y, z in _signs(2)]
        + [(F(0), F(0), F(3 * z, 4)) for (z,) in _signs(1)]
    ),
    # Voronoi cell of the BCC lattice: all permutations of (0, +-1/4, +-1/2)
    "truncated-octahedron": sorted({
        perm
        for b, c in _signs(2)
        for perm in itertools.permutations((F(0), F(b, 4), F(c, 2)))
    }),
}

# Frozen invariants of the catalog (counts, belts, primitivity, surfaces).
# The catalog stores b1 = 1 for the elongated dodecahedron's pi-surface as a
# disputed literature value; the surface is RP^2 minus two disks (chi = -1),
# so the rank a correct program reports is 1 - chi = 2.
_EXPECTED_3D = {
    "cube": dict(counts=(8, 12, 6), belts={4: 3, 6: 0},
                 primitivity=(True, False, False),
                 delta=(6, [0] * 6), pi=(3, [0] * 3)),
    "hexagonal-prism": dict(counts=(12, 18, 8), belts={4: 3, 6: 1},
                            primitivity=(True, False, False),
                            delta=(3, [0, 0, 1]), pi=(2, [0, 1])),
    "rhombic-dodecahedron": dict(counts=(14, 24, 12), belts={4: 0, 6: 4},
                                 primitivity=(True, True, False),
                                 delta=(1, [0]), pi=(1, [0])),
    "elongated-dodecahedron": dict(counts=(18, 28, 12), belts={4: 1, 6: 4},
                                   primitivity=(True, False, False),
                                   delta=(1, [3]), pi=(1, [2])),
    "truncated-octahedron": dict(counts=(24, 36, 14), belts={4: 0, 6: 6},
                                 primitivity=(True, True, True),
                                 delta=(1, [0]), pi=(1, [0])),
}

# -- the 4-D lattices ------------------------------------------------------

_I4 = [[int(i == j) for j in range(4)] for i in range(4)]
_A2 = [[2, 1], [1, 2]]

# name -> (basis rows, Gram matrix, expected report counts). Facets are the
# Voronoi-relevant vectors; every ridge lies in exactly one belt.
# D4: the 24-cell, 96 triangles in 16 belts of 6, primitive up to codim 3.
# A2+A2: hexagon x hexagon, 12 facets; the vertex x hexagon ridges form two
# belts of 6, the 36 edge x edge ridges nine belts of 4.
# Z4: the 4-cube, 8 facets, 24 squares in six belts of 4.
_LATTICES_4D = {
    "D4": ([[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1], [0, 0, 1, 1]], _I4,
           dict(facets=24, belts={4: 0, 6: 16},
                primitivity=(True, True, True), ridge_components=1)),
    "A2xA2": (_I4, [[*_A2[0], 0, 0], [*_A2[1], 0, 0],
                    [0, 0, *_A2[0]], [0, 0, *_A2[1]]],
              dict(facets=12, belts={4: 9, 6: 2},
                   primitivity=(True, False, False), ridge_components=2)),
    "Z4": (_I4, _I4,
           dict(facets=8, belts={4: 6, 6: 0},
                primitivity=(True, False, False), ridge_components=8)),
}


# -- maps ------------------------------------------------------------------

def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _signed_permutation(rng: random.Random, n: int):
    perm = list(range(n))
    rng.shuffle(perm)
    return [[rng.choice((-1, 1)) if j == perm[i] else 0 for j in range(n)]
            for i in range(n)]


def _shear(n: int, i: int, j: int, c: int):
    m = [[int(r == k) for k in range(n)] for r in range(n)]
    m[i][j] = c
    return m


def _unimodular(rng: random.Random, n: int, shears):
    """P * E * Q for random signed permutations P, Q and the given shears E."""
    m = _signed_permutation(rng, n)
    for i, j, c in shears:
        m = _matmul(m, _shear(n, i, j, c))
    return _matmul(m, _signed_permutation(rng, n))


def _shear_class(points, rng: random.Random):
    """One elementary shear x_i += c x_j chosen among those that stretch
    the cell the least.

    All candidates with the same stretch (largest squared vertex norm of the
    sheared cell) cost the program the same work up to a relabelling, so
    drawing among them varies the input without varying the cost.
    """
    def stretch(i, j, c):
        return max(sum((p[k] + (c * p[j] if k == i else 0)) ** 2
                       for k in range(3)) for p in points)

    shears = [(i, j, c) for i in range(3) for j in range(3) if i != j
              for c in (-1, 1)]
    least = min(stretch(*s) for s in shears)
    return rng.choice([s for s in shears if stretch(*s) == least])


# -- serialization ----------------------------------------------------------

def rational(x) -> str:
    x = F(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _polytope_doc(points) -> dict:
    return {"dim": len(points[0]),
            "vertices": [[rational(x) for x in p] for p in points]}


# -- the workloads --------------------------------------------------------------

def _surfaces_3d(rng: random.Random) -> list[Case]:
    cases = []
    for name, points in _BASE_3D.items():
        # Q relabels and flips the base cell's axes first, so the shear is
        # chosen for the cell as the map will see it
        q = _signed_permutation(rng, 3)
        pts = [tuple(sum(q[r][k] * p[k] for k in range(3)) for r in range(3))
               for p in points]
        i, j, c = _shear_class(pts, rng)
        u = _matmul(_signed_permutation(rng, 3), _shear(3, i, j, c))
        shift = [rng.randint(-2, 2) for _ in range(3)]
        image = [tuple(sum(u[r][k] * p[k] for k in range(3)) + shift[r]
                       for r in range(3)) for p in pts]
        rng.shuffle(image)
        exp = _EXPECTED_3D[name]
        cases.append(Case(name, _polytope_doc(image), {
            "kind": "surface", "exit_code": 0, "verdict": "certified",
            "dim": 3, **exp,
        }))
    return cases


def _lattices_4d(rng: random.Random) -> list[Case]:
    cases = []
    for name, (basis, gram, exp) in _LATTICES_4D.items():
        # two elementary shears between random signed permutations: a basis
        # change of the same small skew for every seed
        picks = rng.sample([(i, j) for i in range(4) for j in range(4) if i != j], 2)
        u = _unimodular(rng, 4, [(i, j, rng.choice((-1, 1))) for i, j in picks])
        doc = {"basis": [[rational(x) for x in row] for row in _matmul(u, basis)],
               "gram": [[rational(x) for x in row] for row in gram]}
        cases.append(Case(name, doc, {
            "kind": "lattice", "exit_code": 0, "verdict": "certified",
            "dim": 4, **exp,
        }))
    return cases


def _det3(a, b, c):
    return (a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


def random_zonotope_generators(rng: random.Random, n: int):
    """n integer generators with every triple independent and all 2^n
    subset sums distinct, so the hull always starts from 2^n points."""
    while True:
        gens = [tuple(rng.choice(ZONOTOPE_ENTRY_RANGE) for _ in range(3))
                for _ in range(n)]
        if any(_det3(*t) == 0 for t in itertools.combinations(gens, 3)):
            continue
        sums = {tuple(sum(g[k] for g, on in zip(gens, mask) if on) for k in range(3))
                for mask in itertools.product((0, 1), repeat=n)}
        if len(sums) == 2 ** n:
            return gens


def _zonotopes_3d(rng: random.Random) -> list[Case]:
    n = ZONOTOPE_GENERATORS
    vertices = 2 * (1 + (n - 1) + (n - 1) * (n - 2) // 2)
    facets = n * (n - 1)
    cases = []
    for k in range(ZONOTOPES_PER_PASS):
        gens = random_zonotope_generators(rng, n)
        points = [tuple(sum(g[c] for g, on in zip(gens, mask) if on) for c in range(3))
                  for mask in itertools.product((0, 1), repeat=n)]
        rng.shuffle(points)
        cases.append(Case(f"zonotope{k}", _polytope_doc(points), {
            "kind": "zonotope", "exit_code": 3, "verdict": "venkov-fails",
            "dim": 3, "counts": (vertices, vertices + facets - 2, facets),
            "belt_length": 2 * (n - 1),
        }))
    return cases


_MAKERS = {
    "surfaces-3d": _surfaces_3d,
    "lattices-4d": _lattices_4d,
    "zonotopes-3d": _zonotopes_3d,
}


def generate(workload: str, seed: int) -> list[Case]:
    """The workload's cases for a seed; the same seed gives the same cases."""
    return _MAKERS[workload](random.Random(f"{workload}:{seed}"))


def write_cases(cases: list[Case], directory: str) -> list[str]:
    """Write each case's input and its expected values; return input paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for k, case in enumerate(cases):
        path = os.path.join(directory, f"{k:02d}-{case.name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(case.document, fh, sort_keys=True)
        paths.append(path)
    with open(os.path.join(directory, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump({os.path.basename(p): c.expected for p, c in zip(paths, cases)},
                  fh, sort_keys=True)
    return paths
