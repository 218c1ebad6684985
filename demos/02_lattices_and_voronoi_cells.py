"""Build Voronoi cells from lattices, including skew rational metrics.

A hexagonal lattice has no rational realization with the identity
metric, but putting the metric into the Gram matrix keeps every vertex
rational: the price is that the "hexagon" looks skew in raw
coordinates, which none of the combinatorics ever notices.
"""

from fractions import Fraction

from parallo import Lattice, dv_cell, relevant_vectors, shortest_in_coset

F = Fraction

hexagonal = Lattice.create([[1, 0], [0, 1]], [[2, 1], [1, 2]])
print("relevant vectors of the hexagonal plane lattice:")
for v in relevant_vectors(hexagonal):
    print("  ", tuple(str(x) for x in v),
          "norm^2 =", hexagonal.norm_sq(v))

cell = dv_cell(hexagonal)
print("hexagon vertices:", [tuple(str(x) for x in v) for v in cell.vertices])

print()
print("coset minimizers distinguish facet vectors from the rest:")
z3 = Lattice.create([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
for coset in [(1, 0, 0), (1, 1, 0), (1, 1, 1)]:
    mins = shortest_in_coset(z3, coset)
    tag = "facet pair" if len(mins) == 2 else f"{len(mins)} minimizers"
    print(f"  coset {coset}: {tag}")

print()
d4 = Lattice.create([[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1], [0, 0, 1, 1]])
cell4 = dv_cell(d4)
print("the D4 cell (d = 4):", cell4.n_vertices, "vertices,",
      cell4.n_facets, "facets")
for codim in (1, 2, 3):
    faces = cell4.face_lattice.faces(cell4.dim - codim)
    print(f"  codim {codim}: {len(faces)} faces")
