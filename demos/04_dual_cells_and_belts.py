"""Dual cells, belts and primitivity across the catalog.

A codim-k face of the tiling is shared by a set of tile centers (its
dual cell); the hull types of the dual 3-cells classify local vertex
configurations, and across the five cell types all five classical
types occur.
"""

from parallo.catalog import catalog
from parallo.parallelohedron import Parallelohedron, dual3_census

for name in ("cube", "hexagonal-prism", "rhombic-dodecahedron",
             "elongated-dodecahedron", "truncated-octahedron"):
    para = Parallelohedron.build(catalog(name).polytope)
    belts = {}
    for b in para.belts:
        belts[b.length] = belts.get(b.length, 0) + 1
    print(name)
    print("  belts by length:", belts)
    print("  primitivity by codim:", para.primitivity_profile())
    print("  dual 3-cell census:", dual3_census(para)[0])
    facet = para.polytope.face_lattice.faces(para.dim - 1)[0]
    print("  a facet's dual cell has centers:",
          [tuple(str(x) for x in t)
           for t in para.centers(para.dual_cell(facet))])
