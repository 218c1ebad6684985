"""Walk the full certification pipeline on the truncated octahedron.

The cell comes out of the body-centered cubic lattice, passes the
Venkov conditions, gets a canonical scaling from its ridge gains, and
is finally proved to be the Voronoi cell under the recovered quadratic
form: every facet is a bisector, and no short lattice vector cuts off a
vertex.
"""

from fractions import Fraction

from parallo import Lattice, Parallelohedron, dv_cell
from parallo.scaling import build_ridge_graph, canonical_scaling, voronoi_form

F = Fraction

bcc = Lattice.create([[1, 0, 0], [0, 1, 0], [F(1, 2), F(1, 2), F(1, 2)]])
cell = dv_cell(bcc)
print("Voronoi cell of BCC:", cell.n_vertices, "vertices,",
      cell.n_facets, "facets")

para = Parallelohedron.build(cell)
print("belt lengths:", sorted(b.length for b in para.belts))

gains = build_ridge_graph(para)  # primitive ridge id -> gain across it
print("ridge graph:", len(gains), "edges,",
      len(set(para.delta_roots)), "component(s)")

scaling, witness = canonical_scaling(para, gains)  # witness is None here
print("canonical scaling per facet:")
for fi, value in enumerate(scaling["values"]):
    kind = "hexagon" if sum(abs(x) for x in cell.facet_normals[fi]) == 3 \
        else "square "
    print(f"  facet {fi:2d} ({kind}) -> {value}")

cert = voronoi_form(para, scaling)  # the report's certificate block
print("verdict:", cert["verdict"])
print("recovered metric rows:", [[str(x) for x in row] for row in cert["gram"]])
