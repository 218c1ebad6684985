"""New test inputs built from known ones.

`product(p, q)` is the direct product P x Q, whose vertices are the
concatenations of a vertex of P with a vertex of Q. Its facets are the
F x Q and the P x G, one per facet of either factor. When both factors
tile, it tiles by the product lattice and is the Voronoi cell of the
block-diagonal form of the factors' forms.
"""

from parallo.polytope import Polytope

SEGMENT = Polytope.from_vertices([(0,), (1,)])


def product(p: Polytope, q: Polytope) -> Polytope:
    """The direct product of two polytopes, in the coordinates of p
    followed by those of q."""
    return Polytope.from_vertices([(*v, *w) for v in p.vertices
                                   for w in q.vertices])
