"""New test inputs built from known ones.

`product(p, q)` is the direct product P x Q, whose vertices are the
concatenations of a vertex of P with a vertex of Q. Its facets are the
F x Q and the P x G, one per facet of either factor. When both factors
tile, it tiles by the product lattice and is the Voronoi cell of the
block-diagonal form of the factors' forms.

`cartan(n, edges)` is the Cartan matrix of a Dynkin diagram on the
nodes 1..n (Bourbaki labels), the Gram matrix of its simple roots; an
edge with a node past n is left out, so `E_EDGES` gives E6, E7 and E8.

`random_form(rng, d)` is a random positive definite integer form, so
`Lattice.create(identity, G)` is an input whose verdict (`certified`)
and form (G, up to the cone of forms of a non-primitive cell) are known
before the program runs.
"""

from parallo import linalg
from parallo.polytope import Polytope

SEGMENT = Polytope.from_vertices([(0,), (1,)])

# the Dynkin edges of E8; E6 and E7 keep those within their nodes
E_EDGES = frozenset({(1, 3), (3, 4), (4, 5), (5, 6), (2, 4), (6, 7), (7, 8)})


def a_edges(n: int) -> frozenset:
    """The Dynkin edges of A_n: the path 1 - 2 - ... - n."""
    return frozenset((i, i + 1) for i in range(1, n))


def d_edges(n: int) -> frozenset:
    """The Dynkin edges of D_n: the path 1 - ... - (n - 1), and n on
    node n - 2."""
    return a_edges(n - 1) | {(n - 2, n)}


def cartan(n: int, edges) -> tuple[tuple[int, ...], ...]:
    """2 on the diagonal and -1 at each edge among the nodes 1..n."""
    return tuple(tuple(2 if i == j else -1 if {(i, j), (j, i)} & edges else 0
                       for j in range(1, n + 1)) for i in range(1, n + 1))


def product(p: Polytope, q: Polytope) -> Polytope:
    """The direct product of two polytopes, in the coordinates of p
    followed by those of q."""
    return Polytope.from_vertices([(*v, *w) for v in p.vertices
                                   for w in q.vertices])


def random_form(rng, d: int) -> list[list[int]]:
    """A^T A with A in [-3, 3]^(d x d), plus a random diagonal in 1..4
    and symmetric noise in {-1, 0, 1} off the diagonal, drawn again
    until it is positive definite."""
    while True:
        a = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
        g = [[sum(r[i] * r[j] for r in a) for j in range(d)] for i in range(d)]
        for i in range(d):
            g[i][i] += rng.randint(1, 4)
            for j in range(i):
                e = rng.choice((-1, 0, 1))
                g[i][j] += e
                g[j][i] += e
        if linalg.is_positive_definite(linalg.mat(g)):
            return g
