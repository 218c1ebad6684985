"""Surface invariants of the five cell types.

Removing the closed non-primitive edges from each boundary leaves an
open surface whose components, Euler characteristics and rational
first Betti numbers separate the five combinatorial types; the
antipodal quotient halves everything. The elongated dodecahedron is
the interesting case: its quotient surface has computed rank 2 while
the published value is 1, and the half-belt cycles span either way.
"""

from parallo.catalog import catalog
from parallo.parallelohedron import Parallelohedron
from parallo.topology import surface_topology

for name in ("cube", "hexagonal-prism", "rhombic-dodecahedron",
             "elongated-dodecahedron", "truncated-octahedron"):
    para = Parallelohedron.build(catalog(name).polytope)
    delta, pi, span = surface_topology(para)
    print(name)
    print("  open surface:   ",
          [(c.cell_counts, f"chi={c.chi}", f"h1={c.h1_rank}",
            "compact" if c.compact else "open")
           for c in delta.components])
    print("  antipodal side: ",
          [(c.cell_counts, f"chi={c.chi}", f"h1={c.h1_rank}")
           for c in pi.components])
    print(f"  half-belt span: rank {span.span_rank} of h1 {span.h1_rank}"
          f" -> spanned={span.spanned}")
