"""Exact-arithmetic toolkit for parallelohedra.

Decides whether a convex polytope tiles space by translation (Venkov
conditions), builds the canonical scaling from the gain function on
primitive ridges, recovers the certifying positive-definite quadratic
form, and reports belts, primitivity, dual cells and the topology of
the delta- and pi-surfaces. All computations are in exact rational
arithmetic so every verdict doubles as a certificate.
"""

from .lattice import Lattice, dv_cell, relevant_vectors, shortest_in_coset
from .parallelohedron import Parallelohedron, venkov_check
from .polytope import Polytope
from .scaling import build_ridge_graph, canonical_scaling, voronoi_form
from .topology import surface_topology

__version__ = "0.1.0"

__all__ = [
    "Lattice",
    "Parallelohedron",
    "Polytope",
    "build_ridge_graph",
    "canonical_scaling",
    "dv_cell",
    "relevant_vectors",
    "shortest_in_coset",
    "surface_topology",
    "venkov_check",
    "voronoi_form",
    "__version__",
]
