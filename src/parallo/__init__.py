"""Exact-arithmetic toolkit for parallelohedra.

Decides whether a convex polytope tiles space by translation (Venkov
conditions), builds the canonical scaling from the gain function on
primitive ridges, recovers the certifying positive-definite quadratic
form, and reports belts, primitivity, dual cells and the topology of
the delta- and pi-surfaces. All computations are in exact rational
arithmetic so every verdict doubles as a certificate.

The names below are imported from their stage module on first use
(PEP 562), so `import parallo` loads no stage and a command loads only
the stages its verdict reaches.
"""

__version__ = "0.1.0"

_STAGE_OF = {
    "Lattice": "lattice",
    "Parallelohedron": "parallelohedron",
    "Polytope": "polytope",
    "build_ridge_graph": "scaling",
    "canonical_scaling": "scaling",
    "dv_cell": "lattice",
    "relevant_vectors": "lattice",
    "shortest_in_coset": "lattice",
    "surface_topology": "topology",
    "venkov_check": "venkov",
    "voronoi_form": "scaling",
}

__all__ = [*_STAGE_OF, "__version__"]


def __getattr__(name):
    stage = _STAGE_OF.get(name)
    if stage is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{stage}"), name)
    globals()[name] = value
    return value
