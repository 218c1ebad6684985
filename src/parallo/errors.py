"""Exception types shared across the package."""


class ParalloError(Exception):
    """Base class for all package errors."""


class ParseError(ParalloError):
    """Malformed input document (JSON structure, rational strings, ...)."""


class GeometryError(ParalloError):
    """Input violates a geometric precondition (unbounded, degenerate, ...)."""


class UnsupportedDimensionError(ParalloError):
    """Operation only implemented for a specific dimension (usually d = 3)."""


class NotAParallelohedron(ParalloError):
    """Venkov conditions failed; the message names the first witness."""


class DualCellAnomaly(ParalloError):
    """A dual 3-cell hull matched none of the five reference types.

    On valid parallelohedron input this should be impossible; seeing it
    means either corrupted input or a counterexample to the expectation
    that dual k-cell hulls are k-dimensional of the known types, so it
    is raised loudly, its message naming what failed.
    """
