"""Rigorous box chain recurrent models of complex Henon maps.

The package subdivides a trapping box for a polynomial map (quadratic
Henon over C^2 or R^2, quadratic/cubic polynomial over C), builds a
directed graph of box-to-box transitions with interval arithmetic,
extracts its strongly connected components as the recurrent model, and
reports explicit accuracy bounds and sink-separation estimates.
"""

from .ia import (
    BoxPredicates,
    BoxRegion,
    ComplexInterval,
    DomainError,
    Interval,
    UsageError,
    box_predicates,
    hull_complex,
)
from .errors import ParseError, ResourceError, MemoryBudgetError

__all__ = [
    "Interval",
    "ComplexInterval",
    "BoxRegion",
    "BoxPredicates",
    "box_predicates",
    "hull_complex",
    "DomainError",
    "UsageError",
    "ParseError",
    "ResourceError",
    "MemoryBudgetError",
]

__version__ = "0.1.0"
