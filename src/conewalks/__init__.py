"""Exact enumeration of small-step lattice walks confined to cones.

The package counts walks with exact big-integer dynamic programming,
reads structured series (boundary pieces, orbit-sum corrections) off the
oracle, and verifies closed-form counts, algebraic parametrizations and
functional-equation identities order by order in the length variable.
"""

from .walks import (
    DIAGONAL,
    SQUARE,
    Region,
    WalkModel,
    count_sequence,
    count_walks_upto,
    generating_series,
)

__version__ = "0.1.0"

__all__ = [
    "DIAGONAL",
    "SQUARE",
    "Region",
    "WalkModel",
    "count_sequence",
    "count_walks_upto",
    "generating_series",
    "__version__",
]
