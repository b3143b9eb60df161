"""Brute-force enumeration of small-step walks confined to a cone.

This is the ground-truth oracle: a layer-by-layer dynamic program over the
box reachable in n steps, masked by the region predicate, with exact
arbitrary-precision counts.  Every closed form, functional equation and
parametrization elsewhere in the package is checked against this module.

``_layers`` is the one exact DP loop; every view reads all the lengths it
needs from one sweep of it, and nothing is memoised.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .laurent import LPoly2
from .series import Series1, Series2


@dataclass(frozen=True)
class StepSet:
    """Finite set of small steps (dx, dy) with dx, dy in {-1, 0, 1}."""

    name: str
    steps: frozenset

    def __post_init__(self):
        if not self.steps:
            raise ValueError("step set must be nonempty")
        for dx, dy in self.steps:
            if dx not in (-1, 0, 1) or dy not in (-1, 0, 1) or (dx, dy) == (0, 0):
                raise ValueError(f"not a small step: {(dx, dy)}")

    def step_poly(self) -> LPoly2:
        """The Laurent polynomial sum of x^dx y^dy over all steps."""
        return LPoly2({s: 1 for s in self.steps})


SQUARE = StepSet("square", frozenset({(1, 0), (-1, 0), (0, 1), (0, -1)}))
DIAGONAL = StepSet("diagonal", frozenset({(1, 1), (1, -1), (-1, 1), (-1, -1)}))


class Region(Enum):
    """Confinement cones, as membership predicates on lattice points."""

    QUADRANT = "quadrant"
    THREE_QUADRANT = "three-quadrant"
    WEDGE135 = "wedge135"
    HALF_PLANE = "half-plane"
    FULL_PLANE = "full-plane"

    def contains(self, i: int, j: int) -> bool:
        return REGION_TESTS[self](i, j)


# Region -> membership predicate on (i, j).
REGION_TESTS = {
    Region.QUADRANT: lambda i, j: i >= 0 and j >= 0,
    Region.THREE_QUADRANT: lambda i, j: i >= 0 or j >= 0,
    Region.WEDGE135: lambda i, j: i + j >= 0 and j >= 0,
    Region.HALF_PLANE: lambda i, j: i + j >= 0,
    Region.FULL_PLANE: lambda i, j: True,
}


@dataclass(frozen=True)
class WalkModel:
    """A complete enumeration problem: steps, cone and starting point."""

    steps: StepSet
    region: Region
    start: tuple

    def __post_init__(self):
        self.require_inside("start", self.start)

    def require_inside(self, what: str, point: tuple) -> None:
        if not self.region.contains(*point):
            raise ValueError(f"{what} {point} outside region {self.region.value}")


@dataclass
class CountTable:
    """Endpoint counts for all walks of one length."""

    n: int
    counts: dict  # (i, j) -> int

    def total(self) -> int:
        return sum(self.counts.values())

    def get(self, i: int, j: int) -> int:
        return self.counts.get((i, j), 0)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "counts": [
                {"i": i, "j": j, "count": str(c)}
                for (i, j), c in sorted(self.counts.items())
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CountTable":
        return cls(
            n=obj["n"],
            counts={
                (e["i"], e["j"]): int(e["count"]) for e in obj["counts"]
            },
        )

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def _layers(model: WalkModel, n: int):
    """Yield the DP frontier after 0, 1, ..., n steps (none if n < 0)."""
    if n < 0:
        return
    contains = REGION_TESTS[model.region]
    steps = model.steps.steps
    frontier = {model.start: 1}
    yield frontier
    for _ in range(n):
        nxt = {}
        for (i, j), c in frontier.items():
            for dx, dy in steps:
                p = (i + dx, j + dy)
                if contains(*p):
                    nxt[p] = nxt.get(p, 0) + c
        frontier = nxt
        yield frontier


def count_walks(model: WalkModel, n: int) -> CountTable:
    """Exact endpoint counts of all n-step walks staying inside the region."""
    if n < 0:
        raise ValueError("walk length must be nonnegative")
    for frontier in _layers(model, n):
        pass
    return CountTable(n=n, counts=dict(frontier))


def count_walks_upto(model: WalkModel, n: int) -> list:
    """CountTable for every length 0..n, sharing one DP sweep."""
    return [
        CountTable(n=k, counts=dict(frontier))
        for k, frontier in enumerate(_layers(model, n))
    ]


def total_count(model: WalkModel, n: int) -> int:
    return count_walks(model, n).total()


def count_sequence(model: WalkModel, n: int, endpoint=None) -> list:
    """Counts of the walks of lengths 0..n from one sweep: all of them, or
    only those ending at ``endpoint``.  Empty when n is negative."""
    if endpoint is not None:
        model.require_inside("endpoint", endpoint)
    if n < 0:
        return []
    if endpoint is None:
        return [sum(frontier.values()) for frontier in _layers(model, n)]
    return [frontier.get(endpoint, 0) for frontier in _layers(model, n)]


def endpoint_series(model: WalkModel, endpoint: tuple, order: int) -> Series1:
    """Length generating function of walks ending at one point (constant coeffs)."""
    values = count_sequence(model, order - 1, endpoint)
    return Series1.from_scalar_coeffs(map(Fraction, values), order)


def generating_series(model: WalkModel, order: int) -> Series2:
    """Full bivariate generating function as an exact truncated series."""
    coeffs = [
        LPoly2({p: Fraction(c) for p, c in frontier.items()})
        for frontier in _layers(model, order - 1)
    ]
    return Series2(coeffs, order)


def float_totals(model: WalkModel, n: int):
    """Fast non-exact total counts for lengths 0..n (diagnostics only).

    Uses a dense numpy float64 layer DP; values are approximate and must
    never feed a verification path.
    """
    import numpy as np

    size = 2 * n + 1
    x0, y0 = model.start
    grid = np.zeros((size, size), dtype=np.float64)
    grid[x0 + n, y0 + n] = 1.0
    ii, jj = np.meshgrid(
        np.arange(-n, n + 1), np.arange(-n, n + 1), indexing="ij"
    )
    mask = np.vectorize(model.region.contains, otypes=[bool])(ii, jj)
    totals = [1.0]
    for _ in range(n):
        nxt = np.zeros_like(grid)
        for dx, dy in model.steps.steps:
            src = grid
            shifted = np.zeros_like(grid)
            lo_i = max(0, dx)
            hi_i = size + min(0, dx)
            lo_j = max(0, dy)
            hi_j = size + min(0, dy)
            shifted[lo_i:hi_i, lo_j:hi_j] = src[
                lo_i - dx : hi_i - dx, lo_j - dy : hi_j - dy
            ]
            nxt += shifted
        nxt *= mask
        grid = nxt
        totals.append(float(grid.sum()))
    return totals
