"""Brute-force enumeration of small-step walks confined to a cone.

This is the ground-truth oracle: a layer-by-layer dynamic program over the
box reachable in n steps, masked by the region predicate, with exact
arbitrary-precision counts.  Every closed form, functional equation and
parametrization elsewhere in the package is checked against this module.

``_layers`` is the one exact DP loop, and ``sweep`` is the one memo.
Verification reads are memoised per run: every pipeline series and every
identity check reads its walk model through ``sweep``, so each model is
swept once.  The readers whose length the user picks (``count``,
``series``, ``oeis`` and the closed forms) stream ``_layers`` instead:
each frontier is dropped once read, because holding every frontier of a
long sweep until the process ends raises its peak memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .laurent import LPoly2
from .series import Series2


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


@lru_cache(maxsize=None)
def sweep(model: WalkModel, n: int) -> tuple:
    """The DP frontiers for lengths 0..n, swept once per run.  Every reader
    shares them, so none may change one."""
    return tuple(_layers(model, n))


def count_walks_upto(model: WalkModel, n: int) -> list:
    """CountTable for every length 0..n, sharing one DP sweep."""
    return [
        CountTable(n=k, counts=dict(frontier))
        for k, frontier in enumerate(_layers(model, n))
    ]


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


def generating_series(model: WalkModel, order: int) -> Series2:
    """Full bivariate generating function as an exact truncated series.

    It reads ``sweep(model, order)``, one layer more than it needs, so the
    checks that compare lengths 0..order read the same memo entry."""
    frontiers = sweep(model, order)[:order]
    return Series2([LPoly2(frontier) for frontier in frontiers], order)


def float_totals(model: WalkModel, n: int):
    """Fast non-exact total counts for lengths 0..n (diagnostics only).

    Uses a dense numpy float64 layer DP; values are approximate and must
    never feed a verification path.
    """
    import numpy as np

    size = 2 * n + 1
    x0, y0 = model.start
    grid = np.zeros((size, size), dtype=np.float64)
    grid[n, n] = 1.0  # the grid spans n steps either way of the start
    ii, jj = np.meshgrid(
        np.arange(x0 - n, x0 + n + 1), np.arange(y0 - n, y0 + n + 1),
        indexing="ij",
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
