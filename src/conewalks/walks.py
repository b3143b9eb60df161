"""Brute-force enumeration of small-step walks confined to a cone.

This is the ground-truth oracle: a layer-by-layer dynamic program with
exact arbitrary-precision counts.  Every closed form, functional equation
and parametrization elsewhere in the package is checked against this
module.

The DP works on rows.  Each region meets row j in a half-line i >= lo(j),
the whole row, or nothing (``ROW_BOUNDS``), so one step adds a shifted copy
of each row into its target row and clips the sum to the half-line; no
per-cell predicate runs.  A row is stored as (i0, counts) with counts at
i0, i0 + 2, i0 + 4, ...: on the square lattice every cell of a length-n
frontier from (x0, y0) has i + j = x0 + y0 + n (mod 2), and on the
diagonal lattice i and j each have a fixed parity, so the cells between
them are never reached.  A step set without such a parity rule keeps
every cell (stride 1).  ``Frontier`` hides the rows: ``get``, ``total``
and ``cells`` are the only way to read a frontier.

``_layers`` is the one exact DP loop, and ``sweep`` is the one memo.
Verification reads are memoised per run: every pipeline series and every
identity check reads its walk model through ``sweep``, so each model is
swept once.  The readers whose length the user picks (``count``,
``series``, ``oeis`` and the closed forms) stream ``_layers`` instead:
each frontier is dropped once read, because holding every frontier of a
long sweep until the process ends raises its peak memory.
``endpoint_columns`` is the one endpoint reader: it reads any number of
endpoints of one model from one streamed sweep, so the closed forms sweep
each walk model once however many of its endpoints they check.

The module needs no other module of the package: ``StepSet.step_poly`` and
``generating_series`` import ``laurent`` and ``series`` when called, so
``count``, ``series``, ``oeis`` and ``asympt`` load only this module and
``cli`` (and ``bfile`` for ``oeis``).  Its records (and those of
``closedforms``) are ``Record`` classes, not dataclasses, which cost an
``exec`` per class at import.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from operator import add


class Record:
    """An immutable value record: its fields are its ``__slots__``, set in
    order by ``__init__``, and it compares and hashes by their values.

    Records are not tuples (no namedtuple): ``perfbench/tracer.py`` rebuilds
    every module-level tuple as a plain tuple, which would turn ``SQUARE``
    and ``DIAGONAL`` into tuples without their fields."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


class StepSet(Record):
    """Finite set of small steps (dx, dy) with dx, dy in {-1, 0, 1}."""

    __slots__ = ("name", "steps")

    def __init__(self, name: str, steps: frozenset):
        if not steps:
            raise ValueError("step set must be nonempty")
        for dx, dy in steps:
            if dx not in (-1, 0, 1) or dy not in (-1, 0, 1) or (dx, dy) == (0, 0):
                raise ValueError(f"not a small step: {(dx, dy)}")
        super().__init__(name, steps)

    def step_poly(self):
        """The Laurent polynomial sum of x^dx y^dy over all steps."""
        from .laurent import LPoly2

        return LPoly2({s: 1 for s in self.steps})


SQUARE = StepSet("square", frozenset({(1, 0), (-1, 0), (0, 1), (0, -1)}))
DIAGONAL = StepSet("diagonal", frozenset({(1, 1), (1, -1), (-1, 1), (-1, -1)}))

# Lattice name -> its step set, for the command line and the catalogs.
LATTICES = {"square": SQUARE, "diagonal": DIAGONAL}


class Region(Enum):
    """Confinement cones, each stated once by its row bound in
    ``ROW_BOUNDS``."""

    QUADRANT = "quadrant"
    THREE_QUADRANT = "three-quadrant"
    WEDGE135 = "wedge135"
    HALF_PLANE = "half-plane"
    FULL_PLANE = "full-plane"

    def contains(self, i: int, j: int) -> bool:
        lo = ROW_BOUNDS[self](j)
        return lo == WHOLE_ROW or (lo != EMPTY_ROW and i >= lo)


# How a region meets row j: the half-line i >= lo(j), the whole row, or none
# of it.
WHOLE_ROW, EMPTY_ROW = "whole row", "empty row"

# Region -> its row bound: j -> lo(j), WHOLE_ROW or EMPTY_ROW.
ROW_BOUNDS = {
    Region.QUADRANT: lambda j: 0 if j >= 0 else EMPTY_ROW,
    Region.THREE_QUADRANT: lambda j: WHOLE_ROW if j >= 0 else 0,
    Region.WEDGE135: lambda j: -j if j >= 0 else EMPTY_ROW,
    Region.HALF_PLANE: lambda j: -j,
    Region.FULL_PLANE: lambda j: WHOLE_ROW,
}


class WalkModel(Record):
    """A complete enumeration problem: steps, cone and starting point."""

    __slots__ = ("steps", "region", "start")

    def __init__(self, steps: StepSet, region: Region, start: tuple):
        super().__init__(steps, region, start)
        self.require_inside("start", start)

    def require_inside(self, what: str, point: tuple) -> None:
        if not self.region.contains(*point):
            raise ValueError(f"{what} {point} outside region {self.region.value}")


class CountTable(Record):
    """Endpoint counts for all walks of one length: ``counts`` maps (i, j)
    to an int."""

    __slots__ = ("n", "counts")

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


class Frontier(Record):
    """The counts of the walks of one length, by endpoint.

    ``rows`` maps j to (i0, counts): counts[k] walks end at
    (i0 + stride * k, j).  A row runs from its first reached cell to its
    last, so it holds no cell the region excludes.  Readers use ``get``,
    ``total`` and ``cells`` only.
    """

    __slots__ = ("rows", "stride")

    def get(self, i: int, j: int) -> int:
        row = self.rows.get(j)
        if row is None:
            return 0
        i0, counts = row
        k, off = divmod(i - i0, self.stride)
        return counts[k] if off == 0 and 0 <= k < len(counts) else 0

    def total(self) -> int:
        return sum(sum(counts) for _, counts in self.rows.values())

    def cells(self) -> dict:
        """The nonzero cells, as (i, j) -> count."""
        s = self.stride
        return {
            (i0 + s * k, j): c
            for j, (i0, counts) in self.rows.items()
            for k, c in enumerate(counts)
            if c
        }


def _stride(steps: StepSet) -> int:
    """2 when the cells of a row of one frontier share the parity of i,
    else 1.  They do when dx + a*dy is odd for every step, for one a in
    {0, 1}: a = 1 on the square lattice, a = 0 on the diagonal one."""
    odd = any(all((dx + a * dy) % 2 for dx, dy in steps.steps) for a in (0, 1))
    return 2 if odd else 1


def _step(rows: dict, steps, bound, stride: int) -> dict:
    """The rows one step on: row j shifted by each step (dx, dy) into row
    j + dy, the shifted copies summed, and each new row clipped to its
    half-line or dropped."""
    parts = {}  # new row -> [(i of its first cell, counts)]
    for j, (i0, counts) in rows.items():
        for dx, dy in steps:
            parts.setdefault(j + dy, []).append((i0 + dx, counts))
    nxt = {}
    for j, shifted in parts.items():
        lo = bound(j)
        if lo == EMPTY_ROW:
            continue
        first = min(i for i, _ in shifted)
        last = max(i + stride * (len(counts) - 1) for i, counts in shifted)
        if lo != WHOLE_ROW and lo > first:
            first += -((first - lo) // stride) * stride
            if first > last:
                continue
        row = [0] * ((last - first) // stride + 1)
        for i, counts in shifted:
            k = (i - first) // stride
            if k < 0:
                counts = counts[-k:]
                k = 0
            end = k + len(counts)
            row[k:end] = map(add, row[k:end], counts)
        nxt[j] = (first, row)
    return nxt


def _layers(model: WalkModel, n: int):
    """Yield the DP frontier after 0, 1, ..., n steps (none if n < 0)."""
    if n < 0:
        return
    bound = ROW_BOUNDS[model.region]
    steps = model.steps.steps
    stride = _stride(model.steps)
    i0, j0 = model.start
    frontier = Frontier({j0: (i0, [1])}, stride)
    yield frontier
    for _ in range(n):
        frontier = Frontier(_step(frontier.rows, steps, bound, stride), stride)
        yield frontier


@lru_cache(maxsize=None)
def sweep(model: WalkModel, n: int) -> tuple:
    """The DP frontiers for lengths 0..n, swept once per run.  Every reader
    shares them, so none may change one."""
    return tuple(_layers(model, n))


def count_walks_upto(model: WalkModel, n: int) -> list:
    """CountTable for every length 0..n, sharing one DP sweep."""
    return [
        CountTable(k, frontier.cells())
        for k, frontier in enumerate(_layers(model, n))
    ]


def endpoint_columns(model: WalkModel, n: int, endpoints) -> dict:
    """The counts of the walks of lengths 0..n ending at each of
    ``endpoints``, as endpoint -> [count at length 0, ..., n], read from
    one sweep that keeps no frontier.  Every endpoint is checked against
    the region before the sweep starts; when n is negative the lists are
    empty and nothing is swept."""
    columns = {endpoint: [] for endpoint in endpoints}
    for endpoint in columns:
        model.require_inside("endpoint", endpoint)
    if n < 0:
        return columns
    for frontier in _layers(model, n):
        for endpoint, column in columns.items():
            column.append(frontier.get(*endpoint))
    return columns


def count_sequence(model: WalkModel, n: int, endpoint=None) -> list:
    """Counts of the walks of lengths 0..n from one sweep: all of them, or
    only those ending at ``endpoint``.  Empty when n is negative."""
    if endpoint is not None:
        return endpoint_columns(model, n, [endpoint])[endpoint]
    if n < 0:
        return []
    return [frontier.total() for frontier in _layers(model, n)]


def generating_series(model: WalkModel, order: int):
    """Full bivariate generating function as an exact truncated ``Series2``.

    It reads ``sweep(model, order)``, one layer more than it needs, so the
    checks that compare lengths 0..order read the same memo entry."""
    from .laurent import LPoly2
    from .series import Series2

    frontiers = sweep(model, order)[:order]
    return Series2([LPoly2(frontier.cells()) for frontier in frontiers], order)


def float_totals(model: WalkModel, n: int):
    """Fast non-exact total counts for lengths 0..n (diagnostics only).

    Uses a dense numpy float64 layer DP; values are approximate and must
    never feed a verification path.  It stays because ``asympt`` accepts
    n up to ``cli.ASYMPT_MAX_N`` = 511: at n = 200 on the three-quadrant
    model from the origin, the exact row DP takes 1.1 s (square) and
    0.93 s (diagonal) against 0.37 s here (Python 3.11.7, 2 vCPU).
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
