"""Brute-force enumeration of small-step walks confined to a cone.

This is the ground-truth oracle: a layer-by-layer dynamic program with
exact arbitrary-precision counts.  Every closed form, functional equation
and parametrization elsewhere in the package is checked against this
module, and ``asympt`` prints its totals as floats.

The DP sweeps the paper's two lattices, and one step serves both.  It
works on rows: each region meets row j in a half-line i >= lo(j), the
whole row, or nothing (``ROW_BOUNDS``), so a step adds shifted copies of
rows into their target row and clips the sum to the half-line; no
per-cell predicate runs.  Square walks are diagonal walks turned by 45
degrees: in the frame (u, v) = (i + j, i - j) the square steps are the
diagonal steps, and each region is again a half-line u >= lo(v) of row v
(``TURNED_BOUNDS``).  So both lattices run ``_diagonal_step``, two list
additions per new row.  Every frame step is (+-1, +-1), so the cells of a
row share their parity, and so do the rows of a frontier: a row is stored
as (i0, counts) with counts at i0, i0 + 2, i0 + 4, ....  ``Frontier``
hides the rows and the frame: ``get``, ``total`` and ``cells`` are the
only way to read a frontier.  ``WalkModel`` refuses any other step set.

``_layers`` is the one DP loop, and ``sweep`` is the one memo.
Verification reads are memoised per run: every pipeline series and every
identity check reads its walk model through ``sweep``, so each model is
swept once.  The readers whose length the user picks (``count``,
``series``, ``oeis``, ``asympt`` and the closed forms) stream ``_layers``
instead: each frontier is dropped once read, because holding every
frontier of a long sweep until the process ends raises its peak memory.
``endpoint_columns`` is the one endpoint reader: it reads any number of
endpoints of one model from one streamed sweep, so the closed forms sweep
each walk model once however many of its endpoints they check.

A streamed reader may delete, from the frontier of length m it has read,
the cells it need not follow for the k = n - m steps left, and
``_layers`` steps from what is left.  ``count_sequence`` moves to a
running count each cell from which no walk of k steps leaves the region,
so only a band along the boundary is stepped; ``endpoint_columns`` drops
the cells more than k steps from every endpoint.  ``sweep`` and
``count_walks_upto`` keep every cell.

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

# Region -> its row bound in the turned frame (u, v) = (i + j, i - j):
# v -> lo(v) of u, or WHOLE_ROW.
TURNED_BOUNDS = {
    Region.QUADRANT: abs,
    Region.THREE_QUADRANT: lambda v: -abs(v),
    Region.WEDGE135: lambda v: max(v, 0),
    Region.HALF_PLANE: lambda v: 0,
    Region.FULL_PLANE: lambda v: WHOLE_ROW,
}

# An int beyond every cell a sweep reaches: -_FAR and _FAR stand for the
# bounds of a whole row and of an empty one where an int is needed.
_FAR = 1 << 62


class WalkModel(Record):
    """A complete enumeration problem: steps, cone and starting point.  The
    steps are the square or the diagonal ones, the two the DP sweeps."""

    __slots__ = ("steps", "region", "start")

    def __init__(self, steps: StepSet, region: Region, start: tuple):
        if steps.steps not in (SQUARE.steps, DIAGONAL.steps):
            raise ValueError(f"no walk DP for the {steps.name} steps: "
                             "only square and diagonal")
        super().__init__(steps, region, start)
        self.require_inside("start", start)

    def require_inside(self, what: str, point: tuple) -> None:
        if not self.region.contains(*point):
            raise ValueError(f"{what} {point} outside region {self.region.value}")


class CountTable(Record):
    """Endpoint counts for all walks of one length: ``counts`` maps (i, j)
    to an int."""

    __slots__ = ("n", "counts")

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

    ``rows`` maps j to (i0, counts): counts[k] walks end at (i0 + 2k, j),
    and no walk ends between them.  A row runs from its first reached cell
    to its last, so it holds no cell the region excludes.  When ``turned``
    is true the rows are in the frame (u, v) = (i + j, i - j): ``rows``
    maps v to (u0, counts).  Readers use ``get``, ``total`` and ``cells``
    only.
    """

    __slots__ = ("rows", "turned")

    def get(self, i: int, j: int) -> int:
        if self.turned:
            i, j = i + j, i - j
        row = self.rows.get(j)
        if row is None:
            return 0
        i0, counts = row
        k, odd = divmod(i - i0, 2)
        return counts[k] if not odd and 0 <= k < len(counts) else 0

    def total(self) -> int:
        return sum(sum(counts) for _, counts in self.rows.values())

    def cells(self) -> dict:
        """The nonzero cells, as (i, j) -> count."""
        cells = {
            (i0 + 2 * k, j): c
            for j, (i0, counts) in self.rows.items()
            for k, c in enumerate(counts)
            if c
        }
        if self.turned:
            return {((u + v) // 2, (u - v) // 2): c
                    for (u, v), c in cells.items()}
        return cells


def _diagonal_step(rows: dict, bound) -> dict:
    """The rows one diagonal step on: new row j is rows j - 1 and j + 1
    summed, then each cell added to its right neighbour (the steps dx = -1
    and +1), then clipped to its half-line or dropped."""
    nxt = {}
    for j in sorted({r + d for r in rows for d in (-1, 1)}):
        lo = bound(j)
        below, above = rows.get(j - 1), rows.get(j + 1)
        if below is None or above is not None and above[0] < below[0]:
            below, above = above, below  # now ``below`` starts first
        if below is None or lo == EMPTY_ROW:
            continue
        first, total = below
        if above is not None:
            k = (above[0] - first) // 2
            end = k + len(above[1])
            total = total + [0] * (end - len(total))
            total[k:end] = map(add, total[k:end], above[1])
        first -= 1
        row = list(map(add, total + [0], [0] + total))
        if lo != WHOLE_ROW and lo > first:
            cut = (lo - first + 1) // 2
            if cut >= len(row):
                continue
            first, row = first + 2 * cut, row[cut:]
        nxt[j] = (first, row)
    return nxt


def _frame(model: WalkModel) -> tuple:
    """(turned, row bound, start) of the DP of a model: the square steps
    run in the turned frame, where they are the diagonal steps."""
    if model.steps.steps == SQUARE.steps:
        i, j = model.start
        return True, TURNED_BOUNDS[model.region], (i + j, i - j)
    return False, ROW_BOUNDS[model.region], model.start


def _layers(model: WalkModel, n: int):
    """Yield the DP frontier after 0, 1, ..., n steps (none if n < 0).

    A reader may delete cells from a frontier's ``rows`` once it has read
    it, and the next frontier is stepped from the cells left.  So a wrapper
    of this generator must yield the very frontiers it gets, not copies, as
    ``perfbench/tracer.py``'s counter does; a copy would leave the deleted
    cells in the sweep."""
    if n < 0:
        return
    turned, bound, (i0, j0) = _frame(model)
    frontier = Frontier({j0: (i0, [1])}, turned)
    yield frontier
    for _ in range(n):
        frontier = Frontier(_diagonal_step(frontier.rows, bound), turned)
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
    empty and nothing is swept.

    Of the frontier of length m it keeps, in each row, only the span of the
    endpoints at most k = n - m rows away, widened by k: a step moves each
    coordinate of the DP frame by 1, so no walk from a dropped cell reaches
    an endpoint in k steps."""
    columns = {endpoint: [] for endpoint in endpoints}
    for endpoint in columns:
        model.require_inside("endpoint", endpoint)
    if n < 0:
        return columns
    turned, _, _ = _frame(model)
    targets = [(i + j, i - j) if turned else (i, j) for i, j in columns]
    for m, frontier in enumerate(_layers(model, n)):
        for endpoint, column in columns.items():
            column.append(frontier.get(*endpoint))
        k, rows = n - m, frontier.rows
        for j, (first, counts) in list(rows.items()):
            near = [i for i, row in targets if abs(row - j) <= k]
            lo = max(0, -((first + k - min(near, default=_FAR)) // 2))
            hi = min(len(counts),
                     (max(near, default=-_FAR) + k - first) // 2 + 1)
            if lo >= hi:
                del rows[j]
            elif lo or hi < len(counts):
                rows[j] = (first + 2 * lo, counts[lo:hi])
    return columns


def _free_bounds(bound, row: int, n: int) -> list:
    """[lo_0, ..., lo_n]: lo_k lists, for every other row j = row - n + k,
    row - n + k + 2, ..., row + n - k (the rows a frontier of length n - k
    can hold), the least i from which no walk of k steps leaves the region
    (_FAR if there is none, -_FAR if every i is one).  lo_0 is the row
    bound, and as every frame step is (+-1, +-1),
    lo_k(j) = max(lo_0(j), lo_{k-1}(j - 1) + 1, lo_{k-1}(j + 1) + 1)."""
    ends = {EMPTY_ROW: _FAR, WHOLE_ROW: -_FAR}
    lo0 = [ends.get(lo, lo) for lo in map(bound, range(row - n, row + n + 1))]
    bounds = [lo0[::2]]
    for k in range(1, n + 1):
        prev = bounds[-1]
        bounds.append([max(lo, below + 1, above + 1) for lo, below, above
                       in zip(lo0[k::2], prev, prev[1:])])
    return bounds


def count_sequence(model: WalkModel, n: int, endpoint=None) -> list:
    """Counts of the walks of lengths 0..n from one sweep: all of them, or
    only those ending at ``endpoint``.  Empty when n is negative.

    A cell of the frontier of length m from which no walk of the k = n - m
    steps left can leave the region is retired: its count joins ``free``,
    which is multiplied by 4, the number of steps, at each step, and the
    sweep goes on without it."""
    if endpoint is not None:
        return endpoint_columns(model, n, [endpoint])[endpoint]
    if n < 0:
        return []
    _, bound, (_, j0) = _frame(model)
    bounds = _free_bounds(bound, j0, n)
    totals, free = [], 0
    for m, frontier in enumerate(_layers(model, n)):
        lo, rows = bounds[n - m], frontier.rows
        for j, (first, counts) in list(rows.items()):
            cut = max(0, -((first - lo[(j - j0 + m) // 2]) // 2))
            if cut < len(counts):
                free += sum(counts[cut:])
                if cut:
                    rows[j] = (first, counts[:cut])
                else:
                    del rows[j]
        totals.append(free + frontier.total())
        free *= 4
    return totals


def generating_series(model: WalkModel, order: int):
    """Full bivariate generating function as an exact truncated ``Series2``.

    It reads ``sweep(model, order)``, one layer more than it needs, so the
    checks that compare lengths 0..order read the same memo entry."""
    from .laurent import LPoly2
    from .series import Series2

    frontiers = sweep(model, order)[:order]
    return Series2([LPoly2(frontier.cells()) for frontier in frontiers], order)

