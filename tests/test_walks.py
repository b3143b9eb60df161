"""Oracle tests: exact dynamic-programming walk counts.

Frozen values in this file were computed by brute-force enumeration over
all step sequences (independent of the DP) while the tests were written.
"""

import inspect
from itertools import product
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from conewalks import closedforms, walks
from conewalks.cli import asympt_rows
from conewalks.walks import (
    DIAGONAL,
    EMPTY_ROW,
    ROW_BOUNDS,
    SQUARE,
    TURNED_BOUNDS,
    WHOLE_ROW,
    CountTable,
    Frontier,
    Region,
    StepSet,
    WalkModel,
    count_sequence,
    count_walks_upto,
    endpoint_columns,
    generating_series,
    _FAR,
    _diagonal_step,
    _frame,
    _free_bounds,
    _layers,
)


def brute_force(steps, region, start, n):
    """Direct enumeration of all step sequences, for cross-checking."""
    counts = {}
    for seq in product(steps.steps, repeat=n):
        pos = start
        ok = True
        for dx, dy in seq:
            pos = (pos[0] + dx, pos[1] + dy)
            if not region.contains(*pos):
                ok = False
                break
        if ok:
            counts[pos] = counts.get(pos, 0) + 1
    return counts


def brute_totals(model, n):
    """The numbers of walks of lengths 0..n, by direct enumeration."""
    return [sum(brute_force(model.steps, model.region, model.start,
                            k).values())
            for k in range(n + 1)]


def replace(record, **changes):
    """A copy of ``record`` with the fields named in ``changes`` set to
    their new values."""
    return type(record)(*(changes.get(name, getattr(record, name))
                          for name in record.__slots__))


def table(model, n):
    """Endpoint counts of the n-step walks, from a streaming sweep."""
    return count_walks_upto(model, n)[n]


SQ3 = WalkModel(SQUARE, Region.THREE_QUADRANT, (0, 0))
DG3 = WalkModel(DIAGONAL, Region.THREE_QUADRANT, (0, 0))
WEDGE = WalkModel(SQUARE, Region.WEDGE135, (0, 0))


class TestAgainstBruteForce:
    @pytest.mark.parametrize("model", [SQ3, DG3, WEDGE,
                                       WalkModel(SQUARE, Region.QUADRANT, (0, 0)),
                                       WalkModel(SQUARE, Region.THREE_QUADRANT, (-1, 0)),
                                       WalkModel(DIAGONAL, Region.THREE_QUADRANT, (-2, 0))])
    def test_small_lengths(self, model):
        for n in range(5):
            expected = brute_force(model.steps, model.region, model.start, n)
            assert table(model, n).counts == expected


class TestFrozenValues:
    def test_square_cone_totals(self):
        assert count_sequence(SQ3, 5) == [
            1, 4, 14, 54, 200, 776,
        ]

    def test_wedge_totals(self):
        assert count_sequence(WEDGE, 4) == [1, 2, 7, 21, 78]

    def test_wedge_origin_returns(self):
        values = [table(WEDGE, 2 * n).counts.get((0, 0), 0)
                  for n in range(5)]
        assert values == [1, 2, 11, 85, 782]

    def test_diag_cone_totals(self):
        # at n=2: 16 free walks minus the 4 whose first step lands in the
        # forbidden quadrant at (-1,-1)
        assert count_sequence(DG3, 5) == [
            1, 3, 12, 41, 164, 590,
        ]

    def test_quadrant_square_totals(self):
        model = WalkModel(SQUARE, Region.QUADRANT, (0, 0))
        assert count_sequence(model, 5) == [
            1, 2, 6, 18, 60, 200,
        ]


class TestStructure:
    def test_symmetry_across_diagonal(self):
        for model in (SQ3, DG3):
            counts = table(model, 6)
            for (i, j), c in counts.counts.items():
                assert counts.counts.get((j, i), 0) == c

    def test_region_nesting(self):
        # quadrant <= wedge <= half-plane <= full-plane, endpointwise
        models = [
            WalkModel(SQUARE, r, (0, 0))
            for r in (Region.QUADRANT, Region.WEDGE135,
                      Region.HALF_PLANE, Region.FULL_PLANE)
        ]
        tables = [table(m, 6) for m in models]
        for small, big in zip(tables, tables[1:]):
            for (i, j), c in small.counts.items():
                assert big.counts.get((i, j), 0) >= c

    def test_diagonal_parity(self):
        for (i, j) in table(DG3, 5).counts:
            # each diagonal step flips both coordinate parities
            assert (5 - i) % 2 == 0 and (5 - j) % 2 == 0

    def test_full_plane_square_binomials(self):
        from conewalks.closedforms import binomial

        model = WalkModel(SQUARE, Region.FULL_PLANE, (0, 0))
        counts = table(model, 6).counts
        assert sum(counts.values()) == 4**6
        # rotate 45 degrees: components become independent ballot walks
        for (i, j), c in counts.items():
            u, v = i + j, i - j
            assert c == binomial(6, (6 + u) // 2) * binomial(6, (6 + v) // 2)

    def test_count_walks_upto_consistent(self):
        upto = count_walks_upto(SQ3, 5)
        for n in range(6):
            assert upto[n].counts == brute_force(
                SQ3.steps, SQ3.region, SQ3.start, n)


class TestSeriesViews:
    def test_endpoint_sequence_matches_tables(self):
        values = count_sequence(SQ3, 7, (0, 0))
        for n in range(8):
            assert values[n] == table(SQ3, n).counts.get((0, 0), 0)

    def test_endpoint_outside_region(self):
        with pytest.raises(ValueError):
            count_sequence(SQ3, 3, (-1, -1))

    def test_generating_series_totals(self):
        g = generating_series(SQ3, 6)
        totals = count_sequence(SQ3, 5)
        for n in range(6):
            assert sum(g.coeff(n).terms.values()) == totals[n]

    def test_json_shape(self):
        counts = table(SQ3, 4)
        blob = counts.to_json()
        assert blob["n"] == 4
        assert [(e["i"], e["j"]) for e in blob["counts"]] == sorted(
            counts.counts)
        assert all(e["count"] == str(counts.counts[(e["i"], e["j"])])
                   for e in blob["counts"])

    def test_float_totals_tracks_exact(self):
        """asympt prints each total as the float nearest the count found by
        enumerating every step sequence."""
        assert [row["total_float"] for row in asympt_rows(SQ3, "square", 7)
                ] == [f"{float(total):.6e}" for total in brute_totals(SQ3, 7)]


def _starts(region):
    """The origin and a shifted start inside the region."""
    return [(0, 0), (1, 0) if region is Region.QUADRANT else (-1, 1)]


@pytest.mark.parametrize("region", list(Region))
@pytest.mark.parametrize("steps", [SQUARE, DIAGONAL])
def test_float_totals_tracks_exact_in_every_region(steps, region):
    """asympt's printed totals are the enumerated ones in every region,
    also from a start more than n steps from the origin."""
    for start in [*_starts(region), (12, 0)]:
        model = WalkModel(steps, region, start)
        rows = asympt_rows(model, steps.name, 5)
        assert [(row["n"], row["total_float"]) for row in rows] == [
            (n, f"{float(total):.6e}")
            for n, total in enumerate(brute_totals(model, 5))]


@pytest.mark.parametrize("region", list(Region))
@pytest.mark.parametrize("steps", [SQUARE, DIAGONAL])
def test_count_sequence_equals_per_length_counts(steps, region):
    """The one-sweep reader agrees with the endpoint tables per length."""
    n = 7
    for start in _starts(region):
        model = WalkModel(steps, region, start)
        tables = count_walks_upto(model, n)
        assert count_sequence(model, n) == [
            sum(t.counts.values()) for t in tables]
        for end in [start, (1, 1), (2, 0), (-1, 1)]:
            if region.contains(*end):
                assert count_sequence(model, n, end) == [
                    t.counts.get(end, 0) for t in tables]


def test_count_sequence_edges():
    assert count_sequence(SQ3, -1) == []
    assert count_sequence(SQ3, 0) == [1]
    assert count_sequence(SQ3, 0, (1, 0)) == [0]
    with pytest.raises(ValueError, match="endpoint .* outside region"):
        count_sequence(SQ3, 3, (-1, -1))


def catalog_models():
    """Each distinct walk model of the closed-form catalog, with the
    endpoints its entries read."""
    models = {}
    for entry in closedforms.catalog().values():
        models.setdefault(entry.model, []).append(entry.end)
    return list(models.items())


@pytest.mark.parametrize("model, ends", catalog_models())
def test_endpoint_columns_equal_the_tables(model, ends):
    """One sweep reads every endpoint's column: each equals the counts of
    the per-length tables, for the catalog's endpoints and a few others."""
    n = 24
    tables = count_walks_upto(model, n)
    points = [*ends, model.start, (1, 1), (-3, 1), (5, 0), (40, 0)]
    points = [p for p in dict.fromkeys(points) if model.region.contains(*p)]
    columns = endpoint_columns(model, n, points)
    assert list(columns) == points
    for end in points:
        assert columns[end] == [t.counts.get(end, 0) for t in tables]
        assert count_sequence(model, n, end) == columns[end]


def test_endpoint_columns_check_every_endpoint_before_sweeping(monkeypatch):
    started = []
    monkeypatch.setattr(walks, "_layers",
                        lambda model, n: started.append(n) or iter(()))
    with pytest.raises(ValueError, match=r"endpoint \(-1, -1\) outside"):
        endpoint_columns(SQ3, 5, [(0, 0), (2, 1), (-1, -1)])
    with pytest.raises(ValueError, match="outside region"):
        count_sequence(SQ3, 5, (-1, -1))
    assert started == []


def test_endpoint_columns_edges():
    assert endpoint_columns(SQ3, -1, [(0, 0), (1, 0)]) == {(0, 0): [],
                                                          (1, 0): []}
    assert endpoint_columns(SQ3, 3, []) == {}
    assert endpoint_columns(SQ3, 2, [(0, 0), (0, 0)]) == {(0, 0): [1, 0, 4]}


def test_negative_length_sweeps_nothing():
    assert list(_layers(SQ3, -1)) == []
    assert count_walks_upto(SQ3, -1) == []


@pytest.mark.parametrize("region", list(Region))
@pytest.mark.parametrize("steps", [SQUARE, DIAGONAL])
def test_support_stays_within_n_steps_of_start(steps, region):
    """Every monomial x^i y^j of [t^n] G has |i - x0|, |j - y0| <= n."""
    for start in _starts(region):
        x0, y0 = start
        g = generating_series(WalkModel(steps, region, start), 8)
        for n, poly in enumerate(g.coeffs):
            assert poly.terms
            for (i, j) in poly.terms:
                assert abs(i - x0) <= n and abs(j - y0) <= n


# The region predicates as first written, one lambda per region: the
# reference for the row bounds that state each region now.
REFERENCE_REGION_TESTS = {
    Region.QUADRANT: lambda i, j: i >= 0 and j >= 0,
    Region.THREE_QUADRANT: lambda i, j: i >= 0 or j >= 0,
    Region.WEDGE135: lambda i, j: i + j >= 0 and j >= 0,
    Region.HALF_PLANE: lambda i, j: i + j >= 0,
    Region.FULL_PLANE: lambda i, j: True,
}


@pytest.mark.parametrize("region", list(Region))
def test_row_bounds_agree_with_the_reference_predicates(region):
    inside = REFERENCE_REGION_TESTS[region]
    for i, j in product(range(-12, 13), repeat=2):
        assert region.contains(i, j) == inside(i, j), (i, j)


def reference_layers(steps, region, start, n):
    """The cell-by-cell dict DP the row DP replaced, for any small step
    set: a frontier is a dict (i, j) -> count of the cells some walk
    reaches."""
    if n < 0:
        return
    contains = REFERENCE_REGION_TESTS[region]
    frontier = {start: 1}
    yield frontier
    for _ in range(n):
        nxt = {}
        for (i, j), c in frontier.items():
            for dx, dy in steps.steps:
                p = (i + dx, j + dy)
                if contains(*p):
                    nxt[p] = nxt.get(p, 0) + c
        frontier = nxt
        yield frontier


# Step sets the walk DP does not sweep; the kernel equations of
# ``identities`` read any small step set, so their tests take these too.
KING = StepSet("king", frozenset(
    step for step in product((-1, 0, 1), repeat=2) if step != (0, 0)))
KREWERAS = StepSet("kreweras", frozenset({(1, 0), (0, 1), (-1, -1)}))
GESSEL = StepSet("gessel", frozenset({(1, 0), (-1, 0), (1, 1), (-1, -1)}))


@pytest.mark.parametrize("steps", [KING, KREWERAS, GESSEL],
                         ids=lambda s: s.name)
def test_a_model_of_other_steps_is_refused(steps):
    """Only the square and diagonal steps have a walk DP, so a model of any
    other steps cannot be built, and nothing sweeps the wrong steps."""
    with pytest.raises(ValueError, match=f"no walk DP for the {steps.name}"):
        WalkModel(steps, Region.FULL_PLANE, (0, 0))


def reference_step(rows: dict, steps, bound, stride: int) -> dict:
    """The rows one step on, for any small step set whose rows keep every
    ``stride``-th cell: row j shifted by each step (dx, dy) into row
    j + dy, the shifted copies summed, and each new row clipped to its
    half-line or dropped.  The row-level reference for ``_diagonal_step``."""
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


@st.composite
def walk_models(draw):
    region = draw(st.sampled_from(list(Region)))
    steps = draw(st.sampled_from([SQUARE, DIAGONAL]))
    start = draw(st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(
        lambda p: REFERENCE_REGION_TESTS[region](*p)))
    return WalkModel(steps, region, start)


@settings(max_examples=150, deadline=None)
@given(walk_models(), st.integers(0, 25))
def test_row_frontiers_equal_the_dict_reference(model, n):
    """Every frontier holds exactly the cells the dict DP reaches, with
    their counts, and stores no zero either, so the rows hold exactly
    those cells."""
    pairs = list(zip(_layers(model, n),
                     reference_layers(model.steps, model.region, model.start,
                                      n),
                     strict=True))
    assert len(pairs) == n + 1
    for frontier, expected in pairs:
        assert frontier.cells() == expected
        assert frontier.total() == sum(expected.values())
        assert all(all(counts) for _, counts in frontier.rows.values())
    frontier, expected = pairs[-1]
    x0, y0 = model.start
    for i, j in product(range(x0 - n - 2, x0 + n + 3),
                        range(y0 - n - 2, y0 + n + 3)):
        assert frontier.get(i, j) == expected.get((i, j), 0)


def ij_layers(model, n):
    """The frontiers of ``reference_step`` in the (i, j) frame, the
    reference for the turned frame of the square steps (their rows keep
    every other cell, as in the turned frame)."""
    steps, bound = model.steps.steps, ROW_BOUNDS[model.region]
    i0, j0 = model.start
    frontier = Frontier({j0: (i0, [1])}, False)
    for _ in range(n + 1):
        yield frontier
        frontier = Frontier(reference_step(frontier.rows, steps, bound, 2),
                            False)


@pytest.mark.parametrize("region", list(Region))
def test_turned_square_sweep_equals_the_ij_frame(region):
    """The square steps swept in the turned frame give, cell by cell, the
    frontiers of the generic step in the (i, j) frame."""
    n = 12
    for start in [*_starts(region), (3, 2), (5, 0)]:
        model = WalkModel(SQUARE, region, start)
        pairs = list(zip(_layers(model, n), ij_layers(model, n),
                         strict=True))
        for frontier, reference in pairs:
            assert frontier.turned and not reference.turned
            assert frontier.cells() == reference.cells()
            assert frontier.total() == reference.total()
        x0, y0 = start
        for i, j in product(range(x0 - n - 1, x0 + n + 2),
                            range(y0 - n - 1, y0 + n + 2)):
            assert frontier.get(i, j) == reference.get(i, j), (i, j)


@st.composite
def diagonal_rows(draw):
    """Rows of one frontier of the diagonal steps: every row index of one
    parity, every first cell of one parity, counts with zeros and gaps."""
    jpar, ipar = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    keys = draw(st.sets(st.integers(-4, 4), max_size=6))
    return {2 * a + jpar: (2 * draw(st.integers(-4, 4)) + ipar,
                           draw(st.lists(st.integers(0, 9), min_size=1,
                                         max_size=6)))
            for a in keys}


@settings(max_examples=200, deadline=None)
@given(diagonal_rows(), st.sampled_from(list(Region)), st.booleans())
def test_diagonal_step_equals_the_generic_step(rows, region, turned):
    bound = (TURNED_BOUNDS if turned else ROW_BOUNDS)[region]
    assert _diagonal_step(rows, bound) == reference_step(rows, DIAGONAL.steps,
                                                         bound, 2)


@pytest.mark.parametrize("region", list(Region))
def test_turned_bounds_agree_with_the_reference_predicates(region):
    """In the turned frame (u, v) = (i + j, i - j) the region is u >= lo(v)
    of each row v, on cells of both parities of i + j."""
    inside, bound = REFERENCE_REGION_TESTS[region], TURNED_BOUNDS[region]
    for i, j in product(range(-12, 13), repeat=2):
        lo = bound(i - j)
        assert (lo == WHOLE_ROW or i + j >= lo) == inside(i, j), (i, j)


STEP_SETS = [SQUARE, DIAGONAL]


@pytest.mark.parametrize("n", [0, 1, 2, 7, 20])
@pytest.mark.parametrize("region", list(Region))
@pytest.mark.parametrize("steps", STEP_SETS, ids=lambda s: s.name)
def test_trimming_readers_equal_the_full_sweep(steps, region, n):
    """The readers that drop cells read what the full sweep holds: the
    totals, and the column of each endpoint, near the start, far off or
    out of reach."""
    for start in _starts(region):
        model = WalkModel(steps, region, start)
        full = list(_layers(model, n))
        assert count_sequence(model, n) == [f.total() for f in full]
        ends = [start, (0, 0), (1, 1), (2, 0), (-1, 1), (-3, 2), (6, 1),
                (n, 0), (100, 100)]
        ends = [e for e in dict.fromkeys(ends) if region.contains(*e)]
        columns = endpoint_columns(model, n, ends)
        for end in ends:
            assert columns[end] == [f.get(*end) for f in full], end
        assert columns[(100, 100)] == [0] * (n + 1)


def reference_free_bounds(steps, bound, row, n):
    """lo_k as row -> bound for every row in reach, by the recurrence."""
    lo0 = {j: {EMPTY_ROW: _FAR, WHOLE_ROW: -_FAR}.get(bound(j), bound(j))
           for j in range(row - n, row + n + 1)}
    out = [lo0]
    for k in range(1, n + 1):
        out.append({j: max(lo0[j], *(out[-1][j + dy] - dx for dx, dy in steps))
                    for j in range(row - n + k, row + n - k + 1)})
    return out


@pytest.mark.parametrize("region", list(Region))
@pytest.mark.parametrize("steps", STEP_SETS, ids=lambda s: s.name)
def test_free_bounds_key_on_the_parity_of_dy_not_the_stride(steps, region):
    """Every bound ``_free_bounds`` keeps equals the recurrence's over the
    steps of the DP frame, on every other row: every frame step has an odd
    dy, so a frontier holds one row parity."""
    for start in _starts(region):
        model = WalkModel(steps, region, start)
        _, bound, (_, j0) = _frame(model)
        for n in (0, 1, 7, 20):
            bounds = _free_bounds(bound, j0, n)
            ref = reference_free_bounds(DIAGONAL.steps, bound, j0, n)
            assert bounds == [
                [lo[j] for j in range(j0 - n + k, j0 + n - k + 1, 2)]
                for k, lo in enumerate(ref)], (start, n)
            assert count_sequence(model, n) == [
                f.total() for f in _layers(model, n)], (start, n)


def passed_through(monkeypatch):
    """Wrap ``walks._layers`` in a generator that yields each frontier it
    gets, as ``perfbench/tracer.py`` does; return the frontiers seen."""
    seen, layers = [], walks._layers

    def counted(model, n):
        for frontier in layers(model, n):
            seen.append(frontier)
            yield frontier

    monkeypatch.setattr(walks, "_layers", counted)
    return seen


@pytest.mark.parametrize("steps", STEP_SETS, ids=lambda s: s.name)
def test_the_full_plane_retires_every_cell(monkeypatch, steps):
    """No walk leaves the full plane, so every cell is retired as soon as
    it is read, and the totals are |S|^n."""
    seen = passed_through(monkeypatch)
    model = WalkModel(steps, Region.FULL_PLANE, (0, 0))
    assert count_sequence(model, 9) == [len(steps.steps) ** k
                                        for k in range(10)]
    assert len(seen) == 10 and all(f.rows == {} for f in seen)


def test_layers_takes_only_the_model_and_the_length():
    """perfbench's tracer wraps ``_layers`` as ``counted(model, n)``."""
    assert list(inspect.signature(_layers).parameters) == ["model", "n"]


@pytest.mark.parametrize("steps", [SQUARE, DIAGONAL])
def test_a_pass_through_wrapper_leaves_the_readers_unchanged(monkeypatch,
                                                             steps):
    model = WalkModel(steps, Region.THREE_QUADRANT, (-1, 0))
    ends = [(0, 0), (-1, 0), (3, 1)]
    plain = count_sequence(model, 15), endpoint_columns(model, 15, ends)
    seen = passed_through(monkeypatch)
    assert (count_sequence(model, 15),
            endpoint_columns(model, 15, ends)) == plain
    assert len(seen) == 32


class TestRecords:
    """The records are plain ``__slots__`` classes: value equality, value
    hashes for the memo keys, no assignment, and the old validation."""

    def test_a_model_built_twice_is_one_memo_key(self):
        a = WalkModel(StepSet("square", frozenset(SQUARE.steps)),
                      Region.THREE_QUADRANT, (-1, 0))
        b = WalkModel(SQUARE, Region.THREE_QUADRANT, (-1, 0))
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != WalkModel(SQUARE, Region.THREE_QUADRANT, (0, 0))
        walks.sweep.cache_clear()
        try:
            assert walks.sweep(a, 6) is walks.sweep(b, 6)
            assert walks.sweep.cache_info().misses == 1
        finally:
            walks.sweep.cache_clear()

    @pytest.mark.parametrize("steps", [
        frozenset(), frozenset({(0, 0)}), frozenset({(2, 0)}),
        frozenset({(1, 0), (0, -2)})])
    def test_step_set_rejects_what_it_rejected(self, steps):
        with pytest.raises(ValueError):
            StepSet("bad", steps)

    def test_start_outside_region_is_rejected(self):
        with pytest.raises(ValueError, match=r"start \(0, -1\) outside"):
            WalkModel(SQUARE, Region.QUADRANT, (0, -1))

    @pytest.mark.parametrize("record,field", [
        (SQUARE, "steps"), (SQ3, "start"), (SQ3, "region"),
        (Frontier({0: (0, [1])}, False), "turned"),
        (CountTable(0, {(0, 0): 1}), "n"),
        (closedforms.catalog()["wedge-0-0"], "end")])
    def test_fields_cannot_be_assigned(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)

    def test_frontiers_compare_by_value(self):
        a, b = list(_layers(SQ3, 4)), list(_layers(SQ3, 4))
        assert a == b and a[3] is not b[3]
        assert a[3] != a[4]
        assert a[3] == Frontier(dict(a[3].rows), a[3].turned)
        assert replace(a[3], turned=not a[3].turned) != a[3]

    def test_equality_with_another_type_is_not_implemented(self):
        assert SQUARE.__eq__(("square", SQUARE.steps)) is NotImplemented
        assert SQUARE != ("square", SQUARE.steps) and SQUARE != SQ3
        assert not isinstance(SQUARE, tuple)
