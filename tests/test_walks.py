"""Oracle tests: exact dynamic-programming walk counts.

Frozen values in this file were computed by brute-force enumeration over
all step sequences (independent of the DP) while the tests were written.
"""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from conewalks import closedforms, walks
from conewalks.cli import asympt_rows
from conewalks.walks import (
    DIAGONAL,
    SQUARE,
    CountTable,
    Frontier,
    Region,
    StepSet,
    WalkModel,
    count_sequence,
    count_walks_upto,
    endpoint_columns,
    generating_series,
    _layers,
    _stride,
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
        values = [table(WEDGE, 2 * n).get(0, 0) for n in range(5)]
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
                assert counts.get(j, i) == c

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
                assert big.get(i, j) >= c

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
            assert values[n] == table(SQ3, n).get(0, 0)

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
        assert all(e["count"] == str(counts.get(e["i"], e["j"]))
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
                    t.get(*end) for t in tables]


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
        assert columns[end] == [t.get(*end) for t in tables]
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


def reference_layers(model, n):
    """The cell-by-cell dict DP the row DP replaced: a frontier is a dict
    (i, j) -> count of the cells some walk reaches."""
    if n < 0:
        return
    contains = REFERENCE_REGION_TESTS[model.region]
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


# Two step sets that break the parity rule, so their rows keep every cell.
KING = StepSet("king", frozenset(
    step for step in product((-1, 0, 1), repeat=2) if step != (0, 0)))
KREWERAS = StepSet("kreweras", frozenset({(1, 0), (0, 1), (-1, -1)}))


def test_stride_follows_the_parity_rule():
    assert [_stride(s) for s in (SQUARE, DIAGONAL, KING, KREWERAS)] == [
        2, 2, 1, 1]
    # Three square steps still fix the parity of i + j.
    assert _stride(StepSet("half", frozenset({(1, 0), (-1, 0), (0, 1)}))) == 2


@st.composite
def walk_models(draw):
    region = draw(st.sampled_from(list(Region)))
    steps = draw(st.sampled_from([SQUARE, DIAGONAL, KING, KREWERAS]))
    start = draw(st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(
        lambda p: REFERENCE_REGION_TESTS[region](*p)))
    return WalkModel(steps, region, start)


@settings(max_examples=150, deadline=None)
@given(walk_models(), st.integers(0, 25))
def test_row_frontiers_equal_the_dict_reference(model, n):
    """Every frontier holds exactly the cells the dict DP reaches, with
    their counts.  With a parity stride it stores no zero either, so the
    rows hold exactly those cells; a step set without one (king,
    Kreweras) leaves unreached cells inside a row, which ``cells`` skips."""
    pairs = list(zip(_layers(model, n), reference_layers(model, n),
                     strict=True))
    assert len(pairs) == n + 1
    for frontier, expected in pairs:
        assert frontier.cells() == expected
        assert frontier.total() == sum(expected.values())
        if frontier.stride == 2:
            assert all(all(counts) for _, counts in frontier.rows.values())
    frontier, expected = pairs[-1]
    x0, y0 = model.start
    for i, j in product(range(x0 - n - 2, x0 + n + 3),
                        range(y0 - n - 2, y0 + n + 3)):
        assert frontier.get(i, j) == expected.get((i, j), 0)


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
        (Frontier({0: (0, [1])}, 2), "stride"),
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
        assert replace(a[3], stride=1) != a[3]
        assert a[3] == Frontier(dict(a[3].rows), a[3].stride)

    def test_equality_with_another_type_is_not_implemented(self):
        assert SQUARE.__eq__(("square", SQUARE.steps)) is NotImplemented
        assert SQUARE != ("square", SQUARE.steps) and SQUARE != SQ3
        assert not isinstance(SQUARE, tuple)
