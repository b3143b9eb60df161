"""Closed counting formulas against the exact DP oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conewalks import closedforms as cf
from conewalks.identities import Z_TERMS
from conewalks.walks import (
    DIAGONAL,
    LATTICES,
    SQUARE,
    Region,
    WalkModel,
    count_walks_upto,
)
from test_walks import replace


def rising(a, n):
    """(a)_n as one ``Fraction``, from the package's integer pair."""
    return Fraction(*cf._rising(Fraction(a), n))


def test_rising_factorial():
    assert cf._rising(Fraction(3), 4) == (3 * 4 * 5 * 6, 1)
    assert cf._rising(Fraction(1, 2), 2) == (3, 4)
    assert cf._rising(Fraction(5), 0) == (1, 1)
    with pytest.raises(ValueError):
        cf._rising(Fraction(1), -1)


def reference_rising_factorial(a, n):
    """(a)_n as a product of ``Fraction`` factors."""
    if n < 0:
        raise ValueError("n must be non-negative")
    a = Fraction(a)
    out = Fraction(1)
    for k in range(n):
        out *= a + k
    return out


def value(term, n):
    """A term's value at n, from the package's integer pair."""
    return Fraction(*term.ratio(n))


def reference_value(term, n):
    """A term's value at n, one ``Fraction`` operation at a time."""
    val = term.coeff * sum(c * n**k for k, c in enumerate(term.poly))
    for a, s in term.num:
        val *= reference_rising_factorial(a, n + s)
    for b, s in term.den:
        val /= reference_rising_factorial(b, n + s)
    return val


def outcome(f, *args):
    """f(*args), or the type of the exception it raises."""
    try:
        return f(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


CATALOG_TERMS = [t for entry in cf.catalog().values() for t in entry.terms]


@pytest.mark.parametrize("term", [*CATALOG_TERMS, *Z_TERMS])
def test_integer_first_terms_equal_the_fraction_loops(term):
    for n in range(-2, 41):
        assert outcome(value, term, n) == outcome(reference_value, term, n)
        for a, s in (*term.num, *term.den):
            assert outcome(rising, a, n + s) == outcome(
                reference_rising_factorial, a, n + s)


@pytest.mark.parametrize("key", [*cf.catalog(), "Z_TERMS"])
def test_hyp_sum_equals_the_fraction_sum(key):
    """One integer numerator and denominator give the value of the sum of
    ``Fraction`` terms times 16^n."""
    terms = Z_TERMS if key == "Z_TERMS" else cf.catalog()[key].terms
    for n in range(41):
        value = cf.hyp_sum(terms, n)
        assert type(value) is Fraction
        assert value == Fraction(16) ** n * sum(
            (reference_value(t, n) for t in terms), Fraction(0))


@given(st.fractions(min_value=-20, max_value=20, max_denominator=12),
       st.integers(-3, 30))
def test_rising_factorial_equals_the_fraction_loop(a, n):
    assert outcome(rising, a, n) == outcome(
        reference_rising_factorial, a, n)


def test_rising_factorial_at_nonpositive_integers():
    """(a)_n vanishes from n = 1 - a on when a is an integer <= 0."""
    assert [rising(-3, n) for n in range(6)] == [
        1, -3, 6, -6, 0, 0]
    assert [rising(0, n) for n in range(3)] == [1, 0, 0]
    assert rising(Fraction(-5, 2), 3) == Fraction(-15, 8)
    for a in (-3, Fraction(1, 2)):
        with pytest.raises(ValueError):
            rising(a, -1)


def test_term_with_a_vanishing_rising_factorial():
    """A numerator (a)_n with an integer a <= 0 zeroes the term; the same
    factor in the denominator divides by zero, as the Fraction loop does."""
    zeroed = cf.HypTerm(Fraction(3), (Fraction(1),), ((Fraction(-2), 0),),
                        ((Fraction(1, 2), 1),))
    assert [value(zeroed, n) for n in range(5)] == [
        reference_value(zeroed, n) for n in range(5)]
    assert [value(zeroed, n) for n in range(3, 6)] == [0, 0, 0]
    pole = cf.HypTerm(Fraction(1), (Fraction(1),), (), ((Fraction(-1), 0),))
    assert value(pole, 1) == -1
    with pytest.raises(ZeroDivisionError):
        value(pole, 2)
    with pytest.raises(ValueError):
        value(zeroed, -2)


def test_binomial():
    assert [cf.binomial(5, k) for k in range(6)] == [1, 5, 10, 10, 5, 1]
    assert cf.binomial(5, -1) == 0
    assert cf.binomial(5, 6) == 0
    assert cf.binomial(5, Fraction(3, 2)) == 0


def test_quadrant_square_against_dp():
    model = WalkModel(SQUARE, Region.QUADRANT, (0, 0))
    tables = count_walks_upto(model, 10)
    for n in range(11):
        counts = tables[n]
        for i in range(11):
            for j in range(11):
                assert cf.quadrant_square_count(i, j, n) == counts.get(
                    (i, j), 0)


def test_quadrant_diag_against_dp():
    model = WalkModel(DIAGONAL, Region.QUADRANT, (0, 0))
    tables = count_walks_upto(model, 10)
    for n in range(11):
        counts = tables[n]
        for i in range(11):
            for j in range(11):
                assert cf.quadrant_diag_count(i, j, n) == counts.get((i, j), 0)


def test_gessel_small_values():
    wedge = cf.catalog()["wedge-0-0"]
    assert [wedge.count(n) for n in range(5)] == [1, 2, 11, 85, 782]


def test_gessel_against_dp():
    model = WalkModel(SQUARE, Region.WEDGE135, (0, 0))
    tables = count_walks_upto(model, 20)
    wedge = cf.catalog()["wedge-0-0"]
    for n in range(11):
        assert wedge.count(n) == tables[2 * n].get((0, 0), 0)


def test_catalog_well_formed():
    cat = cf.catalog()
    assert len(cat) == 11
    for key, entry in cat.items():
        assert entry.key == key
        assert entry.model.steps in LATTICES.values()
        assert entry.model.region in (Region.THREE_QUADRANT, Region.WEDGE135)
        assert len(entry.model.start) == 2 and len(entry.end) == 2


def test_a_start_outside_its_region_fails_when_the_catalog_loads(
        monkeypatch):
    raw = cf.read_data("closed_forms.json")
    key = sorted(raw)[0]
    raw[key] = dict(raw[key], start=[-1, -1])
    monkeypatch.setattr(cf, "read_data", lambda name: raw)
    cf.catalog.cache_clear()
    try:
        with pytest.raises(ValueError,
                           match=r"start \(-1, -1\) outside region"):
            cf.catalog()
    finally:
        monkeypatch.undo()
        cf.catalog.cache_clear()


@pytest.mark.parametrize("key", sorted(cf.catalog()))
def test_catalog_against_dp(key):
    entry = cf.catalog()[key]
    tables = count_walks_upto(entry.model, 16)
    for n in range(9):
        assert entry.count(n) == tables[2 * n].get(entry.end, 0), (
            key, n)


def test_non_integral_raises():
    entry = cf.catalog()["sq-origin-0-0"]
    broken = replace(entry, key="broken", anchor="", terms=(
        cf.HypTerm(Fraction(1, 3), (Fraction(1),), ((Fraction(1, 2), 0),),
                   ((Fraction(2), 0),)),
    ))
    with pytest.raises(ArithmeticError):
        broken.count(2)
