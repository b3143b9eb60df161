"""Unit tests for the sparse Laurent polynomial rings."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conewalks.laurent import LPoly, LPoly2, qdiv
from conewalks.series import Series1


def lp(d):
    return LPoly({e: Fraction(c) for e, c in d.items()})


small_lpoly = st.dictionaries(
    st.integers(-4, 4), st.integers(-9, 9), max_size=5
).map(lp)

int_terms = st.dictionaries(st.integers(-4, 4), st.integers(-9, 9), max_size=5)
int_terms2 = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)), st.integers(-9, 9),
    max_size=5,
)
nonzero_int = st.integers(-5, 5).filter(bool)
thirds_lpoly = st.dictionaries(
    st.integers(-2, 2), st.integers(-6, 6).map(lambda k: Fraction(k, 3)),
    max_size=4,
).map(LPoly)


def is_stored_form(c) -> bool:
    """An exact scalar in the form the rings store: int when integral."""
    if type(c) is int:
        return True
    return type(c) is Fraction and c.denominator != 1


# Each ring with a second monomial: 1/x for LPoly, 1/y for LPoly2.
RINGS = pytest.mark.parametrize(
    "ring,m", [(LPoly, LPoly.var(-1)), (LPoly2, LPoly2.y(-1))],
    ids=["LPoly", "LPoly2"])


class TestLPoly:
    def test_zero_and_const(self):
        assert LPoly().is_zero()
        assert LPoly.const(0).is_zero()
        assert LPoly.const(3).coeff(0) == 3
        assert LPoly.var(2).coeff(2) == 1

    def test_arith(self):
        p = lp({-1: 2, 1: 3})
        q = lp({0: 1, 1: -3})
        assert (p + q) == lp({-1: 2, 0: 1})
        assert (p - p).is_zero()
        assert p * LPoly.var(1) == lp({0: 2, 2: 3})

    def test_sub_inverse_involution(self):
        p = lp({-2: 1, 0: 7, 3: -5})
        assert p.sub_inverse().sub_inverse() == p

    def test_shift(self):
        assert lp({0: 1, 1: 1}).shift(-1) == lp({-1: 1, 0: 1})

    def test_halve_exponents(self):
        assert lp({-2: 3, 0: 1, 4: 2}).halve_exponents() == lp(
            {-1: 3, 0: 1, 2: 2}
        )
        with pytest.raises(ValueError):
            lp({1: 1}).halve_exponents()

    def test_eval(self):
        # A polynomial is evaluated by composing it at a constant series.
        p = Series1.from_poly(lp({0: 1, 2: 1}), 1)
        assert p.compose(Series1.const(2, 1)) == Series1.const(5, 1)
        assert p.compose(Series1.const(Fraction(1, 2), 1)) == Series1.const(
            Fraction(5, 4), 1)

    @RINGS
    def test_divexact(self, ring, m):
        """A nonzero constant divides (integral quotients stay ints); a
        non-constant divisor raises ValueError, even one that divides."""
        p = ring.var(1) * 6 + m * 3
        q = p.divexact(3)
        assert q == ring.var(1) * 2 + m
        assert all(type(c) is int for c in q.terms.values())
        assert p.divexact(Fraction(3, 2)) == ring.var(1) * 4 + m * 2
        assert p.divexact(4) == (ring.var(1) * Fraction(3, 2)
                                 + m * Fraction(3, 4))
        with pytest.raises(ValueError):
            p.divexact(ring.var(1))
        with pytest.raises(ValueError):
            (p * (m + 1)).divexact(m + 1)
        with pytest.raises(ZeroDivisionError):
            p.divexact(0)
        with pytest.raises(ZeroDivisionError):
            p.divexact(ring())

    @RINGS
    @given(data=st.data())
    def test_divexact_roundtrip(self, ring, m, data):
        a = ring(data.draw(int_terms if ring is LPoly else int_terms2))
        c = data.draw(st.one_of(nonzero_int,
                                st.fractions(max_denominator=5).filter(bool)))
        q = (a * c).divexact(c)
        assert q == a
        assert all(type(q.terms[e]) is type(v) for e, v in a.terms.items())

    @given(small_lpoly, small_lpoly, small_lpoly)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


class TestLPoly2:
    def test_constructors(self):
        assert LPoly2.x(2).coeff(2, 0) == 1
        assert LPoly2.y(-1).coeff(0, -1) == 1
        p = LPoly.var(1) + LPoly.const(2)
        assert LPoly2.from_x_poly(p) == LPoly2.x(1) + LPoly2.const(2)
        assert LPoly2.from_y_poly(p) == LPoly2.y(1) + LPoly2.const(2)

    def test_part(self):
        p = LPoly2.x(1) + LPoly2.x(-1) + LPoly2.const(5)
        assert p.part("x", "pos") == LPoly2.x(1)
        assert p.part("x", "neg") == LPoly2.x(-1)
        assert p.part("x", "nonneg") == LPoly2.x(1) + LPoly2.const(5)

    def test_part_reassembly(self):
        p = (LPoly2.x(1) + LPoly2.y(-2)) * (LPoly2.x(-3) + LPoly2.const(2))
        for var in ("x", "y"):
            assert p.part(var, "neg") + p.part(var, "nonneg") == p

    def test_coeff_of(self):
        p = LPoly2.x(2) * LPoly2.y(1) + LPoly2.y(1) * LPoly2.const(3)
        assert p.coeff_of("y", 1) == LPoly.var(2) + LPoly.const(3)
        assert p.coeff_of("x", 0) == 3 * LPoly.var(1)

    def test_swap_and_inverse(self):
        p = LPoly2.x(2) + LPoly2.y(-1)
        assert p.swap_vars() == LPoly2.y(2) + LPoly2.x(-1)
        assert p.sub_inverse("x") == LPoly2.x(-2) + LPoly2.y(-1)
        assert p.sub_inverse("x").sub_inverse("x") == p

    def test_shift_eval(self):
        p = LPoly2.x(1) + LPoly2.y(1)
        assert p.shift(1, -1) == LPoly2.x(2) * LPoly2.y(-1) + LPoly2.x(1)


def test_one_and_two_variable_polynomials_do_not_mix():
    with pytest.raises(TypeError):
        LPoly.const(1) + LPoly2.const(1)
    with pytest.raises(TypeError):
        LPoly2.x(1) * LPoly.var(1)
    with pytest.raises(TypeError):
        LPoly2.x(1) - LPoly.var(1)
    assert LPoly.const(1) != LPoly2.const(1)


class Ratio:
    """A foreign exact scalar type with its own division."""

    def __init__(self, v):
        self.v = Fraction(v)

    def __truediv__(self, o):
        return Ratio(self.v / (o.v if isinstance(o, Ratio) else o))

    def __rtruediv__(self, o):
        return Ratio(o / self.v)


class TestQdiv:
    def test_exact_int_quotient_is_int(self):
        for a, b, q in [(12, 4, 3), (-12, 4, -3), (12, -4, -3), (0, 7, 0)]:
            assert qdiv(a, b) == q and type(qdiv(a, b)) is int

    def test_inexact_int_quotient_is_fraction(self):
        for a, b in [(5, 2), (-5, 3), (5, -3), (1, 10**30)]:
            q = qdiv(a, b)
            assert q == Fraction(a, b) and type(q) is Fraction

    def test_fraction_operands(self):
        assert qdiv(Fraction(3, 2), Fraction(1, 2)) == 3
        assert type(qdiv(Fraction(3, 2), Fraction(1, 2))) is int
        assert type(qdiv(3, Fraction(3, 4))) is int
        assert qdiv(Fraction(1, 2), 3) == Fraction(1, 6)
        assert type(qdiv(Fraction(1, 2), 3)) is Fraction

    def test_foreign_scalar_uses_its_own_division(self):
        q = qdiv(Ratio(1), 4)
        assert isinstance(q, Ratio) and q.v == Fraction(1, 4)
        q = qdiv(3, Ratio(2))
        assert isinstance(q, Ratio) and q.v == Fraction(3, 2)

    def test_zero_divisor_raises(self):
        for a, b in [(1, 0), (Fraction(1, 2), 0), (1, Fraction(0))]:
            with pytest.raises(ZeroDivisionError):
                qdiv(a, b)


class TestIntegerFirstStorage:
    def test_integral_fractions_are_stored_as_ints(self):
        p = LPoly({0: Fraction(4, 2), 1: Fraction(1, 2), 2: Fraction(0)})
        assert p.terms == {0: 2, 1: Fraction(1, 2)}
        assert type(p.terms[0]) is int
        half = LPoly.const(Fraction(1, 2))
        assert type((half + half).const_value()) is int
        assert type((half * 2).const_value()) is int
        assert type(LPoly2.const(Fraction(3, 2)).divexact(Fraction(1, 2))
                    .const_value()) is int

    @given(thirds_lpoly, thirds_lpoly)
    def test_ring_results_are_in_stored_form(self, a, b):
        # Sums and products of thirds are often integral.
        for p in (a + b, a - b, a * b):
            assert all(c != 0 and is_stored_form(c) for c in p.terms.values())


def reference_eval(terms, v):
    """Sum of c * v**e in Fraction arithmetic."""
    return sum((Fraction(c) * Fraction(v) ** e for e, c in terms.items()),
               Fraction(0))


def value_at(terms, v):
    """The polynomial with these terms at the scalar v, by ``compose``."""
    p = Series1.from_poly(LPoly(terms), 1)
    return p.compose(Series1.const(v, 1)).coeff(0).coeff(0)


class TestEvalIsExact:
    """Evaluation at a scalar, by ``compose`` at a constant series, gives
    an exact int or Fraction, never a float, and an int when integral."""

    def test_printed_cases(self):
        v = value_at({0: 1, 2: 3}, Fraction(1, 2))
        assert v == Fraction(7, 4) and type(v) is Fraction
        v = value_at({0: 4, 1: 2}, Fraction(1, 2))
        assert v == 5 and type(v) is int
        assert type(value_at({}, 3)) is int

    @given(st.dictionaries(st.integers(0, 4), st.integers(-9, 9), max_size=5),
           st.one_of(st.integers(-5, 5), st.fractions(max_denominator=4)))
    def test_one_variable(self, terms, v):
        value = value_at(terms, v)
        assert is_stored_form(value)
        assert value == reference_eval(terms, v)


# Exact scalars of every stored kind, and integral fractions, which the
# rings store as ints.
scalars = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.integers(-6, 6).map(lambda k: Fraction(2 * k, 2)),
)


def polys(ring):
    exponents = (st.integers(-3, 3) if ring is LPoly else
                 st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
    return st.dictionaries(exponents, scalars, max_size=5).map(ring)


def plain(x, ring):
    """The exponent dict of an operand, scalars at the constant term."""
    if isinstance(x, ring):
        return dict(x.terms)
    return {ring.ZERO: x} if x else {}


def plain_sum(a, b, sign):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c != 0}


def plain_product(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = (e1 + e2 if type(e1) is int else
                 (e1[0] + e2[0], e1[1] + e2[1]))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


class TestFastPathsEqualThePlainDictReference:
    """Sums that return an operand, the inline coercion and ``scale(1)``
    give what plain dict arithmetic gives, store no zero and no integral
    ``Fraction``, and leave both operands as they were."""

    @RINGS
    @given(data=st.data())
    def test_sums_and_products(self, ring, m, data):
        a = data.draw(polys(ring))
        b = data.draw(st.one_of(scalars, polys(ring)))
        before = [dict(x.terms) if isinstance(x, ring) else x for x in (a, b)]
        pa, pb = plain(a, ring), plain(b, ring)
        for result, expected in ((a + b, plain_sum(pa, pb, 1)),
                                 (b + a, plain_sum(pa, pb, 1)),
                                 (a - b, plain_sum(pa, pb, -1)),
                                 (a * b, plain_product(pa, pb)),
                                 (b * a, plain_product(pa, pb))):
            assert type(result) is ring
            assert result.terms == expected
            assert all(c != 0 and is_stored_form(c)
                       for c in result.terms.values())
        after = [dict(x.terms) if isinstance(x, ring) else x for x in (a, b)]
        assert after == before
        assert [type(c) for c in after[0].values()] == [
            type(c) for c in before[0].values()]

    @RINGS
    @given(data=st.data())
    def test_scale(self, ring, m, data):
        a = data.draw(polys(ring))
        before = dict(a.terms)
        for c in (0, 1, -1, data.draw(st.integers(-6, 6)),
                  data.draw(st.fractions(max_denominator=4))):
            result = a.scale(c)
            assert result.terms == plain_product(before, {ring.ZERO: c})
            assert all(v != 0 and is_stored_form(v)
                       for v in result.terms.values())
            assert a.terms == before
