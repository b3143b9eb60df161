"""Unit tests for the sparse Laurent polynomial rings."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conewalks.laurent import LPoly, LPoly2


def lp(d):
    return LPoly({e: Fraction(c) for e, c in d.items()})


small_lpoly = st.dictionaries(
    st.integers(-4, 4), st.integers(-9, 9), max_size=5
).map(lp)


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

    def test_pow(self):
        p = lp({1: 1, -1: 1})
        assert p**2 == lp({2: 1, 0: 2, -2: 1})
        assert p**0 == LPoly.const(1)

    def test_valuation_degree(self):
        p = lp({-2: 1, 3: 5})
        assert p.valuation() == -2
        assert p.degree() == 3

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
        p = lp({-1: 1, 1: 1})
        assert p.eval(2) == Fraction(5, 2)

    def test_divexact(self):
        a = lp({0: 1, 1: 2, 2: 1})
        b = lp({0: 1, 1: 1})
        assert a.divexact(b) == b
        with pytest.raises(ValueError):
            lp({0: 1, 2: 1}).divexact(b)

    @given(small_lpoly, small_lpoly, small_lpoly)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(small_lpoly, small_lpoly)
    def test_divexact_roundtrip(self, a, b):
        if a.is_zero() or b.is_zero():
            return
        assert (a * b).divexact(b) == a


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
        assert p.eval(2, 3) == 5


def test_one_and_two_variable_polynomials_do_not_mix():
    with pytest.raises(TypeError):
        LPoly.const(1) + LPoly2.const(1)
    with pytest.raises(TypeError):
        LPoly2.x(1) * LPoly.var(1)
    with pytest.raises(TypeError):
        LPoly2.x(1) - LPoly.var(1)
    assert LPoly.const(1) != LPoly2.const(1)


def test_two_variable_divexact_only_by_constants():
    p = LPoly2.x(1) * 6 + LPoly2.y(-1) * 3
    assert p.divexact(3) == LPoly2.x(1) * 2 + LPoly2.y(-1)
    with pytest.raises(ValueError):
        p.divexact(LPoly2.x(1))
    with pytest.raises(ZeroDivisionError):
        p.divexact(0)
