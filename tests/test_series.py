"""Unit and property tests for the truncated series layer."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conewalks.decompose import kernel_series
from conewalks.laurent import LPoly, LPoly2
from conewalks.series import OrderError, PivotError, Series1, Series2
from conewalks.walks import DIAGONAL, SQUARE


def lp(d):
    return LPoly({e: Fraction(c) for e, c in d.items()})


small_lpoly = st.dictionaries(
    st.integers(-3, 3), st.integers(-9, 9), max_size=4
).map(lp)

small_series = st.lists(small_lpoly, min_size=0, max_size=6).map(
    lambda cs: Series1(cs, 6)
)


class TestSeries1Basics:
    def test_order_padding(self):
        s = Series1([LPoly.const(1)], 4)
        assert s.order == 4
        assert s.coeff(3).is_zero()
        with pytest.raises(OrderError):
            s.coeff(4)

    def test_min_order_propagation(self):
        a = Series1.one(8)
        b = Series1.t(5)
        assert (a + b).order == 5
        assert (a * b).order == 5

    def test_truncate(self):
        s = Series1.t(6)
        assert s.truncate(3).order == 3
        with pytest.raises(OrderError):
            s.truncate(7)

    def test_first_failure(self):
        s = Series1([LPoly(), lp({-2: 1})], 4)
        assert s.first_failure() == (1, -2)
        assert Series1.zero(4).first_failure() is None

    def test_divide_strips_valuation(self):
        t = Series1.t(8)
        num = t * t * Series1.const(6, 8)
        den = t * Series1.const(2, 8)
        q = num.divide(den)
        assert q.order == 7
        assert q.coeff(1) == LPoly.const(3)

    def test_divide_pivot_error(self):
        with pytest.raises(PivotError):
            Series1.one(6).divide(Series1.t(6))
        # reversed valuations are fine: t^2 / t = t
        q = (Series1.t(6) * Series1.t(6)).divide(Series1.t(6))
        assert q.coeff(1) == LPoly.const(1)

    def test_sqrt_requires_unit(self):
        with pytest.raises(PivotError):
            Series1.t(5).sqrt()

    def test_x_to_xt(self):
        s = Series1([lp({0: 1, 1: 1})], 4)
        out = s.x_to_xt()
        assert out.coeff(0) == LPoly.const(1)
        assert out.coeff(1) == lp({1: 1})

    def test_compose_linear(self):
        # substituting x = t into x + x^2 gives t + t^2
        s = Series1([lp({1: 1, 2: 1})], 5)
        inner = Series1.t(5)
        out = s.compose(inner)
        assert out.coeff(1) == LPoly.const(1)
        assert out.coeff(2) == LPoly.const(1)

    def test_compose_negative_exponent(self):
        # x^-1 at x = 1 + t starts 1 - t + t^2 - ...
        s = Series1([lp({-1: 1})], 5)
        inner = Series1.one(5) + Series1.t(5)
        out = s.compose(inner)
        assert out.coeff(0) == LPoly.const(1)
        assert out.coeff(1) == LPoly.const(-1)
        assert out.coeff(2) == LPoly.const(1)


class TestSeries1Properties:
    @settings(max_examples=60)
    @given(small_series, small_series, small_series)
    def test_ring_axioms(self, a, b, c):
        assert (a + b).coeffs == (b + a).coeffs
        assert (a * b).coeffs == (b * a).coeffs
        assert ((a + b) + c).coeffs == (a + (b + c)).coeffs
        assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
        assert (a * (b + c)).coeffs == (a * b + a * c).coeffs

    @settings(max_examples=60)
    @given(small_series)
    def test_sub_inverse_involution(self, s):
        assert s.sub_inverse_x().sub_inverse_x().coeffs == s.coeffs

    @settings(max_examples=60)
    @given(small_series)
    def test_part_reassembly(self, s):
        total = s.part_x("neg") + s.part_x("nonneg")
        assert total.coeffs == s.coeffs
        total2 = s.part_x("pos") + s.part_x("nonpos")
        assert total2.coeffs == s.coeffs

    @settings(max_examples=40)
    @given(small_series)
    def test_inverse_roundtrip(self, s):
        u = 1 + s.mul_t(1).truncate(s.order)  # force a unit
        assert (u * u.inverse() - 1).is_zero()

    @settings(max_examples=40)
    @given(small_series)
    def test_sqrt_roundtrip(self, s):
        u = 1 + s.mul_t(1).truncate(s.order)
        r = u.sqrt()
        assert (r * r - u).is_zero()

    @settings(max_examples=40)
    @given(small_series, st.integers(0, 6))
    def test_truncation_monotone(self, s, k):
        t = s.truncate(min(k, s.order))
        assert t.coeffs == s.coeffs[: t.order]


class TestSeries2:
    def test_embeddings(self):
        s = Series1([lp({1: 2})], 4)
        assert Series2.from_x_series(s).coeff(0) == 2 * LPoly2.x(1)
        assert Series2.from_y_series(s).coeff(0) == 2 * LPoly2.y(1)

    def test_part_and_coeff_of(self):
        p = LPoly2.x(1) * LPoly2.y(-1) + LPoly2.const(3)
        s = Series2.from_poly(p, 4)
        assert s.part("y", "neg").coeff(0) == LPoly2.x(1) * LPoly2.y(-1)
        assert s.coeff_of("y", 0).coeff(0) == LPoly.const(3)
        assert s.coeff_of("x", 1).coeff(0) == LPoly.var(-1)

    def test_part_reassembly(self):
        p = (LPoly2.x(1) + LPoly2.y(-2)) * (LPoly2.x(-1) + LPoly2.const(1))
        s = Series2.from_poly(p, 3)
        assert (s.part("x", "neg") + s.part("x", "nonneg") - s).is_zero()

    def test_swap_involution(self):
        p = LPoly2.x(2) * LPoly2.y(-1) + LPoly2.y(3)
        s = Series2.from_poly(p, 3)
        assert (s.swap_vars().swap_vars() - s).is_zero()

    def test_inverse(self):
        k = Series2([LPoly2.const(1), -(LPoly2.x(1) + LPoly2.y(1))], 6)
        assert (k * k.inverse() - 1).is_zero()

    def test_inverse_needs_unit(self):
        with pytest.raises(PivotError):
            Series2.from_poly(LPoly2.x(1), 4).inverse()

    def test_mul_t_negative(self):
        s = Series2.one(4).mul_t(2)
        back = s.mul_t(-2)
        assert back.coeff(0) == LPoly2.const(1)
        with pytest.raises(PivotError):
            Series2.one(4).mul_t(-1)

    def test_first_failure_triple(self):
        s = Series2([LPoly2(), LPoly2.x(-1) * LPoly2.y(2)], 4)
        assert s.first_failure() == (1, -1, 2)


def reference_inverse(s: Series2) -> Series2:
    """The separate two-variable inverse loop that the shared
    ``Series1.divide`` replaced, kept here as the exact reference."""
    c0 = s.coeffs[0]
    if not c0.is_const() or c0.is_zero():
        raise PivotError("inverse needs a unit (scalar) constant term")
    lead = c0.const_value()
    out = [LPoly2.const(Fraction(1) / lead)]
    for n in range(1, s.order):
        acc = LPoly2()
        for m in range(1, n + 1):
            if not s.coeffs[m].is_zero():
                acc = acc + s.coeffs[m] * out[n - m]
        out.append(acc * LPoly2.const(Fraction(-1) / lead))
    return Series2(out, s.order)


@pytest.mark.parametrize("steps", [SQUARE, DIAGONAL], ids=["square", "diagonal"])
def test_kernel_inverse_matches_reference(steps):
    K = kernel_series(steps, 12)
    assert K.inverse() == reference_inverse(K)
    assert (2 * K).inverse() == reference_inverse(2 * K)


def test_series_types_do_not_mix():
    with pytest.raises(TypeError):
        Series1.one(4) + Series2.one(4)
    with pytest.raises(TypeError):
        Series2.one(4) * Series1.one(4)
    with pytest.raises(TypeError):
        Series1.one(4) + LPoly2.const(1)


int_terms = st.dictionaries(st.integers(-3, 3), st.integers(-9, 9), max_size=4)
int_terms2 = st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)), st.integers(-9, 9),
    max_size=4,
)
nonzero_int = st.integers(-9, 9).filter(bool)


def assert_exact(*values):
    """No coefficient of any polynomial or series is a float."""
    for v in values:
        polys = v.coeffs if hasattr(v, "coeffs") else [v]
        for p in polys:
            assert not any(isinstance(c, float) for c in p.terms.values())


class TestIntInputsStayExact:
    """Sums, products and exact divisions built from ints never produce a
    float coefficient, in either coefficient ring."""

    @settings(max_examples=40)
    @given(int_terms, int_terms, st.lists(int_terms, max_size=4), nonzero_int)
    def test_one_variable(self, a, b, tail, c0):
        p, q = LPoly(a), LPoly(b)
        assert_exact(p + q, p - q, p * q, p * 7)
        if q:
            assert_exact((p * q).divexact(q))
        s = Series1([LPoly(t) for t in [a] + tail], 5)
        u = Series1([LPoly.const(c0)] + [LPoly(t) for t in tail], 5)
        assert_exact(s * u, s.divide(u), u.inverse())

    @settings(max_examples=40)
    @given(int_terms2, int_terms2, st.lists(int_terms2, max_size=4), nonzero_int)
    def test_two_variables(self, a, b, tail, c0):
        p, q = LPoly2(a), LPoly2(b)
        assert_exact(p + q, p - q, p * q, p * 7, p.divexact(c0))
        s = Series2([LPoly2(t) for t in [a] + tail], 5)
        u = Series2([LPoly2.const(c0)] + [LPoly2(t) for t in tail], 5)
        assert_exact(s * u, s.divide(u), u.inverse())
