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
        # compose substitutes into polynomials in x only.
        s = Series1([lp({-1: 1})], 5)
        inner = Series1.one(5) + Series1.t(5)
        with pytest.raises(ValueError):
            s.compose(inner)

    def test_compose_skips_terms_beyond_the_order(self):
        # x + x^3 t^2 at x = t is t + t^5, which is t to order 5.
        s = Series1([lp({1: 1}), LPoly(), lp({3: 1})], 5)
        assert s.compose(Series1.t(5)) == Series1([LPoly(), LPoly.const(1)], 5)

    @pytest.mark.parametrize("cls", [Series1, Series2])
    def test_negative_power_raises(self, cls):
        u = cls.one(4) + cls.t(4)
        assert u ** 0 == cls.one(4)
        assert u ** 2 == u * u
        with pytest.raises(ValueError):
            u ** -1

    @pytest.mark.parametrize("cls", [Series1, Series2])
    def test_power_wastes_no_product(self, cls, monkeypatch):
        # Square-and-multiply: one squaring per bit after the first, one
        # product per set bit after the lowest, and nothing else.
        u = cls([cls.RING.const(1), cls.RING.var(1), cls.RING.const(
            Fraction(1, 2))], 6)
        powers = [cls.one(6)]
        for _ in range(9):
            powers.append(powers[-1] * u)
        calls = []
        mul = Series1.__mul__
        monkeypatch.setattr(Series1, "__mul__",
                            lambda a, b: calls.append(1) or mul(a, b))
        for n, want in enumerate(powers):
            calls.clear()
            assert stored(u ** n) == stored(want)
            squares, products = n.bit_length() - 1, bin(n).count("1") - 1
            assert len(calls) == (squares + products if n else 0)

    def test_divide_needs_a_constant_lowest_coefficient(self):
        # x t / x t = 1 would need a division by x: a PivotError.
        num = Series1([LPoly(), lp({1: 1})], 4)
        with pytest.raises(PivotError):
            num.divide(num)


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
        total2 = s.part_x("pos") + s.part_x("neg") + s.coeff_x(0)
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
    """Every coefficient of every polynomial or series is stored exactly:
    no zero, no float, and an int whenever it is integral."""
    for v in values:
        polys = v.coeffs if hasattr(v, "coeffs") else [v]
        for p in polys:
            for c in p.terms.values():
                assert c != 0
                assert type(c) is int or (
                    type(c) is Fraction and c.denominator != 1)


class TestIntInputsStayExact:
    """Sums, products and exact divisions built from ints never produce a
    float coefficient, and keep integral ones as ints, in either ring."""

    @settings(max_examples=40)
    @given(int_terms, int_terms, st.lists(int_terms, max_size=4), nonzero_int)
    def test_one_variable(self, a, b, tail, c0):
        p, q = LPoly(a), LPoly(b)
        assert_exact(p + q, p - q, p * q, p * 7, p.divexact(c0))
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


def reference_mul(s, o):
    """The schoolbook product the fused ``Series1.__mul__`` replaced, on
    plain exponent dicts in Fraction arithmetic: the exact reference."""
    def add(e1, e2):
        return tuple(map(sum, zip(e1, e2))) if isinstance(e1, tuple) else e1 + e2

    n = min(s.order, o.order)
    out = [{} for _ in range(n)]
    for i, a in enumerate(s.coeffs[:n]):
        for j, b in enumerate(o.coeffs[: n - i]):
            for e1, c1 in a.terms.items():
                for e2, c2 in b.terms.items():
                    e = add(e1, e2)
                    out[i + j][e] = out[i + j].get(e, 0) + Fraction(c1) * c2
    return [{e: c for e, c in d.items() if c != 0} for d in out]


# Small coefficients make cancelling terms common.
scalars = st.one_of(st.integers(-2, 2),
                    st.fractions(max_denominator=3).map(lambda q: q % 3))
terms1 = st.dictionaries(st.integers(-2, 2), scalars, max_size=3)
terms2 = st.dictionaries(
    st.tuples(st.integers(-1, 1), st.integers(-1, 1)), scalars, max_size=3)


def series_of(cls, terms):
    return st.lists(terms, max_size=6).flatmap(
        lambda cs: st.integers(0, 6).map(
            lambda n: cls([cls.RING(t) for t in cs], n)))


class TestFusedProduct:
    """``Series1.__mul__`` accumulates each t^k coefficient in one dict
    through ``mul_into``; it must equal the schoolbook loop exactly."""

    @settings(max_examples=150)
    @given(series_of(Series1, terms1), series_of(Series1, terms1))
    def test_one_variable(self, a, b):
        prod = a * b
        assert prod.order == min(a.order, b.order)
        assert [p.terms for p in prod.coeffs] == reference_mul(a, b)
        assert_exact(prod)

    @settings(max_examples=150)
    @given(series_of(Series2, terms2), series_of(Series2, terms2))
    def test_two_variables(self, a, b):
        prod = a * b
        assert type(prod) is Series2
        assert [p.terms for p in prod.coeffs] == reference_mul(a, b)
        assert_exact(prod)

    @pytest.mark.parametrize("cls,ring,y", [
        (Series1, LPoly, LPoly.var(-1)),
        (Series2, LPoly2, LPoly2.x(1) * LPoly2.y(-1)),
    ])
    def test_cancelling_products_store_nothing(self, cls, ring, y):
        # (P + P t)(Q - Q t) = PQ - PQ t^2: the t^1 products cancel.
        P = ring.const(Fraction(3, 2)) + y
        Q = y * Fraction(2, 3) - ring.const(4)
        prod = cls([P, P], 4) * cls([Q, -Q], 4)
        assert prod.coeffs[1].terms == {}
        assert prod.coeffs[2] == -(P * Q)
        assert [p.terms for p in prod.coeffs] == reference_mul(
            cls([P, P], 4), cls([Q, -Q], 4))
        assert_exact(prod)

    def test_integral_fraction_products_are_ints(self):
        half = Series1.const(Fraction(1, 2), 3)
        prod = half * Series1.const(Fraction(4), 3)
        assert prod.coeffs[0].terms == {0: 2}
        assert type(prod.coeffs[0].terms[0]) is int


def fused_mul(s, o):
    """The fused loop of ``Series1.__mul__`` before its short path for a
    constant factor, kept as the exact reference for that path."""
    n = min(s.order, o.order)
    a = [(i, p) for i, p in enumerate(s.coeffs[:n]) if p.terms]
    out = []
    for k in range(n):
        acc = {}
        for i, p in a:
            if i > k:
                break
            q = o.coeffs[k - i]
            if q.terms:
                p.mul_into(acc, q)
        out.append(s.RING(acc))
    return type(s)(out, n)


def stored(s):
    """The order of s and each stored coefficient with its type."""
    return s.order, [{e: (c, type(c)) for e, c in p.terms.items()}
                     for p in s.coeffs]


class TestConstantFactorShortPath:
    """A product with a scalar, or with a series that is a constant to its
    order, scales coefficients; it must equal the fused loop exactly, with
    the same order and the same int or Fraction storage."""

    @pytest.mark.parametrize("cls,terms", [(Series1, terms1),
                                           (Series2, terms2)])
    @settings(max_examples=100)
    @given(data=st.data())
    def test_equals_the_fused_loop(self, cls, terms, data):
        a = data.draw(series_of(cls, terms))
        c = data.draw(st.one_of(st.integers(-3, 3), scalars))
        const = cls.const(c, data.draw(st.integers(0, 7)))
        as_series = cls.const(c, a.order)
        for got, want in ((a * c, fused_mul(a, as_series)),
                          (c * a, fused_mul(as_series, a)),
                          (a * const, fused_mul(a, const)),
                          (const * a, fused_mul(const, a))):
            assert type(got) is cls
            assert stored(got) == stored(want)

    def test_a_series_with_a_later_term_is_not_constant(self):
        assert Series1.const(2, 3).constant() == 2
        assert Series1.zero(3).constant() == 0
        late = Series1([LPoly.const(2), LPoly(), LPoly.var(1)], 3)
        assert late.constant() is None
        assert Series1.x(3).constant() is None
        assert Series2.from_poly(LPoly2.y(1), 3).constant() is None


def reference_add(a: dict, b: dict) -> dict:
    """``LPoly.__add__`` as it was before the signed sum, on exponent dicts:
    b's terms added into a copy of a, zeros dropped, integral fractions
    stored as ints."""
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if type(s) is Fraction and s.denominator == 1:
            s = s.numerator
        if s == 0:
            out.pop(e, None)
        else:
            out[e] = s
    return out


def negate_then_add(a, b, sign, like):
    """a + b (sign 1) or a - b (sign -1) by the path the signed sum
    replaced: a + (-b), through a negated copy of b.  A scalar operand is lifted as the
    operators lift it, to the order of `like`; the result is returned in
    the shape of ``stored_terms``: (order or None, each coefficient's
    terms with their types)."""
    def lift(v):
        if isinstance(v, (int, Fraction)):
            return (like.const(v, like.order) if isinstance(like, Series1)
                    else type(like).const(v))
        return v

    a, b = lift(a), lift(b)
    polys_a = a.coeffs if isinstance(a, Series1) else [a]
    polys_b = b.coeffs if isinstance(b, Series1) else [b]
    out = [reference_add(p.terms, {e: sign * c for e, c in q.terms.items()})
           for p, q in zip(polys_a, polys_b)]
    order = min(a.order, b.order) if isinstance(a, Series1) else None
    return order, [[(e, c, type(c)) for e, c in t.items()] for t in out]


def stored_terms(v):
    """(order or None, each coefficient's terms in order, with types)."""
    polys = v.coeffs if isinstance(v, Series1) else [v]
    return (v.order if isinstance(v, Series1) else None,
            [[(e, c, type(c)) for e, c in p.terms.items()] for p in polys])


class TestSignedSum:
    """``_sum`` adds or subtracts term by term with no negated copy; every
    sum and difference must equal the negate-then-add path it replaced:
    the same terms in the same order, the same order in t, ints kept."""

    @pytest.mark.parametrize("cls,values", [
        (LPoly, terms1.map(LPoly)),
        (LPoly2, terms2.map(LPoly2)),
        (Series1, series_of(Series1, terms1)),
        (Series2, series_of(Series2, terms2)),
    ], ids=["LPoly", "LPoly2", "Series1", "Series2"])
    @settings(max_examples=100)
    @given(data=st.data())
    def test_equals_negate_then_add(self, cls, values, data):
        a, b = data.draw(values), data.draw(values)
        c = data.draw(scalars)
        cases = [(a + b, a, b, 1), (a - b, a, b, -1), (a + c, a, c, 1),
                 (c + a, a, c, 1), (a - c, a, c, -1)]
        if cls in (Series1, Series2):
            cases.append((c - a, c, a, -1))
        for got, x, y, sign in cases:
            assert type(got) is cls
            assert stored_terms(got) == negate_then_add(x, y, sign, a)
            assert_exact(got)


def reference_compose(s, inner):
    """``Series1.compose`` as it was before Horner's rule: a list of powers
    of `inner`, and one scale, shift, truncation and sum per term, skipping
    a term that lands beyond the order when `inner` has positive valuation.
    Kept as the exact reference for the Horner path."""
    order = min(s.order, inner.order)
    v = inner.valuation()
    inner = inner.truncate(order)
    powers = [Series1.one(order)]
    result = Series1.zero(order)
    for n, p in enumerate(s.coeffs[:order]):
        for e, c in p.terms.items():
            if e < 0:
                raise ValueError("compose needs nonnegative x-exponents")
            if v and e and n + e * v >= order:
                continue
            while len(powers) <= e:
                powers.append(powers[-1] * inner)
            result = result + (powers[e] * c).mul_t(n).truncate(order)
    return result


# Polynomials in x: compose substitutes into nothing else.
poly_terms = st.dictionaries(st.integers(0, 3), scalars, max_size=3)


class TestComposeByHorner:
    """``compose`` runs Horner's rule over the coefficients of x^0..x^d; it
    must equal the power-sum path it replaced exactly: the same terms with
    their int or Fraction types, and the same order."""

    @settings(max_examples=150)
    @given(data=st.data())
    def test_equals_the_power_sum(self, data):
        s = data.draw(series_of(Series1, poly_terms))
        kind = data.draw(st.sampled_from(["valuation 0", "positive valuation",
                                          "constant"]))
        if kind == "constant":
            inner = Series1.const(data.draw(scalars), data.draw(
                st.integers(0, 7)))
        else:
            inner = data.draw(series_of(Series1, terms1))
            if kind == "positive valuation":
                inner = inner.mul_t(data.draw(st.integers(1, 3)))
        got = s.compose(inner)
        assert stored(got) == stored(reference_compose(s, inner))
        assert_exact(got)

    def test_printed_cases(self):
        s = Series1([LPoly({1: 1, 2: 3}), LPoly({0: 1, 2: 4}),
                     LPoly({3: 5})], 3)
        for v, want in [(2, [14, 17, 40]), (-1, [2, 5, -5]),
                        (Fraction(1, 2), [Fraction(5, 4), 2, Fraction(5, 8)])]:
            out = s.compose(Series1.const(v, 3))
            assert [p.terms for p in out.coeffs] == [{0: c} for c in want]
            assert_exact(out)

    @settings(max_examples=60)
    @given(series_of(Series1, poly_terms), scalars)
    def test_agrees_with_fraction_arithmetic(self, s, v):
        out = s.compose(Series1.const(v, s.order))
        assert_exact(out)
        for p, q in zip(s.coeffs, out.coeffs):
            want = sum((Fraction(c) * Fraction(v) ** e
                        for e, c in p.terms.items()), Fraction(0))
            assert q.coeff(0) == want


def test_series2_x_stays_in_its_ring():
    x = Series2.x(3)
    assert type(x.coeff(0)) is LPoly2
    assert x + Series2.one(3) == Series2.from_poly(LPoly2.x(1) + 1, 3)
    assert Series2.x(3, -2).coeff(0) == LPoly2.x(-2)
    assert Series1.x(3, 2).coeff(0) == LPoly.var(2)


# Each one-variable method of Series1 with arguments it accepts there.
ONE_VARIABLE_CALLS = {
    "coeff_x": (1,), "part_x": ("neg",), "halve_x": (), "x_to_xt": (),
    "sqrt": (), "mul_x": (1,), "sub_inverse_x": (), "compose": (Series1.t(3),),
}


@pytest.mark.parametrize("name", ONE_VARIABLE_CALLS)
def test_series2_refuses_one_variable_methods_by_name(name):
    args = ONE_VARIABLE_CALLS[name]
    getattr(Series1.one(3), name)(*args)  # defined on Series1
    with pytest.raises(TypeError, match=rf"Series2\.{name}\b"):
        getattr(Series2.one(3), name)(*args)


@pytest.mark.parametrize("cls,terms", [(Series1, terms1), (Series2, terms2)],
                         ids=["Series1", "Series2"])
@settings(max_examples=80)
@given(data=st.data())
def test_series_sums_equal_the_coefficientwise_reference(cls, terms, data):
    """A sum or difference of two series of any orders, or of a series and
    a scalar, is the coefficient-wise one to the lower order, with one ring
    element per power of t below it; the operands are left as they were."""
    a = data.draw(series_of(cls, terms))
    b = data.draw(st.one_of(series_of(cls, terms), scalars))
    coeffs = [dict(p.terms) for p in a.coeffs]
    if isinstance(b, cls):
        order, other = min(a.order, b.order), b.coeffs
    else:
        order = a.order
        other = [cls.RING.const(b)] + [cls.RING()] * order
    for result, sign, rev in ((a + b, 1, False), (b + a, 1, False),
                              (a - b, -1, False), (b - a, -1, True)):
        assert type(result) is cls and result.order == order
        assert len(result.coeffs) == order
        for p, q, r in zip(a.coeffs, other, result.coeffs):
            first, second = (q, p) if rev else (p, q)
            want = dict(first.terms)
            for e, c in second.terms.items():
                want[e] = want.get(e, 0) + sign * c
            assert type(r) is cls.RING
            assert r.terms == {e: c for e, c in want.items() if c != 0}
    assert [dict(p.terms) for p in a.coeffs] == coeffs
