"""Truncated power series in t with exact Laurent-polynomial coefficients.

One series type per coefficient ring:

* ``Series1`` — coefficients in Q[x, 1/x] (``LPoly``).  Houses every
  univariate object: parametrizing series, kernel roots, boundary series.
  It holds the whole ring structure: construction, sums, products, powers,
  truncation, multiplication by powers of t, division and rendering.
* ``Series2(Series1)`` — coefficients in Q[x, 1/x, y, 1/y] (``LPoly2``,
  named by the class attribute ``RING``).  Houses the full bivariate walk
  generating functions and adds only the operations on the variables x
  and y.  The two classes never mix: an operation between them raises
  ``TypeError``, and so does a one-variable operation of ``Series1``
  (``ONE_VARIABLE``) called on a ``Series2``.

Every series carries an explicit truncation ``order`` N: coefficients of
t^n are valid for n < N, and its list holds exactly N.  Series and
coefficients are immutable, so a sum builds its list once, of the ring's
``_sum`` per power of t, which may return an operand's coefficient.
Binary operations propagate the minimum of the two orders; nothing is
ever silently re-expanded.  A product with a scalar scales, and every
other product, a constant series included, runs the one product loop.
Division strips a common power of t (losing that much order) and then
needs the divisor's lowest nonzero coefficient to be a constant; it is
the one inverse too (1 / s is ``one(n).divide(s)``).  Square roots are
not here: ``engine.sqrt`` solves G^2 = s with the one Newton solver.
``compose`` substitutes a series for x in polynomials in x by Horner's
rule: ``horner`` is the one polynomial evaluator, shared with the
pipeline cubics of ``engine``.
"""

from __future__ import annotations

from fractions import Fraction

from .laurent import SIGN_TESTS, LPoly, LPoly2


class OrderError(ValueError):
    """A series operation was asked for more precision than its inputs carry."""


class PivotError(ValueError):
    """Division or solving hit a coefficient that does not determine the result."""


def horner(coeffs, x):
    """The sum of coeffs[k] x^k by Horner's rule, d products for degree d:
    ``Series1.compose`` and the pipeline cubics P(S(x), x) both use it."""
    acc = coeffs[-1]
    for a in reversed(coeffs[:-1]):
        acc = acc * x + a
    return acc


# ---------------------------------------------------------------------------
# Univariate-coefficient series
# ---------------------------------------------------------------------------


class Series1:
    """Truncated series in t with LPoly coefficients and explicit order."""

    __slots__ = ("coeffs", "order")

    RING = LPoly  # coefficient class

    def __init__(self, coeffs, order: int):
        if order < 0:
            raise OrderError("negative truncation order")
        coeffs = list(coeffs)[:order]
        coeffs += [self.RING()] * (order - len(coeffs))
        self.coeffs = coeffs
        self.order = order

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, order: int):
        return cls([], order)

    @classmethod
    def const(cls, c, order: int):
        return cls([cls.RING.const(c)], order)

    @classmethod
    def one(cls, order: int):
        return cls.const(1, order)

    @classmethod
    def t(cls, order: int):
        return cls([cls.RING(), cls.RING.const(1)], order)

    @classmethod
    def x(cls, order: int, power: int = 1):
        return cls([cls.RING.var(power)], order)

    @classmethod
    def from_poly(cls, p, order: int):
        return cls([p], order)

    @classmethod
    def from_scalar_coeffs(cls, values, order: int):
        return cls([cls.RING.const(v) for v in values], order)

    # -- ring operations -------------------------------------------------

    @classmethod
    def _lift(cls, other, order):
        if type(other) is cls:
            return other
        if isinstance(other, (int, Fraction)):
            return cls.const(other, order)
        return None

    def _sum(self, other, sign):
        """self + other (sign 1) or self - other (sign -1), coefficient by
        coefficient, so no negated copy of `other` is made."""
        o = self._lift(other, self.order)
        if o is None:
            return NotImplemented
        r = type(self).__new__(type(self))
        r.coeffs = [p._sum(q, sign) for p, q in zip(self.coeffs, o.coeffs)]
        r.order = min(self.order, o.order)
        return r

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return type(self)([-c for c in self.coeffs], self.order)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        o = self._lift(other, self.order)
        if o is None:
            return NotImplemented
        return o._sum(self, -1)

    def scale(self, c):
        """c times the series, for an exact scalar c."""
        return type(self)([p.scale(c) for p in self.coeffs], self.order)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        o = self._lift(other, self.order)
        if o is None:
            return NotImplemented
        n = min(self.order, o.order)
        ring = self.RING
        a = [(i, p) for i, p in enumerate(self.coeffs[:n]) if p.terms]
        b = o.coeffs
        out = []
        for k in range(n):
            # Every product landing on t^k accumulates in one dict; the
            # ring element is built from it once, which drops the zeros
            # and stores integral values as ints.
            acc = {}
            for i, p in a:
                if i > k:
                    break
                q = b[k - i]
                if q.terms:
                    p.mul_into(acc, q)
            out.append(ring(acc))
        return type(self)(out, n)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError(f"negative power of a {type(self).__name__}")
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return self.one(self.order) if result is None else result

    def __eq__(self, other):
        o = self._lift(other, self.order)
        if o is None:
            return NotImplemented
        return self.order == o.order and self.coeffs == o.coeffs

    # -- structure -------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def valuation(self):
        """Index of the first nonzero coefficient, or None if zero to order."""
        for n, c in enumerate(self.coeffs):
            if not c.is_zero():
                return n
        return None

    def coeff(self, n: int):
        if n >= self.order:
            raise OrderError(f"coefficient t^{n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def first_failure(self):
        """(t-power, x-exponent) of the lowest nonzero monomial, or None."""
        for n, c in enumerate(self.coeffs):
            if not c.is_zero():
                return (n, min(c.terms))
        return None

    def truncate(self, order: int):
        if order > self.order:
            raise OrderError(f"cannot extend order {self.order} to {order}")
        return type(self)(self.coeffs[:order], order)

    # -- t-operations ----------------------------------------------------

    def mul_t(self, k: int):
        """Multiply by t^k; negative k requires the low coefficients to vanish."""
        if k >= 0:
            return type(self)([self.RING()] * k + self.coeffs, self.order + k)
        if any(not c.is_zero() for c in self.coeffs[:-k]):
            raise PivotError(f"series not divisible by t^{-k}")
        return type(self)(self.coeffs[-k:], self.order + k)

    def divide(self, other):
        """Exact series division with valuation stripping.

        A common power of t is cancelled first (losing that much order),
        then the divisor's lowest coefficient must be a nonzero constant,
        else PivotError.  A divisor that is zero to order, or leaves no
        order after stripping, raises OrderError.
        """
        o = self._lift(other, self.order)
        v = o.valuation()
        if v is None:
            raise OrderError("division by a series that is zero to order "
                             f"{o.order}")
        n = min(self.order, o.order) - v
        if n <= 0:
            raise OrderError("no precision left after stripping divisor valuation")
        if any(not c.is_zero() for c in self.coeffs[:v]):
            raise PivotError("dividend valuation below divisor valuation")
        a = self.coeffs[v : v + n]
        b = o.coeffs[v : v + n]
        lead = b[0]
        out = []
        for k in range(n):
            acc = a[k]
            for m in range(1, k + 1):
                if not b[m].is_zero():
                    acc = acc - b[m] * out[k - m]
            try:
                out.append(acc.divexact(lead))
            except ValueError as exc:
                raise PivotError(f"at t^{k}: {exc}")
        return type(self)(out, n)

    # -- x-operations ----------------------------------------------------

    def map_poly(self, f):
        return type(self)([f(c) for c in self.coeffs], self.order)

    def sub_inverse_x(self) -> "Series1":
        return self.map_poly(lambda p: p.sub_inverse())

    def halve_x(self) -> "Series1":
        """x^2 -> x in every coefficient (even-series reindexing)."""
        return self.map_poly(lambda p: p.halve_exponents())

    def mul_x(self, k: int) -> "Series1":
        return self.map_poly(lambda p: p.shift(k))

    def coeff_x(self, k: int) -> "Series1":
        """Coefficient of x^k, re-embedded at exponent 0."""
        return Series1(
            [LPoly.const(c.coeff(k)) for c in self.coeffs], self.order
        )

    def part_x(self, mode: str) -> "Series1":
        test = SIGN_TESTS[mode]
        return self.map_poly(
            lambda p: LPoly({e: c for e, c in p.terms.items() if test(e)})
        )

    def x_to_xt(self) -> "Series1":
        """Substitute x -> x*t; coefficients must be ordinary polynomials."""
        out = [LPoly() for _ in range(self.order)]
        for n, p in enumerate(self.coeffs):
            for e, c in p.terms.items():
                if e < 0:
                    raise ValueError("x -> x*t needs nonnegative exponents")
                if n + e < self.order:
                    out[n + e] = out[n + e] + LPoly({e: c})
        return Series1(out, self.order)

    def compose(self, inner: "Series1") -> "Series1":
        """Substitute `inner` for x by Horner's rule over the coefficients
        of x^0, ..., x^d; every coefficient must be a polynomial in x (no
        negative exponent), else ValueError."""
        order = min(self.order, inner.order)
        exponents = [e for p in self.coeffs[:order] for e in p.terms]
        if min(exponents, default=0) < 0:
            raise ValueError("compose needs nonnegative x-exponents")
        return horner([self.coeff_x(e).truncate(order)
                       for e in range(max(exponents, default=0) + 1)], inner)

    # -- rendering -------------------------------------------------------

    def render(self) -> str:
        """Canonical text: one line per t-power, exponents ascending."""
        lines = [f"t^{n}: {p}" for n, p in enumerate(self.coeffs) if p]
        if not lines:
            lines.append("0")
        lines.append(f"O(t^{self.order})")
        return "\n".join(lines)

    def __str__(self):
        return self.render().replace("\n", "; ")

    __repr__ = __str__


# ---------------------------------------------------------------------------
# Bivariate-coefficient series
# ---------------------------------------------------------------------------


class Series2(Series1):
    """Truncated series in t with LPoly2 coefficients and explicit order."""

    __slots__ = ()

    RING = LPoly2

    @classmethod
    def from_x_series(cls, s: Series1):
        """Embed a univariate series with its variable read as x."""
        return cls([LPoly2.from_x_poly(p) for p in s.coeffs], s.order)

    @classmethod
    def from_y_series(cls, s: Series1):
        """Embed a univariate series with its variable read as y."""
        return cls([LPoly2.from_y_poly(p) for p in s.coeffs], s.order)

    def first_failure(self):
        """(t-power, x-exponent, y-exponent) of lowest nonzero monomial."""
        for n, c in enumerate(self.coeffs):
            if not c.is_zero():
                i, j = min(c.terms)
                return (n, i, j)
        return None

    # -- variable operations --------------------------------------------

    def part(self, var: str, mode: str) -> "Series2":
        return self.map_poly(lambda p: p.part(var, mode))

    def coeff_of(self, var: str, k: int) -> Series1:
        """Coefficient of var^k: a Series1 in the remaining variable."""
        return Series1([p.coeff_of(var, k) for p in self.coeffs], self.order)

    def sub_inverse(self, var: str) -> "Series2":
        return self.map_poly(lambda p: p.sub_inverse(var))

    def swap_vars(self) -> "Series2":
        return self.map_poly(lambda p: p.swap_vars())

    def mul_xy(self, di: int, dj: int) -> "Series2":
        return self.map_poly(lambda p: p.shift(di, dj))


# The methods of ``Series1`` that read its coefficients as polynomials in
# one variable; a ``Series2`` refuses each of them by name.
ONE_VARIABLE = ("coeff_x", "part_x", "halve_x", "x_to_xt", "mul_x",
                "sub_inverse_x", "compose")


def _one_variable_only(name: str):
    def refuse(self, *args, **kwargs):
        raise TypeError(f"Series2.{name} is not defined: {name} works on "
                        "one-variable coefficients (Series1)")

    refuse.__name__ = refuse.__qualname__ = name
    return refuse


for _name in ONE_VARIABLE:
    setattr(Series2, _name, _one_variable_only(_name))
del _name
