"""Exact Laurent polynomials in one and two variables.

``LPoly`` holds elements of Q[x, 1/x]; its subclass ``LPoly2`` holds
elements of Q[x, 1/x, y, 1/y], with the exponent pair (i, j) standing for
x^i y^j.  Both are sparse maps from exponents to nonzero exact
coefficients.  The ring operations are written once, in ``LPoly``, and
read the constant-term exponent from the class attribute ``ZERO``;
``LPoly2`` overrides only what needs pair exponents.  The two classes
never mix: an operation between an ``LPoly`` and an ``LPoly2`` raises
``TypeError``.  These are the coefficient rings of every truncated series
in the package, so all arithmetic here is exact: no floats, no
normalization shortcuts.

Scalars are integer-first: a coefficient with an integral value is
stored as an ``int`` and any other rational one as a ``Fraction``:
construction and ``_sum`` coerce each stored value inline, with no call
per term.  ``qdiv`` is the one scalar division (it calls ``_coerce``), so
an ``int`` quotient stays an ``int`` when it is exact and becomes a
``Fraction``, never a ``float``, when it is not.  ``divexact`` divides a
polynomial by a nonzero constant and by nothing else: that is the only
division series arithmetic needs.  There is no evaluation at a scalar:
``Series1.compose`` substitutes for x.  Another exact scalar type passes
through the coercions and ``qdiv`` untouched and uses its own division;
the tests' Gaussian rationals need that, to run the Newton solver on the
paper's equation over Q(i).

Each ring has one fused multiply-accumulate kernel, ``mul_into``, which
adds a product into an exponent dict; ``__mul__`` and the series product
are both built on it.  Instances are immutable (nothing writes to a
``terms`` dict once it is built), so an operation may return an operand
itself: a sum with an empty side returns the other one, and ``scale(1)``
returns ``self``.
"""

from __future__ import annotations

from fractions import Fraction

# Exponent tests for the ``part`` extractions, by mode name.
SIGN_TESTS = {
    "pos": lambda e: e > 0,
    "neg": lambda e: e < 0,
    "nonneg": lambda e: e >= 0,
}


def _coerce(c):
    """The stored form of an exact scalar: an integral ``Fraction`` becomes
    its ``int``; ints, other fractions and other exact types are kept."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def qdiv(a, b):
    """Exact quotient a / b: an ``int`` when b divides a, else a ``Fraction``
    (or the quotient of another exact scalar type, by its own division)."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return q if r == 0 else Fraction(a, b)
    return _coerce(a / b)


class LPoly:
    """Sparse univariate Laurent polynomial: finite map exponent -> coefficient.

    Invariants: no stored zero coefficients; exponents are ints (possibly
    negative).  Instances are treated as immutable.
    """

    __slots__ = ("terms",)

    ZERO = 0  # exponent of the constant term

    def __init__(self, terms=None):
        self.terms = {e: c.numerator if type(c) is Fraction
                      and c.denominator == 1 else c
                      for e, c in terms.items() if c != 0} if terms else {}

    @classmethod
    def const(cls, c):
        return cls({cls.ZERO: c})

    @classmethod
    def var(cls, power: int = 1):
        return cls({power: 1})

    # -- ring operations -------------------------------------------------

    @classmethod
    def _lift(cls, other):
        if type(other) is cls:
            return other
        if isinstance(other, (int, Fraction)):
            return cls.const(other)
        return None

    def _sum(self, other, sign):
        """self + other (sign 1) or self - other (sign -1) with no negated
        copy of `other`; an empty side returns the other operand (negated)."""
        o = other if type(other) is type(self) else self._lift(other)
        if o is None:
            return NotImplemented
        if not o.terms:
            return self
        if not self.terms:
            return o if sign > 0 else -o
        out = dict(self.terms)
        get = out.get
        for e, c in o.terms.items():
            s = get(e, 0) - c if sign < 0 else get(e, 0) + c
            if s == 0:
                del out[e]
            elif type(s) is Fraction and s.denominator == 1:
                out[e] = s.numerator
            else:
                out[e] = s
        return self._with_terms(out)

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def _with_terms(self, terms):
        """A new polynomial of the same class holding `terms` as given."""
        cls = type(self)
        r = cls.__new__(cls)
        r.terms = terms
        return r

    def __neg__(self):
        return self._with_terms({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self._sum(other, -1)

    def mul_into(self, out: dict, other) -> None:
        """Add self * other into the exponent dict `out`.

        `other` must be of the same ring.  Entries of `out` may cancel to
        zero or hold integral fractions; building the ring element from
        `out` (``type(self)(out)``) drops and coerces them.
        """
        get = out.get
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                out[e] = get(e, 0) + c1 * c2

    def __mul__(self, other):
        o = other if type(other) is type(self) else self._lift(other)
        if o is None:
            return NotImplemented
        out = {}
        self.mul_into(out, o)
        return type(self)(out)

    __rmul__ = __mul__

    def scale(self, c):
        """c times self, for an exact scalar c (self itself for c = 1)."""
        if c == 1:
            return self
        return type(self)({e: v * c for e, v in self.terms.items()})

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __bool__(self):
        return bool(self.terms)

    # -- structure queries ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, e: int):
        return self.terms.get(e, 0)

    def is_const(self) -> bool:
        return not self.terms or set(self.terms) == {self.ZERO}

    def const_value(self):
        if not self.is_const():
            raise ValueError(f"not a constant: {self}")
        return self.terms.get(self.ZERO, 0)

    # -- transformations -------------------------------------------------

    def sub_inverse(self):
        """x -> 1/x: negate every exponent."""
        return self._with_terms({-e: c for e, c in self.terms.items()})

    def shift(self, k: int):
        """Multiply by x^k."""
        return self._with_terms({e + k: c for e, c in self.terms.items()})

    def halve_exponents(self):
        """x^2 -> x; every exponent must be even."""
        for e in self.terms:
            if e % 2:
                raise ValueError(f"odd exponent {e} in halve_exponents")
        return self._with_terms({e // 2: c for e, c in self.terms.items()})

    def divexact(self, other):
        """self / c for a nonzero constant c, coefficient by coefficient
        (``qdiv``).  Any other divisor raises ValueError: series division
        only ever divides by a constant lowest coefficient."""
        o = self._lift(other)
        if o is None or o.is_zero():
            raise ZeroDivisionError(f"division by zero {type(self).__name__}")
        c = o.const_value()  # ValueError unless o is a constant
        return self._with_terms({e: qdiv(v, c) for e, v in self.terms.items()})

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            if e == 0:
                parts.append(str(c))
            elif e == 1:
                parts.append(f"{c}*x")
            else:
                parts.append(f"{c}*x^{e}")
        return " + ".join(parts)

    __repr__ = __str__


class LPoly2(LPoly):
    """Sparse bivariate Laurent polynomial: map (i, j) -> coefficient.

    Exponent pair (i, j) stands for x^i y^j.  Sums, negation, equality,
    division by a constant and the constant queries are inherited from
    ``LPoly``.
    """

    __slots__ = ()

    ZERO = (0, 0)

    @classmethod
    def x(cls, power: int = 1):
        return cls({(power, 0): 1})

    var = x  # ``LPoly.var`` names the first variable, x

    @classmethod
    def y(cls, power: int = 1):
        return cls({(0, power): 1})

    @classmethod
    def from_x_poly(cls, p: LPoly):
        return cls({(e, 0): c for e, c in p.terms.items()})

    @classmethod
    def from_y_poly(cls, p: LPoly):
        return cls({(0, e): c for e, c in p.terms.items()})

    def mul_into(self, out: dict, other) -> None:
        """``LPoly.mul_into`` with pair exponents, added entrywise."""
        get = out.get
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                e = (i1 + i2, j1 + j2)
                out[e] = get(e, 0) + c1 * c2

    def coeff(self, i: int, j: int):
        return self.terms.get((i, j), 0)

    # -- variable-wise structure ----------------------------------------

    def part(self, var: str, mode: str) -> "LPoly2":
        """Keep only terms whose exponent in `var` passes SIGN_TESTS[mode]."""
        axis = 0 if var == "x" else 1
        test = SIGN_TESTS[mode]
        return self._with_terms(
            {e: c for e, c in self.terms.items() if test(e[axis])}
        )

    def coeff_of(self, var: str, k: int) -> LPoly:
        """Coefficient of var^k, as an LPoly in the remaining variable."""
        if var == "x":
            return LPoly({j: c for (i, j), c in self.terms.items() if i == k})
        return LPoly({i: c for (i, j), c in self.terms.items() if j == k})

    def sub_inverse(self, var: str) -> "LPoly2":
        if var == "x":
            return self._with_terms(
                {(-i, j): c for (i, j), c in self.terms.items()})
        return self._with_terms({(i, -j): c for (i, j), c in self.terms.items()})

    def swap_vars(self) -> "LPoly2":
        return self._with_terms({(j, i): c for (i, j), c in self.terms.items()})

    def shift(self, di: int, dj: int) -> "LPoly2":
        return self._with_terms(
            {(i + di, j + dj): c for (i, j), c in self.terms.items()}
        )

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (i, j) in sorted(self.terms):
            body = str(self.terms[(i, j)])
            if i:
                body += f"*x^{i}" if i != 1 else "*x"
            if j:
                body += f"*y^{j}" if j != 1 else "*y"
            parts.append(body)
        return " + ".join(parts)

    __repr__ = __str__
