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
stored as an ``int`` and any other rational one as a ``Fraction``
(``_coerce`` keeps this on every stored value).  ``qdiv`` is the one
division in the module, so an ``int`` quotient stays an ``int`` when it is
exact and becomes a ``Fraction``, never a ``float``, when it is not.
Other exact scalar types (such as a Gaussian rational) pass through
untouched and use their own arithmetic.

Each ring has one fused multiply-accumulate kernel, ``mul_into``, which
adds a product into an exponent dict; ``__mul__`` and the series product
are both built on it.
"""

from __future__ import annotations

from fractions import Fraction

# Exponent tests for the ``part`` extractions, by mode name.
SIGN_TESTS = {
    "pos": lambda e: e > 0,
    "neg": lambda e: e < 0,
    "nonneg": lambda e: e >= 0,
    "nonpos": lambda e: e <= 0,
}


def _coerce(c):
    """The stored form of an exact scalar: an integral ``Fraction`` becomes
    its ``int``; ints, other fractions and other exact types are kept."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def qdiv(a, b):
    """Exact quotient a / b: an ``int`` when b divides a, else a ``Fraction``.

    Any other exact scalar type falls back to its own ``a / b``.
    """
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return q if r == 0 else Fraction(a, b)
    if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
        return _coerce(Fraction(a) / b)
    return a / b


class LPoly:
    """Sparse univariate Laurent polynomial: finite map exponent -> coefficient.

    Invariants: no stored zero coefficients; exponents are ints (possibly
    negative).  Instances are treated as immutable.
    """

    __slots__ = ("terms",)

    ZERO = 0  # exponent of the constant term

    def __init__(self, terms=None):
        if terms:
            self.terms = {e: _coerce(c) for e, c in terms.items() if c != 0}
        else:
            self.terms = {}

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

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in o.terms.items():
            s = _coerce(out.get(e, 0) + c)
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        cls = type(self)
        r = cls.__new__(cls)
        r.terms = out
        return r

    __radd__ = __add__

    def _with_terms(self, terms):
        """A new polynomial of the same class holding `terms` as given."""
        cls = type(self)
        r = cls.__new__(cls)
        r.terms = terms
        return r

    def __neg__(self):
        cls = type(self)
        r = cls.__new__(cls)
        r.terms = {e: -c for e, c in self.terms.items()}
        return r

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o + (-self)

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
        o = self._lift(other)
        if o is None:
            return NotImplemented
        out = {}
        self.mul_into(out, o)
        return type(self)(out)

    __rmul__ = __mul__

    def scale(self, c):
        """c times self, for an exact scalar c: every coefficient times c."""
        return type(self)({e: v * c for e, v in self.terms.items()})

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError(f"negative power of an {type(self).__name__}")
        result = self.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __bool__(self):
        return bool(self.terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- structure queries ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def valuation(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no valuation")
        return min(self.terms)

    def degree(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return max(self.terms)

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

    def eval(self, v):
        """Evaluate at a scalar; negative exponents use exact division."""
        acc = 0
        for e, c in self.terms.items():
            acc = acc + (c * v**e if e >= 0 else qdiv(c, v ** (-e)))
        return _coerce(acc)

    def divexact(self, other: "LPoly") -> "LPoly":
        """Exact division; raises ValueError if the remainder is nonzero."""
        o = self._lift(other)
        if o is None or o.is_zero():
            raise ZeroDivisionError("division by zero LPoly")
        if self.is_zero():
            return LPoly()
        shift = self.valuation() - o.valuation()
        # Work with ordinary polynomials anchored at exponent 0.
        rem = {e - self.valuation(): c for e, c in self.terms.items()}
        div = {e - o.valuation(): c for e, c in o.terms.items()}
        db = max(div)
        cb = div[db]
        quot = {}
        while rem:
            da = max(rem)
            if da < db:
                raise ValueError("inexact LPoly division")
            q = qdiv(rem[da], cb)
            quot[da - db] = q
            for e, c in div.items():
                ee = da - db + e
                s = rem.get(ee, 0) - q * c
                if s == 0:
                    rem.pop(ee, None)
                else:
                    rem[ee] = s
        return self._with_terms({e + shift: c for e, c in quot.items()})

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

    Exponent pair (i, j) stands for x^i y^j.  Sums, negation, powers,
    equality and the constant queries are inherited from ``LPoly``.
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

    def eval(self, vx, vy):
        acc = 0
        for (i, j), c in self.terms.items():
            term = c * vx**i if i >= 0 else qdiv(c, vx ** (-i))
            term = term * vy**j if j >= 0 else qdiv(term, vy ** (-j))
            acc = acc + term
        return _coerce(acc)

    def divexact(self, other) -> "LPoly2":
        """Exact division by a nonzero constant; any other divisor raises
        ValueError (series division never needs more)."""
        o = self._lift(other)
        if o is None or o.is_zero():
            raise ZeroDivisionError("division by zero LPoly2")
        if not o.is_const():
            raise ValueError("LPoly2 divides only by a nonzero constant")
        c0 = o.const_value()
        return self._with_terms({e: qdiv(c, c0) for e, c in self.terms.items()})

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
