"""Closed-form counting formulas for walks ending at specific points.

Each catalog entry expresses a count of 2n-step walks as 16^n times a
short combination of ratios of rising factorials.  The catalog itself
lives in data/closed_forms.json; entries carry their walk model (built
when the catalog loads, so a start outside its region fails there) and
endpoint, so tests can replay them against the oracle.
Formulas must produce integers: a non-integral value raises instead of
being rounded, since it would mean the formula (or its transcription)
is wrong, and ``verify`` reports it as a failed check.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction
from functools import lru_cache

from .walks import LATTICES, Record, Region, WalkModel


def read_data(name: str):
    """The JSON file ``name`` of the package's ``data`` directory."""
    path = os.path.join(os.path.dirname(__file__), "data", name)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _rising(a, n: int) -> tuple:
    """(a)_n for a = p/q in lowest terms, as the integers
    (p (p+q) ... (p+(n-1)q), q^n)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    p, q = a.numerator, a.denominator
    return math.prod(range(p, p + n * q, q)), q**n


def binomial(n: int, k) -> int:
    if k != int(k):
        return 0
    k = int(k)
    if k < 0 or k > n:
        return 0
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def quadrant_square_count(i: int, j: int, n: int) -> int:
    """Square lattice walks of length n from (0,0) to (i,j) in a quadrant."""
    if i < 0 or j < 0 or (n - i - j) % 2:
        return 0
    val = (
        Fraction((i + 1) * (j + 1), (n + 1) * (n + 2))
        * binomial(n + 2, (n - i - j) // 2)
        * binomial(n + 2, (n + i - j + 2) // 2)
    )
    if val.denominator != 1:
        raise ArithmeticError(f"non-integral count for ({i},{j},{n}): {val}")
    return val.numerator


def quadrant_diag_count(i: int, j: int, n: int) -> int:
    """Diagonal lattice walks of length n from (0,0) to (i,j) in a quadrant."""
    if i < 0 or j < 0 or (n - i) % 2 or (n - j) % 2:
        return 0
    val = (
        Fraction(i + 1, (n + i + 2) // 2)
        * Fraction(j + 1, (n + j + 2) // 2)
        * binomial(n, (n + i) // 2)
        * binomial(n, (n + j) // 2)
    )
    if val.denominator != 1:
        raise ArithmeticError(f"non-integral count for ({i},{j},{n}): {val}")
    return val.numerator


class HypTerm(Record):
    """coeff * poly(n) * prod (a)_{n+s} / prod (b)_{n+r}: ``coeff`` a
    Fraction, ``poly`` the coefficients of a polynomial in n, low degree
    first, and ``num`` and ``den`` the pairs (a, s) and (b, r)."""

    __slots__ = ("coeff", "poly", "num", "den")

    def value(self, n: int) -> Fraction:
        """The term at n: integer numerator and denominator products, then
        one ``Fraction``."""
        val = self.coeff * sum(c * n**k for k, c in enumerate(self.poly))
        num, den = val.numerator, val.denominator
        for a, s in self.num:
            p, q = _rising(a, n + s)
            num, den = num * p, den * q
        for b, s in self.den:
            p, q = _rising(b, n + s)
            num, den = num * q, den * p
        return Fraction(num, den)


def hyp_sum(terms, n: int) -> Fraction:
    """16^n times the sum of the terms' values at n."""
    return Fraction(16) ** n * sum((t.value(n) for t in terms), Fraction(0))


class ClosedForm(Record):
    """A catalog entry: its key and anchor, its ``WalkModel``, its
    endpoint and its ``HypTerm`` terms."""

    __slots__ = ("key", "anchor", "model", "end", "terms")

    def count(self, n: int) -> int:
        """Number of 2n-step walks from start to end in the cone."""
        val = hyp_sum(self.terms, n)
        if val.denominator != 1:
            raise ArithmeticError(
                f"{self.key}: non-integral value at n={n}: {val}"
            )
        return val.numerator


def _parse_term(raw) -> HypTerm:
    return HypTerm(
        Fraction(raw["coeff"]),
        tuple(Fraction(c) for c in raw.get("poly", ["1"])),
        tuple((Fraction(a), s) for a, s in raw["num"]),
        tuple((Fraction(b), s) for b, s in raw["den"]),
    )


@lru_cache(maxsize=None)
def catalog() -> dict:
    return {
        key: ClosedForm(
            key,
            entry["anchor"],
            WalkModel(LATTICES[entry["lattice"]], Region(entry["region"]),
                      tuple(entry["start"])),
            tuple(entry["end"]),
            tuple(_parse_term(t) for t in entry["terms"]),
        )
        for key, entry in read_data("closed_forms.json").items()
    }
