"""Closed-form counting formulas for walks ending at specific points.

Each catalog entry expresses a count of 2n-step walks as 16^n times a
short combination of ratios of rising factorials.  The catalog itself
lives in data/closed_forms.json; entries carry the walk model and
endpoint they refer to, so tests can replay them against the oracle.
Formulas must produce integers: a non-integral value raises instead of
being rounded, since it would mean the formula (or its transcription)
is wrong.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources


def rising_factorial(a, n: int) -> Fraction:
    """(a)_n = a (a+1) ... (a+n-1), with (a)_0 = 1."""
    if n < 0:
        raise ValueError("n must be non-negative")
    a = Fraction(a)
    out = Fraction(1)
    for k in range(n):
        out *= a + k
    return out


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


def gessel_count(n: int) -> int:
    """Walks of length 2n from (0,0) to (0,0) in the 135-degree wedge."""
    val = (
        Fraction(16) ** n
        * rising_factorial(Fraction(1, 2), n)
        * rising_factorial(Fraction(5, 6), n)
        / rising_factorial(2, n)
        / rising_factorial(Fraction(5, 3), n)
    )
    if val.denominator != 1:
        raise ArithmeticError(f"non-integral count for n={n}: {val}")
    return val.numerator


@dataclass(frozen=True)
class HypTerm:
    """coeff * poly(n) * prod (a)_{n+s} / prod (b)_{n+r}."""

    coeff: Fraction
    poly: tuple  # coefficients of a polynomial in n, low degree first
    num: tuple   # pairs (a, shift)
    den: tuple   # pairs (b, shift)

    def value(self, n: int) -> Fraction:
        val = self.coeff * sum(c * n**k for k, c in enumerate(self.poly))
        for a, s in self.num:
            val *= rising_factorial(a, n + s)
        for b, s in self.den:
            val /= rising_factorial(b, n + s)
        return val


@dataclass(frozen=True)
class ClosedForm:
    key: str
    anchor: str
    lattice: str
    region: str
    start: tuple
    end: tuple
    terms: tuple

    def count(self, n: int) -> int:
        """Number of 2n-step walks from start to end in the cone."""
        val = Fraction(16) ** n * sum(
            (t.value(n) for t in self.terms), Fraction(0)
        )
        if val.denominator != 1:
            raise ArithmeticError(
                f"{self.key}: non-integral value at n={n}: {val}"
            )
        return val.numerator


def _parse_term(raw) -> HypTerm:
    return HypTerm(
        coeff=Fraction(raw["coeff"]),
        poly=tuple(Fraction(c) for c in raw.get("poly", ["1"])),
        num=tuple((Fraction(a), s) for a, s in raw["num"]),
        den=tuple((Fraction(b), s) for b, s in raw["den"]),
    )


def load_catalog() -> dict:
    text = (
        resources.files("conewalks").joinpath("data/closed_forms.json")
        .read_text()
    )
    raw = json.loads(text)
    catalog = {}
    for key, entry in raw.items():
        catalog[key] = ClosedForm(
            key=key,
            anchor=entry["anchor"],
            lattice=entry["lattice"],
            region=entry["region"],
            start=tuple(entry["start"]),
            end=tuple(entry["end"]),
            terms=tuple(_parse_term(t) for t in entry["terms"]),
        )
    return catalog


_CATALOG = None


def catalog() -> dict:
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = load_catalog()
    return _CATALOG

