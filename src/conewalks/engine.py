"""The formula side: the paper's series and its catalog of parametrizations.

Solves implicit algebraic equations by Newton iteration with precision
doubling (``solve_algebraic``, the package's one solver; ``sqrt`` solves
G^2 = s with it, for Z = sqrt(T), the kernel discriminants and the
x-series roots), builds the parametrizing series T, Z, U, V and the
kernel root (``kernel_quadratic`` reads the kernel off a step set), and
evaluates the rational expressions of the data catalog: every term list
reads the powers of z, u and v from one memo (``_power``) and costs one
series product per group of terms that share their powers of u, v and x
(``eval_terms``).
The engine imports only ``laurent`` and ``series``, so ``param`` loads no
oracle code: the oracles are in ``decompose`` and the check tables in
``identities``.  ``run_check`` turns a check row (anchor, check) into the
one report dict of ``report``.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from functools import lru_cache, partial

from .laurent import LPoly
from .series import PivotError, Series1

# ---------------------------------------------------------------------------
# Implicit solving
# ---------------------------------------------------------------------------


def solve_algebraic(residual, order: int, c0) -> Series1:
    """Solve residual(G) = 0 for a series G with G(0) = c0.

    Newton iteration with precision doubling (Brent & Kung 1978): if G is
    right mod t^p and q = min(2p, order), then (R(G + t^p) - R(G)) / t^p
    is R'(G) mod t^(q-p), and one exact series division gives G mod t^q.
    Works for scalar and polynomial-valued coefficients.  Raises
    PivotError if c0 is not a root mod t or if [t^0]R'(c0) vanishes.
    """
    G = Series1.const(c0, order)
    if order and residual(G.truncate(1)).coeff(0) != 0:
        raise PivotError(f"G(0) = {c0} is not a root mod t")
    p = 1
    while p < order:
        q = min(2 * p, order)
        G = Series1(G.coeffs, q)
        r0 = residual(G)
        step = Series1([LPoly()] * p + [LPoly.const(1)], q)
        slope = (residual(G + step) - r0).mul_t(-p)
        if slope.coeff(0).is_zero():
            raise PivotError(f"derivative vanishes at t^0 (step to order {q})")
        G = G - r0.mul_t(-p).divide(slope).mul_t(p)
        p = q
    return G


def sqrt(s: Series1) -> Series1:
    """The square root of s with constant term 1, the root of G^2 - s: so
    s must have constant term 1, else PivotError."""
    return solve_algebraic(lambda G: G * G - s, s.order, 1)


# ---------------------------------------------------------------------------
# Base parametrizing series
# ---------------------------------------------------------------------------


def T_residual(G: Series1) -> Series1:
    """Cleared defining equation of T, (G - 1)(G + 3)^3 - 256 t^2 G^3: zero
    iff G solves it.  G^2 and G^3 are formed once, so it costs three
    series products."""
    G2 = G * G
    G3 = G2 * G
    cube = G3 + 9 * G2 + 27 * G + 27
    return (G - 1) * cube - 256 * G3.mul_t(2)


@lru_cache(maxsize=None)
def series_T(order: int) -> Series1:
    """Unique series with constant term 1 such that
    T = 1 + 256 t^2 T^3 / (T+3)^3."""
    return solve_algebraic(T_residual, order, 1)


@lru_cache(maxsize=None)
def series_Z(order: int) -> Series1:
    return sqrt(series_T(order))


def U_residual(U: Series1, T: Series1) -> Series1:
    """Cleared defining equation of U against a given T,
    16 T^2 (U^2 - T) - x (U + UT - 2T)(U^2 - 9T + 8TU + T^2 - TU^2).  T is
    cut to U's order first and U^2, TU, T^2 and TU^2 are shared, so it
    costs six series products at U's order."""
    T = T.truncate(U.order)
    U2 = U * U
    TU = T * U
    T2 = T * T
    TU2 = T * U2
    return 16 * T2 * (U2 - T) - ((U + TU - 2 * T) * (
        U2 - 9 * T + 8 * TU + T2 - TU2)).mul_x(1)


@lru_cache(maxsize=None)
def series_U(order: int) -> Series1:
    """Series with constant term 1 and coefficients in Q[x] satisfying
    16 T^2 (U^2 - T) = x (U + UT - 2T)(U^2 - 9T + 8TU + T^2 - T U^2)."""
    T = series_T(order)
    return solve_algebraic(lambda U: U_residual(U, T), order, 1)


def V_residual(V: Series1, T: Series1) -> Series1:
    """Cleared defining equation of V against a given T,
    (1 - T + 3V + VT) - x V^2 (3 + V + T - VT).  VT and V^2 are shared, so
    it costs three series products."""
    VT = V * T
    return (1 - T + 3 * V + VT) - (V * V * (3 + V + T - VT)).mul_x(1)


@lru_cache(maxsize=None)
def series_V(order: int) -> Series1:
    """Series with constant term 0 and coefficients in Q[x] satisfying
    1 - T + 3V + VT = x V^2 (3 + V + T - VT)."""
    T = series_T(order)
    return solve_algebraic(lambda V: V_residual(V, T), order, 0)


def kernel_quadratic(steps, order: int):
    """(a, b, c) with y K = -(a y^2 + b y + c): the kernel as a quadratic
    in y, read off the step polynomial."""
    poly = steps.step_poly()
    a, b, c = (Series1([LPoly(), poly.coeff_of("y", j)], order)
               for j in (1, 0, -1))
    return a, b - 1, c


def kernel_residual(steps, Y: Series1) -> Series1:
    """The kernel quadratic a y^2 + b y + c of a step set, evaluated at Y."""
    a, b, c = kernel_quadratic(steps, Y.order)
    return (a * Y + b) * Y + c


@lru_cache(maxsize=None)
def kernel_root_Y(steps, order: int) -> Series1:
    """The kernel root in y that is a power series in t, with Y(0) = 0."""
    return solve_algebraic(partial(kernel_residual, steps), order, 0)


# ---------------------------------------------------------------------------
# Catalog data
# ---------------------------------------------------------------------------


def read_data(name: str):
    """The JSON file ``name`` of the package's ``data`` directory."""
    path = os.path.join(os.path.dirname(__file__), "data", name)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@lru_cache(maxsize=None)
def _param_data() -> dict:
    return read_data("parametrizations.json")


_BUILDERS = {
    "z": series_Z,
    "u": series_U,
    "v": series_V,
    "x": Series1.x,
}


@lru_cache(maxsize=None)
def _power(sym: str, e: int, order: int) -> Series1:
    """The parametrizing series ``sym`` to the power e >= 0, shared by every
    term list read at this order."""
    if e == 0:
        return Series1.one(order)
    if e == 1:
        return _BUILDERS[sym](order).truncate(order)
    return _power(sym, e - 1, order) * _power(sym, 1, order)


def eval_terms(terms, order: int) -> Series1:
    """Evaluate an expanded term list at the parametrizing series.

    The terms are grouped by their powers of the symbols other than z.  A
    group's combination of powers of z is summed coefficient by
    coefficient, and then multiplied by the group's other powers: one
    series product per group and symbol, not one per term.
    """
    groups = {}  # other powers -> [(coefficient, its power of z)]
    for coeff, exps in terms:
        rest = tuple(sorted((sym, e) for sym, e in exps.items() if sym != "z"))
        z = _power("z", exps.get("z", 0), order)
        c = Fraction(coeff)
        groups.setdefault(rest, []).append(
            (c.numerator if c.denominator == 1 else c, z))
    acc = Series1.zero(order)
    for rest, pairs in groups.items():
        combo = []
        for k in range(order):
            coeff = {}
            get = coeff.get
            for c, z in pairs:
                for e, v in z.coeffs[k].terms.items():
                    coeff[e] = get(e, 0) + v * c
            combo.append(LPoly(coeff))
        group = Series1(combo, order)
        for sym, e in rest:
            group = group * _power(sym, e, order)
        acc = acc + group
    return acc


class CatalogError(ValueError):
    """A catalog entry's numerator is not divisible by its denominator."""


def catalog_series(key: str, order: int) -> Series1:
    """A catalog entry's rational expression in the parametrizing series,
    as a series in t (with coefficients in x for the bivariate entries).
    A division that does not go through raises ``CatalogError``."""
    data = _param_data()
    entry = data["bivariate"].get(key) or data["z_rationals"][key]
    num = eval_terms(entry["num"], order)
    den = eval_terms(entry["den"], order)
    try:
        return num.divide(den)
    except PivotError as exc:
        raise CatalogError(f"catalog division num/den: {exc}") from exc


def param_keys(section: str = "bivariate"):
    """The keys of one catalog section, "bivariate" or "z_rationals"."""
    return sorted(_param_data()[section])


# ---------------------------------------------------------------------------
# Check reports
# ---------------------------------------------------------------------------


def report(key, anchor, found, order) -> dict:
    """The report of one check: the only place its dict is built.

    ``found`` is the check's residual series (one, or a list), which pass
    when each is zero to its order, or its mismatches (a list of tuples),
    which pass when there are none.  A failing report names the first
    nonzero residual's first failure, or the first mismatch.
    ``order_checked`` is the order of the residual reported on (the first
    when all pass), or ``order`` for mismatches.
    """
    if isinstance(found, Series1):
        found = [found]
    failure = None
    for item in found:
        failure = item.first_failure() if isinstance(item, Series1) else item
        if failure is not None:
            break
    else:  # a pass reports on the first residual
        item = found[0] if found else None
    return {
        "id": key,
        "anchor": anchor,
        "order_checked": getattr(item, "order", order),
        "verdict": "pass" if failure is None else "fail",
        "first_failure": None if failure is None else list(failure),
    }


def run_check(checks: dict, key: str, order: int) -> dict:
    """The report of the check ``key`` of a check table.  A catalog entry
    whose division fails is reported as failing there, with the message as
    its mismatch."""
    anchor, check = checks[key]
    try:
        found = check(order)
    except CatalogError as exc:
        found = [(str(exc),)]
    return report(key, anchor, found, order)
