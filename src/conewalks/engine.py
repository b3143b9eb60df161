"""Algebraic verification engine.

Builds the parametrizing series (the quartic-defined base series and its
square root, plus the two variable-parametrizing series), solves implicit
algebraic equations by Newton iteration with precision doubling,
evaluates the parametrized rational expressions from the data catalog,
and checks everything against series extracted from the walk oracle.
Every term list of the catalog reads the powers of z, u and v from one
memo (``_power``), and costs one series product per group of terms that
share their powers of u, v and x (``eval_terms``).

Every check is a table row: its id maps to an anchor and a function from
the order to a list of residual series, all recomputed from the oracle
side.  ``report`` turns residuals (or a list comparison) into the one
report dict every check of the package returns.  The oracle side of each
catalog entry is data too: ``_PARAM_ORACLES``, ``_ENDPOINTS`` and
``_CONSTANTS`` map its key to the ``decompose`` pipeline series it must
match: a boundary series, a constant, or an endpoint count read off a
pipeline's zero-orbit-sum series A by ``decompose.at_point`` (so the orbit
sign of each model stays in ``decompose.PIPELINES``).  The engine runs no
walk DP of its own; each walk model is swept once per run.  Each
pipeline's cubic P(S(x), x) = 0 is stated once, as its coefficients in s
(``sq_cubic``, ``diag_cubic``, ``diag_shift_cubic``).  ``cubic_residual``
gives its identity, and ``gqm_series`` gives dP/ds and dP/dx at
(S(x), x), which every x-series check composes at its roots X of the
generalized quadratic method; ``x-sq-12`` first rotates them to real
series with ``_rotate``.
The kernel quadratic of each lattice is read off its step set
(``decompose.kernel_quadratic``).
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache, partial
from importlib import resources

from . import decompose
from .closedforms import HypTerm, hyp_sum
from .laurent import LPoly
from .series import PivotError, Series1
from .walks import DIAGONAL, SQUARE


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


# ---------------------------------------------------------------------------
# Base parametrizing series
# ---------------------------------------------------------------------------


def T_residual(G: Series1) -> Series1:
    """Cleared defining equation of T: zero iff G solves it."""
    t2 = Series1.t(G.order) ** 2
    cube = (G + 3) ** 3
    return G * cube - cube - 256 * t2 * G**3


@lru_cache(maxsize=None)
def series_T(order: int) -> Series1:
    """Unique series with constant term 1 such that
    T = 1 + 256 t^2 T^3 / (T+3)^3."""
    return solve_algebraic(T_residual, order, 1)


@lru_cache(maxsize=None)
def series_Z(order: int) -> Series1:
    return series_T(order).sqrt()


def U_residual(U: Series1, T: Series1) -> Series1:
    """Cleared defining equation of U against a given T."""
    x = Series1.x(U.order)
    U2 = U * U
    return 16 * T * T * (U2 - T) - x * (U + U * T - 2 * T) * (
        U2 - 9 * T + 8 * T * U + T * T - T * U2
    )


@lru_cache(maxsize=None)
def series_U(order: int) -> Series1:
    """Series with constant term 1 and coefficients in Q[x] satisfying
    16 T^2 (U^2 - T) = x (U + UT - 2T)(U^2 - 9T + 8TU + T^2 - T U^2)."""
    T = series_T(order)
    return solve_algebraic(lambda U: U_residual(U, T), order, 1)


def V_residual(V: Series1, T: Series1) -> Series1:
    """Cleared defining equation of V against a given T."""
    x = Series1.x(V.order)
    return (1 - T + 3 * V + V * T) - x * V * V * (3 + V + T - V * T)


@lru_cache(maxsize=None)
def series_V(order: int) -> Series1:
    """Series with constant term 0 and coefficients in Q[x] satisfying
    1 - T + 3V + VT = x V^2 (3 + V + T - VT)."""
    T = series_T(order)
    return solve_algebraic(lambda V: V_residual(V, T), order, 0)


# The base square-root series: [t^2n] Z = 16^n times this two-term sum.
Z_TERMS = (
    HypTerm(Fraction(2), (1,), ((Fraction(-1, 2), 0), (Fraction(1, 6), 0)),
            ((1, 0), (Fraction(1, 3), 0))),
    HypTerm(Fraction(-1), (1,), ((Fraction(-1, 2), 0), (Fraction(5, 6), 0)),
            ((1, 0), (Fraction(2, 3), 0))),
)


def hypergeometric_Z(order: int) -> Series1:
    """The base square-root series as the hypergeometric sum ``Z_TERMS``."""
    return Series1.from_scalar_coeffs(
        [0 if m % 2 else hyp_sum(Z_TERMS, m // 2) for m in range(order)],
        order)


def kernel_residual(steps, Y: Series1) -> Series1:
    """The kernel quadratic a y^2 + b y + c of a step set, evaluated at Y."""
    a, b, c = decompose.kernel_quadratic(steps, Y.order)
    return (a * Y + b) * Y + c


@lru_cache(maxsize=None)
def kernel_root_Y(steps, order: int) -> Series1:
    """The kernel root in y that is a power series in t, with Y(0) = 0."""
    return solve_algebraic(partial(kernel_residual, steps), order, 0)


# ---------------------------------------------------------------------------
# Catalog data
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _param_data() -> dict:
    text = (
        resources.files("conewalks")
        .joinpath("data/parametrizations.json")
        .read_text()
    )
    return json.loads(text)


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
        groups.setdefault(rest, []).append((LPoly.const(Fraction(coeff)), z))
    acc = Series1.zero(order)
    for rest, pairs in groups.items():
        combo = []
        for k in range(order):
            coeff = {}
            for c, z in pairs:
                z.coeffs[k].mul_into(coeff, c)
            combo.append(LPoly(coeff))
        group = Series1(combo, order)
        for sym, e in rest:
            group = group * _power(sym, e, order)
        acc = acc + group
    return acc


def catalog_series(key: str, order: int) -> Series1:
    """A catalog entry's rational expression in the parametrizing series,
    as a series in t (with coefficients in x for the bivariate entries)."""
    data = _param_data()
    entry = data["bivariate"].get(key) or data["z_rationals"][key]
    num = eval_terms(entry["num"], order)
    return num.divide(eval_terms(entry["den"], order))


# ---------------------------------------------------------------------------
# Oracle sides
# ---------------------------------------------------------------------------


# key -> (pipeline, boundary series, power of x, power of t).  Square
# oracles are read with x -> x t; diagonal ones live in the squared variable.
_PARAM_ORACLES = {
    "sq-origin-axis-x": ("square_origin", "L_x0", 0, 1),
    "sq-origin-axis-y": ("square_origin", "L_0y", 0, 1),
    "diag-origin-axis-x": ("diagonal_origin", "L_x0", -1, 2),
    "diag-origin-axis-y": ("diagonal_origin", "L_0y", 1, 1),
    "sq-shift-left-axis-x": ("square_shifted", "L_x0", 0, 0),
    "sq-shift-left-axis-y": ("square_shifted", "L_0y", 1, 0),
    "sq-shift-below-axis-x": ("square_shifted", "B_x0", 1, 0),
    "sq-shift-below-axis-y": ("square_shifted", "B_0y", 0, 0),
    "diag-shift-left-axis-x": ("diagonal_shifted", "L_x0", -1, 0),
    "diag-shift-left-axis-y": ("diagonal_shifted", "L_0y", 1, 1),
    "diag-shift-below-axis-x": ("diagonal_shifted", "B_x0", 1, 1),
    "diag-shift-below-axis-y": ("diagonal_shifted", "B_0y", -1, 0),
}


def param_oracle(key: str, order: int) -> Series1:
    """The walk-oracle series that a bivariate catalog entry must match."""
    pipeline, name, dx, dt = _PARAM_ORACLES[key]
    p = decompose.pipeline(pipeline, order)
    s = getattr(p, name)
    if p.steps is SQUARE:
        return decompose.tmul(s, dt).x_to_xt().mul_x(dx)
    return decompose.tmul(s.mul_x(dx).halve_x(), dt)


# key -> (pipeline, end, power of t): the pipeline's zero-orbit-sum series
# A at x^i y^j for end = (i, j).
_ENDPOINTS = {
    "sq-origin-end-m1-0": ("square_origin", (-1, 0), 1),
    "sq-origin-end-m1-1": ("square_origin", (-1, 1), 0),
    "sq-origin-end-m2-0": ("square_origin", (-2, 0), 0),
    "sq-origin-end-0-0": ("square_origin", (0, 0), 0),
    "diag-origin-end-m1-1": ("diagonal_origin", (-1, 1), 1),
    "diag-origin-end-m2-0": ("diagonal_origin", (-2, 0), 0),
    "diag-origin-end-0-0": ("diagonal_origin", (0, 0), 0),
    "sq-shift-end-0-0": ("square_shifted", (0, 0), 1),
    "sq-shift-end-m2-0": ("square_shifted", (-2, 0), 1),
    "sq-shift-end-0-m2": ("square_shifted", (0, -2), 1),
    "sq-shift-end-m1-0": ("square_shifted", (-1, 0), 0),
    "sq-shift-end-m1-1": ("square_shifted", (-1, 1), 1),
    "sq-shift-end-0-m1": ("square_shifted", (0, -1), 0),
    "diag-shift-end-m1-1": ("diagonal_shifted", (-1, 1), 1),
    "diag-shift-end-m1-3": ("diagonal_shifted", (-1, 3), 1),
    "diag-shift-end-m2-0": ("diagonal_shifted", (-2, 0), 0),
    "diag-shift-end-0-0": ("diagonal_shifted", (0, 0), 0),
    "diag-shift-end-0-m2": ("diagonal_shifted", (0, -2), 0),
    "diag-shift-end-1-m1": ("diagonal_shifted", (1, -1), 1),
}


def diag_F0(order: int) -> Series1:
    """F0 = P0 - S(-1) of the diagonal origin pipeline."""
    dg = decompose.pipeline("diagonal_origin", order)
    return dg.P0 - dg.S_m1


def diag_shift_F0(order: int) -> Series1:
    """F0 = P0 - 3 S(-1) of the shifted diagonal pipeline, with S from N."""
    ds = decompose.pipeline("diagonal_shifted", order)
    return ds.P0 - 3 * ds.S_m1


# key -> the pipeline constant it names.
_CONSTANTS = {
    "sq-origin-m01": lambda n: decompose.tmul(
        decompose.pipeline("square_origin", n).L_0y.coeff_x(1), 2),
    "sq-S1": lambda n: decompose.pipeline("square_origin", n).S1,
    "sq-P0": lambda n: decompose.pipeline("square_origin", n).P0,
    "diag-S1": lambda n: decompose.pipeline("diagonal_origin", n).S1,
    "diag-F0": diag_F0,
    "diag-R0": lambda n: decompose.pipeline("diagonal_origin", n).R0,
    "diag-shift-S1": lambda n: decompose.pipeline("diagonal_shifted", n).S1,
    "diag-shift-F0": diag_shift_F0,
}


def z_rational_oracle(key: str, order: int) -> Series1:
    """The oracle series matching a one-variable catalog entry."""
    if key in _CONSTANTS:
        return _CONSTANTS[key](order)
    pipeline, end, dt = _ENDPOINTS[key]
    A = decompose.pipeline(pipeline, order).A
    return decompose.tmul(decompose.at_point(A, end), dt)


# ---------------------------------------------------------------------------
# Quartic equations for the boundary constants
# ---------------------------------------------------------------------------


_scal = Series1.from_scalar_coeffs


def _quartic_S1(G, t, t2):
    return (
        19683 * t2**3 * G**4
        + 2187 * t2**2 * (20 * t2 - 1) * G**3
        + 81 * t2 * (11 * t2 - 1) * (38 * t2 - 1) * G**2
        + (92 * t2 - 1) * (11 * t2 - 1) ** 2 * G
        + t2 * (1331 * t2**2 - 107 * t2 + 1)
    )


def _quartic_P0(G, t, t2):
    return (
        387420489 * t2**3 * G**4
        + 3188646 * t2**2 * (284 * t2**2 - 113 * t2 - 1) * G**3
        + 8748
        * t2
        * (31570 * t2**4 - 96755 * t2**3 + 7251 * t2**2 + t2 + 1)
        * G**2
        + (
            29962144 * t2**6
            - 441273288 * t2**5
            + 87261432 * t2**4
            - 4754122 * t2**3
            + 64860 * t2**2
            - 687 * t2
            - 8
        )
        * G
        + t2**2
        * (
            1102736 * t2**5
            - 53770928 * t2**4
            + 4286896 * t2**3
            - 58740 * t2**2
            + 751 * t2
            + 8
        )
    )


def _quartic_F0(G, t, t2):
    return (
        27 * G**4
        + 27 * (8 * t2 - 1) * G**3
        + 9 * (2 * t + 1) * (2 * t - 1) * (10 * t2 - 1) * G**2
        + (224 * t2**3 - 68 * t2**2 + 16 * t2 - 1) * G
        + t2 * (48 * t2**3 + 88 * t2**2 - 20 * t2 + 1)
    )


# boundary constant -> its degree-4 equation; the two S1 share one.
_QUARTICS = {
    "sq-S1": _quartic_S1,
    "sq-P0": _quartic_P0,
    "diag-S1": _quartic_S1,
    "diag-F0": _quartic_F0,
}


def quartic_residual(which: str, G: Series1) -> Series1:
    """Residual of the degree-4 equation satisfied by a boundary constant."""
    n = G.order
    return _QUARTICS[which](G, Series1.t(n), _scal([0, 0, 1], n))


# ---------------------------------------------------------------------------
# Auxiliary algebraic series from the generalized quadratic method
# ---------------------------------------------------------------------------


def sq_X0(order: int) -> Series1:
    """(1 - sqrt(1 - 16 t^2)) / (4t), the Catalan-flavoured root."""
    r = _scal([1, 0, -16], order + 1).sqrt()
    return (1 - r).mul_t(-1) * Fraction(1, 4)


def sq_X0_catalan(order: int) -> Series1:
    """Same series, written through Catalan numbers."""
    cat = [1]
    for k in range(order):
        cat.append(cat[-1] * 2 * (2 * k + 1) // (k + 2))
    coeffs = [Fraction(0)] * order
    n = 1
    while 2 * n - 1 < order:
        coeffs[2 * n - 1] = Fraction(cat[n - 1] * 4**n, 2)
        n += 1
    return _scal(coeffs, order)


def _rotate(A: Series1, shift: int):
    """i^(-shift) A(i s, i x) as a real series in s, and the rest of A.

    The coefficient of s^n x^k is c i^(n+k-shift), real exactly when
    n + k - shift is even; then it is c times (-1)^((n+k-shift)/2).  The
    terms of the other parity are returned as the second series, which is
    zero when the rotation is real.
    """
    real, rest = [], []
    for n, p in enumerate(A.coeffs):
        real.append(LPoly({k: c if (n + k - shift) % 4 == 0 else -c
                           for k, c in p.terms.items()
                           if (n + k - shift) % 2 == 0}))
        rest.append(LPoly({k: c for k, c in p.terms.items()
                           if (n + k - shift) % 2}))
    return Series1(real, A.order), Series1(rest, A.order)


def sq_cubic(order: int):
    """The coefficients [a0, a1, a2, a3] in s of the cubic P(s, x), with
    P(S(x), x) = 0, of the boundary series S of the square origin pipeline,
    and S.  P is cleared by x^3, so that each a_k is a polynomial in x and
    P can be evaluated at a series X with X(0) = 0."""
    sq = decompose.pipeline("square_origin", order)
    S1 = sq.S1
    t = Series1.t(order)
    x = Series1.x(order)
    t2 = t * t
    x2 = x * x
    w = x - t * (x2 + 1)
    lead = w * w - 4 * t2 * x2
    rest = x * (
        2 * t2 * S1 * S1 * x2
        + 2 * t * (t * x2 * x2 + t * x2 + t - x2 * x - x) * S1
        - sq.P0 * x2
        + t2 * (x2 * x2 + 1)
    )
    a0 = -t2 * x2 * (x2 - 1) * (1 + S1) ** 2 - rest * x
    a1 = lead * x * (x2 + 1) - rest
    return [a0, a1, lead * (2 * x2 + 1), lead * x], sq.S


def diag_cubic(order: int):
    """The coefficients [a0, a1, a2, a3] in s of the cubic P(s, x), with
    P(S(x), x) = 0, of the boundary series S of the diagonal origin
    pipeline (in the squared variable), and S."""
    dg = decompose.pipeline("diagonal_origin", order)
    S1 = dg.S1
    F0 = diag_F0(order)
    t2 = _scal([0, 0, 1], order)
    x = Series1.x(order)
    lead = x - 4 * t2 * (1 + x) ** 2
    g = (t2 * (x * x + 1) - F0 * x) * (x + 1)
    a0 = -(g + t2 * S1 * x * (x + 1) - (2 * t2 * S1 - F0) * x - t2 * (x + 1))
    return [a0, lead * x - g, lead * (2 * x + 1), lead * (x + 1)], dg.S


def diag_shift_cubic(order: int):
    """The coefficients [a0, a1, a2, a3] in s of the cubic P(s, x), with
    P(S(x), x) = 0, of the antisymmetric boundary series S (from N) of the
    shifted diagonal model, and S."""
    ds = decompose.pipeline("diagonal_shifted", order)
    S1 = ds.S1
    F0 = diag_shift_F0(order)
    t2 = _scal([0, 0, 1], order)
    x = Series1.x(order)
    lead = x - 4 * t2 * (1 + x) ** 2
    a0 = (x * (x + 1) * (7 * t2 * S1 - F0) + t2 * x * x * (x + 1)
          + x * (F0 + 2 * t2 * S1))
    a1 = (2 - x) * lead - (x + 1) * (
        (16 * t2 * S1 - F0) * x + t2 * (x * x + 1))
    return [a0, a1, -3 * lead, (x + 1) * lead], ds.S


def cubic_residual(coeffs, S: Series1) -> Series1:
    """The sum of a_k S^k over the coefficients a_k in s (Horner's rule):
    for a pipeline's cubic, P(S(x), x), a series identity in x."""
    acc = coeffs[-1]
    for a in reversed(coeffs[:-1]):
        acc = acc * S + a
    return acc


def _d_dx(p: LPoly) -> LPoly:
    return LPoly({e - 1: e * c for e, c in p.terms.items()})


def gqm_series(coeffs, S: Series1):
    """dP/ds and dP/dx at (S(x), x), as series in t and the formal x, for
    the cubic P with coefficients a_k in s: the sums of k a_k S^(k-1) and
    of a_k' S^k.  The series X of the generalized quadratic method are the
    power series roots of dP/ds composed at X; P and dP/dx vanish there
    too, because S(X) is a double root of P(s, X)."""
    ds = cubic_residual([k * a for k, a in enumerate(coeffs) if k], S)
    dx = cubic_residual([a.map_poly(_d_dx) for a in coeffs], S)
    return ds, dx


def sq_wrong_parity(order: int):
    """The terms of S (shift 1), S1 and P0 (shift 0) of the square origin
    pipeline that ``_rotate`` cannot make real: all zero."""
    sq = decompose.pipeline("square_origin", order)
    return [_rotate(sq.S, 1)[1], _rotate(sq.S1, 0)[1], _rotate(sq.P0, 0)[1]]


def sq_F(order: int) -> Series1:
    """The real root F with F(0) = 1 of dP/ds for the square cubic, rotated
    by ``_rotate``: X1 = i F(-i t) is the paper's root with constant term
    i, and the other root is its complex conjugate."""
    ds, _ = gqm_series(*sq_cubic(order))
    return solve_algebraic(_rotate(ds, 1)[0].compose, order, 1)


@lru_cache(maxsize=None)
def diag_X0(order: int) -> Series1:
    """(1 - 2t - sqrt(1 - 4t)) / (2t)."""
    r = _scal([1, -4], order + 1).sqrt()
    num = 1 - 2 * Series1.t(order + 1) - r
    return num.mul_t(-1) * Fraction(1, 2)


@lru_cache(maxsize=None)
def diag_X1(order: int) -> Series1:
    """-(1 + 2t - sqrt(1 + 4t)) / (2t)."""
    r = _scal([1, 4], order + 1).sqrt()
    num = 1 + 2 * Series1.t(order + 1) - r
    return -(num.mul_t(-1)) * Fraction(1, 2)


def diag_shift_X(order: int, which: int) -> Series1:
    """The two power series roots of dP/ds for the cubic of the shifted
    diagonal model."""
    ds, _ = gqm_series(*diag_shift_cubic(order))
    return solve_algebraic(ds.compose, order, 2 if which == 0 else 0)


# ---------------------------------------------------------------------------
# Check registry
# ---------------------------------------------------------------------------


def report(key, anchor, residuals=(), order=None, failure=None) -> dict:
    """The report of one check: the only place its dict is built.

    A series check gives its residuals.  It passes when every residual is
    zero to its order; otherwise the report names the first nonzero one.
    ``order_checked`` is the order of the residual reported on.  A check
    that compares lists gives the order it ran to and its first failure.
    """
    if residuals:
        order = residuals[0].order
        for r in residuals:
            failure = r.first_failure()
            if failure is not None:
                order = r.order
                break
    return {
        "id": key,
        "anchor": anchor,
        "order_checked": order,
        "verdict": "pass" if failure is None else "fail",
        "first_failure": None if failure is None else list(failure),
    }


def _x_sq_0(n):
    X0 = sq_X0(n)
    ds, _ = gqm_series(*sq_cubic(n))
    return [2 * Series1.t(n) * (X0 * X0 + 1) - X0, X0 - sq_X0_catalan(n),
            ds.compose(X0)]


def _x_sq_12(n):
    _, dx = gqm_series(*sq_cubic(n))
    return [_rotate(dx, 1)[0].compose(sq_F(n)), *sq_wrong_parity(n)]


def _x_diag_01(n):
    t = Series1.t(n)
    X0 = diag_X0(n)
    X1 = diag_X1(n)
    ds, _ = gqm_series(*diag_cubic(n))
    return [
        t * (X0 * X0 + 1) - (1 - 2 * t) * X0,
        t * (X1 * X1 + 1) + (1 + 2 * t) * X1,
        ds.compose(X0),
        ds.compose(X1),
    ]


def _x_diag_shift_01(n):
    coeffs, S = diag_shift_cubic(n)
    P = cubic_residual(coeffs, S)
    _, dx = gqm_series(coeffs, S)
    roots = [diag_shift_X(n, which) for which in (0, 1)]
    return [r.compose(X) for X in roots for r in (P, dx)]


# Check tables: id -> (anchor, order -> residual series).
BASE_CHECKS = {
    "base-T": ("defining quartic of the base series",
               lambda n: [T_residual(series_T(n))]),
    "base-Z-hyper": ("square-root base series as a hypergeometric sum",
                     lambda n: [series_Z(n) - hypergeometric_Z(n)]),
    **{
        f"base-Y-{steps.name}": (
            f"{steps.name}-lattice kernel root",
            lambda n, steps=steps: [
                kernel_residual(steps, kernel_root_Y(steps, n))],
        )
        for steps in (SQUARE, DIAGONAL)
    },
}
QUARTIC_CHECKS = {
    f"quartic-{which}": (
        f"degree-4 equation for {which}",
        lambda n, which=which: [
            quartic_residual(which, z_rational_oracle(which, n))],
    )
    for which in _QUARTICS
}
XSERIES_CHECKS = {
    "x-sq-0": ("square origin: Catalan-type root", _x_sq_0),
    "x-sq-12": ("square origin: conjugate Gaussian roots", _x_sq_12),
    "x-diag-01": ("diagonal origin: the two explicit roots", _x_diag_01),
    "x-diag-shift-01": ("shifted diagonal: implicit roots", _x_diag_shift_01),
}
BASE_KEYS = tuple(BASE_CHECKS)
QUARTIC_KEYS = tuple(QUARTIC_CHECKS)
XSERIES_KEYS = tuple(XSERIES_CHECKS)


def param_keys():
    return sorted(_param_data()["bivariate"])


def z_rational_keys():
    return sorted(_param_data()["z_rationals"])


def _catalog_residuals(key, oracle, n):
    return [catalog_series(key, n) - oracle(key, n)]


@lru_cache(maxsize=None)
def _checks() -> dict:
    """Every engine check in report order; a catalog entry's residual is
    its rational expression minus its oracle series."""
    catalog = {
        key: (entry["anchor"], partial(_catalog_residuals, key, oracle))
        for section, oracle in (("bivariate", param_oracle),
                                ("z_rationals", z_rational_oracle))
        for key, entry in sorted(_param_data()[section].items())
    }
    return {**BASE_CHECKS, **catalog, **QUARTIC_CHECKS, **XSERIES_CHECKS}


def run_check(key: str, order: int) -> dict:
    anchor, residuals = _checks()[key]
    return report(key, anchor, residuals(order))
