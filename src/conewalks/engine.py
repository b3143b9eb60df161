"""Algebraic verification engine.

Builds the parametrizing series (the quartic-defined base series and its
square root, plus the two variable-parametrizing series), solves implicit
algebraic equations by Newton iteration with precision doubling,
evaluates the parametrized rational expressions from the data catalog,
and checks everything against series extracted from the walk oracle.

Every check returns a small report dict; nothing is assumed, everything
is recomputed from the oracle side.  The oracle side of each catalog entry
is data: ``_PARAM_ORACLES``, ``_ENDPOINTS`` and ``_CONSTANTS`` map its key
to the pipeline series or endpoint counts it must match.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from importlib import resources

from . import decompose
from .closedforms import rising_factorial
from .gaussian import I, GaussianRational
from .laurent import LPoly
from .series import PivotError, Series1
from .walks import (
    DIAGONAL,
    SQUARE,
    Region,
    WalkModel,
    endpoint_series,
)


# ---------------------------------------------------------------------------
# Implicit solving
# ---------------------------------------------------------------------------


def solve_algebraic(residual, order: int, c0) -> Series1:
    """Solve residual(G) = 0 for a series G with G(0) = c0.

    Newton iteration with precision doubling (Brent & Kung 1978): if G is
    right mod t^p and q = min(2p, order), then (R(G + t^p) - R(G)) / t^p
    is R'(G) mod t^(q-p), and one exact series division gives G mod t^q.
    Works for scalar, polynomial-valued, and Gaussian-rational
    coefficients.  Raises PivotError if c0 is not a root mod t or if
    [t^0]R'(c0) vanishes.
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


def hypergeometric_Z(order: int) -> Series1:
    """The base square-root series as a two-term hypergeometric sum."""
    coeffs = []
    for m in range(order):
        if m % 2:
            coeffs.append(Fraction(0))
            continue
        n = m // 2
        val = Fraction(16) ** n * (
            2
            * rising_factorial(Fraction(-1, 2), n)
            * rising_factorial(Fraction(1, 6), n)
            / (rising_factorial(1, n) * rising_factorial(Fraction(1, 3), n))
            - rising_factorial(Fraction(-1, 2), n)
            * rising_factorial(Fraction(5, 6), n)
            / (rising_factorial(1, n) * rising_factorial(Fraction(2, 3), n))
        )
        coeffs.append(val)
    return Series1.from_scalar_coeffs(coeffs, order)


def kernel_residual(lattice: str, Y: Series1) -> Series1:
    """The kernel quadratic in y, evaluated at Y.

    Square lattice: t Y^2 - (1 - t(x + xbar)) Y + t.
    Diagonal lattice: t (x + xbar) Y^2 - Y + t (x + xbar).
    """
    t = Series1.t(Y.order)
    s = Series1.from_poly(LPoly.var(1) + LPoly.var(-1), Y.order)
    if lattice == "square":
        return t * Y * Y - (1 - t * s) * Y + t
    if lattice == "diagonal":
        return t * s * Y * Y - Y + t * s
    raise ValueError(f"unknown lattice {lattice!r}")


@lru_cache(maxsize=None)
def kernel_root_Y(lattice: str, order: int) -> Series1:
    """The kernel root in y that is a power series in t, with Y(0) = 0."""
    return solve_algebraic(lambda Y: kernel_residual(lattice, Y), order, 0)


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


def eval_terms(terms, order: int, env=None) -> Series1:
    """Evaluate an expanded term list at the parametrizing series."""
    if env is None:
        env = {}
    cache = {}

    def power(sym, e):
        if (sym, e) not in cache:
            if e == 1:
                base = env.get(sym)
                if base is None:
                    base = _BUILDERS[sym](order)
                cache[(sym, e)] = base.truncate(order)
            else:
                cache[(sym, e)] = power(sym, e - 1) * power(sym, 1)
        return cache[(sym, e)]

    acc = Series1.zero(order)
    for coeff, exps in terms:
        term = Series1.const(Fraction(coeff), order)
        for sym, e in exps.items():
            term = term * power(sym, e)
        acc = acc + term
    return acc


@lru_cache(maxsize=None)
def param_series(key: str, order: int) -> Series1:
    """Parametrized rational expression evaluated as a series in t and x."""
    entry = _param_data()["bivariate"][key]
    num = eval_terms(entry["num"], order)
    den = eval_terms(entry["den"], order)
    return num.divide(den)


def z_rational(key: str, order: int) -> Series1:
    entry = _param_data()["z_rationals"][key]
    num = eval_terms(entry["num"], order)
    den = eval_terms(entry["den"], order)
    return num.divide(den)


# ---------------------------------------------------------------------------
# Oracle sides
# ---------------------------------------------------------------------------


# key -> (pipeline, boundary series, power of x, power of t).  Square
# oracles are read with x -> x t; diagonal ones live in the squared variable.
_PARAM_ORACLES = {
    "sq-origin-axis-x": ("square_origin", "M_x0", 0, 1),
    "sq-origin-axis-y": ("square_origin", "M_0y", 0, 1),
    "diag-origin-axis-x": ("diagonal_origin", "M_x0", -1, 2),
    "diag-origin-axis-y": ("diagonal_origin", "M_0y", 1, 1),
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
    s = getattr(getattr(decompose, pipeline)(order), name)
    if pipeline.startswith("square"):
        return decompose.tmul(s, dt).x_to_xt().mul_x(dx)
    return decompose.tmul(decompose.even_halve(s.mul_x(dx)), dt)


# key -> (lattice, start, end, power of t, multiple of Q00 / 3), where Q00
# counts quadrant walks from the origin back to it.
_ENDPOINTS = {
    "sq-origin-end-m1-0": (SQUARE, (0, 0), (-1, 0), 1, 0),
    "sq-origin-end-m1-1": (SQUARE, (0, 0), (-1, 1), 0, 0),
    "sq-origin-end-m2-0": (SQUARE, (0, 0), (-2, 0), 0, 1),
    "sq-origin-end-0-0": (SQUARE, (0, 0), (0, 0), 0, -1),
    "diag-origin-end-m1-1": (DIAGONAL, (0, 0), (-1, 1), 1, 0),
    "diag-origin-end-m2-0": (DIAGONAL, (0, 0), (-2, 0), 0, 1),
    "diag-origin-end-0-0": (DIAGONAL, (0, 0), (0, 0), 0, -1),
    "sq-shift-end-0-0": (SQUARE, (-1, 0), (0, 0), 1, 0),
    "sq-shift-end-m2-0": (SQUARE, (-1, 0), (-2, 0), 1, 0),
    "sq-shift-end-0-m2": (SQUARE, (-1, 0), (0, -2), 1, 0),
    "sq-shift-end-m1-0": (SQUARE, (-1, 0), (-1, 0), 0, 0),
    "sq-shift-end-m1-1": (SQUARE, (-1, 0), (-1, 1), 1, 0),
    "sq-shift-end-0-m1": (SQUARE, (-1, 0), (0, -1), 0, 0),
    "diag-shift-end-m1-1": (DIAGONAL, (-2, 0), (-1, 1), 1, 0),
    "diag-shift-end-m1-3": (DIAGONAL, (-2, 0), (-1, 3), 1, 0),
    "diag-shift-end-m2-0": (DIAGONAL, (-2, 0), (-2, 0), 0, -1),
    "diag-shift-end-0-0": (DIAGONAL, (-2, 0), (0, 0), 0, 1),
    "diag-shift-end-0-m2": (DIAGONAL, (-2, 0), (0, -2), 0, -1),
    "diag-shift-end-1-m1": (DIAGONAL, (-2, 0), (1, -1), 1, 0),
}

# key -> the pipeline constant it names.
_CONSTANTS = {
    "sq-origin-m01": lambda n: decompose.tmul(
        decompose.square_origin(n).M_0y.coeff_x(1), 2),
    "sq-S1": lambda n: decompose.square_origin(n).S1,
    "sq-P0": lambda n: decompose.square_origin(n).P0,
    "diag-S1": lambda n: decompose.diagonal_origin(n).S1,
    "diag-F0": lambda n: decompose.diagonal_origin(n).F0,
    "diag-R0": lambda n: decompose.diagonal_origin(n).R0,
    "diag-shift-S1": lambda n: decompose.diagonal_shifted(n).Npair.S1,
    "diag-shift-F0": lambda n: decompose.diagonal_shifted(n).N_F0,
}


def z_rational_oracle(key: str, order: int) -> Series1:
    """The oracle series matching a one-variable catalog entry."""
    if key in _CONSTANTS:
        return _CONSTANTS[key](order)
    steps, start, end, dt, q00 = _ENDPOINTS[key]
    model = WalkModel(steps, Region.THREE_QUADRANT, start)
    s = decompose.tmul(endpoint_series(model, end, order), dt)
    if q00:
        quadrant = WalkModel(steps, Region.QUADRANT, (0, 0))
        s = s + Fraction(q00, 3) * endpoint_series(quadrant, (0, 0), order)
    return s


# ---------------------------------------------------------------------------
# Quartic equations for the boundary constants
# ---------------------------------------------------------------------------


def _scal(coeffs, order):
    return Series1.from_scalar_coeffs(coeffs, order)


def quartic_residual(which: str, G: Series1) -> Series1:
    """Residual of the degree-4 equation satisfied by a boundary constant."""
    n = G.order
    t2 = _scal([0, 0, 1], n)
    if which in ("sq-S1", "diag-S1"):
        return (
            19683 * t2**3 * G**4
            + 2187 * t2**2 * (20 * t2 - 1) * G**3
            + 81 * t2 * (11 * t2 - 1) * (38 * t2 - 1) * G**2
            + (92 * t2 - 1) * (11 * t2 - 1) ** 2 * G
            + t2 * (1331 * t2**2 - 107 * t2 + 1)
        )
    if which == "sq-P0":
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
    if which == "diag-F0":
        t = Series1.t(n)
        return (
            27 * G**4
            + 27 * (8 * t2 - 1) * G**3
            + 9 * (2 * t + 1) * (2 * t - 1) * (10 * t2 - 1) * G**2
            + (224 * t2**3 - 68 * t2**2 + 16 * t2 - 1) * G
            + t2 * (48 * t2**3 + 88 * t2**2 - 20 * t2 + 1)
        )
    raise KeyError(which)


# ---------------------------------------------------------------------------
# Auxiliary algebraic series from the generalized quadratic method
# ---------------------------------------------------------------------------


def sqrt_poly(coeffs, order):
    """Square root of a scalar polynomial in t with constant term 1."""
    return _scal(coeffs, order).sqrt()


@lru_cache(maxsize=None)
def sq_X0(order: int) -> Series1:
    """(1 - sqrt(1 - 16 t^2)) / (4t), the Catalan-flavoured root."""
    r = sqrt_poly([1, 0, -16], order + 1)
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


def _sq_quad_residual(order: int):
    """Cleared form (times X^4) of the derivative equation whose power
    series roots are the two conjugate Gaussian series."""
    sq = decompose.square_origin(order)
    S = sq.S
    S1 = sq.S1
    P0 = sq.P0
    t = Series1.t(order)
    t2 = t * t

    def residual(X):
        X2 = X * X
        SX = S.compose(X)
        W = X - t * (X2 + 1)
        lhs = (W * W - 4 * t2 * X2) * (
            3 * X2 * SX * SX + 2 * X * (2 * X2 + 1) * SX + X2 * (X2 + 1)
        )
        X3 = X2 * X
        X4 = X2 * X2
        X5 = X4 * X
        X6 = X4 * X2
        rhs = (
            (2 * t2 * S1 * S1 + 2 * t2 * S1 - P0) * X4
            + 2 * t2 * S1 * X6
            + 2 * t2 * S1 * X2
            - 2 * t * S1 * (X5 + X3)
            + t2 * X6
            + t2 * X2
        )
        return lhs - rhs

    return residual, S, S1


@lru_cache(maxsize=None)
def sq_X1(order: int) -> Series1:
    """Gaussian-rational root with constant term i of the cleared
    derivative equation for the square-lattice origin pipeline."""
    residual, _, _ = _sq_quad_residual(order)
    return solve_algebraic(residual, order, I)


def conjugate_series(s: Series1) -> Series1:
    def conj(c):
        return c.conjugate() if isinstance(c, GaussianRational) else c

    return s.map_poly(lambda p: p.map_coeffs(conj))


def sq_fact3_residual(X: Series1) -> Series1:
    """Cleared (times X^3) cubic factor that the Gaussian roots satisfy."""
    order = X.order
    sq = decompose.square_origin(order)
    S = sq.S
    S1 = sq.S1
    t = Series1.t(order)
    X2 = X * X
    SX = S.compose(X)
    return (
        X2 * (X2 + 1)
        + t * X * (X2 - 1) ** 2 * S1
        + SX * (X * SX + X2 + 1) * (X * (X2 + 1) - t * (X2 - 1) ** 2)
    )


@lru_cache(maxsize=None)
def diag_X0(order: int) -> Series1:
    """(1 - 2t - sqrt(1 - 4t)) / (2t)."""
    r = sqrt_poly([1, -4], order + 1)
    num = 1 - 2 * Series1.t(order + 1) - r
    return num.mul_t(-1) * Fraction(1, 2)


@lru_cache(maxsize=None)
def diag_X1(order: int) -> Series1:
    """-(1 + 2t - sqrt(1 + 4t)) / (2t)."""
    r = sqrt_poly([1, 4], order + 1)
    num = 1 + 2 * Series1.t(order + 1) - r
    return -(num.mul_t(-1)) * Fraction(1, 2)


def diag_quad_residual(X: Series1) -> Series1:
    """Cleared (times x(x+1)) derivative equation for the diagonal origin
    pipeline, evaluated at a candidate root."""
    order = X.order
    dg = decompose.diagonal_origin(order)
    S = dg.S
    F0 = dg.F0
    t2 = _scal([0, 0, 1], order)
    SX = S.compose(X)
    lead = X - 4 * t2 * (1 + X) ** 2
    return lead * (3 * (X + 1) * SX * SX + 2 * (2 * X + 1) * SX + X) - (
        X + 1
    ) * (t2 * (X * X + 1) - F0 * X)


def _diag_shift_cubic(order: int):
    """The cleared cubic P(s, x) relating the antisymmetric boundary series
    s = S(x) of the shifted diagonal model to x, and the series S."""
    ds = decompose.diagonal_shifted(order)
    S1 = ds.Npair.S1
    F0 = ds.N_F0
    t2 = _scal([0, 0, 1], order)

    def cubic(s, x):
        lead = x - 4 * t2 * (1 + x) ** 2
        return (
            (x + 1) * lead * s**3
            - 3 * lead * s * s
            + (2 - x) * lead * s
            - (x + 1) * ((16 * t2 * S1 - F0) * x + t2 * (x * x + 1)) * s
            + x * (x + 1) * (7 * t2 * S1 - F0) + t2 * x * x * (x + 1)
            + x * (F0 + 2 * t2 * S1)
        )

    return cubic, ds.Npair.S


def _d_dx(p: LPoly) -> LPoly:
    return LPoly({e - 1: e * c for e, c in p.terms.items()})


def _diag_shift_res5(order: int):
    """Residual dP/ds(S(X), X), whose power series roots X are solved for."""
    cubic, S = _diag_shift_cubic(order)

    def residual(X):
        # P(s, X) as a polynomial in s, written in the formal variable x
        in_s = cubic(Series1.x(X.order), X)
        return in_s.map_poly(_d_dx).compose(S.compose(X))

    return residual


@lru_cache(maxsize=None)
def diag_shift_X(order: int, which: int) -> Series1:
    """The two power series roots of the derivative equation for the
    antisymmetric pipeline of the shifted diagonal model."""
    c0 = 2 if which == 0 else 0
    return solve_algebraic(_diag_shift_res5(order), order, c0)


def diag_shift_pol_residual(order: int) -> Series1:
    """Full cleared cubic relation for the antisymmetric boundary series
    of the shifted diagonal model, as a series identity in x."""
    cubic, S = _diag_shift_cubic(order)
    return cubic(S, Series1.x(order))


def diag_shift_double_root_residuals(X: Series1):
    """P(S(X), X) and dP/dx(S(X), X) with s held fixed: both vanish at the
    roots X of dP/ds (generalized quadratic method)."""
    cubic, S = _diag_shift_cubic(X.order)
    in_x = cubic(S.compose(X), Series1.x(X.order))
    return in_x.compose(X), in_x.map_poly(_d_dx).compose(X)


# ---------------------------------------------------------------------------
# Check registry
# ---------------------------------------------------------------------------


def _report(key, anchor, series, order):
    fail = series.first_failure()
    return {
        "id": key,
        "anchor": anchor,
        "order_checked": order,
        "verdict": "pass" if fail is None else "fail",
        "first_failure": None if fail is None else list(fail),
    }


def _report_first_failure(key, anchor, residuals):
    """Report on the first residual that fails, else on the first one."""
    failed = [r for r in residuals if r.first_failure() is not None]
    r = (failed or residuals)[0]
    return _report(key, anchor, r, r.order)


def check_base(key: str, order: int) -> dict:
    if key == "base-T":
        T = series_T(order)
        cube = (T + 3) ** 3
        t2 = _scal([0, 0, 1], order)
        res = T * cube - cube - 256 * t2 * T**3
        return _report(key, "defining quartic of the base series", res, order)
    if key == "base-Z-hyper":
        res = series_Z(order) - hypergeometric_Z(order)
        return _report(
            key, "square-root base series as a hypergeometric sum", res, order
        )
    if key in ("base-Y-square", "base-Y-diagonal"):
        lattice = key[len("base-Y-") :]
        res = kernel_residual(lattice, kernel_root_Y(lattice, order))
        return _report(key, f"{lattice}-lattice kernel root", res, order)
    raise KeyError(key)


def check_param(key: str, order: int) -> dict:
    entry = _param_data()["bivariate"][key]
    lhs = param_series(key, order)
    rhs = param_oracle(key, order)
    n = min(lhs.order, rhs.order)
    res = lhs.truncate(n) - rhs.truncate(n)
    return _report(key, entry["anchor"], res, n)


def check_z_rational(key: str, order: int) -> dict:
    entry = _param_data()["z_rationals"][key]
    lhs = z_rational(key, order)
    rhs = z_rational_oracle(key, order)
    n = min(lhs.order, rhs.order)
    res = lhs.truncate(n) - rhs.truncate(n)
    return _report(key, entry["anchor"], res, n)


def check_quartic(key: str, order: int) -> dict:
    which = key[len("quartic-") :]
    G = z_rational_oracle(which, order)
    res = quartic_residual(which, G)
    return _report(key, f"degree-4 equation for {which}", res, order)


def check_xseries(key: str, order: int) -> dict:
    t = Series1.t(order)
    if key == "x-sq-0":
        X0 = sq_X0(order)
        res = 2 * t * (X0 * X0 + 1) - X0
        return _report_first_failure(
            key, "square origin: Catalan-type root",
            [res, X0 - sq_X0_catalan(order)],
        )
    if key == "x-sq-12":
        X1 = sq_X1(order)
        X2 = conjugate_series(X1)
        residual, _, _ = _sq_quad_residual(order)
        return _report_first_failure(
            key, "square origin: conjugate Gaussian roots",
            [residual(X2), sq_fact3_residual(X1) + sq_fact3_residual(X2)],
        )
    if key == "x-diag-01":
        X0 = diag_X0(order)
        X1 = diag_X1(order)
        res0 = t * (X0 * X0 + 1) - (1 - 2 * t) * X0
        res1 = t * (X1 * X1 + 1) + (1 + 2 * t) * X1
        resq = diag_quad_residual(X0) + diag_quad_residual(X1)
        return _report_first_failure(
            key, "diagonal origin: the two explicit roots", [res0, res1, resq]
        )
    if key == "x-diag-shift-01":
        roots = (diag_shift_X(order, 0), diag_shift_X(order, 1))
        residuals = [r for X in roots for r in diag_shift_double_root_residuals(X)]
        return _report_first_failure(
            key, "shifted diagonal: implicit roots", residuals
        )
    raise KeyError(key)


BASE_KEYS = ("base-T", "base-Z-hyper", "base-Y-square", "base-Y-diagonal")
QUARTIC_KEYS = ("quartic-sq-S1", "quartic-sq-P0", "quartic-diag-S1",
                "quartic-diag-F0")
XSERIES_KEYS = ("x-sq-0", "x-sq-12", "x-diag-01", "x-diag-shift-01")


def param_keys():
    return sorted(_param_data()["bivariate"])


def z_rational_keys():
    return sorted(_param_data()["z_rationals"])


def run_check(key: str, order: int) -> dict:
    if key in BASE_KEYS:
        return check_base(key, order)
    if key in QUARTIC_KEYS:
        return check_quartic(key, order)
    if key in XSERIES_KEYS:
        return check_xseries(key, order)
    if key in _param_data()["bivariate"]:
        return check_param(key, order)
    if key in _param_data()["z_rationals"]:
        return check_z_rational(key, order)
    raise KeyError(key)


def all_check_keys():
    return (
        list(BASE_KEYS)
        + param_keys()
        + z_rational_keys()
        + list(QUARTIC_KEYS)
        + list(XSERIES_KEYS)
    )


def run_all(order: int, keys=None) -> list:
    return [run_check(k, order) for k in (keys or all_check_keys())]
