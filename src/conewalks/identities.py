"""Functional-equation and bijection checks.

Every identity is verified against series produced by the dynamic
programming oracle, order by order in t.  Each check returns a report
dict with the same shape as the engine checks.
"""

from __future__ import annotations

from fractions import Fraction

from . import decompose
from .decompose import tmul
from .laurent import LPoly, LPoly2
from .series import Series1, Series2
from .walks import (
    DIAGONAL,
    SQUARE,
    Region,
    WalkModel,
    count_walks_upto,
    endpoint_series,
    generating_series,
)

THIRD = Fraction(1, 3)

X = LPoly2.x(1)
XB = LPoly2.x(-1)
Y = LPoly2.y(1)
YB = LPoly2.y(-1)


def _x_series(s: Series1) -> Series2:
    return Series2.from_x_series(s)


def _y_series(s: Series1) -> Series2:
    return Series2.from_y_series(s)


def _neg_x_axis(C: Series2) -> Series1:
    """Sum over i < 0 of c_{i,0} x^i."""
    return C.coeff_of("y", 0).part_x("neg")


def _neg_y_axis(C: Series2) -> Series1:
    """Sum over j < 0 of c_{0,j} x^j (variable read as y on embedding)."""
    return C.coeff_of("x", 0).part_x("neg")


def _corner(C: Series2) -> Series1:
    return C.coeff_of("y", 0).coeff_x(0)


def _orbit(W: Series2) -> Series2:
    """xy W(x,y) - xbar y W(xbar,y) + xbar ybar W(xbar,ybar) - x ybar W(x,ybar)."""
    return (
        W.mul_xy(1, 1)
        - W.sub_inverse("x").mul_xy(-1, 1)
        + W.sub_inverse("x").sub_inverse("y").mul_xy(-1, -1)
        - W.sub_inverse("y").mul_xy(1, -1)
    )


def _cross() -> LPoly2:
    """(x - xbar)(y - ybar)."""
    return (X - XB) * (Y - YB)


# ---------------------------------------------------------------------------
# Square lattice, start (0,0)
# ---------------------------------------------------------------------------


def func_eq_sq_origin(order):
    sq = decompose.square_origin(order)
    C = sq.C
    rhs = 1 - tmul(_x_series(_neg_x_axis(C)).mul_xy(0, -1)) - tmul(
        _y_series(_neg_y_axis(C)).mul_xy(-1, 0)
    )
    return sq.K * C - rhs


def func_eq_quadrant_sq(order):
    sq = decompose.square_origin(order)
    Q = sq.Q
    rhs = 1 - tmul(_x_series(Q.coeff_of("y", 0)).mul_xy(0, -1)) - tmul(
        _y_series(Q.coeff_of("x", 0)).mul_xy(-1, 0)
    )
    return sq.K * Q - rhs


def orbit_eq_sq_origin(order):
    sq = decompose.square_origin(order)
    return sq.K * _orbit(sq.C) - Series2.from_poly(_cross(), order)


def orbit_eq_quadrant_sq(order):
    sq = decompose.square_origin(order)
    return sq.K * _orbit(sq.Q) - Series2.from_poly(_cross(), order)


def quadrant_positive_part_sq(order):
    sq = decompose.square_origin(order)
    rhs = (Series2.from_poly(_cross(), order) * sq.K.inverse()).part(
        "x", "pos"
    ).part("y", "pos")
    return sq.Q.mul_xy(1, 1) - rhs


def eq_A_sq(order):
    sq = decompose.square_origin(order)
    A = sq.A
    Am = sq.M_x0.sub_inverse_x().mul_x(-1)  # A restricted to the negative x-axis
    const = LPoly2.const(Fraction(2, 3)) + THIRD * (XB * XB + YB * YB)
    rhs = (
        Series2.from_poly(const, order)
        - tmul(_x_series(Am).mul_xy(0, -1))
        - tmul(_y_series(Am).mul_xy(-1, 0))
    )
    return sq.K * A - rhs


def orbit_zero_A_sq(order):
    return _orbit(decompose.square_origin(order).A)


def split_A_sq(order):
    sq = decompose.square_origin(order)
    M = sq.M
    recon = (
        sq.P
        + M.sub_inverse("x").mul_xy(-1, 0)
        + M.swap_vars().sub_inverse("y").mul_xy(0, -1)
    )
    return sq.A - recon


def PM_relation_sq(order):
    sq = decompose.square_origin(order)
    M = sq.M
    M0y = _y_series(sq.M_0y)
    M0x = _x_series(sq.M_0y)
    lhs = sq.P.mul_xy(1, 1)
    rhs = (M - M0y).mul_xy(0, 1) + (M.swap_vars() - M0x).mul_xy(1, 0)
    return lhs - rhs


def func_M_sq(order):
    sq = decompose.square_origin(order)
    M = sq.M
    M0y = _y_series(sq.M_0y)
    Mx0 = _x_series(sq.M_x0)
    My0 = _y_series(sq.M_x0)
    lhs = sq.K * (2 * M - M0y)
    rhs = (
        Series2.from_poly(Fraction(2, 3) * X, order)
        - 2 * tmul(Mx0.mul_xy(0, -1))
        + tmul((M0y.mul_xy(1, 0) - M0y.mul_xy(-1, 0)))
        + tmul(My0.mul_xy(0, -1))
    )
    return lhs - rhs


def catM_sq(order):
    from .engine import kernel_root_Y

    sq = decompose.square_origin(order)
    Yr = kernel_root_Y("square", order)
    M0x = sq.M_0y
    lhs = -sq.sqrt_Delta * (
        M0x.mul_x(1) - 2 * M0x.sub_inverse_x().mul_x(-1)
    )
    return lhs - 2 * Yr.mul_x(-1) + 3 * tmul(sq.M_x0)


def eqRS_sq(order):
    sq = decompose.square_origin(order)
    S = sq.S
    xb = Series1.x(order, -1)
    t = Series1.t(order)
    lhs = sq.sqrt_Delta * (S - 2 * S.sub_inverse_x() - xb)
    return lhs + xb - t - tmul(xb * xb) - 3 * tmul(sq.R)


def F_forms_sq(order):
    sq = decompose.square_origin(order)
    S = sq.S
    Sb = S.sub_inverse_x()
    xb = Series1.x(order, -1)
    prod = sq.Delta * S * Sb
    lhs = sq.Delta * (Sb * Sb + xb * Sb) - prod.part_x("neg")
    rhs = sq.F0 + xb * sq.F1 + xb * xb * sq.F2
    return lhs - rhs


def F1_value_sq(order):
    sq = decompose.square_origin(order)
    return sq.F1 + 2 * tmul(sq.S1)


def eqcat_S_sq(order):
    sq = decompose.square_origin(order)
    S = sq.S
    Sb = S.sub_inverse_x()
    x = Series1.x(order)
    xb = Series1.x(order, -1)
    lhs = sq.Delta * (S * S + Sb * Sb - S * Sb + x * S + xb * Sb)
    rhs = (
        2 * sq.F0
        - sq.P0
        + (x + xb) * sq.F1
        + (x * x + xb * xb) * sq.F2
    )
    return lhs - rhs


def cubic_S_sq(order):
    sq = decompose.square_origin(order)
    S = sq.S
    S1 = sq.S1
    x = Series1.x(order)
    xb = Series1.x(order, -1)
    t = Series1.t(order)
    t2 = t * t
    lhs = sq.Delta * (S**3 + (2 * x + xb) * S * S + x * (x + xb) * S)
    rhs = t2 * (x - xb) * (1 + S1) ** 2 + (
        2 * t2 * S1 * S1
        + 2 * t * (t * x * x + t * xb * xb - x - xb + t) * S1
        - sq.P0
        + t2 * (x * x + xb * xb)
    ) * (S + x)
    return lhs - rhs


def no_kernel_factor_sq(order):
    """The right side of the S(x)/S(xbar) relation is not divisible by
    either linear factor of the discriminant.  This is a negative check:
    the two composed series must NOT vanish."""
    from .engine import diag_X0, diag_X1

    sq = decompose.square_origin(order)
    x = Series1.x(order)
    xb = Series1.x(order, -1)
    rhs = (
        2 * sq.F0
        - sq.P0
        + (x + xb) * sq.F1
        + (x * x + xb * xb) * sq.F2
    )
    cleared = rhs * x * x  # polynomial in x of degree 4
    roots = (diag_X0(order), -diag_X1(order))  # zeros of 1 - t(x + xbar +/- 2)
    return [cleared.compose(r) for r in roots]


# ---------------------------------------------------------------------------
# Diagonal lattice, start (0,0)
# ---------------------------------------------------------------------------


def func_eq_diag_origin(order):
    dg = decompose.diagonal_origin(order)
    C = dg.C
    sx = Series2.from_poly(X + XB, order)
    sy = Series2.from_poly(Y + YB, order)
    rhs = (
        1
        - tmul(sx * _x_series(_neg_x_axis(C)).mul_xy(0, -1))
        - tmul(sy * _y_series(_neg_y_axis(C)).mul_xy(-1, 0))
        - tmul(Series2.from_x_series(_corner(C)).mul_xy(-1, -1))
    )
    return dg.K * C - rhs


def func_eq_quadrant_diag(order):
    dg = decompose.diagonal_origin(order)
    Q = dg.Q
    sx = Series2.from_poly(X + XB, order)
    sy = Series2.from_poly(Y + YB, order)
    rhs = (
        1
        - tmul(sx * _x_series(Q.coeff_of("y", 0)).mul_xy(0, -1))
        - tmul(sy * _y_series(Q.coeff_of("x", 0)).mul_xy(-1, 0))
        + tmul(Series2.from_x_series(_corner(Q)).mul_xy(-1, -1))
    )
    return dg.K * Q - rhs


def eq_A_diag(order):
    dg = decompose.diagonal_origin(order)
    A = dg.A
    sx = Series2.from_poly(X + XB, order)
    sy = Series2.from_poly(Y + YB, order)
    Am = _neg_x_axis(A)
    const = LPoly2.const(Fraction(2, 3)) + THIRD * (XB * XB + YB * YB)
    rhs = (
        Series2.from_poly(const, order)
        - tmul(sx * _x_series(Am).mul_xy(0, -1))
        - tmul(sy * _y_series(Am).mul_xy(-1, 0))
        - tmul(Series2.from_x_series(_corner(A)).mul_xy(-1, -1))
    )
    return dg.K * A - rhs


def func_M_diag(order):
    dg = decompose.diagonal_origin(order)
    M = dg.M
    M0y = _y_series(dg.M_0y)
    Mx0 = _x_series(dg.M_x0)
    My0 = _y_series(dg.M_x0)
    sy = Series2.from_poly(Y + YB, order)
    one_yb2 = Series2.from_poly(LPoly2.const(1) + YB * YB, order)
    lhs = dg.K * (2 * M - M0y)
    rhs = (
        Series2.from_poly(Fraction(2, 3) * X, order)
        - 2 * tmul(Series2.from_poly(X + XB, order) * Mx0.mul_xy(0, -1))
        + tmul(sy * (M0y.mul_xy(1, 0) - M0y.mul_xy(-1, 0)))
        + tmul(one_yb2 * My0)
        - tmul(Series2.from_x_series(dg.M10).mul_xy(0, -1))
    )
    return lhs - rhs


def catM_diag(order):
    from .engine import kernel_root_Y

    dg = decompose.diagonal_origin(order)
    Yr = kernel_root_Y("diagonal", order)
    sp = LPoly.var(1) + LPoly.var(-1)
    s = Series1.from_poly(sp, order)
    disc = Series1([LPoly.const(1), LPoly(), -4 * (sp * sp)], order)
    M0x = dg.M_0y
    lhs = -disc.sqrt() * (M0x.mul_x(1) - 2 * M0x.sub_inverse_x().mul_x(-1))
    return (
        lhs
        - 2 * Yr.mul_x(-1)
        + 3 * tmul(s * dg.M_x0)
        + 3 * tmul(dg.M10)
    )


def eqRS_diag(order):
    dg = decompose.diagonal_origin(order)
    S = dg.S
    x = Series1.x(order)
    xp1 = 1 + x
    lhs = dg.sqrt_Delta * (xp1 * S - 2 * xp1 * S.sub_inverse_x() - 1)
    rhs = 3 * xp1 * xp1 * dg.R + 3 * xp1 * dg.R0 - 1
    return lhs - rhs


def R0_Sm1_diag(order):
    dg = decompose.diagonal_origin(order)
    return 3 * dg.R0 + dg.S_m1


def P0_S1_diag(order):
    dg = decompose.diagonal_origin(order)
    t2 = Series1.from_scalar_coeffs([0, 0, 1], order)
    return dg.P0 + dg.S_m1 * dg.S_m1 - 2 * t2 * dg.S1


def cubic_S_diag(order):
    dg = decompose.diagonal_origin(order)
    S = dg.S
    x = Series1.x(order)
    t2 = Series1.from_scalar_coeffs([0, 0, 1], order)
    F0 = dg.F0
    S1 = dg.S1
    lead = x - 4 * t2 * (1 + x) ** 2
    lhs = lead * ((x + 1) * S**3 + (2 * x + 1) * S * S + x * S)
    rhs = (
        (t2 * (x * x + 1) - F0 * x) * (S + 1) * (x + 1)
        + t2 * S1 * x * (x + 1)
        - (2 * t2 * S1 - F0) * x
        - t2 * (x + 1)
    )
    return lhs - rhs


# ---------------------------------------------------------------------------
# Square lattice, start (-1,0)
# ---------------------------------------------------------------------------


def func_eq_sq_shift(order):
    ss = decompose.square_shifted(order)
    C = ss.C
    rhs = (
        Series2.from_poly(XB, order)
        - tmul(_x_series(_neg_x_axis(C)).mul_xy(0, -1))
        - tmul(_y_series(_neg_y_axis(C)).mul_xy(-1, 0))
    )
    return ss.K * C - rhs


def orbit_zero_sq_shift(order):
    return _orbit(decompose.square_shifted(order).C)


def split_C_sq_shift(order):
    ss = decompose.square_shifted(order)
    recon = (
        ss.P
        + ss.L.sub_inverse("x").mul_xy(-1, 0)
        + ss.B.sub_inverse("y").mul_xy(0, -1)
    )
    return ss.C - recon


def P_LB_sq_shift(order):
    ss = decompose.square_shifted(order)
    L0y = _y_series(ss.L_0y)
    Bx0 = _x_series(ss.B_x0)
    rhs = (ss.L - L0y).mul_xy(-1, 0) + (ss.B - Bx0).mul_xy(0, -1)
    return ss.P - rhs


def eqL_sq_shift(order):
    ss = decompose.square_shifted(order)
    L = ss.L
    L0y = _y_series(ss.L_0y)
    Lx0 = _x_series(ss.L_x0)
    B0y = _y_series(ss.B_0y)
    L00 = Series2.from_x_series(ss.L_0y.coeff_x(0))
    B00 = Series2.from_x_series(ss.B_0y.coeff_x(0))
    lhs = ss.K * (2 * L - L0y)
    rhs = (
        Series2.one(order)
        - 2 * tmul(Lx0.mul_xy(0, -1))
        + tmul(L0y.mul_xy(1, 0) - L0y.mul_xy(-1, 0))
        + tmul(B0y.mul_xy(0, -1))
        + tmul(L00.mul_xy(0, -1))
        - tmul(B00.mul_xy(0, -1))
    )
    return lhs - rhs


def eqB_sq_shift(order):
    ss = decompose.square_shifted(order)
    B = ss.B
    Bx0 = _x_series(ss.B_x0)
    B0y = _y_series(ss.B_0y)
    Lx0 = _x_series(ss.L_x0)
    L00 = Series2.from_x_series(ss.L_0y.coeff_x(0))
    B00 = Series2.from_x_series(ss.B_0y.coeff_x(0))
    lhs = ss.K * (2 * B - Bx0)
    rhs = (
        tmul(Bx0.mul_xy(0, 1) - Bx0.mul_xy(0, -1))
        - 2 * tmul(B0y.mul_xy(-1, 0))
        + tmul(Lx0.mul_xy(-1, 0))
        - tmul(L00.mul_xy(-1, 0))
        + tmul(B00.mul_xy(-1, 0))
    )
    return lhs - rhs


def func_M_sq_shift(order):
    ss = decompose.square_shifted(order)
    M = ss.M
    pair = ss.Mpair
    M0y = _y_series(pair.on_y)
    Mx0 = _x_series(pair.x0)
    My0 = _y_series(pair.x0)
    lhs = ss.K * (2 * M - M0y)
    rhs = (
        Series2.one(order)
        - 2 * tmul(Mx0.mul_xy(0, -1))
        + tmul(M0y.mul_xy(1, 0) - M0y.mul_xy(-1, 0))
        + tmul(My0.mul_xy(0, -1))
    )
    return lhs - rhs


def func_N_sq_shift(order):
    ss = decompose.square_shifted(order)
    N = ss.N
    pair = ss.Npair
    N0y = _y_series(pair.on_y)
    Nx0 = _x_series(pair.x0)
    Ny0 = _y_series(pair.x0)
    N00 = Series2.from_x_series(pair.on_y.coeff_x(0))
    lhs = ss.K * (2 * N - N0y)
    rhs = (
        Series2.one(order)
        - 2 * tmul(Nx0.mul_xy(0, -1))
        + tmul(N0y.mul_xy(1, 0) - N0y.mul_xy(-1, 0))
        - tmul(Ny0.mul_xy(0, -1))
        + 2 * tmul(N00.mul_xy(0, -1))
    )
    return lhs - rhs


# ---------------------------------------------------------------------------
# Diagonal lattice, start (-2,0)
# ---------------------------------------------------------------------------


def func_eq_diag_shift(order):
    ds = decompose.diagonal_shifted(order)
    C = ds.C
    sx = Series2.from_poly(X + XB, order)
    sy = Series2.from_poly(Y + YB, order)
    rhs = (
        Series2.from_poly(XB * XB, order)
        - tmul(sx * _x_series(_neg_x_axis(C)).mul_xy(0, -1))
        - tmul(sy * _y_series(_neg_y_axis(C)).mul_xy(-1, 0))
        - tmul(Series2.from_x_series(_corner(C)).mul_xy(-1, -1))
    )
    return ds.K * C - rhs


def eq_A_diag_shift(order):
    ds = decompose.diagonal_shifted(order)
    A = ds.A
    sx = Series2.from_poly(X + XB, order)
    sy = Series2.from_poly(Y + YB, order)
    const = THIRD * (LPoly2.const(1) + 2 * XB * XB - YB * YB)
    rhs = (
        Series2.from_poly(const, order)
        - tmul(sx * _x_series(_neg_x_axis(A)).mul_xy(0, -1))
        - tmul(sy * _y_series(_neg_y_axis(A)).mul_xy(-1, 0))
        - tmul(Series2.from_x_series(_corner(A)).mul_xy(-1, -1))
    )
    return ds.K * A - rhs


def orbit_zero_A_diag_shift(order):
    return _orbit(decompose.diagonal_shifted(order).A)


def orbit_C_diag_shift(order):
    """The orbit sum of the shifted diagonal walks is minus the quadrant one."""
    ds = decompose.diagonal_shifted(order)
    return ds.K * _orbit(ds.C) + Series2.from_poly(_cross(), order)


def split_A_diag_shift(order):
    ds = decompose.diagonal_shifted(order)
    recon = (
        ds.P
        + ds.L.sub_inverse("x").mul_xy(-1, 0)
        + ds.B.sub_inverse("y").mul_xy(0, -1)
    )
    return ds.A - recon


def P_LB_diag_shift(order):
    ds = decompose.diagonal_shifted(order)
    L0y = _y_series(ds.L_0y)
    Bx0 = _x_series(ds.B_x0)
    rhs = (ds.L - L0y).mul_xy(-1, 0) + (ds.B - Bx0).mul_xy(0, -1)
    return ds.P - rhs


def eqL_diag_shift(order):
    ds = decompose.diagonal_shifted(order)
    L = ds.L
    L0y = _y_series(ds.L_0y)
    Lx0 = _x_series(ds.L_x0)
    B0y = _y_series(ds.B_0y)
    B01 = Series2.from_x_series(ds.B_0y.coeff_x(1))
    sx = Series2.from_poly(X + XB, order)
    sy = Series2.from_poly(Y + YB, order)
    one_yb2 = Series2.from_poly(LPoly2.const(1) + YB * YB, order)
    lhs = ds.K * (2 * L - L0y)
    rhs = (
        Series2.from_poly(Fraction(4, 3) * X, order)
        - 2 * tmul(sx * Lx0.mul_xy(0, -1))
        + tmul(sy * (L0y.mul_xy(1, 0) - L0y.mul_xy(-1, 0)))
        + tmul(one_yb2 * B0y)
        - tmul(B01.mul_xy(0, -1))
    )
    return lhs - rhs


def eqB_diag_shift(order):
    ds = decompose.diagonal_shifted(order)
    B = ds.B
    Bx0 = _x_series(ds.B_x0)
    B0y = _y_series(ds.B_0y)
    Lx0 = _x_series(ds.L_x0)
    L10 = Series2.from_x_series(ds.L_x0.coeff_x(1))
    sx = Series2.from_poly(X + XB, order)
    sy = Series2.from_poly(Y + YB, order)
    one_xb2 = Series2.from_poly(LPoly2.const(1) + XB * XB, order)
    lhs = ds.K * (2 * B - Bx0)
    rhs = (
        Series2.from_poly(Fraction(-2, 3) * Y, order)
        + tmul(sx * (Bx0.mul_xy(0, 1) - Bx0.mul_xy(0, -1)))
        - 2 * tmul(sy * B0y.mul_xy(-1, 0))
        + tmul(one_xb2 * Lx0)
        - tmul(L10.mul_xy(-1, 0))
    )
    return lhs - rhs


def func_M_diag_shift(order):
    ds = decompose.diagonal_shifted(order)
    M = ds.M
    M0y = _y_series(ds.M.coeff_of("x", 0))
    Mx0 = _x_series(ds.M.coeff_of("y", 0))
    My0 = _y_series(ds.M.coeff_of("y", 0))
    M10 = Series2.from_x_series(ds.M.coeff_of("y", 0).coeff_x(1))
    sx = Series2.from_poly(X + XB, order)
    sy = Series2.from_poly(Y + YB, order)
    one_yb2 = Series2.from_poly(LPoly2.const(1) + YB * YB, order)
    lhs = ds.K * (2 * M - M0y)
    rhs = (
        Series2.from_poly(Fraction(2, 3) * X, order)
        - 2 * tmul(sx * Mx0.mul_xy(0, -1))
        + tmul(sy * (M0y.mul_xy(1, 0) - M0y.mul_xy(-1, 0)))
        + tmul(one_yb2 * My0)
        - tmul(M10.mul_xy(0, -1))
    )
    return lhs - rhs


def func_N_diag_shift(order):
    ds = decompose.diagonal_shifted(order)
    N = ds.N
    N0y = _y_series(ds.N.coeff_of("x", 0))
    Nx0 = _x_series(ds.N.coeff_of("y", 0))
    Ny0 = _y_series(ds.N.coeff_of("y", 0))
    N10 = Series2.from_x_series(ds.N.coeff_of("y", 0).coeff_x(1))
    sx = Series2.from_poly(X + XB, order)
    sy = Series2.from_poly(Y + YB, order)
    one_yb2 = Series2.from_poly(LPoly2.const(1) + YB * YB, order)
    lhs = ds.K * (2 * N - N0y)
    rhs = (
        Series2.from_poly(2 * X, order)
        - 2 * tmul(sx * Nx0.mul_xy(0, -1))
        + tmul(sy * (N0y.mul_xy(1, 0) - N0y.mul_xy(-1, 0)))
        - tmul(one_yb2 * Ny0)
        + tmul(N10.mul_xy(0, -1))
    )
    return lhs - rhs


def cubic_S_N_diag_shift(order):
    from .engine import diag_shift_pol_residual

    return diag_shift_pol_residual(order)


# ---------------------------------------------------------------------------
# Reflection principle and the 135-degree wedge
# ---------------------------------------------------------------------------


def _tables(steps, region, start, n):
    model = WalkModel(steps, region, start)
    return count_walks_upto(model, n)


def reflection_square(order):
    """c_{i,j}(n) - c_{j,i}(n) = g_{-i-1,j}(n) for j >= 0 and i < j, where
    c counts cone walks from (-1,0) and g counts wedge walks from (0,0)."""
    cone = _tables(SQUARE, Region.THREE_QUADRANT, (-1, 0), order)
    wedge = _tables(SQUARE, Region.WEDGE135, (0, 0), order)
    mismatches = []
    for n in range(order + 1):
        for j in range(0, n + 1):
            for i in range(-n - 2, j):
                lhs = cone[n].get(i, j) - cone[n].get(j, i)
                rhs = wedge[n].get(-i - 1, j)
                if lhs != rhs:
                    mismatches.append((n, i, j, lhs, rhs))
    return mismatches


def reflection_diag(order):
    """The diagonal-lattice version: cone walks from (-2,0), wedge walks
    with square steps; endpoint mapped by k=(i+j)/2+1, l=(j-i)/2-1."""
    cone = _tables(DIAGONAL, Region.THREE_QUADRANT, (-2, 0), order)
    wedge = _tables(SQUARE, Region.WEDGE135, (0, 0), order)
    mismatches = []
    for n in range(order + 1):
        for j in range(0, n + 1):
            for i in range(-n - 3, j):
                if (i + j) % 2:
                    continue
                lhs = cone[n].get(i, j) - cone[n].get(j, i)
                rhs = wedge[n].get((i + j) // 2 + 1, (j - i) // 2 - 1)
                if lhs != rhs:
                    mismatches.append((n, i, j, lhs, rhs))
    return mismatches


def gessel_axis_series(order):
    """G(x,0) for wedge walks equals L(x,0) - B(0,x) of the shifted
    square-lattice cone model."""
    ss = decompose.square_shifted(order)
    model = WalkModel(SQUARE, Region.WEDGE135, (0, 0))
    G = generating_series(model, order)
    return (ss.L_x0 - ss.B_0y) - G.coeff_of("y", 0)


def gessel_diag_series(order):
    """The diagonal slice of the wedge model from the shifted diagonal
    cone model, in the halved variable."""
    ds = decompose.diagonal_shifted(order)
    lhs = decompose.even_halve(ds.L_x0.mul_x(-1)) - decompose.even_halve(
        ds.B_0y.mul_x(-1)
    )
    model = WalkModel(SQUARE, Region.WEDGE135, (0, 0))
    tables = count_walks_upto(model, order - 1)
    coeffs = []
    for n in range(order):
        p = LPoly()
        for j in range(n + 1):
            v = tables[n].get(-j, j)
            if v:
                p = p + LPoly({j: Fraction(v)})
        coeffs.append(p)
    return lhs - Series1(coeffs, order)


def orbit_endpoint(order):
    """C_{i,j} = sign * Q_{i,j} + C_{-i-2,j} + C_{i,-j-2} with sign
    +1 (both origins), 0 (square shifted), -1 (diagonal shifted)."""
    cases = [
        (SQUARE, (0, 0), 1),
        (DIAGONAL, (0, 0), 1),
        (SQUARE, (-1, 0), 0),
        (DIAGONAL, (-2, 0), -1),
    ]
    points = [(0, 0), (1, 0), (1, 1), (2, 0), (0, 2), (2, 2)]
    mismatches = []
    for steps, start, sign in cases:
        cone = WalkModel(steps, Region.THREE_QUADRANT, start)
        quad = WalkModel(steps, Region.QUADRANT, (0, 0))
        for (i, j) in points:
            lhs = endpoint_series(cone, (i, j), order)
            rhs = (
                endpoint_series(cone, (-i - 2, j), order)
                + endpoint_series(cone, (i, -j - 2), order)
            )
            if sign:
                rhs = rhs + sign * endpoint_series(quad, (i, j), order)
            if (lhs - rhs).first_failure() is not None:
                mismatches.append((steps.name, start, i, j))
    return mismatches


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

IDENTITIES = {
    "func-eq-sq-origin": (
        "step-by-step equation, square lattice from (0,0)", func_eq_sq_origin),
    "func-eq-quadrant-sq": (
        "step-by-step equation, square quadrant walks", func_eq_quadrant_sq),
    "orbit-eq-sq-origin": (
        "orbit equation of the cone series, square origin", orbit_eq_sq_origin),
    "orbit-eq-quadrant-sq": (
        "orbit equation of the quadrant series, square", orbit_eq_quadrant_sq),
    "quadrant-positive-part-sq": (
        "quadrant series as a positive part of a rational function",
        quadrant_positive_part_sq),
    "eq-A-sq": (
        "equation for the zero-orbit-sum correction, square origin", eq_A_sq),
    "orbit-zero-A-sq": (
        "vanishing orbit sum of the corrected series, square origin",
        orbit_zero_A_sq),
    "split-A-sq": (
        "three-quadrant split of the corrected series, square origin",
        split_A_sq),
    "PM-relation-sq": (
        "positive part of the orbit equation, square origin", PM_relation_sq),
    "func-M-sq": (
        "quadrant-like equation for the mixed series, square origin",
        func_M_sq),
    "catM-sq": (
        "kernel-eliminated boundary relation, square origin", catM_sq),
    "eqRS-sq": (
        "square-root form of the boundary relation, square origin", eqRS_sq),
    "F-forms-sq": (
        "negative part extraction and its boundary constants, square origin",
        F_forms_sq),
    "F1-value-sq": ("first boundary constant collapses, square origin",
                    F1_value_sq),
    "eqcat-S-sq": (
        "relation between S(x) and S(xbar), square origin", eqcat_S_sq),
    "cubic-S-sq": ("cubic equation for S(x), square origin", cubic_S_sq),
    "func-eq-diag-origin": (
        "step-by-step equation, diagonal lattice from (0,0)",
        func_eq_diag_origin),
    "func-eq-quadrant-diag": (
        "step-by-step equation, diagonal quadrant walks",
        func_eq_quadrant_diag),
    "eq-A-diag": (
        "equation for the zero-orbit-sum correction, diagonal origin",
        eq_A_diag),
    "func-M-diag": (
        "quadrant-like equation for the mixed series, diagonal origin",
        func_M_diag),
    "catM-diag": (
        "kernel-eliminated boundary relation, diagonal origin", catM_diag),
    "eqRS-diag": (
        "square-root form of the boundary relation, diagonal origin",
        eqRS_diag),
    "R0-Sm1-diag": ("boundary constants at x=-1, diagonal origin",
                    R0_Sm1_diag),
    "P0-S1-diag": ("constant-term relation, diagonal origin", P0_S1_diag),
    "cubic-S-diag": ("cubic equation for S(x), diagonal origin",
                     cubic_S_diag),
    "func-eq-sq-shift": (
        "step-by-step equation, square lattice from (-1,0)",
        func_eq_sq_shift),
    "orbit-zero-sq-shift": (
        "vanishing orbit sum, square lattice from (-1,0)",
        orbit_zero_sq_shift),
    "split-C-sq-shift": (
        "three-quadrant split, square lattice from (-1,0)", split_C_sq_shift),
    "P-LB-sq-shift": (
        "positive part in terms of left and below parts, square shifted",
        P_LB_sq_shift),
    "eqL-sq-shift": ("equation for the left part, square shifted",
                     eqL_sq_shift),
    "eqB-sq-shift": ("equation for the below part, square shifted",
                     eqB_sq_shift),
    "func-M-sq-shift": ("decoupled sum equation, square shifted",
                        func_M_sq_shift),
    "func-N-sq-shift": ("decoupled difference equation, square shifted",
                        func_N_sq_shift),
    "func-eq-diag-shift": (
        "step-by-step equation, diagonal lattice from (-2,0)",
        func_eq_diag_shift),
    "eq-A-diag-shift": (
        "equation for the zero-orbit-sum correction, diagonal shifted",
        eq_A_diag_shift),
    "orbit-zero-A-diag-shift": (
        "vanishing orbit sum of the corrected series, diagonal shifted",
        orbit_zero_A_diag_shift),
    "orbit-C-diag-shift": (
        "orbit sum of the cone series is minus the quadrant one",
        orbit_C_diag_shift),
    "split-A-diag-shift": (
        "three-quadrant split of the corrected series, diagonal shifted",
        split_A_diag_shift),
    "P-LB-diag-shift": (
        "positive part in terms of left and below parts, diagonal shifted",
        P_LB_diag_shift),
    "eqL-diag-shift": ("equation for the left part, diagonal shifted",
                       eqL_diag_shift),
    "eqB-diag-shift": ("equation for the below part, diagonal shifted",
                       eqB_diag_shift),
    "func-M-diag-shift": ("decoupled sum equation, diagonal shifted",
                          func_M_diag_shift),
    "func-N-diag-shift": ("decoupled difference equation, diagonal shifted",
                          func_N_diag_shift),
    "cubic-S-N-diag-shift": (
        "cubic relation for the difference boundary series, diagonal shifted",
        cubic_S_N_diag_shift),
    "gessel-axis-from-LB": (
        "wedge walks ending on the x-axis from the shifted square model",
        gessel_axis_series),
    "gessel-diag-from-LB": (
        "wedge walks ending on the diagonal from the shifted diagonal model",
        gessel_diag_series),
}

LIST_IDENTITIES = {
    "reflection-square": (
        "reflection principle, square lattice", reflection_square),
    "reflection-diag": (
        "reflection principle, diagonal lattice", reflection_diag),
    "orbit-endpoint": (
        "endpoint identities from the orbit equation", orbit_endpoint),
}


def run_identity(key: str, order: int) -> dict:
    if key == "no-kernel-factor-sq":
        vals = no_kernel_factor_sq(order)
        ok = all(v.first_failure() is not None for v in vals)
        return {
            "id": key,
            "anchor": "the boundary relation is not divisible by either "
                      "kernel factor (negative check)",
            "order_checked": order,
            "verdict": "pass" if ok else "fail",
            "first_failure": None,
        }
    if key in LIST_IDENTITIES:
        anchor, fn = LIST_IDENTITIES[key]
        mism = fn(order)
        return {
            "id": key,
            "anchor": anchor,
            "order_checked": order,
            "verdict": "pass" if not mism else "fail",
            "first_failure": None if not mism else list(mism[0]),
        }
    anchor, fn = IDENTITIES[key]
    res = fn(order)
    fail = res.first_failure()
    return {
        "id": key,
        "anchor": anchor,
        "order_checked": res.order if hasattr(res, "order") else order,
        "verdict": "pass" if fail is None else "fail",
        "first_failure": None if fail is None else list(fail),
    }


def all_identity_keys():
    return list(IDENTITIES) + ["no-kernel-factor-sq"] + list(LIST_IDENTITIES)


def run_all(order: int, keys=None) -> list:
    return [run_identity(k, order) for k in (keys or all_identity_keys())]
