"""Functional-equation and bijection checks.

Every identity is verified against series produced by the dynamic
programming oracle, order by order in t.  The two equation shapes of the
paper are stated once each: ``_step_eq`` (the step-by-step equation of a
cone or quadrant series) and ``_half_eq`` (the quadrant-like equation of
M, N and L).  An equation that the paper writes for several models is one
function of a ``decompose.PIPELINES`` name, reading the start and the
orbit sign from its row; the other identity functions add only what is
particular to their model.  Identities sit in three tables: series
identities (pass when the residual is zero), negative identities (pass
when every residual is nonzero) and list identities (pass when no count
mismatches).  Every report is built by ``engine.report``, as for the
engine checks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from .decompose import PIPELINES, at_point, discriminant, pipeline, tmul
from .engine import (
    cubic_residual,
    diag_cubic,
    diag_shift_cubic,
    diag_X0,
    diag_X1,
    kernel_root_Y,
    report,
    sq_cubic,
)
from .laurent import LPoly, LPoly2
from .series import OrderError, Series1, Series2
from .walks import (
    DIAGONAL,
    SQUARE,
    Region,
    WalkModel,
    generating_series,
    sweep,
)

X = LPoly2.x(1)
XB = LPoly2.x(-1)
Y = LPoly2.y(1)
YB = LPoly2.y(-1)
ONE = LPoly2.const(1)
SX = X + XB
SY = Y + YB


_x_series = Series2.from_x_series
_y_series = Series2.from_y_series


def _neg_x_axis(C: Series2) -> Series1:
    """Sum over i < 0 of c_{i,0} x^i."""
    return C.coeff_of("y", 0).part_x("neg")


def _neg_y_axis(C: Series2) -> Series1:
    """Sum over j < 0 of c_{0,j} x^j (variable read as y on embedding)."""
    return C.coeff_of("x", 0).part_x("neg")


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


def _split(W, P, L, B) -> Series2:
    """W - (P + xbar L(xbar, y) + ybar B(x, ybar)): the three-quadrant split."""
    return W - (P + L.sub_inverse("x").mul_xy(-1, 0)
                + B.sub_inverse("y").mul_xy(0, -1))


def _steps(p, factor: LPoly2, s: Series2) -> Series2:
    """factor * s on the diagonal lattice, s on the square one."""
    if p.steps is DIAGONAL:
        return Series2.from_poly(factor, s.order) * s
    return s


def _at_t_ybar(s: Series1) -> Series2:
    """t ybar s, for a series s in t alone."""
    return tmul(_x_series(s).mul_xy(0, -1))


def _step_eq(p, W, const, x_section, y_section, corner):
    """K W - (const - t sx ybar X(x) - t sy xbar Y(y) - t xbar ybar c).

    The step-by-step equation of a series W of pipeline p.  X and Y are
    the sections of W on the two axes from which a step leaves the region;
    c is the corner term, read on the diagonal lattice only (minus W(0,0)
    for a quadrant series, whose corner step the axis terms remove twice).
    sx = x + xbar and sy = y + ybar on the diagonal lattice, 1 on the
    square one.
    """
    n = W.order
    rhs = (
        Series2.from_poly(const, n)
        - tmul(_steps(p, SX, _x_series(x_section).mul_xy(0, -1)))
        - tmul(_steps(p, SY, _y_series(y_section).mul_xy(-1, 0)))
    )
    if p.steps is DIAGONAL:
        rhs = rhs - tmul(Series2.from_x_series(corner).mul_xy(-1, -1))
    return p.K * W - rhs


def _half_eq(p, W, x0, on_y, const):
    """K (2W - W(0,y)) - (const - 2t sx ybar W(x,0) + t sy (x - xbar) W(0,y)).

    The quadrant-like equation of a series W of pipeline p, given its
    sections x0 = W(x,0) and on_y = W(0,y), with sx, sy as in ``_step_eq``.
    Each caller subtracts the rest of its right side (the terms in ybar
    that differ between M, N and L).
    """
    W0y = _y_series(on_y)
    rhs = (
        Series2.from_poly(const, W.order)
        - 2 * tmul(_steps(p, SX, _x_series(x0).mul_xy(0, -1)))
        + tmul(_steps(p, SY, W0y.mul_xy(1, 0) - W0y.mul_xy(-1, 0)))
    )
    return p.K * (2 * W - W0y) - rhs


def _y_rest(p, s: Series1) -> Series2:
    """t sy ybar s(y): the y-section term that each quadrant-like equation
    adds (s is M(y,0), -N(y,0), or B(0,y) for L)."""
    return tmul(_steps(p, SY, _y_series(s).mul_xy(0, -1)))


# ---------------------------------------------------------------------------
# Equations of every pipeline, by name
# ---------------------------------------------------------------------------


def _cone_eq(p, W, const) -> Series2:
    """The step-by-step equation of a three-quadrant series W of p (C or A),
    whose sections are its negative half-axes."""
    return _step_eq(p, W, const, _neg_x_axis(W), _neg_y_axis(W),
                    at_point(W, (0, 0)))


def func_eq_C(name, order):
    """The step-by-step equation of C: its constant is the start monomial."""
    p = pipeline(name, order)
    return _cone_eq(p, p.C, LPoly2({p.start: 1}))


def func_eq_Q(name, order):
    """The step-by-step equation of the quadrant series."""
    p = pipeline(name, order)
    Q = p.Q
    return _step_eq(p, Q, ONE, Q.coeff_of("y", 0), Q.coeff_of("x", 0),
                    -at_point(Q, (0, 0)))


def eq_A(name, order):
    """The step-by-step equation of A, whose constant is
    x^start - (s/3)(1 - xbar^2 - ybar^2) for the orbit sign s."""
    p = pipeline(name, order)
    const = LPoly2({p.start: 1}) - Fraction(p.sign, 3) * (ONE - XB * XB
                                                          - YB * YB)
    return _cone_eq(p, p.A, const)


def orbit_eq_C(name, order):
    """K orbit(C) - s (x - xbar)(y - ybar) for the orbit sign s."""
    p = pipeline(name, order)
    return p.K * _orbit(p.C) - Series2.from_poly(p.sign * _cross(), order)


def orbit_zero_A(name, order):
    return _orbit(pipeline(name, order).A)


def split_A(name, order):
    """A - (P + xbar L(xbar, y) + ybar B(x, ybar))."""
    p = pipeline(name, order)
    return _split(p.A, p.P, p.L, p.B)


def P_LB(name, order) -> Series2:
    """P - (xbar (L - L(0,y)) + ybar (B - B(x,0))) for a shifted pipeline."""
    p = pipeline(name, order)
    rhs = ((p.L - _y_series(p.L_0y)).mul_xy(-1, 0)
           + (p.B - _x_series(p.B_x0)).mul_xy(0, -1))
    return p.P - rhs


# ---------------------------------------------------------------------------
# Square lattice, start (0,0)
# ---------------------------------------------------------------------------


def orbit_eq_quadrant_sq(order):
    sq = pipeline("square_origin", order)
    return sq.K * _orbit(sq.Q) - Series2.from_poly(_cross(), order)


def quadrant_positive_part_sq(order):
    sq = pipeline("square_origin", order)
    rhs = (Series2.from_poly(_cross(), order) * sq.K.inverse()).part(
        "x", "pos"
    ).part("y", "pos")
    return sq.Q.mul_xy(1, 1) - rhs


def PM_relation_sq(order):
    sq = pipeline("square_origin", order)
    M = sq.L
    M0y = _y_series(sq.L_0y)
    M0x = _x_series(sq.L_0y)
    lhs = sq.P.mul_xy(1, 1)
    rhs = (M - M0y).mul_xy(0, 1) + (M.swap_vars() - M0x).mul_xy(1, 0)
    return lhs - rhs


def func_M_sq(order):
    sq = pipeline("square_origin", order)
    eq = _half_eq(sq, sq.L, sq.L_x0, sq.L_0y, Fraction(2, 3) * X)
    return eq - _y_rest(sq, sq.L_x0)


def catM_sq(order):
    sq = pipeline("square_origin", order)
    Yr = kernel_root_Y(sq.steps, order)
    M0x = sq.L_0y
    lhs = -sq.sqrt_Delta * (
        M0x.mul_x(1) - 2 * M0x.sub_inverse_x().mul_x(-1)
    )
    return lhs - 2 * Yr.mul_x(-1) + 3 * tmul(sq.L_x0)


def eqRS_sq(order):
    sq = pipeline("square_origin", order)
    S = sq.S
    xb = Series1.x(order, -1)
    t = Series1.t(order)
    lhs = sq.sqrt_Delta * (S - 2 * S.sub_inverse_x() - xb)
    return lhs + xb - t - tmul(xb * xb) - 3 * tmul(sq.R)


def _sq_F(sq):
    """The boundary constants F0, F1, F2 of the square origin pipeline."""
    S1 = sq.S1
    inner = tmul(sq.S.coeff_x(2)) + 3 * tmul(sq.R.coeff_x(1)) - 5 * S1
    return (tmul(S1 * (1 + S1), 2), tmul(inner) * Fraction(1, 2),
            tmul(1 + 2 * S1, 2))


def F_forms_sq(order):
    sq = pipeline("square_origin", order)
    S = sq.S
    Sb = S.sub_inverse_x()
    xb = Series1.x(order, -1)
    prod = sq.Delta * S * Sb
    lhs = sq.Delta * (Sb * Sb + xb * Sb) - prod.part_x("neg")
    F0, F1, F2 = _sq_F(sq)
    return lhs - (F0 + xb * F1 + xb * xb * F2)


def F1_value_sq(order):
    sq = pipeline("square_origin", order)
    return _sq_F(sq)[1] + 2 * tmul(sq.S1)


def _eqcat_rhs(sq) -> Series1:
    """2 F0 - P0 + (x + xbar) F1 + (x^2 + xbar^2) F2: the right side of the
    relation between S(x) and S(xbar)."""
    x = Series1.x(sq.order)
    xb = Series1.x(sq.order, -1)
    F0, F1, F2 = _sq_F(sq)
    return 2 * F0 - sq.P0 + (x + xb) * F1 + (x * x + xb * xb) * F2


def eqcat_S_sq(order):
    sq = pipeline("square_origin", order)
    S = sq.S
    Sb = S.sub_inverse_x()
    x = Series1.x(order)
    xb = Series1.x(order, -1)
    lhs = sq.Delta * (S * S + Sb * Sb - S * Sb + x * S + xb * Sb)
    return lhs - _eqcat_rhs(sq)


def no_kernel_factor_sq(order):
    """The right side of the S(x)/S(xbar) relation is not divisible by
    either linear factor of the discriminant.  This is a negative check:
    the two composed series must NOT vanish.  They first become nonzero at
    t^2, so a lower order cannot tell."""
    if order < 3:
        raise OrderError("its residuals are zero below t^2")
    sq = pipeline("square_origin", order)
    cleared = _eqcat_rhs(sq).mul_x(2)  # polynomial in x of degree 4
    roots = (diag_X0(order), -diag_X1(order))  # zeros of 1 - t(x + xbar +/- 2)
    return [cleared.compose(r) for r in roots]


# ---------------------------------------------------------------------------
# Diagonal lattice, start (0,0)
# ---------------------------------------------------------------------------


def func_M_diag(order):
    dg = pipeline("diagonal_origin", order)
    eq = _half_eq(dg, dg.L, dg.L_x0, dg.L_0y, Fraction(2, 3) * X)
    return eq - _y_rest(dg, dg.L_x0) + _at_t_ybar(dg.M10)


def catM_diag(order):
    dg = pipeline("diagonal_origin", order)
    Yr = kernel_root_Y(dg.steps, order)
    s = Series1.from_poly(LPoly.var(1) + LPoly.var(-1), order)
    M0x = dg.L_0y
    lhs = -discriminant(dg.steps, order).sqrt() * (
        M0x.mul_x(1) - 2 * M0x.sub_inverse_x().mul_x(-1))
    return (
        lhs
        - 2 * Yr.mul_x(-1)
        + 3 * tmul(s * dg.L_x0)
        + 3 * tmul(dg.M10)
    )


def eqRS_diag(order):
    dg = pipeline("diagonal_origin", order)
    S = dg.S
    x = Series1.x(order)
    xp1 = 1 + x
    lhs = dg.sqrt_Delta * (xp1 * S - 2 * xp1 * S.sub_inverse_x() - 1)
    rhs = 3 * xp1 * xp1 * dg.R + 3 * xp1 * dg.R0 - 1
    return lhs - rhs


def R0_Sm1_diag(order):
    dg = pipeline("diagonal_origin", order)
    return 3 * dg.R0 + dg.S_m1


def P0_S1_diag(order):
    dg = pipeline("diagonal_origin", order)
    t2 = Series1.from_scalar_coeffs([0, 0, 1], order)
    return dg.P0 + dg.S_m1 * dg.S_m1 - 2 * t2 * dg.S1


# ---------------------------------------------------------------------------
# Square lattice, start (-1,0)
# ---------------------------------------------------------------------------


def eqL_sq_shift(order):
    ss = pipeline("square_shifted", order)
    L00 = ss.L_0y.coeff_x(0)
    B00 = ss.B_0y.coeff_x(0)
    eq = _half_eq(ss, ss.L, ss.L_x0, ss.L_0y, ONE)
    return eq - _y_rest(ss, ss.B_0y) - _at_t_ybar(L00 - B00)


def eqB_sq_shift(order):
    """The equation for L with x and y swapped."""
    ss = pipeline("square_shifted", order)
    L00 = ss.L_0y.coeff_x(0)
    B00 = ss.B_0y.coeff_x(0)
    eq = _half_eq(ss, ss.B.swap_vars(), ss.B_0y, ss.B_x0, LPoly2())
    return (eq - _y_rest(ss, ss.L_x0) + _at_t_ybar(L00 - B00)).swap_vars()


def func_M_sq_shift(order):
    ss = pipeline("square_shifted", order)
    Mx0 = ss.M.coeff_of("y", 0)
    eq = _half_eq(ss, ss.M, Mx0, ss.M.coeff_of("x", 0), ONE)
    return eq - _y_rest(ss, Mx0)


def func_N_sq_shift(order):
    ss = pipeline("square_shifted", order)
    Nx0 = ss.N.coeff_of("y", 0)
    N0y = ss.N.coeff_of("x", 0)
    eq = _half_eq(ss, ss.N, Nx0, N0y, ONE)
    return eq + _y_rest(ss, Nx0) - 2 * _at_t_ybar(N0y.coeff_x(0))


# ---------------------------------------------------------------------------
# Diagonal lattice, start (-2,0)
# ---------------------------------------------------------------------------


def eqL_diag_shift(order):
    ds = pipeline("diagonal_shifted", order)
    B01 = ds.B_0y.coeff_x(1)
    eq = _half_eq(ds, ds.L, ds.L_x0, ds.L_0y, Fraction(4, 3) * X)
    return eq - _y_rest(ds, ds.B_0y) + _at_t_ybar(B01)


def eqB_diag_shift(order):
    """The equation for L with x and y swapped."""
    ds = pipeline("diagonal_shifted", order)
    L10 = ds.L_x0.coeff_x(1)
    eq = _half_eq(ds, ds.B.swap_vars(), ds.B_0y, ds.B_x0, Fraction(-2, 3) * X)
    return (eq - _y_rest(ds, ds.L_x0) + _at_t_ybar(L10)).swap_vars()


def func_M_diag_shift(order):
    ds = pipeline("diagonal_shifted", order)
    Mx0 = ds.M.coeff_of("y", 0)
    eq = _half_eq(ds, ds.M, Mx0, ds.M.coeff_of("x", 0), Fraction(2, 3) * X)
    return eq - _y_rest(ds, Mx0) + _at_t_ybar(Mx0.coeff_x(1))


def func_N_diag_shift(order):
    ds = pipeline("diagonal_shifted", order)
    Nx0 = ds.N.coeff_of("y", 0)
    eq = _half_eq(ds, ds.N, Nx0, ds.N.coeff_of("x", 0), 2 * X)
    return eq + _y_rest(ds, Nx0) - _at_t_ybar(Nx0.coeff_x(1))


# ---------------------------------------------------------------------------
# Reflection principle and the 135-degree wedge
# ---------------------------------------------------------------------------


# Square-lattice walks from (0, 0) in the 135-degree wedge.
WEDGE = WalkModel(SQUARE, Region.WEDGE135, (0, 0))


def _reflection(cone_model, wedge_end, order):
    """Mismatches of c_{i,j}(n) - c_{j,i}(n) = g_{wedge_end(i,j)}(n) for
    j >= 0 and i < j, where c counts walks of the cone model and g wedge
    walks from (0,0); points whose wedge_end is None are skipped."""
    cone = sweep(cone_model, order)
    wedge = sweep(WEDGE, order)
    mismatches = []
    for n in range(order + 1):
        for j in range(0, n + 1):
            for i in range(-n - 3, j):
                end = wedge_end(i, j)
                if end is None:
                    continue
                lhs = cone[n].get(i, j) - cone[n].get(j, i)
                rhs = wedge[n].get(*end)
                if lhs != rhs:
                    mismatches.append((n, i, j, lhs, rhs))
    return mismatches


def reflection_square(order):
    """Cone walks from (-1,0); endpoint mapped to (-i-1, j)."""
    return _reflection(pipeline("square_shifted", order).model,
                       lambda i, j: (-i - 1, j), order)


def reflection_diag(order):
    """The diagonal-lattice version: cone walks from (-2,0), wedge walks
    with square steps; endpoint mapped by k=(i+j)/2+1, l=(j-i)/2-1."""
    return _reflection(
        pipeline("diagonal_shifted", order).model,
        lambda i, j: None if (i + j) % 2 else ((i + j) // 2 + 1,
                                               (j - i) // 2 - 1),
        order)


def gessel_axis_series(order):
    """G(x,0) for wedge walks equals L(x,0) - B(0,x) of the shifted
    square-lattice cone model."""
    ss = pipeline("square_shifted", order)
    G = generating_series(WEDGE, order)
    return (ss.L_x0 - ss.B_0y) - G.coeff_of("y", 0)


def gessel_diag_series(order):
    """The diagonal slice of the wedge model from the shifted diagonal
    cone model, in the halved variable."""
    ds = pipeline("diagonal_shifted", order)
    lhs = ds.L_x0.mul_x(-1).halve_x() - ds.B_0y.mul_x(-1).halve_x()
    coeffs = [
        LPoly({j: frontier.get(-j, j) for j in range(n + 1)})
        for n, frontier in enumerate(sweep(WEDGE, order)[:order])
    ]
    return lhs - Series1(coeffs, order)


def orbit_endpoint(order):
    """C_{i,j} = s Q_{i,j} + C_{-i-2,j} + C_{i,-j-2} for each pipeline,
    with its orbit sign s."""
    points = [(0, 0), (1, 0), (1, 1), (2, 0), (0, 2), (2, 2)]
    mismatches = []
    for name in PIPELINES:
        p = pipeline(name, order)
        for (i, j) in points:
            lhs = at_point(p.C, (i, j))
            rhs = at_point(p.C, (-i - 2, j)) + at_point(p.C, (i, -j - 2))
            if p.sign:
                rhs = rhs + p.sign * at_point(p.Q, (i, j))
            if (lhs - rhs).first_failure() is not None:
                mismatches.append((p.steps.name, p.start, i, j))
    return mismatches

# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

IDENTITIES = {
    "func-eq-sq-origin": (
        "step-by-step equation, square lattice from (0,0)",
        partial(func_eq_C, "square_origin")),
    "func-eq-quadrant-sq": (
        "step-by-step equation, square quadrant walks",
        partial(func_eq_Q, "square_origin")),
    "orbit-eq-sq-origin": (
        "orbit equation of the cone series, square origin",
        partial(orbit_eq_C, "square_origin")),
    "orbit-eq-quadrant-sq": (
        "orbit equation of the quadrant series, square", orbit_eq_quadrant_sq),
    "quadrant-positive-part-sq": (
        "quadrant series as a positive part of a rational function",
        quadrant_positive_part_sq),
    "eq-A-sq": (
        "equation for the zero-orbit-sum correction, square origin",
        partial(eq_A, "square_origin")),
    "orbit-zero-A-sq": (
        "vanishing orbit sum of the corrected series, square origin",
        partial(orbit_zero_A, "square_origin")),
    "split-A-sq": (
        "three-quadrant split of the corrected series, square origin",
        partial(split_A, "square_origin")),
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
    "cubic-S-sq": ("cubic equation for S(x), square origin",
                   lambda n: cubic_residual(*sq_cubic(n))),
    "func-eq-diag-origin": (
        "step-by-step equation, diagonal lattice from (0,0)",
        partial(func_eq_C, "diagonal_origin")),
    "func-eq-quadrant-diag": (
        "step-by-step equation, diagonal quadrant walks",
        partial(func_eq_Q, "diagonal_origin")),
    "eq-A-diag": (
        "equation for the zero-orbit-sum correction, diagonal origin",
        partial(eq_A, "diagonal_origin")),
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
                     lambda n: cubic_residual(*diag_cubic(n))),
    "func-eq-sq-shift": (
        "step-by-step equation, square lattice from (-1,0)",
        partial(func_eq_C, "square_shifted")),
    "orbit-zero-sq-shift": (
        "vanishing orbit sum, square lattice from (-1,0)",
        partial(orbit_zero_A, "square_shifted")),
    "split-C-sq-shift": (
        "three-quadrant split, square lattice from (-1,0)",
        partial(split_A, "square_shifted")),
    "P-LB-sq-shift": (
        "positive part in terms of left and below parts, square shifted",
        partial(P_LB, "square_shifted")),
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
        partial(func_eq_C, "diagonal_shifted")),
    "eq-A-diag-shift": (
        "equation for the zero-orbit-sum correction, diagonal shifted",
        partial(eq_A, "diagonal_shifted")),
    "orbit-zero-A-diag-shift": (
        "vanishing orbit sum of the corrected series, diagonal shifted",
        partial(orbit_zero_A, "diagonal_shifted")),
    "orbit-C-diag-shift": (
        "orbit sum of the cone series is minus the quadrant one",
        partial(orbit_eq_C, "diagonal_shifted")),
    "split-A-diag-shift": (
        "three-quadrant split of the corrected series, diagonal shifted",
        partial(split_A, "diagonal_shifted")),
    "P-LB-diag-shift": (
        "positive part in terms of left and below parts, diagonal shifted",
        partial(P_LB, "diagonal_shifted")),
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
        lambda n: cubic_residual(*diag_shift_cubic(n))),
    "gessel-axis-from-LB": (
        "wedge walks ending on the x-axis from the shifted square model",
        gessel_axis_series),
    "gessel-diag-from-LB": (
        "wedge walks ending on the diagonal from the shifted diagonal model",
        gessel_diag_series),
}

NEGATIVE_IDENTITIES = {
    "no-kernel-factor-sq": (
        "the boundary relation is not divisible by either kernel factor "
        "(negative check)", no_kernel_factor_sq),
}

LIST_IDENTITIES = {
    "reflection-square": (
        "reflection principle, square lattice", reflection_square),
    "reflection-diag": (
        "reflection principle, diagonal lattice", reflection_diag),
    "orbit-endpoint": (
        "endpoint identities from the orbit equation", orbit_endpoint),
}


def _zero(key, anchor, residual, order):
    return report(key, anchor, [residual])


def _nonzero(key, anchor, residuals, order):
    zero = [i for i, r in enumerate(residuals) if r.first_failure() is None]
    failure = [f"residual {zero[0]} vanishes"] if zero else None
    return report(key, anchor, order=order, failure=failure)


def _no_mismatch(key, anchor, mismatches, order):
    return report(key, anchor, order=order,
                  failure=mismatches[0] if mismatches else None)


# id -> (anchor, order -> result, report on the result), in report order.
_ROWS = {
    key: (anchor, build, verdict)
    for table, verdict in ((IDENTITIES, _zero),
                           (NEGATIVE_IDENTITIES, _nonzero),
                           (LIST_IDENTITIES, _no_mismatch))
    for key, (anchor, build) in table.items()
}


def run_identity(key: str, order: int) -> dict:
    anchor, build, verdict = _ROWS[key]
    return verdict(key, anchor, build(order), order)


def all_identity_keys():
    return list(_ROWS)
