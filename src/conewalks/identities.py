"""Functional-equation and bijection checks.

Every identity is verified against series produced by the dynamic
programming oracle, order by order in t.  The two equation shapes of the
paper are stated once each: ``_step_eq`` (the step-by-step equation of a
cone or quadrant series) and ``_half_eq`` (the quadrant-like equation).
An equation that the paper writes for several models is one function of a
``decompose.PIPELINES`` name, reading the start and the orbit sign from
its row; the other identity functions add only what is particular to
their model.

The kernel equations read the lattice only through its step set: the
exit parts ``decompose.exits`` of the step polynomial, with dy = -1, with
dx = -1 and with both (ybar, xbar and 0 on the square lattice; x ybar +
xbar ybar, xbar y + xbar ybar and xbar ybar on the diagonal one).

The quadrant-like rule (``quadrant_like``): W = a L + b B(y, x) has the
partner W' = b L + a B(y, x); (a, b) = (1, 0), (0, 1), (1, 1), (1, -1)
give L, B(y, x), M and N.  So L and B(y, x) are each other's partner, M is
its own and N's is -N; from the origin B(y, x) = L, so L is its own
partner there.  The residual is ``_half_eq`` less the y >= 0 part of
``_y_rest`` read on W', less t ybar W(0, 0).  The y < 0 part left out is
t ybar W'(0, 0) on the square lattice and t ybar [x^1] W'(x, 0) on the
diagonal one, where W(0, 0) = 0 by parity.  Its ten rows in
``IDENTITIES`` carry only (pipeline, a, b, const), so they are the one
table of the constants: 2x/3 for M from the origin on both lattices;
1, 0, 1, 1 for L, B, M, N from (-1, 0); 4x/3, -2x/3, 2x/3, 2x from (-2, 0).

The table keeps the paper's constants, while a pipeline's A, P, L, B, M
and N are k times the paper's, for its integer ``scale`` k (see
``decompose``).  So every equation linear in those series multiplies its
inhomogeneous term by k: ``quadrant_like`` its constant, ``eq_A`` its
constant, ``catM`` its kernel-root term and ``gessel_*`` their wedge
side.  A residual times a nonzero integer has the same zeros and the same
first failure, so every report is the paper's.  The homogeneous ones
(``orbit_zero_A``, ``split_A``, ``P_LB``) need nothing.

``IDENTITIES`` is the one table of the suite, in report order: id ->
(anchor, check), where check(order) gives a residual series, which passes
when it is zero, or a list of mismatches, which passes when it is empty
(the negative check's mismatches are its residuals that vanish).
``engine.run_check`` turns each row into its report, as it does for the
engine checks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from .decompose import PIPELINES, at_point, exits, pipeline, tmul
from .engine import (
    diag_cubic,
    diag_shift_cubic,
    diag_X0,
    diag_X1,
    kernel_root_Y,
    sq_cubic,
    sq_F_forms,
    sq_relation_rhs,
)
from .laurent import LPoly, LPoly2
from .series import OrderError, Series1, Series2, horner
from .walks import SQUARE, Region, WalkModel, generating_series, sweep

X = LPoly2.x(1)
XB = LPoly2.x(-1)
Y = LPoly2.y(1)
YB = LPoly2.y(-1)
ONE = LPoly2.const(1)


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


def _times(poly: LPoly2, s: Series2) -> Series2:
    """t poly s, for a Laurent polynomial poly in x and y."""
    return tmul(Series2.from_poly(poly, s.order) * s)


def _at_t_ybar(s: Series1) -> Series2:
    """t ybar s, for a series s in t alone."""
    return tmul(_x_series(s).mul_xy(0, -1))


def _step_eq(p, W, const, x_section, y_section, corner):
    """K W - (const - t (down X(x) + left Y(y) + both c)).

    The step-by-step equation of a series W of pipeline p, for the exit
    parts (down, left, both) of its step set.  X and Y are the sections of
    W on the two axes from which a step leaves the region, and c is the
    corner term (minus W(0,0) for a quadrant series, whose corner steps
    the axis terms remove twice).
    """
    down, left, both = exits(p.steps)
    exit_terms = (_times(down, _x_series(x_section))
                  + _times(left, _y_series(y_section))
                  + _times(both, _x_series(corner)))
    return p.K * W - (Series2.from_poly(const, W.order) - exit_terms)


def _half_eq(p, W, x0, on_y, const):
    """K (2W - W(0,y)) - (const - 2t down W(x,0) + t left (x^2 - 1) W(0,y)).

    The part of the quadrant-like equation of a series W of pipeline p
    that W alone determines, given its sections x0 = W(x,0) and on_y =
    W(0,y), for the exit parts down and left of ``_step_eq``.
    ``quadrant_like`` subtracts the rest of the right side, read on W's
    partner.
    """
    down, left, _ = exits(p.steps)
    W0y = _y_series(on_y)
    rhs = (Series2.from_poly(const, W.order)
           - 2 * _times(down, _x_series(x0))
           + _times(left * (X * X - ONE), W0y))
    return p.K * (2 * W - W0y) - rhs


def _y_rest(p, s: Series1) -> Series2:
    """t x ybar left s(y): the y-section term of a quadrant-like equation,
    for the x-section s = W'(x, 0) of the partner W'."""
    return _times(exits(p.steps)[1].shift(1, -1), _y_series(s))


# ---------------------------------------------------------------------------
# Equations of every pipeline, by name
# ---------------------------------------------------------------------------


def _cone_eq(p, W, const) -> Series2:
    """The step-by-step equation of a three-quadrant series W of p (C or A),
    whose sections are its negative half-axes and whose corner is W(0,0).
    It needs that no step from (i < 0, 0) or (0, j < 0) lands in the cone:
    parity makes it true on both lattices; King steps break it."""
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
    """The step-by-step equation of k A, whose constant is k times
    x^start - (s/3)(1 - xbar^2 - ybar^2) for the orbit sign s."""
    p = pipeline(name, order)
    const = (p.scale * LPoly2({p.start: 1})
             - p.mirror_weight * (ONE - XB * XB - YB * YB))
    return _cone_eq(p, p.A, const)


def orbit_eq(name, series, order):
    """K orbit(W) - s (x - xbar)(y - ybar), for W = C with the orbit sign s
    of the row, or for W = Q, whose orbit sign is 1."""
    p = pipeline(name, order)
    sign = p.sign if series == "C" else 1
    return (p.K * _orbit(getattr(p, series))
            - Series2.from_poly(sign * _cross(), order))


def orbit_zero_A(name, order):
    return _orbit(pipeline(name, order).A)


def split_A(name, order):
    """A - (P + xbar L(xbar, y) + ybar B(x, ybar))."""
    p = pipeline(name, order)
    return _split(p.A, p.P, p.L, p.B)


def P_LB(name, order) -> Series2:
    """P - (xbar (L - L(0,y)) + ybar (B - B(x,0)))."""
    p = pipeline(name, order)
    rhs = ((p.L - _y_series(p.L_0y)).mul_xy(-1, 0)
           + (p.B - _x_series(p.B_x0)).mul_xy(0, -1))
    return p.P - rhs


def quadrant_like(name, a, b, const, order):
    """The quadrant-like equation of W = a L + b B(y, x) of pipeline name:
    ``_half_eq`` with the constant const, less the y >= 0 part of
    ``_y_rest`` on W's partner and less t ybar W(0, 0) (see the module
    docstring).  The equation of B(y, x) is swapped back to the variables
    of B."""
    p = pipeline(name, order)
    if b == 0:
        W, x0, on_y = p.L, p.L_x0, p.L_0y
        partner = x0 if p.start == (0, 0) else p.B_0y
    elif a == 0:
        W, x0, on_y, partner = p.B.swap_vars(), p.B_0y, p.B_x0, p.L_x0
    else:
        W = p.M if b == 1 else p.N
        x0, on_y = W.coeff_of("y", 0), W.coeff_of("x", 0)
        partner = x0 if b == 1 else -x0
    res = (_half_eq(p, W, x0, on_y, p.scale * const)
           - _y_rest(p, partner).part("y", "nonneg")
           - _at_t_ybar(x0.coeff_x(0)))
    return res if a else res.swap_vars()


def catM(name, order):
    """-sqrt(disc) (x M(0,x) - 2 xbar M(0,xbar)) - 2 xbar Y
    + 3t (h M(x,0) + e [x^1] M(x,0)): the kernel-eliminated relation of
    M = L from the origin, for the kernel root Y, the kernel discriminant
    disc, and the ybar and xbar ybar coefficients h(x) and e of the step
    polynomial.  M is the pipeline's k M, so the term in Y is multiplied
    by k."""
    p = pipeline(name, order)
    down, _, both = exits(p.steps)
    M0x, Mx0 = p.L_0y, p.L_x0
    h = Series1.from_poly(down.coeff_of("y", -1), order)
    step = h * Mx0 + both.coeff(-1, -1) * Mx0.coeff_x(1)
    lhs = -p.sqrt_disc * (M0x.mul_x(1) - 2 * M0x.sub_inverse_x().mul_x(-1))
    xbar_Y = kernel_root_Y(p.steps, order).mul_x(-1)
    return lhs - 2 * p.scale * xbar_Y + 3 * tmul(step)


# ---------------------------------------------------------------------------
# Square lattice, start (0,0)
# ---------------------------------------------------------------------------


def quadrant_positive_part_sq(order):
    sq = pipeline("square_origin", order)
    rhs = (Series2.from_poly(_cross(), order) * sq.K.inverse()).part(
        "x", "pos"
    ).part("y", "pos")
    return sq.Q.mul_xy(1, 1) - rhs


def eqRS_sq(order):
    sq = pipeline("square_origin", order)
    S = sq.S
    xb = Series1.x(order, -1)
    t = Series1.t(order)
    lhs = sq.sqrt_Delta * (S - 2 * S.sub_inverse_x() - xb)
    return lhs + xb - t - tmul(xb * xb) - 3 * tmul(sq.R)


def _sq_F(sq):
    """F0 and F2 from ``sq_F_forms``, and F1 read off S and R."""
    S1 = sq.S1
    inner = tmul(sq.S.coeff_x(2)) + 3 * tmul(sq.R.coeff_x(1)) - 5 * S1
    F0, _, F2 = sq_F_forms(S1)
    return F0, tmul(inner) * Fraction(1, 2), F2


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
    return _sq_F(sq)[1] - sq_F_forms(sq.S1)[1]


def eqcat_S_sq(order):
    sq = pipeline("square_origin", order)
    S = sq.S
    Sb = S.sub_inverse_x()
    x = Series1.x(order)
    xb = Series1.x(order, -1)
    lhs = sq.Delta * (S * S + Sb * Sb - S * Sb + x * S + xb * Sb)
    return lhs - sq_relation_rhs(sq.S1, sq.P0)


def no_kernel_factor_sq(order):
    """The right side of the S(x)/S(xbar) relation is not divisible by
    either linear factor of the discriminant.  This is a negative check:
    the two composed series must NOT vanish.  They first become nonzero at
    t^2, so a lower order cannot tell."""
    if order < 3:
        raise OrderError("its residuals are zero below t^2")
    sq = pipeline("square_origin", order)
    cleared = sq_relation_rhs(sq.S1, sq.P0).mul_x(2)  # degree 4 in x
    roots = (diag_X0(order), -diag_X1(order))  # zeros of 1 - t(x + xbar +/- 2)
    return [cleared.compose(r) for r in roots]


# ---------------------------------------------------------------------------
# Diagonal lattice, start (0,0)
# ---------------------------------------------------------------------------


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
    return (ss.L_x0 - ss.B_0y) - ss.scale * G.coeff_of("y", 0)


def gessel_diag_series(order):
    """The diagonal slice of the wedge model from the shifted diagonal
    cone model, in the halved variable."""
    ds = pipeline("diagonal_shifted", order)
    lhs = ds.L_x0.mul_x(-1).halve_x() - ds.B_0y.mul_x(-1).halve_x()
    coeffs = [
        LPoly({j: frontier.get(-j, j) for j in range(n + 1)})
        for n, frontier in enumerate(sweep(WEDGE, order)[:order])
    ]
    return lhs - ds.scale * Series1(coeffs, order)


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

# id -> (anchor, order -> residual series or list of mismatches).
IDENTITIES = {
    "func-eq-sq-origin": (
        "step-by-step equation, square lattice from (0,0)",
        partial(func_eq_C, "square_origin")),
    "func-eq-quadrant-sq": (
        "step-by-step equation, square quadrant walks",
        partial(func_eq_Q, "square_origin")),
    "orbit-eq-sq-origin": (
        "orbit equation of the cone series, square origin",
        partial(orbit_eq, "square_origin", "C")),
    "orbit-eq-quadrant-sq": (
        "orbit equation of the quadrant series, square",
        partial(orbit_eq, "square_origin", "Q")),
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
        "positive part of the orbit equation, square origin",
        lambda n: P_LB("square_origin", n).mul_xy(1, 1)),
    "func-M-sq": (
        "quadrant-like equation for the mixed series, square origin",
        partial(quadrant_like, "square_origin", 1, 0, Fraction(2, 3) * X)),
    "catM-sq": (
        "kernel-eliminated boundary relation, square origin",
        partial(catM, "square_origin")),
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
                   lambda n: horner(*sq_cubic(n))),
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
        partial(quadrant_like, "diagonal_origin", 1, 0, Fraction(2, 3) * X)),
    "catM-diag": (
        "kernel-eliminated boundary relation, diagonal origin",
        partial(catM, "diagonal_origin")),
    "eqRS-diag": (
        "square-root form of the boundary relation, diagonal origin",
        eqRS_diag),
    "R0-Sm1-diag": ("boundary constants at x=-1, diagonal origin",
                    R0_Sm1_diag),
    "P0-S1-diag": ("constant-term relation, diagonal origin", P0_S1_diag),
    "cubic-S-diag": ("cubic equation for S(x), diagonal origin",
                     lambda n: horner(*diag_cubic(n))),
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
                     partial(quadrant_like, "square_shifted", 1, 0, ONE)),
    "eqB-sq-shift": ("equation for the below part, square shifted",
                     partial(quadrant_like, "square_shifted", 0, 1, LPoly2())),
    "func-M-sq-shift": ("decoupled sum equation, square shifted",
                        partial(quadrant_like, "square_shifted", 1, 1, ONE)),
    "func-N-sq-shift": ("decoupled difference equation, square shifted",
                        partial(quadrant_like, "square_shifted", 1, -1, ONE)),
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
        partial(orbit_eq, "diagonal_shifted", "C")),
    "split-A-diag-shift": (
        "three-quadrant split of the corrected series, diagonal shifted",
        partial(split_A, "diagonal_shifted")),
    "P-LB-diag-shift": (
        "positive part in terms of left and below parts, diagonal shifted",
        partial(P_LB, "diagonal_shifted")),
    "eqL-diag-shift": (
        "equation for the left part, diagonal shifted",
        partial(quadrant_like, "diagonal_shifted", 1, 0, Fraction(4, 3) * X)),
    "eqB-diag-shift": (
        "equation for the below part, diagonal shifted",
        partial(quadrant_like, "diagonal_shifted", 0, 1,
                Fraction(-2, 3) * X)),
    "func-M-diag-shift": (
        "decoupled sum equation, diagonal shifted",
        partial(quadrant_like, "diagonal_shifted", 1, 1, Fraction(2, 3) * X)),
    "func-N-diag-shift": (
        "decoupled difference equation, diagonal shifted",
        partial(quadrant_like, "diagonal_shifted", 1, -1, 2 * X)),
    "cubic-S-N-diag-shift": (
        "cubic relation for the difference boundary series, diagonal shifted",
        lambda n: horner(*diag_shift_cubic(n))),
    "gessel-axis-from-LB": (
        "wedge walks ending on the x-axis from the shifted square model",
        gessel_axis_series),
    "gessel-diag-from-LB": (
        "wedge walks ending on the diagonal from the shifted diagonal model",
        gessel_diag_series),
    "no-kernel-factor-sq": (
        "the boundary relation is not divisible by either kernel factor "
        "(negative check)",
        lambda n: [(f"residual {i} vanishes",)
                   for i, r in enumerate(no_kernel_factor_sq(n))
                   if r.is_zero()]),
    "reflection-square": (
        "reflection principle, square lattice", reflection_square),
    "reflection-diag": (
        "reflection principle, diagonal lattice", reflection_diag),
    "orbit-endpoint": (
        "endpoint identities from the orbit equation", orbit_endpoint),
}
