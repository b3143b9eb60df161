"""Constructive extraction of auxiliary series from the walk oracle.

Nothing here is solved for: every series (the zero-orbit-sum combination A,
its three-quadrant split into P, L and B, the decoupled sum and difference
M, N of a shifted start, and the boundary specializations R and S) is read
off the oracle's generating function by exponent-sign extraction, exactly
as the corresponding object is defined.  Identity checks built on these
series therefore test the stated relations themselves, not our algebra.

Structure: the paper's construction is one recipe used on four models.
``PIPELINES`` holds each model's row: its step set, its start and its
orbit sign s, with C = (s/3)(Q - xbar^2 Q(xbar,y) - ybar^2 Q(x,ybar)) + A
for the cone series C, the quadrant series Q and an algebraic A.  The one
``Pipeline`` class builds every series of a row from it, and
``pipeline(name, order)`` is the one memo.  Every derived series is a
``_cached`` property: built on first use, then kept.  The kernel is read
off the step set: ``kernel_series`` gives K, ``kernel_quadratic`` gives
K as a quadratic in y, whose ``discriminant`` is each pipeline's Delta, and
``exits`` gives the exit parts that the kernel equations subtract.

Integer scale: a pipeline carries k A, for k the denominator of s/3 (3
when s != 0, 1 when s = 0), so that A and every bivariate series read off
it (P, L, B, M, N and their sections) have integer coefficients and no
bivariate product touches a ``Fraction``.  Those series are k times the
paper's.  ``Pipeline.unscale`` divides by k, and only the one-variable
readers call it: R and S (so S1, S(-1), P0 and R0 too) and, in
``engine``, the oracles of the catalog entries.  An equation linear in
the k-scaled series multiplies its inhomogeneous term by k.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, wraps

from .laurent import LPoly, LPoly2
from .series import Series1, Series2
from .walks import (
    DIAGONAL,
    SQUARE,
    Region,
    WalkModel,
    generating_series,
)

def tmul(s, k: int = 1):
    """Multiply by t^k, keeping the original truncation order."""
    return s.mul_t(k).truncate(s.order)


def kernel_series(steps, order: int) -> Series2:
    """K(x, y) = 1 - t * (step polynomial), as a truncated series."""
    return Series2([LPoly2.const(1), -steps.step_poly()], order)


def kernel_quadratic(steps, order: int):
    """(a, b, c) with y K = -(a y^2 + b y + c): the kernel as a quadratic
    in y, read off the step polynomial."""
    poly = steps.step_poly()
    a, b, c = (Series1([LPoly(), poly.coeff_of("y", j)], order)
               for j in (1, 0, -1))
    return a, b - 1, c


def exits(steps):
    """(down, left, both): the parts of the step polynomial with dy = -1,
    with dx = -1, and with both: the steps that leave a cone across the
    x-axis, across the y-axis and at the corner."""
    poly = steps.step_poly()
    down = poly.part("y", "neg")
    return down, poly.part("x", "neg"), down.part("x", "neg")


def discriminant(steps, order: int) -> Series1:
    """b^2 - 4ac of the kernel quadratic."""
    a, b, c = kernel_quadratic(steps, order)
    return b * b - 4 * a * c


def at_point(W: Series2, point: tuple) -> Series1:
    """[x^i y^j] W, for point (i, j), as a series of constants."""
    return Series1.from_scalar_coeffs(
        [p.coeff(*point) for p in W.coeffs], W.order)


def quadrant_mirror_combo(Q: Series2) -> Series2:
    """Q(x,y) - xbar^2 Q(xbar,y) - ybar^2 Q(x,ybar)."""
    Qxb = Q.sub_inverse("x").mul_xy(-2, 0)
    Qyb = Q.sub_inverse("y").mul_xy(0, -2)
    return Q - Qxb - Qyb


def neg_factor(A: Series2, var: str) -> Series2:
    """The series F with [v^<] A = vbar F(vbar) in the variable v = var:
    the negative part of A in v, shifted by v and inverted in v."""
    shift = (1, 0) if var == "x" else (0, 1)
    return A.part(var, "neg").mul_xy(*shift).sub_inverse(var)


def _cached(build):
    """A property built once per instance and kept in its ``__dict__``.

    It stays a plain ``property`` (unlike ``functools.cached_property``),
    so every read goes through its getter.
    """
    name = build.__name__

    @wraps(build)
    def get(self):
        cache = self.__dict__
        if name not in cache:
            cache[name] = build(self)
        return cache[name]

    return property(get)


# name -> (steps, start, orbit sign s).  The orbit sum of the cone series
# is s times that of the quadrant series: s = 0 leaves A = C, the purely
# algebraic case of Gessel's walks.
PIPELINES = {
    "square_origin": (SQUARE, (0, 0), 1),
    "diagonal_origin": (DIAGONAL, (0, 0), 1),
    "square_shifted": (SQUARE, (-1, 0), 0),
    "diagonal_shifted": (DIAGONAL, (-2, 0), -1),
}


class Pipeline:
    """One row of ``PIPELINES`` in the three-quadrant cone: the cone series
    C, the quadrant series Q from the origin, the kernel K, and the series
    read off them.

    A splits uniquely as P + xbar L(xbar, y) + ybar B(x, ybar).  From the
    origin A is symmetric, so B is L with x and y swapped and the paper's M
    is L.  From a shifted start the sum and difference M = L + B-swapped,
    N = L - B-swapped decouple the functional equations.  The boundary
    series R, S and their constants are read from L from the origin and
    from N from a shifted start.  A, P, L, B, M and N are held k times the
    paper's, for the integer ``scale`` k (see the module docstring); R and
    S are at the paper's scale.
    """

    def __init__(self, name: str, order: int):
        self.name = name
        self.order = order
        self.steps, self.start, self.sign = PIPELINES[name]
        # k, the denominator of s/3, and the integer k s/3: the weights of C
        # and of the quadrant mirror combination in k A.
        self.scale = Fraction(self.sign, 3).denominator
        self.mirror_weight = self.scale * self.sign // 3
        self.model = WalkModel(self.steps, Region.THREE_QUADRANT, self.start)
        self.qmodel = WalkModel(self.steps, Region.QUADRANT, (0, 0))

    @_cached
    def C(self) -> Series2:
        return generating_series(self.model, self.order)

    @_cached
    def Q(self) -> Series2:
        return generating_series(self.qmodel, self.order)

    @_cached
    def K(self) -> Series2:
        return kernel_series(self.steps, self.order)

    @_cached
    def Delta(self) -> Series1:
        """The discriminant of the kernel quadratic: (1 - t(x + xbar))^2 - 4t^2
        on the square lattice, 1 - 4t^2 (1 + x)(1 + xbar) on the diagonal
        one, where it lives in the squared variable."""
        disc = discriminant(self.steps, self.order)
        return disc.halve_x() if self.steps is DIAGONAL else disc

    @_cached
    def sqrt_disc(self) -> Series1:
        """sqrt of the kernel discriminant, in x; sqrt_Delta is read off it."""
        return discriminant(self.steps, self.order).sqrt()

    @_cached
    def sqrt_Delta(self) -> Series1:
        root = self.sqrt_disc
        return root.halve_x() if self.steps is DIAGONAL else root

    def unscale(self, s: Series1) -> Series1:
        """s / k: a one-variable series read off k A, at the paper's scale."""
        return s if self.scale == 1 else s * Fraction(1, self.scale)

    @_cached
    def A(self) -> Series2:
        """k C - (k s/3)(Q - xbar^2 Q(xbar,y) - ybar^2 Q(x,ybar)): k times
        the paper's A, whose orbit sum is zero, with integer coefficients.
        When s = 0, k = 1 and A is C itself."""
        if not self.sign:
            return self.C
        return (self.scale * self.C
                - self.mirror_weight * quadrant_mirror_combo(self.Q))

    @_cached
    def P(self) -> Series2:
        return self.A.part("x", "nonneg").part("y", "nonneg")

    @_cached
    def L(self) -> Series2:
        return neg_factor(self.A, "x")

    @_cached
    def B(self) -> Series2:
        return neg_factor(self.A, "y")

    @_cached
    def M(self) -> Series2:
        return self.L + self.B.swap_vars()

    @_cached
    def N(self) -> Series2:
        return self.L - self.B.swap_vars()

    @_cached
    def L_x0(self) -> Series1:
        return self.L.coeff_of("y", 0)

    @_cached
    def L_0y(self) -> Series1:
        """L(0, y) as a series in its single variable."""
        return self.L.coeff_of("x", 0)

    @_cached
    def B_x0(self) -> Series1:
        return self.B.coeff_of("y", 0)

    @_cached
    def B_0y(self) -> Series1:
        return self.B.coeff_of("x", 0)

    @_cached
    def boundary(self) -> Series2:
        """The quadrant-like series W whose specializations are R and S."""
        return self.L if self.start == (0, 0) else self.N

    @_cached
    def R(self) -> Series1:
        """R(x) = t W(x, 0); on the diagonal lattice x W(x, 0) is even and
        R(x) = t^2 W(sqrt x, 0) / sqrt x lives in the squared variable.
        W is read at the paper's scale."""
        x0 = self.unscale(self.boundary.coeff_of("y", 0))
        if self.steps is DIAGONAL:
            return tmul(x0.mul_x(-1).halve_x(), 2)
        return tmul(x0)

    @_cached
    def S(self) -> Series1:
        """S(x) = t x W(0, x); on the diagonal lattice it lives in the
        squared variable: S(x) = t sqrt(x) W(0, sqrt x).  W is read at the
        paper's scale."""
        xW = self.unscale(self.boundary.coeff_of("x", 0)).mul_x(1)
        return tmul(xW.halve_x() if self.steps is DIAGONAL else xW)

    @_cached
    def S1(self) -> Series1:
        return self.S.coeff_x(1)

    @_cached
    def S_m1(self) -> Series1:
        """S(-1)."""
        return self.S.compose(Series1.const(-1, self.order))

    @_cached
    def P0(self) -> Series1:
        """[x^0] of Delta(x) S(x) S(xbar)."""
        return (self.Delta * self.S * self.S.sub_inverse_x()).coeff_x(0)

    @_cached
    def R0(self) -> Series1:
        return self.R.coeff_x(0)


@lru_cache(maxsize=None)
def pipeline(name: str, order: int) -> Pipeline:
    return Pipeline(name, order)
