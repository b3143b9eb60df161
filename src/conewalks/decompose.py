"""Constructive extraction of auxiliary series from the walk oracle.

Nothing here is solved for: every series (the zero-orbit-sum combination A,
its quadrant split into P and the mixed parts, the boundary specializations
R and S, and the left/below split L, B with their decoupled sum/difference
M, N for shifted starting points) is read off the oracle's generating
function by exponent-sign extraction, exactly as the corresponding object
is defined.  Identity checks built on these series therefore test the
stated relations themselves, not our algebra.

Structure: ``Pipeline`` holds one lattice and starting point with its cone
series C, quadrant series Q and kernel K.  The origin pipelines add A, its
split and the boundary constants; ``ShiftedPipelineBase`` adds the split
into P, L, B and the sums M, N.  ``BoundaryPair`` states the R/S
specializations of a quadrant-like series once per lattice.  Every derived
series is a ``_cached`` property: built on first use, then kept.
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

THIRD = Fraction(1, 3)


def tmul(s, k: int = 1):
    """Multiply by t^k, keeping the original truncation order."""
    return s.mul_t(k).truncate(s.order)


def kernel_series(steps, order: int) -> Series2:
    """K(x, y) = 1 - t * (step polynomial), as a truncated series."""
    return Series2([LPoly2.const(1), -steps.step_poly()], order)


def quadrant_mirror_combo(Q: Series2) -> Series2:
    """Q(x,y) - xbar^2 Q(xbar,y) - ybar^2 Q(x,ybar)."""
    Qxb = Q.sub_inverse("x").mul_xy(-2, 0)
    Qyb = Q.sub_inverse("y").mul_xy(0, -2)
    return Q - Qxb - Qyb


def x_neg_factor2(series2: Series2) -> Series2:
    """Recover F(x, y) from the identity [x^<] A = xbar * F(xbar, y)."""
    return series2.part("x", "neg").mul_xy(1, 0).sub_inverse("x")


def even_halve(s: Series1) -> Series1:
    """x^2 -> x on a series whose coefficients are even in x."""
    return s.halve_x()


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


def _diagonal_delta(order: int) -> Series1:
    """1 - 4 t^2 (1 + x)(1 + xbar), in the squared variable."""
    prod = (LPoly.const(1) + LPoly.var(1)) * (LPoly.const(1) + LPoly.var(-1))
    return Series1([LPoly.const(1), LPoly(), -4 * prod], order)


class BoundaryPair:
    """R and S specializations of one quadrant-like series W.

    Square lattice: R(x) = t W(x, 0) and S(x) = t x W(0, x).  Diagonal
    lattice: x W(x, 0) and x W(0, x) are even, so R and S live in the
    squared variable: R(x) = t^2 W(sqrt x, 0) / sqrt x and
    S(x) = t sqrt(x) W(0, sqrt x).
    """

    def __init__(self, W: Series2, diagonal: bool):
        self.W = W
        self.diagonal = diagonal

    @_cached
    def x0(self) -> Series1:
        """W(x, 0) as a series in x."""
        return self.W.coeff_of("y", 0)

    @_cached
    def on_y(self) -> Series1:
        """W(0, y) as a series in its single variable."""
        return self.W.coeff_of("x", 0)

    @_cached
    def R(self) -> Series1:
        if self.diagonal:
            return tmul(even_halve(self.x0.mul_x(-1)), 2)
        return tmul(self.x0)

    @_cached
    def S(self) -> Series1:
        xW = self.on_y.mul_x(1)
        return tmul(even_halve(xW) if self.diagonal else xW)

    @_cached
    def S1(self) -> Series1:
        return self.S.coeff_x(1)

    @_cached
    def S2(self) -> Series1:
        return self.S.coeff_x(2)

    @_cached
    def S_m1(self) -> Series1:
        """S(-1)."""
        return self.S.eval_x(-1)


def _from_Mpair(name: str, doc: str) -> property:
    return property(lambda self: getattr(self.Mpair, name), doc=doc)


class Pipeline:
    """One lattice and starting point in the three-quadrant cone: the cone
    series C, the quadrant series Q from the origin and the kernel K.

    Subclasses define the quadrant-like series M; ``Mpair`` holds its
    boundary specializations.
    """

    steps = None
    start = None

    def __init__(self, order: int):
        self.order = order
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
    def Mpair(self) -> BoundaryPair:
        return BoundaryPair(self.M, self.steps is DIAGONAL)


class SquareOriginPipeline(Pipeline):
    """Square lattice, three-quadrant cone, start (0, 0)."""

    steps = SQUARE
    start = (0, 0)

    @_cached
    def A(self) -> Series2:
        # C differs from (1/3) * (Q - xbar^2 Q(xbar,y) - ybar^2 Q(x,ybar))
        # by the zero-orbit-sum series A.
        combo = quadrant_mirror_combo(self.Q)
        return self.C - combo.map_poly(lambda p: p * LPoly2.const(THIRD))

    @_cached
    def P(self) -> Series2:
        return self.A.part("x", "nonneg").part("y", "nonneg")

    @_cached
    def M(self) -> Series2:
        return x_neg_factor2(self.A)

    M_x0 = _from_Mpair("x0", "M(x, 0) as a series in x.")
    M_0y = _from_Mpair("on_y", "M(0, y) as a series in its single variable.")
    R = _from_Mpair("R", "R(x): t M(x, 0), in the squared variable on the "
                         "diagonal lattice.")
    S = _from_Mpair("S", "S(x): t x M(0, x), in the squared variable on the "
                         "diagonal lattice.")
    S1 = _from_Mpair("S1", "[x^1] S.")
    S2 = _from_Mpair("S2", "[x^2] S.")
    S_m1 = _from_Mpair("S_m1", "S(-1).")

    @_cached
    def R1(self) -> Series1:
        return self.R.coeff_x(1)

    @_cached
    def Delta(self) -> Series1:
        """Discriminant (1 - t(x + xbar))^2 - 4 t^2."""
        n = self.order
        lin = Series1([LPoly.const(1), -(LPoly.var(1) + LPoly.var(-1))], n)
        return lin * lin - Series1([LPoly(), LPoly(), LPoly.const(4)], n)

    @_cached
    def sqrt_Delta(self) -> Series1:
        return self.Delta.sqrt()

    @_cached
    def P0(self) -> Series1:
        """[x^0] of Delta(x) S(x) S(xbar)."""
        return (self.Delta * self.S * self.S.sub_inverse_x()).coeff_x(0)

    @_cached
    def F0(self) -> Series1:
        return tmul(self.S1 * (1 + self.S1), 2)

    @_cached
    def F1(self) -> Series1:
        inner = tmul(self.S2) + 3 * tmul(self.R1) - 5 * self.S1
        return tmul(inner) * Fraction(1, 2)

    @_cached
    def F2(self) -> Series1:
        return tmul(1 + 2 * self.S1, 2)


class DiagonalOriginPipeline(SquareOriginPipeline):
    """Diagonal lattice, three-quadrant cone, start (0, 0).

    Same orbit-sum reduction as the square case; the boundary series R, S
    live in the squared variable because x M(x,0) and x M(0,x) are even.
    """

    steps = DIAGONAL
    start = (0, 0)

    @_cached
    def M10(self) -> Series1:
        """Coefficient of x^1 y^0 in M(x, y)."""
        return self.M_x0.coeff_x(1)

    @_cached
    def R0(self) -> Series1:
        return self.R.coeff_x(0)

    @_cached
    def Delta(self) -> Series1:
        """1 - 4 t^2 (1 + x)(1 + xbar), in the squared variable."""
        return _diagonal_delta(self.order)

    @_cached
    def F0(self) -> Series1:
        return self.P0 - self.S_m1


class ShiftedPipelineBase(Pipeline):
    """Common machinery for the shifted starting points.

    The cone series (or its zero-orbit-sum correction A) splits uniquely as
    P + xbar L(xbar, y) + ybar B(x, ybar); the sum and difference
    M = L + B-swapped, N = L - B-swapped decouple the functional equations.
    """

    @property
    def split_source(self) -> Series2:
        """The series that is split into P, L, B (C itself or A)."""
        raise NotImplementedError

    @_cached
    def P(self) -> Series2:
        return self.split_source.part("x", "nonneg").part("y", "nonneg")

    @_cached
    def L(self) -> Series2:
        return x_neg_factor2(self.split_source)

    @_cached
    def B(self) -> Series2:
        # [y^<] source = ybar B(x, ybar): shift and invert y only.
        return self.split_source.part("y", "neg").mul_xy(0, 1).sub_inverse("y")

    @_cached
    def M(self) -> Series2:
        return self.L + self.B.swap_vars()

    @_cached
    def N(self) -> Series2:
        return self.L - self.B.swap_vars()

    @_cached
    def Npair(self) -> BoundaryPair:
        return BoundaryPair(self.N, self.steps is DIAGONAL)

    @_cached
    def L_x0(self) -> Series1:
        return self.L.coeff_of("y", 0)

    @_cached
    def L_0y(self) -> Series1:
        return self.L.coeff_of("x", 0)

    @_cached
    def B_x0(self) -> Series1:
        return self.B.coeff_of("y", 0)

    @_cached
    def B_0y(self) -> Series1:
        return self.B.coeff_of("x", 0)


class SquareShiftedPipeline(ShiftedPipelineBase):
    """Square lattice, three-quadrant cone, start (-1, 0)."""

    steps = SQUARE
    start = (-1, 0)

    @property
    def split_source(self) -> Series2:
        return self.C


class DiagonalShiftedPipeline(ShiftedPipelineBase):
    """Diagonal lattice, three-quadrant cone, start (-2, 0)."""

    steps = DIAGONAL
    start = (-2, 0)

    @_cached
    def A(self) -> Series2:
        combo = quadrant_mirror_combo(self.Q)
        return self.C + combo.map_poly(lambda p: p * LPoly2.const(THIRD))

    @property
    def split_source(self) -> Series2:
        return self.A

    @_cached
    def N_F0(self) -> Series1:
        """The combined boundary constant of the antisymmetric pipeline:
        [x^0](Delta S(x) S(xbar)) - 3 S(-1), with S from N."""
        S = self.Npair.S
        P0 = (_diagonal_delta(self.order) * S * S.sub_inverse_x()).coeff_x(0)
        return P0 - 3 * self.Npair.S_m1


@lru_cache(maxsize=None)
def square_origin(order: int) -> SquareOriginPipeline:
    return SquareOriginPipeline(order)


@lru_cache(maxsize=None)
def diagonal_origin(order: int) -> DiagonalOriginPipeline:
    return DiagonalOriginPipeline(order)


@lru_cache(maxsize=None)
def square_shifted(order: int) -> SquareShiftedPipeline:
    return SquareShiftedPipeline(order)


@lru_cache(maxsize=None)
def diagonal_shifted(order: int) -> DiagonalShiftedPipeline:
    return DiagonalShiftedPipeline(order)
