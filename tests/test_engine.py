"""Algebraic engine: implicit-equation solving and the series catalogs."""

from fractions import Fraction

import pytest

from conewalks import engine
from conewalks.decompose import tmul
from conewalks.gaussian import I
from conewalks.laurent import LPoly
from conewalks.series import PivotError, Series1
from conewalks.walks import (
    DIAGONAL,
    SQUARE,
    Region,
    WalkModel,
    endpoint_series,
)


def scalar_coeffs(series, upto):
    return [series.coeff(n).coeff(0) for n in range(upto)]


class TestBaseSeries:
    def test_T_expansion(self):
        assert scalar_coeffs(engine.series_T(10), 10) == [
            1, 0, 4, 0, 36, 0, 396, 0, 4788, 0,
        ]

    def test_Z_expansion(self):
        assert scalar_coeffs(engine.series_Z(10), 10) == [
            1, 0, 2, 0, 16, 0, 166, 0, 1934, 0,
        ]

    def test_Z_squared_is_T(self):
        Z = engine.series_Z(14)
        assert (Z * Z - engine.series_T(14)).is_zero()

    def test_Z_hypergeometric(self):
        assert (engine.series_Z(20) - engine.hypergeometric_Z(20)).is_zero()

    def test_U_expansion_with_x(self):
        U = engine.series_U(10)
        assert U.coeff(0) == LPoly.const(1)
        assert U.coeff(2) == LPoly.const(2)
        assert U.coeff(4) == LPoly.const(16)
        assert U.coeff(6) == LPoly({0: 166, 1: 2})
        assert U.coeff(8) == LPoly({0: 1934, 1: 40, 2: 2})

    def test_V_expansion_with_x(self):
        V = engine.series_V(10)
        assert V.coeff(0).is_zero()
        assert V.coeff(2) == LPoly.const(1)
        assert V.coeff(4) == LPoly({0: 8, 1: 1})
        assert V.coeff(6) == LPoly({0: 82, 1: 16, 2: 2})
        assert V.coeff(8) == LPoly({0: 944, 1: 227, 2: 48, 3: 5})

    def test_U_at_x0_is_Z(self):
        U = engine.series_U(12)
        assert (U.coeff_x(0) - engine.series_Z(12)).is_zero()

    def test_kernel_roots_satisfy_quadratic(self):
        for k in ("base-Y-square", "base-Y-diagonal"):
            assert engine.run_check(k, 14)["verdict"] == "pass"


def reference_solve(residual, order, c0):
    """The coefficient-by-coefficient solver that Newton iteration replaced:
    two full-order residual evaluations per coefficient."""
    G = Series1.const(c0, order)
    for k in range(1, order):
        r0 = residual(G).coeff(k)
        probe = G + Series1([LPoly()] * k + [LPoly.const(1)], order)
        slope = residual(probe).coeff(k) - r0
        if slope.is_zero():
            if r0.is_zero():
                continue
            raise PivotError(f"no pivot at order {k}")
        c = (-r0).divexact(slope)
        if not c.is_zero():
            G = G + Series1([LPoly()] * k + [c], order)
    return G


def reference_kernel_root(lattice, order):
    """The fixed-point iteration for the kernel root that the solver replaced."""
    t = Series1.t(order)
    s = Series1.from_poly(LPoly.var(1) + LPoly.var(-1), order)
    Y = Series1.zero(order)
    if lattice == "square":
        inv = (Series1.one(order) - t * s).inverse()
        for _ in range(order):
            Y = (t * (1 + Y * Y)) * inv
    else:
        for _ in range(order):
            Y = t * s * (1 + Y * Y)
    return Y


def catalan_residual(g):
    return g - 1 - (g * g).mul_t(1).truncate(g.order)


class TestNewtonMatchesReference:
    @pytest.mark.parametrize("order", [0, 1, 2, 3, 5, 8])
    def test_small_orders(self, order):
        assert engine.solve_algebraic(catalan_residual, order, 1) == (
            reference_solve(catalan_residual, order, 1)
        )

    def test_T(self):
        assert engine.solve_algebraic(engine.T_residual, 40, 1) == (
            reference_solve(engine.T_residual, 40, 1)
        )

    def test_U_and_V(self):
        T = engine.series_T(20)
        for residual, c0 in (
            (lambda U: engine.U_residual(U, T), 1),
            (lambda V: engine.V_residual(V, T), 0),
        ):
            assert engine.solve_algebraic(residual, 20, c0) == (
                reference_solve(residual, 20, c0)
            )

    def test_gaussian_root(self):
        residual, _, _ = engine._sq_quad_residual(12)
        assert engine.solve_algebraic(residual, 12, I) == (
            reference_solve(residual, 12, I)
        )

    @pytest.mark.parametrize("c0", [2, 0])
    def test_diag_shift_roots(self, c0):
        residual = engine._diag_shift_res5(12)
        assert engine.solve_algebraic(residual, 12, c0) == (
            reference_solve(residual, 12, c0)
        )

    @pytest.mark.parametrize("lattice", ["square", "diagonal"])
    def test_kernel_roots(self, lattice):
        assert engine.kernel_root_Y(lattice, 20) == (
            reference_kernel_root(lattice, 20)
        )


class TestSolver:
    def test_solve_geometric(self):
        # G = 1 + t G  =>  G = 1/(1-t)
        G = engine.solve_algebraic(lambda g: g - 1 - g.mul_t(1).truncate(g.order), 8, Fraction(1))
        assert scalar_coeffs(G, 8) == [1] * 8

    def test_solve_catalan(self):
        # G = 1 + t G^2
        G = engine.solve_algebraic(
            lambda g: g - 1 - (g * g).mul_t(1).truncate(g.order), 8, Fraction(1)
        )
        assert scalar_coeffs(G, 8) == [1, 1, 2, 5, 14, 42, 132, 429]

    def test_non_root_start_raises(self):
        # G = 1 + t G has no solution with G(0) = 2
        with pytest.raises(PivotError):
            engine.solve_algebraic(
                lambda g: g - 1 - g.mul_t(1).truncate(g.order), 4, Fraction(2)
            )

    def test_singular_residual_raises(self):
        # residual independent of G at some order cannot be solved
        with pytest.raises(PivotError):
            engine.solve_algebraic(
                lambda g: Series1.t(g.order), 4, Fraction(0)
            )


class TestCatalogs:
    @pytest.mark.parametrize("key", sorted(engine.param_keys()))
    def test_parametrizations(self, key):
        assert engine.run_check(key, 12)["verdict"] == "pass"

    @pytest.mark.parametrize("key", sorted(engine.z_rational_keys()))
    def test_endpoint_rationals(self, key):
        assert engine.run_check(key, 12)["verdict"] == "pass"

    @pytest.mark.parametrize("key", engine.QUARTIC_KEYS)
    def test_quartics(self, key):
        assert engine.run_check(key, 16)["verdict"] == "pass"

    @pytest.mark.parametrize("key", engine.XSERIES_KEYS)
    def test_x_series(self, key):
        assert engine.run_check(key, 10)["verdict"] == "pass"

    def test_report_shape(self):
        r = engine.run_check("base-T", 6)
        assert set(r) == {"id", "anchor", "order_checked", "verdict",
                          "first_failure"}
        assert r["verdict"] == "pass" and r["first_failure"] is None


class TestFrozenEndpointValues:
    # these oracles mix the cone count with a third of the quadrant count,
    # matching the combination the closed expressions describe
    def test_sq_origin_corner(self):
        s = engine.z_rational_oracle("sq-origin-end-0-0", 9)
        assert scalar_coeffs(s, 9) == [
            Fraction(2, 3), 0, Fraction(10, 3), 0, Fraction(86, 3), 0,
            Fraction(884, 3), 0, Fraction(3334),
        ]

    def test_diag_shift_start_point(self):
        s = engine.z_rational_oracle("diag-shift-end-m2-0", 7)
        assert scalar_coeffs(s, 7) == [
            Fraction(2, 3), 0, Fraction(5, 3), 0, Fraction(32, 3), 0,
            Fraction(278, 3),
        ]


class TestXSeriesBranches:
    def test_X0_catalan_square(self):
        X0 = engine.sq_X0(10)
        assert (X0 - engine.sq_X0_catalan(10)).is_zero()

    def test_X1_square_printed_expansion(self):
        X1 = engine.sq_X1(8)
        got = [X1.coeff(n).coeff(0) for n in range(8)]
        assert got == [I, 0, 0, Fraction(2), 0, Fraction(16), -2 * I,
                       Fraction(156)]

    def test_X1_does_not_satisfy_X0_factor(self):
        # the Gaussian branch is a root of the quartic but not of the
        # rational factor that X0 satisfies
        def cleared(X):
            # X * (1 - 2t(X + 1/X)) = X - 2t X^2 - 2t
            t = Series1.t(X.order)
            return X - 2 * (t * X * X).truncate(X.order) - 2 * t

        assert cleared(engine.sq_X0(8)).is_zero()
        assert not cleared(engine.sq_X1(8)).is_zero()

    @pytest.mark.parametrize("order", [12, 16])
    def test_diag_shift_roots_are_double_roots(self, order):
        for which in (0, 1):
            X = engine.diag_shift_X(order, which)
            for r in engine.diag_shift_double_root_residuals(X):
                assert r.order == order and r.is_zero()

    def test_diag_shift_check_reaches_requested_order(self):
        r = engine.run_check("x-diag-shift-01", 12)
        assert r["verdict"] == "pass" and r["order_checked"] == 12

    def test_diag_branch_constants(self):
        assert engine.diag_X0(6).coeff(0).is_zero()
        X0 = engine.diag_shift_X(6, 0)
        assert X0.coeff(0) == LPoly.const(2)


class TestReport:
    """engine.report builds the report of every check."""

    def test_names_the_first_nonzero_residual(self):
        residuals = [
            Series1.zero(9),
            Series1.from_scalar_coeffs([0, 0, 0, 1], 7),
            Series1.from_scalar_coeffs([0, 1], 5),
        ]
        report = engine.report("k", "anchor", residuals)
        assert report == {
            "id": "k", "anchor": "anchor", "order_checked": 7,
            "verdict": "fail", "first_failure": [3, 0],
        }

    def test_all_zero_passes_at_the_first_order(self):
        report = engine.report("k", "a", [Series1.zero(6), Series1.zero(4)])
        assert report["verdict"] == "pass"
        assert report["order_checked"] == 6
        assert report["first_failure"] is None

    def test_list_comparison(self):
        assert engine.report("k", "a", order=5)["verdict"] == "pass"
        report = engine.report("k", "a", order=5, failure=(2, "3", "4"))
        assert report["verdict"] == "fail"
        assert report["first_failure"] == [2, "3", "4"]
        assert report["order_checked"] == 5



# The endpoint oracle before it read the pipelines: key -> (lattice, start,
# end, power of t, multiple of Q00 / 3), one DP sweep of each cone and
# quadrant model per endpoint series.  Kept as the reference.
REFERENCE_ENDPOINTS = {
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


def reference_endpoint_oracle(key, order):
    steps, start, end, dt, q00 = REFERENCE_ENDPOINTS[key]
    model = WalkModel(steps, Region.THREE_QUADRANT, start)
    s = tmul(endpoint_series(model, end, order), dt)
    if q00:
        quadrant = WalkModel(steps, Region.QUADRANT, (0, 0))
        s = s + Fraction(q00, 3) * endpoint_series(quadrant, (0, 0), order)
    return s


class TestEndpointOraclesReadFromPipelines:
    """z_rational_oracle reads each endpoint series off a pipeline's C and
    Q; it must equal the per-endpoint sweep it replaced."""

    def test_every_endpoint_key_is_covered(self):
        assert set(REFERENCE_ENDPOINTS) == set(engine._ENDPOINTS)

    @pytest.mark.parametrize("key", sorted(REFERENCE_ENDPOINTS))
    def test_equals_the_per_endpoint_sweep(self, key):
        assert engine.z_rational_oracle(key, 12) == reference_endpoint_oracle(
            key, 12)
