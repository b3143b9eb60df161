"""Acceptance gate: the ten headline guarantees of the package.

Every check here is exact except the final asymptotic trend check, which
compares exact counts, turned into floats, with the paper's constant
within a documented tolerance.
"""

import math

import pytest

from conewalks import closedforms as cf
from conewalks import engine, identities
from conewalks.walks import (
    DIAGONAL,
    SQUARE,
    Region,
    WalkModel,
    count_sequence,
    count_walks_upto,
)


def test_01_quadrant_closed_forms():
    """Quadrant counting formulas equal the DP oracle for all (i,j,n), n <= 20."""
    for steps, formula in (
        (SQUARE, cf.quadrant_square_count),
        (DIAGONAL, cf.quadrant_diag_count),
    ):
        model = WalkModel(steps, Region.QUADRANT, (0, 0))
        tables = count_walks_upto(model, 20)
        for n in range(21):
            counts = tables[n].counts
            for i in range(21):
                for j in range(21):
                    assert formula(i, j, n) == counts.get((i, j), 0), (
                        steps.name, i, j, n,
                    )


def test_02_gessel_numbers():
    """The wedge return counts match the hypergeometric formula for 2n <= 30,
    with both sides computed independently."""
    model = WalkModel(SQUARE, Region.WEDGE135, (0, 0))
    tables = count_walks_upto(model, 30)
    dp_values = [tables[2 * n].counts.get((0, 0), 0) for n in range(16)]
    wedge = cf.catalog()["wedge-0-0"]
    formula_values = [wedge.count(n) for n in range(16)]
    assert dp_values == formula_values
    assert dp_values[:4] == [1, 2, 11, 85]


def test_03_three_quadrant_closed_forms():
    """Every catalog entry for a cone endpoint equals the DP count, 2n <= 24."""
    for key in sorted(cf.catalog()):
        entry = cf.catalog()[key]
        tables = count_walks_upto(entry.model, 24)
        for n in range(13):
            assert entry.count(n) == tables[2 * n].counts.get(entry.end, 0), (
                key, n)


def test_04_parametrizing_series():
    """T, Z, U, V reproduce their frozen expansions through t^8 and satisfy
    their defining equations through t^40."""
    T = engine.series_T(9)
    assert [T.coeff(n).coeff(0) for n in range(9)] == [
        1, 0, 4, 0, 36, 0, 396, 0, 4788,
    ]
    Z = engine.series_Z(9)
    assert [Z.coeff(n).coeff(0) for n in range(9)] == [
        1, 0, 2, 0, 16, 0, 166, 0, 1934,
    ]
    U = engine.series_U(9)
    assert U.coeff(6).coeff(1) == 2 and U.coeff(8).coeff(2) == 2
    V = engine.series_V(9)
    assert V.coeff(8).coeff(3) == 5
    for key in ("base-T", "base-Z-hyper"):
        assert engine.run_check(engine.BASE_CHECKS, key, 40)["verdict"] == (
            "pass")
    # defining equations of T, U, V at order 40 via the residuals used
    # by the solver (zero residual = equation satisfied)
    order = 40
    T40 = engine.series_T(order)
    U40 = engine.series_U(order)
    V40 = engine.series_V(order)
    assert engine.T_residual(T40).is_zero()
    assert engine.U_residual(U40, T40).is_zero()
    assert engine.V_residual(V40, T40).is_zero()
    Z40 = engine.series_Z(order)
    assert (Z40 * Z40 - T40).is_zero()


def test_05_bivariate_parametrizations():
    """All twelve axis-series parametrizations match the oracle through t^20."""
    checks = engine.catalog_checks("bivariate")
    assert list(checks) == engine.param_keys() and len(checks) == 12
    for key in checks:
        assert engine.run_check(checks, key, 20)["verdict"] == "pass", key


def test_06_endpoint_rational_expressions():
    """All printed endpoint expressions match DP endpoint series through t^24,
    including the cross-lattice coincidence of two endpoint series."""
    checks = engine.catalog_checks("z_rationals")
    end_keys = [k for k in checks if "-end-" in k]
    assert len(end_keys) == 19
    for key in checks:
        assert engine.run_check(checks, key, 24)["verdict"] == "pass", key
    a = engine.z_rational_oracle("sq-origin-end-m1-0", 24)
    b = engine.z_rational_oracle("diag-origin-end-m1-1", 24)
    assert (a - b).is_zero()


def test_07_identity_suite():
    """Every identity in the catalog passes at order 12 (order 10 for the
    heaviest kernel-substitution entries)."""
    heavy = {"catM-sq", "catM-diag", "no-kernel-factor-sq"}
    for key in identities.IDENTITIES:
        order = 10 if key in heavy else 12
        report = engine.run_check(identities.IDENTITIES, key, order)
        assert report["verdict"] == "pass", report


def test_08_quartic_relations():
    """The boundary constants satisfy their degree-4 equations through t^30
    and match their rational expressions in the parametrizing series."""
    for key in engine.QUARTIC_CHECKS:
        report = engine.run_check(engine.QUARTIC_CHECKS, key, 30)
        assert report["verdict"] == "pass", key
    checks = engine.catalog_checks("z_rationals")
    for key in ("sq-S1", "sq-P0", "diag-S1", "diag-F0", "diag-R0",
                "diag-shift-S1", "diag-shift-F0"):
        assert engine.run_check(checks, key, 30)["verdict"] == "pass", key


def test_09_reflection_principle():
    """Reflection identities hold for all admissible endpoints with n <= 16,
    and the wedge series rebuilt from the cone models match the direct DP."""
    for key in ("reflection-square", "reflection-diag"):
        report = engine.run_check(identities.IDENTITIES, key, 16)
        assert report["verdict"] == "pass", key
    assert identities.gessel_axis_series(16).is_zero()
    assert identities.gessel_diag_series(16).is_zero()


def test_10_asymptotic_trend():
    """Trend check: the normalized ratio of the exact count at n = 200
    sits within 5% of the predicted constant (it is 1.06% below it).
    Diagnostic, not a proof."""
    model = WalkModel(SQUARE, Region.THREE_QUADRANT, (0, 0))
    n = 200
    ratio = count_sequence(model, n)[n] * n ** (1 / 3) / 4.0**n
    target = 2**5 * math.sqrt(3) / (3**3 * math.gamma(2 / 3))
    assert target == pytest.approx(1.516, abs=5e-4)
    assert abs(ratio / target - 1) < 0.05
