"""The oracle-derived series decompositions hold together exactly."""

from fractions import Fraction

import pytest

from conewalks import decompose, identities
from conewalks.laurent import LPoly, LPoly2
from conewalks.series import Series1, Series2

ORDER = 8


def test_even_halve():
    s = Series1([LPoly({0: 1, 2: 3, -4: 5})], 4)
    out = s.halve_x()
    assert out.coeff(0) == LPoly({0: 1, 1: 3, -2: 5})


def test_square_origin_A_splits():
    sq = decompose.pipeline("square_origin", ORDER)
    recon = (
        sq.P
        + sq.L.sub_inverse("x").mul_xy(-1, 0)
        + sq.L.swap_vars().sub_inverse("y").mul_xy(0, -1)
    )
    assert (sq.A - recon).is_zero()


def test_square_origin_A_diagonal_symmetry():
    sq = decompose.pipeline("square_origin", ORDER)
    assert (sq.A - sq.A.swap_vars()).is_zero()


def test_P_supported_in_quadrant():
    for pipe in (decompose.pipeline("square_origin", ORDER),
                 decompose.pipeline("square_shifted", ORDER)):
        P = pipe.P
        for n in range(P.order):
            for (i, j) in P.coeff(n).terms:
                assert i >= 0 and j >= 0


def test_shifted_split_reassembles():
    for pipe in (decompose.pipeline("square_shifted", ORDER),
                 decompose.pipeline("diagonal_shifted", ORDER)):
        src = pipe.A
        recon = (
            pipe.P
            + pipe.L.sub_inverse("x").mul_xy(-1, 0)
            + pipe.B.sub_inverse("y").mul_xy(0, -1)
        )
        assert (src - recon).is_zero()


def test_MN_recover_L_and_B():
    ss = decompose.pipeline("square_shifted", ORDER)
    two_L = ss.M + ss.N
    two_B_swapped = ss.M - ss.N
    assert (two_L - 2 * ss.L).is_zero()
    assert (two_B_swapped - 2 * ss.B.swap_vars()).is_zero()


def test_boundary_series_square():
    sq = decompose.pipeline("square_origin", ORDER)
    assert (sq.R - decompose.tmul(sq.L_x0)).is_zero()
    assert (sq.S - decompose.tmul(sq.L_0y.mul_x(1))).is_zero()
    # S has no constant term in x: S = t x M(0, x)
    assert sq.S.coeff_x(0).is_zero()


def test_diag_R_S_are_even_reindexed():
    dg = decompose.pipeline("diagonal_origin", ORDER)
    # x M(0, x) is even in x, so S lives in the squared variable
    xm = dg.L_0y.mul_x(1)
    for n in range(xm.order):
        for e in xm.coeff(n).terms:
            assert e % 2 == 0


def test_kernel_annihilates_free_walks():
    """K * (full-plane generating function) = 1: the defining recurrence
    with no boundary terms."""
    from conewalks.walks import Region, SQUARE, WalkModel, generating_series

    model = WalkModel(SQUARE, Region.FULL_PLANE, (0, 0))
    C = generating_series(model, ORDER)
    K = decompose.kernel_series(SQUARE, ORDER)
    assert ((K * C) - 1).is_zero()


def test_quadrant_mirror_combo_orbit_antisymmetry():
    sq = decompose.pipeline("square_origin", ORDER)
    combo = decompose.quadrant_mirror_combo(sq.Q)
    # combo(x, y) = combo(y, x) by the diagonal symmetry of Q
    assert (combo - combo.swap_vars()).is_zero()


@pytest.mark.parametrize("name", decompose.PIPELINES)
def test_orbit_sign_of_each_row(name):
    """K orbit(C) = s (x - xbar)(y - ybar) and orbit(A) = 0 hold for the
    row's orbit sign s and fail for either other sign."""
    p = decompose.pipeline(name, 12)
    cross = Series2.from_poly((LPoly2.x(1) - LPoly2.x(-1))
                              * (LPoly2.y(1) - LPoly2.y(-1)), 12)
    K_orbit_C = p.K * identities._orbit(p.C)
    orbit_combo = identities._orbit(decompose.quadrant_mirror_combo(p.Q))
    assert (K_orbit_C - p.sign * cross).is_zero()
    assert identities._orbit(p.A).is_zero()
    for wrong in {-1, 0, 1} - {p.sign}:
        assert not (K_orbit_C - wrong * cross).is_zero()
        orbit_A = identities._orbit(p.C) - Fraction(wrong, 3) * orbit_combo
        assert not orbit_A.is_zero()


@pytest.mark.parametrize("order", [8, 12])
@pytest.mark.parametrize("name", ["square_origin", "diagonal_origin"])
def test_origin_split_is_symmetric(name, order):
    """From the origin B is L with x and y swapped: the difference N
    vanishes, and the paper's M is L."""
    p = decompose.pipeline(name, order)
    assert p.B == p.L.swap_vars()
    assert p.N.is_zero()
