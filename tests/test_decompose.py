"""The oracle-derived series decompositions hold together exactly."""

from conewalks import decompose
from conewalks.laurent import LPoly
from conewalks.series import Series1

ORDER = 8


def test_even_halve():
    s = Series1([LPoly({0: 1, 2: 3, -4: 5})], 4)
    out = s.halve_x()
    assert out.coeff(0) == LPoly({0: 1, 1: 3, -2: 5})


def test_square_origin_A_splits():
    sq = decompose.square_origin(ORDER)
    recon = (
        sq.P
        + sq.M.sub_inverse("x").mul_xy(-1, 0)
        + sq.M.swap_vars().sub_inverse("y").mul_xy(0, -1)
    )
    assert (sq.A - recon).is_zero()


def test_square_origin_A_diagonal_symmetry():
    sq = decompose.square_origin(ORDER)
    assert (sq.A - sq.A.swap_vars()).is_zero()


def test_P_supported_in_quadrant():
    for pipe in (decompose.square_origin(ORDER),
                 decompose.square_shifted(ORDER)):
        P = pipe.P
        for n in range(P.order):
            for (i, j) in P.coeff(n).terms:
                assert i >= 0 and j >= 0


def test_shifted_split_reassembles():
    for pipe in (decompose.square_shifted(ORDER),
                 decompose.diagonal_shifted(ORDER)):
        src = pipe.split_source
        recon = (
            pipe.P
            + pipe.L.sub_inverse("x").mul_xy(-1, 0)
            + pipe.B.sub_inverse("y").mul_xy(0, -1)
        )
        assert (src - recon).is_zero()


def test_MN_recover_L_and_B():
    ss = decompose.square_shifted(ORDER)
    two_L = ss.M + ss.N
    two_B_swapped = ss.M - ss.N
    assert (two_L - 2 * ss.L).is_zero()
    assert (two_B_swapped - 2 * ss.B.swap_vars()).is_zero()


def test_boundary_pair_square():
    ss = decompose.square_shifted(ORDER)
    pair = ss.Mpair
    assert (pair.R - decompose.tmul(pair.x0)).is_zero()
    assert (pair.S - decompose.tmul(pair.on_y.mul_x(1))).is_zero()
    # S has no constant term in x: S = t x M(0, x)
    assert pair.S.coeff_x(0).is_zero()


def test_diag_R_S_are_even_reindexed():
    dg = decompose.diagonal_origin(ORDER)
    # x M(0, x) is even in x, so S lives in the squared variable
    xm = dg.M_0y.mul_x(1)
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
    sq = decompose.square_origin(ORDER)
    combo = decompose.quadrant_mirror_combo(sq.Q)
    # combo(x, y) = combo(y, x) by the diagonal symmetry of Q
    assert (combo - combo.swap_vars()).is_zero()
