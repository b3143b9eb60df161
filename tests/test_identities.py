"""The identity catalog: every functional equation and bijection holds."""

import pytest

from conewalks import identities

ORDER = 8


@pytest.mark.parametrize("key", sorted(identities.IDENTITIES))
def test_series_identities(key):
    report = identities.run_identity(key, ORDER)
    assert report["verdict"] == "pass", report


def test_negative_divisibility_check():
    report = identities.run_identity("no-kernel-factor-sq", ORDER)
    assert report["verdict"] == "pass"
    # and the underlying composed series really are nonzero
    for res in identities.no_kernel_factor_sq(ORDER):
        assert res.first_failure() is not None


@pytest.mark.parametrize("key", sorted(identities.LIST_IDENTITIES))
def test_count_level_identities(key):
    report = identities.run_identity(key, 10)
    assert report["verdict"] == "pass", report


def test_report_shape():
    report = identities.run_identity("func-eq-sq-origin", 6)
    assert set(report) == {
        "id", "anchor", "order_checked", "verdict", "first_failure"
    }


def test_all_keys_unique_and_covered():
    keys = identities.all_identity_keys()
    assert len(keys) == len(set(keys))
    assert "no-kernel-factor-sq" in keys


def test_a_perturbed_identity_fails():
    """Guard against vacuous checks: a deliberately wrong equation must
    produce a nonzero residual."""
    from conewalks import decompose
    from conewalks.series import Series2

    sq = decompose.pipeline("square_origin", 6)
    wrong = sq.K * sq.C - Series2.one(6)  # drops the boundary terms
    assert wrong.first_failure() is not None


def test_reflection_square_sees_cancellation():
    """The reflection identity is a real statement: the raw difference
    c_{i,j} - c_{j,i} is nonzero somewhere, it does not vanish trivially."""
    from conewalks.walks import Region, SQUARE, WalkModel, count_walks_upto

    model = WalkModel(SQUARE, Region.THREE_QUADRANT, (-1, 0))
    table = count_walks_upto(model, 3)[3]
    assert any(
        table.get(i, j) != table.get(j, i) for (i, j) in table.counts
    )


def test_reflection_loop_sees_a_wrong_endpoint_map():
    from conewalks.walks import Region, SQUARE, WalkModel

    cone = WalkModel(SQUARE, Region.THREE_QUADRANT, (-1, 0))
    assert identities._reflection(cone, lambda i, j: (-i - 1, j), 6) == []
    mismatches = identities._reflection(cone, lambda i, j: (-i, j), 6)
    assert mismatches and mismatches[0][3] != mismatches[0][4]


@pytest.mark.parametrize("order", [1, 2])
def test_negative_check_needs_order_3(order):
    from conewalks.series import OrderError

    with pytest.raises(OrderError):
        identities.run_identity("no-kernel-factor-sq", order)


def test_negative_check_names_a_vanishing_residual():
    from conewalks.series import Series1

    nonzero = Series1.from_scalar_coeffs([0, 0, 1], 4)
    report = identities._nonzero("k", "a", [nonzero, Series1.zero(4)], 4)
    assert report["verdict"] == "fail"
    assert report["first_failure"] == ["residual 1 vanishes"]
    assert identities.run_identity("no-kernel-factor-sq", 3)["verdict"] == "pass"


def test_step_eq_sees_a_flipped_corner():
    from conewalks import decompose

    dg = decompose.pipeline("diagonal_origin", 6)
    C = dg.C
    sections = (identities._neg_x_axis(C), identities._neg_y_axis(C))
    corner = identities.at_point(C, (0, 0))
    right = identities._step_eq(dg, C, identities.ONE, *sections, corner)
    wrong = identities._step_eq(dg, C, identities.ONE, *sections, -corner)
    assert right.first_failure() is None
    assert wrong.first_failure() is not None


def test_half_eq_sees_a_wrong_constant():
    from fractions import Fraction

    from conewalks import decompose

    sq = decompose.pipeline("square_origin", 6)
    rest = identities._y_rest(sq, sq.L_x0)
    for const, zero in ((Fraction(2, 3) * identities.X, True),
                        (identities.X, False)):
        res = identities._half_eq(sq, sq.L, sq.L_x0, sq.L_0y, const) - rest
        assert (res.first_failure() is None) == zero
