"""The identity catalog: every functional equation and bijection holds."""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from conewalks import decompose, identities, walks
from conewalks.decompose import at_point, discriminant, pipeline, tmul
from conewalks.engine import kernel_root_Y, run_check, sqrt
from conewalks.identities import (
    ONE,
    X,
    _at_t_ybar,
    _cross,
    _half_eq,
    _orbit,
    _x_series,
    _y_rest,
    _y_series,
)
from conewalks.laurent import LPoly, LPoly2
from conewalks.series import Series1, Series2
from test_decompose import PaperPipeline
from test_walks import GESSEL, KING, KREWERAS, reference_layers

ORDER = 8

# The rows whose check gives a list of mismatches; every other row gives a
# residual series.
LIST_KEYS = ("no-kernel-factor-sq", "reflection-square", "reflection-diag",
             "orbit-endpoint")


def run_identity(key, order):
    return run_check(identities.IDENTITIES, key, order)


@pytest.mark.parametrize("key", sorted(set(identities.IDENTITIES)
                                       - set(LIST_KEYS)))
def test_series_identities(key):
    report = run_identity(key, ORDER)
    assert report["verdict"] == "pass", report


def test_negative_divisibility_check():
    report = run_identity("no-kernel-factor-sq", ORDER)
    assert report["verdict"] == "pass"
    # and the underlying composed series really are nonzero
    for res in identities.no_kernel_factor_sq(ORDER):
        assert res.first_failure() is not None


@pytest.mark.parametrize("key", sorted(LIST_KEYS))
def test_count_level_identities(key):
    assert isinstance(identities.IDENTITIES[key][1](4), list)
    report = run_identity(key, 10)
    assert report["verdict"] == "pass", report
    assert report["order_checked"] == 10


def test_report_shape():
    report = run_identity("func-eq-sq-origin", 6)
    assert set(report) == {
        "id", "anchor", "order_checked", "verdict", "first_failure"
    }


def test_all_keys_unique_and_covered():
    keys = list(identities.IDENTITIES)
    assert len(keys) == len(set(keys)) == 50
    assert keys[-len(LIST_KEYS):] == list(LIST_KEYS)


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
    counts = count_walks_upto(model, 3)[3]
    assert any(c != counts.get((j, i), 0) for (i, j), c in counts.items())


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
        run_identity("no-kernel-factor-sq", order)


def test_negative_check_names_a_vanishing_residual(monkeypatch):
    from conewalks.series import Series1

    assert run_identity("no-kernel-factor-sq", 3)["verdict"] == "pass"
    nonzero = Series1.from_scalar_coeffs([0, 0, 1], 4)
    monkeypatch.setattr(identities, "no_kernel_factor_sq",
                        lambda n: [nonzero, Series1.zero(4)])
    report = run_identity("no-kernel-factor-sq", 4)
    assert report["verdict"] == "fail"
    assert report["first_failure"] == ["residual 1 vanishes"]


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


def shift_and_scale(poly: LPoly2, s: Series2) -> Series2:
    """t poly s as the sum over the terms c x^i y^j of poly of t c s
    shifted by (i, j): the path ``_times`` took for a poly of at most one
    term before it became one series product, kept as its reference."""
    out = Series2.zero(s.order)
    for (i, j), c in poly.terms.items():
        out = out + tmul(s.scale(c).mul_xy(i, j))
    return out


@pytest.mark.parametrize("poly", [
    LPoly2({}), LPoly2({(0, -1): 1}), LPoly2({(-1, 0): 1}),
    LPoly2({(2, -1): -3}), LPoly2({(1, -1): 1, (-1, -1): 1})])
def test_times_of_a_monomial_equals_the_product(poly):
    """``_times``, one series product, is s shifted and scaled by each
    term of poly."""
    s = pipeline("square_origin", 8).C
    assert identities._times(poly, s) == shift_and_scale(poly, s)


@pytest.mark.parametrize("name", ["square_origin", "diagonal_origin"])
def test_times_of_each_exit_part_equals_shift_and_scale(name):
    """Every poly that the kernel equations pass to ``_times``: the three
    exit parts of each lattice and the shifted dx = -1 part of
    ``_y_rest``, at the pipeline's C and at a one-variable section."""
    p = pipeline(name, 8)
    down, left, both = decompose.exits(p.steps)
    for s in (p.C, identities._x_series(p.C.coeff_of("y", 0))):
        for poly in (down, left, both, left.shift(1, -1)):
            assert identities._times(poly, s) == shift_and_scale(poly, s)


@pytest.mark.parametrize("steps", [walks.SQUARE, walks.DIAGONAL, KING,
                                   KREWERAS, GESSEL], ids=lambda s: s.name)
def test_quadrant_step_eq_holds_for_any_small_step_set(steps):
    """The step-by-step equation of the quadrant series reads the lattice
    only through the exit parts of its step set, so it holds for any small
    step set, with the sections Q(x,0), Q(0,y) and the corner -Q(0,0).
    The walk DP sweeps only square and diagonal steps, so Q comes from the
    cell-by-cell reference DP of the tests."""
    n = 10
    Q = Series2([LPoly2(frontier) for frontier in reference_layers(
        steps, walks.Region.QUADRANT, (0, 0), n - 1)], n)
    stand_in = SimpleNamespace(steps=steps,
                               K=decompose.kernel_series(steps, n))
    res = identities._step_eq(stand_in, Q, ONE, Q.coeff_of("y", 0),
                              Q.coeff_of("x", 0), -at_point(Q, (0, 0)))
    assert res.first_failure() is None


# id -> (pipeline, a, b, constant) of each quadrant-like registry row.
QUADRANT_LIKE = {
    key: build.args for key, (_, build) in identities.IDENTITIES.items()
    if getattr(build, "func", None) is identities.quadrant_like
}


def test_ten_quadrant_like_rows():
    assert len(QUADRANT_LIKE) == 10


@pytest.mark.parametrize("key", sorted(QUADRANT_LIKE))
def test_half_eq_sees_a_wrong_constant(key):
    name, a, b, const = QUADRANT_LIKE[key]
    for c, zero in ((const, True), (const + identities.X, False)):
        res = identities.quadrant_like(name, a, b, c, 6)
        assert (res.first_failure() is None) == zero


# ---------------------------------------------------------------------------
# The per-model equations that ``quadrant_like``, ``catM``, ``P_LB`` and
# ``orbit_eq`` state once, kept as test-only references.  They are the old
# functions verbatim, except that the corner [x^1 y^0] L, once the
# ``Pipeline.M10`` property, is read as ``L_x0.coeff_x(1)``, and that they
# read a ``PaperPipeline``: at the paper's scale, with its constants.
# ---------------------------------------------------------------------------

def reference_orbit_eq_quadrant_sq(order):
    sq = PaperPipeline("square_origin", order)
    return sq.K * _orbit(sq.Q) - Series2.from_poly(_cross(), order)


def reference_PM_relation_sq(order):
    sq = PaperPipeline("square_origin", order)
    M = sq.L
    M0y = _y_series(sq.L_0y)
    M0x = _x_series(sq.L_0y)
    lhs = sq.P.mul_xy(1, 1)
    rhs = (M - M0y).mul_xy(0, 1) + (M.swap_vars() - M0x).mul_xy(1, 0)
    return lhs - rhs


def reference_func_M_sq(order):
    sq = PaperPipeline("square_origin", order)
    eq = _half_eq(sq, sq.L, sq.L_x0, sq.L_0y, Fraction(2, 3) * X)
    return eq - _y_rest(sq, sq.L_x0)


def reference_catM_sq(order):
    sq = PaperPipeline("square_origin", order)
    Yr = kernel_root_Y(sq.steps, order)
    M0x = sq.L_0y
    lhs = -sq.sqrt_Delta * (
        M0x.mul_x(1) - 2 * M0x.sub_inverse_x().mul_x(-1)
    )
    return lhs - 2 * Yr.mul_x(-1) + 3 * tmul(sq.L_x0)


def reference_func_M_diag(order):
    dg = PaperPipeline("diagonal_origin", order)
    eq = _half_eq(dg, dg.L, dg.L_x0, dg.L_0y, Fraction(2, 3) * X)
    return eq - _y_rest(dg, dg.L_x0) + _at_t_ybar(dg.L_x0.coeff_x(1))


def reference_catM_diag(order):
    dg = PaperPipeline("diagonal_origin", order)
    Yr = kernel_root_Y(dg.steps, order)
    s = Series1.from_poly(LPoly.var(1) + LPoly.var(-1), order)
    M0x = dg.L_0y
    lhs = -sqrt(discriminant(dg.steps, order)) * (
        M0x.mul_x(1) - 2 * M0x.sub_inverse_x().mul_x(-1))
    return (
        lhs
        - 2 * Yr.mul_x(-1)
        + 3 * tmul(s * dg.L_x0)
        + 3 * tmul(dg.L_x0.coeff_x(1))
    )


def reference_eqL_sq_shift(order):
    ss = PaperPipeline("square_shifted", order)
    L00 = ss.L_0y.coeff_x(0)
    B00 = ss.B_0y.coeff_x(0)
    eq = _half_eq(ss, ss.L, ss.L_x0, ss.L_0y, ONE)
    return eq - _y_rest(ss, ss.B_0y) - _at_t_ybar(L00 - B00)


def reference_eqB_sq_shift(order):
    ss = PaperPipeline("square_shifted", order)
    L00 = ss.L_0y.coeff_x(0)
    B00 = ss.B_0y.coeff_x(0)
    eq = _half_eq(ss, ss.B.swap_vars(), ss.B_0y, ss.B_x0, LPoly2())
    return (eq - _y_rest(ss, ss.L_x0) + _at_t_ybar(L00 - B00)).swap_vars()


def reference_func_M_sq_shift(order):
    ss = PaperPipeline("square_shifted", order)
    Mx0 = ss.M.coeff_of("y", 0)
    eq = _half_eq(ss, ss.M, Mx0, ss.M.coeff_of("x", 0), ONE)
    return eq - _y_rest(ss, Mx0)


def reference_func_N_sq_shift(order):
    ss = PaperPipeline("square_shifted", order)
    Nx0 = ss.N.coeff_of("y", 0)
    N0y = ss.N.coeff_of("x", 0)
    eq = _half_eq(ss, ss.N, Nx0, N0y, ONE)
    return eq + _y_rest(ss, Nx0) - 2 * _at_t_ybar(N0y.coeff_x(0))


def reference_eqL_diag_shift(order):
    ds = PaperPipeline("diagonal_shifted", order)
    B01 = ds.B_0y.coeff_x(1)
    eq = _half_eq(ds, ds.L, ds.L_x0, ds.L_0y, Fraction(4, 3) * X)
    return eq - _y_rest(ds, ds.B_0y) + _at_t_ybar(B01)


def reference_eqB_diag_shift(order):
    ds = PaperPipeline("diagonal_shifted", order)
    L10 = ds.L_x0.coeff_x(1)
    eq = _half_eq(ds, ds.B.swap_vars(), ds.B_0y, ds.B_x0, Fraction(-2, 3) * X)
    return (eq - _y_rest(ds, ds.L_x0) + _at_t_ybar(L10)).swap_vars()


def reference_func_M_diag_shift(order):
    ds = PaperPipeline("diagonal_shifted", order)
    Mx0 = ds.M.coeff_of("y", 0)
    eq = _half_eq(ds, ds.M, Mx0, ds.M.coeff_of("x", 0), Fraction(2, 3) * X)
    return eq - _y_rest(ds, Mx0) + _at_t_ybar(Mx0.coeff_x(1))


def reference_func_N_diag_shift(order):
    ds = PaperPipeline("diagonal_shifted", order)
    Nx0 = ds.N.coeff_of("y", 0)
    eq = _half_eq(ds, ds.N, Nx0, ds.N.coeff_of("x", 0), 2 * X)
    return eq + _y_rest(ds, Nx0) - _at_t_ybar(Nx0.coeff_x(1))


# id -> (the pipeline whose scale k the row carries, or None for a row
# that reads Q alone, the reference).
REFERENCES = {
    "orbit-eq-quadrant-sq": (None, reference_orbit_eq_quadrant_sq),
    "PM-relation-sq": ("square_origin", reference_PM_relation_sq),
    "func-M-sq": ("square_origin", reference_func_M_sq),
    "catM-sq": ("square_origin", reference_catM_sq),
    "func-M-diag": ("diagonal_origin", reference_func_M_diag),
    "catM-diag": ("diagonal_origin", reference_catM_diag),
    "eqL-sq-shift": ("square_shifted", reference_eqL_sq_shift),
    "eqB-sq-shift": ("square_shifted", reference_eqB_sq_shift),
    "func-M-sq-shift": ("square_shifted", reference_func_M_sq_shift),
    "func-N-sq-shift": ("square_shifted", reference_func_N_sq_shift),
    "eqL-diag-shift": ("diagonal_shifted", reference_eqL_diag_shift),
    "eqB-diag-shift": ("diagonal_shifted", reference_eqB_diag_shift),
    "func-M-diag-shift": ("diagonal_shifted", reference_func_M_diag_shift),
    "func-N-diag-shift": ("diagonal_shifted", reference_func_N_diag_shift),
}


@pytest.fixture
def perturbed_layers(monkeypatch):
    """``perturb(ks)`` adds 1 to every stored count of the layers ks of
    every DP sweep from then on, with the sweep and pipeline memos empty
    before and after."""
    layers = walks._layers

    def perturb(ks):
        def perturbed(model, n):
            for k, frontier in enumerate(layers(model, n)):
                if k in ks:
                    frontier = walks.Frontier(
                        {j: (i0, [c + 1 for c in counts])
                         for j, (i0, counts) in frontier.rows.items()},
                        frontier.turned)
                yield frontier

        walks.sweep.cache_clear()
        decompose.pipeline.cache_clear()
        monkeypatch.setattr(walks, "_layers", perturbed)

    yield perturb
    walks.sweep.cache_clear()
    decompose.pipeline.cache_clear()


@pytest.mark.parametrize("layers", [(), (1, 2, 3, 4), (5,), (2, 9)])
def test_each_equation_equals_its_per_model_reference(perturbed_layers,
                                                      layers):
    """Each equation stated once gives exactly k times its old per-model
    residual at the paper's scale, for the scale k of its pipeline, at a
    correct oracle and at a perturbed one (where the residuals are not
    zero, so that the comparison is not of zeros alone)."""
    perturbed_layers(layers)
    for key, (name, reference) in REFERENCES.items():
        _, build = identities.IDENTITIES[key]
        expected = reference(12)
        scale = pipeline(name, 12).scale if name else 1
        assert build(12) == scale * expected, key
        assert (expected.first_failure() is None) == (not layers), key
