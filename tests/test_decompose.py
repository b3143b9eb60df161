"""The oracle-derived series decompositions hold together exactly."""

from fractions import Fraction

import pytest

from conewalks import decompose, identities
from conewalks.laurent import LPoly, LPoly2, _coerce, qdiv
from conewalks.series import Series1, Series2
from test_series import stored

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
    # L is the pipeline's k L; R and S are at the paper's scale
    assert (sq.R - decompose.tmul(sq.unscale(sq.L_x0))).is_zero()
    assert (sq.S - decompose.tmul(sq.unscale(sq.L_0y).mul_x(1))).is_zero()
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


# ---------------------------------------------------------------------------
# The integer scale k: pipelines carry k A, with k the denominator of s/3
# ---------------------------------------------------------------------------


def reference_A(p):
    """The paper's A = C - (s/3)(Q - xbar^2 Q(xbar,y) - ybar^2 Q(x,ybar)),
    with the 1/3 as a ``Fraction``: the construction before the integer
    scale, kept as a test-only reference."""
    if not p.sign:
        return p.C
    third = LPoly2.const(Fraction(p.sign, 3))
    combo = decompose.quadrant_mirror_combo(p.Q)
    return p.C - combo.map_poly(lambda q: q * third)


class PaperPipeline(decompose.Pipeline):
    """A pipeline at the paper's scale: k = 1 and A = ``reference_A``, so
    that P, L, B, M and N are the paper's series.  Not memoised, so it
    always reads the current oracle."""

    def __init__(self, name, order):
        super().__init__(name, order)
        self.scale, self.mirror_weight = 1, Fraction(self.sign, 3)

    @decompose._cached
    def A(self):
        return reference_A(self)


def value_types(s):
    return {type(c) for p in s.coeffs for c in p.terms.values()}


@pytest.mark.parametrize("name", decompose.PIPELINES)
def test_pipeline_A_is_k_times_the_papers(name):
    p = decompose.pipeline(name, 12)
    assert p.scale == (3 if p.sign else 1)
    assert p.A == p.scale * reference_A(p)


@pytest.mark.parametrize("name", decompose.PIPELINES)
def test_bivariate_pipeline_series_hold_only_ints(name):
    """A, P, L, B, M and N hold no ``Fraction``, where the paper's A does
    whenever s != 0."""
    p = decompose.pipeline(name, 12)
    for series in ("A", "P", "L", "B", "M", "N"):
        assert value_types(getattr(p, series)) <= {int}, series
    assert (Fraction in value_types(reference_A(p))) == bool(p.sign)


@pytest.mark.parametrize("name", decompose.PIPELINES)
def test_one_variable_readers_are_at_the_papers_scale(name):
    """``unscale`` undoes k: R, S and their constants equal those of the
    paper-scale pipeline."""
    p, paper = decompose.pipeline(name, 12), PaperPipeline(name, 12)
    assert p.L_x0 == p.scale * paper.L_x0
    for series in ("R", "S", "S1", "S_m1", "P0", "R0"):
        assert getattr(p, series) == getattr(paper, series), series


def reference_eval_x(s, v):
    """``Series1.eval_x`` as it was before ``S_m1`` became ``compose`` at a
    constant: each coefficient evaluated term by term at the scalar v."""
    def value(p):
        acc = 0
        for e, c in p.terms.items():
            acc = acc + (c * v ** e if e >= 0 else qdiv(c, v ** -e))
        return _coerce(acc)

    return Series1([LPoly.const(value(p)) for p in s.coeffs], s.order)


@pytest.mark.parametrize("order", range(8, 17))
@pytest.mark.parametrize("name", decompose.PIPELINES)
def test_S_m1_equals_the_term_by_term_value(name, order):
    p = decompose.pipeline(name, order)
    assert stored(p.S_m1) == stored(reference_eval_x(p.S, -1))
