"""Algebraic engine: implicit-equation solving and the series catalogs."""

import copy
from fractions import Fraction
from types import SimpleNamespace

import pytest

from conewalks import decompose, engine
from conewalks.decompose import tmul
from conewalks.laurent import LPoly
from conewalks.series import PivotError, Series1, Series2
from conewalks.walks import (
    DIAGONAL,
    SQUARE,
    Region,
    WalkModel,
    count_sequence,
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


LATTICES = {"square": SQUARE, "diagonal": DIAGONAL}


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

    def test_rotated_root(self):
        # The root of the rotated dP/ds is the root of the hand-written
        # rotated equation, whichever solver finds it.
        for order in (12, 20):
            ds, _ = engine.gqm_series(*engine.sq_cubic(order))
            derived = engine._rotate(ds, 1)[0].compose
            reference = reference_sq_quad_residual(*rotated_square(order))
            F = engine.sq_F(order)
            for residual in (derived, reference):
                assert engine.solve_algebraic(residual, order, 1) == F
                assert reference_solve(residual, order, 1) == F

    @pytest.mark.parametrize("c0", [2, 0])
    def test_diag_shift_roots(self, c0):
        ds, _ = engine.gqm_series(*engine.diag_shift_cubic(12))
        assert engine.solve_algebraic(ds.compose, 12, c0) == (
            reference_solve(ds.compose, 12, c0)
        )

    @pytest.mark.parametrize("lattice", ["square", "diagonal"])
    def test_kernel_roots(self, lattice):
        assert engine.kernel_root_Y(LATTICES[lattice], 20) == (
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


def reference_eval_terms(terms, order):
    """A term list evaluated one term at a time: each term a product of its
    coefficient and its powers, the powers built afresh for each list."""
    cache = {}

    def power(sym, e):
        if (sym, e) not in cache:
            if e == 1:
                cache[(sym, e)] = engine._BUILDERS[sym](order).truncate(order)
            else:
                cache[(sym, e)] = power(sym, e - 1) * power(sym, 1)
        return cache[(sym, e)]

    acc = Series1.zero(order)
    for coeff, exps in terms:
        term = Series1.const(Fraction(coeff), order)
        for sym, e in exps.items():
            term = term * power(sym, e)
        acc = acc + term
    return acc


def term_lists():
    data = engine._param_data()
    return [(key, part)
            for section in ("bivariate", "z_rationals")
            for key in sorted(data[section])
            for part in ("num", "den")]


class TestGroupedTerms:
    @pytest.mark.parametrize("order", [8, 16])
    @pytest.mark.parametrize("key, part", term_lists())
    def test_equal_the_per_term_loop(self, key, part, order):
        data = engine._param_data()
        terms = (data["bivariate"].get(key) or data["z_rationals"][key])[part]
        assert engine.eval_terms(terms, order) == reference_eval_terms(
            terms, order)

    @pytest.mark.parametrize("key, part", [
        ("sq-origin-axis-x", "den"), ("sq-shift-below-axis-y", "den"),
        ("diag-shift-left-axis-x", "num"), ("sq-P0", "num"),
        ("diag-origin-end-0-0", "den")])
    def test_one_changed_coefficient_changes_the_residual(self, key, part,
                                                          monkeypatch):
        """Raising the coefficient of a list's last term by 1 fails the
        key's check: no term of a grouped list is dropped or shared.  No
        square-lattice numerator is changed: its denominator vanishes at
        t^0, so the division would raise ``PivotError`` instead."""
        assert engine.run_check(key, 12)["verdict"] == "pass"
        before = engine.catalog_series(key, 12)
        data = copy.deepcopy(engine._param_data())
        section = "bivariate" if key in data["bivariate"] else "z_rationals"
        terms = data[section][key][part]
        terms[-1][0] += 1
        monkeypatch.setattr(engine, "_param_data", lambda: data)
        assert engine.catalog_series(key, 12) != before
        assert engine.run_check(key, 12)["verdict"] == "fail"


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

    def test_F_square_printed_expansion(self):
        assert scalar_coeffs(engine.sq_F(8), 8) == [
            1, 0, 0, -2, 0, 16, 2, -156]

    def test_F_does_not_satisfy_X0_factor(self):
        # X1 is a root of the quartic but not of the rational factor
        # X - 2t X^2 - 2t that X0 satisfies; under t = i s, X = i G that
        # factor is i (G + 2s G^2 - 2s).
        def rotated_factor(G):
            s = Series1.t(G.order)
            return G + 2 * s * G * G - 2 * s

        G, rest = engine._rotate(engine.sq_X0(8), 1)
        assert rest.is_zero() and rotated_factor(G).is_zero()
        assert not rotated_factor(engine.sq_F(8)).is_zero()

    @pytest.mark.parametrize("order", [12, 16])
    def test_diag_shift_roots_are_double_roots(self, order):
        coeffs, S = engine.diag_shift_cubic(order)
        P = engine.cubic_residual(coeffs, S)
        _, dx = engine.gqm_series(coeffs, S)
        for which in (0, 1):
            X = engine.diag_shift_X(order, which)
            for r in (P.compose(X), dx.compose(X)):
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
    """The endpoint series from its own streaming sweeps, not the memo."""
    steps, start, end, dt, q00 = REFERENCE_ENDPOINTS[key]

    def at_end(region, start, end):
        counts = count_sequence(WalkModel(steps, region, start), order - 1, end)
        return Series1.from_scalar_coeffs(counts, order)

    s = tmul(at_end(Region.THREE_QUADRANT, start, end), dt)
    if q00:
        s = s + Fraction(q00, 3) * at_end(Region.QUADRANT, (0, 0), (0, 0))
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


class QI:
    """a + b i in Q(i), with only the operations the series code uses."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @staticmethod
    def lift(o):
        return o if isinstance(o, QI) else QI(o)

    def __add__(self, o):
        o = QI.lift(o)
        return QI(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return QI(-self.re, -self.im)

    def __sub__(self, o):
        return self + -QI.lift(o)

    def __rsub__(self, o):
        return QI.lift(o) + -self

    def __mul__(self, o):
        o = QI.lift(o)
        return QI(self.re * o.re - self.im * o.im,
                  self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = QI.lift(o)
        norm = o.re * o.re + o.im * o.im
        return self * QI(o.re / norm, -o.im / norm)

    def __rtruediv__(self, o):
        return QI.lift(o) / self

    def __eq__(self, o):
        o = QI.lift(o)
        return self.re == o.re and self.im == o.im


I = QI(0, 1)


def paper_quad_residual(order):
    """The cleared (times X^4) derivative equation of the square origin
    pipeline as the paper states it, whose roots are X1 and its conjugate."""
    sq = decompose.pipeline("square_origin", order)
    S, S1, P0 = sq.S, sq.S1, sq.P0
    t = Series1.t(order)
    t2 = t * t

    def residual(X):
        X2 = X * X
        SX = S.compose(X)
        W = X - t * (X2 + 1)
        lhs = (W * W - 4 * t2 * X2) * (
            3 * X2 * SX * SX + 2 * X * (2 * X2 + 1) * SX + X2 * (X2 + 1)
        )
        X3 = X2 * X
        X4 = X2 * X2
        X5 = X4 * X
        X6 = X4 * X2
        rhs = (
            (2 * t2 * S1 * S1 + 2 * t2 * S1 - P0) * X4
            + 2 * t2 * S1 * X6
            + 2 * t2 * S1 * X2
            - 2 * t * S1 * (X5 + X3)
            + t2 * X6
            + t2 * X2
        )
        return lhs - rhs

    return residual


def paper_fact3_residual(X):
    """The cleared (times X^3) cubic factor that X1 satisfies, as the
    paper states it."""
    sq = decompose.pipeline("square_origin", X.order)
    S, S1 = sq.S, sq.S1
    t = Series1.t(X.order)
    X2 = X * X
    SX = S.compose(X)
    return (
        X2 * (X2 + 1)
        + t * X * (X2 - 1) ** 2 * S1
        + SX * (X * SX + X2 + 1) * (X * (X2 + 1) - t * (X2 - 1) ** 2)
    )


def X1_from_F(F):
    """X1(t) = i F(-i t)."""
    coeffs, unit = [], I
    for n in range(F.order):
        coeffs.append(LPoly.const(F.coeff(n).coeff(0) * unit))
        unit = unit * -I
    return Series1(coeffs, F.order)


class TestRotatedRootAgainstThePaper:
    """x-sq-12 works on the real series F; rebuilding X1 = i F(-i t) in
    Q(i) must give the root of the paper's own equations."""

    def test_X1_solves_the_paper_equations(self):
        X1 = X1_from_F(engine.sq_F(12))
        assert X1.coeff(0) == LPoly.const(I)
        assert paper_quad_residual(12)(X1).is_zero()
        assert paper_fact3_residual(X1).is_zero()

    def test_X1_is_the_solved_root(self):
        X1 = X1_from_F(engine.sq_F(12))
        residual = paper_quad_residual(12)
        assert engine.solve_algebraic(residual, 12, I) == X1
        assert reference_solve(residual, 12, I) == X1


class TestXSq12IsNotTrueByConstruction:
    def test_perturbed_F_fails(self, monkeypatch):
        F = engine.sq_F(12)
        bad = F + Series1.t(12) ** 9
        monkeypatch.setattr(engine, "sq_F", lambda n: bad)
        r = engine.run_check("x-sq-12", 12)
        assert r["verdict"] == "fail" and r["first_failure"] == [11, 0]

    def _with_pipeline(self, monkeypatch, **changes):
        sq = decompose.pipeline("square_origin", 12)
        fake = SimpleNamespace(S=sq.S, S1=sq.S1, P0=sq.P0)
        for name, delta in changes.items():
            setattr(fake, name, getattr(fake, name) + delta)
        monkeypatch.setattr(decompose, "pipeline", lambda name, n: fake)
        return engine.run_check("x-sq-12", 12)

    def test_perturbed_S1_fails(self, monkeypatch):
        r = self._with_pipeline(monkeypatch, S1=Series1.t(12) ** 6)
        assert r["verdict"] == "fail" and r["first_failure"] == [7, 0]

    def test_wrong_parity_term_fails_without_raising(self, monkeypatch):
        # t^2 x^0 in S has n + k - 1 odd: the rotation drops it from the
        # real dP/ds and dP/dx, yet it still shifts dP/dx at F
        r = self._with_pipeline(monkeypatch, S=Series1.t(12) ** 2)
        assert r["verdict"] == "fail" and r["first_failure"] == [4, 0]


class TestXSq0ReadsTheOracle:
    def test_perturbed_S_fails(self, monkeypatch):
        sq = decompose.pipeline("square_origin", 12)
        bad_S = sq.S + Series1.x(12) * Series1.t(12) ** 7
        fake = SimpleNamespace(S=bad_S, S1=sq.S1, P0=sq.P0)
        monkeypatch.setattr(decompose, "pipeline", lambda name, n: fake)
        r = engine.run_check("x-sq-0", 12)
        assert r["verdict"] == "fail" and r["first_failure"] == [10, 0]


def reference_diag_quad_residual(X):
    """The hand-expanded (times x(x+1)) dP/ds of the diagonal origin cubic
    that the derived dP/ds of ``gqm_series`` replaced."""
    order = X.order
    dg = decompose.pipeline("diagonal_origin", order)
    S = dg.S
    F0 = engine.diag_F0(order)
    t2 = Series1.from_scalar_coeffs([0, 0, 1], order)
    SX = S.compose(X)
    lead = X - 4 * t2 * (1 + X) ** 2
    return lead * (3 * (X + 1) * SX * SX + 2 * (2 * X + 1) * SX + X) - (
        X + 1
    ) * (t2 * (X * X + 1) - F0 * X)


class TestDerivedGQMResiduals:
    """dP/ds, P and dP/dx are derived from the one statement of each cubic;
    they must agree with the hand-written equations they replaced."""

    @pytest.mark.parametrize("order", [12, 16])
    @pytest.mark.parametrize("root", [engine.diag_X0, engine.diag_X1])
    @pytest.mark.parametrize("perturb", [False, True])
    def test_diag_ds_equals_the_hand_expanded_one(self, order, root, perturb):
        X = root(order)
        if perturb:
            X = X + Series1.t(order) ** 5
        ds, _ = engine.gqm_series(*engine.diag_cubic(order))
        derived = ds.compose(X)
        assert derived == reference_diag_quad_residual(X)
        assert derived.is_zero() != perturb

    @pytest.mark.parametrize("order", [12, 20])
    def test_square_cubic_has_a_double_root_at_X1(self, order):
        coeffs, S = engine.sq_cubic(order)
        X1 = X1_from_F(engine.sq_F(order))
        residuals = [r.compose(X1) for r in (engine.cubic_residual(coeffs, S),
                                             *engine.gqm_series(coeffs, S))]
        assert [r.order for r in residuals] == [order] * 3
        assert all(r.is_zero() for r in residuals)

    @pytest.mark.parametrize("order", [12, 20])
    def test_fact3_vanishes_at_the_derived_F(self, order):
        S, S1, _ = rotated_square(order)
        residual = reference_sq_fact3_residual(engine.sq_F(order), S, S1)
        assert residual.order == order and residual.is_zero()

    def test_rotations_of_the_square_derivatives_are_real(self):
        for series in engine.gqm_series(*engine.sq_cubic(12)):
            assert engine._rotate(series, 1)[1].is_zero()


def rotated_square(order):
    """S, S1 and P0 of the square origin pipeline made real by
    ``engine._rotate`` (S with shift 1, the constants with shift 0)."""
    sq = decompose.pipeline("square_origin", order)
    return [engine._rotate(sq.S, 1)[0], engine._rotate(sq.S1, 0)[0],
            engine._rotate(sq.P0, 0)[0]]


def reference_sq_quad_residual(S, S1, P0):
    """The hand-written cleared (times X^4) derivative equation of the
    square origin pipeline under t = i s, X = i F, as a residual in F, that
    the rotated dP/ds of ``gqm_series`` replaced."""
    s = Series1.t(S.order)
    s2 = s * s

    def residual(F):
        F2 = F * F
        SF = S.compose(F)
        w = F - s * (1 - F2)
        lhs = -(w * w + 4 * s2 * F2) * (
            3 * F2 * SF * SF - 2 * F * (1 - 2 * F2) * SF - F2 * (1 - F2)
        )
        F4 = F2 * F2
        F6 = F4 * F2
        rhs = (
            -(2 * s2 * S1 * S1 + 2 * s2 * S1 + P0) * F4
            + 2 * s2 * S1 * (F6 + F2)
            + 2 * s * S1 * (F4 - F2) * F
            + s2 * (F6 + F2)
        )
        return lhs - rhs

    return residual


def reference_sq_fact3_residual(F, S, S1):
    """The hand-written cleared (times X^3) cubic factor that X1 satisfies,
    under t = i s, X = i F, with the rotated S and S1."""
    s = Series1.t(F.order)
    F2 = F * F
    SF = S.compose(F)
    return -(
        F2 * (1 - F2)
        + s * F * (1 + F2) ** 2 * S1
        + SF * (1 - F2 - F * SF) * (F * (1 - F2) - s * (1 + F2) ** 2)
    )


def reference_kernel_residual(lattice, Y):
    """The per-lattice kernel quadratic that ``kernel_quadratic`` replaced."""
    t = Series1.t(Y.order)
    s = Series1.from_poly(LPoly.var(1) + LPoly.var(-1), Y.order)
    if lattice == "square":
        return t * Y * Y - (1 - t * s) * Y + t
    return t * s * Y * Y - Y + t * s


class TestKernelFromTheStepSet:
    """The kernel quadratic and its discriminant are read off the step
    set; they must equal the per-lattice expressions they replaced."""

    @pytest.mark.parametrize("lattice", ["square", "diagonal"])
    def test_quadratic_matches_the_per_lattice_one(self, lattice):
        steps = LATTICES[lattice]
        Y = engine.kernel_root_Y(steps, 12)
        for probe in (Y, Y + Series1.t(12) ** 3, Series1.x(12, 2)):
            assert engine.kernel_residual(steps, probe) == (
                reference_kernel_residual(lattice, probe))

    @pytest.mark.parametrize("lattice", ["square", "diagonal"])
    def test_quadratic_is_y_times_the_kernel(self, lattice):
        steps = LATTICES[lattice]
        a, b, c = decompose.kernel_quadratic(steps, 6)
        quad = sum(Series2.from_x_series(coeff).mul_xy(0, j)
                   for j, coeff in ((2, a), (1, b), (0, c)))
        assert decompose.kernel_series(steps, 6).mul_xy(0, 1) == -quad

    def test_discriminants_match_the_hand_written_ones(self):
        n = 12
        sp = LPoly.var(1) + LPoly.var(-1)
        lin = Series1([LPoly.const(1), -sp], n)
        square = lin * lin - Series1([LPoly(), LPoly(), LPoly.const(4)], n)
        diagonal = Series1([LPoly.const(1), LPoly(), -4 * (sp * sp)], n)
        prod = (LPoly.const(1) + LPoly.var(1)) * (LPoly.const(1)
                                                  + LPoly.var(-1))
        halved = Series1([LPoly.const(1), LPoly(), -4 * prod], n)
        assert decompose.discriminant(SQUARE, n) == square
        assert decompose.discriminant(DIAGONAL, n) == diagonal
        assert decompose.pipeline("square_origin", n).Delta == square
        assert decompose.pipeline("diagonal_origin", n).Delta == halved
