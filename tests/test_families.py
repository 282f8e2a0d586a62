import inspect
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from askeychain import families as F
from askeychain import spectral
from askeychain.errors import DomainError
from askeychain.markov import MAX_WINDOW_POINTS
from askeychain.families import ConvolutionRecipe, ConvType, Family, FamilySpec, MeasureFactor

import oracles
from conftest import (
    FINITE_GRID,
    HAHN2_DUAL_GRID,
    TRUNCATED_GRID,
    all_combos,
    basis_polynomials,
    limit_distances,
)

SAMPLE_SPECS = [
    FamilySpec(Family.KRAWTCHOUK, (0.3,), N=12),
    FamilySpec(Family.KRAWTCHOUK, (0.5,), N=9),
    FamilySpec(Family.HAHN, (1.0, 2.0), N=10),
    FamilySpec(Family.HAHN, (0.4, 0.4), N=8),
    FamilySpec(Family.Q_HAHN, (0.3, 0.5, 0.5), N=10),
    FamilySpec(Family.Q_HAHN, (0.5, -0.4, 0.7), N=8),
    FamilySpec(Family.CHARLIER, (1.3,)),
    FamilySpec(Family.MEIXNER, (1.5, 0.4)),
]


class TestFamilySpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            FamilySpec(Family.KRAWTCHOUK, (1.2,), N=5)
        with pytest.raises(DomainError):
            FamilySpec(Family.CHARLIER, (-1.0,))
        with pytest.raises(DomainError):
            FamilySpec(Family.CHARLIER, (1.0,), N=5)
        with pytest.raises(DomainError):
            FamilySpec(Family.HAHN, (1.0, 0.0), N=5)
        with pytest.raises(DomainError):
            FamilySpec(Family.MEIXNER, (1.0, 1.5))
        with pytest.raises(DomainError):
            FamilySpec(Family.Q_HAHN, (1.3, 0.5, 0.5), N=5)
        with pytest.raises(DomainError):
            FamilySpec(Family.KRAWTCHOUK, (0.5,))

    def test_semi_infinite_spec_has_no_size(self):
        with pytest.raises(ValueError, match="^semi-infinite family has no intrinsic size$"):
            FamilySpec(Family.CHARLIER, (1.3,)).size

    def test_measure_factor_validated(self):
        # a factor carries the same range rules as a spec, without the lattice
        assert MeasureFactor(Family.KRAWTCHOUK, (0.5,)).params == (0.5,)
        with pytest.raises(DomainError):
            MeasureFactor(Family.KRAWTCHOUK, (1.2,))
        with pytest.raises(DomainError):
            MeasureFactor(Family.Q_HAHN, (0.3, 0.5))

    def test_numpy_scalar_params_round_trip(self):
        # checked parameters are stored as Python floats, so the canonical
        # string of a recipe built from numpy scalars parses back to it
        recipe = ConvolutionRecipe(Family.HAHN, ConvType.I, (np.float64(1.0), 2.0, 3.0))
        text = recipe.to_string(5)
        assert text == "hahn type=i a=1.0 b=2.0 c=3.0 N=5"
        assert F.parse_recipe(text) == (recipe, 5)
        assert recipe.stationary_spec(5).to_string() == "hahn:a=3.0,b=3.0,N=5"
        for params in (recipe.params, recipe.lambda3.params, *(m.params for m in recipe.factors)):
            assert all(type(v) is float for v in params)
        assert FamilySpec(Family.CHARLIER, (np.float32(0.5),)).to_string() == "charlier:a=0.5"
        # the range check runs on the raw values: a string is not converted
        with pytest.raises(TypeError):
            FamilySpec(Family.CHARLIER, ("0.5",))
        with pytest.raises(TypeError):
            ConvolutionRecipe(Family.CHARLIER, ConvType.I, ("0.5", 1.0))


class TestFamilyTable:
    def test_one_row_per_family(self):
        assert len(F._FAMILIES) == len(Family)
        assert set(F._FAMILIES) == set(Family)

    @pytest.mark.parametrize("key", list(F._RECIPES))
    def test_recipe_names_match_recipe_row_arity(self, key):
        factors, lambda3, kappa = F._RECIPES[key]
        arity = [len(inspect.signature(fn).parameters) for fn in (factors, lambda3, kappa)]
        n = len(F._FAMILIES[key[0]].recipe_names)
        assert arity == [n, n, n + 2]  # kappa also takes n and j

    @pytest.mark.parametrize("family", list(Family))
    def test_tail_ratio_exactly_on_z_nonneg(self, family):
        row = F._FAMILIES[family]
        assert (row.tail_ratio is not None) == (row.log_pi0 is not None) == (not row.finite)

    @pytest.mark.parametrize("family, params", [
        (Family.CHARLIER, (1e-4,)),
        (Family.CHARLIER, (1.0,)),
        (Family.CHARLIER, (20.0,)),
        (Family.CHARLIER, (900.0,)),
        (Family.MEIXNER, (0.5, 0.9)),
        (Family.MEIXNER, (1.0, 0.5)),
        (Family.MEIXNER, (40.0, 0.95)),
    ])
    def test_tail_ratio_bounds_term_ratio(self, family, params):
        # tail_ratio(M) >= r(x) for every window end M and every M < x <= 4000;
        # the two expressions round differently at x = M + 1
        row = F._FAMILIES[family]
        r = row.ratio(None, np.arange(4001, dtype=float), *params)
        beyond = np.maximum.accumulate(r[::-1])[::-1]  # beyond[x] = max r[x:]
        M = np.arange(MAX_WINDOW_POINTS)
        tail = row.tail_ratio(M, *params)
        assert np.all(tail * (1.0 + 1e-12) >= beyond[M + 1])


class TestMeasure:
    def test_krawtchouk_symmetric_binomial(self):
        spec = FamilySpec(Family.KRAWTCHOUK, (0.5,), N=2)
        np.testing.assert_allclose(
            F.measure_vector(spec), [0.25, 0.5, 0.25], rtol=1e-14
        )

    def test_charlier_at_origin(self):
        spec = FamilySpec(Family.CHARLIER, (1.0,))
        assert F.measure_vector(spec, 1)[0] == pytest.approx(math.exp(-1), rel=1e-14)

    def test_hahn_two_point(self):
        spec = FamilySpec(Family.HAHN, (1.0, 1.0), N=1)
        want = [oracles.measure_direct("hahn", (1.0, 1.0), x, N=1) for x in (0, 1)]
        np.testing.assert_allclose(F.measure_vector(spec), want, rtol=1e-14)
        np.testing.assert_allclose(want, [0.5, 0.5], rtol=1e-14)

    @pytest.mark.parametrize("spec", [s for s in SAMPLE_SPECS if s.is_finite])
    def test_matches_direct_formula(self, spec):
        pi = F.measure_vector(spec)
        for x in range(spec.size):
            want = oracles.measure_direct(
                spec.family.value, spec.params, x, N=spec.N
            )
            assert pi[x] == pytest.approx(want, rel=1e-12)

    def test_normalization_across_grid(self):
        # finite families sum to 1 within 1e-13 up to N = 100
        cases = [
            FamilySpec(Family.KRAWTCHOUK, (0.23,), N=100),
            FamilySpec(Family.KRAWTCHOUK, (0.77,), N=61),
            FamilySpec(Family.HAHN, (0.5, 3.0), N=100),
            FamilySpec(Family.HAHN, (6.0, 0.2), N=80),
            FamilySpec(Family.Q_HAHN, (0.3, 0.5, 0.5), N=100),
            FamilySpec(Family.Q_HAHN, (0.7, -0.8, 0.8), N=90),
        ]
        for spec in cases:
            assert abs(F.measure_vector(spec).sum() - 1.0) <= 1e-13, spec

    def test_positive_and_domain_errors(self):
        spec = FamilySpec(Family.KRAWTCHOUK, (0.3,), N=5)
        assert np.all(F.measure_vector(spec) > 0)
        # a window past the lattice is a library misuse, not a refusal
        with pytest.raises(ValueError) as info:
            F.measure_vector(spec, 7)
        assert not isinstance(info.value, DomainError)

    @pytest.mark.parametrize(
        "spec",
        SAMPLE_SPECS
        + [
            FamilySpec(Family.KRAWTCHOUK, (0.3,), N=200),
            FamilySpec(Family.HAHN, (1.5, 0.7), N=200),
            FamilySpec(Family.Q_HAHN, (0.3, 0.5, 0.5), N=200),
            FamilySpec(Family.CHARLIER, (20.0,)),
            FamilySpec(Family.MEIXNER, (6.0, 0.4)),
        ],
    )
    def test_grid_evaluator_matches_scalar(self, spec):
        # a one-point call of the grid evaluator equals the same point of the
        # whole row bit for bit: an entry does not depend on how far the
        # table runs, which lets one long row serve every truncation window
        npts = spec.size if spec.is_finite else 201
        row = F.measure_vector(spec, npts)
        size = spec.N if spec.N is not None else 0
        scalar = np.array([
            np.exp(F.log_measure_grid(spec.family, spec.params, np.array([x]), np.array([size])))[0]
            for x in range(npts)
        ])
        np.testing.assert_array_equal(scalar, row)

    @pytest.mark.parametrize("spec", SAMPLE_SPECS, ids=FamilySpec.to_string)
    def test_broadcast_vectors_match_full_grids(self, spec):
        # index vectors that broadcast against each other give the shape and
        # the bits of the full np.indices grids they stand for, points before
        # the lattice and past its end included
        pts, sizes = np.arange(-3, 17), np.arange(13)
        i, j = np.indices((len(pts), len(sizes)))

        def grid(p, s):
            return F.log_measure_grid(spec.family, spec.params, p, s)

        full = grid(pts[i], sizes[j])
        assert grid(pts[:, None], sizes[None, :]).tobytes() == full.tobytes()
        assert grid(pts[None, :], sizes[:, None]).tobytes() == full.T.tobytes()
        # a difference grid against one index vector, as type i reads it
        diff = pts[i] - sizes[j]
        assert grid(pts[:, None] - sizes[None, :], sizes[None, :]).tobytes() == (
            grid(diff, sizes[j]).tobytes())

    @pytest.mark.parametrize("spec", SAMPLE_SPECS, ids=FamilySpec.to_string)
    def test_numpy_scalars_give_the_rows_entry(self, spec):
        # 0-d input gives a 0-d result with the bits of the 1-D row's entry
        got = F.log_measure_grid(spec.family, spec.params, np.int64(3), np.int64(5))
        row = F.log_measure_grid(spec.family, spec.params, np.arange(6), np.int64(5))
        assert got.shape == () and got.tobytes() == row[3].tobytes()


class TestPolynomial:
    """P_n is no library function: it is read off the orthonormal basis
    (``conftest.basis_polynomials``)."""

    @pytest.mark.parametrize("spec", SAMPLE_SPECS)
    def test_degree_zero_is_one(self, spec):
        size = spec.size if spec.is_finite else 9
        P, _ = basis_polynomials(spec, size)
        np.testing.assert_array_equal(P[:, 0], 1.0)

    def test_krawtchouk_zero_value(self):
        spec = FamilySpec(Family.KRAWTCHOUK, (0.5,), N=2)
        P, _ = basis_polynomials(spec)
        assert P[1, 1] == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("spec", SAMPLE_SPECS)
    def test_unit_normalization_at_origin(self, spec):
        # recurrence path against the closed forms: phi_n(0) / (d_n sqrt(pi(0)))
        # = P_n(0) within 1e-13 of 1, with d_n and pi(0) from the oracles
        size = spec.size if spec.is_finite else 40
        phi = F.orthonormal_columns(spec, size)
        fam = spec.family.value
        sqrt_pi0 = math.sqrt(oracles.measure_direct(fam, spec.params, 0, N=spec.N))
        for n in range(0, size, max(1, size // 7)):
            d_n = math.sqrt(oracles.norm_sq_direct(fam, spec.params, n, N=spec.N))
            assert abs(phi[0, n] / (d_n * sqrt_pi0) - 1.0) <= 1e-13
        P, _ = basis_polynomials(spec, size)
        assert P[0, min(3, size - 1)] == 1.0

    def test_krawtchouk_self_duality(self):
        spec = FamilySpec(Family.KRAWTCHOUK, (0.3,), N=6)
        P, _ = basis_polynomials(spec)
        for n in range(7):
            for x in range(7):
                assert P[x, n] == pytest.approx(P[n, x], rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize(
        "spec",
        [FamilySpec(Family.CHARLIER, (1.0,)), FamilySpec(Family.MEIXNER, (1.5, 0.4))],
    )
    def test_semiinfinite_self_duality(self, spec):
        # values reach ~1e18 on this grid; the 1e-11 bound is relative
        P, _ = basis_polynomials(spec, 21)
        for n in range(21):
            for x in range(21):
                assert abs(P[x, n] - P[n, x]) <= 1e-11 * max(1.0, abs(P[x, n]))

    def test_matches_hypergeometric_series(self):
        """Recurrence vs the defining terminating series, all five families.

        The series are summed exactly in rational arithmetic at the float
        parameters, so the reference carries no rounding of its own.
        """
        ks = FamilySpec(Family.KRAWTCHOUK, (0.3,), N=8)
        hs = FamilySpec(Family.HAHN, (1.5, 0.7), N=8)
        cs = FamilySpec(Family.CHARLIER, (0.9,))
        ms = FamilySpec(Family.MEIXNER, (1.2, 0.35))
        qs = FamilySpec(Family.Q_HAHN, (0.3, 0.5, 0.5), N=8)
        pk, _ = basis_polynomials(ks)
        ph, _ = basis_polynomials(hs)
        pc, _ = basis_polynomials(cs, 6)
        pm, _ = basis_polynomials(ms, 6)
        pq, _ = basis_polynomials(qs)
        fp = Fraction(ks.params[0])
        ah, bh = map(Fraction, hs.params)
        (ac,) = map(Fraction, cs.params)
        am, bm = map(Fraction, ms.params)
        aq, bq, q = map(Fraction, qs.params)
        N = Fraction(8)
        for n in range(6):
            for x in range(6):
                m = min(n, x)
                nf, xf = Fraction(-n), Fraction(-x)
                want = oracles.hyper_frac([nf, xf], [-N], 1 / fp, m)
                assert pk[x, n] == pytest.approx(float(want), rel=1e-11, abs=1e-11)
                want = oracles.hyper_frac([nf, n + ah + bh - 1, xf], [ah, -N], Fraction(1), m)
                assert ph[x, n] == pytest.approx(float(want), rel=1e-11, abs=1e-11)
                want = oracles.hyper_frac([nf, xf], [], -1 / ac, m)
                assert pc[x, n] == pytest.approx(float(want), rel=1e-11, abs=1e-11)
                want = oracles.hyper_frac([nf, xf], [am], 1 - 1 / bm, m)
                assert pm[x, n] == pytest.approx(float(want), rel=1e-11, abs=1e-11)
                want = oracles.q_3phi2_frac(
                    [q**-n, aq * bq * q ** (n - 1), q**-x], [aq, q**-8], q, q, m
                )
                assert pq[x, n] == pytest.approx(float(want), rel=1e-11, abs=1e-11)


class TestNormConstants:
    """d_n^2 is no library function: it is read off the orthonormal basis
    (``conftest.basis_polynomials``)."""

    @pytest.mark.parametrize("spec", SAMPLE_SPECS)
    def test_d0_is_one(self, spec):
        _, d2 = basis_polynomials(spec, None if spec.is_finite else 9)
        assert d2[0] == 1.0

    def test_krawtchouk_balanced(self):
        spec = FamilySpec(Family.KRAWTCHOUK, (0.5,), N=4)
        _, d2 = basis_polynomials(spec)
        assert d2[2] == pytest.approx(6.0, rel=1e-13)

    def test_hahn_brute_force(self):
        spec = FamilySpec(Family.HAHN, (1.0, 2.0), N=3)
        pi = F.measure_vector(spec)
        P, d2 = basis_polynomials(spec)
        want = 1.0 / float(np.sum(pi * P[:, 1] * P[:, 1]))
        assert d2[1] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("spec", SAMPLE_SPECS)
    def test_orthogonality_contract(self, spec):
        size = spec.size if spec.is_finite else 26
        nmax = min(size - 1, 25)
        pi = F.measure_vector(spec, None if spec.is_finite else 180)
        P, d2 = basis_polynomials(spec, None if spec.is_finite else pi.size)
        P, d2 = P[:, : nmax + 1].T, d2[: nmax + 1]
        gram = (P * pi[None, :]) @ P.T
        target = np.diag(1.0 / d2)
        scale = 1.0 / np.sqrt(np.outer(d2, d2))
        assert np.max(np.abs(gram - target) / scale) <= 1e-10

    @pytest.mark.parametrize("spec", SAMPLE_SPECS)
    def test_ratio_matches_recurrence(self, spec):
        # d_{n+1}^2 / d_n^2 == A_n / C_{n+1}: ties the norms carried by the
        # basis to the recurrence data it was built from
        nmax = min((spec.N if spec.is_finite else 20), 20)
        A, C = F.recurrence_coefficients(spec, nmax)
        _, d2 = basis_polynomials(spec, None if spec.is_finite else nmax + 1)
        for n in range(nmax):
            assert d2[n + 1] / d2[n] == pytest.approx(A[n] / C[n + 1], rel=1e-11)


#: the finite sample specs, then the smallest lattices, on which the
#: recurrence takes zero to three steps
BASIS_SPECS = [s for s in SAMPLE_SPECS if s.is_finite] + [
    FamilySpec(family, params, N=N)
    for family, params in [
        (Family.KRAWTCHOUK, (0.3,)), (Family.HAHN, (0.4, 0.4)), (Family.Q_HAHN, (0.5, -0.4, 0.7)),
    ]
    for N in range(4)
]


def assert_direct_assembly(spec, npoints=None):
    # phi_n = d_n sqrt(pi) P_n with d_n and pi from the closed forms
    phi = F.orthonormal_columns(spec, npoints)
    size = phi.shape[0]
    P, _ = basis_polynomials(spec, npoints)
    fam = spec.family.value
    pi = np.array([oracles.measure_direct(fam, spec.params, x, N=spec.N) for x in range(size)])
    for n in range(size):
        d_n = math.sqrt(oracles.norm_sq_direct(fam, spec.params, n, N=spec.N))
        direct = d_n * np.sqrt(pi) * P[:, n]
        np.testing.assert_allclose(phi[:, n], direct, rtol=5e-9, atol=1e-13)


class TestOrthonormalColumns:
    @pytest.mark.parametrize("spec", BASIS_SPECS)
    def test_orthonormal_and_complete(self, spec):
        phi = F.orthonormal_columns(spec)
        eye = np.eye(spec.size)
        assert np.max(np.abs(phi.T @ phi - eye)) <= 1e-12
        assert np.max(np.abs(phi @ phi.T - eye)) <= 1e-12

    @pytest.mark.parametrize("spec", BASIS_SPECS)
    def test_matches_direct_assembly(self, spec):
        assert_direct_assembly(spec)

    @pytest.mark.parametrize("npoints", [1, 2, 3])
    @pytest.mark.parametrize(
        "spec", [FamilySpec(Family.CHARLIER, (1.3,)), FamilySpec(Family.MEIXNER, (1.5, 0.4))]
    )
    def test_short_windows(self, spec, npoints):
        # a window spills, so it is no orthonormal basis; it is the leading
        # block of a longer window's, and assembles directly as that one does
        phi = F.orthonormal_columns(spec, npoints)
        np.testing.assert_allclose(
            phi, F.orthonormal_columns(spec, 40)[:npoints, :npoints], rtol=1e-15, atol=0.0
        )
        assert_direct_assembly(spec, npoints)

    @pytest.mark.parametrize("spec", [
        FamilySpec(Family.Q_HAHN, (0.12, 0.3, 0.4), N=800),  # q^(-N) overflows
        FamilySpec(Family.Q_HAHN, (0.3, 0.5, 0.5), N=800),  # A_n C_{n+1} overflows
    ])
    def test_basis_outside_double_range_is_refused(self, spec):
        with pytest.raises(DomainError, match="basis leaves the double range"):
            F.orthonormal_columns(spec)

    @pytest.mark.parametrize("spec, zero", [
        (FamilySpec(Family.HAHN, (3.0, 1.5), N=6), (4, 1)),
        (FamilySpec(Family.KRAWTCHOUK, (0.5,), N=40), (20, 1)),
    ], ids=lambda v: v.to_string() if isinstance(v, FamilySpec) else str(v))
    def test_zero_pivots_give_zero_entries(self, spec, zero):
        # phi(4, 1) is exactly 0 on Hahn (3, 1.5) at N = 6, and phi(N/2, n)
        # for odd n by parity on Krawtchouk p = 1/2; the pivots next to such
        # an entry are exactly 0, and a row with an unguarded one is NaN
        phi = F.orthonormal_columns(spec)
        assert np.isfinite(phi).all()
        assert np.max(np.abs(np.sum(phi**2, axis=1) - 1.0)) <= 1e-15
        assert abs(phi[zero]) <= 1e-150

    def test_rows_reach_past_an_underflowed_measure(self):
        # lambda3 of Krawtchouk i (0.3, 0.5), p = 0.5/0.85, at N = 1999:
        # sqrt(pi(x)) underflows on 59 rows, and each row is normalized by
        # its own norm, so none is zero
        spec = ConvolutionRecipe(Family.KRAWTCHOUK, ConvType.I, (0.3, 0.5)).stationary_spec(1999)
        phi = F.orthonormal_columns(spec)
        assert phi.any(axis=1).all()
        assert spectral.orthonormality_defect(phi) <= 1e-13

    def test_finite_basis_takes_the_full_lattice(self):
        spec = FamilySpec(Family.HAHN, (1.0, 2.0), N=9)
        with pytest.raises(ValueError, match="^finite-family basis must use the full lattice$"):
            F.orthonormal_columns(spec, npoints=5)

    def test_first_column_is_sqrt_pi(self):
        spec = FamilySpec(Family.HAHN, (1.0, 2.0), N=9)
        phi = F.orthonormal_columns(spec)
        np.testing.assert_allclose(phi[:, 0], np.sqrt(F.measure_vector(spec)), rtol=1e-14)


class TestLambda3Maps:
    def test_krawtchouk_type_i_closed_form(self):
        spec = ConvolutionRecipe(Family.KRAWTCHOUK, ConvType.I, (0.3, 0.5)).lambda3
        assert spec.params[0] == pytest.approx(0.5 / (1 - 0.3 + 0.15), rel=1e-15)
        assert spec.params[0] == pytest.approx(0.5882352941176471, rel=1e-12)

    def test_krawtchouk_type_iii_adopted_form(self):
        spec = ConvolutionRecipe(Family.KRAWTCHOUK, ConvType.III, (0.4, 0.5)).lambda3
        assert spec.params[0] == pytest.approx(0.2 / (1 - 0.5 + 0.2), rel=1e-15)
        assert spec.params[0] == pytest.approx(0.2857142857142857, rel=1e-12)

    def test_hahn_type_i_sum_rule(self):
        spec = ConvolutionRecipe(Family.HAHN, ConvType.I, (1.0, 2.0, 3.0)).lambda3
        assert spec.params == (3.0, 3.0)

    def test_hahn_types_ii_iii(self):
        for t, want in [(ConvType.II, (3.0, 5.0)), (ConvType.III, (3.0, 3.0))]:
            assert ConvolutionRecipe(Family.HAHN, t, (1.0, 2.0, 3.0)).lambda3.params == want

    def test_qhahn_type_ii_does_not_exist(self):
        with pytest.raises(DomainError, match="the type ii convolution does not exist for q-hahn"):
            ConvolutionRecipe(Family.Q_HAHN, ConvType.II, (0.3, 0.5, 0.4, 0.5))

    def test_charlier_type_ii_not_constructed(self):
        with pytest.raises(DomainError, match="charlier kernels are constructed only for types i "):
            ConvolutionRecipe(Family.CHARLIER, ConvType.II, (0.4, 0.8))

    def test_charlier_type_i_range(self):
        # type i needs 0 < a < 1; p' = b/(1-a) above 1 is fine
        spec = ConvolutionRecipe(Family.CHARLIER, ConvType.I, (0.5, 1.0)).lambda3
        assert spec.params[0] == pytest.approx(2.0, rel=1e-15)
        with pytest.raises(DomainError):
            ConvolutionRecipe(Family.CHARLIER, ConvType.I, (1.2, 1.0))

    def test_meixner_type_ii_aliases_type_i(self):
        r2 = ConvolutionRecipe(Family.MEIXNER, ConvType.II, (1.0, 6.0, 0.2))
        r1 = ConvolutionRecipe(Family.MEIXNER, ConvType.I, (1.0, 6.0, 0.2))
        assert r2.conv_type is ConvType.I
        assert r2.lambda3 == r1.lambda3

    def test_lambda3_is_unsized(self):
        recipe, N = F.parse_recipe("hahn type=i a=1 b=2 c=3 N=20")
        assert recipe.lambda3 == MeasureFactor(Family.HAHN, (3.0, 3.0))
        spec = recipe.stationary_spec(N)
        assert spec == FamilySpec(Family.HAHN, (3.0, 3.0), N=20)
        assert F.measure_vector(spec).sum() == pytest.approx(1.0, rel=1e-13)
        with pytest.raises(DomainError, match="hahn needs a lattice size N >= 0, got None"):
            recipe.stationary_spec(None)


# values on both sides of every boundary (0 and 1) of the recipe ranges; the
# ones next to a boundary stay far enough off it that no lambda3 rounds onto
# it (see test_lambda3_rounded_onto_boundary_is_refused)
_EDGE_VALUES = st.sampled_from([-0.5, 0.0, 1e-3, 0.3, 0.7, 0.999, 1.0, 1.5, 6.0])


class TestRecipeRanges:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_valid_exactly_in_reference_ranges(self, data):
        fam, t = data.draw(st.sampled_from(all_combos()))
        n = len(F._FAMILIES[fam].recipe_names)
        params = tuple(data.draw(st.lists(_EDGE_VALUES, min_size=n, max_size=n)))
        if oracles.recipe_in_range(fam, t, params):
            ConvolutionRecipe(fam, t, params)
        else:
            with pytest.raises(DomainError):
                ConvolutionRecipe(fam, t, params)

    @settings(max_examples=400, deadline=None)
    @given(combo=st.sampled_from(all_combos()),
           values=st.lists(_EDGE_VALUES, min_size=4, max_size=4))
    @example(combo=(Family.HAHN, ConvType.II), values=[0.3, 0.7, 0.3, 0.3])
    def test_every_accepted_recipe_has_a_usable_spectrum(self, combo, values):
        fam, t = combo
        params = tuple(values[: len(F._FAMILIES[fam].recipe_names)])
        try:
            r = ConvolutionRecipe(fam, t, params)
        except DomainError:
            return
        kap = F.kappa_vector(r, 60)
        assert np.isfinite(kap).all()
        assert kap[0] == 1.0
        assert np.max(np.abs(kap[1:])) < 1.0

    def test_pinned_grid_in_range(self):
        for (fam, t), plist in {**FINITE_GRID, **TRUNCATED_GRID}.items():
            for params in plist:
                assert oracles.recipe_in_range(fam, t, params)
                ConvolutionRecipe(fam, t, params)

    def test_error_names_the_recipe(self):
        with pytest.raises(DomainError, match=r"charlier type i recipe \(1\.0, 1\.0\)"):
            ConvolutionRecipe(Family.CHARLIER, ConvType.I, (1.0, 1.0))

    def test_lambda3_rounded_onto_boundary_is_refused(self):
        # inside the ranges, but p = b / (1 - a + ab) = 1 - 1e-18 rounds to 1.0
        params = (1.0 - 1e-9, 1.0 - 1e-9)
        assert oracles.recipe_in_range("krawtchouk", "i", params)
        with pytest.raises(DomainError, match="got p=1.0"):
            ConvolutionRecipe(Family.KRAWTCHOUK, ConvType.I, params)


class TestKappa:
    def test_kappa0_exactly_one(self):
        for (fam, t), plist in {**FINITE_GRID, **TRUNCATED_GRID}.items():
            for params in plist:
                r = ConvolutionRecipe(fam, t, params)
                assert F.kappa_vector(r, 0)[0] == 1.0

    def test_krawtchouk_type_ii_negative(self):
        r = ConvolutionRecipe(Family.KRAWTCHOUK, ConvType.II, (0.2, 0.6))
        assert F.kappa_vector(r, 1)[1] == pytest.approx(-0.4, rel=1e-14)

    def test_moduli_strictly_below_one(self):
        for (fam, t), plist in {**FINITE_GRID, **TRUNCATED_GRID}.items():
            for params in plist:
                r = ConvolutionRecipe(fam, t, params)
                kap = F.kappa_vector(r, 50)
                assert np.max(np.abs(kap[1:])) < 1.0, (fam, t, params)

    def test_hahn_type_ii_dual_representation(self):
        # alternating finite sum == exact terminating 3F2 == production recurrence
        for a, b, c in HAHN2_DUAL_GRID:
            r = ConvolutionRecipe(Family.HAHN, ConvType.II, (a, b, c))
            kap = F.kappa_vector(r, 15)
            fa, fb, fc = map(Fraction, (a, b, c))
            for n in range(16):
                alt = oracles.hahn_type2_kappa_sum(a, b, c, n)
                ser = float(oracles.hyper_frac(
                    [Fraction(-n), n + fa + 2 * fb + fc - 1, fb], [fa + fb, fb + fc],
                    Fraction(1), n,
                ))
                assert alt == pytest.approx(ser, rel=1e-12)
                assert kap[n] == pytest.approx(ser, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("params", [
        (0.25, 0.25, 0.25), (0.5, 0.5, 0.5), (0.3, 0.7, 0.3), (1.0, 0.25, 0.5),
    ])
    def test_hahn_type_ii_where_the_first_step_cancels(self, params):
        # a + 2b + c = 1 or 2: the n = 0 recurrence coefficients are 0/0 as
        # written; the production recurrence against the exact 3F2
        kap = F.kappa_vector(ConvolutionRecipe(Family.HAHN, ConvType.II, params), 30)
        fa, fb, fc = map(Fraction, params)
        for n in range(31):
            ser = oracles.hyper_frac(
                [Fraction(-n), n + fa + 2 * fb + fc - 1, fb], [fa + fb, fb + fc], Fraction(1), n,
            )
            assert kap[n] == pytest.approx(float(ser), rel=1e-9, abs=1e-12)

    def test_qhahn_product_and_series_forms_agree(self):
        # product form (production) against the exact terminating 3phi2
        a, b, c, q = 0.3, 0.5, 0.4, 0.5
        r1 = ConvolutionRecipe(Family.Q_HAHN, ConvType.I, (a, b, c, q))
        r3 = ConvolutionRecipe(Family.Q_HAHN, ConvType.III, (a, b, c, q))
        kap1, kap3 = F.kappa_vector(r1, 5), F.kappa_vector(r3, 5)
        fa, fb, fc, fq = map(Fraction, (a, b, c, q))
        for n in range(6):
            top = [fq**-n, fa * fb * fc * fq ** (n - 1)]
            ser1 = oracles.q_3phi2_frac(top + [fb], [fa * fb, fb * fc], fq, fq, n)
            assert kap1[n] == pytest.approx(float(ser1), rel=1e-9, abs=1e-12)
            ser3 = oracles.q_3phi2_frac(top + [fa], [fa * fc, fa * fb], fq, fq, n)
            assert kap3[n] == pytest.approx(float(ser3), rel=1e-9, abs=1e-12)

    def test_spectral_gap(self):
        r = ConvolutionRecipe(Family.KRAWTCHOUK, ConvType.I, (0.3, 0.5))
        # kappa(1) = a(1-b) = 0.15 dominates
        assert F.spectral_gap(F.kappa_vector(r, 30)) == pytest.approx(1 - 0.15, rel=1e-13)
        assert F.spectral_gap(F.kappa_vector(r, 0)) == 1.0


class TestLimits:
    def test_krawtchouk_to_charlier_decreasing(self):
        d = limit_distances()["krawtchouk->charlier"]
        assert d[0] > d[1] > d[2]

    def test_pointwise_classical_limit(self):
        # |(1 - p/N)^N - e^-p| -> 0 at the origin
        for p in (0.5, 1.0, 2.0):
            errs = [
                abs((1 - p / N) ** N - math.exp(-p)) for N in (10, 100, 1000)
            ]
            assert errs[0] > errs[1] > errs[2]

    def test_hahn_to_meixner_decreasing(self):
        d = limit_distances()["hahn->meixner"]
        assert d[0] > d[1] > d[2]

    def test_meixner_to_charlier_decreasing(self):
        d = limit_distances()["meixner->charlier"]
        assert d[0] > d[1] > d[2]
