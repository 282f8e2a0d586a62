import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from askeychain import cli, families, markov
from askeychain.errors import DomainError
from askeychain.families import (
    ConvolutionRecipe,
    ConvType,
    Family,
    FamilySpec,
    measure_vector,
)
from askeychain.markov import (
    ConvolutionKernel,
    build_kernel,
    eigenvalue_moduli_excess,
    perron_frobenius_residual,
    stationary_tail_bounds,
    verify_kernel,
)
from askeychain.spectral import SpectralSystem, analytic_eigensystem, verification_report

from conftest import FINITE_GRID, TRUNCATED_GRID, grid_recipes, with_matrix
from oracles import eigvals_moduli_excess, kernel_entry, measure_direct, perron_frobenius_vector


def _at(factor, x: int, size: int) -> float:
    """One convolution factor's measure at x, from the oracle formulas."""
    return measure_direct(factor.family, factor.params, x, size)


class TestBuildTypeI:
    def test_two_point_hand_expansion(self):
        # N=1 Krawtchouk a=b=1/2: every entry is a one- or two-term sum of
        # products of binomial weights, written out by hand
        r = ConvolutionRecipe(Family.KRAWTCHOUK, ConvType.I, (0.5, 0.5))
        k = build_kernel(r, N=1).matrix
        want = np.array([[0.5, 0.25], [0.5, 0.75]])
        np.testing.assert_allclose(k, want, rtol=1e-14)
        np.testing.assert_allclose(k.sum(axis=0), 1.0, rtol=1e-14)

    def test_corner_is_single_term(self):
        r = ConvolutionRecipe(Family.KRAWTCHOUK, ConvType.I, (0.3, 0.5))
        k = build_kernel(r, N=6).matrix
        factor2, factor1 = r.factors
        assert k[0, 0] == pytest.approx(_at(factor2, 0, 6) * 1.0, rel=1e-13)

    def test_reversibility_krawtchouk(self):
        r = ConvolutionRecipe(Family.KRAWTCHOUK, ConvType.I, (0.3, 0.5))
        kern = build_kernel(r, N=5)
        flux = kern.matrix * kern.pi[None, :]
        assert np.max(np.abs(flux - flux.T)) <= 1e-13


class TestBuildTypeII:
    def test_bound_collapse_single_term(self):
        # x = y = N forces z = N: one term pi2(0, 0) pi1(N, N)
        r = ConvolutionRecipe(Family.KRAWTCHOUK, ConvType.II, (0.2, 0.6))
        k = build_kernel(r, N=2).matrix
        factor2, factor1 = r.factors
        assert k[2, 2] == pytest.approx(_at(factor2, 0, 0) * _at(factor1, 2, 2), rel=1e-13)

    def test_negative_spectrum_matches_closed_form(self):
        r = ConvolutionRecipe(Family.KRAWTCHOUK, ConvType.II, (0.2, 0.6))
        k = build_kernel(r, N=4)
        vals = np.sort(np.linalg.eigvals(k.matrix).real)
        want = np.sort([(0.2 - 0.6) ** n for n in range(5)])
        np.testing.assert_allclose(vals, want, atol=1e-12)

    def test_hahn_reversibility_vs_mapped_measure(self):
        r = ConvolutionRecipe(Family.HAHN, ConvType.II, (1.0, 1.0, 1.0))
        kern = build_kernel(r, N=3)
        pi = measure_vector(FamilySpec(Family.HAHN, (2.0, 2.0), N=3))
        np.testing.assert_allclose(pi, kern.pi, rtol=1e-14)
        flux = kern.matrix * pi[None, :]
        assert np.max(np.abs(flux - flux.T)) <= 1e-13


class TestBuildTypeIII:
    def test_corner_is_single_term(self):
        r = ConvolutionRecipe(Family.KRAWTCHOUK, ConvType.III, (0.4, 0.5))
        N = 5
        k = build_kernel(r, N=N).matrix
        factor2, factor1 = r.factors
        assert k[N, N] == pytest.approx(
            _at(factor2, N, N) * _at(factor1, 0, 0), rel=1e-13
        )

    def test_charlier_truncation_remainder(self):
        # the adaptive z-sum of the reference path has already converged:
        # doubling the summation range moves nothing at the 1e-14 scale
        r = ConvolutionRecipe(Family.CHARLIER, ConvType.III, (1.0, 0.4))
        factor2, factor1 = r.factors
        for (x, y) in [(0, 0), (3, 1), (5, 5)]:
            got = kernel_entry(r, x, y)
            zmax = max(x, y) + 200
            brute = math.fsum(
                _at(factor2, x, z) * _at(factor1, z - y, 0)
                for z in range(max(x, y), zmax)
            )
            assert abs(got - brute) <= 1e-14 * brute

    def test_qhahn_reversibility_vs_mapped_measure(self):
        a, b, c, q = 0.3, 0.5, 0.4, 0.5
        r = ConvolutionRecipe(Family.Q_HAHN, ConvType.III, (a, b, c, q))
        kern = build_kernel(r, N=3)
        pi = measure_vector(FamilySpec(Family.Q_HAHN, (c, a * b, q), N=3))
        np.testing.assert_allclose(pi, kern.pi, rtol=1e-14)
        flux = kern.matrix * pi[None, :]
        assert np.max(np.abs(flux - flux.T)) / np.max(flux) <= 1e-12


class TestVectorizedAgainstReference:
    @pytest.mark.parametrize("combo", list(FINITE_GRID))
    def test_finite_kernels_match_entry_sums(self, combo):
        fam, t = combo
        params = FINITE_GRID[combo][0]
        r = ConvolutionRecipe(fam, t, params)
        N = 7
        k = build_kernel(r, N=N).matrix
        for x in range(N + 1):
            for y in range(N + 1):
                assert k[x, y] == pytest.approx(
                    kernel_entry(r, x, y, N=N), rel=1e-12, abs=1e-250
                ), (x, y)

    @pytest.mark.parametrize("combo", list(TRUNCATED_GRID))
    def test_truncated_kernels_match_entry_sums(self, combo):
        fam, t = combo
        params = TRUNCATED_GRID[combo][0]
        r = ConvolutionRecipe(fam, t, params)
        k = markov._build_matrix(r, 13)  # raw small window
        for x in range(0, 13, 3):
            for y in range(0, 13, 3):
                want = kernel_entry(r, x, y, N=12 if t is not ConvType.III else None)
                assert k[x, y] == pytest.approx(want, rel=1e-11, abs=1e-250), (x, y)

    def test_columns_are_independent(self):
        # the kernel column for y depends only on y: rebuilding on a larger
        # lattice never changes retained columns of type iii sums, and the
        # reference entries reproduce any single column
        r = ConvolutionRecipe(Family.HAHN, ConvType.I, (1.0, 2.0, 3.0))
        k = build_kernel(r, N=6).matrix
        col = np.array([kernel_entry(r, x, 4, N=6) for x in range(7)])
        np.testing.assert_allclose(k[:, 4], col, rtol=1e-12)

    @pytest.mark.parametrize("conv_type", [ConvType.I, ConvType.III])
    def test_qhahn_tends_to_hahn_as_q_tends_to_one(self, conv_type):
        # a = q^alpha, b = q^beta, c = q^gamma: q-Hahn types i and iii tend to
        # Hahn types i and iii at (alpha, beta, gamma) (Koekoek, Lesky and
        # Swarttouw 2010), here at a distance of 1.24 (1 - q) and 1.52 (1 - q),
        # while the q-Hahn measures' factors 1 - w q^k shrink like 1 - q
        alpha, beta, gamma, N = 0.7, 1.3, 0.9, 20
        hahn = build_kernel(ConvolutionRecipe(Family.HAHN, conv_type, (alpha, beta, gamma)), N=N)
        for e in range(2, 8):
            d = 10.0**-e
            q = 1.0 - d
            recipe = ConvolutionRecipe(Family.Q_HAHN, conv_type, (q**alpha, q**beta, q**gamma, q))
            system = analytic_eigensystem(recipe, N=N)
            assert np.max(np.abs(system.kernel.matrix - hahn.matrix)) <= 2 * d, d
            assert verify_kernel(system.kernel).max_stochastic_violation <= 1e-13, d
            if e <= 5:
                assert all(c.passed for c in verification_report(system)), d


#: tail_eps of the WINDOW_POINTS columns: the default and the largest accepted
WINDOW_EPS = (1e-12, 1e-11)
#: certified window sizes (points) at each tail_eps of WINDOW_EPS
WINDOW_POINTS = {
    (Family.CHARLIER, ConvType.I, (0.4, 0.8)): (38, 35),
    (Family.CHARLIER, ConvType.I, (0.2, 0.5)): (21, 20),
    (Family.CHARLIER, ConvType.I, (0.6, 1.2)): (69, 64),
    (Family.CHARLIER, ConvType.III, (1.0, 0.4)): (33, 30),
    (Family.CHARLIER, ConvType.III, (0.5, 0.5)): (40, 37),
    (Family.CHARLIER, ConvType.III, (2.0, 0.3)): (28, 26),
    (Family.MEIXNER, ConvType.I, (1.0, 6.0, 0.2)): (342, 232),
    (Family.MEIXNER, ConvType.I, (0.5, 7.0, 0.25)): (206, 148),
    (Family.MEIXNER, ConvType.I, (2.0, 7.0, 0.25)): (345, 247),
    (Family.MEIXNER, ConvType.II, (1.0, 6.0, 0.2)): (342, 232),
    (Family.MEIXNER, ConvType.II, (0.5, 7.0, 0.25)): (206, 148),
    (Family.MEIXNER, ConvType.II, (2.0, 7.0, 0.25)): (345, 247),
    (Family.MEIXNER, ConvType.III, (6.0, 0.2, 1.0)): (337, 227),
    (Family.MEIXNER, ConvType.III, (7.0, 0.25, 0.5)): (199, 141),
    # held at 510 points by the -700 guard on ln pi
    (Family.MEIXNER, ConvType.III, (6.0, 0.25, 2.0)): (510, 366),
    (Family.CHARLIER, ConvType.I, (0.9, 20.0)): (821, 779),
}
#: the pinned windows whose column deficit misses COL_TARGET_FACTOR *
#: tail_eps at the default tail_eps: held at 510 points by the -700 guard,
#: Meixner iii (6, 0.25, 2) reads 1.414e-11 against 1e-11 (defect 18)
MISSED_AT_DEFAULT = [(Family.MEIXNER, ConvType.III, (6.0, 0.25, 2.0))]
#: recipes whose largest window misses the truncated kernel tolerance
#: (their last columns read 5.7e-4 and 1.3e-2 from 1)
UNCERTIFIED = ["meixner type=i a=1 b=1 c=0.2", "meixner type=i a=0.5 b=0.5 c=0.8"]


def certified_cutoff(spec: FamilySpec, eps: float) -> int:
    """Smallest window end M >= 4 whose certified tail bound is <= eps."""
    bounds = stationary_tail_bounds(spec)[1]
    assert bounds[-1] <= eps, "no window of the row certifies eps"
    return max(4, int(np.flatnonzero(bounds <= eps)[0]))


class TestTruncation:
    def test_charlier_cutoff_certified(self):
        spec = FamilySpec(Family.CHARLIER, (1.0,))
        M = certified_cutoff(spec, 1e-12)
        assert M >= 10
        _, bounds = stationary_tail_bounds(spec)
        assert bounds[M] <= 1e-12
        # bound is a true bound on the summed tail, and the retained window
        # carries at least 1 - eps of the mass
        pi = measure_vector(spec, M + 200)
        assert pi[M + 1 :].sum() <= bounds[M]
        assert pi[: M + 1].sum() >= 1 - 1e-12

    def test_concentrated_charlier_small_cutoff(self):
        spec = FamilySpec(Family.CHARLIER, (1e-4,))
        assert certified_cutoff(spec, 1e-12) <= 12

    def test_meixner_geometric_bound(self):
        spec = FamilySpec(Family.MEIXNER, (1.0, 0.5))
        M = certified_cutoff(spec, 1e-12)
        _, bounds = stationary_tail_bounds(spec)
        assert bounds[M] <= 1e-12
        assert measure_vector(spec, M + 400)[M + 1 :].sum() <= bounds[M]

    @pytest.mark.parametrize("spec", [
        FamilySpec(Family.CHARLIER, (1.0,)),
        FamilySpec(Family.CHARLIER, (900.0,)),
        FamilySpec(Family.MEIXNER, (0.5, 0.9)),
        FamilySpec(Family.MEIXNER, (40.0, 0.95)),
    ])
    def test_bounds_do_not_increase(self, spec):
        # the cutoff is the first certified M, so the bound row must not
        # rise again once finite, and the row is ln pi itself
        log_pi, bounds = stationary_tail_bounds(spec)
        finite = bounds[np.isfinite(bounds)]
        assert finite.size > 0
        assert np.all(np.diff(finite) <= 0.0)
        np.testing.assert_array_equal(np.exp(log_pi), measure_vector(spec, log_pi.size))

    def test_eps_range_checked(self, monkeypatch):
        # refused before any matrix is built
        def refuse(*args):
            raise AssertionError("matrix built for a refused tail_eps")

        monkeypatch.setattr(markov, "_build_matrix", refuse)
        r = ConvolutionRecipe(Family.CHARLIER, ConvType.I, (0.4, 0.8))
        for eps in (2e-11, 1e-10, 1e-6, 1e-3, 0.0, -1e-12, math.nan):
            with pytest.raises(DomainError, match=r"tail_eps must lie in \(0, 1e-11\]"):
                build_kernel(r, tail_eps=eps)

    @pytest.mark.parametrize("combo", list(TRUNCATED_GRID))
    def test_explicit_n_refused_before_any_build(self, monkeypatch, combo):
        # a semi-infinite chain is served only on its certified window, so
        # an explicit N is refused up front instead of building a window
        # whose certificate it does not meet
        def refuse(*args):
            raise AssertionError("matrix built for a refused N")

        monkeypatch.setattr(markov, "_build_matrix", refuse)
        r = ConvolutionRecipe(*combo, TRUNCATED_GRID[combo][0])
        with pytest.raises(DomainError, match="takes --eps, not N"):
            build_kernel(r, N=10)
        with pytest.raises(DomainError, match="takes --eps, not N"):
            analytic_eigensystem(r, N=10)
        with pytest.raises(DomainError, match="takes --eps, not N"):
            r.stationary_spec(10)

    def test_eps_bound_is_the_growth_target_of_the_tolerance(self):
        tol = markov.TRUNCATED_KERNEL_TOL
        assert markov.MAX_TAIL_EPS * markov.COL_TARGET_FACTOR == pytest.approx(tol, rel=1e-15)

    @pytest.mark.parametrize("spec", [
        FamilySpec(Family.KRAWTCHOUK, (0.3,), N=5),
        FamilySpec(Family.HAHN, (1.0, 2.0), N=5),
        FamilySpec(Family.Q_HAHN, (0.3, 0.5, 0.5), N=5),
    ])
    def test_finite_family_rejected(self, spec):
        # no recipe reaches this: a library misuse, not a refusal
        with pytest.raises(ValueError, match="lattice is finite") as info:
            stationary_tail_bounds(spec)
        assert not isinstance(info.value, DomainError)

    def test_truncated_lattice_is_certified(self):
        r = ConvolutionRecipe(Family.CHARLIER, ConvType.I, (0.4, 0.8))
        kern = build_kernel(r, tail_eps=1e-12)
        assert kern.tail_eps == 1e-12
        assert kern.tail_bound <= 1e-12
        assert kern.col_deficiency <= 1e-11
        assert np.max(np.abs(kern.matrix.sum(axis=0) - 1.0)) == pytest.approx(
            kern.col_deficiency
        )

    def test_lattice_envelope_keeps_its_keys_and_values(self, kernel_cache):
        # keys, order and values are those the envelopes have always carried
        finite = kernel_cache(ConvolutionRecipe(Family.HAHN, ConvType.I, (1.0, 2.0, 3.0)), 20)
        assert list(finite.lattice_dict().items()) == [("kind", "finite"), ("npoints", 21)]
        r = ConvolutionRecipe(Family.CHARLIER, ConvType.I, (0.4, 0.8))
        kern = kernel_cache(r, None)
        bounds = stationary_tail_bounds(r.stationary_spec(None))[1]
        deficiency = float(np.max(np.abs(kern.matrix.sum(axis=0) - 1.0)))
        assert list(kern.lattice_dict().items()) == [
            ("kind", "truncated"), ("npoints", 38), ("tail_eps", 1e-12),
            ("tail_bound", float(bounds[37])), ("col_deficiency", deficiency),
        ]

    def test_lattice_kind_is_the_recipes(self, kernel_cache):
        # a semi-infinite window built without its certificate is still truncated
        kern = kernel_cache(ConvolutionRecipe(Family.CHARLIER, ConvType.I, (0.4, 0.8)), None)
        bare = ConvolutionKernel(kern.pi, kern.recipe)
        assert bare.lattice_dict()["kind"] == "truncated"

    @pytest.mark.parametrize("eps", [1e-12, 1e-8, 1e-6, 1e-11],
                             ids=["0-1e-12", "1-1e-08", "2-1e-06", "3-1e-11"])
    @pytest.mark.parametrize("key", list(WINDOW_POINTS), ids=lambda k: f"{k[0].value}-{k[1].value}-{k[2]}")
    def test_window_sizes_pinned(self, kernel_cache, key, eps):
        if eps > markov.MAX_TAIL_EPS:
            # a sizing target of 10 eps would miss the 1e-10 kernel tolerance
            with pytest.raises(DomainError, match="tail_eps must lie"):
                build_kernel(ConvolutionRecipe(*key), tail_eps=eps)
            return
        kern = kernel_cache(ConvolutionRecipe(*key), None, tail_eps=eps)
        assert kern.size == WINDOW_POINTS[key][WINDOW_EPS.index(eps)]
        assert kern.tail_bound <= eps
        # the window never starts below the first certified cutoff
        M0 = certified_cutoff(kern.recipe.stationary_spec(None), eps)
        assert M0 + 1 <= kern.size

    def test_windows_that_miss_their_target_at_the_default_eps(self, kernel_cache):
        # nothing refuses or reports these yet, so a change that mends or
        # widens the miss changes this list on purpose
        eps = markov.DEFAULT_TAIL_EPS
        missed = [key for key in WINDOW_POINTS if kernel_cache(ConvolutionRecipe(*key), None,
                  tail_eps=eps).col_deficiency > markov.COL_TARGET_FACTOR * eps]
        assert missed == MISSED_AT_DEFAULT

    @pytest.mark.parametrize("recipe", [r for r, N in grid_recipes() if N is None],
                             ids=ConvolutionRecipe.to_string)
    def test_grid_passes_verify_at_largest_eps(self, kernel_cache, recipe):
        # the sizing target at the largest accepted tail_eps meets the tolerance
        kern = kernel_cache(recipe, None, tail_eps=markov.MAX_TAIL_EPS)
        failed = [c.name for c in verification_report(SpectralSystem(kern))
                  if not c.passed]
        assert not failed

    @pytest.mark.parametrize("key", list(WINDOW_POINTS), ids=lambda k: f"{k[0].value}-{k[1].value}-{k[2]}")
    def test_windows_do_not_grow_with_tail_eps(self, kernel_cache, key):
        # a window sized from its target shrinks as the target loosens
        sizes = [kernel_cache(ConvolutionRecipe(*key), None, tail_eps=eps).size
                 for eps in (1e-14, 1e-12, 1e-11)]
        assert sizes == sorted(sizes, reverse=True)

    @pytest.mark.parametrize("eps", WINDOW_EPS)
    @pytest.mark.parametrize("recipe", [r for r, N in grid_recipes() if N is None]
                             + [ConvolutionRecipe(Family.CHARLIER, ConvType.I, (0.9, 20.0))],
                             ids=ConvolutionRecipe.to_string)
    def test_sizing_bound_referees_the_built_window(self, kernel_cache, recipe, eps):
        # the bound holds for the built last column, up to the rounding of
        # its entries (1.1e-15 and 1.3e-15 on the 821- and 779-point
        # Charlier i (0.9, 20) windows, whose bound lies within 1e-12
        # relative of a 40-digit sum), and the window one point shorter
        # misses the target, so the window is the smallest one
        kern = kernel_cache(recipe, None, tail_eps=eps)
        M = kern.size - 1
        deficit = markov._last_column_deficit(recipe)
        assert deficit(M) >= abs(1.0 - kern.matrix[:, -1].sum()) - 2e-15
        if M > certified_cutoff(recipe.stationary_spec(None), eps):
            shorter = markov._build_matrix(recipe, M)
            assert abs(1.0 - shorter[:, -1].sum()) > markov.COL_TARGET_FACTOR * eps

    @pytest.mark.parametrize("text", UNCERTIFIED)
    def test_uncertified_window_is_refused_before_any_build(self, monkeypatch, capsys, text):
        def refuse(*args):
            raise AssertionError("matrix built for an uncertified window")

        monkeypatch.setattr(markov, "_build_matrix", refuse)
        start = time.perf_counter()
        assert cli.main(["verify", "--recipe", text]) == 2
        assert time.perf_counter() - start < 1.0
        assert "kernel tolerance" in capsys.readouterr().err

    def test_one_measure_row_per_window_build(self, monkeypatch):
        # the certificate, window, range guard, pi and tail bound all come
        # from one ln pi row; the sizing reads one row of each factor and
        # one grid per bound it evaluates, about log2 of the search range,
        # and the one window build reads the z range's row and evaluates its
        # two factor grids
        calls = []
        grid = families.log_measure_grid

        def counted(*args):
            calls.append(args[0])
            return grid(*args)

        monkeypatch.setattr(markov, "log_measure_grid", counted)
        monkeypatch.setattr(families, "log_measure_grid", counted)
        sizes = []
        build = markov._build_matrix
        monkeypatch.setattr(markov, "_build_matrix", lambda r, n: sizes.append(n) or build(r, n))
        kern = build_kernel(ConvolutionRecipe(Family.MEIXNER, ConvType.III, (6.0, 0.2, 1.0)))
        assert sizes == []  # the kernel builds its matrix on its first read
        assert kern.matrix.shape == (337, 337)
        assert sizes == [kern.size] == [337]
        assert len(calls) <= 3 + math.ceil(math.log2(markov.MAX_WINDOW_POINTS)) + 1 + 2


class TestVerifyKernel:
    def test_fresh_kernels_pass(self, kernel_cache):
        for recipe, N in grid_recipes():
            rep = verify_kernel(kernel_cache(recipe, N))
            assert rep.passed, (recipe.to_string(N), rep)

    def test_identity_with_uniform_pi_passes(self):
        r = ConvolutionRecipe(Family.KRAWTCHOUK, ConvType.I, (0.5, 0.5))
        kern = with_matrix(ConvolutionKernel(np.full(4, 0.25), r), np.eye(4))
        rep = verify_kernel(kern)
        assert rep.passed
        assert rep.max_stochastic_violation == 0.0
        assert rep.max_reversibility_violation == 0.0
        # identity has zero entries: tolerances pass, strict positivity not
        assert not rep.positivity

    def test_injected_fault_detected(self):
        r = ConvolutionRecipe(Family.KRAWTCHOUK, ConvType.I, (0.3, 0.5))
        kern = build_kernel(r, N=5)
        bad = kern.matrix.copy()
        bad[2, 3] += 1e-6
        rep = verify_kernel(with_matrix(kern, bad))
        assert not rep.passed
        assert rep.max_stochastic_violation == pytest.approx(1e-6, rel=1e-6)

    @pytest.mark.parametrize("family, conv_type, params", [
        (Family.HAHN, ConvType.II, (1.0, 0.5, 1.0)),
        (Family.HAHN, ConvType.III, (1.0, 2.0, 1.0)),
        (Family.KRAWTCHOUK, ConvType.I, (0.3, 0.5)),
        (Family.KRAWTCHOUK, ConvType.II, (0.2, 0.6)),
    ])
    def test_finite_kernels_at_n800_meet_default_tolerance(self, family, conv_type, params):
        # the column sums miss 1e-12 once the measures lose ~5e-13 per entry,
        # as log-gamma differences of ~4551 do; positivity is not asserted
        # (underflowed entries of the Krawtchouk kernels at this size)
        rep = verify_kernel(build_kernel(ConvolutionRecipe(family, conv_type, params), N=800))
        assert rep.tol == 1e-12
        assert rep.passed, rep

    def test_default_tolerances_by_kind(self):
        finite = build_kernel(
            ConvolutionRecipe(Family.KRAWTCHOUK, ConvType.I, (0.3, 0.5)), N=4
        )
        assert verify_kernel(finite).tol == 1e-12
        trunc = build_kernel(
            ConvolutionRecipe(Family.CHARLIER, ConvType.I, (0.4, 0.8))
        )
        assert verify_kernel(trunc).tol == 1e-10


class TestSpectralSideInvariants:
    def test_perron_frobenius_eigenvector(self, kernel_cache):
        for recipe, N in grid_recipes():
            kern = kernel_cache(recipe, N)
            assert perron_frobenius_residual(kern) <= 1e-10, recipe.to_string(N)

    def test_eigenvalue_moduli_bounded(self, kernel_cache):
        for recipe, N in grid_recipes():
            kern = kernel_cache(recipe, N)
            assert eigenvalue_moduli_excess(kern) <= 1e-12, recipe.to_string(N)

    def test_build_requires_lattice_size_for_finite(self):
        with pytest.raises(DomainError):
            build_kernel(ConvolutionRecipe(Family.KRAWTCHOUK, ConvType.I, (0.3, 0.5)))

    def test_invariants_hold_at_n60(self):
        for (fam, t), plist in FINITE_GRID.items():
            r = ConvolutionRecipe(fam, t, plist[0])
            rep = verify_kernel(build_kernel(r, N=60))
            assert rep.passed and rep.positivity, (fam, t)


class TestCertificates:
    """The Perron-Frobenius and moduli lines of ``verification_report``
    against the nonsymmetric eigensolver referees of ``tests/oracles.py``."""

    def test_perron_frobenius_vector_matches_eig_referee(self, kernel_cache):
        for recipe, N in grid_recipes():
            kern = kernel_cache(recipe, N)
            # the residual against the referee's vector in place of pi
            ref = perron_frobenius_vector(kern.matrix)
            residual = perron_frobenius_residual(with_matrix(replace(kern, pi=ref), kern.matrix))
            assert residual <= 1e-12, recipe.to_string(N)

    def test_moduli_bound_is_at_least_eigvals_referee(self, kernel_cache):
        rng = np.random.default_rng(1)
        for recipe, N in grid_recipes():
            kern = kernel_cache(recipe, N)
            bumped = kern.matrix.copy()
            bumped[0, 0] += 1e-9
            noisy = kern.matrix + 1e-6 * rng.uniform(-1.0, 1.0, kern.matrix.shape)
            # the referee is backward stable: it can read up to ~n eps above
            # the true spectral radius (2.4e-15 on the 41-point Charlier i window)
            slack = kern.size * np.finfo(float).eps
            for matrix in (kern.matrix, bumped, noisy):
                bound = eigenvalue_moduli_excess(with_matrix(kern, matrix))
                assert bound >= eigvals_moduli_excess(matrix) - slack, recipe.to_string(N)

    def test_entry_moved_up_fails_moduli_line(self, kernel_cache):
        for recipe, N in grid_recipes():
            kern = kernel_cache(recipe, N)
            n = kern.size
            for x, y in [(0, 0), (n // 2, n // 2), (n - 1, 0), (0, n - 1)]:
                bad = kern.matrix.copy()
                bad[x, y] += 1e-9
                excess = eigenvalue_moduli_excess(with_matrix(kern, bad))
                assert excess > 1e-12, (recipe.to_string(N), x, y)

    @pytest.mark.parametrize("recipe, N", [
        (ConvolutionRecipe(Family.HAHN, ConvType.II, (0.7, 1.0, 0.4)), 20),
        (ConvolutionRecipe(Family.CHARLIER, ConvType.III, (1.0, 0.4)), None),
    ])
    def test_negative_entry_fails_positivity_and_moduli(self, kernel_cache, recipe, N):
        kern = kernel_cache(recipe, N)
        # entry (0, y) made negative, its mass moved to the diagonal of the
        # same column: the column sums stay 1, the absolute sums do not
        y = kern.size - 1
        bad = kern.matrix.copy()
        d = bad[0, y] + 1e-9
        bad[0, y] -= d
        bad[y, y] += d
        bad_kern = with_matrix(kern, bad)
        checks = {c.name: c for c in verification_report(
            SpectralSystem(bad_kern))}
        assert checks["column-stochasticity"].passed
        assert not checks["positivity"].passed
        assert not checks["eigenvalue-moduli-excess"].passed

    def test_identity_kernel_fails_perron_frobenius_without_raising(self):
        # eigenvalue 1 of multiplicity 4: K - I + 1 1^T is singular
        r = ConvolutionRecipe(Family.KRAWTCHOUK, ConvType.I, (0.5, 0.5))
        kern = with_matrix(ConvolutionKernel(np.full(4, 0.25), r), np.eye(4))
        checks = {c.name: c for c in verification_report(SpectralSystem(kern))}
        assert not checks["perron-frobenius-match"].passed
        assert checks["perron-frobenius-match"].measured == math.inf


class TestRandomParameterProperties:
    """Stochasticity and detailed balance across randomly drawn valid
    parameters, not just the pinned grid."""

    @given(
        t=st.sampled_from(list(ConvType)),
        a=st.floats(0.05, 0.95),
        b=st.floats(0.05, 0.95),
    )
    @settings(max_examples=40, deadline=None)
    def test_krawtchouk_kernels(self, t, a, b):
        rep = verify_kernel(
            build_kernel(ConvolutionRecipe(Family.KRAWTCHOUK, t, (a, b)), N=9)
        )
        assert rep.passed and rep.positivity

    @given(
        t=st.sampled_from(list(ConvType)),
        a=st.floats(0.1, 8.0),
        b=st.floats(0.1, 8.0),
        c=st.floats(0.1, 8.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_hahn_kernels(self, t, a, b, c):
        rep = verify_kernel(
            build_kernel(ConvolutionRecipe(Family.HAHN, t, (a, b, c)), N=9)
        )
        assert rep.passed and rep.positivity

    @given(
        t=st.sampled_from([ConvType.I, ConvType.III]),
        a=st.floats(0.05, 0.9),
        b=st.floats(-0.9, 0.9),
        c=st.floats(0.05, 0.9),
        q=st.floats(0.2, 0.9),
    )
    @settings(max_examples=40, deadline=None)
    def test_qhahn_kernels(self, t, a, b, c, q):
        if t is ConvType.I and b <= 0.05:
            b = 0.5  # type i needs b in (0,1)
        rep = verify_kernel(
            build_kernel(ConvolutionRecipe(Family.Q_HAHN, t, (a, b, c, q)), N=9)
        )
        assert rep.passed and rep.positivity
