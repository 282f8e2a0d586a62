import numpy as np
import pytest

from askeychain.errors import ContractViolation
from askeychain.families import (
    ConvolutionRecipe,
    ConvType,
    Family,
    FamilySpec,
    kappa_vector,
)
from askeychain.markov import ConvolutionKernel, LatticeKind, LatticeSpec, build_kernel
from askeychain.spectral import (
    analytic_eigensystem,
    completeness_defect,
    eigen_residuals,
    numeric_spectrum,
    orthonormality_defect,
    spectrum_comparison,
)

from conftest import FINITE_GRID, TRUNCATED_GRID, basis_polynomials, grid_recipes
from oracles import left_eigen_residual, right_eigen_residual


def _system(kern):
    return analytic_eigensystem(kern.recipe, kernel=kern)


def _dummy_kernel(matrix, pi):
    r = ConvolutionRecipe(Family.KRAWTCHOUK, ConvType.I, (0.5, 0.5))
    return ConvolutionKernel(matrix, pi, r, LatticeSpec(LatticeKind.FINITE, len(pi)))


class TestClassicalHamiltonian:
    def test_uniform_pi_leaves_symmetric_kernel_alone(self):
        k = np.array([[0.6, 0.2, 0.2], [0.2, 0.6, 0.2], [0.2, 0.2, 0.6]])
        h = _system(_dummy_kernel(k, np.full(3, 1 / 3))).hamiltonian
        np.testing.assert_allclose(h, k, rtol=1e-15)

    def test_entrywise_formula(self):
        r = ConvolutionRecipe(Family.KRAWTCHOUK, ConvType.I, (0.3, 0.5))
        kern = build_kernel(r, N=2)
        h = _system(kern).hamiltonian
        s = np.sqrt(kern.pi)
        for x in range(3):
            for y in range(3):
                want = kern.matrix[x, y] * s[y] / s[x]
                assert h[x, y] == pytest.approx(want, rel=1e-12)
        np.testing.assert_allclose(h, h.T, atol=1e-15)

    def test_sqrt_pi_is_unit_eigenvector(self, kernel_cache):
        for recipe, N in grid_recipes():
            kern = kernel_cache(recipe, N)
            h = _system(kern).hamiltonian
            s = np.sqrt(kern.pi)
            resid = np.max(np.abs(h @ s - s))
            tol = 1e-12 if kern.lattice.kind is LatticeKind.FINITE else 1e-9
            assert resid <= tol, recipe.to_string(N)

    def test_asymmetry_is_rounding_level(self, kernel_cache):
        for recipe, N in grid_recipes():
            assert _system(kernel_cache(recipe, N)).presym_asymmetry <= 1e-13


class TestAnalyticEigensystem:
    def test_mode_zero_is_sqrt_pi(self):
        r = ConvolutionRecipe(Family.HAHN, ConvType.III, (1.0, 2.0, 1.0))
        sys_ = analytic_eigensystem(r, N=4)
        assert sys_.kappas[0] == 1.0
        np.testing.assert_allclose(sys_.phi[:, 0], sys_.sqrt_pi, rtol=1e-13)

    def test_kernel_of_another_recipe_is_refused(self):
        # accepted, it would pair Hahn iii's H with Hahn i's kappa(n) and phi
        hahn_i = ConvolutionRecipe(Family.HAHN, ConvType.I, (1.0, 2.0, 3.0))
        hahn_iii = ConvolutionRecipe(Family.HAHN, ConvType.III, (1.0, 2.0, 1.0))
        with pytest.raises(ContractViolation):
            analytic_eigensystem(hahn_i, kernel=build_kernel(hahn_iii, N=10))

    def test_system_carries_its_kernel(self):
        r = ConvolutionRecipe(Family.HAHN, ConvType.III, (1.0, 2.0, 1.0))
        kern = build_kernel(r, N=4)
        sys_ = analytic_eigensystem(r, kernel=kern)
        assert sys_.kernel is kern
        assert sys_.sqrt_pi.tobytes() == np.sqrt(kern.pi).tobytes()

    def test_hahn_iii_residuals(self):
        sys_ = analytic_eigensystem(
            ConvolutionRecipe(Family.HAHN, ConvType.III, (1.0, 2.0, 1.0)), N=4
        )
        assert np.max(eigen_residuals(sys_)) <= 1e-10

    def test_qhahn_i_residuals(self):
        sys_ = analytic_eigensystem(
            ConvolutionRecipe(Family.Q_HAHN, ConvType.I, (0.3, 0.5, 0.4, 0.5)), N=4
        )
        assert np.max(eigen_residuals(sys_)) <= 1e-10


class TestNumericSpectrum:
    def test_one_by_one(self):
        np.testing.assert_array_equal(numeric_spectrum(np.array([[0.37]])), [0.37])

    def test_sorted_descending(self):
        vals = numeric_spectrum(np.diag([0.1, 0.9, -0.5]))
        np.testing.assert_allclose(vals, [0.9, 0.1, -0.5], rtol=1e-15)

    def test_asymmetric_rejected(self):
        m = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ContractViolation):
            numeric_spectrum(m)

    def test_krawtchouk_spectrum_match(self):
        sys_ = analytic_eigensystem(
            ConvolutionRecipe(Family.KRAWTCHOUK, ConvType.I, (0.3, 0.5)), N=5
        )
        assert spectrum_comparison(sys_) <= 1e-9

    def test_spectrum_inside_unit_interval(self, kernel_cache):
        for recipe, N in grid_recipes():
            kern = kernel_cache(recipe, N)
            vals = numeric_spectrum(_system(kern).hamiltonian)
            assert vals[0] <= 1.0 + 1e-12, recipe.to_string(N)
            assert vals[-1] >= -1.0 - 1e-12, recipe.to_string(N)

    def test_unit_eigenvalue_attained_exactly_once(self, kernel_cache):
        for recipe, N in grid_recipes():
            kern = kernel_cache(recipe, N)
            vals = numeric_spectrum(_system(kern).hamiltonian)
            assert abs(vals[0] - 1.0) <= 1e-10, recipe.to_string(N)
            gap = 1.0 - float(np.max(np.abs(kappa_vector(recipe, kern.size - 1)[1:])))
            assert vals[1] <= 1.0 - 0.5 * gap, recipe.to_string(N)

    def test_degenerate_eigenvalues_compare_as_multiset(self):
        # a = b collapses every kappa(n >= 1) to zero for type ii
        sys_ = analytic_eigensystem(
            ConvolutionRecipe(Family.KRAWTCHOUK, ConvType.II, (0.5, 0.5)), N=6
        )
        assert np.max(np.abs(sys_.kappas[1:])) == 0.0
        assert spectrum_comparison(sys_) <= 1e-12


class TestTheoremEigenvectors:
    def test_left_and_right_kernel_eigenvectors(self, kernel_cache):
        # P_n are left eigenvectors of K; pi P_n are right eigenvectors
        for (fam, t), plist in {**FINITE_GRID, **TRUNCATED_GRID}.items():
            r = ConvolutionRecipe(fam, t, plist[0])
            N = 12 if r.is_finite else None
            kern = kernel_cache(r, N)
            stationary = r.stationary_spec(kern.lattice.N if r.is_finite else None)
            kap = kappa_vector(r, kern.size - 1)
            P, _ = basis_polynomials(stationary, kern.size)
            nmax = min(12, kern.size - 1)
            for n in range(nmax + 1):
                pol = P[:, n]
                assert left_eigen_residual(kern, pol, kap[n]) <= 1e-9, (fam, t, n)
                assert right_eigen_residual(kern, pol, kap[n]) <= 1e-9, (fam, t, n)

    def test_finite_eigen_residuals_full_grid(self, kernel_cache):
        for (fam, t), plist in FINITE_GRID.items():
            for params in plist:
                r = ConvolutionRecipe(fam, t, params)
                for N in (5, 20, 50):
                    sys_ = analytic_eigensystem(r, kernel=kernel_cache(r, N))
                    bound = 1e-9 * (1 + N / 50.0)
                    assert np.max(eigen_residuals(sys_)) <= bound, (fam, t, params, N)

    def test_finite_orthonormal_and_complete(self, kernel_cache):
        for (fam, t), plist in FINITE_GRID.items():
            for params in plist:
                r = ConvolutionRecipe(fam, t, params)
                sys_ = analytic_eigensystem(r, kernel=kernel_cache(r, 50))
                assert orthonormality_defect(sys_.phi) <= 1e-9
                assert completeness_defect(sys_.phi) <= 1e-9


class TestTruncatedSystems:
    """A finite window cannot carry the analytic eigensystem of the
    semi-infinite chain at its top modes (they spill past any window), so
    the closed-form checks are scoped to the modes the window resolves:
    norm defect <= 1e-10."""

    @pytest.mark.parametrize("combo", list(TRUNCATED_GRID))
    def test_reliable_modes_pass_eigen_checks(self, combo, kernel_cache):
        fam, t = combo
        r = ConvolutionRecipe(fam, t, TRUNCATED_GRID[combo][0])
        sys_ = analytic_eigensystem(r, kernel=kernel_cache(r, None))
        modes = np.flatnonzero(sys_.mode_norm_defects() <= 1e-10)
        assert modes.size >= 10
        assert np.max(eigen_residuals(sys_)[modes]) <= 1e-9
        assert orthonormality_defect(sys_.phi[:, modes]) <= 1e-9

    @pytest.mark.parametrize("combo", list(TRUNCATED_GRID))
    def test_spectrum_still_matches_globally(self, combo, kernel_cache):
        # high modes have exponentially or polynomially tiny kappa, so the
        # sorted comparison survives the window distortion
        fam, t = combo
        r = ConvolutionRecipe(fam, t, TRUNCATED_GRID[combo][0])
        sys_ = analytic_eigensystem(r, kernel=kernel_cache(r, None))
        assert spectrum_comparison(sys_) <= 1e-8
