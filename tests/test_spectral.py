import numpy as np
import pytest

from askeychain import cli, families, spectral
from askeychain.families import (
    ConvolutionRecipe,
    ConvType,
    Family,
    FamilySpec,
    kappa_vector,
    parse_recipe,
    spectral_gap,
)
from askeychain.markov import ConvolutionKernel, build_kernel
from askeychain.spectral import (
    SpectralSystem,
    analytic_eigensystem,
    completeness_defect,
    eigen_residuals,
    orthonormality_defect,
    spectrum_comparison,
    verification_report,
)

from conftest import (
    FINITE_GRID,
    TRUNCATED_GRID,
    assert_residuals_keep_the_bits,
    basis_polynomials,
    grid_recipes,
    window_system,
    with_matrix,
)
from oracles import left_eigen_residual, right_eigen_residual


def _dummy_kernel(matrix, pi):
    r = ConvolutionRecipe(Family.KRAWTCHOUK, ConvType.I, (0.5, 0.5))
    return with_matrix(ConvolutionKernel(pi, r), matrix)


class TestClassicalHamiltonian:
    def test_uniform_pi_leaves_symmetric_kernel_alone(self):
        k = np.array([[0.6, 0.2, 0.2], [0.2, 0.6, 0.2], [0.2, 0.2, 0.6]])
        h = SpectralSystem(_dummy_kernel(k, np.full(3, 1 / 3))).hamiltonian
        np.testing.assert_allclose(h, k, rtol=1e-15)

    def test_entrywise_formula(self):
        r = ConvolutionRecipe(Family.KRAWTCHOUK, ConvType.I, (0.3, 0.5))
        kern = build_kernel(r, N=2)
        h = SpectralSystem(kern).hamiltonian
        s = np.sqrt(kern.pi)
        for x in range(3):
            for y in range(3):
                want = kern.matrix[x, y] * s[y] / s[x]
                assert h[x, y] == pytest.approx(want, rel=1e-12)
        np.testing.assert_allclose(h, h.T, atol=1e-15)

    def test_sqrt_pi_is_unit_eigenvector(self, kernel_cache):
        for recipe, N in grid_recipes():
            kern = kernel_cache(recipe, N)
            h = SpectralSystem(kern).hamiltonian
            s = np.sqrt(kern.pi)
            resid = np.max(np.abs(h @ s - s))
            tol = 1e-12 if recipe.is_finite else 1e-9
            assert resid <= tol, recipe.to_string(N)

    def test_asymmetry_is_rounding_level(self, kernel_cache):
        for recipe, N in grid_recipes():
            assert SpectralSystem(kernel_cache(recipe, N)).presym_asymmetry <= 1e-13

    def test_in_place_build_keeps_the_bits(self, kernel_cache):
        # H and its asymmetry are built in one buffer, a block row and its
        # mirror at a time; the bits are those of the plain expressions
        finite = [(recipe, 200) for recipe, N in grid_recipes() if recipe.is_finite]
        for recipe, N in grid_recipes() + finite:
            kern = kernel_cache(recipe, N)
            s = np.sqrt(kern.pi)
            h = kern.matrix * (s[None, :] / s[:, None])
            got, asymmetry = spectral._hamiltonian(kern)
            assert got.tobytes() == ((h + h.T) * 0.5).tobytes(), recipe.to_string(N)
            assert asymmetry == float(np.max(np.abs(h - h.T))), recipe.to_string(N)


class TestAnalyticEigensystem:
    def test_mode_zero_is_sqrt_pi(self):
        r = ConvolutionRecipe(Family.HAHN, ConvType.III, (1.0, 2.0, 1.0))
        sys_ = analytic_eigensystem(r, N=4)
        assert sys_.kappas[0] == 1.0
        np.testing.assert_allclose(sys_.phi[:, 0], sys_.sqrt_pi, rtol=1e-13)

    def test_system_carries_its_kernel(self):
        r = ConvolutionRecipe(Family.HAHN, ConvType.III, (1.0, 2.0, 1.0))
        kern = build_kernel(r, N=4)
        sys_ = SpectralSystem(kern)
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

    def test_residuals_in_place_keep_the_bits(self, kernel_cache):
        for recipe, N in grid_recipes():
            assert_residuals_keep_the_bits(SpectralSystem(kernel_cache(recipe, N)))


class TestNumericSpectrum:
    def test_krawtchouk_spectrum_match(self):
        sys_ = analytic_eigensystem(
            ConvolutionRecipe(Family.KRAWTCHOUK, ConvType.I, (0.3, 0.5)), N=5
        )
        assert spectrum_comparison(sys_) <= 1e-9

    def test_spectrum_inside_unit_interval(self, kernel_cache):
        for recipe, N in grid_recipes():
            kern = kernel_cache(recipe, N)
            vals = np.linalg.eigvalsh(SpectralSystem(kern).hamiltonian)
            assert vals[-1] <= 1.0 + 1e-12, recipe.to_string(N)
            assert vals[0] >= -1.0 - 1e-12, recipe.to_string(N)

    def test_unit_eigenvalue_attained_exactly_once(self, kernel_cache):
        for recipe, N in grid_recipes():
            kern = kernel_cache(recipe, N)
            sys_ = SpectralSystem(kern)
            vals = np.linalg.eigvalsh(sys_.hamiltonian)
            assert abs(vals[-1] - 1.0) <= 1e-10, recipe.to_string(N)
            assert vals[-2] <= 1.0 - 0.5 * spectral_gap(sys_.kappas), recipe.to_string(N)

    def test_degenerate_eigenvalues_compare_as_multiset(self):
        # a = b collapses every kappa(n >= 1) to zero for type ii
        sys_ = analytic_eigensystem(
            ConvolutionRecipe(Family.KRAWTCHOUK, ConvType.II, (0.5, 0.5)), N=6
        )
        assert np.max(np.abs(sys_.kappas[1:])) == 0.0
        assert spectrum_comparison(sys_) <= 1e-12

    def test_same_numbers_as_the_sorted_reverse_and_the_recomputed_gap(self, kernel_cache):
        # the spectrum is compared as eigvalsh returns it and the gap read off
        # the system's kappas, bit for bit what re-sorting the reversed
        # spectrum and evaluating kappa(n) a second time gave
        for recipe, N in grid_recipes():
            sys_ = SpectralSystem(kernel_cache(recipe, N))
            numeric = np.sort(np.linalg.eigvalsh(sys_.hamiltonian)[::-1])
            want = float(np.max(np.abs(numeric - np.sort(sys_.kappas))))
            assert spectrum_comparison(sys_) == want, recipe.to_string(N)
            gap = {c.name: c.measured for c in verification_report(sys_)}["spectral-gap"]
            kap = kappa_vector(recipe, sys_.size - 1)
            assert gap == 1.0 - float(np.max(np.abs(kap[1:]))), recipe.to_string(N)


class TestOneEvaluationPerFact:
    """One symmetric eigensolve per report; kappa(n) and phi evaluated once,
    on their first read, and H built on each read (the asymmetry, the
    spectrum and the residuals read it once each), so that it is never held
    beside phi: the report reads the gap off ``system.kappas``, and a
    command builds only what it emits."""

    RECIPES = ["hahn type=ii a=0.7 b=1.0 c=0.4 N=20", "charlier type=iii a=1.0 b=0.4"]
    FACTS = ("_hamiltonian", "kappa_vector", "orthonormal_columns")
    #: command -> the facts it builds, once per build
    BUILT = {
        "kernel": (),
        "hamiltonian": ("_hamiltonian",),
        "spectrum": ("kappa_vector",),
        "eigvecs": ("orthonormal_columns",),
        "correlation": ("kappa_vector", "orthonormal_columns"),
        "entropy": ("kappa_vector", "orthonormal_columns"),
        "verify": ("_hamiltonian",) * 3 + ("kappa_vector", "orthonormal_columns"),
    }
    #: calls per report: one eigensolve and the facts ``verify`` builds
    REPORT = {"eigvalsh": 1, "_hamiltonian": 3, "kappa_vector": 1, "orthonormal_columns": 1}

    @staticmethod
    def _count(monkeypatch):
        calls = {}

        def count(name, *owners):
            original = getattr(owners[0], name)
            calls[name] = 0

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            for owner in owners:
                monkeypatch.setattr(owner, name, counted)

        count("eigvalsh", np.linalg)
        count("kappa_vector", families, spectral)
        count("_hamiltonian", spectral)
        count("orthonormal_columns", families, spectral)
        return calls

    @pytest.mark.parametrize("text", RECIPES)
    def test_report(self, monkeypatch, text):
        recipe, N = parse_recipe(text)
        calls = self._count(monkeypatch)
        verification_report(analytic_eigensystem(recipe, N=N))
        assert calls == self.REPORT

    @pytest.mark.parametrize("text", RECIPES)
    def test_cli_verify(self, monkeypatch, tmp_path, text):
        calls = self._count(monkeypatch)
        assert cli.main(["verify", "--recipe", text, "--out", str(tmp_path / "v.txt")]) == 0
        assert calls == self.REPORT

    @pytest.mark.parametrize("text", RECIPES)
    @pytest.mark.parametrize("command", list(BUILT))
    def test_each_command_builds_only_what_it_emits(self, monkeypatch, tmp_path, command, text):
        calls = self._count(monkeypatch)
        assert cli.main([command, "--recipe", text, "--out", str(tmp_path / "out")]) == 0
        built = {name: calls[name] for name in self.FACTS}
        assert built == {name: self.BUILT[command].count(name) for name in self.FACTS}


class TestTheoremEigenvectors:
    def test_left_and_right_kernel_eigenvectors(self, kernel_cache):
        # P_n are left eigenvectors of K; pi P_n are right eigenvectors
        for (fam, t), plist in {**FINITE_GRID, **TRUNCATED_GRID}.items():
            r = ConvolutionRecipe(fam, t, plist[0])
            N = 12 if r.is_finite else None
            kern = kernel_cache(r, N)
            stationary = r.stationary_spec(kern.size - 1 if r.is_finite else None)
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
                    sys_ = SpectralSystem(kernel_cache(r, N))
                    bound = 1e-9 * (1 + N / 50.0)
                    assert np.max(eigen_residuals(sys_)) <= bound, (fam, t, params, N)

    def test_finite_orthonormal_and_complete(self, kernel_cache):
        for (fam, t), plist in FINITE_GRID.items():
            for params in plist:
                r = ConvolutionRecipe(fam, t, params)
                sys_ = SpectralSystem(kernel_cache(r, 50))
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
        sys_ = SpectralSystem(kernel_cache(r, None))
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
        sys_ = SpectralSystem(kernel_cache(r, None))
        assert spectrum_comparison(sys_) <= 1e-8

    def test_no_reliable_mode_fails_both_eigenvector_lines(self):
        # the raw 11-point Charlier window resolves no mode (mode 0 spills
        # 1.8e-7); the report must fail both lines, not raise or pass empty
        r = ConvolutionRecipe(Family.CHARLIER, ConvType.I, (0.4, 0.8))
        sys_ = window_system(r, 11)
        assert np.min(sys_.mode_norm_defects()) > 1e-10
        checks = {c.name: c for c in verification_report(sys_)}
        for name in ("eigenvector-residual", "orthonormality"):
            assert checks[name].measured == np.inf
            assert not checks[name].passed
