import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import FINITE_GRID, TRUNCATED_GRID, lowest_filling, window_system
from oracles import (
    jordan_wigner_ground_state,
    jordan_wigner_hamiltonian,
    jordan_wigner_operators,
    jordan_wigner_spectrum,
    many_body_energies,
    mode_operator,
    reduced_density_entropy,
)

from askeychain import fermion, markov
from askeychain.errors import DomainError
from askeychain.families import (
    ConvolutionRecipe,
    ConvType,
    Family,
    kappa_vector,
    orthonormal_columns,
    parse_recipe,
)
from askeychain.fermion import (
    CorrelationMatrix,
    FreeFermionModel,
    _binary_entropy,
    block_entropy,
    correlation_matrix,
    entropy_profile,
)
from askeychain.spectral import analytic_eigensystem, completeness_defect, orthonormality_defect


def _system(family, conv_type, params, N):
    """The system on {0..N}: the finite lattice, or the raw N+1-point window."""
    recipe = ConvolutionRecipe(family, conv_type, params)
    if recipe.is_finite:
        return analytic_eigensystem(recipe, N=N)
    return window_system(recipe, N + 1)


# every pinned recipe on a 30-site lattice (a raw window when truncated)
GRAM_SIZE = 30
GRAM_RECIPES = [
    pytest.param(fam, t, params, id=f"{fam.value}-{t.value}-{params}")
    for (fam, t), plist in {**FINITE_GRID, **TRUNCATED_GRID}.items()
    for params in plist
]


def _child_env():
    env = {**os.environ, "PYTHONPATH": str(Path(fermion.__file__).parents[1])}
    env.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    return env


#: every finite pinned tuple at N = 400 and every truncated one on its
#: certified window
THREADED_CASES = [
    pytest.param(fam, t, params, N, id=f"{fam.value}-{t.value}-{params}")
    for grid, N in ((FINITE_GRID, 400), (TRUNCATED_GRID, None))
    for (fam, t), plist in grid.items()
    for params in plist
]


def _lowest_modes(recipe, N, fill_div):
    """The correlation matrix that fills the lowest-kappa 1/fill_div of the
    modes, as the benchmark fills them, read off the basis and kappa(n)
    directly: the q-Hahn i tuples' pi underflows at N = 400 (defect 2), so
    they have no spectral system there, but their basis is orthonormal."""
    if recipe.is_finite:
        phi = orthonormal_columns(recipe.stationary_spec(N))
        kappas = kappa_vector(recipe, N)
    else:
        system = analytic_eigensystem(recipe)
        phi, kappas = system.phi, system.kappas
    order = np.argsort(kappas, kind="stable")[: len(kappas) // fill_div]
    return CorrelationMatrix(phi[:, np.sort(order)], recipe.is_finite)


class TestManyBodyEnergies:
    def test_vacuum_only(self):
        np.testing.assert_array_equal(many_body_energies(np.array([])), [0.0])

    def test_single_mode(self):
        np.testing.assert_array_equal(many_body_energies(np.array([1.0])), [0.0, 1.0])

    def test_size_cap_refused(self):
        with pytest.raises(ValueError):
            many_body_energies(np.zeros(13))


class TestJordanWignerOracle:
    def test_number_operator_spectrum(self):
        np.testing.assert_allclose(
            jordan_wigner_spectrum(np.eye(2)), [0.0, 1.0, 1.0, 2.0], atol=1e-14
        )

    def test_anticommutators_exact(self):
        ops = jordan_wigner_operators(3)
        eye = np.eye(8)
        for x in range(3):
            for y in range(3):
                anti = (ops[x].T @ ops[y] + ops[y] @ ops[x].T).toarray()
                np.testing.assert_array_equal(anti, eye * (x == y))
                zero = (ops[x] @ ops[y] + ops[y] @ ops[x]).toarray()
                np.testing.assert_array_equal(zero, np.zeros((8, 8)))

    def test_size_cap(self):
        with pytest.raises(ValueError):
            jordan_wigner_operators(13)

    def test_mode_commutator_relation(self):
        # [H_f, chat_n^dag] = kappa(n) chat_n^dag on 4 sites
        sys_ = _system(Family.KRAWTCHOUK, ConvType.I, (0.3, 0.5), 3)
        hf = jordan_wigner_hamiltonian(sys_.hamiltonian).toarray()
        ops = jordan_wigner_operators(4)
        for n in range(4):
            cdag = mode_operator(sys_.phi[:, n], ops).T.toarray()
            comm = hf @ cdag - cdag @ hf
            assert np.max(np.abs(comm - sys_.kappas[n] * cdag)) <= 1e-10

    def test_mode_anticommutators(self):
        sys_ = _system(Family.HAHN, ConvType.I, (1.0, 2.0, 3.0), 5)
        ops = jordan_wigner_operators(6)
        modes = [mode_operator(sys_.phi[:, n], ops) for n in range(6)]
        eye = np.eye(64)
        for m_ in range(6):
            for n in range(6):
                anti = (modes[m_].T @ modes[n] + modes[n] @ modes[m_].T).toarray()
                assert np.max(np.abs(anti - eye * (m_ == n))) <= 1e-12

    @pytest.mark.parametrize(
        "family,conv_type,params",
        [
            (Family.KRAWTCHOUK, ConvType.I, (0.3, 0.5)),
            (Family.KRAWTCHOUK, ConvType.II, (0.2, 0.6)),
            (Family.HAHN, ConvType.III, (1.0, 2.0, 1.0)),
            (Family.Q_HAHN, ConvType.I, (0.3, 0.5, 0.4, 0.5)),
        ],
    )
    def test_subset_sums_equal_fock_spectrum(self, family, conv_type, params):
        sys_ = _system(family, conv_type, params, 3)
        mb = many_body_energies(sys_.kappas)
        jw = jordan_wigner_spectrum(sys_.hamiltonian)
        assert np.max(np.abs(mb - jw)) <= 1e-10

    def test_equivalence_every_combination_sizes_4_and_6(self):
        # finite combos check the closed-form levels; truncated windows are
        # their own quadratic models, so their levels come from the window
        for (fam, t), plist in {**FINITE_GRID, **TRUNCATED_GRID}.items():
            recipe = ConvolutionRecipe(fam, t, plist[0])
            for size in (4, 6):
                sys_ = _system(fam, t, plist[0], size - 1)
                levels = (
                    sys_.kappas if recipe.is_finite
                    else np.linalg.eigvalsh(sys_.hamiltonian)
                )
                mb = many_body_energies(levels)
                jw = jordan_wigner_spectrum(sys_.hamiltonian)
                assert np.max(np.abs(mb - jw)) <= 1e-10, (fam, t, size)


class TestCorrelationMatrix:
    def test_default_filling_is_negative_modes(self):
        sys_ = _system(Family.KRAWTCHOUK, ConvType.II, (0.2, 0.6), 7)
        model = FreeFermionModel(sys_)
        assert model.filled_modes == frozenset({1, 3, 5, 7})
        for n in range(8):
            assert (n in model.filled_modes) == (sys_.kappas[n] < model.mu)

    def test_empty_filling_gives_zero(self):
        sys_ = _system(Family.KRAWTCHOUK, ConvType.I, (0.3, 0.5), 5)
        model = FreeFermionModel(sys_)  # all kappa > 0 at mu = 0
        assert model.filled_modes == frozenset()
        np.testing.assert_array_equal(correlation_matrix(model).matrix, 0.0)

    def test_full_filling_gives_identity(self):
        sys_ = _system(Family.HAHN, ConvType.I, (1.0, 2.0, 3.0), 6)
        model = FreeFermionModel(sys_, filled_modes=frozenset(range(7)))
        c = correlation_matrix(model).matrix
        assert np.max(np.abs(c - np.eye(7))) <= 1e-9

    def test_projector_properties(self):
        sys_ = _system(Family.KRAWTCHOUK, ConvType.II, (0.2, 0.6), 9)
        model = FreeFermionModel(sys_)
        c = correlation_matrix(model).matrix
        np.testing.assert_allclose(c, c.T, atol=1e-14)
        vals = np.linalg.eigvalsh(c)
        assert vals.min() >= -1e-10 and vals.max() <= 1 + 1e-10
        assert np.max(np.abs(c @ c - c)) <= 1e-9
        assert np.trace(c) == pytest.approx(len(model.filled_modes), abs=1e-10)

    def test_negative_mode_count_from_formula(self):
        # kappa(n) = (a-b)^n with a < b: odd modes negative, ceil(N/2) many
        for N in (6, 9):
            sys_ = _system(Family.KRAWTCHOUK, ConvType.II, (0.2, 0.6), N)
            model = FreeFermionModel(sys_)
            assert len(model.filled_modes) == (N + 1) // 2
            c = correlation_matrix(model).matrix
            assert np.trace(c) == pytest.approx((N + 1) // 2, abs=1e-10)

    def test_matrix_is_the_filled_mode_product_bit_for_bit(self):
        # the correlation export writes these bits
        sys_ = _system(Family.KRAWTCHOUK, ConvType.II, (0.2, 0.6), 40)
        model = FreeFermionModel(sys_)
        phi = sys_.phi[:, sorted(model.filled_modes)]
        corr = correlation_matrix(model)
        np.testing.assert_array_equal(corr.modes, phi)
        assert corr.matrix.tobytes() == (phi @ phi.T).tobytes()

    def test_principal_submatrix_spectrum_contained(self):
        sys_ = _system(Family.KRAWTCHOUK, ConvType.II, (0.3, 0.7), 9)
        c = correlation_matrix(FreeFermionModel(sys_)).matrix
        for start, stop in [(0, 4), (2, 8), (5, 10)]:
            vals = np.linalg.eigvalsh(c[start:stop, start:stop])
            assert vals.min() >= -1e-10 and vals.max() <= 1 + 1e-10

    def test_filled_modes_validated(self):
        sys_ = _system(Family.KRAWTCHOUK, ConvType.I, (0.3, 0.5), 4)
        # out of range, non-integral, an integral float and a bool
        for modes in ({9}, {1.5}, {2.0}, {True}):
            with pytest.raises(DomainError):
                FreeFermionModel(sys_, filled_modes=frozenset(modes))
        model = FreeFermionModel(sys_, filled_modes={np.int64(2), 0})
        assert model.filled_modes == {0, 2}
        assert all(type(n) is int for n in model.filled_modes)


class TestBlockEntropy:
    def test_empty_block(self):
        sys_ = _system(Family.KRAWTCHOUK, ConvType.II, (0.2, 0.6), 5)
        c = correlation_matrix(FreeFermionModel(sys_))
        assert block_entropy(c, (2, 2)) == 0.0

    def test_full_lattice_pure_state(self):
        sys_ = _system(Family.KRAWTCHOUK, ConvType.II, (0.2, 0.6), 7)
        c = correlation_matrix(FreeFermionModel(sys_))
        assert block_entropy(c, (0, 8)) <= 1e-8

    def test_block_bounds_checked(self):
        sys_ = _system(Family.KRAWTCHOUK, ConvType.II, (0.2, 0.6), 5)
        c = correlation_matrix(FreeFermionModel(sys_))
        for block in [(0, 9), (9, 9), (-3, -3)]:
            with pytest.raises(DomainError):
                block_entropy(c, block)

    @pytest.mark.parametrize(
        "family,conv_type,params,N,mu",
        [
            (Family.KRAWTCHOUK, ConvType.II, (0.2, 0.6), 7, 0.0),
            (Family.HAHN, ConvType.I, (1.0, 2.0, 3.0), 7, 0.3),
        ],
    )
    def test_matches_reduced_density_oracle(self, family, conv_type, params, N, mu):
        sys_ = _system(family, conv_type, params, N)
        model = FreeFermionModel(sys_, mu=mu)
        assert model.filled_modes, "oracle comparison needs a nontrivial state"
        corr = correlation_matrix(model)
        psi = jordan_wigner_ground_state(sys_.phi, model.filled_modes)
        for k in range(N + 2):
            got = block_entropy(corr, (0, k))
            want = reduced_density_entropy(psi, k)
            assert abs(got - want) <= 1e-8, k

    def test_complementarity_for_pure_states(self):
        sys_ = _system(Family.KRAWTCHOUK, ConvType.II, (0.2, 0.6), 9)
        c = correlation_matrix(FreeFermionModel(sys_))
        for k in range(1, 10):
            left = block_entropy(c, (0, k))
            right = block_entropy(c, (k, 10))
            assert abs(left - right) <= 1e-8

    def test_qhahn_400_entropies_that_vanish_read_zero(self):
        # q-Hahn iii (0.3, 0.5, 0.4, 0.5) at N = 400: orthonormality,
        # completeness and blocks whose exact entropy is 0 read within
        # twice a twisted-basis prototype's 4.2e-14, 3.2e-14, 5.2e-12 and
        # 1.4e-11 (upward and downward recurrences spliced read 3.1e-11,
        # 4.3e-11, 1.02e-9 and 7.4e-9)
        sys_ = _system(Family.Q_HAHN, ConvType.III, (0.3, 0.5, 0.4, 0.5), 400)
        assert orthonormality_defect(sys_.phi) <= 8.4e-14
        assert completeness_defect(sys_.phi) <= 6.4e-14
        n = sys_.size
        quarter = correlation_matrix(lowest_filling(sys_, n // 4))
        assert max(block_entropy(quarter, (0, k)) for k in range(150, 201)) <= 1.04e-11
        half = correlation_matrix(lowest_filling(sys_, n // 2))
        assert max(block_entropy(half, (k, n)) for k in range(100, 151)) <= 2.8e-11

    def test_profile_endpoints_and_shape(self):
        sys_ = _system(Family.HAHN, ConvType.I, (1.0, 2.0, 3.0), 9)
        model = FreeFermionModel(sys_, mu=0.5)
        prof = entropy_profile(correlation_matrix(model))
        assert prof.size == 11
        assert prof[0] == 0.0
        assert prof[-1] <= 1e-8
        assert prof.max() > 0.1


class TestGramBranches:
    """A block [s, t) of C = Q Q^T is solved as the smaller of A A^T (k x k)
    and A^T A (m x m), A = Q[s:t]; both must give the entropy of the
    explicit block of C."""

    @pytest.mark.parametrize("fill_div", [4, 2])
    @pytest.mark.parametrize("family,conv_type,params", GRAM_RECIPES)
    def test_blocks_around_m_match_explicit_correlation(
        self, family, conv_type, params, fill_div
    ):
        sys_ = _system(family, conv_type, params, GRAM_SIZE - 1)
        m = GRAM_SIZE // fill_div
        corr = correlation_matrix(lowest_filling(sys_, m))
        assert corr.modes.shape == (GRAM_SIZE, m)
        c = corr.matrix
        for k in (m - 1, m, m + 1):
            for start in (0, 3, GRAM_SIZE - k):
                stop = start + k
                want = _binary_entropy(np.linalg.eigvalsh(c[start:stop, start:stop]))
                got = block_entropy(corr, (start, stop))
                assert abs(got - want) <= 1e-12, (start, stop)

    @pytest.mark.parametrize("family,conv_type,params", GRAM_RECIPES)
    def test_empty_filling_profile_is_exactly_zero(self, family, conv_type, params):
        # m = 0: every nonempty block solves a 0 x 0 Gram matrix
        sys_ = _system(family, conv_type, params, GRAM_SIZE - 1)
        corr = correlation_matrix(FreeFermionModel(sys_, filled_modes=frozenset()))
        prof = entropy_profile(corr)
        assert prof.shape == (GRAM_SIZE + 1,)
        assert all(s == 0.0 and not np.signbit(s) for s in prof)
        assert block_entropy(corr, (5, 20)) == 0.0

    @pytest.mark.parametrize(
        "family,conv_type,params",
        [p for p in GRAM_RECIPES if ConvolutionRecipe(*p.values).is_finite],
    )
    def test_full_filling_profile_vanishes(self, family, conv_type, params):
        # finite lattices only: on a truncated window the columns of phi are
        # not orthonormal, so filling every mode gives no projector
        sys_ = _system(family, conv_type, params, GRAM_SIZE - 1)
        model = FreeFermionModel(sys_, filled_modes=frozenset(range(GRAM_SIZE)))
        assert np.max(entropy_profile(correlation_matrix(model))) <= 1e-8


def _clip_and_where_entropy(lams):
    # reference: clip into [0, 1], then zero the terms at 0 and 1
    lams = np.clip(lams, 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = lams * np.log(lams) + (1.0 - lams) * np.log1p(-lams)
    return float(0.0 - np.sum(np.where((lams > 0.0) & (lams < 1.0), terms, 0.0)))


class TestBinaryEntropy:
    def test_values_outside_open_unit_interval_add_nothing(self):
        half = _binary_entropy(np.array([0.5]))
        assert half == pytest.approx(np.log(2.0), rel=1e-15)
        spectrum = np.array(
            [0.0, -1e-13, -2.0, 0.5, 1.0, 1.0 + 2e-13, 7.0, np.nan, -np.inf, np.inf]
        )
        assert _binary_entropy(spectrum) == half

    @pytest.mark.parametrize(
        "lams",
        [[], [0.0], [-0.0, 1.0], [-1e-300, 1.0 + 1e-15], [np.nan, np.nan], [0.0] * 300],
        ids=["empty", "zero", "ends", "just-outside", "nan", "many-zeros"],
    )
    def test_all_excluded_is_positive_zero(self, lams):
        s = _binary_entropy(np.array(lams, dtype=float))
        assert type(s) is float and s == 0.0 and not np.signbit(s)

    def test_matches_clip_and_where_formula(self):
        # the two sum different-length arrays, so they differ only in rounding
        rng = np.random.default_rng(13)
        for _ in range(500):
            n = int(rng.integers(0, 400))
            lams = rng.uniform(-0.2, 1.2, n)
            lams[rng.random(n) < 0.2] = 0.0
            lams[rng.random(n) < 0.1] = 1.0
            lams[rng.random(n) < 0.02] = np.nan
            want = _clip_and_where_entropy(lams)
            assert abs(_binary_entropy(lams) - want) <= 1e-15 * max(1.0, want)


def _own_block(corr, k):
    """The block whose entropy is profile entry k: [k, n) for the right half
    of a pure state, [0, k) otherwise."""
    n = corr.size
    return (k, n) if corr.pure and k > n // 2 else (0, k)


class TestSweep:
    """entropy_profile shares its products across k (a leading block of C
    for k <= m, rank-one Gram updates for k > m), and on a finite lattice
    sweeps from both ends; each entry must still be the entropy of its own
    block, computed from the rows of that block."""

    @pytest.mark.parametrize("m", [1, GRAM_SIZE // 4, GRAM_SIZE // 2, GRAM_SIZE])
    @pytest.mark.parametrize("family,conv_type,params", GRAM_RECIPES)
    def test_profile_matches_per_block_entropy(self, family, conv_type, params, m):
        sys_ = _system(family, conv_type, params, GRAM_SIZE - 1)
        corr = correlation_matrix(lowest_filling(sys_, m))
        assert corr.pure == ConvolutionRecipe(family, conv_type, params).is_finite
        prof = entropy_profile(corr)
        assert prof.shape == (GRAM_SIZE + 1,)
        for k in range(GRAM_SIZE + 1):
            assert abs(prof[k] - block_entropy(corr, _own_block(corr, k))) <= 1e-12, k

    def test_profile_matches_per_block_entropy_at_401_sites(self):
        sys_ = _system(Family.KRAWTCHOUK, ConvType.II, (0.2, 0.6), 400)
        corr = correlation_matrix(lowest_filling(sys_, sys_.size // 2))
        prof = entropy_profile(corr)
        want = [block_entropy(corr, _own_block(corr, k)) for k in range(sys_.size + 1)]
        assert np.max(np.abs(prof - want)) <= 1e-11

    @pytest.mark.parametrize(
        "family,conv_type,params,k",
        [pytest.param(Family.HAHN, ConvType.I, (1.0, 2.0, 3.0), k, id=f"finite-{k}")
         for k in (0, 3, 9, 10, 11, 15, 16, 19, 20, 21, 27, 30)]
        + [pytest.param(Family.CHARLIER, ConvType.I, (0.4, 0.8), k, id=f"truncated-{k}")
           for k in (0, 3, 9, 10, 11, 17, 30)],
    )
    def test_each_entry_reads_only_its_own_blocks_rows(self, family, conv_type, params, k):
        # spoiling the rows outside entry k's block leaves it bit for bit as
        # it was: on a finite lattice, the rows k.. for the left half and
        # the rows ..k for the right half; on a truncated window, left only
        sys_ = _system(family, conv_type, params, GRAM_SIZE - 1)
        corr = correlation_matrix(lowest_filling(sys_, 10))
        right = corr.pure and k > GRAM_SIZE // 2
        entries = slice(k, None) if right else slice(None, k + 1)
        spoiled = corr.modes.copy()
        rows = slice(None, k) if right else slice(k, None)
        spoiled[rows] = np.random.default_rng(k).normal(size=spoiled[rows].shape)
        want = entropy_profile(corr)[entries]
        got = entropy_profile(CorrelationMatrix(spoiled, corr.pure))[entries]
        assert got.tobytes() == want.tobytes()

    @staticmethod
    def _eigenproblem_orders(monkeypatch, pure):
        """The order of each matrix solved in a half-filling profile, a
        stack's matrices counted one by one, with (n, m)."""
        if pure:
            sys_ = _system(Family.KRAWTCHOUK, ConvType.II, (0.2, 0.6), 400)
        else:
            sys_ = _system(Family.CHARLIER, ConvType.I, (0.4, 0.8), 60)
        n = sys_.size
        m = n // 2
        corr = correlation_matrix(lowest_filling(sys_, m))
        assert corr.pure == pure
        orders = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a):
            orders.extend([a.shape[-1]] * (len(a) if a.ndim == 3 else 1))
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        entropy_profile(corr)
        return orders, n, m

    @pytest.mark.parametrize("pure", [True, False])
    def test_eigenproblem_orders(self, monkeypatch, pure):
        # every eigensolve of a finite 401-site profile at half filling has
        # order min(k, n - k, m), and their cubes sum to at most 0.45 of the
        # left sweep's; a truncated window keeps the orders min(k, m), in
        # entry order with the pool off
        monkeypatch.setattr(fermion, "_worker_count", lambda: 0)
        orders, n, m = self._eigenproblem_orders(monkeypatch, pure)
        left = [min(k, m) for k in range(1, n + 1)]
        if not pure:
            assert orders == left
            return
        assert sorted(orders) == sorted(min(k, n - k, m) for k in range(1, n))
        assert sum(o**3 for o in orders) <= 0.45 * sum(o**3 for o in left)

    @pytest.mark.parametrize("pure", [True, False])
    def test_pooled_eigenproblem_orders(self, monkeypatch, pooled, pure):
        # the same orders on the pool, whose stacks run beside the leading
        # blocks, so they are compared sorted
        orders, n, m = self._eigenproblem_orders(monkeypatch, pure)
        if not pure:
            assert sorted(orders) == [min(k, m) for k in range(1, n + 1)]
            return
        assert sorted(orders) == sorted(min(k, n - k, m) for k in range(1, n))

    @pytest.mark.parametrize("fill_div", [4, 2])
    @pytest.mark.parametrize("family,conv_type,params,N", THREADED_CASES)
    def test_threaded_profile_keeps_the_bits(self, monkeypatch, pooled, family, conv_type,
                                             params, N, fill_div):
        # every matrix reaches the LAPACK call of the serial sweep, alone or
        # in a stack, so the profile on the pool is the serial one byte for
        # byte.  A profile with no whole Gram stack (a finite lattice at half
        # filling) never asks for workers: it is the serial sweep itself
        corr = _lowest_modes(ConvolutionRecipe(family, conv_type, params), N, fill_div)
        asked = []
        monkeypatch.setattr(fermion, "_worker_count", lambda: asked.append(pooled) or pooled)
        threaded = entropy_profile(corr)
        if not asked:
            return
        monkeypatch.setattr(fermion, "_worker_count", lambda: 0)
        assert threaded.tobytes() == entropy_profile(corr).tobytes()

    @pytest.mark.parametrize("family,conv_type,params,N,fill_div", [
        (Family.MEIXNER, ConvType.III, (6.0, 0.2, 1.0), None, 4),  # 42 stacks of 6 (m = 84)
        (Family.HAHN, ConvType.I, (1.0, 2.0, 3.0), 200, 4),  # 4 of 11 per side, the last 17 long
        (Family.HAHN, ConvType.I, (1.0, 2.0, 3.0), 200, 2),  # no Gram run
        (Family.CHARLIER, ConvType.I, (0.4, 0.8), None, 2),  # one short run of 19, short of 27
    ])
    def test_every_stack_releases_the_gil(self, monkeypatch, pooled, family, conv_type, params,
                                          N, fill_div):
        # numpy 2.4.6's eigvalsh releases the GIL for a stack only when
        # (matrices) x (order) > 500.  Every stack on the pool passes it; the
        # only stack that does not is a whole Gram run shorter than one
        # stack, which is solved on the calling thread
        corr = _lowest_modes(ConvolutionRecipe(family, conv_type, params), N, fill_div)
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def recording(a):
            calls.append((a.shape, threading.current_thread().name.startswith("askeychain-gram")))
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        entropy_profile(corr)
        n, m = corr.modes.shape
        count = fermion._stack_size(m)
        sweeps = (n // 2, n - n // 2 - 1) if corr.pure else (n,)
        runs = [kmax - m for kmax in sweeps if kmax > m]
        stacks = [(shape, on_pool) for shape, on_pool in calls if len(shape) == 3]
        assert any(on_pool for _, on_pool in stacks) == any(run >= count for run in runs)
        assert all(size * order > 500 for (size, order, _), on_pool in stacks if on_pool)
        held = [(size, on_pool) for (size, order, _), on_pool in stacks if size * order <= 500]
        assert held == [(run, False) for run in runs if run < count]

    def test_more_workers_than_cores_keep_the_bits(self, monkeypatch):
        # a stress run: twice as many workers as cores plus one, and the
        # interpreter switching threads every microsecond; each stack's
        # result still lands on its own entries, and the sweep finishes
        corr = _lowest_modes(ConvolutionRecipe(Family.MEIXNER, ConvType.III, (6.0, 0.2, 1.0)),
                             None, 4)
        monkeypatch.setattr(fermion, "_worker_count", lambda: 0)
        want = entropy_profile(corr)
        workers = 2 * (os.cpu_count() or 1) + 1
        monkeypatch.setattr(fermion, "_worker_count", lambda: workers)
        monkeypatch.setattr(fermion, "_POOL", [])
        got = []
        runner = threading.Thread(target=lambda: got.append(entropy_profile(corr)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            for executor in fermion._POOL:
                executor.shutdown(wait=not runner.is_alive())
        assert not runner.is_alive()
        assert got[0].tobytes() == want.tobytes()

    @pytest.mark.parametrize("pin_cpu, blas_env", [(True, True), (False, False)],
                             ids=["one-cpu", "blas-unpinned"])
    def test_serial_child_starts_no_thread(self, pin_cpu, blas_env):
        # a child confined to one CPU, or whose environment leaves the BLAS
        # thread count open, sweeps a Gram run serially: no worker thread,
        # and no concurrent.futures import
        if not hasattr(os, "sched_setaffinity"):
            pytest.skip("no CPU affinity on this platform")
        env = _child_env()
        if not blas_env:
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
                del env[var]
        # a quarter filling of 201 sites: 50 Gram matrices, in stacks of 11
        code = (
            "import os, sys, threading\n"
            f"if {pin_cpu}: os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})\n"
            "from askeychain import *\n"
            "s = analytic_eigensystem(*parse_recipe('hahn type=i a=1 b=2 c=3 N=200'))\n"
            "model = FreeFermionModel(s, filled_modes=frozenset(range(50)))\n"
            "entropy_profile(correlation_matrix(model))\n"
            "print(threading.active_count(), 'concurrent.futures' in sys.modules)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=60).stdout
        assert out.split() == ["1", "False"]

    @pytest.mark.parametrize("env, cpus, workers", [
        ({"OPENBLAS_NUM_THREADS": "1"}, {0, 1}, 2),
        ({"OMP_NUM_THREADS": "1"}, {0, 1, 2}, 3),
        ({"OPENBLAS_NUM_THREADS": "1"}, {0}, 0),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, {0, 1}, 0),
        ({"OMP_NUM_THREADS": "4"}, {0, 1}, 0),
        ({}, {0, 1}, 0),
    ])
    def test_pool_needs_one_blas_thread(self, monkeypatch, env, cpus, workers):
        # a solve on several BLAS threads beside the pool ran slower than the
        # serial sweep, so the pool runs only where the environment pins
        # OpenBLAS (OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS) to one thread
        for var in fermion._BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        assert fermion._worker_count() == workers

    def test_forked_child_sweeps_on_its_own_pool(self, pooled):
        # an executor inherited across fork has no threads, so a child that
        # used it would never see its stacks solved
        corr = _lowest_modes(ConvolutionRecipe(Family.HAHN, ConvType.I, (1.0, 2.0, 3.0)), 200, 4)
        want = entropy_profile(corr)
        assert fermion._POOL
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # fork beside threads
            pid = os.fork()
        if pid == 0:
            code = 4  # the child's sweep raised
            try:
                code = 0 if entropy_profile(corr).tobytes() == want.tobytes() else 3
            finally:
                os._exit(code)
        for _ in range(600):
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.1)
        else:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's sweep did not finish in 60 s")
        assert os.waitstatus_to_exitcode(status) == 0


class TestEntropyPathBuildsNoKernel:
    @pytest.mark.parametrize("text", ["hahn type=i a=1 b=2 c=3 N=60", "meixner type=iii a=6 b=0.2 c=1"])
    def test_pipeline_runs_with_the_matrix_builder_refused(self, monkeypatch, text):
        # the benchmark's entropy op: kappa(n), phi, the filling, C, the
        # profile and one block read pi and the basis, never K
        def refuse(*args):
            raise AssertionError("kernel matrix built on the entropy path")

        monkeypatch.setattr(markov, "_build_matrix", refuse)
        recipe, N = parse_recipe(text)
        system = analytic_eigensystem(recipe, N=N)
        corr = correlation_matrix(lowest_filling(system, system.size // 4))
        n = corr.size
        profile = entropy_profile(corr)
        assert profile.shape == (n + 1,)
        assert block_entropy(corr, (n // 4, n - n // 4)) >= 0.0
        assert "matrix" not in vars(system.kernel)
