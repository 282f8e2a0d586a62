"""Acceptance suite: one test per release criterion, one verdict line each.

Grid scope.  Finite-lattice combinations run at N in {5, 20, 50}; the
semi-infinite ones run on their certified truncation windows at
tail_eps = 1e-12.  The closed-form eigensystem of a semi-infinite chain is
not an eigensystem of any finite window at its top modes (they always
spill), so the eigenvector criteria include the truncated systems through
the modes their windows resolve (norm defect <= 1e-10) and apply in full
to every finite combination.
"""

import math
import time
from fractions import Fraction

import numpy as np

from askeychain.families import (
    ConvolutionRecipe,
    ConvType,
    Family,
    FamilySpec,
    measure_vector,
)
from askeychain.fermion import (
    FreeFermionModel,
    block_entropy,
    correlation_matrix,
)
from askeychain.spectral import (
    SpectralSystem,
    analytic_eigensystem,
    completeness_defect,
    eigen_residuals,
    orthonormality_defect,
    spectrum_comparison,
)

import oracles
from oracles import (
    jordan_wigner_ground_state,
    jordan_wigner_spectrum,
    many_body_energies,
    reduced_density_entropy,
)
from conftest import (
    ACCEPT_NS,
    ACCEPT_TAIL_EPS,
    FINITE_GRID,
    HAHN2_DUAL_GRID,
    TRUNCATED_GRID,
    limit_distances,
    window_system,
)


def _finite_cases(kernel_cache):
    for (fam, t), plist in FINITE_GRID.items():
        for params in plist:
            recipe = ConvolutionRecipe(fam, t, params)
            for N in ACCEPT_NS:
                yield recipe, N, kernel_cache(recipe, N)


def _truncated_cases(kernel_cache):
    for (fam, t), plist in TRUNCATED_GRID.items():
        for params in plist:
            recipe = ConvolutionRecipe(fam, t, params)
            yield recipe, None, kernel_cache(recipe, None)


def _verdict(num, name, passed, detail):
    print(f"criterion {num:2d} ({name}): {'PASS' if passed else 'FAIL'} — {detail}")


def test_criterion_01_stochasticity(kernel_cache):
    t0 = time.perf_counter()
    worst_fin = worst_tr = 0.0
    for recipe, N, kern in _finite_cases(kernel_cache):
        dev = float(np.max(np.abs(kern.matrix.sum(axis=0) - 1.0)))
        worst_fin = max(worst_fin, dev)
    for recipe, _, kern in _truncated_cases(kernel_cache):
        dev = float(np.max(np.abs(kern.matrix.sum(axis=0) - 1.0)))
        worst_tr = max(worst_tr, dev)
    elapsed = time.perf_counter() - t0
    ok = worst_fin <= 1e-12 and worst_tr <= 1e-10 and elapsed < 30.0
    _verdict(
        1, "stochasticity",
        ok, f"max col dev finite {worst_fin:.2e} (tol 1e-12), "
        f"truncated {worst_tr:.2e} (tol 1e-10), {elapsed:.1f}s",
    )
    assert worst_fin <= 1e-12
    assert worst_tr <= 1e-10
    assert elapsed < 30.0


def test_criterion_02_detailed_balance(kernel_cache):
    worst = 0.0
    for recipe, N, kern in list(_finite_cases(kernel_cache)) + list(
        _truncated_cases(kernel_cache)
    ):
        flux = kern.matrix * kern.pi[None, :]
        worst = max(worst, float(np.max(np.abs(flux - flux.T)) / np.max(flux)))
    # adjudication of the type iii Krawtchouk parameter map: the adopted
    # p = ab/(1-b+ab) balances, the printed variant ab/(1-a+ab) does not
    variant_min = math.inf
    for a, b in FINITE_GRID[(Family.KRAWTCHOUK, ConvType.III)]:
        recipe = ConvolutionRecipe(Family.KRAWTCHOUK, ConvType.III, (a, b))
        kern = kernel_cache(recipe, 20)
        p_variant = a * b / (1 - a + a * b)
        pi_variant = measure_vector(FamilySpec(Family.KRAWTCHOUK, (p_variant,), N=20))
        flux = kern.matrix * pi_variant[None, :]
        variant_min = min(
            variant_min, float(np.max(np.abs(flux - flux.T)) / np.max(flux))
        )
    ok = worst <= 1e-12 and variant_min > 1e-6
    _verdict(
        2, "detailed balance",
        ok, f"max violation {worst:.2e} (tol 1e-12); "
        f"rejected-variant violation {variant_min:.2e} (> 1e-6)",
    )
    assert worst <= 1e-12
    assert variant_min > 1e-6


def test_criterion_03_spectrum_match(kernel_cache):
    t0 = time.perf_counter()
    worst = 0.0
    for recipe, N, kern in list(_finite_cases(kernel_cache)) + list(
        _truncated_cases(kernel_cache)
    ):
        sys_ = SpectralSystem(kern)
        worst = max(worst, spectrum_comparison(sys_))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 60.0
    _verdict(
        3, "spectrum vs eigensolver",
        ok, f"max |sorted kappa - sorted eig| {worst:.2e} (tol 1e-8), "
        f"all 13 combinations, {elapsed:.1f}s",
    )
    assert worst <= 1e-8
    assert elapsed < 60.0


def test_criterion_04_eigenvector_residuals(kernel_cache):
    worst = 0.0
    for recipe, N, kern in _finite_cases(kernel_cache):
        sys_ = SpectralSystem(kern)
        bound = 1e-9 * (1 + N / 50.0)
        rel = float(np.max(eigen_residuals(sys_))) / bound
        worst = max(worst, rel)
    worst_tr = 0.0
    for recipe, _, kern in _truncated_cases(kernel_cache):
        sys_ = SpectralSystem(kern)
        modes = np.flatnonzero(sys_.mode_norm_defects() <= 1e-10)
        bound = 1e-9 * (1 + (kern.size - 1) / 50.0)
        worst_tr = max(worst_tr, float(np.max(eigen_residuals(sys_)[modes])) / bound)
    ok = worst <= 1.0 and worst_tr <= 1.0
    _verdict(
        4, "eigenvector residuals",
        ok, f"worst residual/tolerance: finite {worst:.2e}, "
        f"truncated window-resolved modes {worst_tr:.2e}",
    )
    assert worst <= 1.0
    assert worst_tr <= 1.0


def test_criterion_05_orthonormality_completeness(kernel_cache):
    worst = 0.0
    for recipe, N, kern in _finite_cases(kernel_cache):
        sys_ = SpectralSystem(kern)
        worst = max(worst, orthonormality_defect(sys_.phi), completeness_defect(sys_.phi))
    worst_tr = 0.0
    for recipe, _, kern in _truncated_cases(kernel_cache):
        sys_ = SpectralSystem(kern)
        modes = np.flatnonzero(sys_.mode_norm_defects() <= 1e-10)
        worst_tr = max(worst_tr, orthonormality_defect(sys_.phi[:, modes]))
    # adjudication of the sqrt(pi) weighting: columns built with pi itself
    # are nowhere near orthonormal
    recipe = ConvolutionRecipe(Family.KRAWTCHOUK, ConvType.I, (0.3, 0.5))
    sys_ = SpectralSystem(kernel_cache(recipe, 20))
    wrong = sys_.phi * sys_.sqrt_pi[:, None]
    wrong_defect = orthonormality_defect(wrong)
    ok = worst <= 1e-9 and worst_tr <= 1e-9 and wrong_defect > 1e-2
    _verdict(
        5, "orthonormality/completeness",
        ok, f"max defect finite {worst:.2e}, truncated resolved modes "
        f"{worst_tr:.2e} (tol 1e-9); pi-instead-of-sqrt(pi) defect {wrong_defect:.1e}",
    )
    assert worst <= 1e-9
    assert worst_tr <= 1e-9
    assert wrong_defect > 1e-2


#: one recipe per family for the many-body criterion
_MANY_BODY_RECIPES = [
    (Family.KRAWTCHOUK, ConvType.II, (0.2, 0.6)),
    (Family.HAHN, ConvType.I, (1.0, 2.0, 3.0)),
    (Family.Q_HAHN, ConvType.III, (0.3, 0.5, 0.4, 0.5)),
    (Family.CHARLIER, ConvType.I, (0.4, 0.8)),
    (Family.MEIXNER, ConvType.III, (6.0, 0.2, 1.0)),
]


def test_criterion_06_many_body_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for fam, t, params in _MANY_BODY_RECIPES:
        recipe = ConvolutionRecipe(fam, t, params)
        for size in (4, 6):
            if recipe.is_finite:
                sys_ = analytic_eigensystem(recipe, N=size - 1)
                # closed-form kappa(n) are the exact levels
                levels = sys_.kappas
            else:
                # a raw window of the semi-infinite chain is its own quadratic
                # model; its single-particle levels come from the window
                sys_ = window_system(recipe, size)
                levels = np.linalg.eigvalsh(sys_.hamiltonian)
            mb = many_body_energies(levels)
            jw = jordan_wigner_spectrum(sys_.hamiltonian)
            worst = max(worst, float(np.max(np.abs(mb - jw))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 20.0
    _verdict(
        6, "many-body spectrum vs string oracle",
        ok, f"max |subset sums - Fock spectrum| {worst:.2e} (tol 1e-10), "
        f"sizes 4 and 6, one recipe per family, {elapsed:.1f}s",
    )
    assert worst <= 1e-10
    assert elapsed < 20.0


def test_criterion_07_entropy_oracle():
    worst = 0.0
    cases = [
        (ConvolutionRecipe(Family.KRAWTCHOUK, ConvType.II, (0.2, 0.6)), 7, 0.0),
        (ConvolutionRecipe(Family.HAHN, ConvType.I, (1.0, 2.0, 3.0)), 9, 0.5),
    ]
    has_negative = False
    for recipe, N, mu in cases:
        sys_ = analytic_eigensystem(recipe, N=N)
        model = FreeFermionModel(sys_, mu=mu)
        assert model.filled_modes
        has_negative = has_negative or np.any(sys_.kappas < 0.0)
        corr = correlation_matrix(model)
        psi = jordan_wigner_ground_state(sys_.phi, model.filled_modes)
        for k in range(N + 2):
            diff = abs(block_entropy(corr, (0, k)) - reduced_density_entropy(psi, k))
            worst = max(worst, diff)
    ok = worst <= 1e-8 and has_negative
    _verdict(
        7, "block entropy vs reduced density matrix",
        ok, f"max |S_corr - S_rho| {worst:.2e} (tol 1e-8), "
        f"sizes 8 and 10, negative-mode recipe included",
    )
    assert worst <= 1e-8
    assert has_negative


def test_criterion_08_limit_checks():
    # sup distances of the library's measures (measure_vector)
    seqs = limit_distances()
    ok = all(d[0] > d[1] > d[2] for d in seqs.values())
    detail = "; ".join(
        f"{name} {d[0]:.1e} > {d[1]:.1e} > {d[2]:.1e}" for name, d in seqs.items()
    )
    _verdict(8, "family limit relations", ok, detail)
    for name, d in seqs.items():
        assert d[0] > d[1] > d[2], name


def test_criterion_09_negative_spectrum(kernel_cache):
    a, b, N = 0.2, 0.6, 20
    recipe = ConvolutionRecipe(Family.KRAWTCHOUK, ConvType.II, (a, b))
    sys_ = SpectralSystem(kernel_cache(recipe, N))
    odd = sys_.kappas[1::2]
    all_odd_negative = bool(np.all(odd < 0.0))
    vals = np.linalg.eigvalsh(sys_.hamiltonian)
    n_negative = int(np.sum(vals < -1e-10))
    n_positive = int(np.sum(vals > 1e-10))
    want = (N + 1) // 2
    ok = all_odd_negative and n_negative == want and n_positive == N + 1 - want
    _verdict(
        9, "negative spectrum of type ii",
        ok, f"odd kappas all negative: {all_odd_negative}; "
        f"numeric negatives {n_negative} == ceil(N/2) = {want}",
    )
    assert all_odd_negative
    assert n_negative == want


def test_criterion_10_hahn_type_ii_dual_representation():
    worst = 0.0
    for a, b, c in HAHN2_DUAL_GRID:
        for n in range(16):
            alt = oracles.hahn_type2_kappa_sum(a, b, c, n)
            fa, fb, fc = map(Fraction, (a, b, c))
            ser = float(oracles.hyper_frac(
                [Fraction(-n), n + fa + 2 * fb + fc - 1, fb], [fa + fb, fb + fc],
                Fraction(1), n,
            ))
            worst = max(worst, abs(alt - ser) / abs(ser))
    ok = worst <= 1e-12
    _verdict(
        10, "hahn type ii dual representation",
        ok, f"max relative gap between the finite-sum and exact series forms "
        f"{worst:.2e} (tol 1e-12), n <= 15, 3-point grid",
    )
    assert worst <= 1e-12
