"""Symmetric Hamiltonians and their analytic eigensystems.

Conjugating a reversible kernel by diag(sqrt(pi)) gives a real symmetric
matrix H(x,y) = K(x,y) sqrt(pi(y)/pi(x)) with the same spectrum, the
Perron-Frobenius vector sqrt(pi), and eigenvalues in (-1, 1].
``analytic_eigensystem`` builds it once and keeps it, with the asymmetry of
the unsymmetrized transform and the kernel it came from, as
``SpectralSystem.hamiltonian``, ``.presym_asymmetry`` and ``.kernel``, so
``verification_report`` takes the system alone; there is no separate
Hamiltonian entry point.  For the convolution kernels the full eigensystem
is known in closed form: the eigenvalues kappa(n) and the orthonormal
eigenvectors phi_n(x) = d_n sqrt(pi(x)) P_n(x).  ``spectrum_comparison``
checks kappa(n) against ``np.linalg.eigvalsh(H)``, a dense backward-stable
eigensolve and the only one the library runs (H and K share their spectrum);
the kernel-side statements (P_n left and pi P_n right eigenvectors of K) are
checked by the residual referees in ``tests/oracles.py``.

Note on truncated lattices: a finite window of a semi-infinite chain
cannot carry the exact analytic eigensystem - the top modes always spill
past any window, so their columns of phi are not unit vectors and their
residuals are not small.  ``mode_norm_defects`` measures that spill per
mode; ``verification_report`` checks eigenvectors only on the modes that fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .families import ConvolutionRecipe, kappa_vector, orthonormal_columns, spectral_gap
from .markov import (
    ConvolutionKernel,
    build_kernel,
    eigenvalue_moduli_excess,
    perron_frobenius_residual,
    verify_kernel,
)

#: window spill past which a truncated mode is left out of the eigenvector checks
_RELIABLE_MODE_DEFECT = 1e-10


def _hamiltonian(kernel: ConvolutionKernel) -> tuple[np.ndarray, float]:
    """H = diag(pi)^(-1/2) K diag(pi)^(1/2), symmetrized by (H + H^T)/2, and
    the max entrywise |H - H^T| of the raw transform it came from.

    The kernel must satisfy detailed balance (within tolerance), otherwise
    the result is not meaningfully symmetric.
    """
    pi = kernel.pi
    if np.any(pi <= 0.0):
        raise DomainError("stationary distribution must be strictly positive")
    s = np.sqrt(pi)
    h = kernel.matrix * (s[None, :] / s[:, None])
    return 0.5 * (h + h.T), float(np.max(np.abs(h - h.T)))


@dataclass(frozen=True)
class SpectralSystem:
    """Symmetric Hamiltonian with its closed-form eigensystem.

    ``phi[:, n]`` is the orthonormal eigenvector for ``kappas[n]``; column 0
    is sqrt(pi) with eigenvalue 1.
    """

    hamiltonian: np.ndarray
    kappas: np.ndarray
    phi: np.ndarray
    kernel: ConvolutionKernel
    presym_asymmetry: float

    @property
    def size(self) -> int:
        return self.hamiltonian.shape[0]

    @property
    def sqrt_pi(self) -> np.ndarray:
        return np.sqrt(self.kernel.pi)

    def mode_norm_defects(self) -> np.ndarray:
        """|1 - ||phi_n||^2| per mode: the window spill of each eigenvector
        (identically ~0 on finite lattices)."""
        return np.abs(1.0 - np.sum(self.phi**2, axis=0))


def analytic_eigensystem(
    recipe: ConvolutionRecipe, N: int | None = None, kernel: ConvolutionKernel | None = None
) -> SpectralSystem:
    """Build H, kappa(n) and the orthonormal eigenvector matrix for a recipe,
    from ``kernel`` when given (it must have been built from ``recipe``, and
    its size fixes the lattice, so ``N`` is refused with it), else from
    ``build_kernel(recipe, N)``."""
    if kernel is None:
        kernel = build_kernel(recipe, N=N)
    elif kernel.recipe != recipe:
        raise ValueError(
            f"kernel of {kernel.recipe.to_string()!r} given for {recipe.to_string()!r}"
        )
    elif N is not None:
        raise ValueError(f"N={N} given with a {kernel.size}-point kernel")
    h, asym = _hamiltonian(kernel)
    size = kernel.size
    spec = recipe.stationary_spec(size - 1 if recipe.is_finite else None)
    phi = orthonormal_columns(spec, npoints=size)
    kap = kappa_vector(recipe, size - 1)
    return SpectralSystem(
        hamiltonian=h,
        kappas=kap,
        phi=phi,
        kernel=kernel,
        presym_asymmetry=asym,
    )


def spectrum_comparison(system: SpectralSystem) -> float:
    """Max |sorted analytic kappa - numeric spectrum of H|.

    The symmetric eigensolver returns the spectrum in ascending order, so
    sorting kappa realizes the multiset matching and degenerate eigenvalues
    pair up regardless of index order.  H is exactly symmetric by
    construction; its asymmetry before symmetrization is its own check.
    """
    numeric = np.linalg.eigvalsh(system.hamiltonian)
    analytic = np.sort(system.kappas)
    return float(np.max(np.abs(numeric - analytic)))


def eigen_residuals(system: SpectralSystem) -> np.ndarray:
    """||H phi_n - kappa(n) phi_n||_inf per mode, scaled by ||H||_inf."""
    r = system.hamiltonian @ system.phi - system.phi * system.kappas[None, :]
    hnorm = float(np.max(np.sum(np.abs(system.hamiltonian), axis=1)))
    return np.max(np.abs(r), axis=0) / hnorm


def orthonormality_defect(phi: np.ndarray) -> float:
    """max |phi^T phi - I|."""
    g = phi.T @ phi
    return float(np.max(np.abs(g - np.eye(g.shape[0]))))


def completeness_defect(phi: np.ndarray) -> float:
    """max |phi phi^T - I|."""
    g = phi @ phi.T
    return float(np.max(np.abs(g - np.eye(g.shape[0]))))


@dataclass(frozen=True)
class CheckResult:
    """One invariant of the verification suite: measured violation vs. tolerance."""

    name: str
    measured: float
    tol: float
    passed: bool

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return f"{flag} {self.name}: measured={self.measured:.3e} tol={self.tol:.1e}"


def _check(name: str, measured: float, tol: float) -> CheckResult:
    return CheckResult(name, measured, tol, measured <= tol)


def _reliable_modes(system: SpectralSystem) -> np.ndarray:
    if system.kernel.recipe.is_finite:
        return np.arange(system.size)
    return np.flatnonzero(system.mode_norm_defects() <= _RELIABLE_MODE_DEFECT)


def verification_report(
    system: SpectralSystem, kernel_tol: float | None = None
) -> list[CheckResult]:
    """Run the full invariant suite on a system and the kernel it carries;
    failed checks are reported, never raised.  ``kernel_tol`` defaults as
    in ``verify_kernel``.

    On truncated lattices the eigenvector checks are restricted to the
    modes that fit in the window (norm defect <= 1e-10): the spilling top
    modes of a finite window cannot satisfy the closed-form eigensystem of
    the infinite chain.  With no such mode both lines read inf and fail.
    The spectral gap is reported, not checked.
    """
    kernel = system.kernel
    rep = verify_kernel(kernel, kernel_tol)
    checks = [
        _check("column-stochasticity", rep.max_stochastic_violation, rep.tol),
        _check("detailed-balance", rep.max_reversibility_violation, rep.tol),
        _check("positivity", 0.0 if rep.positivity else 1.0, 0.5),
        _check("perron-frobenius-match", perron_frobenius_residual(kernel), 1e-10),
        _check("eigenvalue-moduli-excess", eigenvalue_moduli_excess(kernel), 1e-12),
        _check("hamiltonian-asymmetry", system.presym_asymmetry, 1e-13),
        _check("spectrum-match", spectrum_comparison(system), 1e-8),
    ]
    modes = _reliable_modes(system)
    res = ortho = np.inf  # no reliable mode: nothing checked, so both lines fail
    if modes.size:
        res = float(np.max(eigen_residuals(system)[modes]))
        ortho = orthonormality_defect(system.phi[:, modes])
    checks.append(_check("eigenvector-residual", res, 1e-9 * (1.0 + (kernel.size - 1) / 50.0)))
    checks.append(_check("orthonormality", ortho, 1e-9))
    if kernel.recipe.is_finite:
        checks.append(_check("completeness", completeness_defect(system.phi), 1e-9))
    checks.append(CheckResult("spectral-gap", spectral_gap(system.kappas), 0.0, True))
    return checks
