"""Symmetric Hamiltonians and their analytic eigensystems.

Conjugating a reversible kernel by diag(sqrt(pi)) gives a real symmetric
matrix H(x,y) = K(x,y) sqrt(pi(y)/pi(x)) with the same spectrum, the
Perron-Frobenius vector sqrt(pi), and eigenvalues in (-1, 1].  For the
convolution kernels the full eigensystem is known in closed form: the
eigenvalues kappa(n) and the orthonormal eigenvectors phi_n(x) = d_n
sqrt(pi(x)) P_n(x).  ``SpectralSystem(kernel)`` keeps kappa(n) and phi from
their first read, and rebuilds H (one pass over K) on each read, so that it
is never held beside phi; a caller pays only for what it reads, and
``verification_report`` takes the system alone.  K itself is built on
its first read (``ConvolutionKernel.matrix``), so a caller that reads only
kappa(n) and phi, as the fermion layer does, builds no K and no H.
``spectrum_comparison`` checks kappa(n) against ``np.linalg.eigvalsh(H)``, a dense backward-stable
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
from functools import cached_property

import numpy as np

from .errors import DomainError
from .families import (
    ConvolutionRecipe,
    _row_blocks,
    kappa_vector,
    orthonormal_columns,
    spectral_gap,
)
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
    the result is not meaningfully symmetric.  Built in one buffer and
    symmetrized in place a block row (from the diagonal on) and its mirror
    at a time; a + b and |a - b| do not depend on the order of a and b, so
    these are the bits of (h + h.T) * 0.5 and max |h - h.T| taken whole.
    """
    s = np.sqrt(kernel.pi)
    h = np.divide(s[None, :], s[:, None])
    np.multiply(kernel.matrix, h, out=h)  # K * (s_y / s_x), as one product
    asymmetry = []
    for blk in _row_blocks(len(h)):
        upper, mirror = h[blk, blk.start:], h[blk.start:, blk].T
        d = np.subtract(upper, mirror)
        asymmetry.append(np.max(np.abs(d, out=d)))
        upper[...] = mirror[...] = np.multiply(np.add(upper, mirror, out=d), 0.5, out=d)
    return h, float(np.max(asymmetry))


@dataclass(frozen=True)
class SpectralSystem:
    """Symmetric Hamiltonian with its closed-form eigensystem, computed from
    ``kernel``: kappa(n) and phi on their first read and kept, H and its
    asymmetry on each read, so verify holds K and at most two arrays its size.

    ``phi[:, n]`` is the orthonormal eigenvector for ``kappas[n]``; column 0
    is sqrt(pi) with eigenvalue 1.
    """

    kernel: ConvolutionKernel

    def __post_init__(self) -> None:
        if np.any(self.kernel.pi <= 0.0):
            raise DomainError("stationary distribution must be strictly positive")

    @property
    def _symmetrized(self) -> tuple[np.ndarray, float]:
        return _hamiltonian(self.kernel)

    hamiltonian = property(lambda self: self._symmetrized[0])
    presym_asymmetry = property(lambda self: self._symmetrized[1])

    @cached_property
    def kappas(self) -> np.ndarray:
        return kappa_vector(self.kernel.recipe, self.size - 1)

    @cached_property
    def phi(self) -> np.ndarray:
        recipe = self.kernel.recipe
        spec = recipe.stationary_spec(self.size - 1 if recipe.is_finite else None)
        return orthonormal_columns(spec, npoints=self.size)

    @property
    def size(self) -> int:
        return self.kernel.size

    @property
    def sqrt_pi(self) -> np.ndarray:
        return np.sqrt(self.kernel.pi)

    def mode_norm_defects(self) -> np.ndarray:
        """|1 - ||phi_n||^2| per mode: the window spill of each eigenvector
        (identically ~0 on finite lattices).

        The squares are summed a block of rows at a time below the running
        total: numpy sums over rows in their order, so these are the bits of
        ``np.sum(phi**2, axis=0)``."""
        phi = self.phi
        total = np.zeros(phi.shape[1])
        for blk in _row_blocks(len(phi)):
            total = np.vstack((total, np.square(phi[blk]))).sum(axis=0)
        return np.abs(1.0 - total)


def analytic_eigensystem(recipe: ConvolutionRecipe, N: int | None = None) -> SpectralSystem:
    """The spectral system of ``build_kernel(recipe, N)``."""
    return SpectralSystem(build_kernel(recipe, N=N))


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
    """||H phi_n - kappa(n) phi_n||_inf per mode, scaled by ||H||_inf.

    H is built once phi's work array is gone; ||H||_inf and H phi - phi
    kappa are taken a block of rows and of columns at a time.  The BLAS may
    sum a product's trailing columns on a path of its own, so the last
    block's can differ from the whole product's in the last place."""
    phi, kappas = system.phi, system.kappas
    h = system.hamiltonian
    hnorm = float(np.max([np.sum(np.abs(h[blk]), axis=1).max() for blk in _row_blocks(len(h))]))
    worst = np.empty(phi.shape[1])
    for blk in _row_blocks(phi.shape[1]):
        r = h @ phi[:, blk]
        r -= phi[:, blk] * kappas[blk]
        worst[blk] = np.max(np.abs(r, out=r), axis=0)
    return worst / hnorm


def orthonormality_defect(phi: np.ndarray) -> float:
    """max |phi^T phi - I|."""
    return _identity_defect(phi.T @ phi)


def completeness_defect(phi: np.ndarray) -> float:
    """max |phi phi^T - I|."""
    return _identity_defect(phi @ phi.T)


def _identity_defect(g: np.ndarray) -> float:
    """max |g - I|, in g's own buffer: subtracting 0 leaves the off-diagonal
    bits as they are, so this reads the bits of ``np.abs(g - np.eye(n))``."""
    g.flat[:: g.shape[0] + 1] -= 1.0
    return float(np.max(np.abs(g, out=g)))


@dataclass(frozen=True)
class CheckResult:
    """One invariant of the verification suite: measured violation vs. tolerance."""

    name: str
    measured: float
    tol: float
    passed: bool


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
        # every mode reliable: phi itself, not a copy of all its columns
        phi = system.phi if modes.size == system.size else system.phi[:, modes]
        ortho = orthonormality_defect(phi)
    checks.append(_check("eigenvector-residual", res, 1e-9 * (1.0 + (kernel.size - 1) / 50.0)))
    checks.append(_check("orthonormality", ortho, 1e-9))
    if kernel.recipe.is_finite:
        checks.append(_check("completeness", completeness_defect(system.phi), 1e-9))
    checks.append(CheckResult("spectral-gap", spectral_gap(system.kappas), 0.0, True))
    return checks
