"""Reversible Markov kernels built by convolving orthogonality measures.

A kernel entry K(x, y) is the probability of moving from y to x, so columns
sum to 1.  The three convolution types combine two measures pi(., lambda2)
and pi(., lambda1):

    type i  : K(x,y) = sum_{z=0}^{min(x,y)}          pi(x-z, N-z, l2) pi(z, y, l1)
    type ii : K(x,y) = sum_{z=max(0,x+y-N)}^{min(x,y)} pi(x-z, N-y, l2) pi(z, y, l1)
    type iii: K(x,y) = sum_{z=max(x,y)}^{N}           pi(x, z, l2) pi(z-y, N-y, l1)

and the stationary distribution is the measure of the mapped family
lambda3 (``ConvolutionRecipe.lambda3``).  The builders below evaluate the
two factors in log space on broadcast index vectors (``log_measure_grid``
gives the bits the full index grids would, without building them),
exponentiate them in place and reduce each type to a matrix product or a
per-column convolution.  A grid is gathered from its measure table in
blocks of rows, so no gather index of the kernel's size is held: a build
holds at most the factor grids, an index difference and the table being
built, three to five arrays of the kernel's size
(``tests/test_memory.py`` bounds its traced peak).  ``build_kernel``
builds no matrix: a kernel builds its own, once, on the first read of
``matrix``, so the entropy path, which reads only pi, kappa(n) and phi,
never pays for it.
Columns are mathematically independent, so construction parallelizes
trivially and the finished kernel is immutable.  The direct per-entry sums
these builders are tested against live with the tests (``tests/oracles.py``).

Charlier and Meixner measures live on all of Z>=0 and are served only on a
certified finite window: ``FamilySpec``, the one lattice-size rule, refuses
an N on these recipes, so no uncertified window is ever built.  One row
ln pi(0..MAX_WINDOW_POINTS) and the family's tail-ratio bound give the
geometric tail bound for every window end at once
(``stationary_tail_bounds``); the first certified end, the cap refusal,
the -700 range guard, the stationary vector and the recorded bound are all
read off that row.  The window is sized once, before any matrix is built,
from a matrix-free bound on its last column's deficit (``_last_column_deficit``)
against COL_TARGET_FACTOR * tail_eps; a recipe that no window certifies is
refused up front.  So ``tail_eps`` is refused above MAX_TAIL_EPS (1e-11),
where that target would miss the truncated kernel tolerance.

Verification reads K itself and runs no eigensolver: the spectral radius is
bounded by the induced 1-norm and the Perron-Frobenius vector is one linear
solve; their eigensolver referees live with the tests.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .families import (
    _FAMILIES,
    ConvolutionRecipe,
    ConvType,
    FamilySpec,
    MeasureFactor,
    log_measure_grid,
    measure_vector,
)


@dataclass(frozen=True)
class ConvolutionKernel:
    """Dense column-stochastic kernel with its stationary distribution on the
    lattice points 0..size-1: all of {0..N}, or a certified truncation.

    The size is pi's.  ``matrix`` is built from the recipe on its first read
    (one ``_build_matrix`` call) and kept, so a caller that reads only pi,
    as kappa(n), phi and the fermion layer do, builds no N x N matrix.
    Finiteness is the recipe's (``ConvolutionRecipe.is_finite``); a truncated
    window carries its certificate: ``tail_bound`` bounds sum_{x>M} pi(x) for
    ``tail_eps`` (ratio bound, not summation), and ``col_deficiency``, read
    off the matrix on its first read, is its worst column-sum deficit.  All
    three are None on finite lattices.
    """

    pi: np.ndarray
    recipe: ConvolutionRecipe
    tail_eps: float | None = None
    tail_bound: float | None = None

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        return _build_matrix(self.recipe, self.size)

    @functools.cached_property
    def col_deficiency(self) -> float | None:
        if self.recipe.is_finite:
            return None
        return float(np.max(np.abs(self.matrix.sum(axis=0) - 1.0)))

    @property
    def size(self) -> int:
        return len(self.pi)

    def lattice_dict(self) -> dict:
        """The envelope's ``lattice`` field; the kind is the recipe's."""
        if self.recipe.is_finite:
            return {"kind": "finite", "npoints": self.size}
        return {"kind": "truncated", "npoints": self.size, "tail_eps": self.tail_eps,
                "tail_bound": self.tail_bound, "col_deficiency": self.col_deficiency}


# ---------------------------------------------------------------------------
# truncation of semi-infinite lattices
# ---------------------------------------------------------------------------

COL_TARGET_FACTOR = 10.0
MAX_WINDOW_POINTS = 2000
DEFAULT_TAIL_EPS = 1e-12
#: default tolerances for verify_kernel on finite and on truncated lattices
FINITE_KERNEL_TOL = 1e-12
TRUNCATED_KERNEL_TOL = 1e-10
#: the largest tail_eps whose window sizing target (COL_TARGET_FACTOR *
#: tail_eps) still meets the truncated kernel tolerance
MAX_TAIL_EPS = TRUNCATED_KERNEL_TOL / COL_TARGET_FACTOR


def stationary_tail_bounds(spec: FamilySpec) -> tuple[np.ndarray, np.ndarray]:
    """ln pi(x) for x = 0..MAX_WINDOW_POINTS, and the certified upper bound on
    sum_{x>M} pi(x) for every window end M = 0..MAX_WINDOW_POINTS-1.

    Past M the tail is dominated by the geometric series pi(M+1) / (1 - r),
    where r bounds sup_{x>M} pi(x+1)/pi(x) (the family row's
    ``tail_ratio``), and the bound is infinite where r >= 1.  Wherever it
    is finite the bound does not increase with M.  One measure row serves
    every M.  A finite lattice has no tail: asking for one is a misuse
    (ValueError), never a refusal.
    """
    tail_ratio = _FAMILIES[spec.family].tail_ratio
    if tail_ratio is None:
        raise ValueError(f"{spec.family.value} lattice is finite; no truncation")
    r = tail_ratio(np.arange(MAX_WINDOW_POINTS), *spec.params)
    log_pi = log_measure_grid(spec.family, spec.params, np.arange(MAX_WINDOW_POINTS + 1), 0)
    # tiny headroom keeps the certificate valid under float rounding (the
    # bound is an analytic equality for Meixner at a = 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        bounds = np.exp(log_pi[1:]) / (1.0 - r) * (1.0 + 1e-10)
    return log_pi, np.where(r < 1.0, bounds, np.inf)


def _first_certified(bounds: np.ndarray, eps: float, window: str) -> int:
    """Smallest M >= 4 with bounds[M] <= eps.  The bounds do not increase,
    so a measure still above eps at the last point of a MAX_WINDOW_POINTS
    window is refused; ``window`` names it in the message."""
    if bounds[-1] > eps:
        raise DomainError(f"{window} for tail_eps={eps} exceeds the {MAX_WINDOW_POINTS}-point cap")
    return max(4, int(np.argmax(bounds <= eps)))


# ---------------------------------------------------------------------------
# vectorized builders
# ---------------------------------------------------------------------------


def _type_iii_z_extension(factor1: MeasureFactor) -> int:
    """How far past the window a semi-infinite type iii z sum runs: the
    first point whose lambda1 tail is certified below 1e-18, where it cannot
    move any entry of K; one value per factor, which sizing and build each
    compute once."""
    spec1 = FamilySpec(factor1.family, factor1.params)
    window = f"the type iii z sum over {spec1.to_string()}"
    return _first_certified(stationary_tail_bounds(spec1)[1], 1e-18, window)


def _last_column_deficit(recipe: ConvolutionRecipe):
    """M -> an upper bound on |1 - sum| of the last column of the window
    ending at M, from the factors alone: sum_z pi1(z; M) T2(M - z) on type
    i, in O(M), and T1(zext) + sum_{z=M+1}^{M+zext} pi1(z - M) sum_{x>M}
    pi2(x; z) on type iii.  T(k) >= sum_{x>k} pi(x) is the semi-infinite
    factor's row summed from its far end, plus the certified bound past it."""
    factor2, factor1 = recipe.factors
    semi = factor2 if recipe.conv_type is ConvType.I else factor1
    log_pi, bounds = stationary_tail_bounds(FamilySpec(semi.family, semi.params))
    pi = np.exp(log_pi[:-1])
    tail = np.append(np.cumsum(pi[:0:-1])[::-1], 0.0) + bounds[-1]
    zext = None if recipe.conv_type is ConvType.I else _type_iii_z_extension(factor1)

    def deficit(M: int) -> float:
        if recipe.conv_type is ConvType.I:
            pi1 = np.exp(log_measure_grid(factor1.family, factor1.params, np.arange(M + 1), M))
            return float(pi1 @ tail[M::-1])
        x = np.arange(M + 1, M + zext + 1)
        spill = np.exp(log_measure_grid(factor2.family, factor2.params, x[None, :], x[:, None]))
        return float(tail[zext] + pi[1 : zext + 1] @ spill.sum(axis=1))
    return deficit


def _build_matrix(recipe: ConvolutionRecipe, size: int) -> np.ndarray:
    factor2, factor1 = recipe.factors
    N = size - 1
    col, row = np.arange(size)[:, None], np.arange(size)[None, :]

    def grid(factor: MeasureFactor, pts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        out = log_measure_grid(factor.family, factor.params, pts, sizes)
        return np.exp(out, out=out)

    if recipe.conv_type is ConvType.I:
        with np.errstate(invalid="ignore"):
            a = grid(factor2, col - row, N - row)  # a[x, z]
        return a @ grid(factor1, col, row)  # b[z, y]
    if recipe.conv_type is ConvType.II:
        # row n of each grid is ln pi(.; n); column y convolves two row prefixes
        e2 = grid(factor2, row, col)
        e1 = grid(factor1, row, col)
        out = np.empty((size, size))
        for y in range(size):
            out[:, y] = np.convolve(e2[N - y, : N - y + 1], e1[y, : y + 1])
        return out
    # type iii: the z sum runs past the window for semi-infinite lattices
    zmax = N if recipe.is_finite else N + _type_iii_z_extension(factor1)
    z = np.arange(zmax + 1)
    e = grid(factor2, col, z[None, :])  # e[x, z]
    return e @ grid(factor1, z[:, None] - row, N - row)  # g[z, y]


def build_kernel(
    recipe: ConvolutionRecipe, N: int | None = None, tail_eps: float | None = None
) -> ConvolutionKernel:
    """Construct the kernel with its stationary distribution attached.

    Finite families need the lattice size N and take no ``tail_eps``.
    Semi-infinite families are truncated to a window sized once, before any
    matrix is built: its end is the smallest M, from the first certified
    stationary-tail cutoff M0 for ``tail_eps`` (default 1e-12) to the last
    end Mmax past it where ln pi stays above -700, whose last-column deficit
    bound meets COL_TARGET_FACTOR * tail_eps, else Mmax; a window whose
    bound then exceeds TRUNCATED_KERNEL_TOL is refused.  Every refusal
    comes before the kernel is returned; the kernel builds its matrix on
    the first read of ``matrix``.  ``tail_eps`` must
    lie in (0, MAX_TAIL_EPS] = (0, 1e-11].  The lattice size rule is
    ``FamilySpec``'s: an N on a semi-infinite recipe, or none on a finite
    one, is refused before any matrix is built.  A lattice, finite or
    truncated, whose first window would hold more than MAX_WINDOW_POINTS
    points is refused.  The stationary vector is always recomputed from the
    lambda3 parameter map, never from a numeric eigenvector.
    """
    spec = recipe.stationary_spec(N)
    if recipe.is_finite:
        if tail_eps is not None:
            raise DomainError(f"{recipe.family.value} recipes take N, not --eps")
        if N + 1 > MAX_WINDOW_POINTS:
            lattice = f"{recipe.family.value} lattice of {N + 1} points"
            raise DomainError(f"{lattice} exceeds the {MAX_WINDOW_POINTS}-point cap")
        return ConvolutionKernel(measure_vector(spec), recipe)
    tail_eps = DEFAULT_TAIL_EPS if tail_eps is None else tail_eps
    if not 0.0 < tail_eps <= MAX_TAIL_EPS:
        raise DomainError(f"tail_eps must lie in (0, {MAX_TAIL_EPS:g}], got {tail_eps}")
    log_pi, bounds = stationary_tail_bounds(spec)
    window = f"the certified {spec.to_string()} window"
    M0 = _first_certified(bounds, tail_eps, window)
    # the last end where ln pi > -700: pi stays positive for the similarity transform
    Mmax = M0 + int(np.append(log_pi[M0 + 1 : MAX_WINDOW_POINTS] > -700.0, False).argmin())
    deficit = _last_column_deficit(recipe)
    M = M0 + bisect.bisect_left(range(M0, Mmax), True,
                                key=lambda m: deficit(m) <= COL_TARGET_FACTOR * tail_eps)
    if (worst := deficit(M)) > TRUNCATED_KERNEL_TOL:
        raise DomainError(f"{window} of {M + 1} points leaves a column-sum deficit up to "
                          f"{worst:.3g}, above the {TRUNCATED_KERNEL_TOL:g} kernel tolerance")
    return ConvolutionKernel(np.exp(log_pi[: M + 1]), recipe, tail_eps=tail_eps,
                             tail_bound=float(bounds[M]))


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelReport:
    """Measured kernel-invariant violations; verification reports, it never
    raises.  ``passed`` covers the tolerance checks; ``positivity`` is
    reported alongside (an identity kernel with uniform pi passes the
    tolerances trivially while failing strict positivity)."""

    max_stochastic_violation: float
    max_reversibility_violation: float
    positivity: bool
    tol: float
    passed: bool


def verify_kernel(kernel: ConvolutionKernel, tol: float | None = None) -> KernelReport:
    """Check column sums, detailed balance and positivity against ``tol``.

    The detailed-balance violation is max |K(x,y) pi(y) - K(y,x) pi(x)|
    normalized by the largest entry of the flux matrix K(x,y) pi(y).
    Strict positivity (all points connected) is a finite-lattice property;
    on truncated windows the far off-diagonal entries legitimately
    underflow, so only nonnegativity is required there.
    """
    finite = kernel.recipe.is_finite
    if tol is None:
        tol = FINITE_KERNEL_TOL if finite else TRUNCATED_KERNEL_TOL
    k = kernel.matrix
    stoch = float(np.max(np.abs(k.sum(axis=0) - 1.0)))
    flux = k * kernel.pi[None, :]
    skew = flux - flux.T
    rev = float(np.max(np.abs(skew, out=skew)) / np.max(flux))
    positivity = bool(np.all(k > 0.0)) if finite else bool(np.all(k >= 0.0))
    passed = stoch <= tol and rev <= tol
    return KernelReport(stoch, rev, positivity, tol, passed)


def perron_frobenius_residual(kernel: ConvolutionKernel) -> float:
    """Max entrywise distance between the kernel's Perron-Frobenius vector
    (normalized to sum 1) and the analytic pi; inf when the solve finds the
    system singular.  For column-stochastic K, 1^T (K - I + 1 1^T) = n 1^T,
    so (K - I + 1 1^T) v = 1 is nonsingular exactly when eigenvalue 1 is
    simple, and v is then that vector.  Like any eigenvector, v carries
    rounding amplified by 1/gap.
    """
    n = kernel.size
    # K - I + 1 1^T in one matrix: subtracting 0 off the diagonal leaves the
    # bits of the expression with np.eye(n) as they are
    a = kernel.matrix.copy()
    a.flat[:: n + 1] -= 1.0
    a += 1.0
    try:
        v = np.linalg.solve(a, np.ones(n))
    except np.linalg.LinAlgError:
        return np.inf
    return float(np.max(np.abs(v / v.sum() - kernel.pi)))


def eigenvalue_moduli_excess(kernel: ConvolutionKernel) -> float:
    """Certified upper bound on max |eigenvalue| - 1 of the kernel: the
    spectral radius of any matrix is at most its induced 1-norm, the
    largest absolute column sum (Horn & Johnson, Matrix Analysis, 5.6)."""
    return float(np.linalg.norm(kernel.matrix, 1) - 1.0)
