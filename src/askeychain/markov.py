"""Reversible Markov kernels built by convolving orthogonality measures.

A kernel entry K(x, y) is the probability of moving from y to x, so columns
sum to 1.  The three convolution types combine two measures pi(., lambda2)
and pi(., lambda1):

    type i  : K(x,y) = sum_{z=0}^{min(x,y)}          pi(x-z, N-z, l2) pi(z, y, l1)
    type ii : K(x,y) = sum_{z=max(0,x+y-N)}^{min(x,y)} pi(x-z, N-y, l2) pi(z, y, l1)
    type iii: K(x,y) = sum_{z=max(x,y)}^{N}           pi(x, z, l2) pi(z-y, N-y, l1)

and the stationary distribution is the measure of the mapped family
lambda3 (``ConvolutionRecipe.lambda3``).  The builders below evaluate the
two factors on whole index grids (in log space, exponentiated once) and
reduce each type to a matrix product or a per-column convolution; columns
are mathematically independent, so construction parallelizes trivially and
the finished kernel is immutable.  The direct per-entry sums these builders
are tested against live with the tests (``tests/oracles.py``).

Charlier and Meixner measures live on all of Z>=0 and are served only on a
certified finite window: ``FamilySpec``, the one lattice-size rule, refuses
an N on these recipes, so no uncertified window is ever built.  One row
ln pi(0..MAX_WINDOW_POINTS) per measure gives the geometric tail bound for
every window end at once (``stationary_tail_bounds``); the window, the cap
refusal, the growth guard, the stationary vector and the recorded bound are
all read off that row.  The window grows until its column sums meet
COL_TARGET_FACTOR * tail_eps, so ``tail_eps`` is refused above MAX_TAIL_EPS
(1e-11), where that target would miss the truncated kernel tolerance;
finite recipes take no ``tail_eps`` at all.

Verification reads K itself and runs no eigensolver: the spectral radius is
bounded by the induced 1-norm and the Perron-Frobenius vector is one linear
solve; their eigensolver referees live with the tests.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .families import (
    ConvolutionRecipe,
    ConvType,
    Family,
    FamilySpec,
    MeasureFactor,
    log_measure_grid,
    measure_vector,
)


@dataclass(frozen=True)
class ConvolutionKernel:
    """Dense column-stochastic kernel with its stationary distribution on the
    lattice points 0..size-1: all of {0..N}, or a certified truncation.

    Finiteness is the recipe's (``ConvolutionRecipe.is_finite``); a truncated
    window carries its certificate: ``tail_bound`` bounds sum_{x>M} pi(x) for
    ``tail_eps`` (ratio bound, not summation), and ``col_deficiency`` records
    the worst column-sum deficit actually measured when the window was fixed.
    All three are None on finite lattices.
    """

    matrix: np.ndarray
    pi: np.ndarray
    recipe: ConvolutionRecipe
    tail_eps: float | None = None
    tail_bound: float | None = None
    col_deficiency: float | None = None

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

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
#: the largest tail_eps whose window growth target (COL_TARGET_FACTOR *
#: tail_eps) still meets the truncated kernel tolerance
MAX_TAIL_EPS = TRUNCATED_KERNEL_TOL / COL_TARGET_FACTOR


def stationary_tail_bounds(spec: FamilySpec) -> tuple[np.ndarray, np.ndarray]:
    """ln pi(x) for x = 0..MAX_WINDOW_POINTS, and the certified upper bound on
    sum_{x>M} pi(x) for every window end M = 0..MAX_WINDOW_POINTS-1.

    Both semi-infinite measures have eventually decreasing term ratios
    r(x) = pi(x+1)/pi(x); past M the tail is dominated by the geometric
    series pi(M+1) / (1 - r) with r = sup_{x>M} r(x), and the bound is
    infinite where r >= 1.  Wherever it is finite the bound does not
    increase with M.  One measure row serves every M.
    """
    M = np.arange(MAX_WINDOW_POINTS)
    if spec.family is Family.CHARLIER:
        (a,) = spec.params
        r = a / (M + 2)
    elif spec.family is Family.MEIXNER:
        a, b = spec.params
        # ratio b (a+x)/(x+1): decreasing in x for a > 1, else below b
        r = b * np.maximum(1.0, (a + M + 1) / (M + 2))
    else:
        raise DomainError(f"{spec.family.value} lattice is finite; no truncation")
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


@functools.lru_cache(maxsize=64)
def _type_iii_z_extension(factor1: MeasureFactor) -> int:
    """How far past the window a semi-infinite type iii z sum runs, until the
    lambda1 tail cannot move any entry of K: the first point of the scan
    4, 6, 8, ..., M + max(2, M // 8) that certifies 1e-18 (ending the range
    at the first certified point itself would move the bits of K).  One
    value per factor, shared by every window build of a recipe."""
    spec1 = FamilySpec(factor1.family, factor1.params)
    window = f"the type iii z sum over {spec1.to_string()}"
    first = _first_certified(stationary_tail_bounds(spec1)[1], 1e-18, window)
    zext = 4
    while zext < first:
        zext += max(2, zext // 8)
    return zext


def _build_matrix(recipe: ConvolutionRecipe, size: int) -> np.ndarray:
    factor2, factor1 = recipe.factors
    N = size - 1
    if recipe.conv_type is ConvType.I:
        x, z = np.indices((size, size))
        with np.errstate(invalid="ignore"):
            a = np.exp(log_measure_grid(factor2.family, factor2.params, x - z, N - z))
        z2, y = np.indices((size, size))
        b = np.exp(log_measure_grid(factor1.family, factor1.params, z2, y))
        return a @ b
    if recipe.conv_type is ConvType.II:
        # row n of each grid is ln pi(.; n); column y convolves two row prefixes
        n, u = np.indices((size, size))
        e2 = np.exp(log_measure_grid(factor2.family, factor2.params, u, n))
        e1 = np.exp(log_measure_grid(factor1.family, factor1.params, u, n))
        out = np.empty((size, size))
        for y in range(size):
            out[:, y] = np.convolve(e2[N - y, : N - y + 1], e1[y, : y + 1])
        return out
    # type iii: the z sum runs past the window for semi-infinite lattices
    zmax = N if recipe.is_finite else N + _type_iii_z_extension(factor1)
    x, z = np.indices((size, zmax + 1))
    e = np.exp(log_measure_grid(factor2.family, factor2.params, x, z))
    z2, y = np.indices((zmax + 1, size))
    g = np.exp(log_measure_grid(factor1.family, factor1.params, z2 - y, N - y))
    return e @ g


def build_kernel(
    recipe: ConvolutionRecipe, N: int | None = None, tail_eps: float | None = None
) -> ConvolutionKernel:
    """Construct the kernel with its stationary distribution attached.

    Finite families need the lattice size N and take no ``tail_eps``.
    Semi-infinite families are truncated: the window starts at the first
    certified stationary-tail cutoff for ``tail_eps`` (default 1e-12) and is
    enlarged until the worst column-sum deficit is at most
    COL_TARGET_FACTOR * tail_eps or the window holds MAX_WINDOW_POINTS
    points; the achieved deficit is recorded on the kernel.
    ``tail_eps`` must lie in (0, MAX_TAIL_EPS] = (0, 1e-11], where that
    growth target still meets the truncated kernel tolerance.  The lattice
    size rule is ``FamilySpec``'s: an N on a semi-infinite recipe, or none on
    a finite one, is refused before any matrix is built, so every truncated
    window carries a certificate it meets.  A lattice, finite or truncated,
    whose first window would hold more than MAX_WINDOW_POINTS points is
    refused.  The stationary vector is always recomputed from the lambda3
    parameter map, never from a numeric eigenvector.
    """
    spec = recipe.stationary_spec(N)
    if recipe.is_finite:
        if tail_eps is not None:
            raise DomainError(f"{recipe.family.value} recipes take N, not --eps")
        if N + 1 > MAX_WINDOW_POINTS:
            lattice = f"{recipe.family.value} lattice of {N + 1} points"
            raise DomainError(f"{lattice} exceeds the {MAX_WINDOW_POINTS}-point cap")
        matrix = _build_matrix(recipe, N + 1)
        return ConvolutionKernel(matrix, measure_vector(spec), recipe)
    tail_eps = DEFAULT_TAIL_EPS if tail_eps is None else tail_eps
    if not 0.0 < tail_eps <= MAX_TAIL_EPS:
        raise DomainError(f"tail_eps must lie in (0, {MAX_TAIL_EPS:g}], got {tail_eps}")
    log_pi, bounds = stationary_tail_bounds(spec)
    M = _first_certified(bounds, tail_eps, f"the certified {spec.to_string()} window")
    while True:
        matrix = _build_matrix(recipe, M + 1)
        deficiency = float(np.max(np.abs(matrix.sum(axis=0) - 1.0)))
        if deficiency <= COL_TARGET_FACTOR * tail_eps or M + 1 >= MAX_WINDOW_POINTS:
            break
        nxt = min(max(M + 8, int(M * 1.25)), MAX_WINDOW_POINTS - 1)
        # never grow past the representable range of the stationary vector
        # (pi must stay strictly positive for the similarity transform)
        while nxt > M and log_pi[nxt] <= -700.0:
            nxt -= max(1, (nxt - M) // 4)
        if nxt == M:
            break
        M = nxt
    return ConvolutionKernel(
        matrix,
        np.exp(log_pi[: M + 1]),
        recipe,
        tail_eps=tail_eps,
        tail_bound=float(bounds[M]),
        col_deficiency=deficiency,
    )


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
    rev = float(np.max(np.abs(flux - flux.T)) / np.max(flux))
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
    try:
        v = np.linalg.solve(kernel.matrix - np.eye(n) + 1.0, np.ones(n))
    except np.linalg.LinAlgError:
        return np.inf
    return float(np.max(np.abs(v / v.sum() - kernel.pi)))


def eigenvalue_moduli_excess(kernel: ConvolutionKernel) -> float:
    """Certified upper bound on max |eigenvalue| - 1 of the kernel: the
    spectral radius of any matrix is at most its induced 1-norm, the
    largest absolute column sum (Horn & Johnson, Matrix Analysis, 5.6)."""
    return float(np.linalg.norm(kernel.matrix, 1) - 1.0)
