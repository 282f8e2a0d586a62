"""Shared fixtures and the fixed parameter grids of the verification suite.

The grids are pinned here (not randomized per run) so failures reproduce.
Parameter choices respect the validity ranges of each recipe and keep the
truncated lattices within double-precision reach: the Meixner recipes put
a weight >= 6 on the exponent that controls how fast the kernel columns
decay past the truncation window, which keeps the certified windows at a
few hundred points.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from askeychain import (
    ConvolutionRecipe,
    ConvType,
    Family,
    FamilySpec,
    FreeFermionModel,
    SpectralSystem,
    build_kernel,
    families,
    markov,
    measure_vector,
    orthonormal_columns,
)
from askeychain.markov import ConvolutionKernel
from askeychain.spectral import eigen_residuals

# (family, conv_type) -> list of parameter tuples; 13 exposed combinations
# (meixner type ii is the alias of type i and is exercised through it)
FINITE_GRID = {
    (Family.KRAWTCHOUK, ConvType.I): [(0.3, 0.5), (0.5, 0.5), (0.7, 0.2)],
    (Family.KRAWTCHOUK, ConvType.II): [(0.2, 0.6), (0.5, 0.5), (0.6, 0.3)],
    (Family.KRAWTCHOUK, ConvType.III): [(0.4, 0.5), (0.3, 0.7), (0.8, 0.2)],
    (Family.HAHN, ConvType.I): [(1.0, 2.0, 3.0), (0.5, 0.5, 0.5), (2.0, 1.0, 0.7)],
    (Family.HAHN, ConvType.II): [(1.0, 0.5, 1.0), (2.0, 0.3, 1.5), (0.7, 1.0, 0.4)],
    (Family.HAHN, ConvType.III): [(1.0, 2.0, 1.0), (0.5, 1.0, 2.0), (2.0, 0.4, 0.6)],
    (Family.Q_HAHN, ConvType.I): [
        (0.3, 0.5, 0.4, 0.5),
        (0.5, 0.3, 0.6, 0.7),
        (0.2, 0.6, -0.3, 0.6),
    ],
    (Family.Q_HAHN, ConvType.III): [
        (0.3, 0.5, 0.4, 0.5),
        (0.6, 0.2, 0.3, 0.7),
        (0.4, -0.5, 0.5, 0.6),
    ],
}

TRUNCATED_GRID = {
    (Family.CHARLIER, ConvType.I): [(0.4, 0.8), (0.2, 0.5), (0.6, 1.2)],
    (Family.CHARLIER, ConvType.III): [(1.0, 0.4), (0.5, 0.5), (2.0, 0.3)],
    (Family.MEIXNER, ConvType.I): [(1.0, 6.0, 0.2), (0.5, 7.0, 0.25), (2.0, 7.0, 0.25)],
    (Family.MEIXNER, ConvType.II): [(1.0, 6.0, 0.2), (0.5, 7.0, 0.25), (2.0, 7.0, 0.25)],
    (Family.MEIXNER, ConvType.III): [(6.0, 0.2, 1.0), (7.0, 0.25, 0.5), (6.0, 0.25, 2.0)],
}

ACCEPT_NS = (5, 20, 50)
ACCEPT_TAIL_EPS = 1e-12

# grid for the Hahn type ii dual-representation check.  The alternating
# finite sum and the terminating-series evaluation agree to 1e-12 relative
# only where the eigenvalue stays well away from its zero crossings and
# term growth stays mild; the slow-decay regime (large a and c, small b)
# provides that with an order-of-magnitude margin.
HAHN2_DUAL_GRID = [(11.0, 0.3, 10.0), (12.0, 0.5, 10.0), (10.0, 0.6, 10.0)]


def all_combos():
    return list(FINITE_GRID) + list(TRUNCATED_GRID)


def grid_recipes():
    """Every (recipe, N-or-None) pair of the fixed grid at the largest N."""
    out = []
    for (fam, t), plist in FINITE_GRID.items():
        for params in plist:
            out.append((ConvolutionRecipe(fam, t, params), 20))
    for (fam, t), plist in TRUNCATED_GRID.items():
        for params in plist:
            out.append((ConvolutionRecipe(fam, t, params), None))
    return out


def window_system(recipe, size):
    """The spectral system of the raw ``size``-point window 0..size-1 of a
    semi-infinite chain.  The library serves these chains only on certified
    windows; the Gram, sweep and Jordan-Wigner cases need small ones, which
    carry no certificate and are built here from the library's own matrix
    builder and stationary row."""
    spec = recipe.stationary_spec(None)
    matrix = markov._build_matrix(recipe, size)
    kernel = ConvolutionKernel(matrix, measure_vector(spec, size), recipe)
    return SpectralSystem(kernel)


#: the measured deviation of a one-column last block, 2.9e-26 (9 units in
#: the last place of a 1.6e-11 residual) on the 33-point Charlier iii
#: (1, 0.4) window, with headroom
ONE_COLUMN_RESIDUAL_ATOL = 1e-25


def assert_residuals_keep_the_bits(system):
    """``eigen_residuals`` against the whole product H phi - phi kappa.

    The residuals are formed a block of columns at a time.  A last block one
    column wide is a matrix-vector product, which the BLAS sums on a path of
    its own, so its column is held to ``ONE_COLUMN_RESIDUAL_ATOL``; every
    other column keeps the whole product's bits."""
    h, phi = system.hamiltonian, system.phi
    r = np.max(np.abs(h @ phi - phi * system.kappas[None, :]), axis=0)
    want = r / float(np.max(np.sum(np.abs(h), axis=1)))
    got = eigen_residuals(system)
    exact = len(got) - 1 if len(got) % families._BLOCK_ROWS == 1 else len(got)
    assert got[:exact].tobytes() == want[:exact].tobytes()
    assert np.all(np.abs(got[exact:] - want[exact:]) <= ONE_COLUMN_RESIDUAL_ATOL)


def lowest_filling(system, m):
    """The ground state that fills the m modes of lowest kappa."""
    order = np.argsort(system.kappas, kind="stable")
    return FreeFermionModel(system, filled_modes=frozenset(int(n) for n in order[:m]))


def basis_polynomials(spec, npoints=None):
    """P[x, n] = P_n(x) and d2[n] = d_n^2 read off the library's orthonormal
    basis phi_n(x) = d_n sqrt(pi(x)) P_n(x), whose column 0 is sqrt(pi):

        P_n(x) = phi_n(x) phi_0(0) / (phi_n(0) phi_0(x)),  d_n^2 = (phi_n(0) / phi_0(0))^2,

    so P_0 = 1 and d_0^2 = 1 exactly.  Columns whose values leave the
    double range on a long window come back as inf or nan.
    """
    phi = orthonormal_columns(spec, npoints)
    row0 = phi[0]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        P = phi * row0[0] / (row0[None, :] * phi[:, :1])
    return P, (row0 / row0[0]) ** 2


def _sup_distance(spec, limit, window=15):
    """sup_x |pi_spec(x) - pi_limit(x)| on x <= window (pi is 0 off a lattice)."""
    def pi(s):
        npts = min(window + 1, s.size) if s.is_finite else window + 1
        return np.pad(measure_vector(s, npts), (0, window + 1 - npts))

    return float(np.max(np.abs(pi(spec) - pi(limit))))


def limit_distances():
    """The three inter-family limits as distance sequences that must fall:
    Krawtchouk(1/N) -> Charlier(1) and Hahn(1.5, 1.5N) -> Meixner(1.5, 0.4)
    as N = 10, 100, 1000, and Meixner(a, 1/(a+1)) -> Charlier(1) as
    a = 10, 100, 1000."""
    charlier = FamilySpec(Family.CHARLIER, (1.0,))
    meixner = FamilySpec(Family.MEIXNER, (1.5, 0.4))
    return {
        "krawtchouk->charlier": [
            _sup_distance(FamilySpec(Family.KRAWTCHOUK, (1.0 / N,), N=N), charlier)
            for N in (10, 100, 1000)
        ],
        "hahn->meixner": [
            _sup_distance(FamilySpec(Family.HAHN, (1.5, N * (1.0 - 0.4) / 0.4), N=N), meixner)
            for N in (10, 100, 1000)
        ],
        "meixner->charlier": [
            _sup_distance(FamilySpec(Family.MEIXNER, (a, 1.0 / (a + 1.0))), charlier)
            for a in (10, 100, 1000)
        ],
    }


@pytest.fixture(scope="session")
def kernel_cache():
    """Kernels are deterministic; build each (recipe, N) once per session.
    Semi-infinite recipes default to ACCEPT_TAIL_EPS; finite ones take none."""
    cache = {}

    def get(recipe, N=None, tail_eps=None):
        if tail_eps is None and not recipe.is_finite:
            tail_eps = ACCEPT_TAIL_EPS
        key = (recipe.family, recipe.conv_type, recipe.params, N, tail_eps)
        if key not in cache:
            cache[key] = build_kernel(recipe, N=N, tail_eps=tail_eps)
        return cache[key]

    return get
