"""Free spinless lattice fermions on top of a spectral system.

The quadratic Hamiltonian H_f = sum_{x,y} c_x^dag H(x,y) c_y diagonalizes
in the mode operators built from the orthonormal eigenvectors,
chat_n = sum_x phi_n(x) c_x, giving H_f = sum_n kappa(n) chat_n^dag chat_n.
Its many-body spectrum is therefore the set of subset sums of the kappa(n),
and the ground state at chemical potential mu fills the modes with
kappa(n) < mu.  Ground-state observables come from the two-point
correlation matrix C(x,y) = sum_{filled} phi_n(x) phi_n(y), a projector
whose block eigenvalues give the entanglement entropy of the block.

C = Q Q^T with Q the N x m filled-mode columns of phi, so the library keeps
Q and never needs C itself.  A block [s, t) of C is A A^T with A = Q[s:t],
and its nonzero eigenvalues are those of the m x m Gram matrix A^T A; the
other k - m (k = t - s) are zeros and add no entropy.  This holds for any
Q, including the not quite orthonormal columns of a truncated window.  A
single block therefore solves the smaller of its k x k and m x m
eigenproblems, at O(k m min(k, m)) for the product and O(min(k, m)^3) for
the solve.  The left sweep reuses its products: for k <= m each block is a
leading principal submatrix of the one m x m product Q[:m] Q[:m]^T, and
for k > m the Gram matrix grows by one rank-one term q_k q_k^T per site,
so its products cost O(m^3 + N m^2) in all.  The eigensolves, O(N m^3),
are the floor.

The pipeline needs only the ground state, so the subset sums are not a
library function.  They live with the tests (``tests/oracles.py``, as
``many_body_energies``), beside the brute-force referee for all of the
above, the explicit 2^M-dimensional Jordan-Wigner construction.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .spectral import SpectralSystem

@dataclass(frozen=True)
class FreeFermionModel:
    """Spectral data plus a choice of filled modes.

    With the default filling (mu = 0) exactly the negative-kappa modes are
    occupied, which is the nontrivial ground state for kernels with
    negative eigenvalues and the Fock vacuum otherwise.  ``mu`` must be
    finite even when ``filled_modes`` overrides it; any finite mu > 1
    already fills every mode.  Explicit filled modes are integer indices
    (bools and floats such as 2.0 are refused) and are stored as ``int``.
    """

    spectral: SpectralSystem
    mu: float = 0.0
    filled_modes: frozenset[int] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if not math.isfinite(self.mu):
            raise DomainError(f"chemical potential mu must be finite, got {self.mu}")
        if self.filled_modes is None:
            filled = frozenset(
                int(n) for n in np.flatnonzero(self.spectral.kappas < self.mu)
            )
            object.__setattr__(self, "filled_modes", filled)
        else:
            modes = list(self.filled_modes)
            odd = [n for n in modes if isinstance(n, bool) or not isinstance(n, numbers.Integral)]
            if odd:
                raise DomainError(f"filled modes must be integer mode indices, got {odd}")
            object.__setattr__(self, "filled_modes", frozenset(int(n) for n in modes))
        bad = [n for n in self.filled_modes if not 0 <= n < self.spectral.size]
        if bad:
            raise DomainError(f"filled modes {bad} outside 0..{self.spectral.size - 1}")


@dataclass(frozen=True)
class CorrelationMatrix:
    """Ground-state two-point function C = Q Q^T, held as its factor Q.

    ``modes`` is Q, the N x m filled-mode columns of phi in ascending mode
    order.  ``matrix`` forms C, a symmetric projector with eigenvalues in
    [0,1] and trace = number of filled modes, on each access.
    """

    modes: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        return self.modes @ self.modes.T

    @property
    def size(self) -> int:
        return self.modes.shape[0]


def correlation_matrix(model: FreeFermionModel) -> CorrelationMatrix:
    """C = phi_filled phi_filled^T, kept as phi_filled."""
    cols = sorted(model.filled_modes)
    return CorrelationMatrix(model.spectral.phi[:, cols])


def _binary_entropy(lams: np.ndarray) -> float:
    # 0 ln 0 = 0 at both ends, and NaN adds nothing either
    lams = lams[(lams > 0.0) & (lams < 1.0)]
    terms = lams * np.log(lams) + (1.0 - lams) * np.log1p(-lams)
    # 0.0 - sum, not -sum, keeps an empty sum at +0.0
    return float(0.0 - np.sum(terms))


def block_entropy(corr: CorrelationMatrix, block: tuple[int, int]) -> float:
    """Entanglement entropy of the contiguous sites [start, stop).

    S = -sum_j [l_j ln l_j + (1-l_j) ln(1-l_j)] over the eigenvalues of the
    block submatrix of C.  Eigenvalues outside (0, 1) add nothing (0 ln 0 =
    0 at both ends, and rounding past either end is dropped): an exact
    product state has entropy 0.

    The block of C is A A^T with A = Q[start:stop], k x m.  Its nonzero
    eigenvalues equal those of the Gram matrix A^T A and the rest are zeros,
    so the eigenvalues come from whichever of the two is smaller:
    O(k m min(k, m)) to form it, O(min(k, m)^3) to solve it.
    """
    start, stop = block
    if not 0 <= start <= stop <= corr.size:
        raise DomainError(f"block {block} outside lattice of {corr.size} sites")
    if start == stop:
        return 0.0
    a = corr.modes[start:stop]
    gram = a @ a.T if stop - start <= a.shape[1] else a.T @ a
    return _binary_entropy(np.linalg.eigvalsh(gram))


def entropy_profile(corr: CorrelationMatrix) -> np.ndarray:
    """S([0,k)) for k = 0..size: the left-block entropy sweep.

    Each S([0,k)) equals ``block_entropy(corr, (0, k))`` up to rounding,
    but the products are shared.  For k <= m the block is the leading
    k x k submatrix of the one m x m product Q[:m] Q[:m]^T.  For k > m the
    m x m Gram matrix Q[:k]^T Q[:k] starts from Q[:m]^T Q[:m] and gains
    the rank-one term q q^T of each new row q: N - m updates of O(m^2)
    each, where a new product per block would cost O(k m^2).  No entry of
    S([0,k)) reads the complement rows Q[k:].  The eigensolves, O(N m^3)
    in all, are the floor.
    """
    q = corr.modes
    n, m = q.shape
    profile = np.zeros(n + 1)
    lead = q[:m]
    block = lead @ lead.T
    for k in range(1, m + 1):
        profile[k] = _binary_entropy(np.linalg.eigvalsh(block[:k, :k]))
    gram = lead.T @ lead
    for k in range(m, n):
        gram += np.outer(q[k], q[k])
        profile[k + 1] = _binary_entropy(np.linalg.eigvalsh(gram))
    return profile
