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
so its products cost O(m^3 + N m^2) in all.

On a finite lattice the columns of phi are orthonormal, so the filled
state is pure and S([0,k)) = S([k,N)) (Peschel, J. Phys. A 36, L205,
2003).  The profile then runs the left sweep from both ends to the middle:
entry k reads the rows Q[:k] for k <= N//2 and Q[k:] past it, and the
eigensolves cost sum_k min(k, N - k, m)^3, about 0.4 of the one-sided sum
at half filling.  A truncated window's columns are not orthonormal, so its
state is not pure; it keeps the one-sided sweep, whose entry k reads
Q[:k], at sum_k min(k, m)^3.  The eigensolves are the floor.

Every eigensolve is one matrix of a stack, and each stack is one
``eigvalsh`` call, which numpy 2.4.6 runs without the GIL when (matrices
in the stack) x (order) > 500.  A stack holds floor(500/K)+1 matrices of
order K: Gram matrices (K = m), each still built by the same rank-one
update, or a run of leading blocks zero-padded to the run's top order K,
which adds only exact zero eigenvalues, and 2-14% to the cubes of a sweep
of 100-255 leading blocks.
The stacks go to a thread pool (``concurrent.futures``, imported on first
use) of one worker per CPU of the process's affinity mask that lives for
one profile, both sweeps of a pure state in one stream; the calling
thread builds them and retires the oldest before it builds the next, so
at most ``workers`` are in flight.  A stack too small to release the GIL
(a leading run of top order 22 or less, a Gram run shorter than one
stack) is solved here.  The pool assumes one BLAS thread per solve: with
two OpenBLAS threads on two cores the pooled sweep measured 3-54% slower
than the serial one, so it runs only where ``OPENBLAS_NUM_THREADS`` (or,
unset, ``OMP_NUM_THREADS``) is 1, as the benchmark and the golden tests
set it.  Otherwise, and with one CPU, this thread solves the same stacks
itself and no thread starts, so the profile keeps its bits.

The pipeline needs only the ground state, so the subset sums are not a
library function.  They live with the tests (``tests/oracles.py``, as
``many_body_energies``), beside the brute-force referee for all of the
above, the explicit 2^M-dimensional Jordan-Wigner construction.
"""

from __future__ import annotations

import collections
import contextlib
import math
import numbers
import os
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
    [0,1] and trace = number of filled modes, on each access.  ``pure``
    says that the columns are orthonormal, so that C is the projector of a
    pure state: true on a finite lattice, false on a truncated window.
    """

    modes: np.ndarray
    pure: bool = False

    @property
    def matrix(self) -> np.ndarray:
        return self.modes @ self.modes.T

    @property
    def size(self) -> int:
        return self.modes.shape[0]


def correlation_matrix(model: FreeFermionModel) -> CorrelationMatrix:
    """C = phi_filled phi_filled^T, kept as phi_filled."""
    cols = sorted(model.filled_modes)
    pure = model.spectral.kernel.recipe.is_finite
    return CorrelationMatrix(model.spectral.phi[:, cols], pure)


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


#: numpy 2.4.6's ``eigvalsh`` releases the GIL for a stack of matrices only
#: when (matrices in the stack) x (order) exceeds this
_GIL_FREE_SIZE = 500

#: the environment variables OpenBLAS reads its thread count from, the
#: first one set winning
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _worker_count() -> int:
    """Worker threads for the sweep's stacks: one per CPU of this process's
    affinity mask, and none on one CPU or unless the environment pins the
    BLAS to one thread."""
    blas = next((os.environ[var] for var in _BLAS_THREAD_VARS if os.environ.get(var)), None)
    if blas != "1":
        return 0
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return cpus if cpus > 1 else 0


def _stack_size(m: int) -> int:
    """The fewest matrices of order m whose stack ``eigvalsh`` solves
    without the GIL."""
    return _GIL_FREE_SIZE // m + 1


def _gram_stacks(q: np.ndarray, gram: np.ndarray, kmax: int):
    """(first, stack) for each run of the Gram matrices of the entries k > m,
    in order: ``gram`` = Q[:m]^T Q[:m] gains q_k q_k^T for entry k + 1, one
    rank-one update per site, and ``stack`` holds copies of _stack_size(m)
    successive ones (the last stack also the remainder, and a shorter run
    is one short stack), the i-th that of entry first + i.  A stack is
    built when the generator is advanced."""
    m = q.shape[1]
    count = _stack_size(m)
    starts = range(m, max(kmax - count, m) + 1, count) if kmax > m else range(0)
    for start, stop in zip(starts, [*starts[1:], kmax]):
        rows = q[start:stop]
        stack = np.empty((len(rows), m, m))
        for i, row in enumerate(rows):
            gram += np.outer(row, row)
            stack[i] = gram
        yield start + 1, stack
        del stack  # not held while the next one is built


def _write_stack(out: np.ndarray, first: int, lams: np.ndarray) -> None:
    for i, row in enumerate(lams):
        out[first + i] = _binary_entropy(row)


def _left_sweep(q: np.ndarray, kmax: int):
    """(first, stack) for every eigenproblem of S(Q[:k]), k = 1..kmax:
    entry first + i is the entropy of the i-th matrix of ``stack``.

    For k <= j = min(m, kmax) the block is the leading k x k submatrix of
    the one product Q[:j] Q[:j]^T.  These go in runs from k = j down: a run
    of top order K holds _stack_size(K) successive orders (the last run
    from k = 1), each block zero-padded to K x K.  The padding stays
    exactly 0 through LAPACK's reduction, so it adds K - k zero eigenvalues
    and no entropy.  For k > m the m x m Gram matrix Q[:k]^T Q[:k] starts
    from Q[:m]^T Q[:m] and gains the rank-one term q q^T of each new row q
    (``_gram_stacks``): O(m^2) per site, where a new product per block
    would cost O(k m^2).  Entry k reads only the rows Q[:k].
    """
    m = q.shape[1]
    if not m:
        return  # no filled mode: every entropy is 0
    lead = q[: min(m, kmax)]
    block = lead @ lead.T
    top = len(block)
    for k in range(top, 0, -1):  # a run ends at each top
        if k == top:
            top = max(k - _stack_size(k), 0)  # the top of the next run
            stack = np.zeros((k - top, k, k))
            for i, order in enumerate(range(top + 1, k + 1)):
                stack[i, :order, :order] = block[:order, :order]
            yield top + 1, stack
            del stack  # not held while the next one is built
    del block
    yield from _gram_stacks(q, lead.T @ lead, kmax)


def _solve(sweeps) -> None:
    """Solve the stacks of each (out, stacks) of ``sweeps`` into out[first:].
    With workers, each stack that ``eigvalsh`` solves without the GIL goes
    to a pool that lives for this call, at most ``workers`` in flight: the
    oldest is retired before the next is built.  Every other stack is
    solved on this thread."""
    workers = _worker_count()
    pool = None
    pending: collections.deque = collections.deque()  # (out, first, future), oldest first

    def retire(until: int) -> None:
        for _ in range(len(pending) - until):
            out, first, future = pending.popleft()
            _write_stack(out, first, future.result())

    with contextlib.ExitStack() as scope:  # the pool's threads end here, also on a raise
        for out, stacks in sweeps:
            for first, stack in stacks:
                if workers and len(stack) * stack.shape[-1] > _GIL_FREE_SIZE:
                    if pool is None:  # only a threaded sweep imports concurrent.futures
                        from concurrent.futures import ThreadPoolExecutor

                        pool = scope.enter_context(
                            ThreadPoolExecutor(workers, thread_name_prefix="askeychain-sweep"))
                    pending.append((out, first, pool.submit(np.linalg.eigvalsh, stack)))
                    retire(workers)
                else:
                    _write_stack(out, first, np.linalg.eigvalsh(stack))
                del stack  # not held while the next one is built
        retire(0)


def entropy_profile(corr: CorrelationMatrix) -> np.ndarray:
    """S([0,k)) for k = 0..size, each entry from the smaller side it can use.

    Each entry equals ``block_entropy`` of its own block up to rounding,
    but the products are shared (``_left_sweep``).  On a truncated window
    every entry is the left block S([0,k)), read from the rows Q[:k], and
    the eigensolves cost sum_k min(k, m)^3.  A pure state (finite lattice)
    has S([0,k)) = S([k,N)), so the entries k > N//2 are the right blocks
    S([k,N)), swept over the reversed rows and read from Q[k:] only: each
    eigenproblem has order min(k, N - k, m), and the solves cost
    sum_k min(k, N - k, m)^3.
    """
    q = corr.modes
    n = q.shape[0]
    out = np.zeros(n + 1)
    if not corr.pure:
        _solve([(out, _left_sweep(q, n))])
        return out
    half = n // 2
    # entry k of the right sweep is out[n - k], in one stream with the left
    # sweep's stacks, so the pool does not drain between them
    _solve([(out, _left_sweep(q, half)), (out[::-1], _left_sweep(q[::-1], n - half - 1))])
    return out
