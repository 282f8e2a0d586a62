"""Independent reference implementations used only by the tests.

Everything here is deliberately slow and dumb: exact rational arithmetic
where the inputs allow it, direct product/sum loops elsewhere.  These are
the ground-truth generators for the library's fast log-space paths and
the Jordan-Wigner Fock-space picture of the fermion layer; they must not
share code with the package, so they import nothing from it and read
library objects (recipes, kernels) only as data.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
import scipy.sparse as sp


def poch_frac(a: Fraction, n: int) -> Fraction:
    out = Fraction(1)
    for k in range(n):
        out *= a + k
    return out


def hyper_frac(nums: list[Fraction], dens: list[Fraction], z: Fraction, nterms: int) -> Fraction:
    """Terminating hypergeometric sum, exact: sum_{k<=nterms} of the series."""
    total = Fraction(0)
    for k in range(nterms + 1):
        term = Fraction(1)
        for a in nums:
            term *= poch_frac(a, k)
        for b in dens:
            term /= poch_frac(b, k)
        term *= z**k / math.factorial(k)
        total += term
    return total


def qpoch_frac(a: Fraction, q: Fraction, n: int) -> Fraction:
    out = Fraction(1)
    for k in range(n):
        out *= 1 - a * q**k
    return out


def q_3phi2_frac(
    nums: list[Fraction], dens: list[Fraction], q: Fraction, z: Fraction, nterms: int
) -> Fraction:
    total = Fraction(0)
    for k in range(nterms + 1):
        term = Fraction(1)
        for a in nums:
            term *= qpoch_frac(a, q, k)
        for b in dens:
            term /= qpoch_frac(b, q, k)
        term /= qpoch_frac(q, q, k)
        term *= z**k
        total += term
    return total


def hahn_type2_kappa_sum(a: float, b: float, c: float, n: int) -> float:
    """Explicit alternating finite-sum form of the Hahn type ii eigenvalue:

        sum_k  C(n,k) (-1)^k (b)_k (n+a+2b+c-1)_k / ((a+b)_k (b+c)_k)
    """
    def poch(v, k):
        out = 1.0
        for j in range(k):
            out *= v + j
        return out

    terms = [
        math.comb(n, k) * (-1) ** k * poch(b, k) * poch(n + a + 2 * b + c - 1, k)
        / (poch(a + b, k) * poch(b + c, k))
        for k in range(n + 1)
    ]
    return math.fsum(terms)


def _qpoch(w: float, q: float, n: int) -> float:
    """(w; q)_n as a direct product."""
    out = 1.0
    for k in range(n):
        out *= 1 - w * q**k
    return out


def measure_direct(family: str, params: tuple, x: int, N: int | None = None) -> float:
    """Measures straight from their defining formulas, in linear arithmetic."""
    if family == "krawtchouk":
        (p,) = params
        return math.comb(N, x) * p**x * (1 - p) ** (N - x)
    if family == "charlier":
        (a,) = params
        # lgamma, not factorial: the points run past 170, where x! leaves the double range
        return math.exp(x * math.log(a) - a - math.lgamma(x + 1))
    if family == "hahn":
        a, b = params
        def poch(v, k):
            out = 1.0
            for j in range(k):
                out *= v + j
            return out
        return math.comb(N, x) * poch(a, x) * poch(b, N - x) / poch(a + b, N)
    if family == "meixner":
        a, b = params
        return math.exp(
            math.lgamma(a + x) - math.lgamma(a) - math.lgamma(x + 1)
            + x * math.log(b) + a * math.log(1 - b)
        )
    if family == "qhahn":
        a, b, q = params
        qbin = _qpoch(q, q, N) / (_qpoch(q, q, x) * _qpoch(q, q, N - x))
        return qbin * _qpoch(a, q, x) * _qpoch(b, q, N - x) * a ** (N - x) / _qpoch(a * b, q, N)
    raise ValueError(family)


def norm_sq_direct(family: str, params: tuple, n: int, N: int | None = None) -> float:
    """Squared norm constants d_n^2 (P_n(0) = 1, d_0^2 = 1) from their closed
    forms: self-duality d_n^2 pi(0) = pi(n) for Krawtchouk, Charlier and
    Meixner, lgamma sums for Hahn, direct q-Pochhammer products for q-Hahn."""
    if n == 0:
        return 1.0
    if family in ("krawtchouk", "charlier", "meixner"):
        return measure_direct(family, params, n, N) / measure_direct(family, params, 0, N)
    if family == "hahn":
        a, b = params
        return (2 * n + a + b - 1) * math.exp(
            math.lgamma(N + 1) - math.lgamma(n + 1) - math.lgamma(N - n + 1)
            + math.lgamma(a + n) - math.lgamma(a) - math.lgamma(b + n) + math.lgamma(b)
            + math.lgamma(a + b + N) - math.lgamma(a + b)
            + math.lgamma(n + a + b - 1) - math.lgamma(n + a + b + N)
        )
    if family == "qhahn":
        a, b, q = params
        qbin = _qpoch(q, q, N) / (_qpoch(q, q, n) * _qpoch(q, q, N - n))
        return (
            qbin * _qpoch(a, q, n) * _qpoch(a * b, q, n - 1) * (1 - a * b * q ** (2 * n - 1))
            / (_qpoch(a * b * q**N, q, n) * _qpoch(b, q, n) * a**n)
        )
    raise ValueError(family)


def kernel_entry(recipe, x: int, y: int, N: int | None = None) -> float:
    """K(x, y) by direct summation of the defining convolution (see the
    ``markov`` module docstring) over ``measure_direct`` factors.

    Semi-infinite factors ignore their size slot; a semi-infinite type iii
    sum stops after three consecutive terms below 1e-16 of the partial sum
    with a decreasing term ratio.
    """
    factor2, factor1 = recipe.factors

    def term(u2: int, n2: int, u1: int, n1: int) -> float:
        return (measure_direct(factor2.family, factor2.params, u2, n2)
                * measure_direct(factor1.family, factor1.params, u1, n1))

    if recipe.conv_type == "i":
        return math.fsum(term(x - z, N - z if N is not None else 0, z, y)
                         for z in range(min(x, y) + 1))
    if recipe.conv_type == "ii":
        return math.fsum(term(x - z, N - y, z, y)
                         for z in range(max(0, x + y - N), min(x, y) + 1))
    if N is not None:
        return math.fsum(term(x, z, z - y, N - y) for z in range(max(x, y), N + 1))
    total, small_run, prev, z = 0.0, 0, math.inf, max(x, y)
    while small_run < 3:
        t = term(x, z, z - y, 0)
        total += t
        small_run = small_run + 1 if t <= 1e-16 * total and t < prev else 0
        prev, z = t, z + 1
    return total


def recipe_in_range(family: str, conv_type: str, params: tuple) -> bool:
    """The parameter ranges of the thirteen convolution recipes, written out
    by hand per (family, type): the reference for the library's rule that a
    recipe is valid exactly when both of its factor measures are."""
    unit = [0 < v < 1 for v in params]
    pos = [v > 0 for v in params]
    if family == "krawtchouk":
        return unit[0] and unit[1]
    if family == "charlier":
        return unit[0] and pos[1] if conv_type == "i" else pos[0] and unit[1]
    if family == "hahn":
        return all(pos)
    if family == "meixner":
        if conv_type == "iii":
            return pos[0] and unit[1] and pos[2]
        return pos[0] and pos[1] and unit[2]
    a, b, c, q = params
    if conv_type == "i":
        return unit[3] and unit[0] and unit[1] and c < 1
    return unit[3] and unit[0] and b < 1 and unit[2]


def left_eigen_residual(kernel, pol: np.ndarray, kap: float) -> float:
    """Residual of sum_x K(x,y) P_n(x) = kappa(n) P_n(y), scaled by ||P_n||_inf."""
    lhs = kernel.matrix.T @ pol
    return float(np.max(np.abs(lhs - kap * pol)) / np.max(np.abs(pol)))


def right_eigen_residual(kernel, pol: np.ndarray, kap: float) -> float:
    """Residual of sum_y K(x,y) pi(y) P_n(y) = kappa(n) pi(x) P_n(x), scaled
    by the sup of |pi P_n|."""
    v = kernel.pi * pol
    lhs = kernel.matrix @ v
    return float(np.max(np.abs(lhs - kap * v)) / np.max(np.abs(v)))


def perron_frobenius_vector(matrix: np.ndarray) -> np.ndarray:
    """Eigenvector of the eigenvalue with the largest real part, from the
    dense nonsymmetric eigensolver, normalized to sum 1: the referee for the
    linear solve in ``markov.perron_frobenius_residual``."""
    vals, vecs = np.linalg.eig(matrix)
    v = vecs[:, np.argmax(vals.real)].real
    return v / v.sum()


def eigvals_moduli_excess(matrix: np.ndarray) -> float:
    """max |eigenvalue| - 1 from the dense nonsymmetric eigenvalue solver: the
    quantity ``markov.eigenvalue_moduli_excess`` bounds from above.  Its own
    rounding can put it a few n * eps above the true spectral radius."""
    return float(np.max(np.abs(np.linalg.eigvals(matrix))) - 1.0)


def parse_matrix_csv(text: str) -> np.ndarray:
    """A ``matrix_csv`` text back to the matrix (its rows hold no whitespace)."""
    return np.array([[float(v) for v in row.split(",")] for row in text.split()])


def matrix_csv_per_float(matrix: np.ndarray) -> str:
    """The ``matrix_csv`` text built one f-string per float: the export
    builders' byte referee."""
    lines = [",".join(f"{v:.17g}" for v in row) for row in np.atleast_2d(matrix)]
    return "\n".join(lines) + "\n"


def rows_csv_per_value(header: tuple[str, ...], rows) -> str:
    """The ``rows_csv`` text built one value at a time, floats at 17
    significant digits and every other value as its str: the table
    builder's byte referee."""
    lines = [",".join(header)]
    lines += [",".join("%.17g" % v if isinstance(v, float) else str(v) for v in row)
              for row in rows]
    return "\n".join(lines) + "\n"


def envelope_json_dumps(payload: dict) -> str:
    """The ``envelope_json`` text from one ``json.dumps(indent=1)`` of the
    whole payload, arrays and numpy scalars as their ``tolist``/``item``."""

    def default(o):
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, (np.floating, np.integer)):
            return o.item()
        raise TypeError(f"cannot serialize {type(o)}")

    return json.dumps(payload, default=default, indent=1) + "\n"


# ---------------------------------------------------------------------------
# Jordan-Wigner brute-force referee for the free-fermion layer
# ---------------------------------------------------------------------------

#: hard cap on the 2^M constructions (Fock space and subset sums)
JW_MAX_SITES = 12

#: eigenvalues of reduced density matrices at or below this count as zero
JW_EIGENVALUE_FLOOR = 1e-12


def many_body_energies(levels: np.ndarray) -> np.ndarray:
    """All 2^M subset sums of M single-particle levels, sorted: the exact
    many-body spectrum of the diagonalized quadratic Hamiltonian."""
    levels = np.asarray(levels, dtype=float)
    if levels.size > JW_MAX_SITES:
        raise ValueError(f"{levels.size} modes exceed the oracle cap {JW_MAX_SITES}")
    energies = np.zeros(1)
    for k in levels:
        energies = np.concatenate([energies, energies + k])
    return np.sort(energies)


def jordan_wigner_operators(nsites: int) -> list[sp.csr_matrix]:
    """Annihilation operators c_x as exact sparse sign-string matrices.

    c_x = Z otimes ... otimes Z otimes sigma- otimes 1 ... (x Z factors);
    every canonical anticommutation relation then holds exactly, entry by
    entry, which is what makes this construction a trustworthy referee.
    Site 0 is the leftmost tensor factor; the vacuum is basis state 0.
    """
    if nsites > JW_MAX_SITES:
        raise ValueError(f"{nsites} sites exceed the oracle cap {JW_MAX_SITES}")
    sigma_minus = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    sigma_z = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, -1.0]]))
    eye2 = sp.identity(2, format="csr")
    ops = []
    for x in range(nsites):
        factors = [sigma_z] * x + [sigma_minus] + [eye2] * (nsites - x - 1)
        op = factors[0]
        for f in factors[1:]:
            op = sp.kron(op, f, format="csr")
        ops.append(op)
    return ops


def jordan_wigner_hamiltonian(h: np.ndarray) -> sp.csr_matrix:
    """H_f = sum_{x,y} H(x,y) c_x^dag c_y on the 2^M Fock space."""
    h = np.asarray(h, dtype=float)
    nsites = h.shape[0]
    ops = jordan_wigner_operators(nsites)
    dags = [op.T.tocsr() for op in ops]
    out = sp.csr_matrix((2**nsites, 2**nsites))
    for x in range(nsites):
        for y in range(nsites):
            if h[x, y] != 0.0:
                out = out + h[x, y] * (dags[x] @ ops[y])
    return out.tocsr()


def jordan_wigner_spectrum(h: np.ndarray) -> np.ndarray:
    """Sorted exact many-body spectrum of the quadratic Hamiltonian."""
    hf = jordan_wigner_hamiltonian(h).toarray()
    return np.sort(np.linalg.eigvalsh(hf))


def mode_operator(phi_col: np.ndarray, ops: list[sp.csr_matrix]) -> sp.csr_matrix:
    """chat_n = sum_x phi_n(x) c_x for one eigenvector column."""
    return sum(c * op for c, op in zip(phi_col, ops)).tocsr()


def jordan_wigner_ground_state(phi: np.ndarray, filled) -> np.ndarray:
    """State vector prod_{n in filled} chat_n^dag |vacuum> on 2^M sites."""
    nsites = phi.shape[0]
    ops = jordan_wigner_operators(nsites)
    psi = np.zeros(2**nsites)
    psi[0] = 1.0
    for n in sorted(filled):
        psi = mode_operator(phi[:, n], ops).T @ psi
    norm = np.linalg.norm(psi)
    if norm == 0.0:
        raise ValueError("filled-mode construction annihilated the vacuum")
    return psi / norm


def reduced_density_entropy(psi: np.ndarray, nblock: int) -> float:
    """Von Neumann entropy of the first ``nblock`` sites of a pure state.

    The reduced density matrix comes from reshaping the amplitude vector to
    (2^nblock, 2^rest); leading sites are the leading tensor factors, so
    only left-aligned blocks are supported (the sign strings of interior
    blocks would reach outside the block).
    """
    nsites = psi.size.bit_length() - 1
    if 2**nsites != psi.size or not 0 <= nblock <= nsites:
        raise ValueError(f"block size {nblock} on a state of length {psi.size}")
    if nblock == 0 or nblock == nsites:
        return 0.0
    a = psi.reshape(2**nblock, 2 ** (nsites - nblock))
    lams = np.linalg.eigvalsh(a @ a.T)
    lams = lams[lams > JW_EIGENVALUE_FLOOR]
    return float(-np.sum(lams * np.log(lams)))
