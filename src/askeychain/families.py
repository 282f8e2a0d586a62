"""Discrete orthogonal polynomial families and their convolution recipes.

Five families are implemented: Krawtchouk (K), Charlier (C), Hahn (H),
Meixner (M) and q-Hahn (qH).  Each is one row of ``_FAMILIES``: its
parameter names and ranges, its term ratio, its three-term recurrence and,
on Z>=0, ln pi(0) and a tail-ratio bound; no other code tells the
families apart.  From those rows this module provides the
normalized orthogonality measure pi, the orthonormal functions
phi_n(x) = d_n sqrt(pi(x)) P_n(x) (P_n the polynomials normalized to
P_n(0) = 1, d_n^2 their squared norm constants), and one row of
``_RECIPES`` per (family, convolution type): the pair of factor measures
whose convolution is a reversible Markov kernel, its stationary measure
lambda3 and its eigenvalues kappa(n).  The pipeline needs only phi, so
P_n and d_n^2 are not offered on their own; the tests read them off the
columns of phi.

The basis is produced from the three-term recurrence in the degree, not
by summing the defining hypergeometric series: each row of phi is an
eigenvector of the recurrence's Jacobi matrix, built from ratios of the
pivots of its factorizations, while the series terms alternate in sign and
cancel catastrophically for degrees and lattice points past ~25.  The
series themselves are evaluated only in the tests, in exact rational
arithmetic, as the small-instance cross-check.

Measures are built in log space and exponentiated once at the end:
products like binom(N,x) p^x (1-p)^(N-x) leave the double range long
before N ~ 1e3.  Each row ln pi(.; n) is a running sum of the log term
ratios r(x) = pi(x+1)/pi(x), the row's ``ratio``, or for q-Hahn the sum of
the log q-Pochhammer factors of its closed form that depend on x.  Every
finite row is then normalized by its own log-sum-exp; a semi-infinite row
(Charlier, Meixner) starts from its closed-form ln pi(0).  Every family's
values are gathered from its table of rows.
Log-gamma differences would cancel instead: ln Gamma(801) ~ 4551 leaves
~5e-13 of error in every entry at N = 800, while the running sums stay within
~4e-13 of 40-digit references out to ln pi = -708.  ``log_measure_grid``
is the one implementation of the five measures; ``measure_vector`` is its
call for one lattice row.

A recipe is valid exactly when its two factor measures are, so the
``_FAMILIES`` ranges, checked by ``_check_params``, are the only parameter
ranges, finiteness included.
``lambda3`` is the unsized stationary measure;
``ConvolutionRecipe.stationary_spec(N)`` gives the lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .errors import DomainError


class Family(str, Enum):
    KRAWTCHOUK = "krawtchouk"
    CHARLIER = "charlier"
    HAHN = "hahn"
    MEIXNER = "meixner"
    Q_HAHN = "qhahn"


@dataclass(frozen=True)
class _FamilyRow:
    """The facts fixing one family, as functions of its measure parameters
    p: the range of p, the term ratio ``ratio(m, x, *p)`` = pi(x+1)/pi(x)
    with m = max(n - x, 0) on the lattice {0..n} (None on Z>=0), or instead
    a closed form: ``log_grid(nmax, *p)`` is the function (n, x) -> ln pi(x; n)
    up to a term in n, on index arrays 0 <= x <= n <= nmax; the recurrence
    (A_n, C_n) and sites theta(x), and on Z>=0 ln pi(0) and a bound
    ``tail_ratio(M, *p)`` on sup_{x>M} of the term ratio."""

    names: tuple[str, ...]
    recipe_names: tuple[str, ...]
    in_range: Callable[..., bool]
    range_text: str
    recurrence: Callable
    ratio: Callable | None = None
    theta: Callable = lambda x, *p: -x
    log_pi0: Callable | None = None
    tail_ratio: Callable | None = None
    log_grid: Callable | None = None

    @property
    def finite(self) -> bool:
        return self.log_pi0 is None


def _hahn_recurrence(n, N, a, b):
    with np.errstate(divide="ignore", invalid="ignore"):
        A = (n + a + b - 1) * (n + a) * (N - n) / ((2 * n + a + b - 1) * (2 * n + a + b))
    # the (a+b-1) factors cancel at n = 0; the closed form avoids 0/0 at a+b = 1
    A[0] = a * N / (a + b)
    C = np.zeros(len(n))
    m = n[1:]
    C[1:] = m * (m + a + b + N - 1) * (m + b - 1) / ((2 * m + a + b - 2) * (2 * m + a + b - 1))
    return A, C


def _qhahn_recurrence(n, N, a, b, q):
    q = np.float64(q)  # q^(-N) past the double range is inf, not an OverflowError
    qn = q**n
    with np.errstate(divide="ignore", invalid="ignore"):
        A = (
            (1 - a * qn) * (1 - a * b * qn / q) * (1 - qn * q ** (-N))
            / ((1 - a * b * qn * qn / q) * (1 - a * b * qn * qn))
        )
    # (1 - ab/q) cancels between numerator and denominator at n = 0
    A[0] = (1 - a) * (1 - q ** (-N)) / (1 - a * b)
    C = np.zeros(len(n))
    if len(n) > 1:
        qm = qn[1:]
        C[1:] = (
            -a * qm * q ** (-N - 1)
            * (1 - qm) * (1 - a * b * qm * q ** (N - 1)) * (1 - b * qm / q)
            / ((1 - a * b * qm * qm / (q * q)) * (1 - a * b * qm * qm / q))
        )
    return A, C


def _qhahn_theta(x, a, b, q):
    """q^(-x) - 1.  The power is correctly rounded, where exp(x ln(1/q)) has
    an error x ln(1/q) times that of ln q; below 2 expm1 keeps the digits
    that subtracting 1 would cancel."""
    qx = np.float64(q) ** -x
    return np.where(qx >= 2.0, qx - 1.0, np.expm1(-x * math.log(q)))


def _log_qpoch_prefix(w: float, q: float, kmax: int) -> np.ndarray:
    """Array L[k] = ln (w;q)_k for k = 0..kmax; requires all factors > 0.  A
    factor 1 - w q^k with w > 0 is -expm1(ln w + k ln q), so w q^k -> 1 cancels nothing."""
    k = np.arange(kmax)
    factors = -np.expm1(math.log(w) + k * math.log(q)) if w > 0 else 1.0 - w * q**k
    if np.any(factors <= 0.0):
        raise DomainError(f"nonpositive q-pochhammer factor for w={w}, q={q}")
    out = np.zeros(kmax + 1)
    np.cumsum(np.log(factors), out=out[1:])
    return out


def _qhahn_log_grid(nmax, a, b, q):
    """ln pi(x; n) up to a term in n: ln of (a;q)_x (b;q)_{n-x} a^(n-x) / ((q;q)_x
    (q;q)_{n-x}) on index arrays 0 <= x <= n <= nmax, from three prefixes built once."""
    lqf, la, lb = (_log_qpoch_prefix(w, q, nmax) for w in (q, a, b))
    return lambda n, x: la[x] - lqf[x] + lb[n - x] - lqf[n - x] + (n - x) * math.log(a)


#: One row per family: the only place that tells the families apart.
_FAMILIES: dict[Family, _FamilyRow] = {
    Family.KRAWTCHOUK: _FamilyRow(
        ("p",), ("a", "b"), lambda p: 0.0 < p < 1.0, "0 < p < 1",
        recurrence=lambda n, N, p: (p * (N - n), n * (1.0 - p)),
        ratio=lambda m, x, p: m * (p / ((x + 1) * (1 - p))),
    ),
    Family.CHARLIER: _FamilyRow(
        ("a",), ("a", "b"), lambda a: a > 0.0, "a > 0",
        recurrence=lambda n, N, a: (np.full(n.shape, a), n.copy()),
        ratio=lambda m, x, a: a / (x + 1),
        log_pi0=lambda a: -a,
        tail_ratio=lambda M, a: a / (M + 2),
    ),
    Family.HAHN: _FamilyRow(
        ("a", "b"), ("a", "b", "c"), lambda a, b: a > 0.0 and b > 0.0, "a, b > 0",
        recurrence=_hahn_recurrence,
        # m is a whole number: max(m, 1) - 1 is max(m - 1, 0) exactly, with one
        # temporary fewer
        ratio=lambda m, x, a, b: m * ((a + x) / (x + 1)) / (np.maximum(m, 1.0) - 1.0 + b),
    ),
    Family.MEIXNER: _FamilyRow(
        ("a", "b"), ("a", "b", "c"), lambda a, b: a > 0.0 and 0.0 < b < 1.0, "a > 0 and 0 < b < 1",
        recurrence=lambda n, N, a, b: (b * (n + a) / (1.0 - b), n / (1.0 - b)),
        ratio=lambda m, x, a, b: b * (a + x) / (x + 1),
        log_pi0=lambda a, b: a * math.log1p(-b),
        # the ratio is decreasing in x for a > 1, else below b
        tail_ratio=lambda M, a, b: b * np.maximum(1.0, (a + M + 1) / (M + 2)),
    ),
    Family.Q_HAHN: _FamilyRow(
        ("a", "b", "q"), ("a", "b", "c", "q"),
        lambda a, b, q: 0.0 < a < 1.0 and b < 1.0 and 0.0 < q < 1.0, "0 < a < 1, b < 1, 0 < q < 1",
        recurrence=_qhahn_recurrence,
        theta=_qhahn_theta,
        log_grid=_qhahn_log_grid,
    ),
}


def _check_params(family: Family, params: tuple[float, ...]) -> tuple[float, ...]:
    """Arity, finiteness and range of a family's measure parameters: the one
    copy of the validity rules, shared by lattice specs and convolution
    factors (a recipe's raw parameters and its lambda3 included).  Returns
    the checked parameters as Python floats."""
    row = _FAMILIES[family]
    names = row.names
    if len(params) != len(names):
        raise DomainError(f"{family.value} takes parameters {names}, got {params}")
    if not all(math.isfinite(v) for v in params):
        raise DomainError(f"{family.value} parameters must be finite, got {params}")
    if not row.in_range(*params):
        got = f"{names[0]}={params[0]}" if len(names) == 1 else f"{params}"
        raise DomainError(f"{family.value} needs {row.range_text}, got {got}")
    return tuple(float(v) for v in params)


@dataclass(frozen=True)
class FamilySpec:
    """A polynomial family together with its parameters and lattice size.

    ``N`` is the finite lattice size (points 0..N) and must be None for the
    semi-infinite families (Charlier, Meixner): the library's one lattice-size
    rule, which recipes, the parser and the kernel builder all defer to.
    """

    family: Family
    params: tuple[float, ...]
    N: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _check_params(self.family, self.params))
        if self.is_finite:
            if self.N is None or self.N < 0:
                raise DomainError(f"{self.family.value} needs a lattice size N >= 0, got {self.N}")
        elif self.N is not None:
            raise DomainError(f"{self.family.value} lives on Z>=0 and takes --eps, not N")

    @property
    def is_finite(self) -> bool:
        return _FAMILIES[self.family].finite

    @property
    def size(self) -> int:
        if self.N is None:
            raise ValueError("semi-infinite family has no intrinsic size")
        return self.N + 1

    def to_string(self) -> str:
        parts = [
            f"{name}={value!r}"
            for name, value in zip(_FAMILIES[self.family].names, self.params)
        ]
        if self.N is not None:
            parts.append(f"N={self.N}")
        return f"{self.family.value}:" + ",".join(parts)


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------


#: rows that the measure table build, the measure gather, the basis's twist
#: and row assembly and the spectral checks work on at once: their
#: temporaries are this many rows long, whatever the lattice size
_BLOCK_ROWS = 32


def _row_blocks(nrows: int) -> list[slice]:
    """Consecutive slices of _BLOCK_ROWS rows covering 0..nrows-1."""
    return [slice(lo, min(lo + _BLOCK_ROWS, nrows)) for lo in range(0, nrows, _BLOCK_ROWS)]


def _log_measure_rows(
    row: _FamilyRow, params: tuple[float, ...], rows: np.ndarray | None, xmax: int
) -> np.ndarray:
    """Table T[i, x] = ln pi(x; rows[i]), x = 0..xmax, as running sums of
    the log term ratios, or from the row's closed form.

    A finite row (``xmax`` its largest size) is built _BLOCK_ROWS rows at a
    time, so besides the table only temporaries of that many rows are held.
    Its unnormalized log weights are -inf past its end (a running sum has
    ratio 0 from there on; a closed-form row is set so), and each finite
    row is normalized by its own log-sum-exp.  A semi-infinite row
    (``rows`` is None; one row) starts from its closed-form ln pi(0).
    """
    x = np.arange(xmax, dtype=float)
    if rows is None:
        with np.errstate(divide="ignore"):
            t = np.log(row.ratio(None, x, *params))
        table = np.zeros(xmax + 1)
        np.cumsum(t, out=table[1:])
        return table + row.log_pi0(*params)
    table = np.zeros((len(rows), xmax + 1))
    log_grid = row.log_grid(xmax, *params) if row.log_grid else None
    for blk in _row_blocks(len(rows)):
        n = rows[blk, None]
        part = table[blk]
        if log_grid:
            xs = np.arange(xmax + 1)
            part[:] = log_grid(n, np.minimum(xs, n))
            np.copyto(part, -np.inf, where=xs > n)
        else:
            m = n - x
            np.maximum(m, 0.0, out=m)
            with np.errstate(divide="ignore"):
                t = row.ratio(m, x, *params)
                np.log(t, out=t)
            np.cumsum(t, axis=-1, out=part[:, 1:])
        part -= part.max(axis=1, keepdims=True)
        part -= np.log(np.exp(part).sum(axis=1, keepdims=True))
    return table


def log_measure_grid(
    family: Family, params: tuple[float, ...], pts: np.ndarray, sizes: np.ndarray
) -> np.ndarray:
    """Vectorized ln pi(pts) with per-entry lattice size ``sizes``.

    ``pts`` and ``sizes`` are integer arrays that broadcast against each
    other; the result has their broadcast shape, and index vectors such as
    ``np.arange(n)[:, None]`` give the bits of the full ``np.indices``
    grids they stand for.  Semi-infinite families ignore ``sizes``.
    Entries where pts is outside the lattice are returned as -inf.  The
    values are gathered from one table of rows ln pi(.; n), for every n
    from the smallest to the largest size (a single row for the
    semi-infinite families), so the cost is that of the table, not of the
    number of points.  The gather and the validity mask run _BLOCK_ROWS
    rows of the result at a time, so besides the result only the table and
    index and mask blocks of that many rows are held.  Used by the kernel
    builders, and by ``measure_vector`` and the truncation certificate for
    one row.
    """
    row = _FAMILIES[family]
    pts = np.asarray(pts)
    sizes = np.asarray(sizes)
    shape = np.broadcast_shapes(pts.shape, sizes.shape)
    if math.prod(shape) == 0 or pts.max() < 0:
        return np.full(shape, -np.inf)
    n = np.maximum(sizes, 0)
    if row.finite:
        nmin, nmax = int(n.min()), int(n.max())
        table = _log_measure_rows(row, params, np.arange(nmin, nmax + 1), nmax)
        # each size's row offset in the flat table, at the shape of sizes
        offset = np.broadcast_to((n - nmin) * (nmax + 1), shape)
    else:
        table = _log_measure_rows(row, params, None, int(pts.max()))
    out = np.empty(shape)  # after the table, whose build holds more
    pts, sizes, n = (np.broadcast_to(v, shape) for v in (pts, sizes, n))
    # a result of fewer than two axes is one block
    for blk in [...] if len(shape) < 2 else _row_blocks(shape[0]):
        x = np.maximum(pts[blk], 0, out=np.empty(out[blk].shape, dtype=np.intp))
        if row.finite:
            np.minimum(x, n[blk], out=x)
            x += offset[blk]
        # every index lies in the table, so "clip" moves none; it spares the
        # copy of the output that take makes by default
        table.take(x, out=out[blk], mode="clip")
        invalid = pts[blk] < 0
        if row.finite:
            invalid |= pts[blk] > sizes[blk]
        np.copyto(out[blk], -np.inf, where=invalid)
    return out


def _log_pi(spec: FamilySpec, npoints: int | None = None) -> np.ndarray:
    """ln pi over lattice points 0..npoints-1 (defaults to the full finite lattice)."""
    if npoints is None:
        npoints = spec.size
    if spec.is_finite and npoints > spec.size:
        raise ValueError(f"window {npoints} exceeds lattice size {spec.size}")
    x = np.arange(npoints)
    return log_measure_grid(spec.family, spec.params, x, np.full(x.shape, spec.N or 0))


def measure_vector(spec: FamilySpec, npoints: int | None = None) -> np.ndarray:
    """pi over lattice points 0..npoints-1 (defaults to the full finite lattice)."""
    return np.exp(_log_pi(spec, npoints))


# ---------------------------------------------------------------------------
# three-term recurrence data and the orthonormal basis
# ---------------------------------------------------------------------------


def recurrence_coefficients(spec: FamilySpec, nmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients A_n, C_n of theta(x) P_n = A_n P_{n+1} - (A_n + C_n) P_n + C_n P_{n-1}.

    theta(x) is -x for the classical families and q^(-x) - 1 for q-Hahn
    (whose polynomials are polynomials in that variable, not in x).
    Returned for n = 0..nmax; C_0 = 0 always.
    """
    n = np.arange(nmax + 1, dtype=float)
    return _FAMILIES[spec.family].recurrence(n, spec.N, *spec.params)


def site_values(spec: FamilySpec, npoints: int) -> np.ndarray:
    """theta(x) over the lattice window: -x, or q^(-x) - 1 for q-Hahn."""
    return _FAMILIES[spec.family].theta(np.arange(npoints, dtype=float), *spec.params)


#: stands in for an exact zero pivot, which marks an exact zero of phi (as
#: in Krawtchouk at p = 1/2 by parity): the ratio it gives is huge, not
#: infinite, and the zero comes out as ~1e-154 of its neighbours, not NaN
_ZERO_PIVOT = math.sqrt(np.finfo(float).tiny)


def _pivots(diag, theta, b2, P):
    """Forward pivots P_k = s_k - b2_{k-1} / P_{k-1}, P_0 = s_0, with s_k =
    diag_k - theta, of the shifted Jacobi matrix: one row of ``P`` per
    degree k and one column per site of ``theta``.  The backward pivots
    are these on the reversed coefficients and rows."""
    for k in range(len(P)):
        np.subtract(diag[k], theta, out=P[k])
        if k:
            P[k] -= b2[k - 1] / P[k - 1]
        np.copyto(P[k], _ZERO_PIVOT, where=P[k] == 0.0)


def orthonormal_columns(spec: FamilySpec, npoints: int | None = None) -> np.ndarray:
    """Matrix whose column n is phi_n(x) = d_n sqrt(pi(x)) P_n(x).

    Row x of phi is an eigenvector, for the eigenvalue theta(x), of the
    Jacobi matrix J of the degree recurrence: diagonal -(A_n + C_n) and
    off-diagonal b_n = sign(A_n) sqrt(A_n C_{n+1}) (from d_{n+1}/d_n =
    sqrt(A_n / C_{n+1})).  Each row is built from the ratios of its
    consecutive entries, read off the pivots of J - theta(x), with s_k =
    -(A_k + C_k) - theta(x).  No row carries a scale factor, and each row
    is computed on its own:

    * on a finite lattice row x is the unit eigenvector, from the twisted
      factorization of J - theta(x) (Parlett & Dhillon, Linear Algebra
      Appl. 267, 1997): forward pivots P_k = s_k - b_{k-1}^2 / P_{k-1},
      backward pivots Q_k = s_k - b_k^2 / Q_{k+1}, the twist r where
      |P_k + Q_k - s_k| is least, and v_k / v_{k+1} = -b_k / P_k below r,
      v_k / v_{k-1} = -b_{k-1} / Q_k above it.  The ratios are multiplied
      outward from the twist, the row is divided by its own norm and its
      sign fixed by phi(x, 0) > 0;
    * Charlier and Meixner are self-dual with d_n^2 pi(x) symmetric in
      (n, x), so the window is symmetric: the forward pivots alone give
      the wedge n <= x, phi(x, k+1) / phi(x, k) = -P_k / b_k multiplied
      up from phi(x, 0) = sqrt(pi(x)), one degree per row of the result,
      and the rest is its mirror image.

    The finite pivots are held degree by degree, the forward ones in a
    work array and the backward ones in the result; the twist and the
    ratios are formed _BLOCK_ROWS sites at a time in the work array, and
    the rows are assembled from it _BLOCK_ROWS at a time into the result.
    Besides the result, only that work array (on a finite lattice) and
    temporaries of _BLOCK_ROWS rows are held at once.

    A basis with an entry outside the double range (the q-Hahn
    coefficients overflow once q^(-N) does) is refused with a DomainError.
    """
    if npoints is None:
        npoints = spec.size
    if spec.is_finite and npoints != spec.size:
        raise ValueError("finite-family basis must use the full lattice")
    with np.errstate(all="ignore"):
        theta = site_values(spec, npoints)
        A, C = recurrence_coefficients(spec, npoints - 1)
        diag = -(A + C)
        b2 = A[:-1] * C[1:]
        b = np.sign(A[:-1]) * np.sqrt(b2)
        phi = _finite_basis(diag, b, b2, theta) if spec.is_finite else _wedge_basis(
            diag, b, b2, theta, np.exp(0.5 * _log_pi(spec, npoints)))
    if not np.isfinite(phi).all():
        raise DomainError(f"the {spec.to_string()} basis leaves the double range")
    return phi


def _finite_basis(diag, b, b2, theta):
    """The twisted-factorization rows of ``orthonormal_columns``."""
    S = len(theta)
    deg = np.arange(S)
    work = np.empty((S, S))  # forward pivots, then the ratios, degree by site
    phi = np.empty((S, S))  # backward pivots, degree by site, then the basis
    _pivots(diag, theta, b2, work)
    _pivots(diag[::-1], theta, b2[::-1], phi[::-1])
    # v_k / v_{k+1} = -b_k / P_k below the twist, v_k / v_{k-1} =
    # -b_{k-1} / Q_k above it, 1 at it
    b_below, b_above = np.append(-b, 0.0)[:, None], np.insert(-b, 0, 0.0)[:, None]
    twist = np.empty(S, dtype=np.intp)
    for blk in _row_blocks(S):
        P, Q = work[:, blk], phi[:, blk]
        gamma = np.subtract.outer(diag, theta[blk])
        np.subtract(P + Q, gamma, out=gamma)
        r = twist[blk] = np.abs(gamma, out=gamma).argmin(axis=0)
        np.divide(b_below, P, out=P)
        np.divide(b_above, Q, out=P, where=deg[:, None] > r)
        np.copyto(P, 1.0, where=deg[:, None] == r)
    for blk in _row_blocks(S):
        after = work[:, blk].T.copy()  # ratios, site by degree
        below = deg < twist[blk, None]
        before = np.where(below, after, 1.0)
        # phi(x, 0) > 0: its sign, kept where phi(x, 0) underflows
        flip = np.count_nonzero(before < 0.0, axis=1) % 2 == 1
        np.copyto(after, 1.0, where=below)
        # products outward from the twist, where |v| is near its largest,
        # so they cannot overflow; an entry that underflows is below the
        # double range after the normalization too
        np.cumprod(after, axis=1, out=after)
        np.cumprod(before[:, ::-1], axis=1, out=before[:, ::-1])
        row = np.multiply(after, before, out=phi[blk])
        norm = np.sqrt(np.sum(row * row, axis=1, keepdims=True))
        np.negative(norm, out=norm, where=flip[:, None])
        row /= norm
    return phi


def _wedge_basis(diag, b, b2, theta, sqrt_pi):
    """The self-dual window of ``orthonormal_columns``: step k writes
    phi(k.., k) into row k, the wedge's mirror image, then the mirror."""
    S = len(theta)
    phi = np.empty((S, S))
    phi[0] = sqrt_pi
    P = diag[0] - theta
    for k in range(S - 1):
        P = P[1:]
        np.copyto(P, _ZERO_PIVOT, where=P == 0.0)
        np.multiply(phi[k, k + 1 :], P / -b[k], out=phi[k + 1, k + 1 :])
        P = (diag[k + 1] - theta[k + 1 :]) - b2[k] / P
    for x in range(1, S):
        phi[x, :x] = phi[:x, x]
    return phi


# ---------------------------------------------------------------------------
# convolution recipes: lambda3 maps, eigenvalues, measure factors
# ---------------------------------------------------------------------------


class ConvType(str, Enum):
    I = "i"
    II = "ii"
    III = "iii"


@dataclass(frozen=True)
class MeasureFactor:
    """A family measure without a lattice size: a recipe's unsized stationary
    measure, or one factor of its convolution sum, whose lattice-size slot
    the convolution geometry fills (semi-infinite families ignore it).
    Out-of-range parameters are refused at construction."""

    family: Family
    params: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _check_params(self.family, self.params))


_K, _C, _H, _M, _QH = (
    Family.KRAWTCHOUK, Family.CHARLIER, Family.HAHN, Family.MEIXNER, Family.Q_HAHN)

#: (family, type) -> functions of the recipe parameters giving the
#: ((family, params) of factor2, of factor1), the lambda3 parameters (lambda3
#: is of the recipe's own family), and kappa(1..nmax) from n = 1..nmax and
#: j = n - 1.  Meixner type ii is type i's row (``_SAME_AS``); the pairs
#: with no row (``_NO_RECIPE``) do not exist.
_RECIPES: dict[tuple[Family, ConvType], tuple[Callable, Callable, Callable]] = {
    (_K, ConvType.I): (lambda a, b: ((_K, (b,)), (_K, (a,))),
                       lambda a, b: (b / (1 - a + a * b),),
                       lambda n, j, a, b: (a * (1 - b)) ** n),
    (_K, ConvType.II): (lambda a, b: ((_K, (b,)), (_K, (a,))),
                        lambda a, b: (b / (1 - a + b),),
                        lambda n, j, a, b: (a - b) ** n),
    (_K, ConvType.III): (lambda a, b: ((_K, (b,)), (_K, (a,))),
                         lambda a, b: (a * b / (1 - b + a * b),),
                         lambda n, j, a, b: ((1 - a) * b) ** n),
    (_C, ConvType.I): (lambda a, b: ((_C, (b,)), (_K, (a,))),
                       lambda a, b: (b / (1 - a),),
                       lambda n, j, a, b: a ** n),
    (_C, ConvType.III): (lambda a, b: ((_K, (b,)), (_C, (a,))),
                         lambda a, b: (a * b / (1 - b),),
                         lambda n, j, a, b: b ** n),
    (_H, ConvType.I): (lambda a, b, c: ((_H, (b, c)), (_H, (a, b))),
                       lambda a, b, c: (a + b, c),
                       lambda n, j, a, b, c: np.cumprod(
                           (a + j) * (c + j) / ((a + b + j) * (b + c + j)))),
    (_H, ConvType.II): (lambda a, b, c: ((_H, (b, c)), (_H, (a, b))),
                        lambda a, b, c: (a + b, b + c),
                        lambda n, j, a, b, c: _hahn_type2_kappa_tail(a, b, c, len(n))),
    (_H, ConvType.III): (lambda a, b, c: ((_H, (c, a)), (_H, (a, b))),
                         lambda a, b, c: (c, a + b),
                         lambda n, j, a, b, c: np.cumprod(
                             (b + j) * (c + j) / ((a + b + j) * (a + c + j)))),
    (_M, ConvType.I): (lambda a, b, c: ((_M, (b, c)), (_H, (a, b))),
                       lambda a, b, c: (a + b, c),
                       lambda n, j, a, b, c: np.cumprod((a + j) / ((a + b) + j))),
    (_M, ConvType.III): (lambda a, b, c: ((_H, (c, a)), (_M, (a, b))),
                         lambda a, b, c: (c, b),
                         lambda n, j, a, b, c: np.cumprod((c + j) / ((a + c) + j))),
    (_QH, ConvType.I): (lambda a, b, c, q: ((_QH, (b, c, q)), (_QH, (a, b, q))),
                        lambda a, b, c, q: (a * b, c, q),
                        lambda n, j, a, b, c, q: np.cumprod(
                            b * (1 - a * q**j) * (1 - c * q**j)
                            / ((1 - a * b * q**j) * (1 - b * c * q**j)))),
    (_QH, ConvType.III): (lambda a, b, c, q: ((_QH, (c, a, q)), (_QH, (a, b, q))),
                          lambda a, b, c, q: (c, a * b, q),
                          lambda n, j, a, b, c, q: np.cumprod(
                              a * (1 - b * q**j) * (1 - c * q**j)
                              / ((1 - a * b * q**j) * (1 - a * c * q**j)))),
}

#: pairs served by another type's row, canonicalized at construction
_SAME_AS = {(_M, ConvType.II): ConvType.I}

_NO_RECIPE = {
    _C: "charlier kernels are constructed only for types i and iii",
    _QH: "the type ii convolution does not exist for q-hahn",
}


@dataclass(frozen=True)
class ConvolutionRecipe:
    """A (family, type, parameters) triple defining one reversible kernel.

    ``lambda3`` is the unsized stationary measure and ``factors`` the
    (factor2, factor1) pair, the lambda2 and lambda1 measures entering the
    convolution sum; both are built once, at construction.
    ``stationary_spec(N)`` puts lambda3 on its lattice.  Meixner type ii is
    an alias of type i (the two limits coincide); it is canonicalized at
    construction.
    """

    family: Family
    conv_type: ConvType
    params: tuple[float, ...]
    lambda3: MeasureFactor = field(init=False, compare=False)
    factors: tuple[MeasureFactor, MeasureFactor] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        f, p = self.family, self.params
        names = _FAMILIES[f].recipe_names
        if len(p) != len(names):
            raise DomainError(f"{f.value} recipes take parameters {names}, got {p}")
        t = _SAME_AS.get((f, self.conv_type), self.conv_type)
        object.__setattr__(self, "conv_type", t)
        if (f, t) not in _RECIPES:
            raise DomainError(_NO_RECIPE[f])
        factors, lambda3, _ = _RECIPES[f, t]

        def factor(fam: Family, fp: tuple[float, ...]) -> MeasureFactor:
            try:
                return MeasureFactor(fam, fp)
            except DomainError as exc:
                msg = f"{f.value} type {t.value} recipe {p} is out of range: {exc}"
                raise DomainError(msg) from None

        # the factors are the range check: no lambda3 arithmetic runs on an
        # invalid recipe, and only checked values are converted to float
        object.__setattr__(self, "factors", tuple(factor(*fp) for fp in factors(*p)))
        p = tuple(float(v) for v in p)
        object.__setattr__(self, "params", p)
        object.__setattr__(self, "lambda3", factor(f, lambda3(*p)))

    @property
    def is_finite(self) -> bool:
        return _FAMILIES[self.family].finite

    def stationary_spec(self, N: int | None) -> FamilySpec:
        """The stationary measure on {0..N}, or on Z>=0 for N=None; the
        family's lattice rule (``FamilySpec``) refuses any other N."""
        return FamilySpec(self.lambda3.family, self.lambda3.params, N)

    def to_string(self, N: int | None = None) -> str:
        names = _FAMILIES[self.family].recipe_names
        parts = [f"{self.family.value}", f"type={self.conv_type.value}"]
        parts += [f"{n}={v!r}" for n, v in zip(names, self.params)]
        if N is not None:
            parts.append(f"N={N}")
        return " ".join(parts)


def parse_recipe(text: str) -> tuple[ConvolutionRecipe, int | None]:
    """Parse 'family type=t a=.. b=.. [c=..] [q=..] [N=..]' to a recipe.

    The inverse of ``ConvolutionRecipe.to_string``: unknown keys are
    rejected, not ignored, and the parsed recipe round-trips through its
    canonical form.
    """
    tokens = text.split()
    if not tokens:
        raise DomainError("empty recipe")
    try:
        family = Family(tokens[0].lower())
    except ValueError:
        raise DomainError(f"unknown family {tokens[0]!r}") from None
    kv: dict[str, str] = {}
    for tok in tokens[1:]:
        key, sep, value = tok.partition("=")
        if not sep:
            raise DomainError(f"malformed token {tok!r} (expected key=value)")
        if key in kv:
            raise DomainError(f"duplicate key {key!r}")
        kv[key] = value
    names = _FAMILIES[family].recipe_names
    allowed = set(names) | {"type", "N"}
    unknown = sorted(set(kv) - allowed)
    if unknown:
        raise DomainError(f"unknown keys {unknown} for {family.value}")
    if "type" not in kv:
        raise DomainError("recipe needs type=i|ii|iii")
    try:
        conv_type = ConvType(kv["type"].lower())
    except ValueError:
        raise DomainError(f"unknown convolution type {kv['type']!r}") from None
    missing = sorted(set(names) - set(kv))
    if missing:
        raise DomainError(f"missing keys {missing} for {family.value}")
    try:
        params = tuple(float(kv[name]) for name in names)
        N = int(kv["N"]) if "N" in kv else None
    except ValueError as exc:
        raise DomainError(f"bad numeric value in recipe: {exc}") from None
    recipe = ConvolutionRecipe(family, conv_type, params)
    recipe.stationary_spec(N)  # FamilySpec refuses a missing or a stray N
    return recipe, N


def kappa_vector(recipe: ConvolutionRecipe, nmax: int) -> np.ndarray:
    """Eigenvalues kappa(n), n = 0..nmax, of the convolution kernel.

    kappa(0) = 1 exactly; for every valid recipe all other moduli are < 1.
    The tail is the recipe's ``_RECIPES`` row: products of per-step factors
    accumulated with cumprod, or for Hahn type ii, which has no product
    form, a terminating 3F2 at unit argument.
    """
    n = np.arange(1, nmax + 1, dtype=float)
    tail = _RECIPES[recipe.family, recipe.conv_type][2](n, n - 1.0, *recipe.params)
    return np.concatenate(([1.0], tail))


def _hahn_type2_kappa_tail(a: float, b: float, c: float, nmax: int) -> np.ndarray:
    """kappa(1..nmax) for the Hahn type ii kernel.

    The eigenvalue is a terminating 3F2 at unit argument whose alternating
    terms reach ~1e23 by degree 50, far beyond what linear-space summation
    can cancel.  As a function of n it satisfies the same contiguous
    three-term relation as the Hahn polynomials (with parameters continued
    to alpha = a+b-1, beta = b+c-1, lattice slot -(b+c), argument -b),
    which iterates with O(1) coefficients and stays at machine precision:

        b kappa(n) = A_n kappa(n+1) - (A_n + C_n) kappa(n) + C_n kappa(n-1).

    At n = 0, with s = a + 2b + c, C_0 = 0 and the (s - 1) factors of A_0
    cancel; they are cancelled by hand only where s = 1 makes them 0/0.
    """
    out = np.empty(nmax)
    km1, k0 = 0.0, 1.0
    for n in range(nmax):
        s = 2 * n + a + 2 * b + c
        if s == 1:
            an = -(a + b) * (b + c) / s
        else:
            an = -(n + a + 2 * b + c - 1) * (n + a + b) * (n + b + c) / ((s - 1) * s)
        cn = n * (n + a + b - 1) * (n + b + c - 1) / ((s - 2) * (s - 1)) if n else 0.0
        k1 = ((b + an + cn) * k0 - cn * km1) / an
        out[n] = k1
        km1, k0 = k0, k1
    return out


def spectral_gap(kappas: np.ndarray) -> float:
    """1 - max_{n>=1} |kappa(n)|, the mixing rate of the chain, from
    kappa(0..nmax) as ``kappa_vector`` gives it."""
    return 1.0 - float(np.max(np.abs(kappas[1:]))) if len(kappas) > 1 else 1.0
