"""Discrete orthogonal polynomial families and their convolution recipes.

Five families are implemented: Krawtchouk (K), Charlier (C), Hahn (H),
Meixner (M) and q-Hahn (qH).  For each one this module provides the
normalized orthogonality measure pi, the orthonormal functions
phi_n(x) = d_n sqrt(pi(x)) P_n(x) (P_n the polynomials normalized to
P_n(0) = 1, d_n^2 their squared norm constants), and one row of
``_RECIPES`` per (family, convolution type): the pair of factor measures
whose convolution is a reversible Markov kernel, its stationary measure
lambda3 and its eigenvalues kappa(n).  The pipeline needs only phi, so
P_n and d_n^2 are not offered on their own; the tests read them off the
columns of phi.

The basis is produced by the three-term recurrence in the degree, run on
the weighted functions, not by summing the defining hypergeometric series:
the series terms alternate in sign and cancel catastrophically for degrees
and lattice points past ~25, while the recurrence stays accurate through
the lattice sizes supported here.  The series themselves are evaluated
only in the tests, in exact rational arithmetic, as the small-instance
cross-check.

Measures are built in log space and exponentiated once at the end:
products like binom(N,x) p^x (1-p)^(N-x) leave the double range long
before N ~ 1e3.  Each row ln pi(.; n) is a running sum of the log term
ratios r(x) = pi(x+1)/pi(x), one line per family, normalized by its own
log-sum-exp (finite lattices) or started from the closed-form pi(0)
(Charlier, Meixner); q-Hahn sums log q-Pochhammer factors the same way.
Log-gamma differences would cancel instead: ln Gamma(801) ~ 4551 leaves
~5e-13 of error in every entry at N = 800, while the running sums stay within
~4e-13 of 40-digit references out to ln pi = -708.  ``log_measure_grid``
is the one implementation of the five measures; ``measure_vector`` is its
call for one lattice row.

A recipe is valid exactly when its two factor measures are, so
``_check_params`` holds the only parameter ranges, finiteness included.
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


#: Families living on the finite lattice {0..N}; the other two live on the
#: nonnegative integers and are truncated numerically.
FINITE_FAMILIES = frozenset({Family.KRAWTCHOUK, Family.HAHN, Family.Q_HAHN})

_PARAM_NAMES = {
    Family.KRAWTCHOUK: ("p",),
    Family.CHARLIER: ("a",),
    Family.HAHN: ("a", "b"),
    Family.MEIXNER: ("a", "b"),
    Family.Q_HAHN: ("a", "b", "q"),
}


def _check_params(family: Family, params: tuple[float, ...]) -> None:
    """Arity, finiteness and range of a family's measure parameters: the one
    copy of the validity rules, shared by lattice specs and convolution
    factors (a recipe's raw parameters and its lambda3 included)."""
    names = _PARAM_NAMES[family]
    if len(params) != len(names):
        raise DomainError(f"{family.value} takes parameters {names}, got {params}")
    if not all(math.isfinite(v) for v in params):
        raise DomainError(f"{family.value} parameters must be finite, got {params}")
    p = params
    if family is Family.KRAWTCHOUK and not 0.0 < p[0] < 1.0:
        raise DomainError(f"krawtchouk needs 0 < p < 1, got p={p[0]}")
    if family is Family.CHARLIER and not p[0] > 0.0:
        raise DomainError(f"charlier needs a > 0, got a={p[0]}")
    if family is Family.HAHN and not (p[0] > 0.0 and p[1] > 0.0):
        raise DomainError(f"hahn needs a, b > 0, got {p}")
    if family is Family.MEIXNER and not (p[0] > 0.0 and 0.0 < p[1] < 1.0):
        raise DomainError(f"meixner needs a > 0 and 0 < b < 1, got {p}")
    if family is Family.Q_HAHN and not (0.0 < p[0] < 1.0 and p[1] < 1.0 and 0.0 < p[2] < 1.0):
        raise DomainError(f"qhahn needs 0 < a < 1, b < 1, 0 < q < 1, got {p}")


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
        _check_params(self.family, self.params)
        if self.family in FINITE_FAMILIES:
            if self.N is None or self.N < 0:
                raise DomainError(f"{self.family.value} needs a lattice size N >= 0, got {self.N}")
        elif self.N is not None:
            raise DomainError(f"{self.family.value} lives on Z>=0 and takes --eps, not N")

    @property
    def is_finite(self) -> bool:
        return self.family in FINITE_FAMILIES

    @property
    def size(self) -> int:
        if self.N is None:
            raise DomainError("semi-infinite family has no intrinsic size")
        return self.N + 1

    def to_string(self) -> str:
        parts = [
            f"{name}={value!r}"
            for name, value in zip(_PARAM_NAMES[self.family], self.params)
        ]
        if self.N is not None:
            parts.append(f"N={self.N}")
        return f"{self.family.value}:" + ",".join(parts)


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------


def _log_qpoch_prefix(w: float, q: float, kmax: int) -> np.ndarray:
    """Array L[k] = ln (w;q)_k for k = 0..kmax; requires all factors > 0."""
    k = np.arange(kmax)
    factors = 1.0 - w * q**k
    if np.any(factors <= 0.0):
        raise DomainError(f"nonpositive q-pochhammer factor for w={w}, q={q}")
    out = np.zeros(kmax + 1)
    np.cumsum(np.log(factors), out=out[1:])
    return out


def _log_ratio_rows(
    family: Family, params: tuple[float, ...], rows: np.ndarray | None, x: np.ndarray
) -> np.ndarray:
    """ln r(x; n), r = pi(x+1; n) / pi(x; n), for n in ``rows`` (None for a
    semi-infinite family) and ratio positions ``x``.  A finite row's ratios
    are 0 from its end on, so its running sums are -inf past the end."""
    if family is Family.CHARLIER:
        (a,) = params
        return np.log(a / (x + 1))
    if family is Family.MEIXNER:
        a, b = params
        return np.log(b * (a + x) / (x + 1))
    m = rows.astype(float)[:, None] - x  # n - x
    np.maximum(m, 0.0, out=m)
    if family is Family.KRAWTCHOUK:
        (p,) = params
        r = m * (p / ((x + 1) * (1 - p)))
    else:
        a, b = params
        r = m * ((a + x) / (x + 1))
        m -= 1.0
        np.maximum(m, 0.0, out=m)
        m += b  # b + n - x - 1
        r /= m
    with np.errstate(divide="ignore"):
        return np.log(r, out=r)


def _log_measure_rows(
    family: Family, params: tuple[float, ...], rows: np.ndarray | None, xmax: int
) -> np.ndarray:
    """Table T[i, x] = ln pi(x; rows[i]), x = 0..xmax, as running sums of
    log term ratios.

    A finite row (``xmax`` its largest size) is -inf past its end and is
    normalized by its own log-sum-exp.  A semi-infinite row (``rows`` is
    None; one row) starts from its closed-form ln pi(0): -a for Charlier,
    a ln(1-b) for Meixner.
    """
    t = _log_ratio_rows(family, params, rows, np.arange(xmax, dtype=float))
    table = np.zeros(t.shape[:-1] + (xmax + 1,))
    np.cumsum(t, axis=-1, out=table[..., 1:])
    if family is Family.CHARLIER:
        return table - params[0]
    if family is Family.MEIXNER:
        a, b = params
        return table + a * math.log1p(-b)
    peak = table.max(axis=1, keepdims=True)
    table -= peak
    table -= np.log(np.exp(table).sum(axis=1, keepdims=True))
    return table


def log_measure_grid(
    family: Family, params: tuple[float, ...], pts: np.ndarray, sizes: np.ndarray
) -> np.ndarray:
    """Vectorized ln pi(pts) with per-entry lattice size ``sizes``.

    Semi-infinite families ignore ``sizes``.  Entries where pts is outside
    the lattice are returned as -inf.  The values are gathered from one
    table of rows ln pi(.; n), for every n from the smallest to the
    largest size (a single row for the semi-infinite families), so the
    cost is that of the table, not of the number of points.  Used by the
    kernel builders, where the two measure factors are evaluated on whole
    index grids at once, and by ``measure_vector`` and the truncation
    certificate for one lattice row.
    """
    pts = np.asarray(pts)
    sizes = np.asarray(sizes)
    finite = family in FINITE_FAMILIES
    valid = (pts >= 0) & (pts <= sizes) if finite else pts >= 0
    if not np.any(valid):
        return np.full(valid.shape, -np.inf)
    if not finite:
        x = np.maximum(pts, 0)
        table = _log_measure_rows(family, params, None, int(x.max()))
        return np.where(valid, table.take(x), -np.inf)
    n = np.maximum(sizes, 0)
    x = np.minimum(np.maximum(pts, 0), n)
    nmin, nmax = int(n.min()), int(n.max())
    if family is Family.Q_HAHN:
        a, b, q = params
        lqf = _log_qpoch_prefix(q, q, nmax)  # ln (q;q)_k, k = 0..nmax
        la = _log_qpoch_prefix(a, q, nmax)
        lb = _log_qpoch_prefix(b, q, nmax)
        lab = _log_qpoch_prefix(a * b, q, nmax)
        out = (
            lqf[n] - lqf[x] - lqf[n - x]
            + la[x] + lb[n - x] + (n - x) * math.log(a) - lab[n]
        )
    else:
        table = _log_measure_rows(family, params, np.arange(nmin, nmax + 1), nmax)
        out = table.take((n - nmin) * (nmax + 1) + x)
    return np.where(valid, out, -np.inf)


def _log_pi(spec: FamilySpec, npoints: int | None = None) -> np.ndarray:
    """ln pi over lattice points 0..npoints-1 (defaults to the full finite lattice)."""
    if npoints is None:
        npoints = spec.size
    if spec.is_finite and npoints > spec.size:
        raise DomainError(f"window {npoints} exceeds lattice size {spec.size}")
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
    f, p = spec.family, spec.params
    if f is Family.KRAWTCHOUK:
        (pp,) = p
        A = pp * (spec.N - n)
        C = n * (1.0 - pp)
    elif f is Family.CHARLIER:
        (a,) = p
        A = np.full(nmax + 1, a)
        C = n.copy()
    elif f is Family.MEIXNER:
        a, b = p
        A = b * (n + a) / (1.0 - b)
        C = n / (1.0 - b)
    elif f is Family.HAHN:
        a, b = p
        N = spec.N
        with np.errstate(divide="ignore", invalid="ignore"):
            A = (n + a + b - 1) * (n + a) * (N - n) / ((2 * n + a + b - 1) * (2 * n + a + b))
        # the (a+b-1) factors cancel at n = 0; the closed form avoids 0/0 at a+b = 1
        A[0] = a * N / (a + b)
        C = np.zeros(nmax + 1)
        if nmax >= 1:
            m = n[1:]
            C[1:] = m * (m + a + b + N - 1) * (m + b - 1) / ((2 * m + a + b - 2) * (2 * m + a + b - 1))
    else:
        a, b, q = p
        N = spec.N
        q = np.float64(q)  # q^(-N) past the double range is inf, not an OverflowError
        qn = q**n
        with np.errstate(divide="ignore", invalid="ignore"):
            A = (
                (1 - a * qn) * (1 - a * b * qn / q) * (1 - qn * q ** (-N))
                / ((1 - a * b * qn * qn / q) * (1 - a * b * qn * qn))
            )
        # (1 - ab/q) cancels between numerator and denominator at n = 0
        A[0] = (1 - a) * (1 - q ** (-N)) / (1 - a * b)
        C = np.zeros(nmax + 1)
        if nmax >= 1:
            m = n[1:]
            qm = qn[1:]
            C[1:] = (
                -a * qm * q ** (-N - 1)
                * (1 - qm) * (1 - a * b * qm * q ** (N - 1)) * (1 - b * qm / q)
                / ((1 - a * b * qm * qm / (q * q)) * (1 - a * b * qm * qm / q))
            )
    return A, C


def site_values(spec: FamilySpec, npoints: int) -> np.ndarray:
    """theta(x) over the lattice window: -x, or q^(-x) - 1 for q-Hahn."""
    x = np.arange(npoints, dtype=float)
    if spec.family is Family.Q_HAHN:
        q = spec.params[2]
        return np.expm1(-x * math.log(q))
    return -x


def _recurrence(theta, A, C, b, seed):
    """Columns v_0..v_{S-1} of theta v_k = b_k v_{k+1} - (A_k + C_k) v_k +
    b_{k-1} v_{k-1}, from v_0 = seed and v_{-1} = 0, as (values, log_scale):
    v_k = values[:, k] exp(log_scale[:, k]).  A row is rescaled to 1 where
    it passes 1e100, so no row leaves the double range on the way up."""
    S = len(theta)
    values, log_scale = np.empty((S, S)), np.zeros((S, S))
    values[:, 0] = seed
    cur, prev, lrow = values[:, 0].copy(), np.zeros(S), np.zeros(S)
    for k in range(S - 1):
        nxt = ((theta + A[k] + C[k]) * cur - (b[k - 1] if k else 0.0) * prev) / b[k]
        prev, cur = cur, nxt
        big = np.flatnonzero(np.abs(cur) > 1e100)
        if big.size:
            f = np.abs(cur[big])
            cur[big] /= f
            prev[big] /= f
            lrow[big] += np.log(f)
        values[:, k + 1] = cur
        log_scale[:, k + 1] = lrow
    return values, log_scale


def orthonormal_columns(spec: FamilySpec, npoints: int | None = None) -> np.ndarray:
    """Matrix whose column n is phi_n(x) = d_n sqrt(pi(x)) P_n(x).

    The recurrence runs directly on the weighted functions (entries stay
    O(1)); the symmetrized off-diagonal coefficient is b_n = sign(A_n)
    sqrt(A_n C_{n+1}), from d_{n+1}/d_n = sqrt(A_n / C_{n+1}).

    Upward recurrence in the degree is stable only up to the envelope peak
    of each lattice row; past it the true value is the recessive solution
    and rounding noise takes over (catastrophically so for q-Hahn).  Two
    stable schemes cover all cases:

    * finite families terminate exactly at the top (A_N = 0), so each row
      is built from an upward pass anchored at phi_0 = sqrt(pi) and a
      downward pass anchored at the top (``_recurrence`` on the reversed
      coefficients), spliced by ``_splice``;
    * Charlier and Meixner are self-dual with d_n^2 pi(x) symmetric in
      (n, x), so the matrix itself is symmetric: the upward pass fills the
      stable wedge n <= x and the rest is its mirror image.

    A basis with an entry outside the double range (the q-Hahn
    coefficients overflow once q^(-N) does) is refused with a DomainError.
    """
    if npoints is None:
        npoints = spec.size
    if spec.is_finite and npoints != spec.size:
        raise DomainError("finite-family basis must use the full lattice")
    with np.errstate(all="ignore"):
        theta = site_values(spec, npoints)
        A, C = recurrence_coefficients(spec, npoints - 1)
        b = np.sign(A[:-1]) * np.sqrt(A[:-1] * C[1:])
        u, lgu = _recurrence(theta, A, C, b, np.exp(0.5 * _log_pi(spec, npoints)))
        # true magnitudes for the splice's validity test; lgu is 0 before it fails
        u *= np.exp(lgu, out=lgu)
        del lgu
        if not spec.is_finite:
            # symmetric matrix: keep the wedge n <= x, mirror the rest
            phi = np.where(np.tri(npoints, dtype=bool), u, u.T)
        elif npoints <= 3:
            phi = u
        else:
            # downward pass, exactly seeded by the vanishing top coefficient A_N
            w, lgw = _recurrence(theta, A[::-1], C[::-1], b[::-1], 1.0)
            phi = _splice(u, w[:, ::-1], lgw[:, ::-1])
    if not np.isfinite(phi).all():
        raise DomainError(f"the {spec.to_string()} basis leaves the double range")
    return phi


def _splice(u: np.ndarray, wst: np.ndarray, lg: np.ndarray) -> np.ndarray:
    """Each row of the upward pass ``u`` up to the column m where it agrees
    best with the downward pass ``wst * exp(lg)``, and that pass past m.

    The log of |u/w| is flat exactly on the overlap of the two trust zones
    (the upward parasite drifts it past the envelope peak, the downward one
    before it).  Magnitudes are pooled over adjacent index pairs because a
    tridiagonal eigenvector may vanish at isolated indices (it cannot at
    two consecutive ones), e.g. by parity on symmetric measures.
    """
    S = len(u)
    rows, cols = np.arange(S), np.arange(S)[None, :]
    absu = np.abs(u)
    invalid = absu > 1.0 + 1e-6  # orthonormal entries cannot exceed 1
    first_bad = np.where(invalid.any(axis=1), invalid.argmax(axis=1), S)
    lu = np.log(absu)
    lw = np.log(np.abs(wst)) + lg
    lratio = np.maximum(lu[:, :-1], lu[:, 1:]) - np.maximum(lw[:, :-1], lw[:, 1:])
    dl = np.abs(np.diff(lratio, axis=1))
    step_cost = np.where(np.isfinite(dl), dl, np.inf)
    cost = step_cost[:, :-1] + step_cost[:, 1:]  # column j scores pair (j+1, j+2)
    cost = np.where(cols[:, 1 : S - 2] + 2 < first_bad[:, None], cost, np.inf)
    # degenerate fallback (tiny matrices): the peak of the valid prefix
    fallback = np.where(cols < first_bad[:, None], absu, -1.0).argmax(axis=1)
    pair = np.where(np.isfinite(cost).any(axis=1), cost.argmin(axis=1) + 1, fallback)
    # splice at whichever pair member carries the larger entry
    pair1 = np.clip(pair + 1, 0, S - 1)
    m = np.where(absu[rows, pair] >= absu[rows, pair1], pair, pair1)
    # phi_n = u_m * (w_n / w_m) for n > m, assembled in log scale; the
    # exponent is <= 0 on the used side, so underflow (not overflow) is the
    # only rounding mode there and it returns honest zeros
    dlog = np.minimum(lg - lg[rows, m][:, None], 0.0)
    tail = u[rows, m][:, None] * (wst / wst[rows, m][:, None]) * np.exp(dlog)
    return np.where(cols <= m[:, None], u, tail)


# ---------------------------------------------------------------------------
# convolution recipes: lambda3 maps, eigenvalues, measure factors
# ---------------------------------------------------------------------------


class ConvType(str, Enum):
    I = "i"
    II = "ii"
    III = "iii"


RECIPE_PARAM_NAMES = {
    Family.KRAWTCHOUK: ("a", "b"),
    Family.CHARLIER: ("a", "b"),
    Family.HAHN: ("a", "b", "c"),
    Family.MEIXNER: ("a", "b", "c"),
    Family.Q_HAHN: ("a", "b", "c", "q"),
}


@dataclass(frozen=True)
class MeasureFactor:
    """A family measure without a lattice size: a recipe's unsized stationary
    measure, or one factor of its convolution sum, whose lattice-size slot
    the convolution geometry fills (semi-infinite families ignore it).
    Out-of-range parameters are refused at construction."""

    family: Family
    params: tuple[float, ...]

    def __post_init__(self) -> None:
        _check_params(self.family, self.params)


_K, _C, _H, _M, _QH = (
    Family.KRAWTCHOUK, Family.CHARLIER, Family.HAHN, Family.MEIXNER, Family.Q_HAHN)

#: (family, type) -> functions of the recipe parameters giving the
#: ((family, params) of factor2, of factor1), the lambda3 parameters (lambda3
#: is of the recipe's own family), and kappa(1..nmax) from n = 1..nmax and
#: j = n - 1.  Meixner type ii is type i's row; the pairs with no row
#: (``_NO_RECIPE``) do not exist.
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
        names = RECIPE_PARAM_NAMES[f]
        if len(p) != len(names):
            raise DomainError(f"{f.value} recipes take parameters {names}, got {p}")
        if f is Family.MEIXNER and self.conv_type is ConvType.II:
            object.__setattr__(self, "conv_type", ConvType.I)
        t = self.conv_type
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
        # invalid recipe
        object.__setattr__(self, "factors", tuple(factor(*fp) for fp in factors(*p)))
        object.__setattr__(self, "lambda3", factor(f, lambda3(*p)))

    @property
    def is_finite(self) -> bool:
        return self.family in FINITE_FAMILIES

    def stationary_spec(self, N: int | None) -> FamilySpec:
        """The stationary measure on {0..N}, or on Z>=0 for N=None; the
        family's lattice rule (``FamilySpec``) refuses any other N."""
        return FamilySpec(self.lambda3.family, self.lambda3.params, N)

    def to_string(self, N: int | None = None) -> str:
        names = RECIPE_PARAM_NAMES[self.family]
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
    names = RECIPE_PARAM_NAMES[family]
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
