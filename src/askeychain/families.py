"""Discrete orthogonal polynomial families and their convolution recipes.

Five families are implemented: Krawtchouk (K), Charlier (C), Hahn (H),
Meixner (M) and q-Hahn (qH).  For each one this module provides the
normalized orthogonality measure pi, the orthonormal functions
phi_n(x) = d_n sqrt(pi(x)) P_n(x) (P_n the polynomials normalized to
P_n(0) = 1, d_n^2 their squared norm constants), and the parameter maps
lambda3 / eigenvalue formulas kappa(n) for the three convolution types
that turn a pair of measures into a reversible Markov kernel.  The
pipeline needs only phi, so P_n and d_n^2 are not offered on their own;
the tests read them off the columns of phi.

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

import numpy as np

from .errors import DomainError, UnsupportedCombination


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


_CLIP = 1e150  # keeps runaway recurrence branches finite (they are discarded)
_VALID_BOUND = 1.0 + 1e-6  # orthonormal entries cannot exceed 1


def _weighted_setup(spec: FamilySpec, npoints: int):
    theta = site_values(spec, npoints)
    half_log_pi = 0.5 * _log_pi(spec, npoints)
    A, C = recurrence_coefficients(spec, npoints - 1)
    b = np.sign(A[:-1]) * np.sqrt(A[:-1] * C[1:])
    return theta, np.exp(half_log_pi), A, C, b


def _upward_pass(theta, phi0, A, C, b, npoints):
    u = np.empty((npoints, npoints))
    u[:, 0] = phi0
    if npoints == 1:
        return u
    with np.errstate(over="ignore", invalid="ignore"):
        u[:, 1] = (theta + A[0] + C[0]) * u[:, 0] / b[0]
        np.clip(u[:, 1], -_CLIP, _CLIP, out=u[:, 1])
        for k in range(1, npoints - 1):
            u[:, k + 1] = ((theta + A[k] + C[k]) * u[:, k] - b[k - 1] * u[:, k - 1]) / b[k]
            np.clip(u[:, k + 1], -_CLIP, _CLIP, out=u[:, k + 1])
    return u


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
      downward pass anchored at the top, spliced where the log-ratio of
      the two passes is flattest (their mutual trust zone);
    * Charlier and Meixner are self-dual with d_n^2 pi(x) symmetric in
      (n, x), so the matrix itself is symmetric: the upward pass fills the
      stable wedge n <= x and the rest is its mirror image.
    """
    if npoints is None:
        npoints = spec.size
    if spec.is_finite and npoints != spec.size:
        raise DomainError("finite-family basis must use the full lattice")
    theta, phi0, A, C, b = _weighted_setup(spec, npoints)
    u = _upward_pass(theta, phi0, A, C, b, npoints)
    if npoints == 1:
        return u
    if not spec.is_finite:
        # symmetric matrix: keep the wedge n <= x, mirror the rest
        return np.where(
            np.arange(npoints)[:, None] >= np.arange(npoints)[None, :], u, u.T
        )
    if npoints <= 3:
        return u
    # downward pass, exactly seeded by the vanishing top coefficient A_N;
    # the true values can span far more than the double range (q-Hahn
    # corners decay like q^(n x)), so each row carries a running log scale
    S = npoints
    wst = np.empty((S, S))
    lg = np.empty((S, S))
    cur = np.ones(S)
    prev = np.zeros(S)
    lrow = np.zeros(S)
    wst[:, S - 1] = cur
    lg[:, S - 1] = lrow
    for k in range(S - 1, 0, -1):
        nxt = ((theta + A[k] + C[k]) * cur - (b[k] if k < S - 1 else 0.0) * prev) / b[k - 1]
        prev, cur = cur, nxt
        mag = np.abs(cur)
        f = np.where(mag > 1e100, mag, 1.0)
        cur = cur / f
        prev = prev / f
        lrow = lrow + np.log(f)
        wst[:, k - 1] = cur
        lg[:, k - 1] = lrow
    # match each row where the two passes agree best: the log of |u/w| is
    # flat exactly on the overlap of their trust zones (the upward
    # parasite drifts it past the envelope peak, the downward one before
    # it).  Magnitudes are pooled over adjacent index pairs because a
    # tridiagonal eigenvector may vanish at isolated indices (it cannot at
    # two consecutive ones), e.g. by parity on symmetric measures.
    rows = np.arange(S)
    cols = np.arange(S)[None, :]
    absu = np.abs(u)
    invalid = absu > _VALID_BOUND
    first_bad = np.where(invalid.any(axis=1), invalid.argmax(axis=1), S)
    with np.errstate(divide="ignore", invalid="ignore"):
        lu = np.log(absu)
        lw = np.log(np.abs(wst)) + lg
        lratio = np.maximum(lu[:, :-1], lu[:, 1:]) - np.maximum(lw[:, :-1], lw[:, 1:])
    dl = np.abs(np.diff(lratio, axis=1))
    step_cost = np.where(np.isfinite(dl), dl, np.inf)
    cost = step_cost[:, :-1] + step_cost[:, 1:]  # column j scores pair (j+1, j+2)
    cost = np.where(cols[:, 1 : S - 2] + 2 < first_bad[:, None], cost, np.inf)
    pair = np.where(
        np.isfinite(cost).any(axis=1),
        cost.argmin(axis=1) + 1,
        # degenerate fallback (tiny matrices): peak of the valid prefix
        np.where(cols < first_bad[:, None], absu, -1.0).argmax(axis=1),
    )
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


def _convolution(
    family: Family, conv_type: ConvType, params: tuple[float, ...]
) -> tuple[MeasureFactor, MeasureFactor, MeasureFactor]:
    """(lambda3, factor2, factor1) of a convolution recipe.

    A recipe is valid exactly when its two factor measures are, so the
    factors are built first: that is the range check, and no lambda3
    arithmetic runs on an invalid recipe.  Raises UnsupportedCombination
    for pairs that do not exist and DomainError, naming the recipe, for
    out-of-range inputs.
    """
    f, t = family, conv_type
    if f is Family.CHARLIER and t is ConvType.II:
        raise UnsupportedCombination("charlier kernels are constructed only for types i and iii")
    if f is Family.Q_HAHN and t is ConvType.II:
        raise UnsupportedCombination("the type ii convolution does not exist for q-hahn")

    def factor(fam: Family, p: tuple[float, ...]) -> MeasureFactor:
        try:
            return MeasureFactor(fam, p)
        except DomainError as exc:
            msg = f"{f.value} type {t.value} recipe {params} is out of range: {exc}"
            raise DomainError(msg) from None

    if f is Family.KRAWTCHOUK:
        a, b = params
        f2, f1 = factor(f, (b,)), factor(f, (a,))
        if t is ConvType.I:
            p = b / (1 - a + a * b)
        elif t is ConvType.II:
            p = b / (1 - a + b)
        else:
            p = a * b / (1 - b + a * b)
        return factor(f, (p,)), f2, f1
    if f is Family.CHARLIER:
        a, b = params
        if t is ConvType.I:
            f2, f1 = factor(f, (b,)), factor(Family.KRAWTCHOUK, (a,))
            return factor(f, (b / (1 - a),)), f2, f1
        f2, f1 = factor(Family.KRAWTCHOUK, (b,)), factor(f, (a,))
        return factor(f, (a * b / (1 - b),)), f2, f1
    if f is Family.HAHN:
        a, b, c = params
        if t is ConvType.III:
            f2, f1 = factor(f, (c, a)), factor(f, (a, b))
            return factor(f, (c, a + b)), f2, f1
        f2, f1 = factor(f, (b, c)), factor(f, (a, b))
        return factor(f, (a + b, c) if t is ConvType.I else (a + b, b + c)), f2, f1
    if f is Family.MEIXNER:
        a, b, c = params
        if t is ConvType.III:
            f2, f1 = factor(Family.HAHN, (c, a)), factor(f, (a, b))
            return factor(f, (c, b)), f2, f1
        f2, f1 = factor(f, (b, c)), factor(Family.HAHN, (a, b))
        return factor(f, (a + b, c)), f2, f1
    a, b, c, q = params
    if t is ConvType.III:
        f2, f1 = factor(f, (c, a, q)), factor(f, (a, b, q))
        return factor(f, (c, a * b, q)), f2, f1
    f2, f1 = factor(f, (b, c, q)), factor(f, (a, b, q))
    return factor(f, (a * b, c, q)), f2, f1


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
        names = RECIPE_PARAM_NAMES[self.family]
        if len(self.params) != len(names):
            raise DomainError(
                f"{self.family.value} recipes take parameters {names}, got {self.params}"
            )
        if self.family is Family.MEIXNER and self.conv_type is ConvType.II:
            object.__setattr__(self, "conv_type", ConvType.I)
        lam3, f2, f1 = _convolution(self.family, self.conv_type, self.params)
        object.__setattr__(self, "lambda3", lam3)
        object.__setattr__(self, "factors", (f2, f1))

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
    All closed forms are products of per-step factors and are accumulated
    with cumprod; Hahn type ii has no product form and is summed as a
    terminating 3F2 at unit argument.
    """
    f, t, p = recipe.family, recipe.conv_type, recipe.params
    n = np.arange(1, nmax + 1, dtype=float)
    if f is Family.KRAWTCHOUK:
        a, b = p
        base = {ConvType.I: a * (1 - b), ConvType.II: a - b, ConvType.III: (1 - a) * b}[t]
        tail = base ** n
    elif f is Family.CHARLIER:
        a, b = p
        tail = (a if t is ConvType.I else b) ** n
    elif f is Family.HAHN:
        a, b, c = p
        j = n - 1.0
        if t is ConvType.I:
            tail = np.cumprod((a + j) * (c + j) / ((a + b + j) * (b + c + j)))
        elif t is ConvType.III:
            tail = np.cumprod((b + j) * (c + j) / ((a + b + j) * (a + c + j)))
        else:
            tail = _hahn_type2_kappa_tail(a, b, c, nmax)
    elif f is Family.MEIXNER:
        a, b, c = p
        j = n - 1.0
        if t is ConvType.III:
            tail = np.cumprod((c + j) / ((a + c) + j))
        else:
            tail = np.cumprod((a + j) / ((a + b) + j))
    else:
        a, b, c, q = p
        qj = q ** (n - 1.0)
        if t is ConvType.I:
            tail = np.cumprod(
                b * (1 - a * qj) * (1 - c * qj) / ((1 - a * b * qj) * (1 - b * c * qj))
            )
        else:
            tail = np.cumprod(
                a * (1 - b * qj) * (1 - c * qj) / ((1 - a * b * qj) * (1 - a * c * qj))
            )
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
    """
    out = np.empty(nmax)
    km1, k0 = 0.0, 1.0
    for n in range(nmax):
        s = 2 * n + a + 2 * b + c
        an = -(n + a + 2 * b + c - 1) * (n + a + b) * (n + b + c) / ((s - 1) * s)
        cn = n * (n + a + b - 1) * (n + b + c - 1) / ((s - 2) * (s - 1))
        k1 = ((b + an + cn) * k0 - cn * km1) / an
        out[n] = k1
        km1, k0 = k0, k1
    return out


def spectral_gap(kappas: np.ndarray) -> float:
    """1 - max_{n>=1} |kappa(n)|, the mixing rate of the chain, from
    kappa(0..nmax) as ``kappa_vector`` gives it."""
    return 1.0 - float(np.max(np.abs(kappas[1:]))) if len(kappas) > 1 else 1.0
