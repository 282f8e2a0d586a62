"""High-precision reference checks for the measures and the eigenvector
machinery.

The measures are running sums of log term ratios (q-Hahn's sum its closed
form's x-dependent factors); they are pinned against 40-digit log-gamma
(q-Pochhammer for q-Hahn, also at q = 0.999999) closed forms up to N = 800
and, on the semi-infinite lattices, out to ~2000 points, where log-gamma
differences in double precision lose ~1e-12.  Every finite row sums to 1
within 8 eps.  The window sizing's last-column deficit bound, a sum over
the factor measures, is pinned against the same sum at 40 digits.

The matched-recurrence construction of the orthonormal basis is the one
piece whose accuracy is not obvious from structure alone, so it is pinned
against a 200-digit re-run of the same recurrence.  q-Hahn is the hard
case (corner values decay like q^(n x) and the upward parasite grows at
the same rate); Krawtchouk at p = 1/2 exercises the delocalized regime
where no turning point exists.  At N = 200 the upward recurrence leaves
the double range even at 200 digits, so the finite bases are also pinned,
row by row, against a 40-digit twisted factorization of the Jacobi matrix
(``_mp_twisted_phi``), which needs no more digits as N grows and is itself
checked against 80 digits.

Block entropies are refereed by a 40-digit eigensolve of the k x k block
A A^T of the correlation matrix, formed from the same float filled-mode
columns the library uses, on blocks on both sides of the filling m: both
the single-block path and the sweep, whose leading-block and rank-one
Gram products round differently, and whose entries past the middle of a
finite lattice are right blocks.  The right side is also refereed against
the exact state, from a 60-digit Krawtchouk basis.
"""

import math

import numpy as np
import pytest
from conftest import FINITE_GRID, lowest_filling
from mpmath import mp, mpf

from askeychain import markov
from askeychain.families import (
    ConvolutionRecipe,
    ConvType,
    Family,
    FamilySpec,
    log_measure_grid,
    orthonormal_columns,
)
from askeychain.fermion import (
    CorrelationMatrix,
    block_entropy,
    correlation_matrix,
    entropy_profile,
)
from askeychain.spectral import analytic_eigensystem


def _mp_log_measure(family, params, N, x):
    lg = mp.loggamma
    if family is Family.Q_HAHN:
        # [N x]_q (a;q)_x (b;q)_{N-x} a^(N-x) / (ab;q)_N
        a, b, q = map(mpf, params)
        qbin = _mp_qpoch(q, q, N) / (_mp_qpoch(q, q, x) * _mp_qpoch(q, q, N - x))
        num = qbin * _mp_qpoch(a, q, x) * _mp_qpoch(b, q, N - x) * a ** (N - x)
        return mp.log(num / _mp_qpoch(a * b, q, N))
    if family is Family.CHARLIER:
        (a,) = map(mpf, params)
        return -a + x * mp.log(a) - lg(x + 1)
    if family is Family.MEIXNER:
        a, b = map(mpf, params)
        return lg(a + x) - lg(a) + x * mp.log(b) + a * mp.log1p(-b) - lg(x + 1)
    binom = lg(N + 1) - lg(x + 1) - lg(N - x + 1)
    if family is Family.KRAWTCHOUK:
        (p,) = map(mpf, params)
        return binom + x * mp.log(p) + (N - x) * mp.log1p(-p)
    a, b = map(mpf, params)
    return binom + lg(a + x) - lg(a) + lg(b + N - x) - lg(b) - lg(a + b + N) + lg(a + b)


#: (spec, largest point) pairs whose ln pi is pinned against 40 digits
MEASURE_REFERENCE = [
    (FamilySpec(Family.CHARLIER, (500.0,)), 1540),
    (FamilySpec(Family.CHARLIER, (50.0,)), 400),
    (FamilySpec(Family.MEIXNER, (30.0, 0.9)), 1000),
    (FamilySpec(Family.MEIXNER, (0.5, 0.99)), 1999),
    (FamilySpec(Family.KRAWTCHOUK, (0.3,), N=800), 800),
    (FamilySpec(Family.KRAWTCHOUK, (0.01,), N=800), 800),
    (FamilySpec(Family.HAHN, (1.0, 3.0), N=800), 800),
    (FamilySpec(Family.HAHN, (50.0, 0.2), N=800), 800),
    (FamilySpec(Family.KRAWTCHOUK, (0.7,), N=400), 400),
    (FamilySpec(Family.HAHN, (0.5, 0.5), N=400), 400),
    (FamilySpec(Family.KRAWTCHOUK, (0.3,), N=200), 200),
    (FamilySpec(Family.HAHN, (2.0, 7.0), N=200), 200),
    (FamilySpec(Family.Q_HAHN, (0.3, 0.5, 0.5), N=200), 200),
    (FamilySpec(Family.Q_HAHN, (0.2, 0.6, 0.6), N=400), 400),
    (FamilySpec(Family.Q_HAHN, (0.3, -0.5, 0.7), N=400), 400),
    (FamilySpec(Family.Q_HAHN, (0.15, 0.4, 0.5), N=800), 800),
]


def _spec_id(v):
    return v.to_string() if isinstance(v, FamilySpec) else str(v)


@pytest.mark.parametrize("spec, xmax", MEASURE_REFERENCE, ids=_spec_id)
def test_log_measure_matches_40_digit_reference(spec, xmax):
    # every 7th point, wherever pi(x) is a normal double
    xs = np.arange(0, xmax + 1, 7)
    got = log_measure_grid(spec.family, spec.params, xs, np.full(xs.shape, spec.N or 0))
    mp.dps = 40
    ref = np.array([float(_mp_log_measure(spec.family, spec.params, spec.N, int(x))) for x in xs])
    keep = ref >= -708.0
    assert keep.sum() >= 28
    assert np.max(np.abs(got[keep] - ref[keep])) <= 1e-12


@pytest.mark.parametrize("spec", [
    FamilySpec(Family.Q_HAHN, (0.3, 0.5, 0.999999), N=10),
    FamilySpec(Family.Q_HAHN, (0.9999993, 0.9999987, 0.999999), N=20),
], ids=_spec_id)
def test_log_measure_near_q_one_matches_40_digit_reference(spec):
    # the factors 1 - q^k of the closed form, and at the second spec all of
    # its factors, are below 3e-5: every lattice point is checked
    xs = np.arange(spec.N + 1)
    got = log_measure_grid(spec.family, spec.params, xs, np.full(xs.shape, spec.N))
    mp.dps = 40
    ref = np.array([float(_mp_log_measure(spec.family, spec.params, spec.N, int(x))) for x in xs])
    assert np.max(np.abs(got - ref)) <= 1e-12


#: the finite reference specs and the q-Hahn stationary measures of the grids
FINITE_ROWS = [spec for spec, _ in MEASURE_REFERENCE if spec.is_finite] + [
    ConvolutionRecipe(Family.Q_HAHN, conv_type, params).stationary_spec(400)
    for conv_type in (ConvType.I, ConvType.III)
    for params in FINITE_GRID[Family.Q_HAHN, conv_type]
]


@pytest.mark.parametrize("spec", FINITE_ROWS, ids=_spec_id)
def test_every_measure_row_sums_to_one(spec):
    # each row ln pi(.; n), n <= 400, summed exactly: within 8 eps of 1
    nmax = min(spec.N, 400)
    sizes = np.arange(nmax + 1)
    rows = np.exp(log_measure_grid(spec.family, spec.params, sizes[None, :], sizes[:, None]))
    assert max(abs(math.fsum(row) - 1.0) for row in rows) <= 8 * np.finfo(float).eps


def _mp_last_column_deficit(recipe, M):
    """The last column's deficit on the window ending at M, summed at the
    working precision from the defining convolution: factor tails are
    summed out to where their terms lie below 40 digits."""
    factor2, factor1 = recipe.factors

    def pi(factor, x, n=None):
        return mp.exp(_mp_log_measure(factor.family, factor.params, n, x))

    semi = factor2 if recipe.conv_type is ConvType.I else factor1
    terms = [pi(semi, x) for x in range(M + 700)]
    tail = [mp.fsum(terms[k + 1 :]) for k in range(M + 1)]
    if recipe.conv_type is ConvType.I:
        return mp.fsum(pi(factor1, z, M) * tail[M - z] for z in range(M + 1))
    zext = markov._type_iii_z_extension(factor1)
    return tail[zext] + mp.fsum(pi(factor1, z - M) * mp.fsum(pi(factor2, x, z) for x in range(M + 1, z + 1))
                                for z in range(M + 1, M + zext + 1))


@pytest.mark.parametrize("recipe", [
    ConvolutionRecipe(Family.CHARLIER, ConvType.I, (0.4, 0.8)),
    ConvolutionRecipe(Family.MEIXNER, ConvType.I, (1.0, 6.0, 0.2)),
    ConvolutionRecipe(Family.CHARLIER, ConvType.III, (1.0, 0.4)),
    ConvolutionRecipe(Family.MEIXNER, ConvType.III, (6.0, 0.2, 1.0)),
], ids=ConvolutionRecipe.to_string)
def test_window_deficit_bound_matches_40_digit_sum(recipe):
    # at the default window's end: measured within 8.6e-16 relative; the
    # built matrix's last column carries up to 1e-4 of it in rounding
    M = markov.build_kernel(recipe).size - 1
    mp.dps = 40
    ref = _mp_last_column_deficit(recipe, M)
    assert abs(markov._last_column_deficit(recipe)(M) - ref) <= 1e-14 * ref


def _mp_qpoch(w, q, n):
    out = mpf(1)
    for k in range(n):
        out *= 1 - w * q**k
    return out


def _mp_qhahn_recurrence(a, b, q, N):
    # A_n, C_n for n = 0..N at the working precision
    A, C = [], [mpf(0)]
    for n in range(N + 1):
        qn = q**n
        if n == 0:
            A.append((1 - a) * (1 - q**-N) / (1 - a * b))
        else:
            A.append(
                (1 - a * qn) * (1 - a * b * qn / q) * (1 - qn * q**-N)
                / ((1 - a * b * qn * qn / q) * (1 - a * b * qn * qn))
            )
        if n >= 1:
            C.append(
                -a * qn * q ** (-N - 1) * (1 - qn) * (1 - a * b * qn * q ** (N - 1))
                * (1 - b * qn / q)
                / ((1 - a * b * qn * qn / (q * q)) * (1 - a * b * qn * qn / q))
            )
    return A, C


def _mp_qhahn_phi(a, b, q, N):
    S = N + 1
    A, C = _mp_qhahn_recurrence(a, b, q, N)
    bb = [mp.sign(A[k]) * mp.sqrt(A[k] * C[k + 1]) for k in range(S - 1)]
    qq = _mp_qpoch(q, q, N)
    out = np.empty((S, S))
    for x in range(S):
        qbin = qq / (_mp_qpoch(q, q, x) * _mp_qpoch(q, q, N - x))
        piv = (
            qbin * _mp_qpoch(a, q, x) * _mp_qpoch(b, q, N - x) * a ** (N - x)
            / (_mp_qpoch(a * b, q, N))
        )
        th = q**-x - 1
        p0 = mp.sqrt(piv)
        out[x, 0] = float(p0)
        p1 = (th + A[0] + C[0]) * p0 / bb[0]
        out[x, 1] = float(p1)
        for k in range(1, S - 1):
            p1, p0 = ((th + A[k] + C[k]) * p1 - bb[k - 1] * p0) / bb[k], p1
            out[x, k + 1] = float(p1)
    return out


def _mp_krawtchouk_phi(p, N):
    # the basis at the working precision, as an object array of mpf
    S = N + 1
    A = [p * (N - n) for n in range(S)]
    C = [n * (1 - p) for n in range(S)]
    bb = [mp.sqrt(A[k] * C[k + 1]) for k in range(S - 1)]
    out = np.empty((S, S), dtype=object)
    for x in range(S):
        lpi = (
            mp.loggamma(N + 1) - mp.loggamma(x + 1) - mp.loggamma(N - x + 1)
            + x * mp.log(p) + (N - x) * mp.log(1 - p)
        )
        th = mpf(-x)
        p0 = mp.e ** (lpi / 2)
        out[x, 0] = p0
        p1 = (th + A[0] + C[0]) * p0 / bb[0]
        out[x, 1] = p1
        for k in range(1, S - 1):
            p1, p0 = ((th + A[k] + C[k]) * p1 - bb[k - 1] * p0) / bb[k], p1
            out[x, k + 1] = p1
    return out


@pytest.mark.parametrize("a,b,q,N", [(0.15, 0.4, 0.5, 30), (0.3, -0.5, 0.7, 24)])
def test_qhahn_basis_matches_200_digit_reference(a, b, q, N):
    spec = FamilySpec(Family.Q_HAHN, (a, b, q), N=N)
    got = orthonormal_columns(spec)
    mp.dps = 200
    ref = _mp_qhahn_phi(mpf(repr(a)), mpf(repr(b)), mpf(repr(q)), N)
    assert np.max(np.abs(got - ref)) <= 1e-12


def test_krawtchouk_delocalized_basis_matches_reference():
    spec = FamilySpec(Family.KRAWTCHOUK, (0.5,), N=40)
    got = orthonormal_columns(spec)
    mp.dps = 120
    ref = _mp_krawtchouk_phi(mpf(0.5), 40).astype(float)
    assert np.max(np.abs(got - ref)) <= 1e-14


def _mp_jacobi(family, params, N):
    """The Jacobi matrix of the degree recurrence and the sites at the
    working precision, from the double parameters exactly: its diagonal
    -(A_n + C_n), its off-diagonal b_n and its squares A_n C_{n+1}, and
    theta(x), x = 0..N."""
    S = N + 1
    if family is Family.Q_HAHN:
        a, b, q = map(mpf, params)
        A, C = _mp_qhahn_recurrence(a, b, q, N)
        theta = [q**-x - 1 for x in range(S)]
    else:
        theta = [mpf(-x) for x in range(S)]
        if family is Family.KRAWTCHOUK:
            (p,) = map(mpf, params)
            A = [p * (N - n) for n in range(S)]
            C = [n * (1 - p) for n in range(S)]
        else:
            a, b = map(mpf, params)
            A = [a * N / (a + b)] + [
                (n + a + b - 1) * (n + a) * (N - n) / ((2 * n + a + b - 1) * (2 * n + a + b))
                for n in range(1, S)
            ]
            C = [mpf(0)] + [
                n * (n + a + b + N - 1) * (n + b - 1) / ((2 * n + a + b - 2) * (2 * n + a + b - 1))
                for n in range(1, S)
            ]
    diag = [-(A[k] + C[k]) for k in range(S)]
    b2 = [A[k] * C[k + 1] for k in range(N)]
    off = [mp.sign(A[k]) * mp.sqrt(b2[k]) for k in range(N)]
    return diag, off, b2, theta


def _mp_twisted_phi(family, params, N, rows):
    """Rows ``rows`` of the finite basis at the working precision, as an
    object array of mpf: row x is the unit eigenvector of the Jacobi matrix
    for theta(x), from its twisted factorization (forward pivots P_k,
    backward pivots Q_k, twisted at the k of least |P_k + Q_k - s_k|), with
    phi(x, 0) > 0.  Each row takes O(N) operations at any precision, where
    an upward recurrence needs digits in proportion to N^2 on q-Hahn."""
    diag, off, b2, theta = _mp_jacobi(family, params, N)
    S = N + 1
    tiny = mp.eps**2  # stands in for an exact zero pivot
    out = np.empty((len(rows), S), dtype=object)
    for i, x in enumerate(rows):
        s = [d - theta[x] for d in diag]
        P, Q = list(s), list(s)
        for k in range(S):
            if k:
                P[k] = s[k] - b2[k - 1] / P[k - 1]
            P[k] = P[k] or tiny
        for k in reversed(range(S)):
            if k < N:
                Q[k] = s[k] - b2[k] / Q[k + 1]
            Q[k] = Q[k] or tiny
        r = min(range(S), key=lambda k: abs(P[k] + Q[k] - s[k]))
        v = [mpf(0)] * S
        v[r] = mpf(1)
        for k in reversed(range(r)):
            v[k] = -off[k] * v[k + 1] / P[k]
        for k in range(r + 1, S):
            v[k] = -off[k - 1] * v[k - 1] / Q[k]
        norm = mp.sqrt(mp.fsum(t * t for t in v)) * mp.sign(v[0])
        out[i] = [t / norm for t in v]
    return out


#: finite bases pinned against the twisted referee: the delocalized
#: Krawtchouk p = 1/2, two lattice sizes past 200, and q-Hahn at N = 200,
#: where an upward recurrence leaves the double range even at 200 digits
TWISTED_REFERENCE = [
    FamilySpec(Family.KRAWTCHOUK, (0.5,), N=40),
    FamilySpec(Family.KRAWTCHOUK, (0.3,), N=200),
    FamilySpec(Family.KRAWTCHOUK, (0.15,), N=300),
    FamilySpec(Family.HAHN, (2.0, 3.0), N=200),
    FamilySpec(Family.HAHN, (0.5, 7.0), N=150),
    FamilySpec(Family.Q_HAHN, (0.15, 0.4, 0.5), N=30),
    FamilySpec(Family.Q_HAHN, (0.3, -0.5, 0.7), N=24),
    FamilySpec(Family.Q_HAHN, (0.15, 0.4, 0.5), N=200),
]


@pytest.mark.parametrize("spec", TWISTED_REFERENCE, ids=_spec_id)
def test_basis_matches_twisted_reference(spec):
    # every row below N = 200, every 10th from there; the 40-digit rows
    # agree with the 80-digit ones far below a double's resolution
    rows = range(0, spec.size, 10 if spec.N >= 200 else 1)
    got = orthonormal_columns(spec)[rows]
    mp.dps = 80
    fine = _mp_twisted_phi(spec.family, spec.params, spec.N, rows)
    mp.dps = 40
    ref = _mp_twisted_phi(spec.family, spec.params, spec.N, rows)
    assert max(abs(t) for t in (fine - ref).ravel()) <= mpf(10) ** -30
    assert np.max(np.abs(got - ref.astype(float))) <= 1e-14


def _mp_meixner_phi(a, b, S):
    A = [b * (n + a) / (1 - b) for n in range(S)]
    C = [mpf(n) / (1 - b) for n in range(S)]
    bb = [mp.sqrt(A[k] * C[k + 1]) for k in range(S - 1)]
    out = np.empty((S, S))
    for x in range(S):
        lpi = (
            mp.loggamma(a + x) - mp.loggamma(a) + x * mp.log(b)
            + a * mp.log(1 - b) - mp.loggamma(x + 1)
        )
        th = mpf(-x)
        p0 = mp.e ** (lpi / 2)
        out[x, 0] = float(p0)
        p1 = (th + A[0] + C[0]) * p0 / bb[0]
        out[x, 1] = float(p1)
        for k in range(1, S - 1):
            p1, p0 = ((th + A[k] + C[k]) * p1 - bb[k - 1] * p0) / bb[k], p1
            out[x, k + 1] = float(p1)
    return out


def test_meixner_window_basis_matches_reference():
    # exercises the self-dual wedge-and-mirror path on a truncation window
    spec = FamilySpec(Family.MEIXNER, (7.0, 0.2))
    got = orthonormal_columns(spec, 80)
    mp.dps = 200
    ref = _mp_meixner_phi(mpf(7), mpf("0.2"), 80)
    assert np.max(np.abs(got - ref)) <= 1e-12


def _mp_block_entropy(rows):
    # the k x k block A A^T of C, formed and solved at the working precision
    if len(rows) == 0:
        return mpf(0)
    a = mp.matrix(rows.tolist())
    lams = mp.eigsy(a * a.T, eigvals_only=True)
    total = mpf(0)
    for lam in lams:
        if 0 < lam < 1:
            total -= lam * mp.log(lam) + (1 - lam) * mp.log(1 - lam)
    return total


@pytest.mark.parametrize("fill_div", [4, 2])
def test_block_entropy_matches_40_digit_reference(fill_div):
    # blocks on both sides of m, so both the k x k and the m x m Gram
    # eigenproblems are refereed against the same float Q, once from the
    # single-block path and once from the sweep, whose entries past n // 2
    # are the right blocks [k, n) of this pure state
    recipe = ConvolutionRecipe(Family.HAHN, ConvType.I, (1.0, 2.0, 3.0))
    system = analytic_eigensystem(recipe, N=59)
    n = system.size
    m = n // fill_div
    corr = correlation_matrix(lowest_filling(system, m))
    profile = entropy_profile(corr)
    mp.dps = 40
    for k in (m - 1, m + 7, 45, 60):
        ref = float(_mp_block_entropy(corr.modes[:k]))
        assert abs(block_entropy(corr, (0, k)) - ref) <= 1e-12, k
        if k > n // 2:
            ref = float(_mp_block_entropy(corr.modes[k:]))
        assert abs(profile[k] - ref) <= 1e-12, k


@pytest.mark.parametrize("conv_type,params", [(ConvType.I, (0.3, 0.5)), (ConvType.II, (0.2, 0.6))])
def test_right_sweep_matches_exact_state_entropy(conv_type, params):
    # The referee is the entropy of the exact state: S([k, n)) from a
    # 60-digit Krawtchouk basis, run through the three-term recurrence at
    # the library's own p.  Near the right end the left block [0, k) holds
    # many eigenvalues next to 1, each read to about an ulp, so the right
    # block is the more accurate side of S([0, k)) = S([k, n)).
    N = 120
    recipe = ConvolutionRecipe(Family.KRAWTCHOUK, conv_type, params)
    system = analytic_eigensystem(recipe, N=N)
    n = system.size
    model = lowest_filling(system, n // 2)
    corr = correlation_matrix(model)
    profile = entropy_profile(corr)
    one_sided = entropy_profile(CorrelationMatrix(corr.modes))
    mp.dps = 60
    (p,) = recipe.stationary_spec(N).params
    phi = _mp_krawtchouk_phi(mpf(p), N)
    cols = sorted(model.filled_modes)
    errs, one_sided_errs = [], []
    for k in (n - 3, n - 10, n - 25, n - 40):
        ref = _mp_block_entropy(phi[k:, cols])
        errs.append(abs(float(profile[k] - ref)))
        one_sided_errs.append(abs(float(one_sided[k] - ref)))
    assert max(errs) <= 1e-11, errs
    assert max(errs) <= max(one_sided_errs), (errs, one_sided_errs)
