"""Traced memory of the N^2 stages: the kernel matrix
(``markov._build_matrix``) and the orthonormal basis
(``families.orthonormal_columns``) hold temporaries of their output's size
only, so their traced peak stays within a fixed multiple of the output's
``nbytes``, and a whole truncated ``build_kernel`` within the same
multiple; H is built in its own buffer; the verify checks work in the
buffer of the product they check, or a block of columns at a time, and a
whole ``verification_report`` holds at most two arrays of K's size besides
K: H is rebuilt on each read rather than kept, so it is never held beside
phi and the basis's work array.  The export builders hold the text and its
rows.  Whole ``np.indices`` grids read 9 to 14 here; the budgets are the
measured multiples plus headroom.  One guard reads the peak RSS of CLI
``verify`` children the way the benchmark does.
"""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from askeychain import export, markov, spectral
from askeychain import families as F
from askeychain.families import ConvolutionRecipe, ConvType, Family, FamilySpec, parse_recipe

from conftest import assert_residuals_keep_the_bits

#: measured 3.6 (types i, ii), 4.4 (iii) on the finite families, q-Hahn
#: included, 3.3 and 3.6 on the Meixner windows; a gather index of the
#: grid's size and a measure table built whole read 4.3 and 5.3, and
#: q-Hahn's closed form summed on the whole grid 4.25 (i) and 5.26 (iii)
BUILD_BUDGET = 4.6
#: the pivots' work array and the site blocks: measured 2.77 at N = 200
#: (Hahn, Krawtchouk and q-Hahn); two recurrence passes and their splice
#: read 4.05, with the passes' dense log scales 4.8
FINITE_BASIS_BUDGET = 3.0
#: the wedge's running pivots: measured 1.15 on 300-point windows;
#: an upward pass with its log scale rebuilt in blocks read 1.24, with a
#: dense log scale 2.04
WINDOW_BASIS_BUDGET = 1.25
#: g = phi^T phi (or phi phi^T) and nothing more: measured 1.02 over phi's
#: nbytes; with g - I and its abs beside g it read 3.0
IDENTITY_DEFECT_BUDGET = 1.1
#: the flux matrix and its skew part: measured 2.2 over K's nbytes; with the
#: skew part's abs beside them it read 3.0
VERIFY_KERNEL_BUDGET = 2.3
#: H and a block row of it: measured 1.57 at N = 200 and 1.10 on the
#: 821-point Charlier i (0.9, 20) window; with H - H^T and H + H^T taken
#: whole it read 2.21 and 2.01
HAMILTONIAN_BUDGET = 1.8
#: a whole verification_report over K's nbytes, K itself not counted: phi
#: and the basis's work array, then phi and H (2.81 on Hahn iii N = 200), or
#: phi and the residual's column blocks (2.35 on the Meixner iii window);
#: with H kept beside phi and the residual product whole they read 3.81
#: and 3.18, with a second recurrence pass in place of the work array the
#: first read 5.07, and with dense log scales, a gather index of the grid's
#: size and phi**2 whole they read 5.86 and 4.07
FINITE_REPORT_BUDGET = 3.1
WINDOW_REPORT_BUDGET = 2.7
#: peak RSS of a CLI ``verify`` child above that of a child that only
#: imports the CLI, over the lattice matrix's nbytes: measured 4.93 on Hahn
#: iii N = 800, where the kernel build is the floor, and 4.26 on the
#: 821-point Charlier i (0.9, 20) window (K, phi and H, with the
#: allocator's slack).  With H kept beside phi and the basis's pivots they
#: read 5.30 and 5.20; with a whole second recurrence pass in place of the
#: work array the first read 5.72, and a gather index of the grid's size,
#: whole measure-table temporaries, dense log scales and phi**2 whole 7.0
VERIFY_RSS_BUDGET = 5.2
WINDOW_VERIFY_RSS_BUDGET = 4.6
#: the row strings and their join: measured 2.0 over the text's length; the
#: per-float generator read 3.0 (CSV), json.dumps 4.5 (JSON)
EXPORT_BUDGET = 2.25


def traced_peak(fn, *args):
    """Result and traced peak bytes of one warm call of ``fn``."""
    fn(*args)  # fills the per-recipe caches, outside the trace
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


#: runs ``python argv`` and prints its exit code and ru_maxrss.  A child's
#: peak RSS counts the pages of the process it was forked from, so the
#: child is forked from this small interpreter, not from the test process
_WAIT4 = """
import os, subprocess, sys
proc = subprocess.Popen([sys.executable, *sys.argv[1:]], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def child_maxrss_kib(*argv: str) -> int:
    """Peak RSS (KiB) of one ``python argv`` child that exits 0, read from
    ``os.wait4`` with one BLAS thread, as the benchmark reads its ops."""
    env = {**os.environ, "PYTHONPATH": str(Path(markov.__file__).parents[1])}
    env.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    out = subprocess.run([sys.executable, "-c", _WAIT4, *argv], env=env, check=True,
                         capture_output=True, text=True).stdout
    code, maxrss = map(int, out.split())
    assert code == 0
    return maxrss


def traced_multiple(fn, *args) -> float:
    """Traced peak of one warm call of ``fn`` over its result's nbytes."""
    out, peak = traced_peak(fn, *args)
    return peak / out.nbytes


@pytest.mark.parametrize("recipe, size", [
    (ConvolutionRecipe(Family.HAHN, ConvType.I, (1.0, 2.0, 3.0)), 201),
    (ConvolutionRecipe(Family.HAHN, ConvType.II, (1.0, 0.5, 1.0)), 201),
    (ConvolutionRecipe(Family.HAHN, ConvType.III, (1.0, 2.0, 1.0)), 201),
    (ConvolutionRecipe(Family.Q_HAHN, ConvType.I, (0.3, 0.5, 0.4, 0.5)), 201),
    (ConvolutionRecipe(Family.Q_HAHN, ConvType.III, (0.3, 0.5, 0.4, 0.5)), 201),
    (ConvolutionRecipe(Family.MEIXNER, ConvType.I, (1.0, 6.0, 0.2)), 300),
    (ConvolutionRecipe(Family.MEIXNER, ConvType.III, (6.0, 0.2, 1.0)), 300),
], ids=lambda v: v.to_string() if isinstance(v, ConvolutionRecipe) else str(v))
def test_kernel_build_holds_output_sized_temporaries(recipe, size):
    assert traced_multiple(markov._build_matrix, recipe, size) <= BUILD_BUDGET


@pytest.mark.parametrize("recipe", [
    ConvolutionRecipe(Family.MEIXNER, ConvType.I, (1.0, 6.0, 0.2)),
    ConvolutionRecipe(Family.CHARLIER, ConvType.I, (0.9, 20.0)),
], ids=ConvolutionRecipe.to_string)
def test_window_sizing_holds_no_candidate_matrices(recipe):
    # the window is sized from O(M) sums and its matrix built once, so a
    # whole truncated build holds what that one build holds: measured 3.36
    # and 3.11, against 3.28 and 3.10 for the one build alone
    kernel, peak = traced_peak(markov.build_kernel, recipe)
    assert peak / kernel.matrix.nbytes <= BUILD_BUDGET


@pytest.mark.parametrize("params", [(0.3, 0.5, 0.5), (0.9, -2.0, 0.7)])
def test_qhahn_grid_keeps_the_bits(params):
    # the table rows hold the closed form's x-dependent factors from three
    # prefixes, -inf past each row's end, normalized by their own
    # log-sum-exp, and are gathered at (n, min(x, n))
    a, b, q = params
    pts, sizes = np.arange(-2, 40)[:, None], np.arange(35)[None, :]
    got = F.log_measure_grid(Family.Q_HAHN, params, pts, sizes)
    lqf, la, lb = (F._log_qpoch_prefix(w, q, 34) for w in (q, a, b))
    rows, cols = np.arange(35)[:, None], np.arange(35)
    x = np.minimum(cols, rows)
    table = la[x] - lqf[x] + lb[rows - x] - lqf[rows - x] + (rows - x) * math.log(a)
    table[cols > rows] = -np.inf
    table -= table.max(axis=1, keepdims=True)
    table -= np.log(np.exp(table).sum(axis=1, keepdims=True))
    n = np.broadcast_to(sizes, got.shape)
    want = table[n, np.minimum(np.maximum(pts, 0), n)]
    want[(pts < 0) | (pts > sizes)] = -np.inf
    assert got.tobytes() == want.tobytes()


@pytest.fixture(scope="module")
def hahn200():
    recipe = ConvolutionRecipe(Family.HAHN, ConvType.III, (1.0, 2.0, 1.0))
    return spectral.SpectralSystem(markov.build_kernel(recipe, N=200))


@pytest.mark.parametrize("check", [spectral.orthonormality_defect, spectral.completeness_defect])
def test_identity_defects_hold_one_product(check, hahn200):
    phi = hahn200.phi
    _, peak = traced_peak(check, phi)
    assert peak / phi.nbytes <= IDENTITY_DEFECT_BUDGET


def test_verify_kernel_holds_the_flux_and_its_skew_part(hahn200):
    kernel = hahn200.kernel
    _, peak = traced_peak(markov.verify_kernel, kernel)
    assert peak / kernel.matrix.nbytes <= VERIFY_KERNEL_BUDGET


@pytest.mark.parametrize("text", ["hahn type=iii a=1 b=2 c=1 N=200", "charlier type=i a=0.9 b=20"])
def test_hamiltonian_holds_one_buffer(text):
    recipe, N = parse_recipe(text)
    kernel = markov.build_kernel(recipe, N=N)
    _, peak = traced_peak(spectral._hamiltonian, kernel)
    assert peak / kernel.matrix.nbytes <= HAMILTONIAN_BUDGET


@pytest.mark.parametrize("text", [
    "hahn type=iii a=1 b=2 c=1 N=60", "krawtchouk type=ii a=0.2 b=0.6 N=40",
    "charlier type=iii a=1.0 b=0.4", "meixner type=i a=1 b=6 c=0.2",
])
def test_checks_in_place_keep_the_bits(text):
    # every printed value reads the bits of the expressions with g - I,
    # flux - flux.T, K - I + 1, H phi - phi kappa and phi**2 in buffers of
    # their own (H phi - phi kappa as conftest's helper states)
    recipe, N = parse_recipe(text)
    system = spectral.SpectralSystem(markov.build_kernel(recipe, N=N))
    phi, kernel = system.phi, system.kernel
    eye = np.eye(len(phi))
    assert spectral.orthonormality_defect(phi) == float(np.max(np.abs(phi.T @ phi - eye)))
    assert spectral.completeness_defect(phi) == float(np.max(np.abs(phi @ phi.T - eye)))
    flux = kernel.matrix * kernel.pi[None, :]
    want = float(np.max(np.abs(flux - flux.T)) / np.max(flux))
    assert markov.verify_kernel(kernel).max_reversibility_violation == want
    v = np.linalg.solve(kernel.matrix - eye + 1.0, np.ones(len(eye)))
    want = float(np.max(np.abs(v / v.sum() - kernel.pi)))
    assert markov.perron_frobenius_residual(kernel) == want
    assert_residuals_keep_the_bits(system)
    want = np.abs(1.0 - np.sum(phi**2, axis=0))
    assert system.mode_norm_defects().tobytes() == want.tobytes()


@pytest.mark.parametrize("text, budget", [
    ("hahn type=iii a=1 b=2 c=1 N=200", FINITE_REPORT_BUDGET),
    ("meixner type=iii a=6 b=0.2 c=1", WINDOW_REPORT_BUDGET),
])
def test_verification_report_holds_its_floor(text, budget):
    # a fresh system per call, so H and phi are built inside the trace
    recipe, N = parse_recipe(text)
    kernel = markov.build_kernel(recipe, N=N)
    _, peak = traced_peak(lambda k: spectral.verification_report(spectral.SpectralSystem(k)), kernel)
    assert peak / kernel.matrix.nbytes <= budget


@pytest.mark.parametrize("text, budget", [
    ("hahn type=iii a=1 b=2 c=1 N=800", VERIFY_RSS_BUDGET),
    ("charlier type=i a=0.9 b=20", WINDOW_VERIFY_RSS_BUDGET),
])
def test_cli_verify_rss_stays_near_its_floor(text, budget):
    recipe, N = parse_recipe(text)
    size = markov.build_kernel(recipe, N=N).size
    base = child_maxrss_kib("-c", "import askeychain.cli")
    peak = child_maxrss_kib("-m", "askeychain.cli", "verify", "--recipe", text)
    assert (peak - base) * 1024 / (8 * size * size) <= budget


@pytest.mark.parametrize("builder, payload_of", [
    (export.matrix_csv, lambda k: k.matrix),
    (export.envelope_json, lambda k: {"recipe": "r", "lattice": k.lattice_dict(),
                                      "matrix": k.matrix, "pi": k.pi}),
], ids=["matrix_csv", "envelope_json"])
def test_export_builders_hold_twice_the_text(builder, payload_of, hahn200):
    text, peak = traced_peak(builder, payload_of(hahn200.kernel))
    assert peak / len(text) <= EXPORT_BUDGET


@pytest.mark.parametrize("spec, npoints, budget", [
    (FamilySpec(Family.HAHN, (1.0, 2.0), N=200), None, FINITE_BASIS_BUDGET),
    (FamilySpec(Family.KRAWTCHOUK, (0.3,), N=200), None, FINITE_BASIS_BUDGET),
    (FamilySpec(Family.CHARLIER, (1.3,)), 300, WINDOW_BASIS_BUDGET),
    (FamilySpec(Family.MEIXNER, (1.5, 0.4)), 300, WINDOW_BASIS_BUDGET),
], ids=lambda v: v.to_string() if isinstance(v, FamilySpec) else str(v))
def test_basis_holds_output_sized_temporaries(spec, npoints, budget):
    assert traced_multiple(F.orthonormal_columns, spec, npoints) <= budget


@pytest.mark.parametrize("spec", [
    FamilySpec(Family.HAHN, (1.0, 2.0), N=150),
    FamilySpec(Family.HAHN, (2.0, 7.0), N=600),
    FamilySpec(Family.KRAWTCHOUK, (0.7,), N=100),
    FamilySpec(Family.Q_HAHN, (0.3, 0.5, 0.5), N=70),
], ids=FamilySpec.to_string)
def test_site_blocks_keep_the_bits(spec, monkeypatch):
    # every statement of the twist, the ratios and the row assembly, and of
    # the measure table and gather, reads only its own sites, so running
    # them on blocks of sites gives the bits of running them on all at once
    blocked = F.orthonormal_columns(spec)
    monkeypatch.setattr(F, "_BLOCK_ROWS", spec.size)
    assert blocked.tobytes() == F.orthonormal_columns(spec).tobytes()


@pytest.mark.parametrize("spec", [
    FamilySpec(Family.CHARLIER, (1.3,)),
    FamilySpec(Family.CHARLIER, (20.0,)),
    FamilySpec(Family.MEIXNER, (1.5, 0.4)),
], ids=FamilySpec.to_string)
def test_windows_are_exactly_symmetric(spec):
    # the wedge n <= x is built one degree per row of the result, which by
    # self-duality is the wedge's mirror image, and the mirror copies it
    phi = F.orthonormal_columns(spec, 400)
    assert phi.tobytes() == phi.T.tobytes()


@pytest.mark.parametrize("family, params", [
    (Family.HAHN, (1.5, 0.7)), (Family.KRAWTCHOUK, (0.3,)), (Family.Q_HAHN, (0.3, 0.5, 0.5)),
    (Family.CHARLIER, (3.0,)), (Family.MEIXNER, (2.0, 0.4)),
], ids=lambda v: v.value if isinstance(v, Family) else str(v))
def test_gather_blocks_keep_the_bits(family, params, monkeypatch):
    # the gather and the validity mask read each row of the result on its
    # own, so blocks of rows give the bits of one block of all rows; points
    # before the lattice and past its end, and negative sizes, included
    pts, sizes = np.arange(-5, 110)[:, None], np.arange(-2, 100)[None, :]
    grids = [(pts, sizes), (pts - sizes, sizes), (sizes.T, pts.T), (pts.ravel(), 40)]
    blocked = [F.log_measure_grid(family, params, p, s) for p, s in grids]
    for (p, s), got in zip(grids, blocked):
        assert np.isneginf(got).any() and np.isfinite(got).any()
        monkeypatch.setattr(F, "_BLOCK_ROWS", got.shape[0])
        assert got.tobytes() == F.log_measure_grid(family, params, p, s).tobytes()
