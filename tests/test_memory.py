"""Traced memory of the N^2 stages: the kernel matrix
(``markov._build_matrix``) and the orthonormal basis
(``families.orthonormal_columns``) hold temporaries of their output's size
only, so their traced peak stays within a fixed multiple of the output's
``nbytes``; the verify checks work in the buffer of the product they check;
the export builders hold the text and its rows.  Whole ``np.indices`` grids
and an unblocked splice read 9 to 14 here; the budgets are the measured
multiples plus headroom.
"""

import math
import tracemalloc

import numpy as np
import pytest

from askeychain import export, markov, spectral
from askeychain import families as F
from askeychain.families import ConvolutionRecipe, ConvType, Family, FamilySpec, parse_recipe

#: measured 4.3 (types i, ii), 5.3 (iii) on table families, 4.3 and 4.7 on
#: the Meixner windows
BUILD_BUDGET = 7.0
#: q-Hahn's closed form sums in one result and one gather buffer: measured
#: 4.4 (i) and 5.4 (iii); its five gathers held at once read 5.4 and 6.4
QHAHN_BUILD_BUDGET = 5.6
#: the two passes and the splice blocks: measured 4.8 at N = 200
FINITE_BASIS_BUDGET = 6.0
#: the upward pass and its log scale: measured 2.04 on 300-point windows
WINDOW_BASIS_BUDGET = 2.15
#: g = phi^T phi (or phi phi^T) and nothing more: measured 1.02 over phi's
#: nbytes; with g - I and its abs beside g it read 3.0
IDENTITY_DEFECT_BUDGET = 1.1
#: the flux matrix and its skew part: measured 2.2 over K's nbytes; with the
#: skew part's abs beside them it read 3.0
VERIFY_KERNEL_BUDGET = 2.3
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
    budget = QHAHN_BUILD_BUDGET if recipe.family is Family.Q_HAHN else BUILD_BUDGET
    assert traced_multiple(markov._build_matrix, recipe, size) <= budget


@pytest.mark.parametrize("params", [(0.3, 0.5, 0.5), (0.9, -2.0, 0.7)])
def test_qhahn_grid_keeps_the_bits(params):
    # the in-place sum adds the terms of the one-expression form in its order
    a, b, q = params
    pts, sizes = np.arange(-2, 40)[:, None], np.arange(35)[None, :]
    got = F.log_measure_grid(Family.Q_HAHN, params, pts, sizes)
    n = np.broadcast_to(sizes, got.shape)
    x = np.minimum(np.maximum(pts, 0), n)
    lqf, la, lb, lab = (F._log_qpoch_prefix(w, q, 34) for w in (q, a, b, a * b))
    want = lqf[n] - lqf[x] - lqf[n - x] + la[x] + lb[n - x] + (n - x) * math.log(a) - lab[n]
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


@pytest.mark.parametrize("text", [
    "hahn type=iii a=1 b=2 c=1 N=60", "krawtchouk type=ii a=0.2 b=0.6 N=40",
    "charlier type=iii a=1.0 b=0.4",
])
def test_checks_in_place_keep_the_bits(text):
    # every printed value reads the bits of the expressions with g - I and
    # flux - flux.T in buffers of their own
    recipe, N = parse_recipe(text)
    system = spectral.SpectralSystem(markov.build_kernel(recipe, N=N))
    phi, kernel = system.phi, system.kernel
    eye = np.eye(len(phi))
    assert spectral.orthonormality_defect(phi) == float(np.max(np.abs(phi.T @ phi - eye)))
    assert spectral.completeness_defect(phi) == float(np.max(np.abs(phi @ phi.T - eye)))
    flux = kernel.matrix * kernel.pi[None, :]
    want = float(np.max(np.abs(flux - flux.T)) / np.max(flux))
    assert markov.verify_kernel(kernel).max_reversibility_violation == want


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
    FamilySpec(Family.KRAWTCHOUK, (0.7,), N=100),
    FamilySpec(Family.Q_HAHN, (0.3, 0.5, 0.5), N=70),
], ids=FamilySpec.to_string)
def test_splice_blocks_keep_the_bits(spec, monkeypatch):
    # every statement of the splice reads only its own row, so scoring the
    # rows in blocks gives the bits of scoring them all at once
    blocked = F.orthonormal_columns(spec)
    monkeypatch.setattr(F, "_SPLICE_ROWS", spec.size)
    assert blocked.tobytes() == F.orthonormal_columns(spec).tobytes()


@pytest.mark.parametrize("spec", [
    FamilySpec(Family.CHARLIER, (1.3,)),
    FamilySpec(Family.CHARLIER, (20.0,)),
    FamilySpec(Family.MEIXNER, (1.5, 0.4)),
], ids=FamilySpec.to_string)
def test_wedge_pass_keeps_the_bits(spec):
    # the rows of the recurrence are independent, so running the upward pass
    # only in the wedge n <= x and mirroring it gives the bits of the full
    # pass mirrored (with rows rescaled in the discarded wedge: Charlier 1.3)
    npoints = 400
    theta = F.site_values(spec, npoints)
    A, C = F.recurrence_coefficients(spec, npoints - 1)
    b = np.sign(A[:-1]) * np.sqrt(A[:-1] * C[1:])
    with np.errstate(all="ignore"):
        u, lgu = F._recurrence(theta, A, C, b, np.exp(0.5 * F._log_pi(spec, npoints)))
        full = u * np.exp(lgu)
    want = np.where(np.tri(npoints, dtype=bool), full, full.T)
    assert F.orthonormal_columns(spec, npoints).tobytes() == want.tobytes()
