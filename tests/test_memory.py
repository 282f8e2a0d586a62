"""Traced memory of the two N^2 builders every command runs: the kernel
matrix (``markov._build_matrix``) and the orthonormal basis
(``families.orthonormal_columns``) hold temporaries of their output's size
only, so their traced peak stays within a fixed multiple of the output's
``nbytes``.  Whole ``np.indices`` grids and an unblocked splice read 9 to 14
here; the budgets are the measured multiples plus headroom.
"""

import tracemalloc

import numpy as np
import pytest

from askeychain import families as F
from askeychain import markov
from askeychain.families import ConvolutionRecipe, ConvType, Family, FamilySpec

#: measured 4.3 (types i, ii), 5.3 (iii) on table families, 5.4 and 6.4 on
#: q-Hahn's closed form, 4.3 and 4.7 on the Meixner windows
BUILD_BUDGET = 7.0
#: the two passes and the splice blocks: measured 4.8 at N = 200
FINITE_BASIS_BUDGET = 6.0
#: the upward pass and its log scale: measured 2.04 on 300-point windows
WINDOW_BASIS_BUDGET = 2.15


def traced_multiple(fn, *args) -> float:
    """Traced peak of one warm call of ``fn`` over its result's nbytes."""
    fn(*args)  # fills the per-recipe caches, outside the trace
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
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
