"""Exactly solvable reversible Markov chains from convolutions of discrete
orthogonal polynomial measures, the symmetric Hamiltonians they induce, and
free lattice fermions built on top.  H has spectrum (-1, 1] (kappa(1) =
-0.4 on Krawtchouk ii (0.2, 0.6)); the positive H^R is ROADMAP item 21."""

from .errors import DomainError
from .families import (
    ConvolutionRecipe,
    ConvType,
    Family,
    FamilySpec,
    kappa_vector,
    measure_vector,
    orthonormal_columns,
    parse_recipe,
    spectral_gap,
)
from .fermion import (
    CorrelationMatrix,
    FreeFermionModel,
    block_entropy,
    correlation_matrix,
    entropy_profile,
)
from .markov import (
    ConvolutionKernel,
    KernelReport,
    build_kernel,
    verify_kernel,
)
from .spectral import (
    CheckResult,
    SpectralSystem,
    analytic_eigensystem,
    spectrum_comparison,
    verification_report,
)

__all__ = [
    "CheckResult",
    "ConvType",
    "ConvolutionKernel",
    "ConvolutionRecipe",
    "CorrelationMatrix",
    "DomainError",
    "Family",
    "FamilySpec",
    "FreeFermionModel",
    "KernelReport",
    "SpectralSystem",
    "analytic_eigensystem",
    "block_entropy",
    "build_kernel",
    "correlation_matrix",
    "entropy_profile",
    "kappa_vector",
    "measure_vector",
    "orthonormal_columns",
    "parse_recipe",
    "spectral_gap",
    "spectrum_comparison",
    "verification_report",
    "verify_kernel",
]

__version__ = "0.1.0"
