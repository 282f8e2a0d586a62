"""Exactly solvable reversible Markov chains from convolutions of discrete
orthogonal polynomial measures, the positive Hamiltonians they induce, and
free lattice fermions built on top."""

from .errors import (
    ContractViolation,
    DomainError,
    UnsupportedCombination,
)
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
    LatticeSpec,
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
    "ContractViolation",
    "ConvType",
    "ConvolutionKernel",
    "ConvolutionRecipe",
    "CorrelationMatrix",
    "DomainError",
    "Family",
    "FamilySpec",
    "FreeFermionModel",
    "KernelReport",
    "LatticeSpec",
    "SpectralSystem",
    "UnsupportedCombination",
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
