"""Exactly solvable reversible Markov chains from convolutions of discrete
orthogonal polynomial measures, the positive Hamiltonians they induce, and
free lattice fermions built on top."""

from .errors import (
    ContractViolation,
    DomainError,
    SizeCapExceeded,
    UnsupportedCombination,
)
from .families import (
    ConvolutionRecipe,
    ConvType,
    Family,
    FamilySpec,
    kappa,
    kappa_vector,
    lambda3_map,
    measure,
    measure_vector,
    norm_constant_sq,
    orthonormal_columns,
    parse_recipe,
    polynomial,
    polynomial_vector,
    spectral_gap,
)
from .fermion import (
    CorrelationMatrix,
    FreeFermionModel,
    block_entropy,
    correlation_matrix,
    entropy_profile,
    many_body_energies,
)
from .markov import (
    ConvolutionKernel,
    KernelReport,
    LatticeKind,
    LatticeSpec,
    build_kernel,
    truncation_cutoff,
    verify_kernel,
)
from .spectral import (
    CheckResult,
    SpectralSystem,
    analytic_eigensystem,
    classical_hamiltonian,
    numeric_spectrum,
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
    "LatticeKind",
    "LatticeSpec",
    "SizeCapExceeded",
    "SpectralSystem",
    "UnsupportedCombination",
    "analytic_eigensystem",
    "block_entropy",
    "build_kernel",
    "classical_hamiltonian",
    "correlation_matrix",
    "entropy_profile",
    "kappa",
    "kappa_vector",
    "lambda3_map",
    "many_body_energies",
    "measure",
    "measure_vector",
    "norm_constant_sq",
    "numeric_spectrum",
    "orthonormal_columns",
    "parse_recipe",
    "polynomial",
    "polynomial_vector",
    "spectral_gap",
    "spectrum_comparison",
    "truncation_cutoff",
    "verification_report",
    "verify_kernel",
]

__version__ = "0.1.0"
