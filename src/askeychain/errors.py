"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument is outside the mathematical domain of an operation."""


class ContractViolation(ValueError):
    """A precondition that callers must guarantee does not hold."""


class UnsupportedCombination(ValueError):
    """The requested (family, convolution type) pair does not exist."""
