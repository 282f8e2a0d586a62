"""The one exception type the package refuses input with."""


class DomainError(ValueError):
    """An argument is outside the mathematical domain of an operation."""
