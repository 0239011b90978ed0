"""Exception types shared across the package."""


class DomainError(ValueError):
    """An input lies outside the physical domain of an operation."""


class DivergenceError(DomainError):
    """The requested value diverges (Rutherford pole at 0 or 180 degrees)."""


class RootNotFoundError(RuntimeError):
    """A bracketing interval contains no sign change."""
