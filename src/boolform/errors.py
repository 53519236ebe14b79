"""Shared error types."""


class InputError(ValueError):
    """Malformed argument (wrong length, bad serialization, ...)."""


class StructureError(ValueError):
    """Arity or stratification violation."""


class ResourceCapError(RuntimeError):
    """A configured resource cap (tree count, ordering count, ...) was hit."""


class NumericError(RuntimeError):
    """A numeric procedure failed to converge; carries diagnostics."""

    def __init__(self, message: str, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class DomainError(ValueError):
    """Operation not defined for these arguments (wrong model, constant f, ...)."""
