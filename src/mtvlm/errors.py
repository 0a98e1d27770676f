"""Shared exception types.

Module-specific errors (packing, manifests, clues) live next to their
call sites; the types here are raised from more than one module.
"""


class ShapeError(ValueError):
    """Operands have incompatible extents. The message names both shapes."""


class ContractError(ValueError):
    """A documented precondition was violated by the caller."""


class ConfigurationError(ValueError):
    """A config value is outside its documented range."""


class SequenceLengthError(ValueError):
    """A packed sequence does not fit the model's maximum length."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss. Carries the last good step."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"non-finite loss; last finite step was {step}")
