"""Semantic exception hierarchy shared across the package."""

import operator


class HarmonicDiskError(Exception):
    """Base class for all package-specific errors."""


class DomainError(HarmonicDiskError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NormalizationError(HarmonicDiskError, ValueError):
    """A series or map violates the required normalization."""


class DocumentError(HarmonicDiskError, ValueError):
    """A map document is malformed.  ``path`` names the offending field."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


class DegenerateCurveError(HarmonicDiskError, RuntimeError):
    """A circle image is too degenerate to classify (vanishing value or tangent)."""


class InternalConsistencyError(HarmonicDiskError, RuntimeError):
    """A mathematically guaranteed precondition failed to hold numerically."""


def _as_count(value, name: str, minimum: int = 0) -> int:
    """*value* as an int of at least *minimum*, or a DomainError naming *name*.

    The conversion is ``operator.index``, so numpy integers pass and 96.0,
    NaN or a string do not.  Every count in the package (grid sizes, sample
    counts, orders, indices, term counts) goes through this one rule.
    """
    try:
        count = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if count < minimum:
        raise DomainError(f"{name} must be at least {minimum}, got {count}")
    return count
