"""Semantic exception hierarchy, and the one rule each for counts, reals and complex scalars."""

import math
import numbers
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


def _as_real(value, name: str, low=-math.inf, high=math.inf, ends: str = "[]") -> float:
    """*value* as a finite float within *low* and *high*, or a DomainError naming *name*.

    Any ``numbers.Real`` but ``bool`` passes; anything else, NaN, an infinity
    or an int beyond the double range is "{name} must be a finite real
    number, got {value!r}".  *ends* holds the brackets, and a value outside
    them is "{name} must lie in (0, 1], got 0.0"; an infinite end prints open.
    """
    try:
        x = float(value) if isinstance(value, numbers.Real) and not isinstance(value, bool) else math.nan
    except OverflowError:
        x = math.nan
    if not math.isfinite(x):
        raise DomainError(f"{name} must be a finite real number, got {value!r}")
    if not ((low <= x if ends[0] == "[" else low < x) and (x <= high if ends[1] == "]" else x < high)):
        left, right = ends[0] if low > -math.inf else "(", ends[1] if high < math.inf else ")"
        raise DomainError(f"{name} must lie in {left}{low:g}, {high:g}{right}, got {x!r}")
    return x


def _as_complex(value, name: str) -> complex:
    """*value* as a complex by the type rule of :func:`_as_real`; the caller checks the value."""
    if isinstance(value, numbers.Complex) and not isinstance(value, bool):
        try:
            return complex(value)
        except OverflowError:
            pass
    raise DomainError(f"{name} must be a complex number, got {value!r}")
