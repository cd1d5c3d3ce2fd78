"""Truncated complex power series on the closed unit disk.

A series is stored densely: ``coeffs[m]`` is the coefficient of ``z**m`` and
the truncation order is ``len(coeffs) - 1``.  All operations are pure
functions on immutable values, so instances can be shared freely between
threads.

Values come from one of two kernels.  At one point
(:meth:`TruncatedSeries.evaluate`) or on an arbitrary array of points
(:func:`eval_many`), a Horner kernel updates a single output array in place.
It performs the floating-point operations of
``numpy.polynomial.polynomial.polyval`` in the same order, so its values are
bitwise equal to that function's, without the two temporary arrays
``polyval`` allocates per coefficient.  On whole circles ``|z| = r``
(:func:`eval_rings`), the samples at n equally spaced angles are a discrete
Fourier transform of the radius-scaled coefficients, so one FFT per ring
replaces an order-N Horner pass per point; its values agree with Horner's to
rounding, not bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _as_complex, _as_count, _as_real

#: Absolute tolerance for series-level equality checks.  Double-precision
#: Horner error on |z| <= 1 with order <= 256 stays far below this.
COEFF_TOL = 1e-12

#: Highest derivative order any consumer needs (the differential operator
#: uses at most the third derivative).
MAX_DERIVATIVE = 3

#: Rounding slack admitted when checking |z| <= 1 (grid points built from
#: cos/sin can overshoot the unit circle by a few ulp).
_EDGE_SLACK = 1e-12

#: Default truncation order for series built by map constructors.
DEFAULT_ORDER = 64

#: Below 2**-1075 a power r**k rounds to zero; :func:`_radius_powers` does
#: not evaluate powers whose log2 lies below this cut, because numpy's ``pow``
#: takes a slow path for underflowing results.
_UNDERFLOW_LOG2 = -1100.0


def _as_complex_vector(values, what: str) -> np.ndarray:
    """A read-only copy of *values* as a nonempty, finite 1-d complex array, or a DomainError."""
    try:
        arr = np.atleast_1d(np.array(values, dtype=np.complex128))
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{what} must be complex numbers") from None
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError(f"{what} must form a nonempty 1-d sequence")
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise DomainError(f"{what} must be finite (no NaN/Inf)")
    arr.setflags(write=False)
    return arr


def _check_disk(z) -> None:
    """Raise DomainError unless *z*, a number or an array, lies in the closed unit disk."""
    if not np.all(np.isfinite(z)):
        raise DomainError("evaluation points must be finite")
    r = float(np.max(np.abs(z))) if np.size(z) else 0.0
    if r > 1.0 + _EDGE_SLACK:
        raise DomainError(f"evaluation points must satisfy |z| <= 1, got |z| = {r}")


@dataclass(frozen=True, eq=False)
class TruncatedSeries:
    """Polynomial truncation ``sum(coeffs[m] * z**m for m in 0..order)``.

    Coefficients are kept in a read-only complex array.  The public
    constructors produce series of order >= 1; :meth:`derivative` may floor
    the order at 0 (a constant), which every operation accepts.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_complex_vector(self.coeffs, "coefficients"))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int = 1) -> "TruncatedSeries":
        """The zero series at the given order."""
        return cls.monomial(0, 0.0, order)

    @classmethod
    def identity(cls, order: int = 1) -> "TruncatedSeries":
        """The series of z itself, optionally padded with zero coefficients."""
        return cls.monomial(1, 1.0, order)

    @classmethod
    def monomial(cls, m: int, c: complex = 1.0, order: int | None = None) -> "TruncatedSeries":
        """The series ``c * z**m`` stored at the given order (default m)."""
        m = _as_count(m, "monomial exponent m")
        order = m if order is None else _as_count(order, "order", m)
        arr = np.zeros(order + 1, dtype=np.complex128)
        arr[m] = _as_complex(c, "monomial coefficient c")
        return cls(arr)

    @classmethod
    def geometric(cls, order: int) -> "TruncatedSeries":
        """Truncation of z/(1-z): coefficients [0, 1, 1, ..., 1].

        This is the identity element of the coefficient-wise product.
        """
        order = _as_count(order, "order", 1)
        c = np.ones(order + 1, dtype=np.complex128)
        c[0] = 0.0
        return cls(c)

    # -- basic accessors ---------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, m: int) -> complex:
        """Coefficient of ``z**m``; zero beyond the stored order."""
        m = _as_count(m, "coefficient index m")
        return complex(self.coeffs[m]) if m <= self.order else 0j

    def pad_to(self, order: int) -> "TruncatedSeries":
        """Zero-pad up to *order* (no-op if already at least that long)."""
        order = _as_count(order, "order")
        if order <= self.order:
            return self
        c = np.zeros(order + 1, dtype=np.complex128)
        c[: len(self.coeffs)] = self.coeffs
        return TruncatedSeries(c)

    # -- operations --------------------------------------------------------

    def evaluate(self, z: complex) -> complex:
        """Horner evaluation at a point of the closed unit disk."""
        z = _as_complex(z, "evaluation point z")
        _check_disk(z)
        return complex(_horner(self.coeffs, z))

    def derivative(self, k: int = 1) -> "TruncatedSeries":
        """k-th formal derivative, 0 <= k <= 3.  Order floors at 0."""
        k = _as_count(k, "derivative order")
        if k > MAX_DERIVATIVE:
            raise DomainError(f"derivative order must be in 0..{MAX_DERIVATIVE}, got {k}")
        c = self.coeffs
        for _ in range(k):
            if len(c) == 1:
                c = np.zeros(1, dtype=np.complex128)
                break
            c = c[1:] * np.arange(1, len(c))
        return TruncatedSeries(c)

    def hadamard(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Coefficient-wise product, truncated to the shorter order."""
        n = min(self.order, other.order)
        return TruncatedSeries(self.coeffs[: n + 1] * other.coeffs[: n + 1])

    def scale_argument(self, r: float) -> "TruncatedSeries":
        """Coefficient map ``c[m] -> c[m] * r**(m-1)`` for 0 < r <= 1.

        For a normalized series s this realizes s(r z)/r, the dilation used
        when restricting a map to a smaller disk.
        """
        r = _as_real(r, "scale factor", 0, 1, "(]")
        powers = r ** (np.arange(len(self.coeffs)) - 1.0)
        return TruncatedSeries(self.coeffs * powers)


def _horner(coeffs: np.ndarray, z):
    """Horner's rule on the points *z*, with one output array updated in place.

    The start ``z*0 + c[-1]`` and each step ``out*z + c`` are the operations
    of ``polyval``, signed zeros included.  One caveat comes from numpy: an
    in-place multiply of a one-element array takes its plain scalar loop
    instead of the vector loop with fused multiply-adds, so a single point
    passed as a 1-element array may differ from ``polyval`` in the last bits.
    Scalars, 0-d arrays and arrays of two or more points match bit for bit.
    """
    out = z * 0
    out += coeffs[-1]
    for c in coeffs[-2::-1]:
        out *= z
        out += c
    return out


def eval_many(series: TruncatedSeries, z: np.ndarray) -> np.ndarray:
    """Vectorized Horner evaluation on an array of closed-disk points."""
    z = np.asarray(z, dtype=np.complex128)
    _check_disk(z)
    return _horner(series.coeffs, z)


def eval_rings(series: TruncatedSeries, radii, n: int) -> np.ndarray:
    """Values at ``radii[i] * exp(2j*pi*k/n)``, shape ``(len(radii), n)``.

    On the ring ``|z| = r`` the n samples are the inverse DFT of the
    coefficients ``c[k] * r**k``, with index k folded onto ``k mod n`` when
    the order reaches n.  The coefficients are folded one block of n at a
    time, so no temporary is larger than ``(len(radii), n)``, and one FFT
    along the angles then gives every ring.  ``numpy.fft`` is reached at call
    time, because ``import numpy`` does not load it.
    """
    radii = np.asarray(radii, dtype=np.float64)
    if radii.ndim != 1:
        raise DomainError("ring radii must form a 1-d sequence")
    _check_disk(radii)
    if np.any(radii < 0.0):
        raise DomainError("ring radii must be nonnegative")
    n = _as_count(n, "ring sample count n", 1)
    c = series.coeffs
    folded = np.zeros((len(radii), n), dtype=np.complex128)
    for k0 in range(0, len(c), n):
        k = np.arange(k0, min(k0 + n, len(c)), dtype=np.float64)
        folded[:, : len(k)] += c[k0 : k0 + n] * _radius_powers(radii, k)
    return np.fft.ifft(folded, axis=-1, norm="forward")


def _radius_powers(radii: np.ndarray, k: np.ndarray) -> np.ndarray:
    """``radii[:, None] ** k`` for radii in [0, 1], bitwise equal to numpy's ``pow``.

    Entries whose log2 lies below :data:`_UNDERFLOW_LOG2` round to zero, so
    they are left at 0 instead of being computed.
    """
    log2r = np.log2(np.maximum(radii, np.finfo(np.float64).smallest_subnormal))[:, None]
    powers = np.zeros((len(radii), len(k)))
    np.power(radii[:, None], k, out=powers, where=k * log2r > _UNDERFLOW_LOG2)
    return powers
