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
rounding, not bit for bit.  For ``f = s + conj(t)``, ``conj(t_k z**k)`` on a
ring is ``conj(t_k) r**k`` at frequency -k, so
:meth:`~harmonicdisk.maps.HarmonicMap.rings` folds t's coefficients,
conjugated, onto index ``-k mod n`` beside s's and runs one inverse FFT.

One fold per check: a check folds every series it samples in one
:func:`_fold` call on a stack of coefficient rows, so each block of radius
powers is computed once for all rows, and then runs one inverse FFT over
the stack
(:func:`_eval_stack`).  Each row's values are bitwise those of the series
folded and transformed alone; :func:`eval_rings` is the one-row case.
A table of radius powers is not one ``pow`` per entry: :func:`_radius_powers`
multiplies ``r**(k - k % 64)`` by ``r**(k % 64)`` from two small tables,
which agrees with ``pow`` to two ulp.  Each entry depends only on the
radius and the index, so any two tables that hold ``r**k`` hold the same
bits, whatever blocks a caller cuts the indices into.  A small table is one
``pow`` call, unless one of its powers can underflow; then the powers past
the underflow cut are skipped (:func:`_pow_table`).

Public constructors validate; a series derived from a valid series
(derivatives, padding, the operator and slice series) is
built by :meth:`TruncatedSeries._derived` and is not copied or re-scanned.
:meth:`~TruncatedSeries.hadamard` and :meth:`~TruncatedSeries.scale_argument`
keep the public check, because a product of two valid coefficients and
``c[0] / r`` for tiny r overflow with ordinary inputs, and their series are
handed back to callers (``convolve`` writes a document from them).
"""

from __future__ import annotations

import math
import numbers
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

#: Below 2**-1075 a power r**k rounds to zero; :func:`_pow_table` does
#: not evaluate powers whose log2 lies below this cut, because numpy's ``pow``
#: takes a slow path for underflowing results.
_UNDERFLOW_LOG2 = -1100.0

_SMALLEST_SUBNORMAL = float(np.finfo(np.float64).smallest_subnormal)

#: :func:`_radius_powers` builds ``r**k`` from ``r**(k - k % 64)`` and ``r**(k % 64)``.
_POWER_STEP = 64
_LOW_EXPONENTS = np.arange(float(_POWER_STEP))
_LOW_EXPONENTS.setflags(write=False)


def _as_numbers(values, what: str, real: bool = False) -> np.ndarray:
    """*values* as an array of complex (or, if *real*, real) numbers, or a DomainError.

    Each element follows the type rule of the scalars: a string is not
    parsed, a bool is not read as 0 or 1, and an integer beyond the double
    range is not a number.  An array of a numeric dtype is returned as it is.
    """
    if real:
        kinds, number, dtype = "iuf", numbers.Real, np.float64
    else:
        kinds, number, dtype = "iufc", numbers.Complex, np.complex128
    try:
        arr = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
        if arr.dtype.kind == "O" and all(
            isinstance(v, number) and not isinstance(v, bool) for v in arr.flat
        ):
            arr = np.array(arr, dtype=dtype)
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is None or arr.dtype.kind not in kinds:
        raise DomainError(f"{what} must be {'real' if real else 'complex'} numbers")
    return arr


def _as_complex_vector(values, what: str) -> np.ndarray:
    """A read-only copy of *values* as a nonempty, finite 1-d complex array, or a DomainError."""
    arr = np.atleast_1d(np.array(_as_numbers(values, what), dtype=np.complex128))
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

    @classmethod
    def _derived(cls, coeffs: np.ndarray) -> "TruncatedSeries":
        """A series on *coeffs*, a fresh nonempty 1-d complex array computed from a valid series.

        The array is marked read-only, not copied or re-scanned.  Arithmetic
        on finite coefficients can still overflow (a coefficient near the
        largest double times its index, or times a class weight of a large
        delta); such a series holds inf or NaN instead of raising here, and
        every verdict sampled from it raises a DomainError on its non-finite
        margin (:func:`~harmonicdisk.sampling.verdict_from_margins`).
        """
        coeffs.setflags(write=False)
        series = object.__new__(cls)
        object.__setattr__(series, "coeffs", coeffs)
        return series

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
        return TruncatedSeries._derived(c)

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
        return TruncatedSeries._derived(c)

    def hadamard(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Coefficient-wise product, truncated to the shorter order."""
        n = min(self.order, other.order)
        # two valid coefficients of 1e155 overflow, so this series keeps the public check
        return TruncatedSeries(self.coeffs[: n + 1] * other.coeffs[: n + 1])

    def scale_argument(self, r: float) -> "TruncatedSeries":
        """Coefficient map ``c[m] -> c[m] * r**(m-1)`` for 0 < r <= 1.

        For a normalized series s this realizes s(r z)/r, the dilation used
        when restricting a map to a smaller disk.
        """
        r = _as_real(r, "scale factor", 0, 1, "(]")
        powers = r ** (np.arange(len(self.coeffs)) - 1.0)
        # c[0] / r overflows for tiny r, so this series keeps the public check
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
    z = _as_numbers(z, "evaluation points").astype(np.complex128, copy=False)
    _check_disk(z)
    return _horner(series.coeffs, z)


def _ring_radii(radii) -> np.ndarray:
    """*radii* as a 1-d float array within [0, 1], or a DomainError.

    Valid radii pass one range test on their minimum and maximum, which a NaN
    fails; the checks that name what is wrong run only after that test fails.
    """
    arr = _as_numbers(radii, "ring radii", real=True)
    if arr.ndim == 1 and (arr.size == 0 or (arr.min() >= 0.0 and arr.max() <= 1.0 + _EDGE_SLACK)):
        return arr.astype(np.float64, copy=False)
    if arr.ndim != 1:
        raise DomainError("ring radii must form a 1-d sequence")
    _check_disk(arr)
    raise DomainError("ring radii must be nonnegative")


def _fold(coeffs: np.ndarray, radii: np.ndarray, n: int) -> np.ndarray:
    """``coeffs[..., k] * radii[i]**k`` summed onto column ``k mod n``, shape ``(..., len(radii), n)``.

    *coeffs* is one coefficient row of length K or a stack of such rows,
    shape ``(..., K)``.  The rows are folded one block of n indices at a
    time, and the block's radius powers are computed once for every row.
    The inverse DFT of the result along the angles gives the ring values.
    """
    folded = np.zeros((*coeffs.shape[:-1], len(radii), n), dtype=np.complex128)
    order = coeffs.shape[-1]
    for k0 in range(0, order, n):
        k = np.arange(k0, min(k0 + n, order), dtype=np.float64)
        _fold_powers(folded, coeffs, _radius_powers(radii, k), k0)
    return folded


def _fold_powers(folded: np.ndarray, coeffs: np.ndarray, powers: np.ndarray, k0: int) -> None:
    """Add ``coeffs[..., k] * powers[:, k - k0]`` onto column ``k mod n`` of *folded*, in place.

    *powers* is a table of radius powers for the indices ``k0, k0 + 1, ...``;
    indices past the last coefficient are ignored.  Each run of indices that
    lands on consecutive columns is one multiply and one add, and the runs go
    in increasing k, so every column receives its terms in the order of
    :func:`_fold` whatever block of indices the table covers.
    """
    n = folded.shape[-1]
    end = min(k0 + powers.shape[-1], coeffs.shape[-1])
    a = k0
    while a < end:
        col = a % n
        b = min(a - col + n, end)
        folded[..., col : col + b - a] += coeffs[..., None, a:b] * powers[:, a - k0 : b - k0]
        a = b


def _stack(*coeffs: np.ndarray) -> np.ndarray:
    """The coefficient arrays as the rows of one array, zero-padded to the longest.

    The padding zeros fold to exact zeros (see :func:`_fold`), so a row of
    the stack folds to the bits of the array folded alone.
    """
    rows = np.zeros((len(coeffs), max(len(c) for c in coeffs)), dtype=np.complex128)
    for row, c in zip(rows, coeffs):
        row[: len(c)] = c
    return rows


def _eval_stack(coeffs: np.ndarray, radii: np.ndarray, n: int) -> np.ndarray:
    """Ring values of each coefficient row of *coeffs*, shape ``(..., len(radii), n)``: one fold, one FFT.

    ``numpy.fft`` is reached at call time, because ``import numpy`` does not
    load it.
    """
    return np.fft.ifft(_fold(coeffs, radii, n), axis=-1, norm="forward")


def eval_rings(series: TruncatedSeries, radii, n: int) -> np.ndarray:
    """Values at ``radii[i] * exp(2j*pi*k/n)``, shape ``(len(radii), n)``.

    On the ring ``|z| = r`` the n samples are the inverse DFT of the
    coefficients ``c[k] * r**k``, with index k folded onto ``k mod n`` when
    the order reaches n (:func:`_fold`); one FFT along the angles then gives
    every ring.  This is the one-row case of :func:`_eval_stack`.
    """
    radii = _ring_radii(radii)
    n = _as_count(n, "ring sample count n", 1)
    return _eval_stack(series.coeffs, radii, n)


def _radius_powers(radii: np.ndarray, k: np.ndarray) -> np.ndarray:
    """``radii[:, None] ** k`` for radii in [0, 1] and *k* consecutive integers >= 0, as floats.

    With ``k = q*_POWER_STEP + j`` and ``0 <= j < _POWER_STEP``, an entry is
    the product ``r**(q*_POWER_STEP) * r**j`` of two small ``pow`` tables, so
    a table of K columns takes about ``K/_POWER_STEP + _POWER_STEP`` calls of
    ``pow`` per radius instead of K.  An entry depends only on (r, k), not on
    the block of indices that holds it, so every table holding (r, k) has
    the same bits there; a normal entry lies within two ulp of ``pow``.
    Where one factor is ``r**0 = 1`` (k below ``_POWER_STEP`` or a multiple
    of it) the entry is bitwise ``pow``'s, and a table of indices below
    ``_POWER_STEP`` is one ``pow`` call.  The result may be a view into a
    wider table.
    """
    if k[-1] < _POWER_STEP:
        return _pow_table(radii, k)
    k0, k1 = int(k[0]), int(k[-1]) + 1
    base = k0 - k0 % _POWER_STEP
    # one pow table: the low factors r**j, then the high factors r**(q*_POWER_STEP)
    factors = _pow_table(radii, np.concatenate((_LOW_EXPONENTS, np.arange(float(base), k1, _POWER_STEP))))
    low, high = factors[:, :_POWER_STEP], factors[:, _POWER_STEP:]
    powers = (high[:, :, None] * low[:, None, :]).reshape(len(radii), high.shape[1] * _POWER_STEP)
    return powers[:, k0 - base : k1 - base]


def _pow_table(radii: np.ndarray, k: np.ndarray) -> np.ndarray:
    """``radii[:, None] ** k`` by numpy's ``pow``, with the entries past the underflow cut left at 0.

    Entries whose log2 lies below :data:`_UNDERFLOW_LOG2` round to zero, so
    they are not computed.  In :func:`_radius_powers` an entry past the cut
    is 0 too: either a factor is past it, or the two factors' product lies
    below ``2**-1100`` and rounds to 0.  When no entry can reach the cut
    (the last exponent, the largest, times log2 of the smallest radius lies
    above it), the table is one plain ``pow`` call.  Its bits are the masked
    call's either way, since ``pow`` of an entry past the cut is 0 as well.
    """
    if len(radii) and k[-1] * math.log2(max(min(radii.tolist()), _SMALLEST_SUBNORMAL)) > _UNDERFLOW_LOG2:
        return np.power(radii[:, None], k)
    log2r = np.log2(np.maximum(radii, _SMALLEST_SUBNORMAL))[:, None]
    powers = np.zeros((len(radii), len(k)))
    np.power(radii[:, None], k, out=powers, where=k * log2r > _UNDERFLOW_LOG2)
    return powers
