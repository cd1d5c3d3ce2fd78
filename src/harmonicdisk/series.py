"""Truncated complex power series on the closed unit disk.

A series is stored densely: ``coeffs[m]`` is the coefficient of ``z**m`` and
the truncation order is ``len(coeffs) - 1``.  All operations are pure
functions on immutable values, so instances can be shared freely between
threads.

Values come from one of two kernels.  At one point
(:meth:`TruncatedSeries.evaluate`) or on an arbitrary array of points
(:func:`eval_many`), a Horner kernel updates a single output array in place.
Its values are bitwise equal to ``numpy.polynomial.polynomial.polyval``'s,
signed zeros included, without the two temporary arrays ``polyval``
allocates per coefficient.  Its cost follows the nonzero coefficients: it
starts at the highest coefficient that is not exactly +0 (keeping at least
``c[0]``), skips the add of an interior coefficient that is exactly +0, and
always does the last add, of ``c[0]``.  Every multiply below the start
stays, because the rounding of ``z*z*...`` is per step.  A skipped add can
leave a -0 where ``polyval`` has +0; the next add of a coefficient without
a -0 component turns it into +0 again, but adding a -0 keeps the sign it
meets.  So a series with a -0 component anywhere skips nothing
(:func:`_horner` gives the argument).  The output array starts at a 64-byte
boundary.  An array of at least ``2 * _MIN_PART_POINTS`` points (27,648;
the 96x384 grid has 36,864) is cut along axis 0 into one part per CPU of
the process's affinity mask, at most one per ``_MIN_PART_POINTS`` points,
unless the plan has no step (a series whose only nonzero coefficient is
``c[0]``, such as 0, adds it once and is done); the caller runs the first
part and a thread each of the others, every part through the same loop,
so the bits do not change.  No thread is bound to a CPU; the operating
system places them.  Under ``taskset`` to one CPU the kernel starts no
thread.  The threads are joined before the call returns, and share
nothing but the call's own arrays, so instances can still be shared freely
between threads.  On whole circles ``|z| = r``
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
Every fold, the growth envelope's included, cuts its powers into the
tables of :func:`_tables`: about 2**16 entries each but never fewer than
4096 columns, so past 16 radii a table holds 4096 columns of every radius,
the first from index 0 up past index 2.  :func:`_fold_powers` adds a
table with one multiply and one add per run of columns that land on
consecutive columns, in increasing index.
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

import contextvars
import math
import numbers
import os
import threading
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

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

#: The bits of -0.0 read as an int64: a float array holds a -0.0 iff its
#: int64 view holds this value.
_NEGATIVE_ZERO_BITS = int(np.array(-0.0).view(np.int64))

_SMALLEST_SUBNORMAL = float(np.finfo(np.float64).smallest_subnormal)

#: :func:`_radius_powers` builds ``r**k`` from ``r**(k - k % 64)`` and ``r**(k % 64)``.
_POWER_STEP = 64
_LOW_EXPONENTS = np.arange(float(_POWER_STEP))
_LOW_EXPONENTS.setflags(write=False)

#: :func:`_horner` splits an array of points only into parts of at least
#: this many points.  Each step of a part takes the GIL once per ufunc call,
#: so a part must be large enough that its arithmetic outweighs the turns at
#: the GIL; on a 2-CPU Xeon two parts broke even at 23,000 to 27,000 points
#: for orders 64 to 2048, and were 1.15 to 1.5 times faster at 36,864.
_MIN_PART_POINTS = 13824

#: :func:`_horner`'s output starts at a multiple of this many bytes.
_ALIGNMENT = 64


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
    """Raise DomainError unless *z*, a number or an array, lies in the closed unit disk.

    Points in the disk pass one test on the largest modulus, which a NaN
    fails; the test that names what is wrong runs only after that one fails.
    """
    r = float(np.max(np.abs(z))) if np.size(z) else 0.0
    if r <= 1.0 + _EDGE_SLACK:
        return
    if not np.all(np.isfinite(z)):
        raise DomainError("evaluation points must be finite")
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

    @cached_property
    def _horner_terms(self) -> tuple[np.complex128, list]:
        """The plan of :func:`_horner`: its first coefficient and what each step adds.

        The first is ``c[top]``, with top the index of the highest
        coefficient that is not exactly +0 (0 if there is none); step j adds
        ``c[top-1-j]``, or nothing where that coefficient is an interior
        exact +0 (None in the list).  A series with a -0 component starts
        at its last coefficient and skips nothing.  The first coefficient
        is a numpy scalar, so a scalar z is evaluated in numpy's scalar
        arithmetic, as by ``polyval``; the plan is built once per series.
        """
        terms = self.coeffs.tolist()
        top = len(terms) - 1
        if not all(terms) and _NEGATIVE_ZERO_BITS not in self.coeffs.view(np.int64).tolist():
            while top and not terms[top]:
                top -= 1
            terms[1:top] = [c or None for c in terms[1:top]]
        return self.coeffs[top], terms[:top][::-1]

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
        return complex(_horner(self, z))

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


def _horner(series: TruncatedSeries, z):
    """Horner's rule on the points *z*, with one output array updated in place.

    The start ``z*0 + c[top]`` and each step ``out*z + c`` are the
    operations of ``polyval``, with the adds of an exact +0 left out (the
    plan is :attr:`TruncatedSeries._horner_terms`).  The bits stay
    ``polyval``'s, when no coefficient has a -0 component:

    - above ``c[top]`` every coefficient is +0, so ``polyval``'s value there
      is exactly +0+0j, and ``c[top]`` added to the zero ``out*z`` gives
      the bits it gives added to the zero ``z*0``;
    - a skipped add of +0 can only leave a -0 part where ``polyval`` has
      +0; a multiply carries such a difference only into parts that are
      zero, and the next add of a coefficient with no -0 part, at the
      latest that of ``c[0]``, which is always done, makes the two values
      equal: a zero plus +0 is +0 whatever its sign, and a zero plus a
      nonzero part is that part.

    Adding a -0 part keeps the sign of a zero it meets, so the difference
    could reach the result; a series with a -0 component therefore skips
    nothing.

    An array of points is valued into an output allocated at a 64-byte
    boundary (:func:`_aligned_like`): numpy often places a large array at
    16 mod 64, where its complex loops run about 10% slower than at 0.
    An array with room for two parts of at least :data:`_MIN_PART_POINTS`
    points is cut along axis 0 into at most one part per CPU in the
    process's affinity mask (:func:`_cpu_count`), when the plan has a step:
    a plan without one is a single add per point, which costs less than a
    thread (on a 2-CPU Xeon, 36,864 points took about 110 us in one part
    against 260 to 300 us in two).  The caller runs the first part and a
    thread each of the others, over the same output and the same plan
    (:func:`_horner_parts`).  numpy releases the GIL inside each step,
    so the parts run at once.  No thread is bound to a CPU: on a 2-CPU
    Xeon, binding each to a CPU other than the caller's did not make
    ``membership_sampled`` on the 96x384 grid faster.  Every element goes
    through the same operations whatever part holds it, so the split
    changes no bit.

    One caveat comes from numpy: an in-place multiply of a one-element
    array takes its plain scalar loop instead of the vector loop with fused
    multiply-adds, so a single point passed as a 1-element array may differ
    from ``polyval`` in the last bits.  Scalars, 0-d arrays and arrays of two
    or more points match bit for bit.
    """
    first, terms = series._horner_terms
    if np.ndim(z) == 0:
        return _horner_steps(z * 0, z, first, terms)
    out = _aligned_like(z)
    np.multiply(z, 0, out)
    n = 1
    if terms and z.size >= 2 * _MIN_PART_POINTS:
        n = min(_cpu_count(), z.size // _MIN_PART_POINTS, len(z))
    if n == 1:
        _horner_steps(out, z, first, terms)
    else:
        _horner_parts(out, z, first, terms, n)
    return out


def _horner_steps(out, z, first, terms):
    """Horner's steps after the start ``out = z*0``: add *first*, then multiply by *z* and add each term."""
    out += first
    for c in terms:
        out *= z
        if c is not None:
            out += c
    return out


def _horner_parts(out: np.ndarray, z: np.ndarray, first, terms: list, n: int) -> None:
    """:func:`_horner_steps` on *n* row blocks of *out* and *z*: the first here, each other in a thread of its own.

    A thread runs its part in a copy of the caller's context, so the
    caller's ``np.errstate``, a context variable since numpy 2, holds there
    too.  Every thread is joined before this returns or raises, and the
    first part's exception, in part order, is raised again here.
    """
    bounds = [len(z) * i // n for i in range(n + 1)]
    errors = [None] * n

    def run(i):
        a, b = bounds[i], bounds[i + 1]
        try:
            _horner_steps(out[a:b], z[a:b], first, terms)
        except BaseException as e:  # raised again in the caller
            errors[i] = e

    threads = []
    try:
        for i in range(1, n):
            thread = threading.Thread(target=contextvars.copy_context().run, args=(run, i))
            thread.start()
            threads.append(thread)
        run(0)
    finally:
        for thread in threads:
            thread.join()
    for e in errors:
        if e is not None:
            raise e


def _cpu_count() -> int:
    """The number of CPUs this process may run on: its affinity mask, or ``os.cpu_count()`` where there is none."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _aligned_like(z: np.ndarray) -> np.ndarray:
    """An uninitialized C-ordered complex array of *z*'s shape, starting at a multiple of :data:`_ALIGNMENT` bytes.

    numpy's allocator places an array at a multiple of 16 bytes, the size of
    one element, so the start is found by skipping a few elements.
    """
    buf = np.empty(z.size + _ALIGNMENT // 16, dtype=np.complex128)
    skip = -buf.__array_interface__["data"][0] % _ALIGNMENT // 16
    return buf[skip : skip + z.size].reshape(z.shape)


def eval_many(series: TruncatedSeries, z: np.ndarray) -> np.ndarray:
    """Vectorized Horner evaluation on an array of closed-disk points.

    The values are bitwise ``polyval``'s.  From ``2 * _MIN_PART_POINTS``
    points on, a series with a nonzero coefficient above ``c[0]`` is split
    across the CPUs of the process's affinity mask, one thread per extra
    part, all joined before this returns (:func:`_horner`); run under
    ``taskset -c 0`` for a single thread.
    """
    z = _as_numbers(z, "evaluation points").astype(np.complex128, copy=False)
    _check_disk(z)
    return _horner(series, z)


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


def _tables(radii: np.ndarray, stop: int):
    """The indices 0, 1, ..., stop - 1 of the power tables, one (radius, k) block each.

    A table has about 2**16 entries but never fewer than 4096 columns, so
    past 16 radii it holds ``len(radii) * 4096`` entries (393,216 on 96
    rings), and :func:`_radius_powers` builds one more array of that size
    while it makes the table.  The first also holds r^0 and r^1, so
    no table is the one column r^2, which numpy's ``power`` computes as
    ``r*r``, not by ``pow``.  There is always a first table, also for a
    series of order below 2 and for no radii.
    """
    cols = max(4096, 2**16 // max(len(radii), 1))
    k0 = 0
    for k1 in chain(range(2 + cols, stop, cols), (stop,)):
        yield np.arange(float(k0), k1)
        k0 = k1


def _fold(coeffs: np.ndarray, radii: np.ndarray, n: int) -> np.ndarray:
    """``coeffs[..., k] * radii[i]**k`` summed onto column ``k mod n``, shape ``(..., len(radii), n)``.

    *coeffs* is one coefficient row of length K or a stack of such rows,
    shape ``(..., K)``.  The radius powers come in the tables of
    :func:`_tables`, each computed once for every row and added by
    :func:`_fold_powers`.  The inverse DFT of the result along the angles
    gives the ring values.
    """
    folded = np.zeros((*coeffs.shape[:-1], len(radii), n), dtype=np.complex128)
    for k in _tables(radii, coeffs.shape[-1]):
        _fold_powers(folded, coeffs, _radius_powers(radii, k), int(k[0]))
    return folded


def _fold_powers(folded: np.ndarray, coeffs: np.ndarray, powers: np.ndarray, k0: int) -> None:
    """Add ``coeffs[..., k] * powers[:, k - k0]`` onto column ``k mod n`` of *folded*, in place.

    *powers* is a table of radius powers for the indices ``k0, k0 + 1, ...``,
    where k0 need not be a multiple of n; indices past the last coefficient
    are ignored.  Each run of indices that lands on consecutive columns is
    one multiply and one add, and the runs go in increasing k, so every
    column receives its terms in increasing k whatever block of indices the
    table covers: a fold's bits depend only on the powers, not on where the
    tables are cut.
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
