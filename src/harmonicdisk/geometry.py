"""Per-circle geometry tests: starlikeness, convexity, injectivity.

Convexity and starlikeness are not hereditary for harmonic maps, which is
exactly why per-circle tests are the right primitive: a map is fully
starlike (fully convex) when every circle |z| = r < 1 maps one-to-one onto a
curve bounding a starlike (convex) domain.  These sampled tests are the
ground truth behind the numeric radius oracle.

Every test samples one circle at n equally spaced angles: f and d/dtheta f
come from one fold of the coefficients of s and conj(t) and one FFT
(the evaluator behind ``HarmonicMap.rings``, called on the radius and
sample count the test has validated, not an order-N Horner pass per
point), and the starlikeness test reads both from the same fold.  A witness is the sample
point ``r * exp(2j*pi*k/n)``, formed for its index k alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateCurveError, DomainError, _as_count, _as_real
from .maps import HarmonicMap, _ring_orders
from .sampling import MembershipVerdict, verdict_from_margins
from .series import _as_complex_vector

#: Minimum number of angular samples for any circle computation.
MIN_CIRCLE_SAMPLES = 64

#: |f| below this on a probed circle makes the starlikeness quotient meaningless.
_VALUE_FLOOR = 1e-12

#: |df/dtheta| below this makes the tangent direction meaningless.
_TANGENT_FLOOR = 1e-10

#: Allowed deviation of the total tangent turning from 2*pi.
TURNING_TOL = 1e-6

#: Candidate segment pairs expanded at once by the injectivity scan, which
#: uses max(n, _PAIR_BLOCK).  Each pair costs a few dozen bytes of
#: temporaries, so a block stays within a few tens of MB for any input.
_PAIR_BLOCK = 1 << 18


def _check_circle_args(r: float, n: int) -> tuple[float, int]:
    r = _as_real(r, "circle radius", 0, 1, "()")
    return r, _as_count(n, "circle sample count", MIN_CIRCLE_SAMPLES)


@dataclass(frozen=True)
class CirclePolyline:
    """Sampled image of a circle: points[k] = f(r * exp(2i*pi*k/n)).

    The polyline is closed by convention (point n wraps to point 0).
    """

    radius: float
    points: np.ndarray
    n: int

    def __post_init__(self):
        object.__setattr__(self, "radius", _as_real(self.radius, "polyline radius", 0, 1, "()"))
        object.__setattr__(self, "n", _as_count(self.n, "polyline n", MIN_CIRCLE_SAMPLES))
        pts = _as_complex_vector(self.points, "polyline points")
        if pts.shape != (self.n,):
            raise DomainError("polyline points must be a length-n complex vector")
        object.__setattr__(self, "points", pts)


def circle_image(f: HarmonicMap, r: float, n: int = 256) -> CirclePolyline:
    """Uniform-angle sampling of f on the circle |z| = r."""
    r, n = _check_circle_args(r, n)
    return CirclePolyline(radius=r, points=_ring_orders(f, np.array([r]), n, (0,))[0, 0], n=n)


class _UnitRoots:
    """The n points ``exp(2j*pi*k/n)`` as a sequence that forms only the entries read.

    It is a phase axis for :func:`~harmonicdisk.sampling.verdict_from_margins`,
    which reads only ``len`` and the entry at the argmin.

    Entry k takes the array operations of
    ``np.exp(2j * np.pi * np.arange(n) / n)`` on the one index k, so it is
    bitwise that array's element, and naming a witness costs one ``exp``
    instead of n.  (Python's scalar complex division rounds 2*pi*k/n
    differently for some n that are not powers of two.)
    """

    def __init__(self, n: int):
        self.n = n

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, k: int) -> complex:
        return np.exp(2j * np.pi * np.arange(k, k + 1) / self.n)[0]


def _circle_verdict(margins: np.ndarray, r: float, n: int) -> MembershipVerdict:
    """Verdict on the n samples of |z| = r; the witness is ``r * exp(2j*pi*k/n)`` at the argmin k."""
    return verdict_from_margins(margins, ((r,), _UnitRoots(n)), f"{n} samples on circle r={r}")


def starlike_on_circle(f: HarmonicMap, r: float, n: int = 1024) -> MembershipVerdict:
    """Sampled test that the circle image winds monotonically about the origin.

    The angular rate of arg f(r e^{i theta}) equals Im[(d/dtheta f) / f];
    the verdict holds when its sampled minimum is positive.  f and
    d/dtheta f come from one fold and one FFT.  A zero of f on the circle is
    an error, not a verdict: the origin is not cleanly enclosed.
    """
    r, n = _check_circle_args(r, n)
    fv, rate = _ring_orders(f, np.array([r]), n, (0, 1))[:, 0]
    if float(np.abs(fv).min()) < _VALUE_FLOOR:
        raise DegenerateCurveError(f"map value vanishes on circle r={r}")
    return _circle_verdict(np.imag(rate / fv), r, n)


def convex_on_circle(f: HarmonicMap, r: float, n: int = 1024) -> MembershipVerdict:
    """Sampled test that the circle image is a convex curve.

    The turning rate d/dtheta[arg d/dtheta f] is estimated by second-order
    central differences of the unwrapped tangent argument (periodic stencil).
    The verdict holds when the minimum rate is positive and the total turning
    over the circle equals 2*pi within :data:`TURNING_TOL`; a wrong turning
    number is reported as non-convex with a diagnostic, a vanishing tangent
    is an error.
    """
    r, n = _check_circle_args(r, n)
    tangent = _ring_orders(f, np.array([r]), n, (1,))[0, 0]
    if float(np.abs(tangent).min()) < _TANGENT_FLOOR:
        raise DegenerateCurveError(f"tangent vanishes on circle r={r}")
    raw = np.angle(tangent)
    # steps[k] = raw[k + 1] - raw[k] and rates[k] = steps[k] + steps[k - 1], cyclically
    steps = np.empty(n)
    np.subtract(raw[1:], raw[:-1], out=steps[:-1])
    steps[-1] = raw[0] - raw[-1]
    steps += np.pi
    steps %= 2.0 * np.pi
    steps -= np.pi
    total = float(steps.sum())
    dtheta = 2.0 * np.pi / n
    rates = np.empty(n)
    np.add(steps[1:], steps[:-1], out=rates[1:])
    rates[0] = steps[0] + steps[-1]
    rates /= 2.0 * dtheta
    v = _circle_verdict(rates, r, n)
    if abs(total - 2.0 * np.pi) > TURNING_TOL:
        margin = min(v.margin, TURNING_TOL - abs(total - 2.0 * np.pi))
        return replace(
            v,
            holds=False,
            margin=margin,
            evidence=f"total tangent turning {total:.6f} != 2*pi (turning number != 1)",
        )
    return v


def injective_on_circle(f: HarmonicMap, r: float, n: int = 1024) -> bool:
    """True when the sampled circle image has no self-intersections.

    Implemented as the proper-crossing test over the polyline segment pairs
    whose closed bounding boxes overlap, found by sort and sweep: the
    interval-overlap broad phase of the any-crossing sweep of Shamos and Hoey
    ("Geometric intersection problems", FOCS 1976).  A circle image meets a
    vertical line only a few times, so it has O(n) such pairs and the scan
    costs O(n log n).  A curve with many strands over the same x-range has
    O(n^2) of them, and its time is O(n^2); the pairs are expanded in blocks of
    at most max(n, :data:`_PAIR_BLOCK`), so memory stays bounded either way.
    """
    return _polyline_is_simple(circle_image(f, r, n).points)


def _x_overlap_pairs(x0: np.ndarray, x1: np.ndarray):
    """Yield blocks (i, j), i < j, of the segments whose closed x-extents [x0, x1] overlap.

    x0 must be ascending.  Segment i then overlaps exactly the segments
    i + 1 .. ends[i] - 1, where ``searchsorted(side="right")`` places x1[i],
    ties included.  These runs are laid end to end and cut into blocks of at
    most max(n, _PAIR_BLOCK) pairs, so a run may span two blocks.
    """
    n = len(x0)
    ends = np.searchsorted(x0, x1, side="right")
    # run i holds the flat pair indices offsets[i] .. offsets[i + 1] - 1, and
    # index k pairs segment i with segment k + 1 - base[i]
    offsets = np.concatenate(([0], np.cumsum(ends - np.arange(1, n + 1))))
    base = offsets[:-1] - np.arange(n)
    total, block = int(offsets[-1]), max(n, _PAIR_BLOCK)
    for k0 in range(0, total, block):
        k1 = min(k0 + block, total)
        lo, hi = np.searchsorted(offsets, k0, side="right") - 1, np.searchsorted(offsets, k1)
        i = np.repeat(np.arange(lo, hi), np.diff(np.clip(offsets[lo : hi + 1], k0, k1)))
        yield i, np.arange(k0 + 1, k1 + 1) - base[i]


def _polyline_is_simple(a: np.ndarray) -> bool:
    """True when the closed polyline through the points *a* has no proper crossing."""
    b = np.roll(a, -1)
    # a proper crossing lies inside both bounding boxes, so the segments are
    # sorted by smallest x and only pairs whose boxes overlap are tested
    order = np.argsort(np.minimum(a.real, b.real))
    a, b = a[order], b[order]
    d = b - a

    def straddle(i, j) -> np.ndarray:
        """q(i, j) = cross(d_i, a_j - a_i) * cross(d_i, b_j - a_i).

        q(i, j) < 0 iff the endpoints of segment j lie strictly on both sides
        of the line of segment i; a proper crossing needs straddling both ways.
        Adjacent segments share an endpoint, so their q is exactly 0.
        """
        u, v, w = d[i], a[j] - a[i], b[j] - a[i]
        return (u.real * v.imag - u.imag * v.real) * (u.real * w.imag - u.imag * w.real)

    y0, y1 = np.minimum(a.imag, b.imag), np.maximum(a.imag, b.imag)
    for i, j in _x_overlap_pairs(np.minimum(a.real, b.real), np.maximum(a.real, b.real)):
        keep = (y0[i] <= y1[j]) & (y0[j] <= y1[i])
        i, j = i[keep], j[keep]
        hit = straddle(i, j) < 0.0
        if np.any(straddle(j[hit], i[hit]) < 0.0):
            return False
    return True
