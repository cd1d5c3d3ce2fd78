"""Per-circle geometry tests: starlikeness, convexity, injectivity.

Convexity and starlikeness are not hereditary for harmonic maps, which is
exactly why per-circle tests are the right primitive: a map is fully
starlike (fully convex) when every circle |z| = r < 1 maps one-to-one onto a
curve bounding a starlike (convex) domain.  These sampled tests are the
ground truth behind the numeric radius oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateCurveError, DomainError
from .maps import HarmonicMap, evaluate_map_many
from .sampling import MembershipVerdict, verdict_from_margins
from .series import eval_many

#: Minimum number of angular samples for any circle computation.
MIN_CIRCLE_SAMPLES = 64

#: |f| below this on a probed circle makes the starlikeness quotient meaningless.
_VALUE_FLOOR = 1e-12

#: |df/dtheta| below this makes the tangent direction meaningless.
_TANGENT_FLOOR = 1e-10

#: Allowed deviation of the total tangent turning from 2*pi.
TURNING_TOL = 1e-6


def _check_circle_args(r: float, n: int) -> float:
    r = float(r)
    if not (math.isfinite(r) and 0.0 < r < 1.0):
        raise DomainError(f"circle radius must lie in (0, 1), got {r}")
    if n < MIN_CIRCLE_SAMPLES:
        raise DomainError(f"need at least {MIN_CIRCLE_SAMPLES} circle samples, got {n}")
    return r


def _circle_points(r: float, n: int) -> np.ndarray:
    return r * np.exp(2j * np.pi * np.arange(n) / n)


@dataclass(frozen=True)
class CirclePolyline:
    """Sampled image of a circle: points[k] = f(r * exp(2i*pi*k/n)).

    The polyline is closed by convention (point n wraps to point 0).
    """

    radius: float
    points: np.ndarray
    n: int

    def __post_init__(self):
        if self.n < MIN_CIRCLE_SAMPLES:
            raise DomainError(f"polyline needs n >= {MIN_CIRCLE_SAMPLES}")
        pts = np.asarray(self.points, dtype=np.complex128)
        if pts.shape != (self.n,):
            raise DomainError("polyline points must be a length-n complex vector")
        if not np.all(np.isfinite(pts.view(np.float64))):
            raise DomainError("polyline points must be finite")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)


def circle_image(f: HarmonicMap, r: float, n: int = 256) -> CirclePolyline:
    """Uniform-angle sampling of f on the circle |z| = r."""
    r = _check_circle_args(r, n)
    z = _circle_points(r, n)
    return CirclePolyline(radius=r, points=evaluate_map_many(f, z), n=n)


def _angular_tangent(f: HarmonicMap, z: np.ndarray) -> np.ndarray:
    """d/dtheta of f(r e^{i theta}): i*(z s'(z) - conj(z t'(z)))."""
    sp = eval_many(f.s.derivative(), z)
    tp = eval_many(f.t.derivative(), z)
    return 1j * (z * sp - np.conj(z * tp))


def starlike_on_circle(f: HarmonicMap, r: float, n: int = 1024) -> MembershipVerdict:
    """Sampled test that the circle image winds monotonically about the origin.

    The angular rate of arg f(r e^{i theta}) equals
    Re[(z s'(z) - conj(z t'(z))) / f(z)]; the verdict holds when its sampled
    minimum is positive.  A zero of f on the circle is an error, not a
    verdict: the origin is not cleanly enclosed.
    """
    r = _check_circle_args(r, n)
    z = _circle_points(r, n)
    fv = evaluate_map_many(f, z)
    if float(np.min(np.abs(fv))) < _VALUE_FLOOR:
        raise DegenerateCurveError(f"map value vanishes on circle r={r}")
    sp = eval_many(f.s.derivative(), z)
    tp = eval_many(f.t.derivative(), z)
    margins = np.real((z * sp - np.conj(z * tp)) / fv)
    return verdict_from_margins(margins, z, f"{n} samples on circle r={r}")


def convex_on_circle(f: HarmonicMap, r: float, n: int = 1024) -> MembershipVerdict:
    """Sampled test that the circle image is a convex curve.

    The turning rate d/dtheta[arg d/dtheta f] is estimated by second-order
    central differences of the unwrapped tangent argument (periodic stencil).
    The verdict holds when the minimum rate is positive and the total turning
    over the circle equals 2*pi within :data:`TURNING_TOL`; a wrong turning
    number is reported as non-convex with a diagnostic, a vanishing tangent
    is an error.
    """
    r = _check_circle_args(r, n)
    z = _circle_points(r, n)
    tangent = _angular_tangent(f, z)
    if float(np.min(np.abs(tangent))) < _TANGENT_FLOOR:
        raise DegenerateCurveError(f"tangent vanishes on circle r={r}")
    raw = np.angle(tangent)
    steps = np.diff(raw, append=raw[:1])
    steps = (steps + np.pi) % (2.0 * np.pi) - np.pi
    total = float(np.sum(steps))
    dtheta = 2.0 * np.pi / n
    rates = (steps + np.roll(steps, 1)) / (2.0 * dtheta)
    v = verdict_from_margins(rates, z, f"{n} samples on circle r={r}")
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

    Implemented as the O(n^2) proper-crossing test over all non-adjacent
    polyline segment pairs, vectorized over the pair matrix.
    """
    r = _check_circle_args(r, n)
    poly = circle_image(f, r, n)
    pts = poly.points
    a = pts
    b = np.roll(pts, -1)

    def cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return u.real * v.imag - u.imag * v.real

    d = b - a
    # q[i, j] < 0 iff the endpoints of segment j straddle the line of
    # segment i; a proper crossing needs straddling both ways.
    q = cross(d[:, None], a[None, :] - a[:, None]) * cross(d[:, None], b[None, :] - a[:, None])
    crossing = (q < 0.0) & (q.T < 0.0)

    i = np.arange(n)
    gap = np.abs(i[:, None] - i[None, :])
    adjacent = (gap <= 1) | (gap == n - 1)
    return not bool(np.any(crossing & ~adjacent))
