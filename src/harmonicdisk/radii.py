"""Radii of fully convexity and fully starlikeness, plus a numeric oracle.

For the whole inequality class, every member is fully convex on |z| < r_c
and fully starlike on |z| < r_s, where r_c and r_s are the unique roots in
(0, 1) of an explicit cubic and quadratic in the class parameters.  In
x = 1 - r both are one-parameter equations, x^2 = P and x^3 + P*x = 2*P,
so both radii have closed forms: the square root and Cardano's formula.
The numeric radius oracle cross-validates those analytic radii against the
per-circle geometry tests for concrete members.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import geometry
from .errors import DomainError, _as_count, _as_real
from .maps import ClassParams, HarmonicMap

_BISECTION_CAP = 200


def convex_radius_poly(p: ClassParams, r: float) -> float:
    """Cubic whose unique root in (0, 1) is the fully-convex radius.

    pc(r) = (-delta-2*gamma+lam) r^3 + (3*delta+6*gamma-3*lam) r^2
            + (-3*delta-7*gamma+4*lam) r + delta + gamma
    """
    g, d, lm = p.gamma, p.delta, p.lam
    return (
        ((-d - 2.0 * g + lm) * r + (3.0 * d + 6.0 * g - 3.0 * lm)) * r
        + (-3.0 * d - 7.0 * g + 4.0 * lm)
    ) * r + (d + g)


def starlike_radius_poly(p: ClassParams, r: float) -> float:
    """Quadratic whose unique root in (0, 1) is the fully-starlike radius.

    ps(r) = (delta+2*gamma-lam) r^2 + (-2*delta-4*gamma+2*lam) r + delta + gamma
    """
    g, d, lm = p.gamma, p.delta, p.lam
    a = d + 2.0 * g - lm
    return (a * r - 2.0 * a) * r + (d + g)


def _over_delta(p: ClassParams) -> tuple[float, float]:
    """(a, gamma - lam) over delta, a = delta + 2*gamma - lam: neither overflows at any delta."""
    q = (p.gamma - p.lam) / p.delta
    return 1.0 + p.gamma / p.delta + q, q


def _convex_form(p: ClassParams, r: float) -> float:
    """The convex cubic as a*(1-r)^3 - (gamma-lam)*(1+r), a = delta+2*gamma-lam.

    The two forms are equal as polynomials, but this one has no terms of
    size delta that cancel near r = 1, so its value stays right for any delta.
    """
    a, q = _over_delta(p)
    return p.delta * (a * (1.0 - r) ** 3 - q * (1.0 + r))


def _starlike_form(p: ClassParams, r: float) -> float:
    """The starlike quadratic as a*(1-r)^2 - (gamma-lam), without cancellation (see :func:`_convex_form`)."""
    a, q = _over_delta(p)
    return p.delta * (a * (1.0 - r) ** 2 - q)


def starlike_radius_exact(p: ClassParams) -> float:
    """Closed-form smaller root of the starlike quadratic.

    With a = delta + 2*gamma - lam the quadratic is a*(r^2 - 2r) + delta +
    gamma, so the root in (0, 1) is 1 - sqrt((gamma - lam)/a).
    """
    a, q = _over_delta(p)
    return 1.0 - math.sqrt(q / a)


@dataclass(frozen=True)
class RadiusReport:
    """A computed radius with the bracket and residual that certify it.

    For the class radii (``method`` "closed_form") ``residual`` is
    |form(radius)|, ``iterations`` is 0 and ``bracket`` is (radius, root):
    (r, r) in general, and (nextafter(1, 0), 1.0) where the root rounds to
    1.  For the numeric oracle, ``residual`` is the circle-test margin at
    the last certified passing radius, and a capped probe is reported with
    radius equal to the bracket's lower end (see ``note``).
    """

    radius: float
    bracket: tuple[float, float]
    residual: float
    iterations: int
    method: str
    note: str = ""


def _closed_form(p: ClassParams, root: float, form) -> RadiusReport:
    """Report *root*, clamped below 1 so that it lies strictly inside (0, 1)."""
    radius = min(root, math.nextafter(1.0, 0.0))
    return RadiusReport(
        radius=radius,
        bracket=(radius, max(root, radius)),
        residual=abs(form(p, radius)),
        iterations=0,
        method="closed_form",
    )


def radius_fully_convex(p: ClassParams, tol: float = 1e-9) -> RadiusReport:
    """Fully-convex radius of the class: root of the convex cubic in (0, 1).

    In x = 1 - r the cubic is a*(x^3 + P*x - 2*P), P = (gamma - lam)/a in
    (0, 1/3], a depressed cubic with one real root.  Cardano gives
    x = u - P/(3u), u = cbrt(P*w), w = 1 + sqrt(1 + P/27); the subtracted
    term is at most 17% of u, so nothing cancels, and it is taken as
    cbrt(P^2/(27w)), which needs no branch where P underflows to 0 (the
    root is then within an ulp of 1).  The radius is within a few ulp of
    the root, so it meets every *tol* that the validation accepts; *tol* is
    validated and otherwise unused.
    """
    _as_real(tol, "tolerance", 0, ends="()")
    a, q = _over_delta(p)
    P = q / a
    w = 1.0 + math.sqrt(1.0 + P / 27.0)
    x = (P * w) ** (1.0 / 3.0) - (P * P / (27.0 * w)) ** (1.0 / 3.0)
    return _closed_form(p, 1.0 - x, _convex_form)


def radius_fully_starlike(p: ClassParams, tol: float = 1e-9) -> RadiusReport:
    """Fully-starlike radius of the class: :func:`starlike_radius_exact`, which meets every *tol*."""
    _as_real(tol, "tolerance", 0, ends="()")
    return _closed_form(p, starlike_radius_exact(p), _starlike_form)


@dataclass(frozen=True)
class ThresholdReport:
    """The convexity threshold for lambda at *delta*.

    The threshold solves 7 - 3*delta = 4*lam + 4*(1-lam)*S for lam, where S
    is the sum over m >= 1 of [2m(3-delta) + (delta-5)] / [(m+1)(m(delta-1)+2)].
    For delta > 1 the terms are (6-2*delta)/((delta-1)*m) + O(1/m^2), and at
    delta = 1 they tend to 2, so S diverges for every delta != 3 (limit
    comparison with the harmonic series): ``diverged`` is exactly
    ``delta != 3``.  At delta = 3 the terms are -1/(m+1)^2, so S = 1 - pi^2/6
    and lam* = 1 - 9/pi^2.  ``lam`` is then that closed form, and
    ``lam_error_estimate`` bounds |lam - lam*|, which is the rounding of the
    closed form alone; both are None when ``diverged``.
    """

    delta: float
    diverged: bool
    lam: float | None = None
    lam_error_estimate: float | None = None


def convexity_threshold_lambda(delta: float, n_terms: int = 10000) -> ThresholdReport:
    """The convexity threshold lam* = 1 - 9/pi^2 at delta = 3, divergence at every other delta.

    See :class:`ThresholdReport` for why.  Nothing is summed, so the time is
    constant; *n_terms* is validated (an integer, at least 10) and otherwise
    unused.
    """
    delta = _as_real(delta, "delta", 1)
    _as_count(n_terms, "n_terms", 10)
    if delta != 3.0:
        return ThresholdReport(delta=delta, diverged=True)
    # pi, pi^2 and the quotient are each rounded once, to a relative error
    # of at most 2^-53, and pi enters twice, so x is within about
    # 4 * 2^-53 * x of 9/pi^2; that is below 4 ulp(x) for x in [1/2, 1),
    # and 1 - x is exact there (Sterbenz)
    x = 9.0 / (math.pi * math.pi)
    return ThresholdReport(
        delta=delta, diverged=False, lam=1.0 - x, lam_error_estimate=4.0 * math.ulp(x)
    )


_ORACLE_MIN = 1e-3
_ORACLE_MAX = 0.999


def numeric_radius_oracle(
    f: HarmonicMap,
    prop: str,
    tol: float = 1e-3,
    n_theta: int = 1024,
) -> RadiusReport:
    """Largest probed radius at which a per-circle geometry test passes.

    ``prop`` selects the circle test ("starlike" or "convex").  Bisection
    runs over (0.001, 0.999]; the caller is responsible for the map being
    sense-preserving on the probed region.  Since the class radii are
    guaranteed minima, a specific member may do better; a probe that passes
    at 0.999 is reported capped.
    """
    if prop == "starlike":
        test = geometry.starlike_on_circle
    elif prop == "convex":
        test = geometry.convex_on_circle
    else:
        raise DomainError(f"unknown circle property {prop!r} (want 'starlike' or 'convex')")
    tol = _as_real(tol, "tolerance", 0, ends="()")

    v_lo = test(f, _ORACLE_MIN, n_theta)
    if not v_lo.holds:
        return RadiusReport(
            radius=0.5 * _ORACLE_MIN,
            bracket=(0.0, _ORACLE_MIN),
            residual=v_lo.margin,
            iterations=1,
            method="oracle",
            note=f"degenerate: {prop} fails even at r={_ORACLE_MIN}",
        )
    v_hi = test(f, _ORACLE_MAX, n_theta)
    if v_hi.holds:
        return RadiusReport(
            radius=_ORACLE_MAX,
            bracket=(_ORACLE_MAX, 1.0),
            residual=v_hi.margin,
            iterations=2,
            method="oracle",
            note=f"capped at probe maximum {_ORACLE_MAX}",
        )

    lo, hi = _ORACLE_MIN, _ORACLE_MAX
    residual = v_lo.margin
    iterations = 2
    while hi - lo > tol and iterations < _BISECTION_CAP:
        mid = 0.5 * (lo + hi)
        v = test(f, mid, n_theta)
        iterations += 1
        if v.holds:
            lo, residual = mid, v.margin
        else:
            hi = mid
    return RadiusReport(
        radius=0.5 * (lo + hi),
        bracket=(lo, hi),
        residual=residual,
        iterations=iterations,
        method="oracle",
    )
