"""The third-order differential inequality and its membership tests.

The defining inequality of the map family, at parameters (gamma, delta, lam)
with 0 <= lam < gamma <= delta, reads

    Re[L s(z) - lam] > |L t(z)|        for all |z| < 1,

where L h = gamma*h' + delta*z*h'' + ((delta-gamma)/2)*z^2*h'''.  Sampled
checks evaluate the inequality on a polar grid; a failing verdict exhibits a
violating point, a holding verdict means "not falsified at this resolution".

Minimum principle: the slice margin Re L(s + eps*t) - lam and the margins
Re F' and Re F/z - 1/2 of the analytic criteria are harmonic in z, and a
minimum of finitely many harmonic functions is superharmonic, so on
|z| <= R each margin attains its minimum on the circle |z| = R.
:func:`slice_membership_sampled`, :func:`close_to_convex_check` and
:func:`half_plane_check` therefore sample only the outer ring of their grid,
which is exactly ``max_radius``.  Those samples are a subset of the grid's,
so the margin is never below the full grid's, and a failing verdict still
names a sampled violating point.

L maps z^m to (weight(m)/2)*z^(m-1), with weight the coefficient weight of
:meth:`ClassParams.coefficient_weight`, so :func:`operator_coeffs` applies it
with one multiply per coefficient, and the circle is sampled by one fold
and one FFT: :func:`slice_membership_sampled` folds ``L s`` and ``L t``
together.  The analytic checks fold the coefficients of F' and F/z, formed
from F's own array, on the grid's outer radius, which the grid validated
when it was built, so no derived series is built and no radius is checked
again.  :func:`membership_sampled` still samples every ring of its grid
and, like :func:`apply_operator`, evaluates L through the three formal
derivatives, each by :func:`~harmonicdisk.series.eval_many`, which checks
the disk and whose bits do not depend on the CPUs it splits a grid
across: the benchmark's smoke test pins the former's calls, and a test
pins the latter bit for bit to ``polyval``.

Slices in closed form: ``Re(eps * L t) = |L t| cos(arg eps + arg L t)`` is
least at the root of unity nearest to ``pi - arg L t``, so the minimum over
the n_eps-th roots is ``Re L s - lam - |L t| cos(d)``, d in [0, pi/n_eps]
that root's distance.  It lies within 4e-15 * (|L s| + |L t| + lam) of the
minimum over the rounded roots ``exp(2j*pi*j/n_eps)`` taken one at a time,
bitwise where ``L t = 0`` (the full extremal), and exceeds the exact
minimum over ``|eps| = 1``, ``Re L s - lam - |L t|``, by at most
``|L t| * (1 - cos(pi/n_eps))``.  Past about 3e8 roots cos(d) rounds to 1;
n_eps above 2**53 is taken as 2**53, which changes nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _as_complex, _as_count
from .maps import ClassParams, HarmonicMap, _check_normalized
from .sampling import MembershipVerdict, PolarGrid, verdict_from_margins
from .series import TruncatedSeries, _eval_stack, _stack, eval_many


def _operator_values(h: TruncatedSeries, p: ClassParams, z: np.ndarray) -> np.ndarray:
    """L h on an array of disk points, via the three formal derivatives, each valued by :func:`eval_many`."""
    d1 = eval_many(h.derivative(1), z)
    d2 = eval_many(h.derivative(2), z)
    d3 = eval_many(h.derivative(3), z)
    return p.gamma * d1 + p.delta * z * d2 + 0.5 * (p.delta - p.gamma) * z * z * d3


def operator_coeffs(h: TruncatedSeries, p: ClassParams) -> TruncatedSeries:
    """The series L h: coefficient c_m * weight(m)/2 of h moves to index m - 1.

    A weight can overflow to inf for a large finite delta.  A zero
    coefficient stays 0 whatever its weight, as in :func:`_coefficient_sum`;
    a nonzero one times an inf weight is not finite, and a verdict sampled
    from it raises a DomainError.
    """
    if h.order == 0:
        return TruncatedSeries.zero(0)
    c = h.coeffs[1:]
    weights = p.coefficient_weight(np.arange(1.0, h.order + 1)) / 2.0
    with np.errstate(invalid="ignore"):
        coeffs = c * weights
    # the weights grow with m, so only the last can tell that one is inf
    if math.isinf(weights[-1]):
        coeffs[(c == 0) & np.isinf(weights)] = 0.0
    return TruncatedSeries._derived(coeffs)


def apply_operator(h: TruncatedSeries, p: ClassParams, z: complex) -> complex:
    """Value of gamma*h'(z) + delta*z*h''(z) + ((delta-gamma)/2)*z^2*h'''(z) for |z| <= 1."""
    z = _as_complex(z, "evaluation point z")
    return complex(_operator_values(h, p, np.asarray(z)))


@dataclass(frozen=True)
class SufficientCondition:
    """Result of the coefficient-sum membership test.

    ``total`` is sum over m >= 2 of m^2*[2*gamma+(delta-gamma)*(m-1)] *
    (|a_m| + |b_m|); membership is guaranteed whenever it does not exceed
    ``budget`` = 2*(gamma - lam).
    """

    holds: bool
    total: float
    budget: float


def _coefficient_sum(p: ClassParams, a: np.ndarray, b: np.ndarray) -> float:
    """sum over m >= 2 of weight(m) * (|a[m]| + |b[m]|) for equal-length arrays.

    Moduli use hypot, which matches Python's ``abs`` of a complex bit for bit.
    A weight can overflow to inf for a large finite delta; the term of a zero
    modulus is 0 whatever its weight, so only the terms of nonzero moduli
    enter the sum.  A sum that still overflows is a DomainError, not a total.
    """
    a, b = a[2:], b[2:]
    moduli = np.hypot(a.real, a.imag) + np.hypot(b.real, b.imag)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = p.coefficient_weight(np.arange(2.0, len(a) + 2)) * moduli
        total = float(np.sum(np.where(moduli > 0.0, terms, 0.0)))
    if not math.isfinite(total):
        raise DomainError(f"coefficient sum is not finite ({total}): the weighted moduli overflowed")
    return total


def membership_sufficient(f: HarmonicMap, p: ClassParams) -> SufficientCondition:
    """Coefficient-sum test: sufficient (not necessary) for membership."""
    total = _coefficient_sum(p, f.s.pad_to(f.order).coeffs, f.t.pad_to(f.order).coeffs)
    budget = p.coefficient_budget()
    return SufficientCondition(holds=total <= budget, total=total, budget=budget)


def membership_sampled(
    f: HarmonicMap, p: ClassParams, grid: PolarGrid | None = None
) -> MembershipVerdict:
    """Sampled defining inequality: margin = min Re[L s] - lam - |L t|."""
    grid = grid or PolarGrid()
    pts = grid.points()
    ls = _operator_values(f.s, p, pts)
    lt = _operator_values(f.t, p, pts)
    margins = np.real(ls) - p.lam - np.abs(lt)
    return verdict_from_margins(margins, (grid.radii(), grid.phases()), grid.describe())


def _circle_verdict(
    margins: np.ndarray, grid: PolarGrid, values: str = "", samples: int | None = None
) -> MembershipVerdict:
    """Verdict of margins sampled on the grid's outer circle ``grid.radii()[-1:]``."""
    on_circle, where = grid._outer_circle_text
    return verdict_from_margins(
        margins, (grid.radii()[-1:], grid.phases()), values + where, samples=samples, failing_suffix=on_circle
    )


def slice_membership_sampled(
    f: HarmonicMap, p: ClassParams, n_eps: int = 16, grid: PolarGrid | None = None
) -> MembershipVerdict:
    """Sampled slice form of the inequality: Re[L(s + eps*t)] > lam.

    The slice parameters are the n_eps-th roots of unity.  Only the grid's
    outer circle is sampled (minimum principle), so ``samples`` is ``n_eps
    * grid.n_angles``.  The minimum over the roots is taken in closed form,
    ``Re L s - lam - |L t| cos(d)`` with d in [0, pi/n_eps] the distance
    from ``pi - arg L t`` to the nearest multiple of 2*pi/n_eps, so neither
    time nor memory depends on n_eps.  It exceeds the exact minimum over
    every unimodular eps, ``Re L s - lam - |L t|``, by at most ``max |L t|
    * (1 - cos(pi/n_eps))``; the module docstring gives its rounding.
    A coefficient of L s or L t that overflowed is a DomainError before any
    value is folded.
    """
    n_eps = _as_count(n_eps, "n_eps", 4)
    grid = grid or PolarGrid()
    rows = _stack(operator_coeffs(f.s, p).coeffs, operator_coeffs(f.t, p).coeffs)
    if not np.isfinite(rows).all():  # an inf part times a zero part of a power is NaN in the fold
        raise DomainError("sampled margin is not finite: the coefficients of L s or L t overflowed")
    ls, lt = _eval_stack(rows, grid.radii()[-1:], grid.n_angles)
    step = 2.0 * math.pi / min(n_eps, 2**53)
    d = np.remainder(np.pi - np.angle(lt), step)
    margins = np.real(ls) - p.lam - np.abs(lt) * np.cos(np.minimum(d, step - d))
    return _circle_verdict(margins, grid, f"{n_eps} slice values on ", n_eps * margins.size)


def close_to_convex_check(F: TruncatedSeries, grid: PolarGrid | None = None) -> MembershipVerdict:
    """Sampled Re F'(z) > 0, the analytic close-to-convexity criterion.

    Only the grid's outer circle is sampled (minimum principle, see the
    module docstring), so ``samples`` is ``grid.n_angles``.
    """
    _check_normalized(F, want_unit_slope=True, label="F")
    grid = grid or PolarGrid()
    slope = F.coeffs[1:] * np.arange(1, len(F.coeffs))  # the coefficients of F'
    return _circle_verdict(np.real(_eval_stack(slope, grid.radii()[-1:], grid.n_angles)), grid)


def half_plane_check(F: TruncatedSeries, grid: PolarGrid | None = None) -> MembershipVerdict:
    """Sampled Re(F(z)/z) > 1/2.

    F(z)/z is evaluated as the coefficient-shifted polynomial, so the origin
    needs no special casing (the shifted value at 0 is F'(0) = 1).  Only the
    grid's outer circle is sampled (minimum principle, see the module
    docstring), so ``samples`` is ``grid.n_angles``.
    """
    _check_normalized(F, want_unit_slope=True, label="F")
    grid = grid or PolarGrid()
    ratio = _eval_stack(F.coeffs[1:], grid.radii()[-1:], grid.n_angles)
    return _circle_verdict(np.real(ratio) - 0.5, grid)
