"""Coefficient-bound reports and the sharp growth envelope.

For a member of the inequality class the moduli satisfy, for every m >= 2,

    |b_m| <= 2*(gamma-lam) / (m^2 * [2*gamma + (delta-gamma)*(m-1)])
    |a_m| + |b_m|, ||a_m| - |b_m||, |a_m| <= twice that value,

and |f(z)| is pinched between two explicit series in |z|.  Bounds are
necessary conditions, so a violation disproves membership; reports therefore
record slacks instead of raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .maps import ClassParams, HarmonicMap, evaluate_map_many
from .sampling import MembershipVerdict, PolarGrid, verdict_from_margins
from .series import DEFAULT_ORDER


@dataclass(frozen=True)
class BoundRow:
    """Per-index slacks: bound minus attained modulus (negative = violated)."""

    m: int
    abs_a: float
    abs_b: float
    bound_a: float
    bound_b: float
    slack_a: float
    slack_b: float
    slack_sum: float
    slack_diff: float


@dataclass(frozen=True)
class BoundReport:
    rows: tuple[BoundRow, ...]

    @property
    def all_within(self) -> bool:
        return all(
            min(r.slack_a, r.slack_b, r.slack_sum, r.slack_diff) >= -1e-12 for r in self.rows
        )

    def row(self, m: int) -> BoundRow:
        for r in self.rows:
            if r.m == m:
                return r
        raise KeyError(f"no bound row for index {m}")


def coefficient_bound_check(f: HarmonicMap, p: ClassParams) -> BoundReport:
    """Slack of every coefficient bound for m = 2..order of the map."""
    m = np.arange(2, f.order + 1)
    bound_b = p.coefficient_budget() / p.coefficient_weight(m)
    bound_a = 2.0 * bound_b
    # hypot matches Python's abs of a complex bit for bit; np.abs does not
    a, b = f.s.pad_to(f.order).coeffs[2:], f.t.pad_to(f.order).coeffs[2:]
    abs_a, abs_b = np.hypot(a.real, a.imag), np.hypot(b.real, b.imag)
    columns = (
        m, abs_a, abs_b, bound_a, bound_b,
        bound_a - abs_a, bound_b - abs_b, bound_a - (abs_a + abs_b), bound_a - np.abs(abs_a - abs_b),
    )
    return BoundReport(rows=tuple(BoundRow(*row) for row in zip(*(c.tolist() for c in columns))))


@dataclass(frozen=True)
class GrowthEstimate:
    """Partial-sum value of a growth bound plus a certified remainder bound."""

    value: float
    tail: float
    n_terms: int


def _growth_terms(p: ClassParams, r, n_terms: int) -> np.ndarray:
    """Terms 2*(gamma-lam)*r^m/(m^2*[...]) for m = 2..N along the last axis.

    *r* is a radius or an array of radii; an array gives one row per radius.
    The powers are taken up to r^(N+1) and the last one dropped, so numpy's
    power always runs along m, as for one radius: a lone exponent column
    would take its squaring shortcut and round differently.
    """
    m = np.arange(2.0, n_terms + 2)
    powers = (np.asarray(r)[..., None] ** m)[..., :-1]
    return 2.0 * p.coefficient_budget() * powers / p.coefficient_weight(m[:-1])


def _pow(r, k: int):
    """r**k by the C library's pow, for a radius or elementwise for an array.

    numpy's vectorized power can differ from it in the last bit, and an
    envelope row must equal growth_upper/growth_lower at its radius exactly.
    """
    return r**k if np.ndim(r) == 0 else np.array([x**k for x in r.tolist()])


def _upper(p: ClassParams, r, n_terms: int) -> tuple:
    """Value and tail of the upper envelope at a radius or an array of radii."""
    value = r + np.sum(_growth_terms(p, r, n_terms), axis=-1)
    tail = (
        2.0
        * p.coefficient_budget()
        / (n_terms * n_terms * 2.0 * p.gamma)
        * _pow(r, n_terms + 1)
        / (1.0 - r)
    )
    return value, tail


def _lower(p: ClassParams, r, n_terms: int) -> tuple:
    """Value and tail of the lower envelope at a radius or an array of radii."""
    signs = np.where(np.arange(2, n_terms + 1) % 2 == 0, -1.0, 1.0)
    value = r + np.sum(signs * _growth_terms(p, r, n_terms), axis=-1)
    n1 = n_terms + 1
    tail = 2.0 * p.coefficient_budget() * _pow(r, n1) / p.coefficient_weight(n1)
    return value, tail


def _check_growth_args(r: float, n_terms: int) -> float:
    r = float(r)
    if not (math.isfinite(r) and 0.0 <= r < 1.0):
        raise DomainError(f"growth bounds need 0 <= r < 1, got {r}")
    if n_terms < 2:
        raise DomainError("growth bounds need n_terms >= 2")
    return r


def growth_upper(p: ClassParams, r: float, n_terms: int = DEFAULT_ORDER) -> GrowthEstimate:
    """Upper envelope r + 4*(gamma-lam) * sum_{m=2..N} r^m / (m^2*[...]).

    The tail bound majorizes every omitted term by
    4*(gamma-lam)/(N^2*2*gamma) * r^m and sums the geometric series.
    """
    value, tail = _upper(p, _check_growth_args(r, n_terms), n_terms)
    return GrowthEstimate(value=float(value), tail=tail, n_terms=n_terms)


def growth_lower(p: ClassParams, r: float, n_terms: int = DEFAULT_ORDER) -> GrowthEstimate:
    """Lower envelope r + 4*(gamma-lam) * sum (-1)^(m-1) r^m / (m^2*[...]).

    The series alternates with strictly decreasing term moduli for r < 1, so
    the remainder is bounded by the first omitted term.  For r near 1 and
    large gamma-lam the value can be negative; it is reported raw (the
    envelope check is then vacuous on the lower side), nothing is clamped.
    """
    value, tail = _lower(p, _check_growth_args(r, n_terms), n_terms)
    return GrowthEstimate(value=float(value), tail=tail, n_terms=n_terms)


def growth_envelope_check(
    f: HarmonicMap,
    p: ClassParams,
    grid: PolarGrid | None = None,
    n_terms: int = DEFAULT_ORDER,
) -> MembershipVerdict:
    """Sampled necessary condition: the modulus stays inside the growth envelope.

    At every grid point the check asserts

        lower(|z|) - tail <= |f(z)| <= upper(|z|) + tail,

    with the certified tails absorbing series truncation.  The caller is
    responsible for only applying this to candidate members; a violation
    disproves membership.
    """
    grid = grid or PolarGrid()
    _check_growth_args(grid.max_radius, n_terms)
    radii = grid.radii()
    pts = grid.points()
    absf = np.abs(evaluate_map_many(f, pts))
    upper = np.add(*_upper(p, radii, n_terms))
    lower = np.subtract(*_lower(p, radii, n_terms))
    margins = np.minimum(upper[:, None] - absf, absf - lower[:, None])
    return verdict_from_margins(margins, pts, grid.describe())
