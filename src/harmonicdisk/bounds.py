"""Coefficient-bound reports and the sharp growth envelope.

For a member of the inequality class the moduli satisfy, for every m >= 2,

    |b_m| <= 2*(gamma-lam) / (m^2 * [2*gamma + (delta-gamma)*(m-1)])
    |a_m| + |b_m|, ||a_m| - |b_m||, |a_m| <= twice that value,

and |f(z)| is pinched between two explicit series in |z| that share one
term sequence: the upper envelope sums it, the lower one alternates its
signs.  ``_envelope`` builds those terms once for an array of radii; a
per-radius bound (``growth_upper``, ``growth_lower``) is its one-row case, so
it equals the row that ``growth_envelope_check`` uses at that radius.  The
check samples |f| on every ring with ``HarmonicMap.rings`` (one fold of s
and conj(t), which share each table of radius powers, and one FFT), so its
values agree with a Horner evaluation to rounding.  Bounds are necessary conditions, so a violation disproves
membership; reports therefore record slacks instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import _as_count, _as_real
from .maps import ClassParams, HarmonicMap
from .sampling import MembershipVerdict, PolarGrid, verdict_from_margins
from .series import DEFAULT_ORDER, _radius_powers


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


def _envelope(p: ClassParams, radii: np.ndarray, n_terms: int) -> tuple[np.ndarray, ...]:
    """Upper value, upper tail, lower value and lower tail at each radius.

    The terms 2*(gamma-lam)*r^m/(m^2*[...]) for m = 2..N are summed in
    (radius, m) blocks of at least 4096 columns and about 2^16 terms, so
    memory stays bounded for any N; a sum that fits one block is one array
    reduction.  The terms decrease in m and r^m underflows to 0, so once a
    whole block is 0 every later block is too: the sums stop there, and they
    are still bitwise the N-term sums, while the tails are those of N.
    """
    n_terms = _as_count(n_terms, "n_terms", 2)
    scale = 2.0 * p.coefficient_budget()
    upper = np.zeros_like(radii)
    lower = np.zeros_like(radii)
    cols = max(4096, 2**16 // len(radii))
    for m0 in range(2, n_terms + 1, cols):
        m = np.arange(float(m0), min(m0 + cols, n_terms + 1))
        terms = scale * _radius_powers(radii, m) / p.coefficient_weight(m)
        if not terms.any():
            break
        signs = np.where(m % 2 == 0, -1.0, 1.0)
        upper += np.sum(terms, axis=-1)
        lower += np.sum(signs * terms, axis=-1)
    tail_power = radii ** (n_terms + 1)
    return (
        radii + upper,
        scale / (n_terms * n_terms * 2.0 * p.gamma) * tail_power / (1.0 - radii),
        radii + lower,
        scale * tail_power / p.coefficient_weight(n_terms + 1),
    )


def _at_radius(p: ClassParams, r: float, n_terms: int) -> list[float]:
    """The four envelope values at one radius *r*, once it is checked to lie in [0, 1)."""
    r = _as_real(r, "growth radius r", 0, 1, "[)")
    return [float(x[0]) for x in _envelope(p, np.array([r]), n_terms)]


def growth_upper(p: ClassParams, r: float, n_terms: int = DEFAULT_ORDER) -> GrowthEstimate:
    """Upper envelope r + 4*(gamma-lam) * sum_{m=2..N} r^m / (m^2*[...]).

    The tail bound majorizes every omitted term by
    4*(gamma-lam)/(N^2*2*gamma) * r^m and sums the geometric series.
    """
    value, tail, _, _ = _at_radius(p, r, n_terms)
    return GrowthEstimate(value=value, tail=tail, n_terms=n_terms)


def growth_lower(p: ClassParams, r: float, n_terms: int = DEFAULT_ORDER) -> GrowthEstimate:
    """Lower envelope r + 4*(gamma-lam) * sum (-1)^(m-1) r^m / (m^2*[...]).

    The series alternates with strictly decreasing term moduli for r < 1, so
    the remainder is bounded by the first omitted term.  For r near 1 and
    large gamma-lam the value can be negative; it is reported raw (the
    envelope check is then vacuous on the lower side), nothing is clamped.
    """
    _, _, value, tail = _at_radius(p, r, n_terms)
    return GrowthEstimate(value=value, tail=tail, n_terms=n_terms)


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
    radii = grid.radii()
    upper, upper_tail, lower, lower_tail = _envelope(p, radii, n_terms)
    absf = np.abs(f.rings(radii, grid.n_angles))
    margins = np.minimum((upper + upper_tail)[:, None] - absf, absf - (lower - lower_tail)[:, None])
    return verdict_from_margins(margins, (radii, grid.phases()), grid.describe())
