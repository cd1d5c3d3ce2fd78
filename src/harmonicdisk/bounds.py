"""Coefficient-bound reports and the sharp growth envelope.

For a member of the inequality class the moduli satisfy, for every m >= 2,

    |b_m| <= 2*(gamma-lam) / (m^2 * [2*gamma + (delta-gamma)*(m-1)])
    |a_m| + |b_m|, ||a_m| - |b_m||, |a_m| <= twice that value,

and |f(z)| is pinched between two explicit series in |z| that share one
term sequence: the upper envelope sums it, the lower one alternates its
signs.  ``_envelope`` sums those terms for an array of radii in blocks of
m; a per-radius bound (``growth_upper``, ``growth_lower``) is its one-row
case.  ``growth_envelope_check`` needs the same powers r^k for the envelope
and for |f| on every ring, so it computes each block's table of powers once:
it folds s and conj(t) from the table as ``HarmonicMap.rings`` does, then
overwrites the table with the terms, with the blocks and operations of
``_envelope``.  Its envelope rows are therefore bitwise the per-radius
bounds, and its ring values bitwise those of ``rings``, which agree with a
Horner evaluation to rounding.  ``coefficient_bound_check`` builds its
rows from nine columns, one field of every row at a time, and reduces
``all_within`` from the slack columns.  Bounds are necessary conditions, so
a violation disproves membership; reports therefore record slacks instead
of raising.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import repeat

import numpy as np

from .errors import _as_count, _as_real
from .maps import ClassParams, HarmonicMap, _ring_rows, _ring_values
from .sampling import MembershipVerdict, PolarGrid, verdict_from_margins
from .series import DEFAULT_ORDER, _fold_powers, _radius_powers, _tables


@dataclass(frozen=True, slots=True)
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

    @classmethod
    def _from_columns(cls, columns) -> tuple["BoundRow", ...]:
        """One row per index of *columns*, nine 1-d arrays in field order.

        The rows are made without a class call, then filled one field at a
        time: the field's slot descriptor stores the whole column in one
        ``map``, so no Python code runs per row, where the frozen
        ``__init__`` makes nine ``object.__setattr__`` calls per row.
        """
        rows = tuple(map(object.__new__, repeat(cls, len(columns[0]))))
        for field, column in zip(fields(cls), columns):
            # a zero-length deque runs the map to its end and keeps nothing
            deque(map(getattr(cls, field.name).__set__, rows, column.tolist()), maxlen=0)
        return rows


#: A slack at or above this is within its bound (rounding of the bound itself).
_SLACK_TOL = -1e-12


@dataclass(frozen=True)
class BoundReport:
    rows: tuple[BoundRow, ...]

    @cached_property
    def all_within(self) -> bool:
        return all(
            min(r.slack_a, r.slack_b, r.slack_sum, r.slack_diff) >= _SLACK_TOL for r in self.rows
        )

    def row(self, m: int) -> BoundRow:
        for r in self.rows:
            if r.m == m:
                return r
        raise KeyError(f"no bound row for index {m}")


def coefficient_bound_check(f: HarmonicMap, p: ClassParams) -> BoundReport:
    """Slack of every coefficient bound for m = 2..order of the map.

    The rows come from nine columns, and ``all_within`` is reduced from the
    four slack columns.  A NaN slack reads as violated; it only arises when
    both moduli overflow to inf, and then ``slack_a`` is -inf, so the row
    loop of ``all_within`` gives the same answer.
    """
    m = np.arange(2, f.order + 1)
    bound_b = p.coefficient_budget() / p.coefficient_weight(m)
    bound_a = 2.0 * bound_b
    # hypot matches Python's abs of a complex bit for bit; np.abs does not
    a, b = f.s.pad_to(f.order).coeffs[2:], f.t.pad_to(f.order).coeffs[2:]
    abs_a, abs_b = np.hypot(a.real, a.imag), np.hypot(b.real, b.imag)
    slacks = (
        bound_a - abs_a, bound_b - abs_b, bound_a - (abs_a + abs_b), bound_a - np.abs(abs_a - abs_b),
    )
    report = BoundReport(rows=BoundRow._from_columns((m, abs_a, abs_b, bound_a, bound_b, *slacks)))
    # cached_property reads the instance dict first, so this is the property's value
    report.__dict__["all_within"] = bool(np.all(np.array(slacks) >= _SLACK_TOL))
    return report


@dataclass(frozen=True)
class GrowthEstimate:
    """Partial-sum value of a growth bound plus a certified remainder bound."""

    value: float
    tail: float
    n_terms: int


def _add_terms(p: ClassParams, powers: np.ndarray, m: np.ndarray, sums: np.ndarray) -> bool:
    """Turn *powers*, the block r^m, into the terms 2*(gamma-lam)*r^m/weight(m) in place; add them up.

    ``sums[0]`` takes the terms, ``sums[1]`` the terms with the signs of the
    lower envelope, negative at even m; negating in place is exact, so that
    sum is bitwise the sum of ``signs * terms``.  Returns False, adding
    nothing, when every term is 0.
    """
    powers *= 2.0 * p.coefficient_budget()
    powers /= p.coefficient_weight(m)
    if not powers.any():
        return False
    sums[0] += np.sum(powers, axis=-1)
    even = powers[:, int(m[0]) % 2 :: 2]
    np.negative(even, out=even)
    sums[1] += np.sum(powers, axis=-1)
    return True


def _with_tails(p: ClassParams, radii: np.ndarray, n_terms: int, sums: np.ndarray) -> tuple:
    """Upper value, upper tail, lower value and lower tail from the sums of :func:`_add_terms`."""
    scale = 2.0 * p.coefficient_budget()
    tail_power = radii ** (n_terms + 1)
    return (
        radii + sums[0],
        scale / (n_terms * n_terms * 2.0 * p.gamma) * tail_power / (1.0 - radii),
        radii + sums[1],
        scale * tail_power / p.coefficient_weight(n_terms + 1),
    )


def _envelope(p: ClassParams, radii: np.ndarray, n_terms: int) -> tuple[np.ndarray, ...]:
    """Upper value, upper tail, lower value and lower tail at each radius.

    The terms 2*(gamma-lam)*r^m/(m^2*[...]) for m = 2..N are summed in
    (radius, m) blocks, one per power table of the folds
    (:func:`~harmonicdisk.series._tables`), so memory stays bounded for
    any N; a sum that fits one block is one array reduction.
    The terms decrease in m and r^m underflows to 0, so once a whole block
    is 0 every later block is too: the sums stop there, and they are still
    bitwise the N-term sums, while the tails are those of N.
    """
    n_terms = _as_count(n_terms, "n_terms", 2)
    sums = np.zeros((2, len(radii)))
    for k in _tables(radii, n_terms + 1):
        terms = slice(max(2 - int(k[0]), 0), None)
        if not _add_terms(p, _radius_powers(radii, k)[:, terms], k[terms], sums):
            break
    return _with_tails(p, radii, n_terms, sums)


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

    Each table of radius powers is folded into the ring values first and
    then overwritten with the envelope terms of its block, so one table is
    alive at a time.  Past the first all-zero block of terms only the fold
    goes on, up to the last coefficient.
    """
    grid = grid or PolarGrid()
    radii = grid.radii()
    n_terms = _as_count(n_terms, "n_terms", 2)
    rows = _ring_rows(f, (0,))
    folded = np.zeros((len(rows), len(radii), grid.n_angles), dtype=np.complex128)
    sums = np.zeros((2, len(radii)))
    summing = True
    for k in _tables(radii, max(n_terms + 1, rows.shape[-1])):
        k0 = int(k[0])
        if not summing and k0 >= rows.shape[-1]:
            break
        powers = _radius_powers(radii, k)
        _fold_powers(folded, rows, powers, k0)
        if summing and k0 <= n_terms:
            terms = slice(max(2 - k0, 0), n_terms + 1 - k0)
            summing = _add_terms(p, powers[:, terms], k[terms], sums)
    upper, upper_tail, lower, lower_tail = _with_tails(p, radii, n_terms, sums)
    absf = np.abs(_ring_values(folded)[0])
    margins = np.minimum((upper + upper_tail)[:, None] - absf, absf - (lower - lower_tail)[:, None])
    return verdict_from_margins(margins, (radii, grid.phases()), grid.describe())
