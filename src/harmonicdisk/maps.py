"""Harmonic maps ``f = s + conj(t)``, class parameters, extremal constructors.

The map family studied here is cut out of the normalized harmonic functions
by a three-parameter differential inequality; see :mod:`harmonicdisk.membership`
for the inequality itself.  This module owns the data model: the parameter
triple, the normalized map, the sharp extremal constructors, and the analytic
slices ``s + eps*t``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, NormalizationError, _as_complex, _as_count, _as_real
from .sampling import MembershipVerdict, PolarGrid, verdict_from_margins
from .series import COEFF_TOL, DEFAULT_ORDER, TruncatedSeries, _eval_stack, _fold, _ring_radii, _stack

#: A holding sense-preservation verdict with margin below this is flagged
#: near-degenerate: extremal maps attain equality only as |z| -> 1, so
#: boundary grids need a soft signal distinct from failure.
NEAR_DEGENERATE_MARGIN = 1e-6


@dataclass(frozen=True)
class ClassParams:
    """Parameter triple (gamma, delta, lam) with 0 <= lam < gamma <= delta."""

    gamma: float
    delta: float
    lam: float

    def __post_init__(self):
        for name in ("gamma", "delta", "lam"):
            object.__setattr__(self, name, _as_real(getattr(self, name), name))
        if self.delta < self.gamma:
            raise DomainError(f"gamma <= delta violated: gamma={self.gamma}, delta={self.delta}")
        if not 0.0 <= self.lam < self.gamma:
            raise DomainError(f"0 <= lambda < gamma violated: lambda={self.lam}, gamma={self.gamma}")

    def coefficient_weight(self, m: int | np.ndarray) -> float | np.ndarray:
        """The multiplier m^2 * [2*gamma + (delta-gamma)*(m-1)] of index m.

        ``m`` is an int or an array of integer indices (of any numeric dtype);
        an array gives one weight per index, bitwise equal to the scalar value.
        A weight beyond the double range is inf, as it is for an int, so the
        bound budget / weight of that index is 0, its limit.
        """
        with np.errstate(over="ignore"):
            return m * m * (2.0 * self.gamma + (self.delta - self.gamma) * (m - 1))

    def coefficient_budget(self) -> float:
        """Right side 2*(gamma - lambda) of the sufficient coefficient sum."""
        return 2.0 * (self.gamma - self.lam)


def _check_normalized(series: TruncatedSeries, want_unit_slope: bool, label: str) -> None:
    if not isinstance(series, TruncatedSeries):
        raise DomainError(f"{label} must be a TruncatedSeries, got {type(series).__name__}")
    if series.order < 1:
        raise NormalizationError(f"{label} must have order >= 1")
    c0, c1 = series.coeffs[:2].tolist()
    if abs(c0) > COEFF_TOL:
        raise NormalizationError(f"{label}[0]: {label}(0) must be 0, got {c0}")
    slope = 1.0 if want_unit_slope else 0.0
    if abs(c1 - slope) > COEFF_TOL:
        raise NormalizationError(f"{label}[1]: {label}'(0) must be {slope:g}, got {c1}")


@dataclass(frozen=True)
class HarmonicMap:
    """Normalized planar harmonic map ``f(z) = s(z) + conj(t(z))``.

    Normalization: s(0) = 0, s'(0) = 1, t(0) = t'(0) = 0, enforced up to the
    series tolerance.  The analytic part s and co-analytic part t may be
    stored at different truncation orders.
    """

    s: TruncatedSeries
    t: TruncatedSeries

    def __post_init__(self):
        _check_normalized(self.s, want_unit_slope=True, label="s")
        _check_normalized(self.t, want_unit_slope=False, label="t")

    @property
    def order(self) -> int:
        return max(self.s.order, self.t.order)

    def evaluate(self, z: complex) -> complex:
        """Map value ``s(z) + conj(t(z))`` for |z| <= 1."""
        return self.s.evaluate(z) + self.t.evaluate(z).conjugate()

    def rings(self, radii, n: int, j: int = 0) -> np.ndarray:
        """(d/dtheta)^j f at ``radii[i] * exp(2j*pi*k/n)``, j = 0 or 1, by one inverse DFT.

        The one-order case of :func:`_ring_orders`: s and t share one fold.
        """
        if _as_count(j, "ring derivative order") > 1:
            raise DomainError(f"ring derivative order must be 0 or 1, got {j}")
        radii, n = _ring_radii(radii), _as_count(n, "ring sample count n", 1)
        return _ring_orders(self, radii, n, (j,))[0]

    def analytic_slice(self, eps: complex) -> TruncatedSeries:
        """The analytic function ``s + eps*t`` for unimodular eps.

        Membership of the harmonic map in the inequality class is equivalent
        to all of these slices satisfying the analytic form of the
        inequality, which is what makes them the work-horse of the sampled
        checks.
        """
        eps = _as_complex(eps, "slice parameter eps")
        if not abs(abs(eps) - 1.0) <= 1e-12:  # NaN fails this comparison
            raise DomainError(f"slice parameter must satisfy |eps| = 1, got |eps| = {abs(eps)}")
        n = max(self.s.order, self.t.order)
        return TruncatedSeries._derived(self.s.pad_to(n).coeffs + eps * self.t.pad_to(n).coeffs)


def _ring_orders(f: HarmonicMap, radii: np.ndarray, n: int, orders) -> np.ndarray:
    """(d/dtheta)^j f on the rings for each j (0 or 1) in *orders*, shape ``(len(orders), len(radii), n)``.

    d/dtheta multiplies the coefficient of z^k by ik in s and in t alike;
    j = 0 evaluates the stored series as they are.  The rows of
    :func:`_ring_rows` are folded in one :func:`~harmonicdisk.series._fold`,
    which computes each block of radius powers once, and
    :func:`_ring_values` turns the fold into values with one FFT.
    """
    return _ring_values(_fold(_ring_rows(f, orders), radii, n))


def _ring_rows(f: HarmonicMap, orders) -> np.ndarray:
    """The coefficient rows ``s (ik)^j`` and ``conj(t (ik)^j)`` of each j in *orders*, stacked.

    The rows are zero-padded to the longer series, as by
    :func:`~harmonicdisk.series._stack`, and written in place.
    """
    s, t = f.s.coeffs, f.t.coeffs
    rows = np.zeros((2 * len(orders), max(len(s), len(t))), dtype=np.complex128)
    ik = 1j * np.arange(rows.shape[1])
    for i, j in enumerate(orders):
        rows[2 * i, : len(s)] = s * ik[: len(s)] if j else s
        np.conjugate(t * ik[: len(t)] if j else t, out=rows[2 * i + 1, : len(t)])
    return rows


def _ring_values(folded: np.ndarray) -> np.ndarray:
    """Ring values of the folded rows of :func:`_ring_rows`, one per (s, conj(t)) pair.

    On ``|z| = r`` the term ``conj(t_k z^k)`` is ``conj(t_k) r^k
    exp(-2j*pi*k*m/n)``, so each conj(t) row moves onto index ``-k mod n``
    beside its s row (in place, in *folded*), and one FFT over the stack
    gives every map.
    """
    folded, conj_t = folded[0::2], folded[1::2]
    # column m of conj_t goes to column -m mod n: 0 stays, 1..n-1 reverse
    folded[..., 0] += conj_t[..., 0]
    folded[..., :0:-1] += conj_t[..., 1:]
    return np.fft.ifft(folded, axis=-1, norm="forward")


def identity_map(order: int = 1) -> HarmonicMap:
    """The map f(z) = z, padded to the requested order."""
    return HarmonicMap(TruncatedSeries.identity(order), TruncatedSeries.zero(order))


def make_extremal_single(p: ClassParams, m: int, order: int | None = None) -> HarmonicMap:
    """Map ``z + c * conj(z)**m`` attaining the sharp co-analytic bound at index m.

    The coefficient is c = 2*(gamma - lam) / (m^2 * [2*gamma + (delta-gamma)*(m-1)]).
    """
    m = _as_count(m, "extremal index m", 2)
    order = max(DEFAULT_ORDER, m) if order is None else _as_count(order, "order", m)
    c = p.coefficient_budget() / p.coefficient_weight(m)
    return HarmonicMap(
        TruncatedSeries.identity(order),
        TruncatedSeries.monomial(m, c, order=order),
    )


def make_extremal_full(p: ClassParams, order: int = DEFAULT_ORDER) -> HarmonicMap:
    """Analytic map ``z + sum_m a_m z**m`` attaining every modulus bound at once.

    Each a_m equals 4*(gamma - lam) / (m^2 * [2*gamma + (delta-gamma)*(m-1)]),
    twice the single-index co-analytic bound; t is identically zero.  The same
    series generates the sharp growth envelope, so evaluating this map at real
    positive z reproduces the upper growth bound term for term.
    """
    order = _as_count(order, "order", 2)
    coeffs = np.zeros(order + 1, dtype=np.complex128)
    coeffs[1] = 1.0
    coeffs[2:] = 2.0 * p.coefficient_budget() / p.coefficient_weight(np.arange(2, order + 1))
    return HarmonicMap(TruncatedSeries(coeffs), TruncatedSeries.zero(order))


def sense_preserving_check(f: HarmonicMap, grid: PolarGrid | None = None) -> MembershipVerdict:
    """Sampled check of |s'(z)| > |t'(z)|, the sense-preservation criterion.

    Margin is the minimum of |s'| - |t'| over the grid; the witness is the
    argmin point.  Holding verdicts with margin below
    :data:`NEAR_DEGENERATE_MARGIN` carry the near-degenerate flag.
    """
    grid = grid or PolarGrid()
    radii = grid.radii()
    sp, tp = _eval_stack(_stack(f.s.derivative().coeffs, f.t.derivative().coeffs), radii, grid.n_angles)
    margins = np.abs(sp) - np.abs(tp)
    v = verdict_from_margins(margins, (radii, grid.phases()), grid.describe())
    return replace(v, near_degenerate=v.holds and v.margin < NEAR_DEGENERATE_MARGIN)
