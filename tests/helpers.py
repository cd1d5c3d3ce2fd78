"""Shared samplers for randomized tests.

Parameter magnitudes are kept moderate so absolute tolerances of 1e-12 on
operator identities stay meaningful in double precision.
"""

import math
from dataclasses import replace

import numpy as np

from harmonicdisk import ClassParams, HarmonicMap, MembershipVerdict, PolarGrid, TruncatedSeries
from harmonicdisk.bounds import BoundReport, BoundRow, _envelope
from harmonicdisk.geometry import TURNING_TOL
from harmonicdisk.maps import NEAR_DEGENERATE_MARGIN
from harmonicdisk.membership import operator_coeffs
from harmonicdisk.sampling import verdict_from_margins
from harmonicdisk.series import _radius_powers, eval_many


def random_params(rng: np.random.Generator) -> ClassParams:
    gamma = float(rng.uniform(0.25, 2.0))
    delta = gamma * float(rng.uniform(1.0, 2.0))
    lam = float(rng.uniform(0.0, 0.8)) * gamma
    return ClassParams(gamma=gamma, delta=delta, lam=lam)


def random_series(rng: np.random.Generator, order: int, scale: float = 1.0) -> TruncatedSeries:
    c = scale * (rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1))
    return TruncatedSeries(c)


def mixed_order_map(rng: np.random.Generator, s_order: int, t_order: int) -> HarmonicMap:
    """Normalized map whose analytic and co-analytic parts have different orders."""
    s = random_series(rng, s_order, scale=0.01).coeffs.copy()
    t = random_series(rng, t_order, scale=0.01).coeffs.copy()
    s[:2] = [0.0, 1.0]
    t[:2] = 0.0
    return HarmonicMap(TruncatedSeries(s), TruncatedSeries(t))


def fejer_riesz_member(p: ClassParams, P, alpha: complex) -> HarmonicMap:
    """A member of the class built from a polynomial P, mostly outside the coefficient-sum subclass.

    With ``rho_j = sum_k P[k+j] conj(P[k])``, ``h = rho_0 + 2 sum_{j>=1} rho_j z^j``
    has ``Re h = |P|^2`` on ``|z| = 1`` (Fejer-Riesz).  P is scaled to
    ``rho_0 = gamma - lam``; then ``L s = lam + h`` and ``L t = alpha z P^2``
    with ``|alpha| <= 1`` give ``Re L s - lam - |L t| = (1 - |alpha|) |P|^2 >= 0``
    on the circle, so the minimum principle puts the map in the class.  L is
    inverted one coefficient at a time: ``a_m = 2 (L s)_{m-1} / weight(m)``.
    """
    P = np.asarray(P, dtype=np.complex128)
    P = P * math.sqrt((p.gamma - p.lam) / float(np.sum(np.abs(P) ** 2)))
    d = len(P) - 1
    ls = 2.0 * np.array([np.sum(P[j:] * np.conj(P[: d + 1 - j])) for j in range(d + 1)])
    ls[0] = p.lam + ls[0] / 2.0
    lt = np.concatenate([[0.0], alpha * np.convolve(P, P)])
    order = len(lt)
    weights = p.coefficient_weight(np.arange(1.0, order + 1))
    s, t = np.zeros(order + 1, dtype=np.complex128), np.zeros(order + 1, dtype=np.complex128)
    s[1 : len(ls) + 1] = 2.0 * ls / weights[: len(ls)]
    t[1:] = 2.0 * lt / weights
    s[1], t[1] = 1.0, 0.0
    return HarmonicMap(TruncatedSeries(s), TruncatedSeries(t))


def params_from(gamma: float, ratio: float, frac: float) -> ClassParams:
    """Build valid params from unconstrained draws (for hypothesis)."""
    return ClassParams(gamma=gamma, delta=gamma * ratio, lam=frac * gamma)


def dense_injective(points: np.ndarray) -> bool:
    """Reference self-intersection test of a closed polyline on the full n-by-n pair matrix.

    A pair of non-adjacent segments crosses properly when each straddles the
    line of the other.  Memory is O(n^2), so keep n small.
    """
    n = len(points)
    a = points
    b = np.roll(points, -1)
    d = b - a

    def cross(u, v):
        return u.real * v.imag - u.imag * v.real

    q = cross(d[:, None], a[None, :] - a[:, None]) * cross(d[:, None], b[None, :] - a[:, None])
    crossing = (q < 0.0) & (q.T < 0.0)
    i = np.arange(n)
    gap = np.abs(i[:, None] - i[None, :])
    adjacent = (gap <= 1) | (gap == n - 1)
    return not bool(np.any(crossing & ~adjacent))


# -- Horner references of the ring-sampled checks --------------------------------
#
# The checks below sample whole circles, so the library computes them with
# ``series.eval_rings`` (one FFT per ring).  These are the same formulas
# evaluated point by point with the Horner kernel ``eval_many``, as the
# library computed them before (L through the three formal derivatives);
# tests compare the two within ``ring_rounding_bound``.

EPS = float(np.finfo(np.float64).eps)


def ring_rounding_bound(series: TruncatedSeries, radii, n: int) -> np.ndarray:
    """Per-ring bound on |eval_rings - eval_many| at the n points of each ring.

    With S = sum |c_k| r^k and N + 1 coefficients, both values lie near the
    exact one (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., 5.1 and 24.1):

    - Horner in complex arithmetic: at most 4(N+1) eps S;
    - the point ``r*exp(2j*pi*k/n)`` built in floating point moves by at most
      10 eps r, which moves the value by 10 eps sum k |c_k| r^k;
    - the folded DFT: (ceil((N+1)/n) + 4) eps S for the radius powers and the
      fold, and 4 log2(n) sqrt(n) eps S for the FFT.

    The bound is proportional to eps S, since sum k |c_k| r^k <= N S.
    """
    radii = np.asarray(radii, dtype=np.float64)[:, None]
    c = np.abs(series.coeffs)
    k = np.arange(len(c))
    powers = radii**k
    s = powers @ c
    sk = powers @ (k * c)
    n_terms = len(c)
    fold = math.ceil(n_terms / n) + 4 + 4 * math.log2(n) * math.sqrt(n)
    return EPS * (4 * n_terms * s + 10 * sk + fold * s)


def evaluate_map_many(f: HarmonicMap, z: np.ndarray) -> np.ndarray:
    """``s(z) + conj(t(z))`` on an array of disk points, by Horner."""
    return eval_many(f.s, z) + np.conj(eval_many(f.t, z))


def operator_values_horner(h: TruncatedSeries, p: ClassParams, z: np.ndarray) -> np.ndarray:
    """gamma h' + delta z h'' + ((delta-gamma)/2) z^2 h''' at the points z, by Horner."""
    d1, d2, d3 = (eval_many(h.derivative(k), z) for k in (1, 2, 3))
    return p.gamma * d1 + p.delta * z * d2 + 0.5 * (p.delta - p.gamma) * z * z * d3


def grid_axes(grid: PolarGrid) -> tuple[np.ndarray, np.ndarray]:
    """The (radii, phases) axes of a polar grid, the witness form of every verdict."""
    return grid.radii(), grid.phases()


def slice_membership_horner(f: HarmonicMap, p: ClassParams, n_eps: int, grid: PolarGrid) -> MembershipVerdict:
    pts = grid.points()
    ls, lt = operator_values_horner(f.s, p, pts), operator_values_horner(f.t, p, pts)
    eps = np.exp(2j * np.pi * np.arange(n_eps) / n_eps)
    margins = np.min(np.real(ls[None] + eps[:, None, None] * lt[None]), axis=0) - p.lam
    v = verdict_from_margins(margins, grid_axes(grid), grid.describe())
    return replace(v, samples=n_eps * margins.size)


def growth_envelope_horner(f: HarmonicMap, p: ClassParams, grid: PolarGrid, n_terms: int) -> MembershipVerdict:
    upper, upper_tail, lower, lower_tail = _envelope(p, grid.radii(), n_terms)[0]
    pts = grid.points()
    absf = np.abs(evaluate_map_many(f, pts))
    margins = np.minimum((upper + upper_tail)[:, None] - absf, absf - (lower - lower_tail)[:, None])
    return verdict_from_margins(margins, grid_axes(grid), grid.describe())


def sense_preserving_horner(f: HarmonicMap, grid: PolarGrid) -> MembershipVerdict:
    pts = grid.points()
    sp = eval_many(f.s.derivative(), pts)
    tp = eval_many(f.t.derivative(), pts)
    return verdict_from_margins(np.abs(sp) - np.abs(tp), grid_axes(grid), grid.describe())


def close_to_convex_horner(F: TruncatedSeries, grid: PolarGrid) -> MembershipVerdict:
    pts = grid.points()
    return verdict_from_margins(np.real(eval_many(F.derivative(), pts)), grid_axes(grid), grid.describe())


def half_plane_horner(F: TruncatedSeries, grid: PolarGrid) -> MembershipVerdict:
    pts = grid.points()
    ratio = eval_many(TruncatedSeries(F.coeffs[1:]), pts)
    return verdict_from_margins(np.real(ratio) - 0.5, grid_axes(grid), grid.describe())


def circle_axes(r: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (radii, phases) axes of the n points on the circle |z| = r."""
    return np.array([r]), np.exp(2j * np.pi * np.arange(n) / n)


def circle_points(r: float, n: int) -> np.ndarray:
    return r * circle_axes(r, n)[1]


def circle_image_horner(f: HarmonicMap, r: float, n: int) -> np.ndarray:
    return evaluate_map_many(f, circle_points(r, n))


def circle_rate_horner(f: HarmonicMap, z: np.ndarray) -> np.ndarray:
    sp = eval_many(f.s.derivative(), z)
    tp = eval_many(f.t.derivative(), z)
    return z * sp - np.conj(z * tp)


def starlike_on_circle_horner(f: HarmonicMap, r: float, n: int = 1024) -> MembershipVerdict:
    z = circle_points(r, n)
    margins = np.real(circle_rate_horner(f, z) / evaluate_map_many(f, z))
    return verdict_from_margins(margins, circle_axes(r, n), f"{n} samples on circle r={r}")


def convex_on_circle_horner(f: HarmonicMap, r: float, n: int = 1024) -> MembershipVerdict:
    z = circle_points(r, n)
    raw = np.angle(1j * circle_rate_horner(f, z))
    steps = np.diff(raw, append=raw[:1])
    steps = (steps + np.pi) % (2.0 * np.pi) - np.pi
    total = float(np.sum(steps))
    rates = (steps + np.roll(steps, 1)) / (2.0 * (2.0 * np.pi / n))
    v = verdict_from_margins(rates, circle_axes(r, n), f"{n} samples on circle r={r}")
    if abs(total - 2.0 * np.pi) > TURNING_TOL:
        margin = min(v.margin, TURNING_TOL - abs(total - 2.0 * np.pi))
        return replace(v, holds=False, margin=margin)
    return v


# -- per-series fold references of the ring-sampled checks ----------------------
#
# The library folds every series a check samples in one ``series._fold`` call
# (one table of radius powers per block, shared by every row) and runs one
# FFT over the stack.  These references fold each series alone, every block,
# and run one FFT per series, as the library did before; tests compare the two
# bit for bit.


def fold_per_series(coeffs: np.ndarray, radii, n: int) -> np.ndarray:
    """``coeffs[k] * radii[i]**k`` summed onto column ``k mod n``, one series."""
    radii = np.asarray(radii, dtype=np.float64)
    folded = np.zeros((len(radii), n), dtype=np.complex128)
    for k0 in range(0, len(coeffs), n):
        k = np.arange(k0, min(k0 + n, len(coeffs)), dtype=np.float64)
        folded[:, : len(k)] += coeffs[k0 : k0 + n] * _radius_powers(radii, k)
    return folded


def eval_rings_per_series(series: TruncatedSeries, radii, n: int) -> np.ndarray:
    return np.fft.ifft(fold_per_series(series.coeffs, radii, n), axis=-1, norm="forward")


def rings_per_series(f: HarmonicMap, radii, n: int, j: int = 0) -> np.ndarray:
    """(d/dtheta)^j f on the rings from a fold of s and a separate fold of conj(t)."""
    s, t = f.s.coeffs, f.t.coeffs
    if j == 1:
        s, t = (c * (1j * np.arange(len(c))) for c in (s, t))
    folded, conj_t = fold_per_series(s, radii, n), fold_per_series(np.conj(t), radii, n)
    folded[:, 0] += conj_t[:, 0]
    folded[:, :0:-1] += conj_t[:, 1:]
    return np.fft.ifft(folded, axis=-1, norm="forward")


def sense_preserving_per_series(f: HarmonicMap, grid: PolarGrid) -> MembershipVerdict:
    radii = grid.radii()
    sp = eval_rings_per_series(f.s.derivative(), radii, grid.n_angles)
    tp = eval_rings_per_series(f.t.derivative(), radii, grid.n_angles)
    v = verdict_from_margins(np.abs(sp) - np.abs(tp), grid_axes(grid), grid.describe())
    return replace(v, near_degenerate=v.holds and v.margin < NEAR_DEGENERATE_MARGIN)


def slice_membership_per_series(
    f: HarmonicMap, p: ClassParams, n_eps: int, grid: PolarGrid
) -> MembershipVerdict:
    ring = grid.radii()[-1:]
    ls = eval_rings_per_series(operator_coeffs(f.s, p), ring, grid.n_angles)
    lt = eval_rings_per_series(operator_coeffs(f.t, p), ring, grid.n_angles)
    # the closed-form minimum over the roots; tests/test_membership.py checks it against the per-root loop
    step = 2.0 * math.pi / min(n_eps, 2**53)
    d = np.remainder(np.pi - np.angle(lt), step)
    margins = np.real(ls) - p.lam - np.abs(lt) * np.cos(np.minimum(d, step - d))
    circle = f"circle |z| = {grid.max_radius} ({grid.n_angles} angles)"
    where = f"where the {grid.describe()} has its minimum (minimum principle)"
    v = verdict_from_margins(margins, (ring, grid.phases()), f"{n_eps} slice values on {circle}, {where}")
    v = v if v.holds else replace(v, evidence=f"{v.evidence} on {circle}")
    return replace(v, samples=n_eps * margins.size)


def outer_circle_verdict_per_series(margins: np.ndarray, grid: PolarGrid, values: str = "") -> MembershipVerdict:
    """The verdict of margins sampled on the grid's outer circle, its text formatted for this call."""
    circle = f"circle |z| = {grid.max_radius} ({grid.n_angles} angles)"
    where = f"where the {grid.describe()} has its minimum (minimum principle)"
    v = verdict_from_margins(margins, (grid.radii()[-1:], grid.phases()), f"{values}{circle}, {where}")
    return v if v.holds else replace(v, evidence=f"{v.evidence} on {circle}")


def close_to_convex_per_series(F: TruncatedSeries, grid: PolarGrid) -> MembershipVerdict:
    """Re F' on the outer circle from the derived series F', folded alone."""
    ring = grid.radii()[-1:]
    margins = np.real(eval_rings_per_series(F.derivative(), ring, grid.n_angles))
    return outer_circle_verdict_per_series(margins, grid)


def half_plane_per_series(F: TruncatedSeries, grid: PolarGrid) -> MembershipVerdict:
    """Re(F/z) - 1/2 on the outer circle from the shifted series F/z, folded alone."""
    ring = grid.radii()[-1:]
    ratio = eval_rings_per_series(TruncatedSeries(F.coeffs[1:]), ring, grid.n_angles)
    return outer_circle_verdict_per_series(np.real(ratio) - 0.5, grid)


def starlike_on_circle_per_series(f: HarmonicMap, r: float, n: int) -> MembershipVerdict:
    fv, rate = rings_per_series(f, [r], n)[0], rings_per_series(f, [r], n, 1)[0]
    return verdict_from_margins(np.imag(rate / fv), circle_axes(r, n), f"{n} samples on circle r={r}")


def convex_on_circle_per_series(f: HarmonicMap, r: float, n: int) -> MembershipVerdict:
    raw = np.angle(rings_per_series(f, [r], n, 1)[0])
    steps = np.diff(raw, append=raw[:1])
    steps = (steps + np.pi) % (2.0 * np.pi) - np.pi
    total = float(np.sum(steps))
    rates = (steps + np.roll(steps, 1)) / (2.0 * (2.0 * np.pi / n))
    v = verdict_from_margins(rates, circle_axes(r, n), f"{n} samples on circle r={r}")
    if abs(total - 2.0 * np.pi) > TURNING_TOL:
        margin = min(v.margin, TURNING_TOL - abs(total - 2.0 * np.pi))
        evidence = f"total tangent turning {total:.6f} != 2*pi (turning number != 1)"
        return replace(v, holds=False, margin=margin, evidence=evidence)
    return v


# -- two-pass references of the order-N reports ---------------------------------
#
# ``growth_envelope_check`` computes each table of radius powers once: it folds
# f from the table and then turns the same table into envelope terms.  These
# references compute the envelope and the ring values separately, as two
# passes with a table each, and build bound rows one ``BoundRow(*row)`` at a
# time; tests compare the library to them bit for bit.


def envelope_two_pass(p: ClassParams, radii: np.ndarray, n_terms: int) -> tuple[np.ndarray, ...]:
    """The envelope sums over blocks of at least 4096 columns, stopping at the first all-zero block."""
    scale = 2.0 * p.coefficient_budget()
    upper, lower = np.zeros_like(radii), np.zeros_like(radii)
    cols = max(4096, 2**16 // len(radii))
    for m0 in range(2, n_terms + 1, cols):
        m = np.arange(float(m0), min(m0 + cols, n_terms + 1))
        terms = scale * _radius_powers(radii, m) / p.coefficient_weight(m)
        if not terms.any():
            break
        upper += np.sum(terms, axis=-1)
        lower += np.sum(np.where(m % 2 == 0, -1.0, 1.0) * terms, axis=-1)
    tail_power = radii ** (n_terms + 1)
    return (
        radii + upper,
        scale / (n_terms * n_terms * 2.0 * p.gamma) * tail_power / (1.0 - radii),
        radii + lower,
        scale * tail_power / p.coefficient_weight(n_terms + 1),
    )


def growth_envelope_two_pass(f: HarmonicMap, p: ClassParams, grid: PolarGrid, n_terms: int):
    """The envelope check from the envelope and from separate folds of s and conj(t)."""
    radii = grid.radii()
    upper, upper_tail, lower, lower_tail = envelope_two_pass(p, radii, n_terms)
    absf = np.abs(rings_per_series(f, radii, grid.n_angles))
    margins = np.minimum((upper + upper_tail)[:, None] - absf, absf - (lower - lower_tail)[:, None])
    return verdict_from_margins(margins, grid_axes(grid), grid.describe())


def bound_report_per_row(f: HarmonicMap, p: ClassParams) -> BoundReport:
    """Bound rows built one ``BoundRow(*row)`` at a time, in a report built by a caller."""
    m = np.arange(2, f.order + 1)
    bound_b = p.coefficient_budget() / p.coefficient_weight(m)
    bound_a = 2.0 * bound_b
    a, b = f.s.pad_to(f.order).coeffs[2:], f.t.pad_to(f.order).coeffs[2:]
    abs_a, abs_b = np.hypot(a.real, a.imag), np.hypot(b.real, b.imag)
    columns = (
        m, abs_a, abs_b, bound_a, bound_b,
        bound_a - abs_a, bound_b - abs_b, bound_a - (abs_a + abs_b), bound_a - np.abs(abs_a - abs_b),
    )
    return BoundReport(rows=tuple(BoundRow(*row) for row in zip(*(c.tolist() for c in columns))))


def all_within_per_row(rows) -> bool:
    return all(min(r.slack_a, r.slack_b, r.slack_sum, r.slack_diff) >= -1e-12 for r in rows)
