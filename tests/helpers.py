"""Shared samplers for randomized tests.

Parameter magnitudes are kept moderate so absolute tolerances of 1e-12 on
operator identities stay meaningful in double precision.
"""

import numpy as np

from harmonicdisk import ClassParams, HarmonicMap, TruncatedSeries


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
