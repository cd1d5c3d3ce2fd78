"""Closure operations: convex combinations, convolutions, analytic factors.

The inequality class is closed under convex combinations, under coefficient
convolution of its members, and under convolution of both parts with one
analytic factor whose values satisfy Re(phi(z)/z) > 1/2.  These operations
are pure coefficient arithmetic; the closure statements themselves are
exercised by the sampled membership tests.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .errors import DomainError, NormalizationError
from .maps import ClassParams, HarmonicMap
from .membership import _coefficient_sum
from .series import COEFF_TOL, TruncatedSeries

_WEIGHT_TOL = 1e-12


def convex_combination(maps: Sequence[HarmonicMap], weights: Sequence[float]) -> HarmonicMap:
    """Coefficient-wise weighted sum of maps.

    Weights must be nonnegative and sum to 1 (within 1e-12), which preserves
    the normalization.  The common truncation order is the minimum of the
    operands' orders.
    """
    if len(maps) == 0:
        raise DomainError("convex combination needs at least one map")
    if len(weights) != len(maps):
        raise DomainError("one weight per map required")
    ws = [float(w) for w in weights]
    if any(not math.isfinite(w) or w < 0.0 for w in ws):
        raise DomainError("weights must be finite and nonnegative")
    if abs(sum(ws) - 1.0) > _WEIGHT_TOL:
        raise DomainError(f"weights must sum to 1, got {sum(ws)!r}")
    n = min(f.order for f in maps)
    s = np.zeros(n + 1, dtype=np.complex128)
    t = np.zeros(n + 1, dtype=np.complex128)
    for w, f in zip(ws, maps):
        s += w * f.s.pad_to(n).coeffs[: n + 1]
        t += w * f.t.pad_to(n).coeffs[: n + 1]
    return HarmonicMap(TruncatedSeries(s), TruncatedSeries(t))


def convolve_harmonic(f1: HarmonicMap, f2: HarmonicMap) -> HarmonicMap:
    """Harmonic convolution: analytic parts convolved, co-analytic parts convolved.

    Coefficient-wise products keep a_1 = 1*1, so normalization survives.
    """
    return HarmonicMap(f1.s.hadamard(f2.s), f1.t.hadamard(f2.t))


def convolve_analytic(f: HarmonicMap, phi: TruncatedSeries) -> HarmonicMap:
    """Convolve both parts of a harmonic map with one analytic factor.

    The factor must be normalized (phi(0) = 0, phi'(0) = 1).  With the
    truncated z/(1-z) this is the identity operation.
    """
    if phi.order < 1 or abs(phi.coeff(0)) > COEFF_TOL or abs(phi.coeff(1) - 1.0) > COEFF_TOL:
        raise NormalizationError("analytic factor must satisfy phi(0)=0, phi'(0)=1")
    return HarmonicMap(f.s.hadamard(phi), f.t.hadamard(phi))


def random_member(
    p: ClassParams,
    rng: np.random.Generator,
    order: int = 16,
    max_terms: int = 3,
    u: float | None = None,
) -> HarmonicMap:
    """Random map guaranteed in the class via the sufficient coefficient sum.

    Draws sparse coefficient sets for both parts and rescales them so the
    weighted coefficient sum equals u * 2*(gamma - lam) with u uniform in
    (0, 1).  This certifies membership by construction, so closure and radius
    properties can be tested without a sampled membership precondition.
    """
    if order < 2:
        raise DomainError("random members need order >= 2")
    if u is None:
        u = float(rng.uniform(0.0, 1.0))
    if not 0.0 <= u <= 1.0:
        raise DomainError("target fraction u must lie in [0, 1]")

    s = np.zeros(order + 1, dtype=np.complex128)
    t = np.zeros(order + 1, dtype=np.complex128)
    s[1] = 1.0
    available = order - 1  # indices 2..order
    while True:
        n_a = min(int(rng.integers(0, max_terms + 1)), available)
        n_b = min(int(rng.integers(0, max_terms + 1)), available)
        if n_a + n_b > 0:
            break
    idx_a = rng.choice(np.arange(2, order + 1), size=n_a, replace=False)
    idx_b = rng.choice(np.arange(2, order + 1), size=n_b, replace=False)
    for m in idx_a:
        s[m] = rng.uniform(0.2, 1.0) * np.exp(2j * np.pi * rng.uniform())
    for m in idx_b:
        t[m] = rng.uniform(0.2, 1.0) * np.exp(2j * np.pi * rng.uniform())

    raw = _coefficient_sum(p, s, t)
    scale = u * p.coefficient_budget() / raw if raw > 0.0 else 0.0
    s[2:] *= scale
    t[2:] *= scale
    return HarmonicMap(TruncatedSeries(s), TruncatedSeries(t))
