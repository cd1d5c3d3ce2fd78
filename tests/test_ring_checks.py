"""The ring-sampled checks against Horner references of their formulas.

The sense, close-to-convex, half-plane, slice and growth-envelope checks and
the circle tests sample whole circles, so the library evaluates them with
``series.eval_rings``.
Each must give the verdict of the point-by-point Horner formula in
``helpers``, with a margin within the propagated rounding bound
``helpers.ring_rounding_bound``.
"""

import numpy as np
import pytest

from harmonicdisk import (
    HarmonicMap,
    PolarGrid,
    TruncatedSeries,
    circle_image,
    close_to_convex_check,
    convex_on_circle,
    growth_envelope_check,
    half_plane_check,
    make_extremal_full,
    numeric_radius_oracle,
    operator_coeffs,
    sense_preserving_check,
    slice_membership_sampled,
    starlike_on_circle,
)
from harmonicdisk import geometry
from harmonicdisk.closure import random_member
from harmonicdisk.sampling import verdict_from_margins

import helpers
from helpers import EPS, random_params, ring_rounding_bound

GRID = PolarGrid(max_radius=0.95, n_radii=24, n_angles=96)


def _maps():
    """(params, map): random members, scaled violators and full extremals of orders 16 to 512."""
    rng = np.random.default_rng(20261018)
    out = []
    for k, order in enumerate((16, 16, 16, 64, 64, 512, 512, 16, 64, 512)):
        p = random_params(rng)
        f = random_member(p, rng, order=order, max_terms=max(3, order // 8))
        if k >= 7:
            # a member scaled until sum k (|a_k| + |b_k|) 0.9^(k-1) is 1.5 to 4,
            # so that Re F' and |s'| - |t'| go negative inside the grid
            s, t = f.s.coeffs.copy(), f.t.coeffs.copy()
            m = np.arange(2, order + 1)
            size = np.sum(m * (np.abs(s[2:]) + np.abs(t[2:])) * 0.9 ** (m - 1))
            scale = float(rng.uniform(1.5, 4.0)) / size
            s[2:] *= scale
            t[2:] *= scale
            f = HarmonicMap(TruncatedSeries(s), TruncatedSeries(t))
        out.append((p, f))
    for order in (16, 128, 512):
        p = random_params(rng)
        out.append((p, make_extremal_full(p, order)))
    return out


PARAMS, MAPS = zip(*_maps())
VIOLATORS = (7, 8, 9)


def _radial(h: TruncatedSeries) -> TruncatedSeries:
    """z h'(z), the series with coefficients k*c_k."""
    return TruncatedSeries(h.coeffs * np.arange(len(h.coeffs)))


def _assert_same_verdict(v, ref, bound):
    assert v.holds == ref.holds
    assert v.samples == ref.samples
    assert abs(v.margin - ref.margin) <= bound


@pytest.mark.parametrize("k", range(len(MAPS)))
class TestGridChecks:
    def test_sense_preserving(self, k):
        f = MAPS[k]
        v, ref = sense_preserving_check(f, GRID), helpers.sense_preserving_horner(f, GRID)
        radii = GRID.radii()
        bound = ring_rounding_bound(f.s.derivative(), radii, 96) + ring_rounding_bound(f.t.derivative(), radii, 96)
        _assert_same_verdict(v, ref, float(np.max(bound)))

    @pytest.mark.parametrize("eps", [1.0, -1.0, 1j, np.exp(0.7j)])
    def test_close_to_convex_and_half_plane(self, k, eps):
        F = MAPS[k].analytic_slice(eps)
        radii = GRID.radii()
        bound = float(np.max(ring_rounding_bound(F.derivative(), radii, 96)))
        _assert_same_verdict(close_to_convex_check(F, GRID), helpers.close_to_convex_horner(F, GRID), bound)
        bound = float(np.max(ring_rounding_bound(TruncatedSeries(F.coeffs[1:]), radii, 96)))
        _assert_same_verdict(half_plane_check(F, GRID), helpers.half_plane_horner(F, GRID), bound)


@pytest.mark.parametrize("k", range(len(MAPS)))
class TestSlicesAndEnvelope:
    @pytest.mark.parametrize("n_eps", [4, 16])
    def test_slice_membership(self, k, n_eps):
        p, f = PARAMS[k], MAPS[k]
        v, ref = slice_membership_sampled(f, p, n_eps, GRID), helpers.slice_membership_horner(f, p, n_eps, GRID)
        radii = GRID.radii()
        bound = ring_rounding_bound(operator_coeffs(f.s, p), radii, 96) + ring_rounding_bound(operator_coeffs(f.t, p), radii, 96)
        _assert_same_verdict(v, ref, float(np.max(bound)))
        if k in VIOLATORS:
            assert not v.holds

    @pytest.mark.parametrize("n_terms", [16, 600])
    def test_growth_envelope(self, k, n_terms):
        p, f = PARAMS[k], MAPS[k]
        v, ref = growth_envelope_check(f, p, GRID, n_terms), helpers.growth_envelope_horner(f, p, GRID, n_terms)
        radii = GRID.radii()
        bound = ring_rounding_bound(f.s, radii, 96) + ring_rounding_bound(f.t, radii, 96)
        _assert_same_verdict(v, ref, float(np.max(bound)))


@pytest.mark.parametrize("r", [0.3, 0.75, 0.95])
@pytest.mark.parametrize("k", range(len(MAPS)))
class TestCircleTests:
    N = 512

    def _value_bounds(self, f, r):
        """Bounds on the error of f and of the rate z s' - conj(z t') on the circle."""
        value = ring_rounding_bound(f.s, [r], self.N) + ring_rounding_bound(f.t, [r], self.N)
        rate = ring_rounding_bound(_radial(f.s), [r], self.N) + ring_rounding_bound(_radial(f.t), [r], self.N)
        return float(value[0]), float(rate[0])

    def test_circle_image(self, k, r):
        f = MAPS[k]
        value, _ = self._value_bounds(f, r)
        diff = np.abs(circle_image(f, r, self.N).points - helpers.circle_image_horner(f, r, self.N))
        assert np.all(diff <= value)

    def test_starlike(self, k, r):
        f = MAPS[k]
        value, rate_err = self._value_bounds(f, r)
        fv = helpers.circle_image_horner(f, r, self.N)
        rate = np.abs(helpers.circle_rate_horner(f, helpers.circle_points(r, self.N)))
        # |d(a/b)| <= (|da| + |a/b| |db|) / |b|, plus the rounding of the quotient
        bound = float(np.max((rate_err + rate / np.abs(fv) * value) / np.abs(fv) + 4 * EPS * rate / np.abs(fv)))
        ref = helpers.starlike_on_circle_horner(f, r, self.N)
        _assert_same_verdict(starlike_on_circle(f, r, self.N), ref, bound)

    def test_convex(self, k, r):
        f = MAPS[k]
        _, rate_err = self._value_bounds(f, r)
        tangent = np.abs(helpers.circle_rate_horner(f, helpers.circle_points(r, self.N)))
        # an angle moves by at most |d tangent| / |tangent| plus its own rounding;
        # a rate is two angle steps over 2 dtheta, the total turning n steps
        angle = float(np.max(rate_err / tangent)) + 4 * EPS
        dtheta = 2 * np.pi / self.N
        ref = helpers.convex_on_circle_horner(f, r, self.N)
        v = convex_on_circle(f, r, self.N)
        _assert_same_verdict(v, ref, max(2 * angle / dtheta, 2 * self.N * angle))


@pytest.mark.parametrize("prop", ["starlike", "convex"])
def test_oracle_radii_are_identical(prop, monkeypatch):
    maps = [MAPS[k] for k in (0, 3, 5, 7, 8, 9, 10, 11)]
    ring = [numeric_radius_oracle(f, prop, n_theta=512) for f in maps]
    monkeypatch.setattr(geometry, "starlike_on_circle", helpers.starlike_on_circle_horner)
    monkeypatch.setattr(geometry, "convex_on_circle", helpers.convex_on_circle_horner)
    horner = [numeric_radius_oracle(f, prop, n_theta=512) for f in maps]
    assert [rep.radius for rep in ring] == [rep.radius for rep in horner]
    assert [(rep.bracket, rep.iterations) for rep in ring] == [(rep.bracket, rep.iterations) for rep in horner]


@pytest.mark.parametrize(
    "grid",
    [
        GRID,
        PolarGrid(max_radius=0.9, n_radii=24, n_angles=96),
        PolarGrid(max_radius=0.99, n_radii=1, n_angles=4),
        PolarGrid(max_radius=0.37, n_radii=7, n_angles=333),
        PolarGrid(max_radius=0.95, n_radii=96, n_angles=384),
    ],
)
def test_witness_from_the_axes_is_the_grid_point(grid):
    """Each grid check forms its witness as radii[i] * phases[j]: bitwise the grid point."""
    pts = grid.points()
    radii, phases = grid.radii(), grid.phases()
    formed = [repr(complex(r * ph)) for r in radii for ph in phases]
    assert formed == [repr(complex(z)) for z in pts.ravel()]
    rng = np.random.default_rng(grid.n_angles)
    for idx in rng.integers(0, pts.size, 20):
        margins = np.ones(pts.shape)
        margins.flat[idx] = -1.0
        v = verdict_from_margins(margins, (radii, phases), "")
        assert repr(v.witness) == repr(verdict_from_margins(margins, pts, "").witness)
