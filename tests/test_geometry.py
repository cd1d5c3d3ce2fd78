import math

import numpy as np
import pytest

from harmonicdisk import (
    ClassParams,
    DegenerateCurveError,
    DomainError,
    HarmonicMap,
    TruncatedSeries,
    circle_image,
    convex_on_circle,
    identity_map,
    injective_on_circle,
    make_extremal_full,
    make_extremal_single,
    starlike_on_circle,
)
from harmonicdisk import geometry
from harmonicdisk.closure import random_member
from harmonicdisk.series import eval_many

from helpers import dense_injective, random_params

P110 = ClassParams(1, 1, 0)


def map_from(s_coeffs, t_coeffs):
    return HarmonicMap(TruncatedSeries(s_coeffs), TruncatedSeries(t_coeffs))


class TestCircleImage:
    def test_identity_circle(self):
        poly = circle_image(identity_map(), 0.5, 128)
        assert poly.n == 128 and len(poly.points) == 128
        np.testing.assert_allclose(np.abs(poly.points), 0.5, atol=1e-15)

    def test_extremal_axis_values(self):
        f = make_extremal_single(P110, 2)
        r = 0.6
        poly = circle_image(f, r, 128)
        assert poly.points[0] == pytest.approx(r + 0.25 * r * r)
        assert poly.points[64] == pytest.approx(-r + 0.25 * r * r)  # theta = pi

    @pytest.mark.parametrize("r", [0.0, 1.0, 1.5])
    def test_rejects_bad_radius(self, r):
        with pytest.raises(DomainError):
            circle_image(identity_map(), r, 128)

    def test_rejects_too_few_samples(self):
        with pytest.raises(DomainError):
            circle_image(identity_map(), 0.5, 32)


class TestStarlikeOnCircle:
    def test_identity_has_unit_rate(self):
        v = starlike_on_circle(identity_map(), 0.7, 256)
        assert v.holds and v.margin == pytest.approx(1.0)

    def test_extremal_inside_starlike_radius(self):
        assert starlike_on_circle(make_extremal_single(P110, 2), 0.2, 256).holds

    def test_heavy_map_fails_near_rim(self):
        f = map_from([0, 1, 0], [0, 0, 0.9])
        assert not starlike_on_circle(f, 0.9, 512).holds

    def test_zero_on_circle_is_degenerate(self):
        # z - 1.5 conj(z)^3 vanishes at theta = 0 on r = sqrt(2/3)
        f = map_from([0, 1, 0, 0], [0, 0, 0, -1.5])
        with pytest.raises(DegenerateCurveError):
            starlike_on_circle(f, math.sqrt(2 / 3), 256)

    def test_matches_classical_formula_for_analytic_maps(self):
        rng = np.random.default_rng(101)
        for _ in range(5):
            p = random_params(rng)
            f = random_member(p, rng, order=8)
            f = HarmonicMap(f.s, TruncatedSeries.zero(f.s.order))  # analytic only
            r, n = 0.7, 512
            v = starlike_on_circle(f, r, n)
            z = r * np.exp(2j * np.pi * np.arange(n) / n)
            classical = np.real(z * eval_many(f.s.derivative(), z) / eval_many(f.s, z))
            assert v.margin == pytest.approx(float(classical.min()), abs=1e-10)


class TestConvexOnCircle:
    def test_identity_turning_rate(self):
        v = convex_on_circle(identity_map(), 0.4, 256)
        assert v.holds and v.margin == pytest.approx(1.0, abs=1e-9)

    def test_full_extremal_inside_convex_radius(self):
        assert convex_on_circle(make_extremal_full(P110, 64), 0.2, 512).holds

    def test_full_extremal_eventually_fails(self):
        # the truncated full extremal loses circle convexity near r ~ 0.947
        assert not convex_on_circle(make_extremal_full(P110, 64), 0.97, 512).holds

    def test_turning_rate_converges_under_refinement(self):
        rng = np.random.default_rng(103)
        for _ in range(5):
            p = random_params(rng)
            f = random_member(p, rng, order=8)
            coarse = convex_on_circle(f, 0.5, 1024).margin
            fine = convex_on_circle(f, 0.5, 2048).margin
            assert abs(fine - coarse) < 1e-4

    def test_wrong_turning_number_is_diagnosed(self):
        # s' = 1 + 2.5 z^4 winds around the origin at r = 0.9, so the image
        # tangent turns five full times
        f = map_from([0, 1, 0, 0, 0, 0.5], [0, 0, 0, 0, 0, 0])
        v = convex_on_circle(f, 0.9, 512)
        assert not v.holds and v.margin <= 0
        assert "turning" in v.evidence

    def test_vanishing_tangent_is_degenerate(self):
        # s' = 1 - z^2/0.49 vanishes at z = +-0.7
        f = map_from([0, 1, 0, -1 / (3 * 0.49)], [0, 0, 0, 0])
        with pytest.raises(DegenerateCurveError):
            convex_on_circle(f, 0.7, 256)

    def test_convex_implies_starlike_on_members(self):
        rng = np.random.default_rng(107)
        for _ in range(10):
            p = random_params(rng)
            f = random_member(p, rng)
            r = float(rng.uniform(0.1, 0.6))
            if convex_on_circle(f, r, 512).holds:
                assert starlike_on_circle(f, r, 512).holds


class TestInjectiveOnCircle:
    def test_identity_injective(self):
        assert injective_on_circle(identity_map(), 0.5, 128)

    def test_extremal_injective_inside(self):
        assert injective_on_circle(make_extremal_single(P110, 2), 0.3, 128)

    def test_sense_reversed_map_self_intersects(self):
        f = map_from([0, 1, 0], [0, 0, 0.9])
        assert not injective_on_circle(f, 0.99, 256)


def _looping_map(rng: np.random.Generator) -> HarmonicMap:
    """Low-order map whose circle images often loop (large co-analytic part)."""
    order = int(rng.integers(2, 7))
    s = np.zeros(order + 1, dtype=np.complex128)
    t = np.zeros(order + 1, dtype=np.complex128)
    s[1] = 1.0
    scale = rng.uniform(0.0, 1.2) / np.arange(2, order + 1)
    s[2:] = 0.3 * scale * (rng.standard_normal(order - 1) + 1j * rng.standard_normal(order - 1))
    t[2:] = scale * (rng.standard_normal(order - 1) + 1j * rng.standard_normal(order - 1))
    return HarmonicMap(TruncatedSeries(s), TruncatedSeries(t))


def _zigzag(m: int) -> np.ndarray:
    """Two vertical zig-zags of m points, the second 0.5 to the right, joined into one simple closed polyline.

    The zig-zag segments span x in [0, 1] and [0.5, 1.5]; for odd m both joins
    span [0, 0.5], so every pair of segments overlaps in x (some only at the
    tie x = 0.5): the worst case of the sweep, with n(n - 1)/2 candidates.
    """
    up = np.arange(m) % 2 + 1j * np.arange(m)
    return np.concatenate([up, (up + 0.5)[::-1]])


def _record_blocks(monkeypatch) -> list:
    """Record (size, first i, last i) of every candidate block the scan expands."""
    blocks, sweep = [], geometry._x_overlap_pairs

    def recording(x0, x1):
        for i, j in sweep(x0, x1):
            blocks.append((len(i), i[0], i[-1]))
            yield i, j

    monkeypatch.setattr(geometry, "_x_overlap_pairs", recording)
    return blocks


class TestBlockedInjectivityScan:
    """The sort-and-sweep scan, expanded in blocks, agrees with the dense n-by-n reference."""

    @pytest.mark.parametrize("block", [geometry._PAIR_BLOCK, 1009])
    def test_matches_dense_reference(self, block, monkeypatch):
        monkeypatch.setattr(geometry, "_PAIR_BLOCK", block)
        rng = np.random.default_rng(block)
        verdicts = []
        for _ in range(200):
            f = _looping_map(rng)
            r = float(rng.uniform(0.3, 0.98))
            n = int(rng.integers(64, 300))
            expected = dense_injective(circle_image(f, r, n).points)
            assert injective_on_circle(f, r, n) == expected
            verdicts.append(expected)
        # both outcomes are exercised in quantity
        assert 40 <= sum(verdicts) <= 160

    @pytest.mark.parametrize("n", [1000, 1024])
    def test_blocks_that_do_not_divide_the_rows(self, n):
        rows = geometry._PAIR_BLOCK // n
        assert 1 < rows and (n - 2) % rows != 0
        rng = np.random.default_rng(n)
        seen = set()
        for _ in range(6):
            f = _looping_map(rng)
            expected = dense_injective(circle_image(f, 0.95, n).points)
            assert injective_on_circle(f, 0.95, n) == expected
            seen.add(expected)
        assert seen == {True, False}

    @pytest.mark.parametrize("block", [geometry._PAIR_BLOCK, 67 * 5, 67 * 4])
    def test_single_crossing_found_at_every_position(self, block, monkeypatch):
        # swapping vertices k and k+1 of a regular polygon makes segments k-1
        # and k+1 the diagonals of a convex quadrilateral: one proper crossing
        monkeypatch.setattr(geometry, "_PAIR_BLOCK", block)
        n = 67
        polygon = np.exp(2j * np.pi * np.arange(n) / n)
        assert geometry._polyline_is_simple(polygon)
        for k in range(n):
            a = polygon.copy()
            a[[k, (k + 1) % n]] = a[[(k + 1) % n, k]]
            assert not dense_injective(a)
            assert not geometry._polyline_is_simple(a), k

    def test_touching_vertex_is_not_a_proper_crossing(self):
        # vertex 2 lies exactly on segment 0; reversed, on the last segment,
        # so the zero straddle is met both as forward and as reverse test
        a = np.array([0, 4, 4 + 4j, 2, 4j])
        for polyline in (a, a[::-1].copy()):
            assert dense_injective(polyline)
            assert geometry._polyline_is_simple(polyline)

    @pytest.mark.parametrize("block", [1, 1000, 1 << 18])
    def test_x_overlap_pairs_are_exactly_the_overlapping_pairs(self, block, monkeypatch):
        # integer extents, so ties between one segment's largest x and
        # another's smallest x are common, and zero-width (vertical) extents too
        monkeypatch.setattr(geometry, "_PAIR_BLOCK", block)
        rng = np.random.default_rng(block)
        for n in (1, 2, 5, 64, 300):
            x0 = np.sort(rng.integers(0, 40, n)).astype(float)
            x1 = x0 + rng.integers(0, 6, n)
            got = [(int(i), int(j)) for bi, bj in geometry._x_overlap_pairs(x0, x1) for i, j in zip(bi, bj)]
            want = [(i, j) for i in range(n) for j in range(i + 1, n) if x0[j] <= x1[i]]
            assert sorted(got) == want and len(set(got)) == len(got)

    def test_all_overlap_zigzag_with_runs_across_blocks(self, monkeypatch):
        # blocks of max(n, 1) = n pairs, and every pair overlaps in x, so the
        # runs of up to n - 1 candidates straddle block boundaries
        monkeypatch.setattr(geometry, "_PAIR_BLOCK", 1)
        a = _zigzag(101)
        n = len(a)
        crossed = a.copy()
        crossed[150] -= 1.5  # a vertex of the right zig-zag moved left across the other
        blocks = _record_blocks(monkeypatch)
        for polyline, simple in ((crossed, False), (a, True)):
            blocks.clear()
            assert dense_injective(polyline) is simple
            assert geometry._polyline_is_simple(polyline) is simple
            assert max(size for size, _, _ in blocks) <= n
        # the simple one expands every pair, and some runs end one block and
        # go on in the next
        assert sum(size for size, _, _ in blocks) == n * (n - 1) // 2
        assert any(prev[2] == cur[1] for prev, cur in zip(blocks, blocks[1:]))

    def test_vertical_segments_and_repeated_x(self):
        # lattice walks and polylines on a few x values: many vertical
        # segments, collinear overlaps, touching vertices and proper crossings
        rng = np.random.default_rng(41)
        verdicts = []
        for trial in range(300):
            n = int(rng.integers(4, 30))
            if trial % 2:
                a = rng.integers(0, 5, n) + 1j * rng.integers(0, 5, n) * rng.integers(0, 2, n)
            else:
                a = np.cumsum(rng.choice([1, -1, 1j, -1j], n) * rng.integers(1, 4, n))
            expected = dense_injective(a)
            assert geometry._polyline_is_simple(a) == expected, trial
            verdicts.append(expected)
        # a skyline polygon is simple; spikes through its base cross it
        heights = rng.integers(1, 6, 40)
        top = [(x + 1j * h, x + 1 + 1j * h) for x, h in enumerate(heights)]
        skyline = np.array([0] + [p for seg in top for p in seg] + [40], dtype=complex)
        h = 1j * heights[10]
        spiked = np.concatenate([skyline[:22], [10.25 + h, 10.25 - 1j, 10.75 - 1j, 10.75 + h], skyline[22:]])
        for polyline, simple in ((skyline, True), (spiked, False)):
            assert dense_injective(polyline) is simple
            assert geometry._polyline_is_simple(polyline) is simple
        assert 40 <= sum(verdicts) <= 260

    def test_all_overlap_blocks_stay_bounded(self, monkeypatch):
        blocks = _record_blocks(monkeypatch)
        a = _zigzag(1025)
        n = len(a)
        assert n >= 2048
        assert geometry._polyline_is_simple(a) and dense_injective(a)
        assert sum(size for size, _, _ in blocks) == n * (n - 1) // 2
        assert len(blocks) > 1 and max(size for size, _, _ in blocks) <= max(n, geometry._PAIR_BLOCK)
