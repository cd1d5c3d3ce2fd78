import dataclasses
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from harmonicdisk import (
    ClassParams,
    DomainError,
    HarmonicMap,
    PolarGrid,
    TruncatedSeries,
    coefficient_bound_check,
    growth_envelope_check,
    growth_lower,
    growth_upper,
    identity_map,
    make_extremal_full,
    make_extremal_single,
)
from harmonicdisk.bounds import _envelope
from harmonicdisk.closure import random_member
from harmonicdisk.series import _radius_powers

from helpers import mixed_order_map, random_params

P110 = ClassParams(1, 1, 0)

# dilogarithm oracle: at (1, 1, 0) the bounds at r collapse to
# r + 2*(Li2(r) - r) and r + 2*(-Li2(-r) - r)
UPPER_HALF = 0.5 + 2 * (float(mpmath.polylog(2, 0.5)) - 0.5)
LOWER_HALF = 0.5 + 2 * (-float(mpmath.polylog(2, -0.5)) - 0.5)


class TestCoefficientBounds:
    def test_single_extremal_is_sharp(self):
        report = coefficient_bound_check(make_extremal_single(P110, 2, order=4), P110)
        assert report.row(2).slack_b == 0.0
        assert report.row(3).abs_b == 0.0
        assert report.all_within

    def test_full_extremal_attains_modulus_bounds(self):
        p = ClassParams(1.5, 2.5, 0.25)
        f = make_extremal_full(p, 16)
        report = coefficient_bound_check(f, p)
        for row in report.rows:
            assert abs(row.slack_a) <= 1e-15
            assert abs(row.slack_sum) <= 1e-15
            assert abs(row.slack_diff) <= 1e-15

    def test_identity_slack_equals_bound(self):
        report = coefficient_bound_check(identity_map(8), P110)
        for row in report.rows:
            assert row.slack_a == row.bound_a and row.slack_b == row.bound_b

    def test_violation_reported_not_raised(self):
        f = HarmonicMap(TruncatedSeries([0, 1, 0]), TruncatedSeries([0, 0, 0.5]))
        report = coefficient_bound_check(f, P110)
        assert report.row(2).slack_b == pytest.approx(-0.25)
        assert not report.all_within

    @pytest.mark.parametrize("s_order,t_order", [(5, 17), (17, 5)])
    def test_mixed_orders_match_per_index_rows(self, s_order, t_order):
        rng = np.random.default_rng(s_order)
        p = random_params(rng)
        f = mixed_order_map(rng, s_order, t_order)
        expected = []
        for m in range(2, f.order + 1):
            bound_b = p.coefficient_budget() / p.coefficient_weight(m)
            a, b = abs(f.s.coeff(m)), abs(f.t.coeff(m))
            bound_a = 2.0 * bound_b
            expected.append(
                (m, a, b, bound_a, bound_b, bound_a - a, bound_b - b, bound_a - (a + b), bound_a - abs(a - b))
            )
        assert [dataclasses.astuple(r) for r in coefficient_bound_check(f, p).rows] == expected


class TestGrowthValues:
    def test_upper_against_dilogarithm(self):
        est = growth_upper(P110, 0.5, 512)
        assert est.value == pytest.approx(UPPER_HALF, abs=1e-12)
        # Li2(1/2) also has the elementary form pi^2/12 - ln(2)^2/2
        elementary = 0.5 + 2 * (math.pi**2 / 12 - math.log(2) ** 2 / 2 - 0.5)
        assert est.value == pytest.approx(elementary, abs=1e-12)

    def test_lower_against_dilogarithm(self):
        est = growth_lower(P110, 0.5, 512)
        assert est.value == pytest.approx(LOWER_HALF, abs=1e-12)

    def test_zero_radius(self):
        assert growth_upper(P110, 0.0, 16).value == 0.0
        assert growth_lower(P110, 0.0, 16).value == 0.0

    def test_monotone_in_radius(self):
        assert growth_upper(P110, 0.6, 64).value > growth_upper(P110, 0.5, 64).value

    def test_lower_below_radius_below_upper(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            p = random_params(rng)
            r = float(rng.uniform(0.05, 0.95))
            assert growth_lower(p, r, 64).value <= r <= growth_upper(p, r, 64).value

    @pytest.mark.parametrize("r", [1.0, -0.1, 1.5])
    def test_rejects_bad_radius(self, r):
        with pytest.raises(DomainError):
            growth_upper(P110, r, 64)
        with pytest.raises(DomainError):
            growth_lower(P110, r, 64)

    def test_rejects_short_sum(self):
        with pytest.raises(DomainError):
            growth_upper(P110, 0.5, 1)


class TestGrowthTails:
    def test_upper_tail_majorizes_refinement(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            p = random_params(rng)
            r = float(rng.uniform(0.1, 0.9))
            n = int(rng.integers(4, 64))
            coarse = growth_upper(p, r, n)
            fine = growth_upper(p, r, 2 * n)
            assert fine.value >= coarse.value  # nondecreasing in N
            assert fine.value - coarse.value <= coarse.tail

    def test_lower_tail_majorizes_refinement(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            p = random_params(rng)
            r = float(rng.uniform(0.1, 0.9))
            n = int(rng.integers(4, 64))
            coarse = growth_lower(p, r, n)
            fine = growth_lower(p, r, 2 * n)
            assert abs(fine.value - coarse.value) <= coarse.tail

    def test_bound_depends_only_on_modulus(self):
        # |r e^{i theta}| reproduces the same bound at every rotation
        for theta in 2 * np.pi * np.arange(8) / 8:
            r = abs(0.7 * np.exp(1j * theta))
            assert growth_upper(P110, r, 64).value == growth_upper(P110, 0.7, 64).value


class TestSharpness:
    def test_full_extremal_attains_upper_bound(self):
        rng = np.random.default_rng(47)
        for _ in range(5):
            p = random_params(rng)
            f = make_extremal_full(p, 64)
            for r in (0.3, 0.9):
                assert abs(f.evaluate(r)) == pytest.approx(
                    growth_upper(p, r, 64).value, abs=1e-12
                )


class TestEnvelopeRows:
    """The envelope arrays over all grid radii equal the per-radius bounds exactly."""

    @pytest.mark.parametrize("n_terms", [2, 3, 64, 600])
    def test_rows_equal_per_radius_values(self, n_terms):
        rng = np.random.default_rng(n_terms)
        for _ in range(10):
            p = random_params(rng)
            radii = PolarGrid(max_radius=float(rng.uniform(0.05, 0.99)), n_radii=17).radii()
            upper, upper_tail, lower, lower_tail = _envelope(p, radii, n_terms)
            upper, lower = upper + upper_tail, lower - lower_tail
            for r, u, lo in zip(radii.tolist(), upper.tolist(), lower.tolist()):
                up, low = growth_upper(p, r, n_terms), growth_lower(p, r, n_terms)
                assert u == up.value + up.tail
                assert lo == low.value - low.tail

    @pytest.mark.parametrize("n_terms", [16, 600])
    def test_check_equals_per_radius_loop(self, n_terms):
        rng = np.random.default_rng(7 + n_terms)
        for k in range(6):
            p = random_params(rng)
            # the full extremal attains the envelope: margin zero up to rounding
            f = make_extremal_full(p, n_terms) if k % 2 else random_member(p, rng, order=n_terms)
            grid = PolarGrid(max_radius=0.97, n_radii=9, n_angles=24)
            bounds = [(growth_upper(p, r, n_terms), growth_lower(p, r, n_terms)) for r in grid.radii()]
            upper = np.array([u.value + u.tail for u, _ in bounds])
            lower = np.array([lo.value - lo.tail for _, lo in bounds])
            # |f| from the same ring values as the check; the per-radius bounds are the reference
            absf = np.abs(f.rings(grid.radii(), grid.n_angles))
            margins = np.minimum(upper[:, None] - absf, absf - lower[:, None])
            v = growth_envelope_check(f, p, grid, n_terms)
            assert v.margin == float(margins.min())
            assert v.holds == bool(margins.min() > 0.0)


class TestEnvelopeBlocks:
    """Long sums run in column blocks: bounded memory, the one-array values."""

    @staticmethod
    def one_array(p, radii, n_terms):
        """The envelope sums as one (radius, m) array, the form before blocking."""
        m = np.arange(2.0, n_terms + 1)
        terms = 2.0 * p.coefficient_budget() * radii[:, None] ** m / p.coefficient_weight(m)
        signs = np.where(m % 2 == 0, -1.0, 1.0)
        return radii + np.sum(terms, axis=-1), radii + np.sum(signs * terms, axis=-1)

    def test_memory_does_not_grow_with_terms(self):
        def peak(n_terms):
            tracemalloc.start()
            try:
                growth_upper(P110, 0.5, n_terms)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(10**6) <= 2 * peak(10**5)

    @pytest.mark.parametrize(("n_radii", "n_terms"), [(1, 200_000), (40, 20_000), (17, 4096 * 3 + 5)])
    def test_several_blocks_match_one_array(self, n_radii, n_terms):
        rng = np.random.default_rng(n_terms)
        for _ in range(3):
            p = random_params(rng)
            radii = PolarGrid(max_radius=float(rng.uniform(0.5, 0.999)), n_radii=n_radii).radii()
            upper, _, lower, _ = _envelope(p, radii, n_terms)
            ref_upper, ref_lower = self.one_array(p, radii, n_terms)
            np.testing.assert_allclose(upper, ref_upper, rtol=1e-15, atol=0)
            # the alternating sum can cancel, so its error is relative to the sum of moduli
            assert np.all(np.abs(lower - ref_lower) <= 1e-15 * ref_upper)

    @pytest.mark.parametrize("n_terms", [2, 64, 4096])
    def test_one_block_is_bitwise_the_one_array(self, n_terms):
        rng = np.random.default_rng(3 + n_terms)
        p = random_params(rng)
        radii = PolarGrid(max_radius=0.95, n_radii=96).radii()
        upper, _, lower, _ = _envelope(p, radii, n_terms)
        ref_upper, ref_lower = self.one_array(p, radii, n_terms)
        assert upper.tobytes() == ref_upper.tobytes() and lower.tobytes() == ref_lower.tobytes()


class TestEnvelopeStop:
    """Past the first all-zero block the sums stop, bitwise the N-term sums."""

    @staticmethod
    def every_block(p, radii, n_terms):
        """The blocked sums over every block up to N, with no stop."""
        scale = 2.0 * p.coefficient_budget()
        upper, lower = np.zeros_like(radii), np.zeros_like(radii)
        cols = max(4096, 2**16 // len(radii))
        for m0 in range(2, n_terms + 1, cols):
            m = np.arange(float(m0), min(m0 + cols, n_terms + 1))
            terms = scale * _radius_powers(radii, m) / p.coefficient_weight(m)
            upper += np.sum(terms, axis=-1)
            lower += np.sum(np.where(m % 2 == 0, -1.0, 1.0) * terms, axis=-1)
        return radii + upper, radii + lower

    def test_time_does_not_grow_past_the_underflow(self, monkeypatch):
        calls = []

        def counting(radii, k):
            calls.append(len(k))
            return _radius_powers(radii, k)

        monkeypatch.setattr("harmonicdisk.bounds._radius_powers", counting)
        estimate = growth_upper(P110, 0.5, 10**8)
        assert len(calls) <= 2
        assert estimate.n_terms == 10**8 and estimate.tail == 0.0

    @pytest.mark.parametrize(
        ("radii", "n_terms"),
        [((0.0,), 300_000), ((0.5,), 200_000), ((0.0, 0.3, 0.6), 70_000), ((0.9,), 150_000)],
    )
    def test_stop_is_bitwise_the_sum_of_every_block(self, radii, n_terms):
        rng = np.random.default_rng(n_terms)
        radii = np.array(radii)
        for _ in range(3):
            p = random_params(rng)
            upper, _, lower, _ = _envelope(p, radii, n_terms)
            ref_upper, ref_lower = self.every_block(p, radii, n_terms)
            assert upper.tobytes() == ref_upper.tobytes() and lower.tobytes() == ref_lower.tobytes()


class TestEnvelopeCheck:
    def test_identity_inside_envelope(self):
        rng = np.random.default_rng(53)
        for _ in range(5):
            p = random_params(rng)
            assert growth_envelope_check(identity_map(), p).holds

    def test_single_extremal_inside_envelope(self):
        v = growth_envelope_check(make_extremal_single(P110, 2), P110)
        assert v.holds

    @pytest.mark.parametrize("n_terms", [0, 1])
    def test_rejects_short_sum(self, n_terms):
        with pytest.raises(DomainError):
            growth_envelope_check(identity_map(), P110, n_terms=n_terms)

    def test_violator_breaks_envelope(self):
        # b_2 = 0.5 violates the coefficient bound; near the rim the modulus
        # |f| = r - r^2/2 at theta = pi/3 drops below the lower envelope
        f = HarmonicMap(TruncatedSeries([0, 1, 0]), TruncatedSeries([0, 0, 0.5]))
        v = growth_envelope_check(f, P110, PolarGrid(max_radius=0.99))
        assert not v.holds
        assert abs(abs(v.witness) - 0.99) < 1e-12
        lo = growth_lower(P110, 0.99, 64)
        assert abs(f.evaluate(0.99 * np.exp(1j * np.pi / 3))) < lo.value - lo.tail
