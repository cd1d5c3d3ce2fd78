import dataclasses
import math

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


class TestEnvelopeCheck:
    def test_identity_inside_envelope(self):
        rng = np.random.default_rng(53)
        for _ in range(5):
            p = random_params(rng)
            assert growth_envelope_check(identity_map(), p).holds

    def test_single_extremal_inside_envelope(self):
        v = growth_envelope_check(make_extremal_single(P110, 2), P110)
        assert v.holds

    def test_violator_breaks_envelope(self):
        # b_2 = 0.5 violates the coefficient bound; near the rim the modulus
        # |f| = r - r^2/2 at theta = pi/3 drops below the lower envelope
        f = HarmonicMap(TruncatedSeries([0, 1, 0]), TruncatedSeries([0, 0, 0.5]))
        v = growth_envelope_check(f, P110, PolarGrid(max_radius=0.99))
        assert not v.holds
        assert abs(abs(v.witness) - 0.99) < 1e-12
        lo = growth_lower(P110, 0.99, 64)
        assert abs(f.evaluate(0.99 * np.exp(1j * np.pi / 3))) < lo.value - lo.tail
