import numpy as np
import pytest

from harmonicdisk import (
    ClassParams,
    DomainError,
    HarmonicMap,
    NormalizationError,
    PolarGrid,
    TruncatedSeries,
    convex_combination,
    convolve_analytic,
    convolve_harmonic,
    identity_map,
    make_extremal_single,
    membership_sampled,
    membership_sufficient,
)
from harmonicdisk.closure import random_member

from helpers import fejer_riesz_member, random_params

P110 = ClassParams(1, 1, 0)


def map_from(s_coeffs, t_coeffs):
    return HarmonicMap(TruncatedSeries(s_coeffs), TruncatedSeries(t_coeffs))


class TestConvexCombination:
    def test_single_map_unchanged(self):
        f = make_extremal_single(P110, 2)
        out = convex_combination([f], [1.0])
        np.testing.assert_array_equal(out.s.coeffs, f.s.coeffs)
        np.testing.assert_array_equal(out.t.coeffs, f.t.coeffs)

    def test_idempotent(self):
        f = make_extremal_single(P110, 3)
        out = convex_combination([f, f], [0.5, 0.5])
        np.testing.assert_allclose(out.t.coeffs, f.t.coeffs)

    def test_arithmetic(self):
        f1 = map_from([0, 1, 0, 0], [0, 0, 0.25, 0])
        f2 = map_from([0, 1, 0, 0], [0, 0, 0, 1 / 9])
        out = convex_combination([f1, f2], [0.5, 0.5])
        np.testing.assert_allclose(out.t.coeffs, [0, 0, 0.125, 1 / 18])
        np.testing.assert_allclose(out.s.coeffs, [0, 1, 0, 0])

    def test_pads_the_shorter_part_of_a_map(self):
        # s has order 2 and t order 4, so the map and the combination have order 4
        f = map_from([0, 1, 0.1], [0, 0, 0, 0, 0.01])
        out = convex_combination([f], [1.0])
        np.testing.assert_array_equal(out.s.coeffs, [0, 1, 0.1, 0, 0])
        np.testing.assert_array_equal(out.t.coeffs, f.t.coeffs)

    def test_pads_to_the_largest_order(self):
        f1 = map_from([0, 1, 0.1], [0, 0, 0])
        f2 = map_from([0, 1, 0.1, 0.05], [0, 0, 0, 0.02])
        out = convex_combination([f1, f2], [0.5, 0.5])
        assert out.order == 3
        np.testing.assert_array_equal(out.s.coeffs, [0, 1, 0.1, 0.025])
        np.testing.assert_array_equal(out.t.coeffs, [0, 0, 0, 0.01])

    def test_truncating_fejer_riesz_members_leaves_the_class(self):
        # two members of orders 6 and 8, outside the coefficient-sum subclass:
        # dropping the top coefficients of the second takes the combination
        # out of the class, and the padded combination stays in it
        rng = np.random.default_rng(15)
        p = random_params(rng)
        maps = []
        for d in sorted(rng.choice(np.arange(2, 12), size=2, replace=False)):
            P = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
            maps.append(fejer_riesz_member(p, P, 0.999 * np.exp(2j * np.pi * rng.uniform())))
        f1, f2 = maps
        assert (f1.order, f2.order) == (6, 8)
        assert all(membership_sampled(f, p).holds and not membership_sufficient(f, p).holds for f in maps)
        truncated = map_from(f2.s.coeffs[:7], f2.t.coeffs[:7])
        assert not membership_sampled(convex_combination([f1, truncated], [0.5, 0.5]), p).holds
        padded = convex_combination([f1, f2], [0.5, 0.5])
        assert padded.order == 8 and membership_sampled(padded, p).holds

    @pytest.mark.parametrize(
        "weights",
        [[0.5, 0.6], [0.5, -0.5], [1.5, -0.5], [0.9]],
    )
    def test_rejects_bad_weights(self, weights):
        maps = [identity_map(4)] * len(weights)
        with pytest.raises(DomainError):
            convex_combination(maps, weights)

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            convex_combination([], [])


class TestConvolveHarmonic:
    def test_geometric_identity_on_analytic_map(self):
        f = map_from([0, 1, 0.3, -0.2j], [0, 0, 0, 0])
        geo = HarmonicMap(TruncatedSeries.geometric(3), TruncatedSeries.zero(3))
        out = convolve_harmonic(f, geo)
        np.testing.assert_allclose(out.s.coeffs, f.s.coeffs)

    def test_square_of_extremal(self):
        f = make_extremal_single(P110, 2, order=2)
        out = convolve_harmonic(f, f)
        np.testing.assert_allclose(out.t.coeffs, [0, 0, 0.0625])

    def test_identity_annihilates_higher_terms(self):
        f = map_from([0, 1, 0.3], [0, 0, 0.25])
        out = convolve_harmonic(f, identity_map(1))
        np.testing.assert_allclose(out.s.coeffs, [0, 1])
        np.testing.assert_allclose(out.t.coeffs, [0, 0])

    def test_bilinear_in_second_argument(self):
        rng = np.random.default_rng(59)
        p = random_params(rng)
        f = random_member(p, rng, order=8)
        g1 = random_member(p, rng, order=8)
        g2 = random_member(p, rng, order=8)
        w = 0.3
        combo = convex_combination([g1, g2], [w, 1 - w])
        lhs = convolve_harmonic(f, combo)
        r1 = convolve_harmonic(f, g1)
        r2 = convolve_harmonic(f, g2)
        rhs = convex_combination([r1, r2], [w, 1 - w])
        np.testing.assert_allclose(lhs.s.coeffs, rhs.s.coeffs, atol=1e-14)
        np.testing.assert_allclose(lhs.t.coeffs, rhs.t.coeffs, atol=1e-14)


class TestConvolveAnalytic:
    def test_geometric_factor_is_identity(self):
        f = make_extremal_single(P110, 2, order=6)
        out = convolve_analytic(f, TruncatedSeries.geometric(6))
        np.testing.assert_allclose(out.s.coeffs, f.s.coeffs)
        np.testing.assert_allclose(out.t.coeffs, f.t.coeffs)

    def test_linear_factor_annihilates(self):
        f = make_extremal_single(P110, 2, order=4)
        out = convolve_analytic(f, TruncatedSeries([0, 1]))
        np.testing.assert_allclose(out.s.coeffs, [0, 1])

    def test_arithmetic(self):
        f = map_from([0, 1, 0], [0, 0, 0.25])
        out = convolve_analytic(f, TruncatedSeries([0, 1, 0.5]))
        np.testing.assert_allclose(out.t.coeffs, [0, 0, 0.125])

    def test_rejects_unnormalized_factor(self):
        with pytest.raises(NormalizationError):
            convolve_analytic(identity_map(2), TruncatedSeries([0, 2.0]))
        with pytest.raises(NormalizationError, match=r"phi\[0\]: phi\(0\) must be 0"):
            convolve_analytic(identity_map(2), TruncatedSeries([0.1, 1.0]))


class TestClosureUnderMembership:
    """Operations on certified members stay in the class (sampled evidence)."""

    def test_closure_operations_preserve_membership(self):
        rng = np.random.default_rng(61)
        grid = PolarGrid(max_radius=0.95)
        for _ in range(10):
            p = random_params(rng)
            f1 = random_member(p, rng)
            f2 = random_member(p, rng)
            combo = convex_combination([f1, f2], [0.5, 0.5])
            assert membership_sampled(combo, p, grid).margin >= -1e-9
            conv = convolve_harmonic(f1, f2)
            assert membership_sampled(conv, p, grid).margin >= -1e-9
            good = convolve_analytic(f1, TruncatedSeries.geometric(f1.order))
            assert membership_sampled(good, p, grid).margin >= -1e-9


class TestRandomMember:
    def test_sum_hits_target_fraction(self):
        rng = np.random.default_rng(67)
        for _ in range(20):
            p = random_params(rng)
            u = float(rng.uniform(0.05, 0.95))
            f = random_member(p, rng, u=u)
            cond = membership_sufficient(f, p)
            assert cond.holds
            assert cond.total == pytest.approx(u * p.coefficient_budget(), abs=1e-12)

    def test_zero_fraction_gives_identity(self):
        rng = np.random.default_rng(71)
        f = random_member(P110, rng, u=0.0)
        assert membership_sufficient(f, P110).total == 0.0

    def test_rejects_bad_fraction(self):
        rng = np.random.default_rng(73)
        with pytest.raises(DomainError):
            random_member(P110, rng, u=1.5)

    def test_overflowing_weight_is_a_domain_error(self):
        """A drawn coefficient at m >= 3 meets a weight that overflows to inf at delta 1e307."""
        rng = np.random.default_rng(79)
        with pytest.raises(DomainError, match="coefficient sum is not finite"):
            random_member(ClassParams(1, 1e307, 0), rng, order=16)

    def test_finite_weight_hits_target_at_large_delta(self):
        """Order 2 draws index 2 alone, whose weight 4e307 is finite: the sum is scaled, not dropped."""
        p = ClassParams(1, 1e307, 0)
        f = random_member(p, np.random.default_rng(83), order=2, u=0.5)
        assert np.any(f.s.coeffs[2:] != 0) or np.any(f.t.coeffs[2:] != 0)
        cond = membership_sufficient(f, p)
        assert cond.holds
        assert cond.total == pytest.approx(0.5 * p.coefficient_budget(), rel=1e-12)
