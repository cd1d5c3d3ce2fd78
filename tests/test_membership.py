import tracemalloc

import numpy as np
import pytest

from harmonicdisk import (
    ClassParams,
    DomainError,
    HarmonicMap,
    NormalizationError,
    PolarGrid,
    TruncatedSeries,
    apply_operator,
    close_to_convex_check,
    half_plane_check,
    identity_map,
    make_extremal_full,
    make_extremal_single,
    membership_sampled,
    membership_sufficient,
    operator_coeffs,
    slice_membership_sampled,
)
from harmonicdisk.closure import random_member
from harmonicdisk.sampling import verdict_from_margins
from harmonicdisk.series import eval_rings

from helpers import EPS, mixed_order_map, random_params, random_series

P110 = ClassParams(1, 1, 0)


def quarter_map(order=2):
    """z + 0.25 conj(z)^2, the boundary case of the sufficient condition."""
    return make_extremal_single(P110, 2, order=order)


def overweight_map():
    """z + 0.3 conj(z)^2, outside the class at (1, 1, 0)."""
    return HarmonicMap(TruncatedSeries([0, 1, 0]), TruncatedSeries([0, 0, 0.3]))


class TestApplyOperator:
    def test_identity_series_gives_gamma(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            p = random_params(rng)
            z = 0.7 * np.exp(2j * np.pi * rng.uniform())
            assert apply_operator(TruncatedSeries([0, 1]), p, z) == pytest.approx(p.gamma)

    def test_monomial_multiplier(self):
        # L[z^m] = m^2*(gamma + (delta-gamma)/2*(m-1)) * z^(m-1)
        got = apply_operator(TruncatedSeries.monomial(3), ClassParams(1, 3, 0), 1.0)
        assert got == pytest.approx(27.0, abs=1e-12)

    def test_quadratic_at_half(self):
        got = apply_operator(TruncatedSeries.monomial(2), P110, 0.5)
        assert got == pytest.approx(2.0, abs=1e-13)

    def test_multiplier_identity_range(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            p = random_params(rng)
            for m in range(2, 11):
                expected = m * m * (p.gamma + 0.5 * (p.delta - p.gamma) * (m - 1))
                got = apply_operator(TruncatedSeries.monomial(m), p, 1.0)
                assert got == pytest.approx(expected, abs=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            p = random_params(rng)
            h1 = random_series(rng, 8)
            h2 = random_series(rng, 8)
            alpha = complex(rng.standard_normal(), rng.standard_normal())
            z = 0.8 * np.exp(2j * np.pi * rng.uniform())
            combined = TruncatedSeries(alpha * h1.coeffs + h2.coeffs)
            lhs = apply_operator(combined, p, z)
            rhs = alpha * apply_operator(h1, p, z) + apply_operator(h2, p, z)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_rejects_outside_disk(self):
        with pytest.raises(DomainError):
            apply_operator(TruncatedSeries([0, 1]), P110, 1.2)


class TestOperatorCoeffs:
    """L as one coefficient multiplier: L z^m = (weight(m)/2) z^(m-1)."""

    @pytest.mark.parametrize("p", [P110, ClassParams(1, 3, 0), ClassParams(0.7, 1.3, 0.1)])
    def test_monomials(self, p):
        for m in range(13):
            got = operator_coeffs(TruncatedSeries.monomial(m), p).coeffs
            expected = np.zeros(max(m, 1), dtype=complex)
            if m >= 1:
                expected[m - 1] = p.coefficient_weight(m) / 2
            assert got.tobytes() == expected.tobytes(), m

    def test_constant_and_order_one(self):
        p = ClassParams(0.7, 1.3, 0.1)
        assert operator_coeffs(TruncatedSeries([3 - 2j]), p).coeffs.tolist() == [0j]
        # L(a + b z) = gamma * b
        assert operator_coeffs(TruncatedSeries([3 - 2j, 0.5 + 1j]), p).coeffs.tolist() == [0.7 * (0.5 + 1j)]

    def test_linearity(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            p = random_params(rng)
            h1, h2 = random_series(rng, 40), random_series(rng, 40)
            alpha = complex(rng.standard_normal(), rng.standard_normal())
            lhs = operator_coeffs(TruncatedSeries(alpha * h1.coeffs + h2.coeffs), p).coeffs
            a, b = operator_coeffs(h1, p).coeffs, operator_coeffs(h2, p).coeffs
            # each side rounds alpha*c, the sum and the weight product: a few ulp of the terms
            assert np.all(np.abs(lhs - (alpha * a + b)) <= 8 * EPS * (np.abs(alpha * a) + np.abs(b)))

    @pytest.mark.parametrize("order", [2, 3, 16, 97, 600])
    def test_values_match_apply_operator(self, order):
        rng = np.random.default_rng(300 + order)
        p = random_params(rng)
        h = random_series(rng, order)
        lh = operator_coeffs(h, p)
        for z in (0.0, 0.4 - 0.3j, 0.95 * np.exp(0.6j), -0.99):
            # both are Horner passes over the same terms (w_m/2) c_m z^(m-1):
            # 4(N+1) eps S each (Higham 5.1), plus a few roundings per term for
            # the weights and the three-derivative combination
            s = float(np.sum(np.abs(lh.coeffs) * abs(z) ** np.arange(order)))
            bound = (8 * (order + 1) + 16) * EPS * s
            assert abs(lh.evaluate(z) - apply_operator(h, p, z)) <= bound


class TestSufficientCondition:
    def test_identity_has_empty_sum(self):
        cond = membership_sufficient(identity_map(8), P110)
        assert cond.holds and cond.total == 0.0 and cond.budget == 2.0

    def test_boundary_case_holds(self):
        cond = membership_sufficient(quarter_map(), P110)
        assert cond.holds and cond.total == pytest.approx(2.0)

    def test_overweight_fails(self):
        cond = membership_sufficient(overweight_map(), P110)
        assert not cond.holds and cond.total == pytest.approx(2.4)

    @pytest.mark.parametrize("s_order,t_order", [(5, 17), (17, 5)])
    def test_mixed_orders_match_per_index_sum(self, s_order, t_order):
        rng = np.random.default_rng(s_order)
        p = random_params(rng)
        f = mixed_order_map(rng, s_order, t_order)
        expected = sum(
            p.coefficient_weight(m) * (abs(f.s.coeff(m)) + abs(f.t.coeff(m)))
            for m in range(2, f.order + 1)
        )
        assert membership_sufficient(f, p).total == pytest.approx(expected, rel=1e-15)


    def test_zero_coefficients_ignore_overflowing_weights(self):
        # at delta = 1e307 the weights of m >= 3 overflow to inf, but the only
        # nonzero coefficient is b_2 = 1/4, so the sum is weight(2) / 4
        f = make_extremal_single(P110, 2, order=64)
        p = ClassParams(1, 1e307, 0)
        cond = membership_sufficient(f, p)
        assert cond.total == p.coefficient_weight(2) * 0.25 == 1e307
        assert not cond.holds and cond.budget == 2.0

    def test_overflowing_sum_is_a_domain_error(self):
        # b_3 is nonzero, and its weight at delta = 1e307 overflows to inf
        f = make_extremal_single(P110, 3, order=64)
        message = r"coefficient sum is not finite \(inf\): the weighted moduli overflowed"
        with pytest.raises(DomainError, match=message):
            membership_sufficient(f, ClassParams(1, 1e307, 0))


class TestMembershipSampled:
    def test_identity_margin_is_gamma_minus_lambda(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            p = random_params(rng)
            v = membership_sampled(identity_map(), p)
            assert v.holds
            assert v.margin == pytest.approx(p.gamma - p.lam, abs=1e-12)

    def test_extremal_margin_at_outer_circle(self):
        # L t = z for this map, so the margin is 1 - max radius
        v = membership_sampled(quarter_map(), P110, PolarGrid(max_radius=0.9))
        assert v.holds
        assert v.margin == pytest.approx(0.1, abs=1e-12)
        assert abs(abs(v.witness) - 0.9) < 1e-12
        assert "not falsified" in v.evidence

    def test_overweight_fails_near_boundary(self):
        v = membership_sampled(overweight_map(), P110, PolarGrid(max_radius=0.99))
        assert not v.holds and v.margin == pytest.approx(1 - 1.2 * 0.99, abs=1e-12)

    def test_grid_touching_boundary_rejected(self):
        with pytest.raises(DomainError):
            PolarGrid(max_radius=1.0)


class TestSliceMembership:
    def test_identity_margin(self):
        v = slice_membership_sampled(identity_map(), P110, n_eps=8)
        assert v.margin == pytest.approx(1.0, abs=1e-12)

    def test_rejects_few_slices(self):
        with pytest.raises(DomainError):
            slice_membership_sampled(identity_map(), P110, n_eps=3)

    def test_dense_slices_match_modulus_form(self):
        # for this map |L t| is attained at an exactly sampled slice angle
        f = quarter_map()
        grid = PolarGrid(max_radius=0.9)
        direct = membership_sampled(f, P110, grid)
        sliced = slice_membership_sampled(f, P110, n_eps=64, grid=grid)
        assert sliced.margin == pytest.approx(direct.margin, abs=1e-12)
        # only the outer circle is sampled: 64 slices of its 96 angles
        assert sliced.samples == 64 * 96

    def test_failing_map_fails_some_slice(self):
        v = slice_membership_sampled(
            overweight_map(), P110, n_eps=64, grid=PolarGrid(max_radius=0.99)
        )
        assert not v.holds

    def test_equals_stacked_reference(self):
        """Margin and witness equal the minimum over the full (eps, radius, angle) stack.

        The stack is built from the same ring values of L s and L t, and its
        witness from the grid's (radii, phases) axes.  By the minimum
        principle its minimum lies on the outer circle, the only one the
        check samples, so ``samples`` counts the (eps, angle) pairs there.
        """
        rng = np.random.default_rng(41)
        for k in range(40):
            p = random_params(rng)
            f = random_member(p, rng, order=int(rng.integers(2, 40)))
            if k % 3 == 0:  # scaled far past the class bound, 5 of these 14 maps fail
                f = HarmonicMap(f.s, TruncatedSeries(300.0 * f.t.coeffs))
            grid = PolarGrid(
                max_radius=float(rng.uniform(0.1, 0.99)),
                n_radii=int(rng.integers(1, 30)),
                n_angles=int(rng.integers(4, 120)),
            )
            n_eps = int(rng.integers(4, 40))
            eps = np.exp(2j * np.pi * np.arange(n_eps) / n_eps)
            ls, lt = (eval_rings(operator_coeffs(h, p), grid.radii(), grid.n_angles) for h in (f.s, f.t))
            stacked = np.real(ls[None, :, :] + eps[:, None, None] * lt[None, :, :]) - p.lam
            ref = verdict_from_margins(stacked.min(axis=0), (grid.radii(), grid.phases()), "")
            v = slice_membership_sampled(f, p, n_eps=n_eps, grid=grid)
            assert (v.holds, v.margin, v.witness) == (ref.holds, ref.margin, ref.witness)
            assert v.samples == n_eps * grid.n_angles

    def test_memory_does_not_grow_with_slices(self):
        def peak(n_eps):
            tracemalloc.start()
            try:
                slice_membership_sampled(quarter_map(), P110, n_eps=n_eps)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(256) <= 2 * peak(4)


class TestAnalyticChecks:
    def test_close_to_convex_identity(self):
        v = close_to_convex_check(TruncatedSeries([0, 1]))
        assert v.margin == pytest.approx(1.0)

    def test_close_to_convex_linear_derivative(self):
        v = close_to_convex_check(TruncatedSeries([0, 1, 0.5]), PolarGrid(max_radius=0.9))
        # Re F' = 1 + Re z is minimized at z = -0.9
        assert v.holds and v.margin == pytest.approx(0.1, abs=1e-12)

    def test_close_to_convex_failure(self):
        v = close_to_convex_check(TruncatedSeries([0, 1, 1]), PolarGrid(max_radius=0.9))
        assert not v.holds and v.margin == pytest.approx(-0.8, abs=1e-12)

    def test_half_plane_identity(self):
        v = half_plane_check(TruncatedSeries([0, 1]))
        assert v.margin == pytest.approx(0.5)

    def test_half_plane_failure(self):
        v = half_plane_check(TruncatedSeries([0, 1, 1]), PolarGrid(max_radius=0.9))
        assert not v.holds and v.margin == pytest.approx(-0.4, abs=1e-12)

    def test_half_plane_full_extremal_slice(self):
        F = make_extremal_full(P110, 64).analytic_slice(1.0)
        v = half_plane_check(F, PolarGrid(max_radius=0.99))
        assert v.holds

    def test_rejects_unnormalized(self):
        with pytest.raises(NormalizationError):
            close_to_convex_check(TruncatedSeries([0, 2.0]))
        with pytest.raises(NormalizationError):
            half_plane_check(TruncatedSeries([0.3, 1.0]))

    @pytest.mark.parametrize(
        "check,coeffs,match",
        [
            (close_to_convex_check, [0, 2.0], r"F\[1\]: F'\(0\) must be 1"),
            (half_plane_check, [0.3, 1.0], r"F\[0\]: F\(0\) must be 0"),
            (half_plane_check, [0.0], r"F must have order >= 1"),
        ],
    )
    def test_normalization_error_names_the_coefficient(self, check, coeffs, match):
        with pytest.raises(NormalizationError, match=match):
            check(TruncatedSeries(coeffs))


class TestImplicationChain:
    """Sufficient condition => sampled membership => slice checks."""

    def test_random_members(self):
        rng = np.random.default_rng(31)
        grid = PolarGrid(max_radius=0.95)
        for _ in range(30):
            p = random_params(rng)
            f = random_member(p, rng)
            assert membership_sufficient(f, p).holds
            v = membership_sampled(f, p, grid)
            assert v.margin >= -1e-9
            for k in range(8):
                F = f.analytic_slice(np.exp(2j * np.pi * k / 8))
                assert close_to_convex_check(F, grid).margin >= -1e-9
                assert half_plane_check(F, grid).margin >= -1e-9
