import dataclasses
import time
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

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


#: The rounding bound of the slice check's docstring, relative to |L s| + |L t| + lam.
SLICE_ROUNDING = 4e-15


def per_root_margins(ls, lt, lam, n_eps):
    """The minimum over the rounded roots of unity of Re(L s + eps * L t) - lam, one root at a time."""
    eps = np.exp(2j * np.pi * np.arange(n_eps) / n_eps)
    margins = np.real(ls + eps[0] * lt) - lam
    for e in eps[1:]:
        margins = np.minimum(margins, np.real(ls + e * lt) - lam)
    return margins


def slice_rounding(ls, lt, lam):
    """The largest rounding bound of the closed-form slice margin over the samples."""
    return SLICE_ROUNDING * float((np.abs(ls) + np.abs(lt) + lam).max())


def assert_within_rounding(v, ref, ring_margins, rounding, grid):
    """*v* agrees with the reference verdict *ref* within *rounding*.

    *ring_margins* are the reference margins on the grid's outer circle, the
    samples of *v*; its witness is one of them, whose reference margin lies
    within twice the bound of the reference minimum (each of the two minima
    is within the bound of the other's sample).
    """
    assert abs(v.margin - ref.margin) <= rounding
    if abs(v.margin) > rounding:
        assert v.holds == ref.holds
    (j,) = np.flatnonzero(grid.radii()[-1] * grid.phases() == v.witness)
    assert ring_margins[j] <= ref.margin + 2 * rounding


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

    def test_zero_coefficients_stay_zero_under_inf_weights(self):
        # at delta = 1e307 the weights of m >= 3 are inf; 0 * inf would be NaN
        p = ClassParams(1, 1e307, 0)
        f = make_extremal_full(p, 64)
        ls = operator_coeffs(f.s, p).coeffs
        assert ls.tolist() == [1.0, 2.0] + [0.0] * 62
        assert operator_coeffs(f.t, p).coeffs.tolist() == [0.0] * 64
        v = slice_membership_sampled(f, p)
        assert np.isfinite(v.margin)

    def test_nonzero_coefficient_under_an_inf_weight_is_not_finite(self):
        p = ClassParams(1, 1e307, 0)
        h = TruncatedSeries([0, 1, 0, 0.01, 0])
        ls = operator_coeffs(h, p).coeffs
        assert ls[:2].tolist() == [1.0, 0.0] and np.isinf(ls[2].real) and ls[3] == 0
        with pytest.raises(DomainError, match="not finite"):
            slice_membership_sampled(HarmonicMap(h, TruncatedSeries.zero(4)), p)


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


def _operator_polyval(h: TruncatedSeries, p: ClassParams, z: np.ndarray) -> np.ndarray:
    """L h at the points z from numpy's ``polyval`` of the three derivatives."""
    d1, d2, d3 = (npoly.polyval(z, h.derivative(k).coeffs) for k in (1, 2, 3))
    return p.gamma * d1 + p.delta * z * d2 + 0.5 * (p.delta - p.gamma) * z * z * d3


def _sparse_maps() -> dict:
    """The library's own sparse maps, each with its class parameters."""
    rng = np.random.default_rng(41)
    p = random_params(rng)
    mixed = mixed_order_map(rng, 12, 5)
    return {
        "random o16": (p, random_member(p, rng, order=16)),
        "random o512": (p, random_member(p, rng, order=512, max_terms=64)),
        "extremal full": (p, make_extremal_full(p, 64)),  # t is 0
        "extremal single": (p, make_extremal_single(p, 3, order=32)),
        "mixed order, padded": (p, HarmonicMap(mixed.s.pad_to(40), mixed.t.pad_to(24))),
    }


SPARSE_MAPS = _sparse_maps()


@pytest.mark.parametrize("name", SPARSE_MAPS)
class TestSparseMapsMatchPolyval:
    """Horner skips the adds of zero coefficients; the values stay ``polyval``'s bit for bit."""

    GRID = PolarGrid(max_radius=0.9, n_radii=6, n_angles=40)

    def test_membership_sampled(self, name):
        p, f = SPARSE_MAPS[name]
        z = self.GRID.points()
        margins = np.real(_operator_polyval(f.s, p, z)) - p.lam - np.abs(_operator_polyval(f.t, p, z))
        ref = verdict_from_margins(margins, (self.GRID.radii(), self.GRID.phases()), self.GRID.describe())
        v = membership_sampled(f, p, self.GRID)
        for field in dataclasses.fields(ref):
            assert repr(getattr(v, field.name)) == repr(getattr(ref, field.name)), field.name

    def test_apply_operator(self, name):
        p, f = SPARSE_MAPS[name]
        points = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), complex(-0.6, -0.0),
                  complex(0.0, 0.7), 0.5 - 0.4j, 0.95 * np.exp(2.5j)]
        for h in (f.s, f.t):
            for z in points:
                ref = complex(_operator_polyval(h, p, np.asarray(complex(z))))
                assert repr(apply_operator(h, p, z)) == repr(ref), z


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

    def test_within_rounding_of_stacked_reference(self):
        """Margin, holds and witness agree with the minimum over the full (eps, radius, angle) stack.

        The stack is built from the same ring values of L s and L t, and its
        witness from the grid's (radii, phases) axes.  By the minimum
        principle its minimum lies on the outer circle, the only one the
        check samples, so ``samples`` counts the (eps, angle) pairs there.
        The check takes the minimum over the roots in closed form, within
        the rounding bound of its docstring.
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
            stacked = (np.real(ls[None, :, :] + eps[:, None, None] * lt[None, :, :]) - p.lam).min(axis=0)
            ref = verdict_from_margins(stacked, (grid.radii(), grid.phases()), "")
            v = slice_membership_sampled(f, p, n_eps=n_eps, grid=grid)
            assert_within_rounding(v, ref, stacked[-1], slice_rounding(ls[-1], lt[-1], p.lam), grid)
            assert v.samples == n_eps * grid.n_angles

    @pytest.mark.parametrize("n_eps", [4, 5, 7, 16, 17, 33])
    def test_within_rounding_of_per_root_loop(self, n_eps):
        """Every field agrees with the minimum over the roots taken one root at a time.

        The margin lies within the docstring's rounding bound of the loop's,
        ``holds`` is the loop's wherever the margin is farther than that
        from 0, and the witness is a sample whose loop margin is within
        twice the bound of the loop's minimum.  The overweight map and every
        third random member, scaled far past the class bound, give failing
        verdicts, whose evidence is compared too.
        """
        rng = np.random.default_rng(4100 + n_eps)
        cases = [(P110, overweight_map(), PolarGrid(max_radius=0.99))]
        for k in range(15):
            p = random_params(rng)
            f = random_member(p, rng, order=int(rng.integers(2, 40)))
            if k % 3 == 0:
                f = HarmonicMap(f.s, TruncatedSeries(300.0 * f.t.coeffs))
            grid = PolarGrid(
                max_radius=float(rng.uniform(0.1, 0.99)),
                n_radii=int(rng.integers(1, 30)),
                n_angles=int(rng.integers(4, 120)),
            )
            cases.append((p, f, grid))
        outcomes = set()
        for p, f, grid in cases:
            ring = grid.radii()[-1:]
            ls, lt = (eval_rings(operator_coeffs(h, p), ring, grid.n_angles) for h in (f.s, f.t))
            margins = per_root_margins(ls, lt, p.lam, n_eps)
            ref = verdict_from_margins(margins, (ring, grid.phases()), "")
            v = slice_membership_sampled(f, p, n_eps=n_eps, grid=grid)
            assert_within_rounding(v, ref, margins[0], slice_rounding(ls, lt, p.lam), grid)
            circle = f"circle |z| = {grid.max_radius} ({grid.n_angles} angles)"
            if v.holds:
                where = f"{circle}, where the {grid.describe()} has its minimum (minimum principle)"
                evidence = f"not falsified at {n_eps} slice values on {where}"
            else:
                evidence = f"violated at witness (margin {v.margin:.6e}) on {circle}"
            assert not v.near_degenerate
            assert v.samples == n_eps * grid.n_angles
            assert v.evidence == evidence
            outcomes.add(v.holds)
        assert outcomes == {True, False}

    def test_bitwise_the_per_root_loop_where_t_is_zero(self):
        """With L t = 0 (the full extremal's t) the closed form is the loop's minimum bit for bit."""
        for p in (P110, ClassParams(1, 2, 0.5), ClassParams(0.7, 3, 0.1)):
            f = make_extremal_full(p, 64)
            grid = PolarGrid(max_radius=0.95, n_angles=96)
            ring = grid.radii()[-1:]
            ls, lt = (eval_rings(operator_coeffs(h, p), ring, grid.n_angles) for h in (f.s, f.t))
            for n_eps in (4, 5, 16, 17):
                ref = verdict_from_margins(per_root_margins(ls, lt, p.lam, n_eps), (ring, grid.phases()), "")
                v = slice_membership_sampled(f, p, n_eps=n_eps, grid=grid)
                assert np.float64(v.margin).tobytes() == np.float64(ref.margin).tobytes()
                assert np.complex128(v.witness).tobytes() == np.complex128(ref.witness).tobytes()

    @pytest.mark.parametrize("n_eps", [4, 5, 16, 17, 1000])
    def test_gap_to_the_exact_minimum(self, n_eps):
        """0 <= slices - exact <= max |L t| * (1 - cos(pi/n_eps)), up to rounding.

        The exact minimum over every unimodular eps is Re L s - lam - |L t|
        on the same circle.
        """
        rng = np.random.default_rng(900 + n_eps)
        gaps = []
        for k in range(30):
            p = random_params(rng)
            f = random_member(p, rng, order=int(rng.integers(2, 40)))
            if k % 3 == 0:
                f = HarmonicMap(f.s, TruncatedSeries(300.0 * f.t.coeffs))
            grid = PolarGrid(max_radius=float(rng.uniform(0.1, 0.99)), n_angles=int(rng.integers(4, 120)))
            ls, lt = (eval_rings(operator_coeffs(h, p), grid.radii()[-1:], grid.n_angles) for h in (f.s, f.t))
            exact = float((np.real(ls) - p.lam - np.abs(lt)).min())
            gap = slice_membership_sampled(f, p, n_eps=n_eps, grid=grid).margin - exact
            rounding = slice_rounding(ls, lt, p.lam)
            assert -rounding <= gap <= float(np.abs(lt).max()) * (1.0 - np.cos(np.pi / n_eps)) + rounding
            gaps.append(gap)
        assert max(gaps) > 0.0

    def test_constant_time_in_slices(self):
        """n_eps = 10**12 returns at once, counts its samples and allocates what n_eps = 16 does."""
        f, grid = overweight_map(), PolarGrid(max_radius=0.99)

        def run(n_eps):
            tracemalloc.start()
            try:
                start = time.perf_counter()
                v = slice_membership_sampled(f, P110, n_eps=n_eps, grid=grid)
                return v, time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        run(16), run(10**12)  # the first calls import numpy.fft and fill the grid's caches
        _, _, peak16 = run(16)
        v, seconds, peak = run(10**12)
        assert seconds < 0.1
        assert v.samples == 10**12 * grid.n_angles
        assert peak == peak16
        # past about 3e8 roots cos(d) rounds to 1: the margin is the exact minimum over every unimodular eps
        ls, lt = (eval_rings(operator_coeffs(h, P110), grid.radii()[-1:], grid.n_angles) for h in (f.s, f.t))
        exact = float((np.real(ls) - P110.lam - np.abs(lt)).min())
        assert v.margin == slice_membership_sampled(f, P110, n_eps=10**400, grid=grid).margin == exact

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
