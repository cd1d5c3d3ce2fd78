import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonicdisk import (
    ClassParams,
    DomainError,
    HarmonicMap,
    NormalizationError,
    PolarGrid,
    TruncatedSeries,
    identity_map,
    make_extremal_full,
    make_extremal_single,
    sense_preserving_check,
)

from helpers import mixed_order_map, params_from, random_params


class TestClassParams:
    def test_boundary_cases_allowed(self):
        ClassParams(gamma=1.0, delta=1.0, lam=0.0)
        ClassParams(gamma=0.5, delta=3.0, lam=0.49)

    @pytest.mark.parametrize(
        "gamma,delta,lam",
        [(1.0, 0.5, 0.0), (1.0, 1.0, 1.0), (1.0, 2.0, -0.1), (0.0, 1.0, 0.0)],
    )
    def test_invalid_rejected(self, gamma, delta, lam):
        with pytest.raises(DomainError):
            ClassParams(gamma=gamma, delta=delta, lam=lam)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            ClassParams(gamma=float("nan"), delta=1.0, lam=0.0)

    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.float32, np.float64])
    def test_numpy_reals_accepted(self, kind):
        p = ClassParams(kind(1), kind(2), kind(0))
        assert p == ClassParams(1.0, 2.0, 0.0)
        assert all(type(v) is float for v in (p.gamma, p.delta, p.lam))

    @pytest.mark.parametrize("args", [(True, True, False), (1, 2, False), (1, np.True_, 0), (1, 2, 0j), (1, "2", 0)])
    def test_non_reals_and_bools_rejected(self, args):
        with pytest.raises(DomainError, match="must be a finite real number"):
            ClassParams(*args)

    @given(
        st.floats(0.25, 2.0),
        st.floats(1.0, 2.0),
        st.floats(0.0, 0.8),
    )
    @settings(max_examples=50)
    def test_weight_positive(self, gamma, ratio, frac):
        p = params_from(gamma, ratio, frac)
        for m in range(2, 12):
            assert p.coefficient_weight(m) > 0
        assert p.coefficient_budget() > 0

    def test_weight_array_matches_scalar(self):
        rng = np.random.default_rng(11)
        m = np.arange(2, 300)
        for _ in range(20):
            p = random_params(rng)
            assert p.coefficient_weight(m).tolist() == [p.coefficient_weight(int(k)) for k in m]


class TestExtremalSingle:
    @pytest.mark.parametrize(
        "params,m,expected",
        [
            ((1, 1, 0), 2, 0.25),
            ((1, 1, 0), 3, 1 / 9),
            ((1, 2, 0.5), 2, 1 / 12),
        ],
    )
    def test_coefficient_value(self, params, m, expected):
        f = make_extremal_single(ClassParams(*params), m)
        assert f.t.coeff(m) == pytest.approx(expected, abs=1e-15)
        assert f.s.coeff(1) == 1
        # only the single co-analytic coefficient is populated
        assert np.count_nonzero(f.t.coeffs) == 1

    def test_matches_bound_formula_for_random_params(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = random_params(rng)
            m = int(rng.integers(2, 11))
            f = make_extremal_single(p, m)
            bound = p.coefficient_budget() / p.coefficient_weight(m)
            assert abs(f.t.coeff(m) - bound) <= 1e-15

    def test_rejects_small_index(self):
        with pytest.raises(DomainError):
            make_extremal_single(ClassParams(1, 1, 0), 1)

    def test_default_order(self):
        assert make_extremal_single(ClassParams(1, 1, 0), 2).order == 64
        assert make_extremal_single(ClassParams(1, 1, 0), 80).order == 80


class TestExtremalFull:
    def test_first_coefficient(self):
        f = make_extremal_full(ClassParams(1, 1, 0), 2)
        assert f.s.coeff(2) == pytest.approx(0.5)
        assert np.all(f.t.coeffs == 0)

    def test_ratio_to_single_is_two(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            p = random_params(rng)
            full = make_extremal_full(p, 2)
            single = make_extremal_single(p, 2)
            assert full.s.coeff(2) / single.t.coeff(2) == pytest.approx(2.0, abs=1e-13)

    def test_third_coefficient(self):
        f = make_extremal_full(ClassParams(1, 3, 0), 3)
        assert f.s.coeff(3) == pytest.approx(2 / 27, abs=1e-15)

    def test_weighted_sum_identity(self):
        # sum_m weight(m)*a_m telescopes to 4*(gamma-lam)*(N-1), which
        # exceeds the sufficient-condition budget 2*(gamma-lam) for N >= 2
        rng = np.random.default_rng(13)
        for order in (16, 64):
            p = random_params(rng)
            f = make_extremal_full(p, order)
            total = sum(
                p.coefficient_weight(m) * abs(f.s.coeff(m)) for m in range(2, order + 1)
            )
            expected = 2.0 * p.coefficient_budget() * (order - 1)
            assert abs(total - expected) <= 1e-10
            assert total > p.coefficient_budget()

    def test_rejects_small_order(self):
        with pytest.raises(DomainError):
            make_extremal_full(ClassParams(1, 1, 0), 1)


class TestEvaluateMap:
    def test_identity(self):
        assert identity_map().evaluate(0.2 + 0.1j) == pytest.approx(0.2 + 0.1j)

    def test_real_axis(self):
        f = make_extremal_single(ClassParams(1, 1, 0), 2)
        assert f.evaluate(0.5) == pytest.approx(0.5625)

    def test_conjugation(self):
        f = make_extremal_single(ClassParams(1, 1, 0), 2)
        assert f.evaluate(0.5j) == pytest.approx(-0.0625 + 0.5j, abs=1e-15)

    def test_rejects_outside_disk(self):
        with pytest.raises(DomainError):
            identity_map().evaluate(1.5)

    @pytest.mark.parametrize("z", [complex(float("nan"), 0), complex(0, float("inf"))])
    def test_rejects_nonfinite_point(self, z):
        with pytest.raises(DomainError, match="finite"):
            identity_map().evaluate(z)

    def test_equals_the_parts_bit_for_bit(self):
        rng = np.random.default_rng(17)
        f = mixed_order_map(rng, 40, 25)
        for z in rng.uniform(0, 1, 50) * np.exp(2j * np.pi * rng.uniform(size=50)):
            ref = f.s.evaluate(z) + f.t.evaluate(z).conjugate()
            assert np.asarray(f.evaluate(z)).tobytes() == np.asarray(ref).tobytes()


class TestAnalyticSlice:
    def test_unit_slice_sums_parts(self):
        f = make_extremal_single(ClassParams(1, 1, 0), 2, order=2)
        out = f.analytic_slice(1.0)
        np.testing.assert_allclose(out.coeffs, [0, 1, 0.25])

    def test_imaginary_slice(self):
        f = make_extremal_single(ClassParams(1, 1, 0), 2, order=2)
        out = f.analytic_slice(1j)
        np.testing.assert_allclose(out.coeffs, [0, 1, 0.25j])

    def test_negative_slice_subtracts(self):
        # with t = s - z the slice at -1 collapses to the identity series
        s = TruncatedSeries([0, 1, 0.2, -0.1j])
        t = TruncatedSeries([0, 0, 0.2, -0.1j])
        out = HarmonicMap(s, t).analytic_slice(-1.0)
        np.testing.assert_allclose(out.coeffs, [0, 1, 0, 0], atol=1e-15)

    def test_rejects_non_unimodular(self):
        with pytest.raises(DomainError):
            identity_map().analytic_slice(0.5)

    @pytest.mark.parametrize("eps", [float("nan"), complex(float("nan"), 1.0), complex(1.0, float("inf"))])
    def test_rejects_non_finite_as_slice_parameter(self, eps):
        with pytest.raises(DomainError, match="slice parameter"):
            identity_map().analytic_slice(eps)

    def test_triangle_inequality_over_angles(self):
        rng = np.random.default_rng(3)
        s = TruncatedSeries(np.r_[0, 1, 0.05 * (rng.standard_normal(6) + 1j * rng.standard_normal(6))])
        t = TruncatedSeries(np.r_[0, 0, 0.05 * (rng.standard_normal(6) + 1j * rng.standard_normal(6))])
        f = HarmonicMap(s, t)
        for theta in 2 * np.pi * np.arange(16) / 16:
            sl = f.analytic_slice(np.exp(1j * theta))
            for m in range(f.order + 1):
                assert abs(sl.coeff(m)) <= abs(s.coeff(m)) + abs(t.coeff(m)) + 1e-12


class TestNormalization:
    def test_bad_slope_rejected(self):
        with pytest.raises(NormalizationError):
            HarmonicMap(TruncatedSeries([0, 0.9]), TruncatedSeries([0, 0]))

    def test_bad_constant_rejected(self):
        with pytest.raises(NormalizationError):
            HarmonicMap(TruncatedSeries([0.1, 1]), TruncatedSeries([0, 0]))

    def test_bad_t_slope_rejected(self):
        with pytest.raises(NormalizationError):
            HarmonicMap(TruncatedSeries([0, 1]), TruncatedSeries([0, 0.2]))


class TestSensePreserving:
    def test_identity_has_unit_margin(self):
        v = sense_preserving_check(identity_map())
        assert v.holds and v.margin == pytest.approx(1.0)
        assert not v.near_degenerate

    def test_extremal_margin_on_wide_grid(self):
        f = make_extremal_single(ClassParams(1, 1, 0), 2)
        v = sense_preserving_check(f, PolarGrid(max_radius=0.99))
        # |t'| = |z|/2, so the margin is 1 - 0.99/2 at the outermost circle
        assert v.margin == pytest.approx(0.505, abs=1e-12)
        assert abs(abs(v.witness) - 0.99) < 1e-12

    def test_near_degenerate_flag(self):
        f = HarmonicMap(TruncatedSeries([0, 1, 0]), TruncatedSeries([0, 0, 0.5]))
        v = sense_preserving_check(f, PolarGrid(max_radius=1 - 5e-7))
        assert v.holds and v.near_degenerate
        assert v.margin == pytest.approx(5e-7, rel=1e-3)

    def test_failure_is_a_verdict_not_an_error(self):
        f = HarmonicMap(TruncatedSeries([0, 1, 0, 0]), TruncatedSeries([0, 0, 0, 0.9]))
        v = sense_preserving_check(f, PolarGrid(max_radius=0.95))
        # |t'| = 2.7 |z|^2 > 1 = |s'| near the rim
        assert not v.holds and v.margin < 0
        assert "violated" in v.evidence
