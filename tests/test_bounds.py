import dataclasses
import math
import pickle
import tracemalloc

import mpmath
import numpy as np
import pytest

from harmonicdisk import (
    BoundReport,
    BoundRow,
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

from helpers import (
    all_within_per_row,
    bound_report_per_row,
    growth_envelope_two_pass,
    mixed_order_map,
    random_params,
)

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


def bits(v):
    """Every field of a verdict, floats as their bytes."""
    margin, witness = np.float64(v.margin).tobytes(), np.complex128(v.witness).tobytes()
    return (v.holds, margin, witness, v.samples, v.near_degenerate, v.evidence)


def random_map(order):
    return lambda p, rng: random_member(p, rng, order=order)


def full_extremal(order):
    return lambda p, rng: make_extremal_full(p, order)


class TestOneTablePerCheck:
    """The check folds f from each table of radius powers and then sums the same table as envelope terms."""

    @pytest.mark.parametrize(
        ("make", "n_terms", "grid"),
        [
            # n_terms below, at and above the order; t = 0 for the full extremal
            (random_map(64), 16, PolarGrid(0.97, 9, 24)),
            (full_extremal(64), 64, PolarGrid(0.97, 9, 24)),
            (random_map(64), 600, PolarGrid(0.97, 9, 24)),
            # odd angle counts, one radius
            (random_map(40), 64, PolarGrid(0.9, 5, 25)),
            (full_extremal(200), 300, PolarGrid(0.99, 1, 33)),
            # more than 4096 terms: several blocks of m, the fold stops inside the first
            (full_extremal(600), 4096 * 2 + 5, PolarGrid(0.999, 17, 32)),
            # an order past the first table: the fold goes on after the sums end
            (lambda p, rng: mixed_order_map(rng, 5000, 300), 64, PolarGrid(0.95, 17, 48)),
            (lambda p, rng: mixed_order_map(rng, 300, 9000), 4200, PolarGrid(0.95, 20, 64)),
            # the sums stop at the first all-zero block, long before n_terms
            (full_extremal(64), 10**6, PolarGrid(0.9, 9, 24)),
            (lambda p, rng: mixed_order_map(rng, 9000, 64), 10**6, PolarGrid(0.001, 17, 16)),
            # the benchmark's grid shape at order 4096
            (full_extremal(4096), 4096, PolarGrid(0.95, 96, 64)),
        ],
    )
    def test_verdict_is_bitwise_the_two_pass_check(self, make, n_terms, grid):
        rng = np.random.default_rng(n_terms + grid.n_radii)
        for _ in range(2):
            p = random_params(rng)
            f = make(p, rng)
            v = growth_envelope_check(f, p, grid, n_terms)
            assert bits(v) == bits(growth_envelope_two_pass(f, p, grid, n_terms))

    def test_overflowing_weights_are_bitwise_the_two_pass_check(self):
        p = ClassParams(1, 1e307, 0)
        grid = PolarGrid(0.9, 17, 24)
        for f in (make_extremal_full(p, 64), make_extremal_single(p, 2, 300)):
            v = growth_envelope_check(f, p, grid, 64)
            assert bits(v) == bits(growth_envelope_two_pass(f, p, grid, 64))
        # inf weights end the sums at the second block while r^k is still
        # nonzero there, so the fold must go on through the third
        f = mixed_order_map(np.random.default_rng(3), 9000, 300)
        grid = PolarGrid(0.999, 17, 48)
        v = growth_envelope_check(f, p, grid, 10**6)
        assert bits(v) == bits(growth_envelope_two_pass(f, p, grid, 10**6))

    @pytest.mark.parametrize(
        ("order", "n_terms", "n_radii"), [(64, 64, 9), (4096, 4096, 96), (9000, 64, 17), (64, 20_000, 17)]
    )
    def test_one_power_table_per_block(self, monkeypatch, order, n_terms, n_radii):
        calls = []

        def counting(radii, k):
            calls.append((radii.copy(), k.copy()))
            return _radius_powers(radii, k)

        def unused(radii, k):
            raise AssertionError("the check folds from its own tables")

        monkeypatch.setattr("harmonicdisk.bounds._radius_powers", counting)
        monkeypatch.setattr("harmonicdisk.series._radius_powers", unused)
        p = ClassParams(1, 1, 0)
        grid = PolarGrid(0.95, n_radii, 32)
        growth_envelope_check(make_extremal_full(p, order), p, grid, n_terms)
        seen = {}
        for radii, k in calls:
            # contiguous blocks of indices, the envelope's blocks (the first with r^0 and r^1)
            assert np.array_equal(k, np.arange(k[0], k[-1] + 1))
            assert len(k) <= max(4096, 2**16 // n_radii) + 2
            for r in radii.tolist():
                for j in (int(k[0]), int(k[-1])):
                    seen.setdefault(r, []).append(j)
        assert sorted(seen) == sorted(grid.radii().tolist())
        for ends in seen.values():
            starts, stops = ends[0::2], ends[1::2]
            # each radius sees the indices 0, 1, ... once, in increasing blocks, up to the order or beyond
            assert starts[0] == 0 and all(b + 1 == a for a, b in zip(starts[1:], stops))
            assert stops[-1] >= order

    def test_memory_does_not_grow_with_terms(self):
        p = ClassParams(1, 1, 0)
        grid = PolarGrid(0.9999, 2, 16)

        def peak(n_terms):
            f = identity_map(4)
            tracemalloc.start()
            try:
                growth_envelope_check(f, p, grid, n_terms)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(10**6) <= 2 * peak(10**5)


class TestBoundRowsFromColumns:
    """Rows built from the columns equal rows built one ``BoundRow(*row)`` at a time."""

    @staticmethod
    def maps():
        rng = np.random.default_rng(61)
        p = random_params(rng)
        return [
            (p, random_member(p, rng, order=64)),
            (p, make_extremal_full(p, 64)),
            (p, mixed_order_map(rng, 5, 17)),
            (p, mixed_order_map(rng, 300, 9)),
            (P110, HarmonicMap(TruncatedSeries([0, 1, 0]), TruncatedSeries([0, 0, 0.5]))),
            (P110, HarmonicMap(TruncatedSeries([0, 1, 0.1]), TruncatedSeries([0, 0, 0.2]))),
            (P110, identity_map(1)),
            (ClassParams(1, 1e307, 0), make_extremal_full(ClassParams(1, 1e307, 0), 64)),
        ]

    def test_rows_equal_per_row_construction(self):
        for p, f in self.maps():
            report, ref = coefficient_bound_check(f, p), bound_report_per_row(f, p)
            assert report == ref and hash(report) == hash(ref)
            assert [dataclasses.astuple(r) for r in report.rows] == [dataclasses.astuple(r) for r in ref.rows]
            assert [dataclasses.asdict(r) for r in report.rows] == [dataclasses.asdict(r) for r in ref.rows]
            assert [hash(r) for r in report.rows] == [hash(r) for r in ref.rows]
            assert [repr(r) for r in report.rows] == [repr(r) for r in ref.rows]
            assert all(type(r.m) is int and type(r.slack_diff) is float for r in report.rows)

    def test_rows_stay_frozen(self):
        report = coefficient_bound_check(make_extremal_full(P110, 8), P110)
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.rows[0].slack_a = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.rows = ()

    @pytest.mark.parametrize(
        ("t2", "within"),
        [
            (0.0, True),  # identity: every slack is its bound
            (0.25, True),  # the single extremal: slack_b is 0
            (0.25 + 5e-13, True),  # slack_b -5e-13 is rounding of the bound
            (0.25 + 2e-12, False),
            (0.5, False),
        ],
    )
    def test_all_within_matches_the_row_loop(self, t2, within):
        for order in (2, 16):
            t = np.zeros(order + 1)
            t[2] = t2
            f = HarmonicMap(TruncatedSeries.identity(order), TruncatedSeries(t))
            report = coefficient_bound_check(f, P110)
            assert report.all_within is within
            assert all_within_per_row(report.rows) is within
            # a report built by a caller reduces its rows
            assert BoundReport(rows=report.rows).all_within is within

    def test_all_within_over_random_maps(self):
        for p, f in self.maps():
            report = coefficient_bound_check(f, p)
            expected = all_within_per_row(report.rows)
            assert report.all_within == expected == BoundReport(rows=report.rows).all_within


class TestBoundRowSlots:
    """Rows keep their fields in slots, with the frozen dataclass API unchanged."""

    def test_no_instance_dict_and_the_dataclass_api(self):
        # z + 0.25 conj(z)^2 at (1, 1, 0): the b-bound at m = 2 is attained
        f = HarmonicMap(TruncatedSeries([0, 1, 0]), TruncatedSeries([0, 0, 0.25]))
        row = coefficient_bound_check(f, P110).rows[0]
        values = (2, 0.0, 0.25, 0.5, 0.25, 0.5, 0.0, 0.25, 0.25)
        assert not hasattr(row, "__dict__")
        assert dataclasses.astuple(row) == values
        assert dataclasses.asdict(row) == dict(zip([fd.name for fd in dataclasses.fields(BoundRow)], values))
        assert hash(row) == hash(values) == hash(BoundRow(*values))
        assert repr(row) == (
            "BoundRow(m=2, abs_a=0.0, abs_b=0.25, bound_a=0.5, bound_b=0.25, "
            "slack_a=0.5, slack_b=0.0, slack_sum=0.25, slack_diff=0.25)"
        )
        assert row == BoundRow(*values) and dataclasses.replace(row, m=3) == BoundRow(3, *values[1:])
        with pytest.raises(dataclasses.FrozenInstanceError):
            row.m = 3
        with pytest.raises(dataclasses.FrozenInstanceError):
            del row.abs_a
        with pytest.raises((AttributeError, TypeError)):
            row.extra = 1.0
        assert pickle.loads(pickle.dumps(row)) == row


class TestOverflowingWeights:
    """At delta = 1e307 the weights of m >= 3 pass the double range: they are inf, their bounds 0."""

    P = ClassParams(1, 1e307, 0)

    def test_weights_are_inf_like_the_scalar(self):
        m = np.arange(2, 10)
        weights = self.P.coefficient_weight(m)
        assert weights.tolist() == [self.P.coefficient_weight(int(k)) for k in m]
        assert np.isfinite(weights[0]) and np.isinf(weights[1:]).all()

    def test_growth_values_are_finite(self):
        for estimate in (growth_upper(self.P, 0.5), growth_lower(self.P, 0.5)):
            assert math.isfinite(estimate.value) and math.isfinite(estimate.tail)
        # only m = 2 contributes
        assert growth_upper(self.P, 0.5).value == 0.5 + 4.0 * 0.5**2 / self.P.coefficient_weight(2)

    def test_extremal_and_bounds(self):
        f = make_extremal_full(self.P, 64)
        assert not f.s.coeffs[3:].any() and f.s.coeffs[2] != 0
        report = coefficient_bound_check(f, self.P)
        assert report.all_within
        assert report.row(64).bound_a == 0.0 and report.row(2).bound_a > 0.0
