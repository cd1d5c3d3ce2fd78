"""The ring-sampled checks against Horner references of their formulas.

The sense, close-to-convex, half-plane, slice and growth-envelope checks and
the circle tests sample whole circles, so the library evaluates them with
``series.eval_rings``; the values of f and of d/dtheta f on a circle come
from ``HarmonicMap.rings``.
Each must give the verdict of the point-by-point Horner formula in
``helpers``, with a margin within the propagated rounding bound
``helpers.ring_rounding_bound``.  The close-to-convex, half-plane and slice
checks sample only the grid's outer circle; their references still sample
the whole grid, so the comparison checks that the grid's minimum lies on
that circle (minimum principle).
"""

import dataclasses
import pickle

import numpy as np
import pytest

from harmonicdisk import (
    ClassParams,
    DomainError,
    HarmonicMap,
    PolarGrid,
    TruncatedSeries,
    circle_image,
    close_to_convex_check,
    convex_on_circle,
    growth_envelope_check,
    half_plane_check,
    make_extremal_full,
    make_extremal_single,
    numeric_radius_oracle,
    operator_coeffs,
    sense_preserving_check,
    slice_membership_sampled,
    starlike_on_circle,
)
from harmonicdisk import geometry
from harmonicdisk import series as series_module
from harmonicdisk.closure import random_member
from harmonicdisk.maps import NEAR_DEGENERATE_MARGIN
from harmonicdisk.sampling import MembershipVerdict, verdict_from_margins
from harmonicdisk.series import eval_rings

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


def _assert_same_verdict(v, ref, bound, samples=None):
    assert v.holds == ref.holds
    assert v.samples == (ref.samples if samples is None else samples)
    assert abs(v.margin - ref.margin) <= bound


def _assert_on_outer_circle(v, k, grid=GRID):
    """The evidence names the grid's outer circle; a violator's witness is a sample on it."""
    assert f"circle |z| = {grid.max_radius} ({grid.n_angles} angles)" in v.evidence
    if k in VIOLATORS:
        assert repr(v.witness) in {repr(complex(grid.max_radius * ph)) for ph in grid.phases()}
        assert abs(v.witness) == pytest.approx(grid.max_radius, rel=4 * EPS)


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
        v = close_to_convex_check(F, GRID)
        _assert_same_verdict(v, helpers.close_to_convex_horner(F, GRID), bound, samples=96)
        _assert_on_outer_circle(v, k)
        bound = float(np.max(ring_rounding_bound(TruncatedSeries(F.coeffs[1:]), radii, 96)))
        v = half_plane_check(F, GRID)
        _assert_same_verdict(v, helpers.half_plane_horner(F, GRID), bound, samples=96)
        _assert_on_outer_circle(v, k)


@pytest.mark.parametrize("k", range(len(MAPS)))
class TestSlicesAndEnvelope:
    @pytest.mark.parametrize("n_eps", [4, 16])
    def test_slice_membership(self, k, n_eps):
        p, f = PARAMS[k], MAPS[k]
        v, ref = slice_membership_sampled(f, p, n_eps, GRID), helpers.slice_membership_horner(f, p, n_eps, GRID)
        radii = GRID.radii()
        bound = ring_rounding_bound(operator_coeffs(f.s, p), radii, 96) + ring_rounding_bound(operator_coeffs(f.t, p), radii, 96)
        _assert_same_verdict(v, ref, float(np.max(bound)), samples=n_eps * 96)
        _assert_on_outer_circle(v, k)
        if k in VIOLATORS:
            assert not v.holds

    @pytest.mark.parametrize("n_terms", [16, 600])
    def test_growth_envelope(self, k, n_terms):
        p, f = PARAMS[k], MAPS[k]
        v, ref = growth_envelope_check(f, p, GRID, n_terms), helpers.growth_envelope_horner(f, p, GRID, n_terms)
        radii = GRID.radii()
        bound = ring_rounding_bound(f.s, radii, 96) + ring_rounding_bound(f.t, radii, 96)
        _assert_same_verdict(v, ref, float(np.max(bound)))


class TestRings:
    RADII = [0.2, 0.7, 0.99]

    # s and t orders below, at and above the 64 or 256 angles, so the fold runs
    @pytest.mark.parametrize("orders", [(16, 16), (64, 64), (300, 300), (300, 5), (5, 300), (64, 65)])
    @pytest.mark.parametrize("n", [64, 256])
    def test_value_and_rate_match_horner(self, orders, n):
        f = helpers.mixed_order_map(np.random.default_rng(sum(orders) + n), *orders)
        values, rates = f.rings(self.RADII, n), f.rings(self.RADII, n, 1)
        assert values.shape == rates.shape == (len(self.RADII), n)
        value_bound = ring_rounding_bound(f.s, self.RADII, n) + ring_rounding_bound(f.t, self.RADII, n)
        rate_bound = ring_rounding_bound(_radial(f.s), self.RADII, n) + ring_rounding_bound(_radial(f.t), self.RADII, n)
        for i, r in enumerate(self.RADII):
            ref_rate = 1j * helpers.circle_rate_horner(f, helpers.circle_points(r, n))
            assert np.all(np.abs(values[i] - helpers.circle_image_horner(f, r, n)) <= value_bound[i])
            assert np.all(np.abs(rates[i] - ref_rate) <= rate_bound[i])

    @pytest.mark.parametrize("t_order", [64, 65, 300])
    @pytest.mark.parametrize("s_order", [64, 65, 300])
    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("j", [0, 1])
    def test_one_fold_matches_the_sum_of_two_rings(self, j, n, s_order, t_order):
        """conj(t) folded onto -k mod n gives eval_rings(s) + conj(eval_rings(t))."""
        rng = np.random.default_rng(1000 * s_order + t_order + n)
        s = helpers.random_series(rng, s_order).coeffs.copy()
        t = helpers.random_series(rng, t_order).coeffs.copy()
        s[:2], t[:2] = (0.0, 1.0), 0.0
        f = HarmonicMap(TruncatedSeries(s), TruncatedSeries(t))
        radii = [0.0, 0.3, 0.9, 1.0]
        parts = [TruncatedSeries(c * (1j * np.arange(len(c))) ** j) for c in (s, t)]
        ref = eval_rings(parts[0], radii, n) + np.conj(eval_rings(parts[1], radii, n))
        bound = ring_rounding_bound(parts[0], radii, n) + ring_rounding_bound(parts[1], radii, n)
        assert np.all(np.abs(f.rings(radii, n, j) - ref) <= bound[:, None])

    @pytest.mark.parametrize("j", [-1, 2, 3])
    def test_only_value_and_first_derivative(self, j):
        with pytest.raises(DomainError):
            MAPS[0].rings([0.5], 64, j)

    @pytest.mark.parametrize("r, n", [(0.3, 64), (0.75, 512), (0.95, 1000), (0.999, 4096)])
    @pytest.mark.parametrize("test", [starlike_on_circle, convex_on_circle])
    def test_witness_is_the_sample_point(self, test, r, n):
        """A circle test's witness is r*exp(2j*pi*k/n) by repr, for the k it lies at."""
        points = r * np.exp(2j * np.pi * np.arange(n) / n)
        for f in MAPS[7:10]:
            w = test(f, r, n).witness
            k = round(np.angle(w) / (2 * np.pi / n)) % n
            assert repr(w) == repr(complex(points[k]))


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


GRIDS = [
    GRID,
    PolarGrid(max_radius=0.9, n_radii=24, n_angles=96),
    PolarGrid(max_radius=0.99, n_radii=1, n_angles=4),
    PolarGrid(max_radius=0.37, n_radii=7, n_angles=333),
    PolarGrid(max_radius=0.95, n_radii=96, n_angles=384),
]


@pytest.mark.parametrize("grid", GRIDS)
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
        assert repr(v.witness) == repr(complex(pts.flat[idx]))


@pytest.mark.parametrize("bad", [np.nan, -np.inf, np.inf])
def test_non_finite_margin_is_a_domain_error(bad):
    """An overflowed margin is an error, never a verdict whose margin JSON cannot carry."""
    margins = np.ones((2, 8))
    margins[1, 3] = bad
    if bad == np.inf:
        margins[:] = bad
    with pytest.raises(DomainError, match=r"sampled margin is not finite \((nan|-?inf)\)"):
        verdict_from_margins(margins, (np.array([0.5, 0.9]), np.exp(2j * np.pi * np.arange(8) / 8)), "")


@pytest.mark.parametrize(
    "low",
    [
        -0.25,
        -0.0,
        0.0,
        5e-324,
        np.nextafter(NEAR_DEGENERATE_MARGIN, 0.0),
        NEAR_DEGENERATE_MARGIN,
        np.nextafter(NEAR_DEGENERATE_MARGIN, 1.0),
        0.5,
    ],
)
@pytest.mark.parametrize("samples", [None, 7 * 16])
@pytest.mark.parametrize("suffix", ["", " on circle |z| = 0.9 (8 angles)"])
def test_verdict_keywords_equal_replace_of_the_plain_verdict(low, samples, suffix):
    """samples, near_degenerate_below and failing_suffix give the record that ``replace`` gives.

    The margins straddle NEAR_DEGENERATE_MARGIN by one ulp and include both
    signed zeros (which fail), so the flag, the failing suffix and the
    margin's sign bit are all compared; repr tells -0.0 from 0.0.
    """
    margins = np.full((2, 8), 0.75)
    margins[1, 5] = low
    axes = (np.array([0.5, 0.9]), np.exp(2j * np.pi * np.arange(8) / 8))
    plain = verdict_from_margins(margins, axes, "a 2x8 grid")
    ref = dataclasses.replace(
        plain,
        samples=plain.samples if samples is None else samples,
        near_degenerate=plain.holds and plain.margin < NEAR_DEGENERATE_MARGIN,
        evidence=plain.evidence if plain.holds else plain.evidence + suffix,
    )
    v = verdict_from_margins(
        margins, axes, "a 2x8 grid", samples=samples, near_degenerate_below=NEAR_DEGENERATE_MARGIN, failing_suffix=suffix
    )
    assert type(v) is MembershipVerdict
    assert [repr(getattr(v, f.name)) for f in dataclasses.fields(v)] == [
        repr(getattr(ref, f.name)) for f in dataclasses.fields(ref)
    ]
    assert v == ref and hash(v) == hash(ref) and repr(v) == repr(ref)
    assert pickle.loads(pickle.dumps(v)) == ref and dataclasses.replace(v) == ref
    assert dataclasses.asdict(v) == dataclasses.asdict(ref)
    with pytest.raises(dataclasses.FrozenInstanceError):
        v.margin = 1.0
    assert plain.near_degenerate is False and plain.samples == margins.size


@pytest.mark.parametrize("grid", GRIDS)
def test_grid_axes_are_computed_once_and_read_only(grid):
    """radii() and phases() are bitwise the grid formulas, shared and read-only; points() is unchanged."""
    R, n_r, n_a = grid.max_radius, grid.n_radii, grid.n_angles
    nodes = R * (1.0 + np.cos(np.pi * np.arange(n_r) / n_r)) / 2.0
    radii = nodes[::-1].copy()
    phases = np.exp(1j * (2.0 * np.pi * np.arange(n_a) / n_a))
    twin = PolarGrid(R, n_r, n_a)
    for g in (grid, twin):
        assert g.radii() is g.radii() and g.phases() is g.phases()
        assert g.radii().tobytes() == radii.tobytes() and g.phases().tobytes() == phases.tobytes()
        assert g.radii()[-1] == R
        assert g.points().tobytes() == (radii[:, None] * phases[None, :]).tobytes()
        for axis in (g.radii(), g.phases()):
            with pytest.raises(ValueError):
                axis[0] = 0.5
    fresh = PolarGrid(R, n_r, n_a)
    assert grid == twin == fresh
    assert hash(grid) == hash(twin) == hash(fresh)
    assert repr(grid) == repr(twin) == repr(fresh) == f"PolarGrid(max_radius={R}, n_radii={n_r}, n_angles={n_a})"


# -- one fold per check ------------------------------------------------------------
#
# Every ring check folds all the series it samples in one ``series._fold`` call
# and runs one FFT over the stack.  The per-series folds in ``helpers`` are the
# former path; every array and every verdict field must match them bit for bit.

FOLD_N = 64


def _sparse(order: int) -> HarmonicMap:
    """z + c z^order beside t = 0.1 z^2: every block between the first and the last is all zero."""
    s = np.zeros(order + 1, dtype=np.complex128)
    s[1], s[order] = 1.0, 0.3 + 0.1j
    return HarmonicMap(TruncatedSeries(s), TruncatedSeries.monomial(2, 0.1, order=2))


def _fold_cases():
    """(label, params, map, n): orders n-1, n, n+1 and 3n+5, t = 0, sparse blocks, order 4096."""
    rng = np.random.default_rng(20261019)
    cases = []
    n = FOLD_N
    for order in (n - 1, n, n + 1, 3 * n + 5):
        p = random_params(rng)
        cases.append((f"o{order}-member", p, random_member(p, rng, order=order, max_terms=order // 4), n))
        cases.append((f"o{order}-t-zero", p, make_extremal_full(p, order), n))
    for s_order, t_order in ((3 * n + 5, n + 1), (n + 1, 3 * n + 5)):
        f = helpers.mixed_order_map(rng, s_order, t_order)
        cases.append((f"o{s_order}-and-o{t_order}", random_params(rng), f, n))
    cases.append((f"o{3 * n + 5}-sparse", ClassParams(1, 1, 0), _sparse(3 * n + 5), n))
    p = ClassParams(1, 1, 0)
    cases.append(("o4096-t-zero", p, make_extremal_full(p, 4096), 4096))
    cases.append(("o4096-single", p, make_extremal_single(p, 2, order=4096), 4096))
    return cases


FOLD_CASES = _fold_cases()
FOLD_IDS = [case[0] for case in FOLD_CASES]
# r = 0.001 makes r^k underflow past k of about 110, so most powers of an order-4096 series are 0
FOLD_RADII = [0.001, 0.3, 0.7, 0.999]


def _bits(v):
    """Every field of a verdict, the floats by their bytes."""
    return (
        v.holds,
        np.float64(v.margin).tobytes(),
        np.complex128(v.witness).tobytes(),
        v.samples,
        v.near_degenerate,
        v.evidence,
    )


@pytest.mark.parametrize("label, p, f, n", FOLD_CASES, ids=FOLD_IDS)
class TestSharedFold:
    @pytest.mark.parametrize("j", [0, 1])
    def test_rings(self, label, p, f, n, j):
        out = f.rings(FOLD_RADII, n, j)
        assert out.tobytes() == helpers.rings_per_series(f, FOLD_RADII, n, j).tobytes()
        for h in (f.s, f.t):
            ref = helpers.eval_rings_per_series(h, FOLD_RADII, n)
            assert eval_rings(h, FOLD_RADII, n).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("max_radius", [0.001, 0.95])
    def test_sense_and_slices(self, label, p, f, n, max_radius):
        grid = PolarGrid(max_radius=max_radius, n_radii=5, n_angles=n)
        assert _bits(sense_preserving_check(f, grid)) == _bits(helpers.sense_preserving_per_series(f, grid))
        v, ref = slice_membership_sampled(f, p, 8, grid), helpers.slice_membership_per_series(f, p, 8, grid)
        assert _bits(v) == _bits(ref)

    @pytest.mark.parametrize("r", FOLD_RADII)
    def test_circle_tests(self, label, p, f, n, r):
        assert _bits(starlike_on_circle(f, r, n)) == _bits(helpers.starlike_on_circle_per_series(f, r, n))
        assert _bits(convex_on_circle(f, r, n)) == _bits(helpers.convex_on_circle_per_series(f, r, n))

    @pytest.mark.parametrize("max_radius", [0.001, 0.95])
    @pytest.mark.parametrize("eps, tail", [(1.0, 1.0), (np.exp(0.7j), 1.0), (-1j, 40.0)])
    def test_close_to_convex_and_half_plane(self, label, p, f, n, max_radius, eps, tail):
        """The analytic checks against the derived series F' and F/z, each folded alone.

        A tail scaled by 40 makes most slices fail on |z| = 0.95, so the
        failing evidence and its witness are compared too.
        """
        F = f.analytic_slice(eps)
        F = TruncatedSeries(np.concatenate((F.coeffs[:2], tail * F.coeffs[2:])))
        grid = PolarGrid(max_radius=max_radius, n_radii=5, n_angles=n)
        assert _bits(close_to_convex_check(F, grid)) == _bits(helpers.close_to_convex_per_series(F, grid))
        assert _bits(half_plane_check(F, grid)) == _bits(helpers.half_plane_per_series(F, grid))


def test_power_tables_of_the_shared_rule(monkeypatch):
    """Every fold cuts its radius powers by the growth envelope's rule, once for all rows.

    A table has at least 4096 columns and about 2**16 entries, and the first
    one also holds r^0 and r^1.  A fold of a few radii up to order 4096
    takes one table; so does the 96-ring grid of the benchmark at order
    4096, the 96x4096 table that the growth envelope builds on that grid.
    """
    calls = []
    powers = series_module._radius_powers

    def counted(radii, k):
        calls.append((len(radii), int(k[0]), len(k)))
        return powers(radii, k)

    monkeypatch.setattr(series_module, "_radius_powers", counted)
    n = FOLD_N
    f = _sparse(3 * n + 5)
    for call in (
        lambda: eval_rings(f.s, [0.5], n),
        lambda: f.rings([0.5, 0.9], n),
        lambda: f.rings([0.5], n, 1),
        lambda: starlike_on_circle(f, 0.5, n),
        lambda: convex_on_circle(f, 0.5, n),
    ):
        calls.clear()
        call()
        assert [k0 for _, k0, _ in calls] == [0]
    calls.clear()
    slice_membership_sampled(f, ClassParams(1, 1, 0), 4, PolarGrid(0.9, 3, n))
    sense_preserving_check(f, PolarGrid(0.9, 3, n))
    assert [k0 for _, k0, _ in calls] == [0, 0]
    g = _sparse(4096)
    grid = PolarGrid(0.95, 96, 384)
    for call in (
        lambda: slice_membership_sampled(g, ClassParams(1, 1, 0), 16, grid),
        lambda: close_to_convex_check(g.analytic_slice(1.0), grid),
        lambda: half_plane_check(g.analytic_slice(1.0), grid),
    ):
        calls.clear()
        call()
        assert [(r, k0) for r, k0, _ in calls] == [(1, 0)]
    # 96 rings of s' and t', 4096 coefficients: one table
    calls.clear()
    sense_preserving_check(g, grid)
    assert calls == [(96, 0, 4096)]
    # past the first table the cuts fall every 4096 columns, 2 past a multiple
    calls.clear()
    eval_rings(_sparse(9000).s, grid.radii(), 384)
    assert calls == [(96, 0, 4098), (96, 4098, 4096), (96, 8194, 807)]


def test_index_two_is_never_alone_in_a_table():
    """numpy's ``power`` squares a one-column table of index 2 as ``r*r``, not by ``pow``.

    At n = 1 a fold of 30,000 radii once cut its tables at whole blocks of
    n, 2 indices each, so index 2 stood alone and its bits were not the
    one-radius fold's.  The first table now holds r^0 to r^2 at least.
    """
    s = TruncatedSeries([0, 0, 1.0])
    radii = np.linspace(0.01, 0.99, 30000)
    many = eval_rings(s, radii, 1)
    one = np.concatenate([eval_rings(s, [r], 1) for r in radii[:3000]])
    assert many[:3000].tobytes() == one.tobytes()


# -- the witness of a circle test ---------------------------------------------------


@pytest.mark.parametrize("r", [0.3, 1 / 3, 0.999])
@pytest.mark.parametrize("n", [4, 6, 333, 512, 1000, 4096])
def test_circle_witness_is_the_indexed_root(n, r):
    """_circle_verdict forms only the witness at the argmin, bitwise the element of the n roots.

    n = 6, 333 and 1000 are not powers of two, so 2*pi*k/n is rounded; a
    scalar ``np.exp(2j * np.pi * k / n)`` differs there in the last bits.
    """
    points = r * np.exp(2j * np.pi * np.arange(n) / n)
    margins = np.ones(n)
    for k in range(n):
        margins[k] = -1.0
        w = geometry._circle_verdict(margins, r, n).witness
        margins[k] = 1.0
        assert np.complex128(w).tobytes() == points[k].tobytes()


@pytest.mark.parametrize("n", [4, 512, 4096])
def test_circle_witness_ties_take_the_first_index(n):
    margins = np.ones(n)
    margins[[n // 4, n // 2, n - 1]] = -0.5
    v = geometry._circle_verdict(margins, 0.7, n)
    points = 0.7 * np.exp(2j * np.pi * np.arange(n) / n)
    assert np.complex128(v.witness).tobytes() == points[n // 4].tobytes()
    assert v.margin == -0.5 and v.samples == n


@pytest.mark.parametrize("n", [4, 512, 4096])
def test_circle_nan_margin_is_a_domain_error(n):
    margins = np.ones(n)
    margins[n // 2] = np.nan
    with pytest.raises(DomainError, match=r"sampled margin is not finite \(nan\)"):
        geometry._circle_verdict(margins, 0.7, n)
