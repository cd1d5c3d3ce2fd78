import math
import sys
import time
import tracemalloc

import mpmath
import numpy as np
import pytest

from harmonicdisk import (
    ClassParams,
    DomainError,
    HarmonicMap,
    ThresholdReport,
    TruncatedSeries,
    convex_radius_poly,
    convexity_threshold_lambda,
    identity_map,
    make_extremal_full,
    make_extremal_single,
    numeric_radius_oracle,
    radius_fully_convex,
    radius_fully_starlike,
    starlike_radius_exact,
    starlike_radius_poly,
)
from harmonicdisk import radii as radii_mod

from helpers import random_params

P110 = ClassParams(1, 1, 0)
BELOW_ONE = math.nextafter(1.0, 0.0)


def reference_radii(p: ClassParams) -> tuple:
    """(r_s, r_c) at 80 digits: 1 - sqrt(P), and 1 - x for the real root of x^3 + P x - 2P."""
    with mpmath.workdps(80):
        g, d, lm = (mpmath.mpf(v) for v in (p.gamma, p.delta, p.lam))
        P = (g - lm) / (d + 2 * g - lm)
        w = 1 + mpmath.sqrt(1 + P / 27)
        x = mpmath.cbrt(P * w) - mpmath.cbrt(P * P / (27 * w))
        assert abs(x**3 + P * x - 2 * P) <= mpmath.mpf(10) ** -70 * P
        return 1 - mpmath.sqrt(P), 1 - x


def assert_near_reference(radius: float, ref) -> None:
    """*radius* within 16 ulp of *ref*, or exactly the largest double below 1 where *ref* rounds to 1."""
    nearest = float(ref)
    if nearest == 1.0:
        assert radius == BELOW_ONE
    else:
        assert abs(mpmath.mpf(radius) - ref) <= 16 * math.ulp(nearest), (radius, ref)


class TestPolynomials:
    def test_convex_poly_values(self):
        # pc = -3r^3 + 9r^2 - 10r + 2 at (1, 1, 0)
        assert convex_radius_poly(P110, 0.0) == 2.0
        assert convex_radius_poly(P110, 0.5) == pytest.approx(-1.125)
        assert convex_radius_poly(P110, 1.0) == pytest.approx(-2.0)

    def test_starlike_poly_values(self):
        # ps = 3r^2 - 6r + 2 at (1, 1, 0)
        assert starlike_radius_poly(P110, 0.0) == 2.0
        assert starlike_radius_poly(P110, 0.5) == pytest.approx(-0.25)
        assert starlike_radius_poly(P110, 1.0) == pytest.approx(-1.0)

    def test_endpoint_values_random_params(self):
        rng = np.random.default_rng(79)
        for _ in range(100):
            p = random_params(rng)
            assert convex_radius_poly(p, 0.0) == p.delta + p.gamma > 0
            assert convex_radius_poly(p, 1.0) < 0
            assert abs(convex_radius_poly(p, 1.0) - 2 * (p.lam - p.gamma)) <= 1e-12
            assert starlike_radius_poly(p, 0.0) == p.delta + p.gamma > 0
            assert starlike_radius_poly(p, 1.0) < 0
            assert abs(starlike_radius_poly(p, 1.0) - (p.lam - p.gamma)) <= 1e-12

    def test_strictly_decreasing_on_unit_interval(self):
        rng = np.random.default_rng(83)
        rs = np.linspace(0.005, 0.995, 100)
        for _ in range(20):
            p = random_params(rng)
            g, d, lm = p.gamma, p.delta, p.lam
            for r in rs:
                pc_prime = (
                    3 * (-d - 2 * g + lm) * r * r
                    + 2 * (3 * d + 6 * g - 3 * lm) * r
                    + (-3 * d - 7 * g + 4 * lm)
                )
                ps_prime = 2 * (d + 2 * g - lm) * (r - 1)
                assert pc_prime < 0
                assert ps_prime < 0


class TestRadiusSolvers:
    def test_starlike_closed_forms(self):
        assert radius_fully_starlike(P110, 1e-9).radius == pytest.approx(
            1 - 1 / math.sqrt(3), abs=1e-9
        )
        assert radius_fully_starlike(ClassParams(1, 2, 0), 1e-9).radius == pytest.approx(
            0.5, abs=1e-9
        )

    def test_starlike_matches_quadratic_formula(self):
        rng = np.random.default_rng(89)
        for _ in range(20):
            p = random_params(rng)
            rep = radius_fully_starlike(p, 1e-12)
            assert abs(rep.radius - starlike_radius_exact(p)) <= 1e-12

    def test_convex_radius_bracket(self):
        rep = radius_fully_convex(P110, 1e-9)
        assert 0.25 < rep.radius < 0.26
        assert rep.residual <= 1e-15
        assert rep.bracket == (rep.radius, rep.radius)
        assert (rep.iterations, rep.method) == (0, "closed_form")

    def test_residuals_over_random_params(self):
        rng = np.random.default_rng(97)
        for _ in range(100):
            p = random_params(rng)
            rc = radius_fully_convex(p, 1e-9)
            rs = radius_fully_starlike(p, 1e-9)
            assert rc.residual <= 1e-9
            assert rs.residual <= 1e-9
            assert 0 < rc.radius < 1 and 0 < rs.radius < 1
            # convexity is the stronger property, so its radius is smaller
            assert rc.radius < rs.radius

    def test_monotone_in_lambda(self):
        r0 = radius_fully_convex(P110, 1e-9).radius
        r5 = radius_fully_convex(ClassParams(1, 1, 0.5), 1e-9).radius
        assert r5 > r0

    def test_rejects_bad_tolerance(self):
        with pytest.raises(DomainError):
            radius_fully_convex(P110, 0.0)


class TestFactoredForms:
    """Residuals are of a*(1-r)^3 - (gamma-lam)*(1+r) and a*(1-r)^2 - (gamma-lam), a = delta+2*gamma-lam."""

    def test_forms_equal_the_polynomials(self):
        rng = np.random.default_rng(103)
        for _ in range(2000):
            p = random_params(rng)
            r = float(rng.uniform(0.0, 1.0))
            size = p.delta + 2.0 * p.gamma + p.lam
            assert abs(radii_mod._convex_form(p, r) - convex_radius_poly(p, r)) <= 1e-14 * size
            assert abs(radii_mod._starlike_form(p, r) - starlike_radius_poly(p, r)) <= 1e-14 * size

    @pytest.mark.parametrize("delta", [1e10, 1e100, 1e200, 1e307])
    def test_large_delta_brackets_the_root(self, delta):
        # the bracket is (radius, root): a point where the root is a double,
        # (nextafter(1, 0), 1) where it rounds to 1
        p = ClassParams(1, delta, 0)
        ref_s, ref_c = reference_radii(p)
        for solve, form, ref in (
            (radius_fully_convex, radii_mod._convex_form, ref_c),
            (radius_fully_starlike, radii_mod._starlike_form, ref_s),
        ):
            rep = solve(p, 1e-9)
            assert_near_reference(rep.radius, ref)
            assert rep.bracket == (rep.radius, 1.0 if float(ref) == 1.0 else rep.radius)
            assert rep.residual == abs(form(p, rep.radius))

    def test_root_within_one_ulp_of_one_is_reported_inside(self):
        # at delta = 1e307 the convex root is 1 - 5.8e-103; the cubic of the
        # paper cancels to a residual 0 at 0.99999912, where its true value is +6.8e288
        p = ClassParams(1, 1e307, 0)
        below_one = math.nextafter(1.0, 0.0)
        for solve in (radius_fully_convex, radius_fully_starlike):
            rep = solve(p)
            assert rep.radius == below_one and rep.bracket == (below_one, 1.0)


class TestClosedForms:
    """Both class radii against the same formulas at 80 digits."""

    @staticmethod
    def triples():
        rng = np.random.default_rng(107)
        for _ in range(300):
            gamma = 10.0 ** rng.uniform(-3, 3)
            delta = gamma * 10.0 ** rng.uniform(0, 300)
            yield ClassParams(gamma, delta, gamma * float(rng.uniform(0, 1)))
        yield from (P110, ClassParams(1, 2, 0), ClassParams(1, 1, math.nextafter(1.0, 0.0)))
        # a = delta + 2 gamma - lam is past the double range here, P is not
        yield ClassParams(1e308, 1e308, 0)
        yield ClassParams(1e308, sys.float_info.max, 5e307)

    def test_radii_match_the_reference(self):
        for p in self.triples():
            ref_s, ref_c = reference_radii(p)
            for rep, ref in ((radius_fully_starlike(p), ref_s), (radius_fully_convex(p), ref_c)):
                assert_near_reference(rep.radius, ref)
                assert math.isfinite(rep.residual)

    @pytest.mark.parametrize(
        "p",
        [
            ClassParams(1, sys.float_info.max, 0),
            ClassParams(1e-300, 1e300, 0),
            ClassParams(1e-310, 1e10, 0),  # P underflows to 0
        ],
        ids=["max", "1e600", "underflow"],
    )
    def test_clamped_roots_are_the_largest_double_below_one(self, p):
        for solve in (radius_fully_convex, radius_fully_starlike):
            rep = solve(p)
            assert rep.radius == BELOW_ONE and rep.bracket == (BELOW_ONE, 1.0)

    def test_tolerance_changes_nothing(self):
        for tol in (1e-15, 1e-9, 0.1, 10.0):
            assert radius_fully_convex(P110, tol) == radius_fully_convex(P110)
            assert radius_fully_starlike(P110, tol) == radius_fully_starlike(P110)


class TestConvexityThreshold:
    def test_delta_three_converges(self):
        rep = convexity_threshold_lambda(3, 10000)
        assert not rep.diverged
        # at delta = 3 the terms are -1/(m+1)^2, so the infinite sum is
        # 1 - zeta(2) and the solved lambda is 1 - 9/pi^2
        with mpmath.workdps(50):
            s_inf = 1 - mpmath.pi**2 / 6
            lam_inf = (7 - 9 - 4 * s_inf) / (4 - 4 * s_inf)
            assert abs(rep.lam - lam_inf) <= rep.lam_error_estimate
        assert rep.lam_error_estimate <= 1e-15

    # S diverges at every delta but 3, however close to 3
    @pytest.mark.parametrize(
        "delta",
        [1, 2, 5, 2.99881, 2.999, 3.0009, math.nextafter(3.0, 0.0), math.nextafter(3.0, 4.0), 1e308],
    )
    def test_divergent_deltas_reported(self, delta):
        rep = convexity_threshold_lambda(delta, 10000)
        assert rep.diverged and rep.lam is None and rep.lam_error_estimate is None

    def test_delta_three_stable_under_window(self):
        assert not convexity_threshold_lambda(3, 2000).diverged

    def test_n_terms_changes_nothing(self):
        for delta in (3, 2, 1e300):
            reps = [convexity_threshold_lambda(delta, n) for n in (10, 2000, 10000, 10**15)]
            assert all(r == reps[0] for r in reps), delta

    # the closed form's bits, the same as those of the summing implementation
    # it replaced, at term counts below, at and across its 2^16-term blocks
    @pytest.mark.parametrize("n_terms", [10, 10000, 3 * (1 << 16) + 5])
    def test_delta_three_bits(self, n_terms):
        assert convexity_threshold_lambda(3, n_terms) == ThresholdReport(
            delta=3.0,
            diverged=False,
            lam=float.fromhex("0x1.68e558cc6ffe0p-4"),
            lam_error_estimate=float.fromhex("0x1.0p-51"),
        )

    def test_time_does_not_grow_with_terms(self):
        start = time.perf_counter()
        convexity_threshold_lambda(2, 10**9)
        assert time.perf_counter() - start < 0.5

    def test_memory_does_not_grow_with_terms(self):
        tracemalloc.start()
        try:
            convexity_threshold_lambda(3, 10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one array of 10^7 terms alone is 80 MB
        assert peak < 4e6

    @pytest.mark.parametrize("delta", [2e300, 1e308, sys.float_info.max])
    def test_huge_delta_diverges_with_finite_fields(self, delta):
        # the series' factors overflow here (unscaled, to a convergent-looking
        # lam of -8.6e298 at 2e300 and to nan at 1e308), so nothing may sum them
        rep = convexity_threshold_lambda(delta)
        assert rep == ThresholdReport(delta=float(delta), diverged=True)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            convexity_threshold_lambda(0.5, 10000)
        with pytest.raises(DomainError):
            convexity_threshold_lambda(3, 5)


class TestNumericOracle:
    def test_identity_caps_at_probe_maximum(self):
        rep = numeric_radius_oracle(identity_map(), "starlike", n_theta=256)
        assert rep.radius == 0.999
        assert rep.method == "oracle"
        assert "capped" in rep.note

    def test_single_extremal_beats_class_radius(self):
        f = make_extremal_single(P110, 2)
        rep = numeric_radius_oracle(f, "starlike", tol=1e-3, n_theta=512)
        assert rep.radius >= radius_fully_starlike(P110, 1e-9).radius - 1e-3

    def test_full_extremal_convex_beats_class_radius(self):
        f = make_extremal_full(P110, 64)
        rep = numeric_radius_oracle(f, "convex", tol=1e-3, n_theta=512)
        assert rep.radius >= radius_fully_convex(P110, 1e-9).radius - 1e-3

    def test_bracket_endpoints_certify_transition(self):
        # z + 0.4 conj(z)^2 loses circle convexity around r ~ 0.63
        from harmonicdisk import convex_on_circle

        f = HarmonicMap(TruncatedSeries([0, 1, 0]), TruncatedSeries([0, 0, 0.4]))
        rep = numeric_radius_oracle(f, "convex", tol=1e-3, n_theta=512)
        lo, hi = rep.bracket
        assert lo < rep.radius < hi and hi - lo <= 1e-3
        assert convex_on_circle(f, lo, 512).holds
        assert not convex_on_circle(f, hi, 512).holds

    def test_degenerate_report(self, monkeypatch):
        # starlikeness cannot fail near 0 for a normalized map, so drive the
        # degenerate branch by stubbing the circle test
        from harmonicdisk import geometry
        from harmonicdisk.sampling import MembershipVerdict

        def always_fails(f, r, n):
            return MembershipVerdict(holds=False, margin=-1.0, witness=0j, samples=n)

        monkeypatch.setattr(geometry, "starlike_on_circle", always_fails)
        rep = numeric_radius_oracle(identity_map(), "starlike")
        assert "degenerate" in rep.note
        assert rep.bracket == (0.0, 1e-3)

    def test_rejects_unknown_property(self):
        with pytest.raises(DomainError):
            numeric_radius_oracle(identity_map(), "roundish")


SOLVES = {
    "convex": lambda tol: radius_fully_convex(P110, tol),
    "starlike": lambda tol: radius_fully_starlike(P110, tol),
    "oracle": lambda tol: numeric_radius_oracle(identity_map(2), "convex", tol=tol),
}


BAD_TOLERANCES = [
    ("0.1", "tolerance must be a finite real number, got '0.1'"),
    (None, "tolerance must be a finite real number, got None"),
    (float("nan"), "tolerance must be a finite real number, got nan"),
    (float("inf"), "tolerance must be a finite real number, got inf"),
    (0.0, "tolerance must lie in (0, inf), got 0.0"),
    (-1e-3, "tolerance must lie in (0, inf), got -0.001"),
]


@pytest.mark.parametrize(("tol", "message"), [pytest.param(t, m, id=repr(t)) for t, m in BAD_TOLERANCES])
@pytest.mark.parametrize("solve", SOLVES.values(), ids=SOLVES.keys())
def test_tolerance_must_be_a_finite_positive_real(solve, tol, message):
    with pytest.raises(DomainError) as err:
        solve(tol)
    assert str(err.value) == message
