"""Counts (grid sizes, sample counts, orders, term counts) must be integers.

A float, NaN or string is a DomainError, not a silently rounded grid or a
bare TypeError from numpy; numpy integers are counts like any other.  A grid
radius must be a real number.  A count below its minimum is a DomainError
that names the count, the minimum and the value.
"""

import numpy as np
import pytest

from harmonicdisk import (
    CirclePolyline,
    ClassParams,
    DomainError,
    PolarGrid,
    TruncatedSeries,
    circle_image,
    convex_on_circle,
    convexity_threshold_lambda,
    growth_envelope_check,
    growth_lower,
    growth_upper,
    identity_map,
    injective_on_circle,
    make_extremal_full,
    make_extremal_single,
    numeric_radius_oracle,
    random_member,
    slice_membership_sampled,
    starlike_on_circle,
)
from harmonicdisk.series import eval_rings

P = ClassParams(1, 1.5, 0.2)
F = make_extremal_single(P, 3, order=16)
PTS = np.zeros(64, dtype=np.complex128)


def rng():
    return np.random.default_rng(7)


def both_parts(f):
    return f.s.coeffs.tolist(), f.t.coeffs.tolist()


REJECTED = {
    "grid n_radii 2.5": lambda: PolarGrid(n_radii=2.5),
    "grid n_angles nan": lambda: PolarGrid(n_angles=float("nan")),
    "grid n_angles 96.0": lambda: PolarGrid(n_angles=96.0),
    "grid max_radius str": lambda: PolarGrid(max_radius="0.9"),
    "grid max_radius nan": lambda: PolarGrid(max_radius=float("nan")),
    "grid max_radius inf": lambda: PolarGrid(max_radius=float("inf")),
    "slice n_eps 16.5": lambda: slice_membership_sampled(identity_map(), P, n_eps=16.5),
    "circle_image n 256.0": lambda: circle_image(F, 0.5, 256.0),
    "starlike n 256.0": lambda: starlike_on_circle(F, 0.5, 256.0),
    "convex n 256.0": lambda: convex_on_circle(F, 0.5, 256.0),
    "injective n 256.0": lambda: injective_on_circle(F, 0.5, 256.0),
    "oracle n_theta 512.0": lambda: numeric_radius_oracle(F, "starlike", n_theta=512.0),
    "growth_upper n_terms 64.0": lambda: growth_upper(P, 0.5, 64.0),
    "growth_lower n_terms 64.0": lambda: growth_lower(P, 0.5, 64.0),
    "extremal_full order 64.0": lambda: make_extremal_full(P, 64.0),
    "extremal_single m 2.5": lambda: make_extremal_single(P, 2.5),
    "extremal_single order 64.0": lambda: make_extremal_single(P, 2, order=64.0),
    "threshold n_terms 100.5": lambda: convexity_threshold_lambda(1.5, 100.5),
    "zero order 2.5": lambda: TruncatedSeries.zero(2.5),
    "identity order 3.0": lambda: TruncatedSeries.identity(3.0),
    "monomial order 4.0": lambda: TruncatedSeries.monomial(2, order=4.0),
    "derivative k 1.5": lambda: F.s.derivative(1.5),
    "coeff m 1.0": lambda: F.s.coeff(1.0),
    "eval_rings n 64.0": lambda: eval_rings(F.s, [0.5], 64.0),
    "rings j 1.0": lambda: F.rings([0.5], 64, 1.0),
    "identity_map order 2.5": lambda: identity_map(2.5),
    "polyline n 64.0": lambda: CirclePolyline(0.5, PTS, 64.0),
    "random_member order 16.0": lambda: random_member(P, rng(), order=16.0),
    "random_member max_terms 2.5": lambda: random_member(P, rng(), max_terms=2.5),
    # pad_to(5.5) raised a bare TypeError and pad_to(0.5) returned the series
    "pad_to order 5.5": lambda: TruncatedSeries.identity(1).pad_to(5.5),
    "pad_to order 0.5": lambda: TruncatedSeries.identity(1).pad_to(0.5),
    "pad_to order -1": lambda: TruncatedSeries.identity(1).pad_to(-1),
}


@pytest.mark.parametrize("call", REJECTED.values(), ids=REJECTED.keys())
def test_non_integer_count_is_a_domain_error(call):
    with pytest.raises(DomainError):
        call()


BELOW_MINIMUM = {
    "grid n_radii": (lambda: PolarGrid(n_radii=0), "grid n_radii must be at least 1, got 0"),
    "grid n_angles": (lambda: PolarGrid(n_angles=3), "grid n_angles must be at least 4, got 3"),
    "slice n_eps": (
        lambda: slice_membership_sampled(F, P, n_eps=3), "n_eps must be at least 4, got 3"
    ),
    "circle_image n": (
        lambda: circle_image(F, 0.5, 63), "circle sample count must be at least 64, got 63"
    ),
    "starlike n": (
        lambda: starlike_on_circle(F, 0.5, 63), "circle sample count must be at least 64, got 63"
    ),
    "convex n": (
        lambda: convex_on_circle(F, 0.5, 63), "circle sample count must be at least 64, got 63"
    ),
    "injective n": (
        lambda: injective_on_circle(F, 0.5, 63), "circle sample count must be at least 64, got 63"
    ),
    "oracle n_theta": (
        lambda: numeric_radius_oracle(F, "convex", n_theta=63),
        "circle sample count must be at least 64, got 63",
    ),
    "polyline n": (
        lambda: CirclePolyline(0.5, PTS[:63], 63), "polyline n must be at least 64, got 63"
    ),
    "growth_upper n_terms": (lambda: growth_upper(P, 0.5, 1), "n_terms must be at least 2, got 1"),
    "growth_lower n_terms": (lambda: growth_lower(P, 0.5, 1), "n_terms must be at least 2, got 1"),
    "envelope check n_terms": (
        lambda: growth_envelope_check(F, P, n_terms=1), "n_terms must be at least 2, got 1"
    ),
    "extremal_single m": (
        lambda: make_extremal_single(P, 1), "extremal index m must be at least 2, got 1"
    ),
    "extremal_single order": (
        lambda: make_extremal_single(P, 5, order=4), "order must be at least 5, got 4"
    ),
    "extremal_full order": (lambda: make_extremal_full(P, 1), "order must be at least 2, got 1"),
    "threshold n_terms": (
        lambda: convexity_threshold_lambda(1.5, 9), "n_terms must be at least 10, got 9"
    ),
    "zero order": (lambda: TruncatedSeries.zero(-1), "order must be at least 0, got -1"),
    "identity order": (lambda: TruncatedSeries.identity(0), "order must be at least 1, got 0"),
    "identity_map order": (lambda: identity_map(0), "order must be at least 1, got 0"),
    "monomial m": (
        lambda: TruncatedSeries.monomial(-1), "monomial exponent m must be at least 0, got -1"
    ),
    "monomial order": (
        lambda: TruncatedSeries.monomial(3, order=2), "order must be at least 3, got 2"
    ),
    "geometric order": (lambda: TruncatedSeries.geometric(0), "order must be at least 1, got 0"),
    "coeff m": (lambda: F.s.coeff(-1), "coefficient index m must be at least 0, got -1"),
    "derivative k": (lambda: F.s.derivative(-1), "derivative order must be at least 0, got -1"),
    "eval_rings n": (
        lambda: eval_rings(F.s, [0.5], 0), "ring sample count n must be at least 1, got 0"
    ),
    "rings j": (lambda: F.rings([0.5], 64, -1), "ring derivative order must be at least 0, got -1"),
    "random_member order": (
        lambda: random_member(P, rng(), order=1), "order must be at least 2, got 1"
    ),
    # max_terms = 0 used to loop forever waiting for a nonzero term count
    "random_member max_terms": (
        lambda: random_member(P, rng(), max_terms=0), "max_terms must be at least 1, got 0"
    ),
}


@pytest.mark.parametrize(("call", "message"), BELOW_MINIMUM.values(), ids=BELOW_MINIMUM.keys())
def test_count_below_its_minimum_names_the_minimum(call, message):
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message


ACCEPTED = {
    "grid": lambda n: PolarGrid(n_radii=n(3), n_angles=n(16)).points().tolist(),
    "grid describe": lambda n: PolarGrid(n_radii=n(3), n_angles=n(16)).describe(),
    "slice": lambda n: slice_membership_sampled(F, P, n_eps=n(16)),
    "circle_image": lambda n: circle_image(F, 0.5, n(256)).points.tolist(),
    "starlike": lambda n: starlike_on_circle(F, 0.5, n(256)),
    "convex": lambda n: convex_on_circle(F, 0.5, n(256)),
    "injective": lambda n: injective_on_circle(F, 0.5, n(256)),
    "oracle": lambda n: numeric_radius_oracle(F, "convex", n_theta=n(256)),
    "growth_upper": lambda n: growth_upper(P, 0.5, n(64)).value,
    "extremal_full": lambda n: make_extremal_full(P, n(64)).s.coeffs.tolist(),
    "zero": lambda n: TruncatedSeries.zero(n(5)).coeffs.tolist(),
    "identity": lambda n: TruncatedSeries.identity(n(5)).coeffs.tolist(),
    "monomial": lambda n: TruncatedSeries.monomial(n(2), 0.5, order=n(6)).coeffs.tolist(),
    "geometric": lambda n: TruncatedSeries.geometric(n(6)).coeffs.tolist(),
    "eval_rings": lambda n: eval_rings(F.s, [0.25, 0.5], n(64)).tolist(),
    "identity_map": lambda n: both_parts(identity_map(n(4))),
    "extremal_single": lambda n: make_extremal_single(P, n(3), order=n(20)).t.coeffs.tolist(),
    "random_member": lambda n: both_parts(random_member(P, rng(), order=n(16), max_terms=n(3))),
    "pad_to": lambda n: [F.s.pad_to(n(k)).coeffs.tolist() for k in (2, 16, 20)],
}


@pytest.mark.parametrize("call", ACCEPTED.values(), ids=ACCEPTED.keys())
def test_numpy_integer_count_equals_int(call):
    assert repr(call(np.int64)) == repr(call(int))
