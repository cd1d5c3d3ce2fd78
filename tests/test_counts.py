"""Counts (grid sizes, sample counts, orders, term counts) must be integers.

A float, NaN or string is a DomainError, not a silently rounded grid or a
bare TypeError from numpy; numpy integers are counts like any other.  A grid
radius must be a real number.
"""

import numpy as np
import pytest

from harmonicdisk import (
    ClassParams,
    DomainError,
    PolarGrid,
    circle_image,
    convex_on_circle,
    convexity_threshold_lambda,
    growth_lower,
    growth_upper,
    identity_map,
    injective_on_circle,
    make_extremal_full,
    make_extremal_single,
    numeric_radius_oracle,
    slice_membership_sampled,
    starlike_on_circle,
)

P = ClassParams(1, 1.5, 0.2)
F = make_extremal_single(P, 3, order=16)

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
}


@pytest.mark.parametrize("call", REJECTED.values(), ids=REJECTED.keys())
def test_non_integer_count_is_a_domain_error(call):
    with pytest.raises(DomainError):
        call()


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
}


@pytest.mark.parametrize("call", ACCEPTED.values(), ids=ACCEPTED.keys())
def test_numpy_integer_count_equals_int(call):
    assert repr(call(np.int64)) == repr(call(int))
