"""Counts must be integers, reals must be real numbers, points must be complex.

A count (grid size, sample count, order, term count) given as a float, NaN
or string is a DomainError, not a silently rounded grid or a bare TypeError
from numpy; numpy integers are counts like any other.  A count below its
minimum is a DomainError that names the count, the minimum and the value.

A real argument (radius, tolerance, scale factor, weight, fraction, class
parameter) given as None, a string, a bool, a complex, NaN, an infinity or
an int beyond the double range is a DomainError "{name} must be a finite
real number, got {value!r}"; one outside its interval is "{name} must lie in
(0, 1], got 0.0".  numpy reals give the results of the equal Python numbers.
A complex scalar (evaluation point, slice parameter, monomial coefficient)
follows the same type rule, and so do the parts of a series or a map.
"""

import numpy as np
import pytest

from harmonicdisk import (
    CirclePolyline,
    ClassParams,
    DomainError,
    HarmonicMap,
    PolarGrid,
    TruncatedSeries,
    apply_operator,
    circle_image,
    convex_combination,
    convex_on_circle,
    convolve_analytic,
    convexity_threshold_lambda,
    growth_envelope_check,
    growth_lower,
    growth_upper,
    identity_map,
    injective_on_circle,
    make_extremal_full,
    make_extremal_single,
    numeric_radius_oracle,
    radius_fully_convex,
    random_member,
    slice_membership_sampled,
    starlike_on_circle,
)
from harmonicdisk.series import eval_rings

P = ClassParams(1, 1.5, 0.2)
F = make_extremal_single(P, 3, order=16)
G = make_extremal_single(P, 2, order=16)
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


#: Each real argument as a call of one value, with the name its errors carry.
REAL_SITES = {
    "grid max_radius": ("grid max_radius", lambda x: PolarGrid(max_radius=x)),
    "circle radius": ("circle radius", lambda x: circle_image(F, x)),
    "growth radius": ("growth radius r", lambda x: growth_upper(P, x)),
    "scale factor": ("scale factor", lambda x: F.s.scale_argument(x)),
    "tolerance": ("tolerance", lambda x: radius_fully_convex(P, x)),
    "threshold delta": ("delta", lambda x: convexity_threshold_lambda(x, 100)),
    "weight": ("weights[1]", lambda x: convex_combination([F, G], [1, x])),
    "random_member u": ("target fraction u", lambda x: random_member(P, rng(), u=x)),
    "gamma": ("gamma", lambda x: ClassParams(x, 2, 0)),
    "delta": ("delta", lambda x: ClassParams(1, x, 0)),
    "lam": ("lam", lambda x: ClassParams(1, 2, x)),
}

NOT_REAL = {
    "None": None,
    "str": "0.5",
    "True": True,
    "1j": 1j,
    "nan": float("nan"),
    "inf": float("inf"),
    "10**400": 10**400,
}

#: Every site and non-real value, except that u=None draws u from the generator.
NOT_REAL_CASES = [
    (site, label) for site in REAL_SITES for label in NOT_REAL if (site, label) != ("random_member u", "None")
]


@pytest.mark.parametrize(("site", "label"), NOT_REAL_CASES, ids=[f"{s}-{lb}" for s, lb in NOT_REAL_CASES])
def test_non_real_names_the_argument(site, label):
    name, call = REAL_SITES[site]
    x = NOT_REAL[label]
    with pytest.raises(DomainError) as err:
        call(x)
    assert str(err.value) == f"{name} must be a finite real number, got {x!r}"


OUTSIDE_INTERVAL = {
    "grid max_radius": (lambda: PolarGrid(max_radius=1), "grid max_radius must lie in (0, 1), got 1.0"),
    "circle radius": (lambda: circle_image(F, 0), "circle radius must lie in (0, 1), got 0.0"),
    "growth radius": (lambda: growth_upper(P, 1.0), "growth radius r must lie in [0, 1), got 1.0"),
    "scale factor": (lambda: F.s.scale_argument(0.0), "scale factor must lie in (0, 1], got 0.0"),
    "tolerance": (lambda: radius_fully_convex(P, -1), "tolerance must lie in (0, inf), got -1.0"),
    "threshold delta": (
        lambda: convexity_threshold_lambda(0.5), "delta must lie in [1, inf), got 0.5"
    ),
    "weight": (
        lambda: convex_combination([F, G], [1.5, -0.5]), "weights[1] must lie in [0, inf), got -0.5"
    ),
    "random_member u": (
        lambda: random_member(P, rng(), u=1.5), "target fraction u must lie in [0, 1], got 1.5"
    ),
    "gamma": (
        lambda: ClassParams(0, 1, 0), "0 <= lambda < gamma violated: lambda=0.0, gamma=0.0"
    ),
    "delta": (
        lambda: ClassParams(1, 0.5, 0), "gamma <= delta violated: gamma=1.0, delta=0.5"
    ),
    "lam": (
        lambda: ClassParams(1, 2, -0.5), "0 <= lambda < gamma violated: lambda=-0.5, gamma=1.0"
    ),
}


@pytest.mark.parametrize(("call", "message"), OUTSIDE_INTERVAL.values(), ids=OUTSIDE_INTERVAL.keys())
def test_real_outside_its_interval_names_the_interval(call, message):
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message


NOT_COMPLEX = {
    "series evaluate str": (
        lambda: F.s.evaluate("0.5"), "evaluation point z must be a complex number, got '0.5'"
    ),
    "series evaluate None": (
        lambda: F.s.evaluate(None), "evaluation point z must be a complex number, got None"
    ),
    "map evaluate str": (
        lambda: F.evaluate("x"), "evaluation point z must be a complex number, got 'x'"
    ),
    "map evaluate True": (
        lambda: F.evaluate(True), "evaluation point z must be a complex number, got True"
    ),
    "apply_operator str": (
        lambda: apply_operator(F.s, P, "0.5"),
        "evaluation point z must be a complex number, got '0.5'",
    ),
    "apply_operator 10**400": (
        lambda: apply_operator(F.s, P, 10**400),
        f"evaluation point z must be a complex number, got {10**400!r}",
    ),
    "slice str": (
        lambda: F.analytic_slice("1"), "slice parameter eps must be a complex number, got '1'"
    ),
    "slice None": (
        lambda: F.analytic_slice(None), "slice parameter eps must be a complex number, got None"
    ),
    "monomial c": (
        lambda: TruncatedSeries.monomial(1, "x"),
        "monomial coefficient c must be a complex number, got 'x'",
    ),
    "series of strings": (
        lambda: TruncatedSeries(["a"]), "coefficients must be complex numbers"
    ),
    "ragged series": (
        lambda: TruncatedSeries([[0, 1], [0]]),
        "coefficients must be complex numbers",
    ),
    "map of lists": (
        lambda: HarmonicMap([0, 1], [0, 0]), "s must be a TruncatedSeries, got list"
    ),
    "map t list": (lambda: HarmonicMap(F.s, [0, 0]), "t must be a TruncatedSeries, got list"),
    "convolve_analytic list": (
        lambda: convolve_analytic(F, [0, 1]), "phi must be a TruncatedSeries, got list"
    ),
}


@pytest.mark.parametrize(("call", "message"), NOT_COMPLEX.values(), ids=NOT_COMPLEX.keys())
def test_non_complex_scalar_or_part_is_a_domain_error(call, message):
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message


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


#: Each real argument as a call of one value, with in-domain values to try;
#: the integer values are also tried as np.int64 against int.
REAL_ACCEPTED = {
    "grid": ((0.9,), lambda x: PolarGrid(max_radius=x, n_radii=3, n_angles=16).points().tolist()),
    "grid describe": ((0.9,), lambda x: PolarGrid(max_radius=x).describe()),
    "circle_image": ((0.5,), lambda x: circle_image(F, x).points.tolist()),
    "starlike": ((0.5,), lambda x: starlike_on_circle(F, x)),
    "growth_upper": ((0, 0.5), lambda x: growth_upper(P, x)),
    "growth_lower": ((0, 0.5), lambda x: growth_lower(P, x)),
    "scale_argument": ((1, 0.5), lambda x: F.s.scale_argument(x).coeffs.tolist()),
    "tolerance": ((1, 1e-6), lambda x: radius_fully_convex(P, x)),
    "oracle tolerance": ((1e-2,), lambda x: numeric_radius_oracle(F, "convex", tol=x, n_theta=256)),
    "threshold delta": ((2, 1.5), lambda x: convexity_threshold_lambda(x, 100)),
    "weights": ((0, 1, 0.25), lambda x: both_parts(convex_combination([F, G], [x, 1 - x]))),
    "random_member u": ((0, 1, 0.5), lambda x: both_parts(random_member(P, rng(), u=x))),
    "params": ((1, 0.5), lambda x: radius_fully_convex(ClassParams(1 + x, 2 + x, x))),
    "evaluate": ((0, 0.5), lambda x: F.evaluate(x)),
    "slice": ((1, -1.0), lambda x: F.analytic_slice(x).coeffs.tolist()),
}


@pytest.mark.parametrize(("values", "call"), REAL_ACCEPTED.values(), ids=REAL_ACCEPTED.keys())
def test_numpy_real_equals_python_real(values, call):
    for x in values:
        as_numpy = np.int64 if isinstance(x, int) else np.float64
        assert repr(call(as_numpy(x))) == repr(call(x))
