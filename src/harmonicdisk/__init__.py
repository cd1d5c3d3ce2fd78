"""Planar harmonic mappings on the unit disk.

Library and CLI for constructing, testing and analyzing normalized harmonic
maps f = s + conj(t) constrained by a three-parameter third-order
differential inequality: sharp coefficient and growth bounds, closure
operations, membership checks, and fully-convex / fully-starlike radius
computation with numeric cross-validation.
"""

from .bounds import (
    BoundReport,
    BoundRow,
    GrowthEstimate,
    coefficient_bound_check,
    growth_envelope_check,
    growth_lower,
    growth_upper,
)
from .closure import convex_combination, convolve_analytic, convolve_harmonic, random_member
from .errors import (
    DegenerateCurveError,
    DocumentError,
    DomainError,
    HarmonicDiskError,
    InternalConsistencyError,
    NormalizationError,
)
from .geometry import (
    CirclePolyline,
    circle_image,
    convex_on_circle,
    injective_on_circle,
    starlike_on_circle,
)
from .maps import (
    ClassParams,
    HarmonicMap,
    identity_map,
    make_extremal_full,
    make_extremal_single,
    sense_preserving_check,
)
from .membership import (
    SufficientCondition,
    apply_operator,
    close_to_convex_check,
    half_plane_check,
    membership_sampled,
    membership_sufficient,
    operator_coeffs,
    slice_membership_sampled,
)
from .radii import (
    RadiusReport,
    ThresholdReport,
    convex_radius_poly,
    convexity_threshold_lambda,
    numeric_radius_oracle,
    radius_fully_convex,
    radius_fully_starlike,
    starlike_radius_exact,
    starlike_radius_poly,
)
from .sampling import MembershipVerdict, PolarGrid
from .serialize import load_map, map_to_document, save_map
from .series import COEFF_TOL, TruncatedSeries
from .svgplot import emit_svg

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "BoundRow",
    "COEFF_TOL",
    "CirclePolyline",
    "ClassParams",
    "DegenerateCurveError",
    "DocumentError",
    "DomainError",
    "GrowthEstimate",
    "HarmonicDiskError",
    "HarmonicMap",
    "InternalConsistencyError",
    "MembershipVerdict",
    "NormalizationError",
    "PolarGrid",
    "RadiusReport",
    "SufficientCondition",
    "ThresholdReport",
    "TruncatedSeries",
    "apply_operator",
    "circle_image",
    "close_to_convex_check",
    "coefficient_bound_check",
    "convex_combination",
    "convex_on_circle",
    "convex_radius_poly",
    "convexity_threshold_lambda",
    "convolve_analytic",
    "convolve_harmonic",
    "emit_svg",
    "growth_envelope_check",
    "growth_lower",
    "growth_upper",
    "half_plane_check",
    "identity_map",
    "injective_on_circle",
    "load_map",
    "make_extremal_full",
    "make_extremal_single",
    "map_to_document",
    "membership_sampled",
    "membership_sufficient",
    "numeric_radius_oracle",
    "operator_coeffs",
    "radius_fully_convex",
    "radius_fully_starlike",
    "random_member",
    "save_map",
    "sense_preserving_check",
    "slice_membership_sampled",
    "starlike_on_circle",
    "starlike_radius_exact",
    "starlike_radius_poly",
]
