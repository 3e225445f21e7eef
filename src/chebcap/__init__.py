"""Minimal polynomials, capacity brackets, and arc transfers on interval unions.

The package computes monic polynomials of least deviation on finite unions
of real intervals, brackets the logarithmic capacity of such unions between
a closed-form lower bound and a deviation-derived upper estimate, certifies
the inequality linking deviations to capacity together with its equality
cases on polynomial inverse images, and transfers all of it to symmetric
arc sets on the unit circle.
"""

__version__ = "0.1.0"

from .arcs import (
    ArcBoundReport,
    ArcSet,
    arc_deviation_upper,
    arc_lower_bound,
    arc_sup_norm,
    lift_even,
    lift_odd,
    robinson_capacity,
)
from .capacity import (
    CapacityBracket,
    RatioReport,
    SolyninParams,
    capacity_bracket,
    capacity_upper_estimate,
    ratio_sequence,
    solynin_bound,
    solynin_midpoint_bound,
    solynin_optimized_bound,
)
from .chebpoly import (
    ChebExpansion,
    Polynomial,
    cheb_T,
    compose_T,
    to_cheb,
    to_monomial,
)
from .errors import (
    ChebcapError,
    ConvergenceError,
    DegreeCapError,
    EmptyImageError,
    IllConditionedError,
    InvalidInputError,
    NonRealImageError,
)
from .intervals import (
    AffineMap,
    AngleCoordinates,
    IntervalUnion,
    contains,
    format_intervals,
    intervals_to_json,
    is_subset,
    normalize,
    parse_intervals,
    to_angles,
)
from .inverse_image import (
    InverseImageResult,
    SharpnessReport,
    capacity_of_inverse_image,
    composed_minimal_sequence,
    e_alpha,
    inverse_image,
    symmetric_two_interval_minpoly,
    verify_sharpness,
)
from .remez import (
    BlowUpResult,
    MinimalPolyResult,
    WitnessReport,
    blow_up_set,
    minimal_polynomial,
    minimality_witness,
)

__all__ = [
    "AffineMap",
    "AngleCoordinates",
    "ArcBoundReport",
    "ArcSet",
    "BlowUpResult",
    "CapacityBracket",
    "ChebExpansion",
    "ChebcapError",
    "ConvergenceError",
    "DegreeCapError",
    "EmptyImageError",
    "IllConditionedError",
    "IntervalUnion",
    "InvalidInputError",
    "InverseImageResult",
    "MinimalPolyResult",
    "NonRealImageError",
    "Polynomial",
    "RatioReport",
    "SharpnessReport",
    "SolyninParams",
    "WitnessReport",
    "arc_deviation_upper",
    "arc_lower_bound",
    "arc_sup_norm",
    "blow_up_set",
    "capacity_bracket",
    "capacity_of_inverse_image",
    "capacity_upper_estimate",
    "cheb_T",
    "compose_T",
    "composed_minimal_sequence",
    "contains",
    "e_alpha",
    "format_intervals",
    "intervals_to_json",
    "inverse_image",
    "is_subset",
    "lift_even",
    "lift_odd",
    "minimal_polynomial",
    "minimality_witness",
    "normalize",
    "parse_intervals",
    "ratio_sequence",
    "robinson_capacity",
    "solynin_bound",
    "solynin_midpoint_bound",
    "solynin_optimized_bound",
    "symmetric_two_interval_minpoly",
    "to_angles",
    "to_cheb",
    "to_monomial",
    "verify_sharpness",
]
