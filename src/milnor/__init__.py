"""Deformed invariant metrics, disc-bundle gluing, and classification
arithmetic for 3-sphere bundles over the 4-sphere.

The package splits into three layers. `liealg` and `deform` do numerical
differential geometry: compact-group Lie algebra data, one-parameter
deformations of a bi-invariant metric that shrink a subalgebra, their
curvature in closed form with an independent connection-based oracle, and
the Cheeger-quotient scale factors that the deformation compensates. `glue`
builds the capped-sine profile that interpolates a deformed product metric
to a smooth disc filling and certifies the nonnegative-curvature clauses
of the gluing. The integer layer (`bundles`, `classify`, `isotropy`)
handles label arithmetic for the bundles themselves: characteristic-class
solving, cohomology of the total spaces, boundary-sphere diffeomorphism
classes, and exact orbit-type computations for the induced rotation
actions.
"""

from .bundles import (
    CohomologyReport,
    MayerVietorisReport,
    TOTAL_SPACE_RESIDUES,
    canonical_solution,
    classify_pair,
    cohomology_report,
    euler_class,
    mayer_vietoris_matrix,
    s7_bundle_class,
    s7_orientation_partner,
    second_label,
    solve_euler,
)
from .classify import (
    GENERATOR_LABEL,
    SPHERE7_GROUP_ORDER,
    BrieskornClass,
    InvolutionQuotientType,
    brieskorn_classify,
    diffeo_equiv,
    eells_kuiper,
    euler_number,
    is_homotopy_sphere,
    orientation_fold,
    realized_classes,
    realized_folded_classes,
    rp5_type,
)
from .deform import (
    DeformedMetric,
    PlaneSearchResult,
    ScanResult,
    cheeger_quotient_factors,
    compensating_scale,
    find_negative_plane,
    negative_plane_witness,
    scan_min_sectional,
    witness_plane_value,
)
from .errors import (
    DegeneratePlaneError,
    DimensionMismatchError,
    MilnorError,
    NoFiniteMatchingError,
    OutOfRegimeError,
    ParameterError,
    ProfileError,
    ValidationError,
)
from .glue import (
    ClauseResult,
    GlueParams,
    GluingCertificate,
    ProfileFunction,
    glue_params,
    matching_level,
    matching_level_sq,
    nonneg_certificate,
    orbit_metric_factor,
)
from .isotropy import (
    BASE_TYPES,
    OrbitTypeSet,
    cor_47_families,
    find_almost_free_lift,
    hopf_family,
    is_almost_free,
    oliver_obstruction,
    orbit_types,
    table_42,
    table_42_orders,
)
from .liealg import ReductiveSplit, Su2Power

__all__ = [
    "BASE_TYPES",
    "BrieskornClass",
    "ClauseResult",
    "CohomologyReport",
    "DeformedMetric",
    "DegeneratePlaneError",
    "DimensionMismatchError",
    "GENERATOR_LABEL",
    "GlueParams",
    "GluingCertificate",
    "InvolutionQuotientType",
    "MayerVietorisReport",
    "MilnorError",
    "NoFiniteMatchingError",
    "OrbitTypeSet",
    "OutOfRegimeError",
    "ProfileError",
    "ParameterError",
    "PlaneSearchResult",
    "ProfileFunction",
    "ReductiveSplit",
    "SPHERE7_GROUP_ORDER",
    "ScanResult",
    "Su2Power",
    "TOTAL_SPACE_RESIDUES",
    "ValidationError",
    "brieskorn_classify",
    "canonical_solution",
    "cheeger_quotient_factors",
    "classify_pair",
    "cohomology_report",
    "compensating_scale",
    "cor_47_families",
    "diffeo_equiv",
    "eells_kuiper",
    "euler_class",
    "euler_number",
    "find_almost_free_lift",
    "find_negative_plane",
    "glue_params",
    "hopf_family",
    "is_almost_free",
    "is_homotopy_sphere",
    "matching_level",
    "matching_level_sq",
    "mayer_vietoris_matrix",
    "negative_plane_witness",
    "nonneg_certificate",
    "oliver_obstruction",
    "orbit_metric_factor",
    "orbit_types",
    "orientation_fold",
    "realized_classes",
    "realized_folded_classes",
    "rp5_type",
    "s7_bundle_class",
    "s7_orientation_partner",
    "scan_min_sectional",
    "second_label",
    "solve_euler",
    "table_42",
    "table_42_orders",
    "witness_plane_value",
]

__version__ = "0.1.0"
