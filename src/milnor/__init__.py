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

import importlib

#: Every public name, grouped by the submodule that defines it. A name is
#: imported from its submodule on first access (PEP 562), so `import milnor`
#: loads no submodule, and the integer layer never pulls in numpy.
_EXPORTS = {
    "bundles": (
        "CohomologyReport", "MayerVietorisReport", "TOTAL_SPACE_RESIDUES",
        "canonical_solution", "classify_pair", "cohomology_report",
        "euler_class", "mayer_vietoris_matrix", "s7_bundle_class",
        "s7_orientation_partner", "second_label", "solve_euler",
    ),
    "classify": (
        "SPHERE7_GROUP_ORDER", "BrieskornClass", "InvolutionQuotientType",
        "brieskorn_classify", "diffeo_equiv", "eells_kuiper", "euler_number",
        "is_homotopy_sphere", "orientation_fold", "realized_classes",
        "realized_folded_classes", "rp5_type",
    ),
    "deform": (
        "DeformedMetric", "PlaneSearchResult", "ScanResult",
        "cheeger_quotient_factors", "compensating_scale",
        "find_negative_plane", "scan_min_sectional",
    ),
    "errors": (
        "DegeneratePlaneError", "DimensionMismatchError", "MilnorError",
        "NoFiniteMatchingError", "OutOfRegimeError", "ParameterError",
        "ProfileError", "ValidationError",
    ),
    "glue": (
        "ClauseResult", "GlueParams", "GluingCertificate", "ProfileFunction",
        "glue_params", "matching_level_sq", "nonneg_certificate",
        "orbit_metric_factor",
    ),
    "isotropy": (
        "BASE_TYPES", "OrbitTypeSet", "cor_47_families",
        "find_almost_free_lift", "hopf_family", "oliver_obstruction",
        "orbit_types", "table_42", "table_42_orders",
    ),
    "liealg": ("ReductiveSplit", "Su2Power"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(
            "module {!r} has no attribute {!r}".format(__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
