"""Curvature toolkit for immersed surfaces in constant-curvature backgrounds.

Evaluates first and second fundamental forms through truncated Taylor
jets of user-supplied charts, checks the curvature identities they must
satisfy, and integrates sublevel-set quantities for the volume inequality
and its sharpness diagnostics.
"""

from .errors import (
    ConformalBallError,
    ParseError,
    SingularEvaluationError,
    SpecValidationError,
    UmbilicError,
    VerifierInputError,
)
from .geometry import (
    BochnerResidual,
    IdentityResiduals,
    PointGeometry,
    bochner_residual,
    classification_values,
    fundamental_forms,
    identity_residuals,
    intrinsic_scalar_curvature,
    point_geometry,
)
from .quadrature import (
    ALL,
    AREA,
    TOTAL_R,
    ConvergenceStudy,
    Field,
    GridSpec,
    Region,
    RegionIntegrals,
    convergence_study,
    euler_characteristic,
    integrate,
    region_integrals,
    sublevel,
)
from .surfaces import (
    ImmersionSpec,
    PRESET_NAMES,
    load_definition,
    preset,
    preset_defaults,
    validate,
)
from .verifier import (
    CorollaryRecord,
    EpsRow,
    SharpnessRow,
    TheoremReport,
    classify_trend,
    corollary_check,
    sharpness_gap,
    verify_prel,
)

__version__ = "0.1.0"

__all__ = [
    "ALL",
    "AREA",
    "BochnerResidual",
    "ConformalBallError",
    "ConvergenceStudy",
    "CorollaryRecord",
    "EpsRow",
    "Field",
    "GridSpec",
    "IdentityResiduals",
    "ImmersionSpec",
    "PRESET_NAMES",
    "ParseError",
    "PointGeometry",
    "Region",
    "RegionIntegrals",
    "SharpnessRow",
    "SingularEvaluationError",
    "SpecValidationError",
    "TOTAL_R",
    "TheoremReport",
    "UmbilicError",
    "VerifierInputError",
    "__version__",
    "bochner_residual",
    "classification_values",
    "classify_trend",
    "convergence_study",
    "corollary_check",
    "euler_characteristic",
    "fundamental_forms",
    "identity_residuals",
    "integrate",
    "intrinsic_scalar_curvature",
    "load_definition",
    "point_geometry",
    "preset",
    "preset_defaults",
    "region_integrals",
    "sharpness_gap",
    "sublevel",
    "validate",
    "verify_prel",
]
