"""Twistor distribution of two rolling surfaces.

Computes the restricted velocity distribution of two surfaces rolling
without slipping or twisting, its quartic invariant and maximal-symmetry
(exceptional group) detection, an independent Weyl-tensor verification path
through the associated split-signature conformal 5-metric, kinematic
trajectory integration, and isometric embeddings of the distinguished
revolution surfaces.
"""

from .cartan_invariants import (
    CartanQuartic,
    G2Report,
    RootType,
    g2_check,
    necessary_condition_residual,
    quartic_constant,
    quartic_killing_case,
    root_type,
    root_types,
    vanishing_scale,
)
from .conformal_oracle import (
    CurvatureBundle,
    cartan_from_weyl,
    compare_projective,
    curvature,
    metric_components,
    metric_field,
    omega_coframe,
    proportionality_residual,
    theta_coframe,
)
from .distribution5 import (
    ConfigPoint,
    Frame5,
    derived_frame,
    frame_fields,
    growth_vector,
    lie_bracket,
    velocity_fields,
)
from .embedding import (
    RevolutionMesh,
    algebraic_residual,
    build_mesh,
    embed_negative_curvature,
    embed_point,
    emit_mesh,
    induced_metric_residual,
)
from .errors import (
    DomainError,
    IntegrablePointError,
    QuadratureError,
    RollingTwistorError,
    SpecParseError,
    StepSizeError,
)
from .rolling import (
    ControlCurve,
    Trajectory,
    contact_arclengths,
    integrate,
    no_slip_residual,
    no_twist_residual,
)
from .split4 import (
    NullPlane,
    hodge_star,
    horizontal_corrections,
    levi_civita_from_structure,
    null_plane_span,
    selfdual_split,
    twistor_lift_coefficient,
)
from .surfaces import (
    CustomRevolution,
    FrameData,
    G2Family,
    Hyperbolic,
    Plane,
    RevolutionProfile,
    Sphere,
    SurfaceJet,
    g2_family,
    gaussian_curvature_profile,
    parse_surface,
    profile_ode_residual,
    reciprocal_ode_residual,
)

__version__ = "0.1.0"
