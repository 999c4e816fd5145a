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
    quartic_killing_case,
    root_type,
    root_types,
    vanishing_scale,
)
from .conformal_oracle import (
    CurvatureBundle,
    cartan_from_weyl,
    curvature,
    metric_components,
    omega_coframe,
    proportionality_residual,
    theta_coframe,
)
from .distribution5 import (
    frame_fields,
    growth_vector,
    lie_bracket,
    velocity_fields,
)
from .embedding import (
    RevolutionMesh,
    build_mesh,
    emit_mesh,
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
from .surfaces import (
    CustomRevolution,
    FrameData,
    G2Family,
    Hyperbolic,
    Plane,
    RevolutionProfile,
    Sphere,
    SurfaceJet,
    parse_surface,
)

__version__ = "0.1.0"
