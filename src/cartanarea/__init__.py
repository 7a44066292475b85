"""Orthogonal frames, Gram volumes, and first-variation verification for
area-type Lagrangians on graph charts."""

from .errors import (
    BadIndices,
    CartanAreaError,
    ChartExit,
    DegenerateFrameWarning,
    DimensionMismatch,
    DomainError,
    NegativeGram,
    NoConvergence,
    NonFinite,
    NotCritical,
    NotPositiveDefinite,
    SingularChart,
    SingularJacobian,
)
from .extremal import ActionValue, GridGraph, action, el_residual, node_slopes, solve_dirichlet
from .frames import (
    NormalFrame,
    boundary_residual_of_field,
    cartan_frame,
    normal_from_homogenized,
    normal_length,
    unit_normal_dual,
    variational_frame,
)
from .gram import MetricTensor, gram_det, surface_element, volume, wedge_minor
from .grassmann import (
    ChartProjection,
    GrassmannElement,
    beta_restriction,
    element_from_record,
    element_to_record,
    graph_tangent_basis,
    slopes_from_basis,
)
from .lagrangian import (
    HomogenizedLagrangian,
    LagrangianField,
    MinkowskiReport,
    area_graph_gram,
    area_hypersurface,
    area_plucker_4d,
    by_name,
    dirichlet,
    euclidean_norm,
    from_expression,
    grad_q,
    grad_x,
    grad_xi,
    grad_z,
    homogenize,
    minkowski_check,
    xi_hessian_half_square,
)
from .variation import (
    DeformationSpec,
    VariationReport,
    first_variation_boundary,
    first_variation_fd,
    normality_scan,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
