"""memflow: spectral toolkit for heat flows with a real-analytic memory kernel.

Simulates the flow per eigenmode by four routes (the exponential of the
kernel's state-space realization, exact, and three independent
approximations), measures the geometry of space-time observation sets,
estimates two-sided and null observability constants at spectral
truncation, and uses them to reconstruct initial data from masked
observations and to steer to smooth targets with minimal-norm controls.
"""

from .flow import (
    FlowTable,
    MultiplierIndexError,
    NonFinitePropagatorError,
    QuadratureError,
    build_flow_table,
    decomposition_mode,
    first_nonzero_h_index,
    kernel_rep_mode,
    kernel_rep_profile,
    remainder_bound,
    remainder_profile,
    volterra_modes,
)
from .geometry import (
    Mask,
    RootIsolationError,
    analytic_lower_bound_check,
    ball_average,
    ball_complement_mask,
    column_integrals,
    cusp_mask,
    cylinder_mask,
    load_mask,
    mask_from_text,
    mask_generate,
    mask_to_text,
    moc_functional,
    random_rects_mask,
    slice_measure,
    weighted_slice,
    zigzag_mask,
)
from .inverse_control import (
    RouteMismatchError,
    SingularSystemError,
    duality_range_test,
    min_norm_control,
    reachable_difference_check,
    reconstruct_y0,
    synthesize_observation,
)
from .kernels import (
    BivariateKernel,
    ExpPolyFn,
    KernelParseError,
    conv_power,
    format_kernel,
    h_coeff,
    kernel_c_norm,
    km_partial,
    p_coeff,
    parse_kernel,
    realization,
)
from .observability import (
    ObsInvariantError,
    ObsSetup,
    alpha_probe,
    bump_vector,
    gram_matrix,
    heat_local_probe,
    missing_ball_probe,
    null_obs_constant,
    obs_seminorm,
    obs_seminorm_many,
    relaxed_inequality_fit,
    two_sided_constants,
    unique_continuation_rank,
)
from .spectral import (
    EigenBasis,
    hs_norm,
    interval_basis,
)

__version__ = "0.1.0"
