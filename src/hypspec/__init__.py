"""Spectral constants, Green kernels and form-valued resolvents on
rank-one hyperbolic spaces, with orbit-based critical-exponent
estimation for discrete isometry groups."""

__version__ = "0.1.0"

from .spaces import (
    Field,
    SpaceDescriptor,
    make_space,
    alpha_p,
    casimir_m_exterior,
    casimir_tau_prime,
    curvature_term_min,
)
from .bounds import (
    BoundsReport,
    sullivan_corlette,
    theorem_b_lower_bound,
    bochner_lower_bound,
    compare,
)
from .hyper import GreenEvalConfig, gauss_2f1
from .green import (
    vol_sphere,
    plancherel_prefactor,
    green0_eval,
    green0_derivatives,
    green0_ode_residual,
    decay_rate_fit,
    small_r_constant,
)
from .resolvent import (
    TauPAction,
    RadialOperator,
    CoverPoint,
    FrobeniusKernel,
    build_tau_p_action,
    build_radial_operator,
    cover_point,
    e_element_values,
    frobenius_solve,
    kernel_blocks,
    kernel_eval,
    kernel_derivatives,
    block_ode_residual,
    form_ode_residual,
    decay_check,
    psi_extract,
)
from .orbits import (
    RealHyperboloid,
    ComplexProjective,
    DedupPolicy,
    GroupGenerators,
    OrbitSample,
    DeltaEstimate,
    distance,
    enumerate_orbit,
    poincare_partial_sum,
    shell_sums,
    estimate_delta,
    pullback_green_partial_sum,
    load_group_file,
    boost_matrix,
    cyclic_group,
    schottky_pair,
    punctured_torus_group,
    sl2_to_so21,
)

__all__ = [name for name in dir() if not name.startswith("_")]
