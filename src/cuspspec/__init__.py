"""Numerical spectral theory of magnetic Laplacians on manifolds with cusps.

Fiber decomposition into half-line Schrodinger operators, exact eigenvalue
counting with Dirichlet/Robin bracketing, Weyl-remainder fits, and the
scaled-field upper bound on embedded eigenvalues of the free Laplacian.
"""

__version__ = "0.1.0"

from .model import (
    FLUX_TOL,
    CompactCoreSurrogate,
    CuspEnd,
    ManifoldModel,
    TorusCrossSection,
    cusp_volume,
    load_model,
    model_from_dict,
    model_to_dict,
    spectral_floor,
    total_volume,
    validate_model,
)
from .cross_section import (
    CrossSpectrum,
    EnumerationBudgetError,
    cross_count,
    hormander_residual,
    mu0,
    mu_spectrum,
    perturb_c2,
    tau_quadratic_range,
    unit_ball_volume,
)
from .fiber import (
    BoundaryCondition,
    ContinuousSpectrumError,
    FiberPotential,
    MeshBudgetError,
    count_fibers,
    default_robin_beta,
    fd_oracle,
    fiber_count,
    fiber_eigenvalues,
    potential_eval,
    potential_min,
    turning_point,
)
from .weyl import (
    CountResult,
    FitReport,
    cusp_count,
    cusp_modes,
    fit_remainder_samples,
    identity_residual,
    phase_integral,
    remainder_fit,
    remainder_model,
    rj_identity,
    rj_sum,
    theta_sum,
    total_count_bracket,
    weyl_leading,
)
from .embedded import (
    BoundReport,
    demagnetize,
    embedded_upper_bound,
    n_ess_exact,
    poincare_constant,
    r0_model,
    rho_exponent,
    scale_field,
)
