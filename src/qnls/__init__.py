"""Pseudospectral quintic NLS on the torus: flows, densities, modified energy,
Gaussian ensembles, and a reproducible experiment harness."""

from .spectral import (
    GridSpec,
    FourierField,
    field_from_modes,
    zero_field,
    project,
    derivative,
    sobolev_norm_sq,
    lp_norm,
    inner,
    quintic,
)
from .flow import (
    FULL,
    FlowParams,
    Trajectory,
    BlowUpError,
    linear_flow,
    rhs,
    step,
    evolve,
    evolve_block,
    mass,
    momentum,
    hamiltonian,
)
from .densities import (
    DensityTriple,
    densities,
    eleele_residual,
    continuity_residuals,
    j0_diag,
    n1_diag,
)
from .energy import (
    EnergyBreakdown,
    r2,
    e2,
    e2_directional,
    f2,
    smoothing_bound,
    bound_ratio,
    r2_lipschitz_probe,
    r2_truncation_curve,
)
from .measure import (
    MeasureSpec,
    EnsembleRecord,
    sample_mu,
    observables,
    ks_statistic,
    ks_critical_value,
    tail_ratio,
)

__version__ = "0.1.0"
