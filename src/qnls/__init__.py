"""Pseudospectral quintic NLS on the torus: flows, densities, modified energy,
Gaussian ensembles, and a reproducible experiment harness."""

from .spectral import GridSpec, FourierField, field_from_modes, sobolev_sq_rows
from .flow import FULL, FlowParams, BlowUpError, step, evolve
from .densities import eleele_residual, continuity_residuals, j0_diag
from .energy import e2, e2_directional, smoothing_bound, r2_truncation_curve
from .measure import MeasureSpec, sample_mu, observables, ks_statistic, ks_critical_value, tail_ratio

__version__ = "0.1.0"
