"""Mass, momentum and stress-energy densities and their local conservation laws.

With N = |u|^2, J = 2 Im(conj(u) u_x) and T = 4|u_x|^2 - N_xx + sigma*(4/3)N^3,
any solution of (i d/dt + d^2/dx^2) u = sigma |u|^4 u satisfies the pointwise
continuity laws

    dN/dt + dJ/dx = 0,        dJ/dt + dT/dx = 0,

and every field (solution or not) satisfies the algebraic identity

    J^2 + (N_x)^2 = 4 N |u_x|^2.

The sigma factor on N^3 extends the stress tensor to the focusing sign; the
momentum residual below is the arbiter of that choice, not trust.

All quantities are evaluated pointwise from exactly synthesized derivative
fields on a padded grid (the same anti-aliasing depth as the quintic term),
so the residuals measure algebra, not discretization.  Residual tolerances
scale with explicit norm factors to stay amplitude-independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flow import FlowParams
from .spectral import TWO_PI, FourierField, jet, sobolev_norm_sq


@dataclass(frozen=True)
class DensityTriple:
    """N, J, T sampled on the physical grid points."""

    N: np.ndarray
    J: np.ndarray
    T: np.ndarray


def densities(u: FourierField, sigma: int = 1) -> DensityTriple:
    """Density triple at the physical grid points."""
    (uu, ux, uxx), N, _, J = jet(u.coeffs, u.grid, u.grid.phys_size, 2)
    # N_xx = 2|u_x|^2 + 2 Re(conj(u) u_xx), pointwise from exact samples
    Nxx = 2.0 * np.abs(ux) ** 2 + 2.0 * np.real(np.conj(uu) * uxx)
    T = 4.0 * np.abs(ux) ** 2 - Nxx + sigma * (4.0 / 3.0) * N**3
    return DensityTriple(N=N, J=J, T=T)


def eleele_residual(u: FourierField) -> float:
    """sup |J^2 + (N_x)^2 - 4 N |u_x|^2| on the padded grid.

    Vanishes (to rounding) for every field; the identity is pointwise
    algebra, not dynamics.
    """
    (_, ux), N, Nx, J = jet(u.coeffs, u.grid, u.grid.quintic_pad(), 1)
    return float(np.max(np.abs(J**2 + Nx**2 - 4.0 * N * np.abs(ux) ** 2)))


def _du_dt_values(j, sigma):
    """Pointwise du/dt = i u_xx - i sigma |u|^4 u and its x-derivative from a 3-jet.

    The substitution is the untruncated equation: pointwise products of exact
    samples, so no Galerkin tail is dropped.
    """
    uu, ux, uxx, uxxx = j.d
    ut = 1j * uxx - 1j * sigma * j.N**2 * uu
    utx = 1j * uxxx - 1j * sigma * (2.0 * j.N * j.Nx * uu + j.N**2 * ux)
    return ut, utx


def continuity_residuals(u: FourierField, p: FlowParams) -> tuple[float, float]:
    """Sup-norms of dN/dt + dJ/dx and dJ/dt + dT/dx with du/dt from the equation.

    Requires cutoff = FULL: the Galerkin projector breaks the local laws by a
    commutator with (1 - P_M), so only the untruncated substitution is an
    algebraic identity.
    """
    if p.cutoff is not None:
        raise ValueError("continuity laws hold only for the FULL flow (cutoff=None)")
    j = jet(u.coeffs, u.grid, u.grid.quintic_pad(), 3)
    uu, ux, uxx, uxxx = j.d
    ut, utx = _du_dt_values(j, p.sigma)

    Nt = 2.0 * np.real(np.conj(uu) * ut)
    Jx = 2.0 * np.imag(np.conj(ux) * ux + np.conj(uu) * uxx)  # d/dx 2Im(conj(u)u_x)
    r_mass = float(np.max(np.abs(Nt + Jx)))

    Jt = 2.0 * np.imag(np.conj(ut) * ux + np.conj(uu) * utx)
    Nxxx = 6.0 * np.real(np.conj(ux) * uxx) + 2.0 * np.real(np.conj(uu) * uxxx)
    Tx = 8.0 * np.real(np.conj(ux) * uxx) - Nxxx + p.sigma * 4.0 * j.N**2 * j.Nx
    r_mom = float(np.max(np.abs(Jt + Tx)))
    return r_mass, r_mom


def _diag_integrals(u: FourierField, p: FlowParams):
    if p.cutoff is not None:
        raise ValueError("diagnostics are defined along the FULL flow (cutoff=None)")
    size = u.grid.quintic_pad()
    j = jet(u.coeffs, u.grid, size, 3)
    ut, _ = _du_dt_values(j, p.sigma)
    Nt = 2.0 * np.real(np.conj(j.d[0]) * ut)
    w = TWO_PI / size
    return float(w * np.sum(Nt * j.J**2)), float(w * np.sum(Nt * j.Nx**2))


def j0_diag(u: FourierField, p: FlowParams) -> float:
    """int dN/dt J^2 dx; vanishes identically (= -(1/3) int d/dx(J^3) = 0)."""
    return _diag_integrals(u, p)[0]


def n1_diag(u: FourierField, p: FlowParams) -> float:
    """int dN/dt (N_x)^2 dx; generically nonzero, kept for energy bookkeeping."""
    return _diag_integrals(u, p)[1]


def eleele_scale(u: FourierField) -> float:
    """Amplitude factor 1 + ||u||_H1^4 for the pointwise identity residual."""
    return 1.0 + sobolev_norm_sq(u, 1.0) ** 2


def continuity_scale(u: FourierField) -> float:
    """Amplitude factor 1 + ||u||_H3^6 for the continuity residuals."""
    return 1.0 + sobolev_norm_sq(u, 3.0) ** 3
