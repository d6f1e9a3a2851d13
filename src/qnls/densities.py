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
fields on a padded grid (the same anti-aliasing depth as the quintic term), so
the residuals measure algebra, not discretization.  du/dt is always the
untruncated equation's: no function here takes a Galerkin cutoff.  The
residuals act on (B, 2M+1) coefficient blocks from one 3-jet (residual_rows,
both signs at once); the one-field functions are its one-row calls.  Residual
tolerances scale with explicit norm factors (scale_rows) to stay
amplitude-independent.
"""

from __future__ import annotations

import numpy as np

from .flow import FlowParams
from .spectral import TWO_PI, FourierField, GridSpec, jet, pad_chunked, sobolev_sq_rows


@pad_chunked
def residual_rows(c: np.ndarray, grid: GridSpec) -> dict[str, np.ndarray]:
    """Residuals and diagnostics of each row of a (B, 2M+1) block c on `grid`,
    from one 3-jet at the quintic pad, as name -> (B,) array:

        eleele          sup |J^2 + (N_x)^2 - 4 N |u_x|^2|
        j0              int dN/dt J^2 dx
        mass_p, mom_p   sup |dN/dt + dJ/dx| and sup |dJ/dt + dT/dx|, sigma = +1
        mass_m, mom_m   the same for sigma = -1

    du/dt = i u_xx - i sigma |u|^4 u is the untruncated equation, so no
    Galerkin tail is dropped; only du/dt depends on sigma.  j0 takes dN/dt
    at sigma = +1: sigma enters it as Re(conj(u) (-i sigma N^2 u)) = 0.
    """
    size = grid.quintic_pad()
    (uu, ux, uxx, uxxx), N, Nx, J = jet(c, grid, size, 3)
    N2 = N**2
    Jx = 2.0 * np.imag(np.conj(ux) * ux + np.conj(uu) * uxx)  # d/dx 2Im(conj(u)u_x)
    Nxxx = 6.0 * np.real(np.conj(ux) * uxx) + 2.0 * np.real(np.conj(uu) * uxxx)
    out = {"eleele": np.max(np.abs(J**2 + Nx**2 - 4.0 * N * np.abs(ux) ** 2), axis=-1)}
    for sigma, tag in ((1, "p"), (-1, "m")):
        ut = 1j * uxx - 1j * sigma * N2 * uu
        utx = 1j * uxxx - 1j * sigma * (2.0 * N * Nx * uu + N2 * ux)
        Nt = 2.0 * np.real(np.conj(uu) * ut)
        Jt = 2.0 * np.imag(np.conj(ut) * ux + np.conj(uu) * utx)
        Tx = 8.0 * np.real(np.conj(ux) * uxx) - Nxxx + sigma * 4.0 * N2 * Nx
        if sigma == 1:
            out["j0"] = TWO_PI / size * np.sum(Nt * J**2, axis=-1)
        out["mass_" + tag] = np.max(np.abs(Nt + Jx), axis=-1)
        out["mom_" + tag] = np.max(np.abs(Jt + Tx), axis=-1)
    return out


def _one_row(u: FourierField) -> dict[str, float]:
    """residual_rows of one field."""
    return {name: float(v[0]) for name, v in residual_rows(u.coeffs[np.newaxis], u.grid).items()}


def eleele_residual(u: FourierField) -> float:
    """sup |J^2 + (N_x)^2 - 4 N |u_x|^2| on the padded grid; 0 to rounding for any field."""
    return _one_row(u)["eleele"]


def continuity_residuals(u: FourierField, p: FlowParams) -> tuple[float, float]:
    """Sup-norms of dN/dt + dJ/dx and dJ/dt + dT/dx with du/dt from the
    full equation at p.sigma: the Galerkin projector breaks the local laws
    by a commutator with (1 - P_M), so only the untruncated substitution is
    an algebraic identity.
    """
    r = _one_row(u)
    tag = "p" if p.sigma == 1 else "m"
    return r["mass_" + tag], r["mom_" + tag]


def j0_diag(u: FourierField) -> float:
    """int dN/dt J^2 dx; vanishes identically (= -(1/3) int d/dx(J^3) = 0)."""
    return _one_row(u)["j0"]


def scale_rows(c: np.ndarray, grid: GridSpec) -> tuple[list[float], list[float]]:
    """Amplitude factors 1 + ||u||_H1^4 (pointwise identity) and 1 + ||u||_H3^6
    (continuity residuals) of each row of c on `grid`, as Python float
    powers: numpy's array ** rounds some of them differently."""
    h1, h3 = (sobolev_sq_rows(c, grid, s).tolist() for s in (1.0, 3.0))
    return [1.0 + a**2 for a in h1], [1.0 + b**3 for b in h3]
