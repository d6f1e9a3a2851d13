"""Reference functionals and the one-member sampler that tests compare qnls
against, on one FourierField or one row.

No experiment reaches them, so they live with the tests, not in src/qnls.
"""

from dataclasses import replace
from typing import NamedTuple

import numpy as np
from scipy.special import ndtri

from qnls import (
    FULL,
    BlowUpError,
    FlowParams,
    FourierField,
    GridSpec,
    MeasureSpec,
    field_from_modes,
    sobolev_sq_rows,
)
from qnls.config import ExperimentConfig
from qnls.energy import DEFAULT_M0, band, band_rates, corrected_rate, directional_terms, r2_rows
from qnls.flow import _linear_symbol, _rk4
from qnls.measure import derive_seed
from qnls.spectral import TWO_PI, jet, quintic_rows, synthesize


def zero_field(grid: GridSpec) -> FourierField:
    return FourierField(grid, np.zeros(2 * grid.modes + 1, dtype=np.complex128))


def mode_field(grid: GridSpec, amplitudes: dict[int, complex]) -> FourierField:
    """field_from_modes as a field."""
    return FourierField(grid, field_from_modes(grid, amplitudes))


def sample_member(spec: MeasureSpec, index: int, grid: GridSpec) -> np.ndarray:
    """The coefficient row on `grid` of the index-th member of mu_s, drawn on
    its own: a Generator over Philox keyed derive_seed(base_seed, index),
    whose integers(0, 2^53) fill the (2M+1, 2) normals (h_n, l_n) for
    n = -M..M.  sample_mu's block rows are held to it bit for bit."""
    if grid.modes < spec.M:
        raise ValueError(f"grid modes {grid.modes} < sample cutoff {spec.M}")
    rng = np.random.Generator(np.random.Philox(key=derive_seed(spec.base_seed, index)))
    u = (rng.integers(0, 1 << 53, size=(2 * spec.M + 1, 2)).astype(np.float64) + 0.5) / float(1 << 53)
    hl = ndtri(np.minimum(u, np.nextafter(1.0, 0.0)))
    g = hl[:, 0] + 1j * hl[:, 1]
    n = np.arange(-spec.M, spec.M + 1)
    c = np.zeros(2 * grid.modes + 1, dtype=np.complex128)
    c[n + grid.modes] = g / (1.0 + n * n) ** (spec.s / 2.0)
    return c


def sample_field(spec: MeasureSpec, index: int, grid: GridSpec) -> FourierField:
    """sample_member as a field."""
    return FourierField(grid, sample_member(spec, index, grid))


def project(u: FourierField, cutoff: int) -> FourierField:
    """Dirichlet projector: zero all coefficients with |n| > cutoff.

    Acts as the identity when cutoff >= grid modes.
    """
    if cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    if cutoff >= u.grid.modes:
        return u
    c = u.coeffs.copy()
    c[np.abs(u.grid.n) > cutoff] = 0.0
    return FourierField(u.grid, c)


def derivative(u: FourierField, order: int = 1) -> FourierField:
    """Spectral derivative: coefficient-wise multiplication by (in)^order."""
    if order < 0:
        raise ValueError("derivative order must be >= 0")
    if order == 0:
        return u
    return FourierField(u.grid, u.coeffs * (1j * u.grid.n) ** order)


def sobolev_norm_sq(u: FourierField, s: float) -> float:
    """2*pi * sum (1+n^2)^s |u_n|^2; s = 0 reproduces int |u|^2 dx."""
    return float(sobolev_sq_rows(u.coeffs, u.grid, s))


def f2(
    u: FourierField, p: FlowParams, cutoff: int | None = FULL, overrides: dict[str, float] | None = None
) -> float:
    """F_2^(M)(P_M u): the time derivative of t -> E_2(P_M Phi_M(t) u0),
    with M = `cutoff`.

    Evaluated as the first variation of E_2 at the projected state along the
    projected equation right-hand side.
    """
    rate, raw = band_rates(*band(u.coeffs[np.newaxis], u.grid, cutoff), p)
    return float(corrected_rate(rate, raw, p.sigma, overrides)[0])


def mask(c: np.ndarray, modes: int, cutoff: int | None) -> np.ndarray:
    """P_M c in storage order, M = `cutoff`: c itself at FULL, else a copy
    of the vector or block c with the modes |n| > cutoff set to 0."""
    if cutoff is FULL:
        return c
    return np.where(np.abs(np.arange(-modes, modes + 1)) > cutoff, 0.0, c)


def galerkin_rhs(c: np.ndarray, grid: GridSpec, sigma: int, cutoff: int | None) -> np.ndarray:
    """du/dt of the flow truncated at `cutoff`, of a coefficient vector or
    block in storage order: P_M masks the input of quintic_rows and its
    output, and the linear part -i n^2 c acts on every mode.  The caller
    holds the np.errstate that keeps overflow quiet."""
    q = mask(quintic_rows(mask(c, grid.modes, cutoff), grid), grid.modes, cutoff)
    q *= -1j * sigma
    q += _linear_symbol(grid.modes) * c
    return q


def galerkin_step(u: FourierField, p: FlowParams, cutoff: int | None) -> FourierField:
    """flow.step of the flow truncated at `cutoff`: the same H^1 guard and
    finiteness check around one flow._rk4 step of galerkin_rhs in storage
    order.  evolve's rows at that cutoff are held to it bit for bit: each
    mode's bin in the march rounds as its coefficient does here."""
    h1 = float(np.sqrt(sobolev_sq_rows(u.coeffs, u.grid, 1.0)))
    if not h1 < p.blowup_threshold:
        raise BlowUpError(f"H^1 guard tripped: ||u||_H1 = {h1:.6g}")
    with np.errstate(over="ignore", invalid="ignore"):
        c = _rk4(u.coeffs, lambda x: galerkin_rhs(x, u.grid, p.sigma, cutoff), p.dt)
    if not np.isfinite(c.view(np.float64)).all():
        raise BlowUpError("state left the representable range during a step")
    return FourierField(u.grid, c)


def masked_rates(c: np.ndarray, grid: GridSpec, p: FlowParams, cutoff: int | None):
    """(P_M c, rates) with the rates of energy.band_rates taken on the pads
    of `grid` itself: P_M applied as a mask on the full row, before and after
    the quintic, and every transform at the grid's sizes.  The same values
    to rounding."""
    with np.errstate(over="ignore", invalid="ignore"):
        v = galerkin_rhs(c, grid, p.sigma, cutoff)
    c, v = mask(c, grid.modes, cutoff), mask(v, grid.modes, cutoff)
    return (c, *directional_terms(c, v, grid))


def r2_truncation_curve_masked(c: np.ndarray, grid: GridSpec, m_list: list[int], sigma: int = 1) -> np.ndarray:
    """energy.r2_truncation_curve on the pads of `grid` itself: one r2_rows
    call on the block [c, P_{M_1} c, P_{M_2} c, ...] of masked rows."""
    block = np.stack([c] + [mask(c, grid.modes, M) for M in m_list])
    total, _ = r2_rows(block, grid, sigma)
    return np.abs(total[1:] - total[0])


def values(u: FourierField, size: int | None = None) -> np.ndarray:
    """Field values at `size` equispaced points (default: the degree-2 pad,
    where int |u|^2 is exact)."""
    return synthesize(u.coeffs, u.grid.modes, size or u.grid.pad_for_degree(2))


def lp_norm(u: FourierField, p: float) -> float:
    """L^p norm, for an even integer p integrated on the degree-p pad, where
    it is exact; p = inf gives max_j |u(x_j)| over the degree-2 pad."""
    if np.isinf(p):
        vals = np.abs(values(u))
        return float(np.max(vals)) if vals.size else 0.0
    size = u.grid.pad_for_degree(int(p))
    return float((TWO_PI / size * np.sum(np.abs(values(u, size)) ** p)) ** (1.0 / p))


def inner(a: FourierField, b: FourierField) -> complex:
    """L2 pairing int a conj(b) dx = 2*pi * sum a_n conj(b_n)."""
    if a.grid != b.grid:
        raise ValueError("inner: fields live on different grids")
    return complex(TWO_PI * np.sum(a.coeffs * np.conj(b.coeffs)))


def quintic_convolution(u: FourierField) -> FourierField:
    """Direct convolution oracle for |u|^4 u = u u u conj(u) conj(u): the
    coefficients of a product are the convolution of its factors'."""
    c, M = u.coeffs, u.grid.modes
    acc = c
    for factor in (c, c, np.conj(c[::-1]), np.conj(c[::-1])):  # conj(u)_n = conj(u_{-n})
        acc = np.convolve(acc, factor)
    return FourierField(u.grid, acc[4 * M : 6 * M + 1])  # modes -5M..5M -> -M..M


def padded(coeffs: np.ndarray, modes: int, size: int) -> np.ndarray:
    """The modes of coeffs added into `size` zeros, mode n at bin n % size."""
    a = np.zeros(coeffs.shape[:-1] + (size,), dtype=np.complex128)
    np.add.at(a, (..., np.arange(-modes, modes + 1) % size), coeffs)
    return a


def synthesize_numpy(coeffs: np.ndarray, modes: int, size: int) -> np.ndarray:
    """spectral.synthesize as numpy.fft computes it: the unnormalised ifft
    (norm="forward") of the padded modes."""
    return np.fft.ifft(padded(coeffs, modes, size), axis=-1, norm="forward")


def analyze_numpy(values: np.ndarray, modes: int) -> np.ndarray:
    """spectral.analyze as numpy.fft computes it: fft with norm="forward"
    (every bin scaled by 1/size), then the bins of n = -modes..modes taken."""
    size = values.shape[-1]
    return np.fft.fft(values, axis=-1, norm="forward").take(np.arange(-modes, modes + 1) % size, axis=-1)


def quintic_rows_numpy(c: np.ndarray, grid: GridSpec) -> np.ndarray:
    """spectral.quintic_rows from the two oracles above, with |u|^4 u
    computed out of place as (|v|^2)^2 v."""
    v = synthesize_numpy(c, grid.modes, grid.quintic_pad())
    with np.errstate(over="ignore", invalid="ignore"):
        return analyze_numpy((np.abs(v) ** 2) ** 2 * v, grid.modes)


class DensityTriple(NamedTuple):
    """N, J, T sampled on the points of the degree-2 pad."""

    N: np.ndarray
    J: np.ndarray
    T: np.ndarray


def densities(u: FourierField, sigma: int = 1) -> DensityTriple:
    """Density triple at the points of the degree-2 pad, with
    T = 4|u_x|^2 - N_xx + sigma (4/3) N^3."""
    (uu, ux, uxx), N, _, J = jet(u.coeffs, u.grid, u.grid.pad_for_degree(2), 2)
    # N_xx = 2|u_x|^2 + 2 Re(conj(u) u_xx), pointwise from exact samples
    Nxx = 2.0 * np.abs(ux) ** 2 + 2.0 * np.real(np.conj(uu) * uxx)
    T = 4.0 * np.abs(ux) ** 2 - Nxx + sigma * (4.0 / 3.0) * N**3
    return DensityTriple(N=N, J=J, T=T)


def n1_rows(c: np.ndarray, grid: GridSpec) -> np.ndarray:
    """int dN/dt (N_x)^2 dx at sigma = +1 (sigma drops out of dN/dt) of each
    row of c, on the quintic pad as densities.residual_rows takes j0.  No
    identity makes it vanish, unlike j0."""
    size = grid.quintic_pad()
    (uu, _, uxx), N, Nx, _ = jet(c, grid, size, 2)
    Nt = 2.0 * np.real(np.conj(uu) * (1j * uxx - 1j * N**2 * uu))
    return TWO_PI / size * np.sum(Nt * Nx**2, axis=-1)


def r2_lipschitz_probe(u: FourierField, v: FourierField, sigma: int = 1, m0: int = DEFAULT_M0) -> float | None:
    """|R_2(u) - R_2(v)| / [||u-v||_{H^1} (1 + ||u||_{H^1}^{m0} + ||v||_{H^1}^{m0})].

    Returns None (nothing to report) when the fields coincide bitwise.
    """
    if u.grid == v.grid and np.array_equal(u.coeffs, v.coeffs):
        return None
    du = FourierField(u.grid, u.coeffs - v.coeffs)
    gap = sobolev_norm_sq(du, 1.0) ** 0.5
    nu = sobolev_norm_sq(u, 1.0) ** 0.5
    nv = sobolev_norm_sq(v, 1.0) ** 0.5
    num = abs(r2_rows(u.coeffs, u.grid, sigma)[0] - r2_rows(v.coeffs, v.grid, sigma)[0])
    return float(num / (gap * (1.0 + nu**m0 + nv**m0)))


def replace_overrides(
    cfg: ExperimentConfig,
    output_dir: str | None = None,
    base_seed: int | None = None,
    dt: float | None = None,
    t_end: float | None = None,
) -> ExperimentConfig:
    """The overrides set field by field with dataclasses.replace, past the
    parser: what a valid override must come to when it is parsed as a line."""
    if output_dir is not None:
        cfg = replace(cfg, output_dir=output_dir)
    if base_seed is not None:
        cfg = replace(cfg, measure=replace(cfg.measure, base_seed=base_seed))
    if dt is not None:
        cfg = replace(cfg, flow=replace(cfg.flow, dt=dt))
    if t_end is not None:
        cfg = replace(cfg, run=replace(cfg.run, t_end=t_end))
    return cfg
