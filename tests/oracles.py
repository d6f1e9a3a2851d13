"""Reference functionals that tests compare qnls against, on one FourierField.

No experiment reaches them, so they live with the tests, not in src/qnls.
"""

from dataclasses import replace
from typing import NamedTuple

import numpy as np

from qnls import FlowParams, FourierField, GridSpec, MeasureSpec, field_from_modes, sample_mu, sobolev_sq_rows
from qnls.config import ExperimentConfig
from qnls.energy import DEFAULT_M0, corrected_rate, projected_rates, r2_rows
from qnls.spectral import TWO_PI, jet


def zero_field(grid: GridSpec) -> FourierField:
    return FourierField(grid, np.zeros(2 * grid.modes + 1, dtype=np.complex128))


def mode_field(grid: GridSpec, amplitudes: dict[int, complex]) -> FourierField:
    """field_from_modes as a field."""
    return FourierField(grid, field_from_modes(grid, amplitudes))


def sample_field(spec: MeasureSpec, index: int, grid: GridSpec) -> FourierField:
    """sample_mu as a field."""
    return FourierField(grid, sample_mu(spec, index, grid))


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


def f2(u: FourierField, p: FlowParams, overrides: dict[str, float] | None = None) -> float:
    """F_2^(M)(P_M u): the time derivative of t -> E_2(P_M Phi_M(t) u0).

    Evaluated as the first variation of E_2 at the projected state along the
    projected equation right-hand side.
    """
    _, rate, raw = projected_rates(u.coeffs[np.newaxis], u.grid, p)
    return float(corrected_rate(rate, raw, p.sigma, overrides)[0])


def lp_norm(u: FourierField, p: float) -> float:
    """L^p norm over the physical grid; p = inf gives max_j |u(x_j)|."""
    vals = np.abs(u.values())
    if np.isinf(p):
        return float(np.max(vals)) if vals.size else 0.0
    w = TWO_PI / u.grid.phys_size
    return float((w * np.sum(vals**p)) ** (1.0 / p))


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


def synthesize_numpy(coeffs: np.ndarray, modes: int, size: int) -> np.ndarray:
    """spectral.synthesize as numpy.fft computes it: the modes added into
    zeros modulo `size`, then ifft(a) * size."""
    a = np.zeros(coeffs.shape[:-1] + (size,), dtype=np.complex128)
    np.add.at(a, (..., np.arange(-modes, modes + 1) % size), coeffs)
    return np.fft.ifft(a, axis=-1) * size


def analyze_numpy(values: np.ndarray, modes: int) -> np.ndarray:
    """spectral.analyze as numpy.fft computes it: every bin divided, then the
    bins of n = -modes..modes taken."""
    size = values.shape[-1]
    return (np.fft.fft(values, axis=-1) / size).take(np.arange(-modes, modes + 1) % size, axis=-1)


def quintic_rows_numpy(c: np.ndarray, grid: GridSpec) -> np.ndarray:
    """spectral.quintic_rows from the two oracles above, with |u|^4 u
    computed out of place as np.abs(v) ** 4 * v."""
    v = synthesize_numpy(c, grid.modes, grid.quintic_pad())
    with np.errstate(over="ignore", invalid="ignore"):
        return analyze_numpy(np.abs(v) ** 4 * v, grid.modes)


class DensityTriple(NamedTuple):
    """N, J, T sampled on the physical grid points."""

    N: np.ndarray
    J: np.ndarray
    T: np.ndarray


def densities(u: FourierField, sigma: int = 1) -> DensityTriple:
    """Density triple at the physical grid points, with
    T = 4|u_x|^2 - N_xx + sigma (4/3) N^3."""
    (uu, ux, uxx), N, _, J = jet(u.coeffs, u.grid, u.grid.phys_size, 2)
    # N_xx = 2|u_x|^2 + 2 Re(conj(u) u_xx), pointwise from exact samples
    Nxx = 2.0 * np.abs(ux) ** 2 + 2.0 * np.real(np.conj(uu) * uxx)
    T = 4.0 * np.abs(ux) ** 2 - Nxx + sigma * (4.0 / 3.0) * N**3
    return DensityTriple(N=N, J=J, T=T)


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
