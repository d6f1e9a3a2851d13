"""The modified energy E_2 = ||u||_{H^2}^2 + R_2 and its flow derivative F_2.

The correction

    R_2(u) = -2 sigma Re int u_xx conj(u) |u|^4
             - (sigma/2) int N (N_x)^2
             + (sigma/2) int N J^2
             + (4/15)    int N^5

collects every exact-derivative term absorbed while reducing
d/dt ||u||_{H^2}^2 along the flow to first-derivative integrands, so that
F_2 := d/dt E_2 contains no second derivatives and obeys the one-derivative
smoothing bound

    |F_2(u)| <= C (1 + ||u||_{H^1}^{m0}) (1 + ||u_x||_{L^4}^4),  m0 = DEFAULT_M0,

uniformly in the Galerkin cutoff.  The sigma placement (on the first three
terms, none on int N^5) is validated by the cutoff-uniformity sweep: flipping
it makes |F_2| grow with the cutoff for sigma = -1, and int N^5 enters with
an even power of sigma because the stress-tensor decomposition contributes a
second sign on top of the equation's.  The coefficients ship as constants,
with two regression oracles: the max-ratio cutoff sweep catches sign flips
(tests/test_energy.py::TestCutoffFlatness), and the shell-flux check of
acceptance criterion 4c catches a 10% drift in any of the three coefficients
that cancel second derivatives.

Every integrand here has total degree <= 10 in (u, conj u, v, conj v), so a
padded transform of size >= 10*modes + 1 makes all integrals exact, and the
bound's |u_x|^4 is integrated on the degree-4 pad.  P_M u is band-limited
to M, so it is held in one form only, its 2M+1 coefficients on GridSpec(M)
(band): band_rates and r2_truncation_curve evaluate it on GridSpec(M)'s
pads, the same integrals as on the grid's, to rounding.

Results on a block of coefficient rows are name -> (B,) arrays
(breakdown_rows); e2 and full_breakdown give one field's as floats.
"""

from __future__ import annotations

import numpy as np

from .flow import FULL, FlowParams, _rhs_coeffs
from .spectral import TWO_PI, FourierField, GridSpec, derivatives, jet, pad_chunked, sobolev_sq_rows, synthesize

# (name, coefficient, sigma exponent)
R2_TERMS: tuple[tuple[str, float, int], ...] = (
    ("curv_quintic", -2.0, 1),   # Re int u_xx conj(u) |u|^4
    ("grad_density", -0.5, 1),   # int N (N_x)^2
    ("current_sq", 0.5, 1),      # int N J^2
    ("density_fifth", 4.0 / 15.0, 0),  # int N^5
)

DEFAULT_M0 = 10  # highest equation-degree appearing in the F_2 remainders

def _term_scales(sigma: int, overrides: dict[str, float] | None = None):
    scales = {}
    for name, coef, parity in R2_TERMS:
        c = coef * (sigma**parity)
        if overrides and name in overrides:
            c *= overrides[name]
        scales[name] = c
    return scales


def r2_rows(c: np.ndarray, grid: GridSpec, sigma: int = 1):
    """Correction functional R_2 with its per-term breakdown, of a coefficient
    vector or of each row of a (B, 2M+1) block c on `grid`."""
    size = grid.pad_for_degree(10)
    (uu, _, uxx), N, Nx, J = jet(c, grid, size, 2)
    w = TWO_PI / size
    raw = {
        "curv_quintic": w * np.sum(np.real(uxx * np.conj(uu)) * N**2, axis=-1),
        "grad_density": w * np.sum(N * Nx**2, axis=-1),
        "current_sq": w * np.sum(N * J**2, axis=-1),
        "density_fifth": w * np.sum(N**5, axis=-1),
    }
    scales = _term_scales(sigma)
    terms = {name: scales[name] * raw[name] for name in raw}
    return sum(terms.values()), terms


def e2(u: FourierField, sigma: int = 1) -> dict[str, float]:
    """E_2 = ||u||_{H^2}^2 + R_2(u) of one field with its parts, as floats
    h2_sq, r2, e2 and then the R_2 term names; E_2(0) = 0."""
    h2 = float(sobolev_sq_rows(u.coeffs, u.grid, 2.0))
    total, terms = r2_rows(u.coeffs, u.grid, sigma)
    r2 = float(total)
    return {"h2_sq": h2, "r2": r2, "e2": h2 + r2, **{name: float(v) for name, v in terms.items()}}


def h2_directional(c: np.ndarray, v: np.ndarray, grid: GridSpec) -> np.ndarray:
    """First variation of ||u||_{H^2}^2 along v (the uncorrected rate), per
    coefficient row c along the matching row of v on `grid`."""
    n = grid.n
    return 2.0 * TWO_PI * np.sum((1.0 + n * n) ** 2 * np.real(np.conj(c) * v), axis=-1)


def directional_terms(c: np.ndarray, v: np.ndarray, grid: GridSpec):
    """First variations along v of ||u||_{H^2}^2 and of each unscaled R_2
    integral, per coefficient row c along the matching row of v on `grid`."""
    rate = h2_directional(c, v, grid)
    size = grid.pad_for_degree(10)
    (uu, ux, uxx), N, Nx, J = jet(c, grid, size, 2)
    vv, vx = derivatives(v, grid, size, 1)
    dN = 2.0 * np.real(np.conj(uu) * vv)
    dNx = 2.0 * np.real(np.conj(ux) * vv + np.conj(uu) * vx)
    dJ = 2.0 * np.imag(np.conj(vv) * ux + np.conj(uu) * vx)
    del ux, vx  # not read below: freed before v_xx is synthesized
    vxx = synthesize(v * (1j * grid.n) ** 2, grid.modes, size)
    w = TWO_PI / size
    raw = {
        "curv_quintic": w * np.sum(
            np.real(vxx * np.conj(uu) + uxx * np.conj(vv)) * N**2
            + np.real(uxx * np.conj(uu)) * 2.0 * N * dN,
            axis=-1,
        ),
        "grad_density": w * np.sum(dN * Nx**2 + 2.0 * N * Nx * dNx, axis=-1),
        "current_sq": w * np.sum(dN * J**2 + 2.0 * N * J * dJ, axis=-1),
        "density_fifth": w * np.sum(5.0 * N**4 * dN, axis=-1),
    }
    return rate, raw


def corrected_rate(rate, raw, sigma: int = 1, overrides: dict[str, float] | None = None):
    """The H^2 rate plus the R_2 variations scaled by their coefficients,
    of floats or per row of arrays.

    `overrides` rescales named coefficients; it exists for the perturbation
    check (a wrong coefficient must break the cutoff-uniformity sweep).
    """
    scales = _term_scales(sigma, overrides)
    return rate + sum(scales[k] * raw[k] for k in raw)


def e2_directional(u: FourierField, v: FourierField, sigma: int = 1) -> float:
    """lim_{eps->0} (E_2(u + eps v) - E_2(u))/eps, term by term analytically."""
    if u.grid != v.grid:
        raise ValueError("fields live on different grids")
    return float(corrected_rate(*directional_terms(u.coeffs, v.coeffs, u.grid), sigma))


def band(c: np.ndarray, grid: GridSpec, cutoff: int | None) -> tuple[np.ndarray, GridSpec]:
    """P_M c held on its band: the coefficients |n| <= m of c, a vector or a
    (B, 2M+1) block on `grid`, with m = min(cutoff, grid.modes)
    (grid.modes for FULL), and GridSpec(m)."""
    m = grid.modes if cutoff is FULL else min(cutoff, grid.modes)
    return c[..., grid.modes - m : grid.modes + m + 1], GridSpec(m)


@pad_chunked
def band_rates(b: np.ndarray, g: GridSpec, p: FlowParams):
    """(d/dt ||P_M u||_{H^2}^2, raw R_2 variations) along the truncated flow,
    per row of a block b on P_M's band g (band), where P_M is the identity:
    directional_terms at the projected state along the projected equation
    right-hand side.  corrected_rate turns them into F_2."""
    with np.errstate(over="ignore", invalid="ignore"):
        v = _rhs_coeffs(b, g, p)
    return directional_terms(b, v, g)


def smoothing_bound_rows(c: np.ndarray, grid: GridSpec) -> np.ndarray:
    """(1 + ||u||_{H^1}^{m0}) (1 + ||u_x||_{L^4}^4), m0 = DEFAULT_M0, of each
    row of a (B, 2M+1) block c on `grid`, |u_x|^4 integrated exactly on the
    degree-4 pad.

    The norms' sums are row sums; their powers are Python float powers, as
    numpy's array ** rounds some of them differently.  The constant C of the
    estimate is existential; tests check cutoff- and ensemble-uniformity of
    |f2|/bound, not a value.
    """
    h1_sq = sobolev_sq_rows(c, grid, 1.0).tolist()
    size = grid.pad_for_degree(4)
    ux = synthesize(c * (1j * grid.n), grid.modes, size)
    l4_pow4 = (TWO_PI / size * np.sum(np.abs(ux) ** 4, axis=-1)).tolist()
    return np.array([(1.0 + (a**0.5) ** DEFAULT_M0) * (1.0 + (b**0.25) ** 4) for a, b in zip(h1_sq, l4_pow4)])


def smoothing_bound(u: FourierField) -> float:
    """smoothing_bound_rows of one field."""
    return float(smoothing_bound_rows(u.coeffs[np.newaxis], u.grid)[0])


@pad_chunked
def r2_truncation_curve(c: np.ndarray, grid: GridSpec, m_list: list[int], sigma: int = 1) -> np.ndarray:
    """|R_2(P_M u) - R_2(u)| for each M in the increasing m_list, of a
    coefficient vector or one row of them per row of a (B, 2M+1) block c on
    `grid`, R_2(P_M u) taken on P_M's band (band)."""
    if any(b <= a for a, b in zip(m_list, m_list[1:])):
        raise ValueError("m_list must be strictly increasing")
    whole = r2_rows(c, grid, sigma)[0]
    return np.abs(np.stack([r2_rows(*band(c, grid, M), sigma)[0] - whole for M in m_list], axis=-1))


@pad_chunked
def breakdown_rows(c: np.ndarray, grid: GridSpec, p: FlowParams):
    """E_2 of each row with its parts, F_2 along the full flow and the
    bound, as name -> (B,) array for a (B, 2M+1) coefficient block c on
    `grid` (a P_M-truncated state is passed as its band): the keys are
    h2_sq, r2, e2, f2, bound and then the R_2 term names."""
    h2 = sobolev_sq_rows(c, grid, 2.0)
    total, terms = r2_rows(c, grid, p.sigma)
    return {
        "h2_sq": h2,
        "r2": total,
        "e2": h2 + total,
        "f2": corrected_rate(*band_rates(c, grid, p), p.sigma),
        "bound": smoothing_bound_rows(c, grid),
        **terms,
    }


def full_breakdown(u: FourierField, p: FlowParams) -> dict[str, float]:
    """breakdown_rows of one field, as floats."""
    return {name: float(v[0]) for name, v in breakdown_rows(u.coeffs[np.newaxis], u.grid, p).items()}
