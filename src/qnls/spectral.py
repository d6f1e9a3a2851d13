"""Fourier representation of complex fields on the torus [0, 2*pi).

A field is stored by its Fourier coefficients u_n for |n| <= modes, in the
order n = -modes, ..., modes, so that u(x) = sum_n u_n e^{inx}.  All integral
quantities carry the physical 2*pi measure: the L2 pairing is
(a, b) = int a conj(b) dx = 2*pi * sum a_n conj(b_n), and the H^s norm squared
is 2*pi * sum (1+n^2)^s |u_n|^2.

Nonlinear quantities are evaluated pointwise on zero-padded grids so that
every product of band-limited fields is alias-free.  There is one pad rule:
a degree-d product of fields band-limited to M occupies modes up to d*M, so
exact integrals need a transform size of at least d*M + 1 and exact
coefficient extraction up to mode M needs (d+1)*M + 1; pad_for_degree(d)
returns the smallest FFT-friendly size >= d*M + 1.  The quintic |u|^4 u is
extracted on pad_for_degree(6), the degree-10 energy integrands are
integrated on pad_for_degree(10).  Transforms are scipy.fft's pocketfft,
equal bit for bit to numpy.fft on numpy 2.x at every size the configs use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.fft import fft, ifft, next_fast_len

TWO_PI = 2.0 * np.pi

# pad sizes, mode indices and Sobolev weights are read on every step
_fast_len = lru_cache(maxsize=256)(next_fast_len)


@lru_cache(maxsize=256)
def _mode_indices(modes: int) -> np.ndarray:
    n = np.arange(-modes, modes + 1)
    n.flags.writeable = False
    return n


@dataclass(frozen=True)
class GridSpec:
    """Mode cutoff: coefficients are kept for |n| <= modes."""

    modes: int

    def __post_init__(self):
        if self.modes < 1:
            raise ValueError(f"modes must be >= 1, got {self.modes}")

    @property
    def phys_size(self) -> int:
        """Physical quadrature points x_j = 2*pi*j/phys_size: the smallest
        FFT-friendly size >= 2*modes + 1, so the field is representable."""
        return _fast_len(2 * self.modes + 1)

    @property
    def n(self) -> np.ndarray:
        """Mode indices -modes..modes in storage order (read-only, shared)."""
        return _mode_indices(self.modes)

    def pad_for_degree(self, degree: int) -> int:
        """Smallest FFT-friendly size integrating degree-`degree` products exactly."""
        return _fast_len(degree * self.modes + 1)

    def quintic_pad(self) -> int:
        """Transform size extracting |u|^4 u alias-free up to mode `modes`."""
        return self.pad_for_degree(6)


@dataclass(frozen=True)
class FourierField:
    """A complex field u = sum_{|n|<=modes} coeffs[n] e^{inx} on a GridSpec.

    Fields are immutable values: the coefficient array is copied on
    construction and marked read-only.
    """

    grid: GridSpec
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != (2 * self.grid.modes + 1,):
            raise ValueError(
                f"coeffs shape {c.shape} does not match grid with "
                f"{2 * self.grid.modes + 1} modes"
            )
        if not np.all(np.isfinite(c.view(np.float64))):
            raise ValueError("coeffs contain non-finite values")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    def values(self, size: int | None = None) -> np.ndarray:
        """Field values at `size` equispaced points (default: the physical grid)."""
        return synthesize(self.coeffs, self.grid.modes, size or self.grid.phys_size)


def field_from_modes(grid: GridSpec, amplitudes: dict[int, complex]) -> np.ndarray:
    """The coefficient row on `grid` of a {mode: amplitude} map."""
    c = np.zeros(2 * grid.modes + 1, dtype=np.complex128)
    for n, a in amplitudes.items():
        if abs(n) > grid.modes:
            raise ValueError(f"mode {n} outside grid with modes={grid.modes}")
        c[n + grid.modes] = a
    return c


@lru_cache(maxsize=256)
def _bins(modes: int, size: int) -> np.ndarray:
    """FFT bins n % size of the modes n = -modes..modes (read-only, shared)."""
    bins = _mode_indices(modes) % size
    bins.flags.writeable = False
    return bins


def synthesize(coeffs: np.ndarray, modes: int, size: int) -> np.ndarray:
    """Values of sum_{|n|<=modes} coeffs e^{inx} at `size` equispaced points.

    Acts on the last axis, so a (B, 2*modes+1) block gives (B, size) values.
    Coefficients are folded modulo `size`, which evaluates the trigonometric
    polynomial exactly even when size < 2*modes + 1.  Without a fold the
    modes are added into zeros as two slices, which sums bit for bit as the
    fold's np.add.at does (a -0.0 coefficient lands as +0.0 in both).
    """
    a = np.zeros(coeffs.shape[:-1] + (size,), dtype=np.complex128)
    if size >= 2 * modes + 1:
        a[..., : modes + 1] += coeffs[..., modes:]
        a[..., size - modes :] += coeffs[..., :modes]
    else:
        np.add.at(a, (..., _bins(modes, size)), coeffs)
    v = ifft(a, axis=-1)
    v *= size
    return v


def analyze(values: np.ndarray, modes: int) -> np.ndarray:
    """Fourier coefficients for |n| <= modes from equispaced samples.

    Acts on the last axis, like synthesize.  Exact when the sampled function
    is band-limited to |n| < values.shape[-1] - modes.
    """
    size = values.shape[-1]
    return fft(values, axis=-1).take(_bins(modes, size), axis=-1) / size


class Jet(NamedTuple):
    """Exact samples d[k] of the k-th x-derivative of a field, with the
    densities N = |u|^2, N_x = 2 Re(conj(u) u_x) and J = 2 Im(conj(u) u_x)."""

    d: list[np.ndarray]
    N: np.ndarray
    Nx: np.ndarray
    J: np.ndarray


def jet(c: np.ndarray, grid: GridSpec, size: int, order: int) -> Jet:
    """Jet at `size` equispaced points, derivatives 0..order (order >= 1), of
    a coefficient vector or of each row of a (B, 2M+1) block c on `grid`.

    The k-th derivative has the coefficients c * (in)^k."""
    d = [synthesize(c * (1j * grid.n) ** k, grid.modes, size) for k in range(order + 1)]
    flux = np.conj(d[0]) * d[1]
    return Jet(d, np.abs(d[0]) ** 2, 2.0 * flux.real, 2.0 * flux.imag)


@lru_cache(maxsize=256)
def _sobolev_weights(modes: int, s: float) -> np.ndarray:
    n = _mode_indices(modes)
    weights = (1.0 + n * n) ** s
    weights.flags.writeable = False
    return weights


def sobolev_sq_rows(c: np.ndarray, grid: GridSpec, s: float) -> np.ndarray:
    """2*pi * sum (1+n^2)^s |c_n|^2 of each coefficient row (last axis) of c
    on `grid`; s = 0 reproduces int |u|^2 dx."""
    return TWO_PI * np.sum(_sobolev_weights(grid.modes, s) * np.abs(c) ** 2, axis=-1)


def quintic_rows(c: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Coefficients of |u|^4 u for |n| <= modes, computed alias-free, of a
    coefficient vector or of each row of a (B, 2M+1) block c on `grid`.

    A 5-fold product of band-M fields occupies modes up to 5M, so the
    transform size is at least 6M + 1 (GridSpec.quintic_pad).  Overflow is
    left to the caller's finiteness check.
    """
    v = synthesize(c, grid.modes, grid.quintic_pad())
    with np.errstate(over="ignore", invalid="ignore"):
        a = np.abs(v)
        a **= 4
        v *= a
        return analyze(v, grid.modes)
