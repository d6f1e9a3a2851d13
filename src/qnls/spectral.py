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
integrated on pad_for_degree(10) and the smoothing bound's |u_x|^4 on
pad_for_degree(4).  M is the band of the field, not of the grid it sits
on: energy holds a projection P_m u as its band's coefficients on
GridSpec(m) and evaluates it on GridSpec(m)'s pads.
Transforms are scipy's pocketfft, called through its c2c binding, so that a
one-row transform skips scipy.fft's dispatch, in the norm="forward"
convention: synthesize is the unnormalised sum, and analyze carries the
1/size, applied inside pocketfft.  They are equal bit for bit to scipy.fft
and to numpy.fft with norm="forward" at every size the configs use.

Coefficients are held in storage order or in the FFT-bin layout of a
transform, mode n in bin n % size and 0 in the other bins (to_bins and
from_bins convert).  quintic_rows works in storage order, through
synthesize and analyze; quintic_bins is the same quintic in the bin layout,
in place, so that flow's march pads once per RK4 step, not once per stage.
No other module calls pocketfft's c2c.

A block is evaluated chunk_rows(size) rows at a time, size being its widest
pad: the quintic pad for flow's RK4 step, the degree-10 pad for the
pad_chunked functionals.  Rows are independent, so no value depends on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, wraps

import numpy as np
from scipy.fft import next_fast_len
from scipy.fft._pocketfft.pypocketfft import c2c

TWO_PI = 2.0 * np.pi

# samples of one complex (rows, pad) temporary of a chunk: 16 rows at the
# degree-10 pad 324 of M = 32, 81 KB, so that glibc serves each temporary
# from the heap it keeps instead of mapping it and faulting it in anew on
# every call (its mmap threshold starts at 128 KiB)
CHUNK_SAMPLES = 16 * 324

# pad sizes, mode indices and Sobolev weights are read on every step
_fast_len = lru_cache(maxsize=256)(next_fast_len)


@lru_cache(maxsize=256)
def _mode_indices(modes: int) -> np.ndarray:
    n = np.arange(-modes, modes + 1)
    n.flags.writeable = False
    return n


@dataclass(frozen=True)
class GridSpec:
    """Mode cutoff: coefficients are kept for |n| <= modes.  modes = 0 holds
    the constants alone, the band of the projector P_0."""

    modes: int

    def __post_init__(self):
        if self.modes < 0:
            raise ValueError(f"modes must be >= 0, got {self.modes}")

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
    size must be at least 2*modes + 1, so that each mode has its own bin.
    The modes are added into zeros as two slices (a -0.0 coefficient lands
    as +0.0).  The sum is unnormalised: ifft(..., norm="forward").
    """
    if size < 2 * modes + 1:
        raise ValueError(f"size {size} is below 2*modes + 1 = {2 * modes + 1}")
    a = np.zeros(coeffs.shape[:-1] + (size,), dtype=np.complex128)
    a[..., : modes + 1] += coeffs[..., modes:]
    a[..., size - modes :] += coeffs[..., :modes]
    # scipy.fft.ifft(a, axis=-1, norm="forward"): c2c(a, axes, forward,
    # inorm 0 = unscaled, out, threads), here into a itself
    return c2c(a, (-1,), False, 0, a, 1)


def analyze(values: np.ndarray, modes: int) -> np.ndarray:
    """Fourier coefficients for |n| <= modes from equispaced samples.

    Acts on the last axis, like synthesize.  Exact when the sampled function
    is band-limited to |n| < values.shape[-1] - modes.  Carries the 1/size:
    fft(..., norm="forward"), then the bins of |n| <= modes.
    """
    # scipy.fft.fft(values, axis=-1, norm="forward"): inorm 2 = divide by
    # size, into a new array (out=None) so that values is not written
    return from_bins(c2c(values, (-1,), True, 2, None, 1), modes)


def to_bins(coeffs: np.ndarray, modes: int, size: int) -> np.ndarray:
    """coeffs (last axis n = -modes..modes, any dtype) copied bit for bit
    into the FFT bins n % size of a zero array of `size` bins."""
    a = np.zeros(coeffs.shape[:-1] + (size,), dtype=coeffs.dtype)
    a[..., : modes + 1] = coeffs[..., modes:]
    a[..., size - modes :] = coeffs[..., :modes]
    return a


def from_bins(a: np.ndarray, modes: int) -> np.ndarray:
    """The bins n % size of n = -modes..modes of `a` (size = a.shape[-1]),
    in storage order: the inverse of to_bins."""
    return a.take(_bins(modes, a.shape[-1]), axis=-1)


def derivatives(c: np.ndarray, grid: GridSpec, size: int, order: int) -> list[np.ndarray]:
    """Exact samples at `size` equispaced points of the x-derivatives
    0..order of a coefficient vector or of each row of a (B, 2M+1) block c on
    `grid`.  The k-th derivative has the coefficients c * (in)^k."""
    return [synthesize(c * (1j * grid.n) ** k, grid.modes, size) for k in range(order + 1)]


def jet(c: np.ndarray, grid: GridSpec, size: int, order: int) -> tuple:
    """(d, N, N_x, J): derivatives(c, grid, size, order) (order >= 1) with the
    densities N = |u|^2, N_x = 2 Re(conj(u) u_x) and J = 2 Im(conj(u) u_x)."""
    d = derivatives(c, grid, size, order)
    flux = np.conj(d[0]) * d[1]
    return d, np.abs(d[0]) ** 2, 2.0 * flux.real, 2.0 * flux.imag


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
    left to the caller's finiteness check, and the caller holds the
    np.errstate that keeps it quiet.
    """
    return analyze(_times_abs4(synthesize(c, grid.modes, grid.quintic_pad())), grid.modes)


def quintic_bins(a: np.ndarray) -> np.ndarray:
    """quintic_rows in the FFT-bin layout, in place.

    `a` is to_bins of coefficient rows at a size of at least 6M + 1.  It is
    overwritten by the bins of |u|^4 u and returned: those of |n| <= M equal
    quintic_rows bit for bit when `a` holds no -0.0 part (synthesize pads
    none), and the others hold the product's modes past M.
    """
    c2c(a, (-1,), False, 0, a, 1)
    return c2c(_times_abs4(a), (-1,), True, 2, a, 1)


def _times_abs4(v: np.ndarray) -> np.ndarray:
    """v *= |v|^4 in place, by two squarings, not a pow per sample."""
    a = np.abs(v)
    a *= a
    a *= a
    v *= a
    return v


def chunk_rows(size: int) -> int:
    """Rows of a block evaluated at once on a pad of `size` samples, so that
    each (rows, size) temporary holds at most CHUNK_SAMPLES samples."""
    return max(1, CHUNK_SAMPLES // size)


def _join(parts):
    """Per-chunk results joined: arrays along rows, dicts by key, tuples by item."""
    if isinstance(parts[0], dict):
        return {k: _join([part[k] for part in parts]) for k in parts[0]}
    if isinstance(parts[0], tuple):
        return tuple(_join(list(items)) for items in zip(*parts))
    return np.concatenate(parts)


def pad_chunked(rows_fn):
    """rows_fn(c, grid, ...) of a (B, 2M+1) block, evaluated
    chunk_rows(grid.pad_for_degree(10)) rows at a time; each row's result
    does not depend on the chunking."""
    @wraps(rows_fn)
    def chunked(c, grid, *args, **kwargs):
        step = chunk_rows(grid.pad_for_degree(10))
        if c.ndim == 1 or len(c) <= step:
            return rows_fn(c, grid, *args, **kwargs)
        return _join([rows_fn(c[i : i + step], grid, *args, **kwargs) for i in range(0, len(c), step)])

    return chunked
