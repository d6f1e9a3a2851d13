"""Time integration of the linear, full and Galerkin-truncated quintic flows.

The equation is (i d/dt + d^2/dx^2) u = sigma * P_M(|P_M u|^4 P_M u) with
sigma = +1 (defocusing) or -1 (focusing) and P_M the Dirichlet projector;
a row's cutoff FULL (None) drops both projectors (P_inf = Id on the grid
band).  In coefficient form:

    du_n/dt = -i n^2 u_n - i sigma * (P_M |P_M u|^4 P_M u)_n.

Time steps are classical RK4 on this coefficient ODE system, with the
quintic extracted alias-free on GridSpec.quintic_pad() >= 6M + 1, for every
Galerkin cutoff.  The right-hand side is assembled in the quintic's own
array: the quintic, P_M, the factor -i sigma in place, then -i n^2 u_n
added in place.

RK4 is stable on the imaginary axis only up to |n^2 dt| = 2*sqrt(2)
(RK4_IMAGINARY_LIMIT, checked at parse time for every stepping experiment);
below that limit it is stable but not accurate.  Per step it multiplies the
energy of mode n by 1 - z^6/72 + z^8/576 with z = n^2 dt, which is 0.986 at
n = 32 and dt = 1e-3.

Independent fields on one grid are advanced together: evolve takes a
(B, 2M+1) coefficient block, with a Galerkin cutoff per row (the spectral
transforms act on the last axis).  Each step goes chunk by chunk over the
live rows, chunk_rows(quintic_pad) rows at a time (spectral's one row-chunk
rule), so that the step's pad-sized temporaries stay small enough to be
reused from the heap; a chunk's new rows overwrite its old ones in the
block, so no block-sized array is made per step.

One _rk4 steps both layouts.  The march (_rk4_bins) steps each chunk in the
quintic pad's FFT-bin layout: the rows are padded once per step, the stage
inputs u + h k and their combination are formed on the pad, and the 2M+1
bins are taken back once; P_M is each row's _cut bin mask.  step, the full
flow of one field, keeps its storage-order _rhs_coeffs, through synthesize
and analyze at each stage, for the benchmark's tracer test, which counts
those calls in one step.  Each mode's bin rounds as its coefficient does,
so each FULL row of the march is bit-for-bit a loop of step() calls on that
row.

The H^1 guard (the root of sobolev_sq_rows' h1_sq below blowup_threshold,
which NaN fails) and the finiteness check apply per row: a row that fails
either is frozen at its last good state and leaves the live mask at the
step where step() would raise, and its trip time (the time of that state)
is returned, while the other rows run on.  There is one schedule loop, one
guard and one record loop: evolve returns (times, states, live,
trip_times), a run of one field being a one-row block, and a trip is a
False in live with its time in trip_times.  step advances one field of the
full flow: the tests hold the FULL rows to it, and plane_wave_order steps
with it.

A row may overflow inside a step (|u|^4 u past the float range).  The
np.errstate that keeps this quiet is held once per step: by step around
its _rk4, by _march around a step's chunks and the H^1 norms of their new
rows, and once around the right-hand side that energy.band_rates
evaluates; spectral.quintic_rows and quintic_bins hold none, so a caller
outside these warns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectral import (
    TWO_PI,
    FourierField,
    GridSpec,
    chunk_rows,
    from_bins,
    quintic_bins,
    quintic_rows,
    sobolev_sq_rows,
    synthesize,
    to_bins,
)

FULL = None  # cutoff value meaning "no Galerkin projector"

# RK4's stability interval on the imaginary axis: |R(iz)| <= 1 for |z| <= 2*sqrt(2)
RK4_IMAGINARY_LIMIT = 2.0 * np.sqrt(2.0)


class BlowUpError(RuntimeError):
    """H^1 guard exceeded (or the state left the representable range)."""


@dataclass(frozen=True)
class FlowParams:
    """Nonlinearity sign and RK4 step size.

    blowup_threshold caps ||u||_{H^1}; focusing runs are only local in time.
    A Galerkin cutoff is evolve's, one per row.
    """

    sigma: int = 1
    dt: float = 1e-3
    blowup_threshold: float = 1e3

    def __post_init__(self):
        if self.sigma not in (1, -1):
            raise ValueError(f"sigma must be +1 or -1, got {self.sigma}")
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not self.blowup_threshold > 0:  # NaN would trip every row before its first step
            raise ValueError(f"blowup_threshold must be positive, got {self.blowup_threshold}")


def linear_flow_rows(c: np.ndarray, grid: GridSpec, t: float) -> np.ndarray:
    """Exact flow of (i d/dt + d^2/dx^2) u = 0, u_n -> e^{-i t n^2} u_n, of a
    coefficient vector or of each row of a (B, 2M+1) block c on `grid`."""
    return c * np.exp(-1j * t * grid.n * grid.n)


@lru_cache(maxsize=256)
def _cut(modes: int, cutoff: int | None, size: int) -> np.ndarray | None:
    """The mask of the modes P_M drops, cutoff < |n| <= modes, in the bins
    of a size-`size` transform (read-only, shared); None where P_M is the
    identity (FULL or cutoff = modes).  A cutoff outside [0, modes] is a
    ValueError."""
    if cutoff is FULL or cutoff == modes:
        return None
    if not 0 <= cutoff < modes:
        raise ValueError(f"cutoff {cutoff} is outside [0, {modes}], the grid's modes")
    cut = to_bins(np.abs(np.arange(-modes, modes + 1)) > cutoff, modes, size)
    cut.flags.writeable = False
    return cut


@lru_cache(maxsize=256)
def _linear_symbol(modes: int) -> np.ndarray:
    """-i n^2 over n = -modes..modes (read-only, shared)."""
    n = np.arange(-modes, modes + 1)
    lin = -1j * n * n
    lin.flags.writeable = False
    return lin


@lru_cache(maxsize=256)
def _bin_symbols(modes: int, size: int, sigma: int) -> tuple[np.ndarray, np.ndarray]:
    """-i sigma and _linear_symbol(modes) in the bins of the modes of a
    size-`size` transform, 0 in the other bins, each as chunk_rows(size)
    equal rows: numpy multiplies a (rows, size) block by a (rows, size)
    operand about twice as fast as by one row broadcast over the block
    (read-only, shared)."""
    rows = (chunk_rows(size), 1)
    factor = np.tile(to_bins(np.full(2 * modes + 1, -1j * sigma), modes, size), rows)
    lin = np.tile(to_bins(_linear_symbol(modes), modes, size), rows)
    factor.flags.writeable = lin.flags.writeable = False
    return factor, lin


def _rhs_coeffs(c: np.ndarray, grid: GridSpec, p: FlowParams) -> np.ndarray:
    """du/dt of the full flow, of a coefficient vector or block."""
    q = quintic_rows(c, grid)
    q *= -1j * p.sigma
    q += _linear_symbol(grid.modes) * c
    return q


def _rk4(u: np.ndarray, rhs, dt: float) -> np.ndarray:
    """One classical RK4 step of du/dt = rhs(u) in the layout u and rhs share;
    rhs returns a new array and leaves its input alone.  The caller holds the
    np.errstate that keeps overflow quiet; its finiteness check finds it."""
    # x is each stage input u + h k in turn, total the sum k1 + 2 k2 + 2 k3 + k4
    k = total = rhs(u)
    x = None
    for h in (0.5 * dt, 0.5 * dt, dt):
        x = np.multiply(h, k, out=x)
        np.add(u, x, out=x)
        if k is not total:  # k2 and k3, once their stage input is formed
            np.multiply(2.0, k, out=k)
            total += k
        k = rhs(x)
    total += k
    np.multiply(dt / 6.0, total, out=total)
    np.add(u, total, out=total)
    return total


def _rk4_bins(c: np.ndarray, grid: GridSpec, p: FlowParams, dt: float, cut: np.ndarray | None) -> np.ndarray:
    """_rk4 of a chunk of the march, a (B, 2M+1) block, in the quintic
    pad's FFT-bin layout: padded once, the 2M+1 bins taken back once.

    `cut` is one _cut bin mask per row, or None if no row has a projector:
    P_M zeroes those bins in the transform's input and in the quintic.  The
    factor -i sigma is 0 in the bins of no mode, so a finite quintic leaves
    them 0 in every stage input.
    """
    u = to_bins(c, grid.modes, grid.quintic_pad())
    factor, lin = (a[: len(c)] for a in _bin_symbols(grid.modes, u.shape[-1], p.sigma))

    def rhs(x):
        v = x + 0.0  # a -0.0 part enters the transform as +0.0, as synthesize pads it
        if cut is not None:
            np.copyto(v, 0.0, where=cut)
        q = quintic_bins(v)
        if cut is not None:
            np.copyto(q, 0.0, where=cut)
        q *= factor
        q += lin * x
        return q

    return from_bins(_rk4(u, rhs, dt), grid.modes)


def _finite_rows(c: np.ndarray) -> np.ndarray:
    return np.isfinite(c.view(np.float64)).all(axis=-1)


def _schedule(t_end: float, dt: float) -> tuple[int, float]:
    """Full steps of size dt up to t_end, and the final partial step (0.0 if none)."""
    if not (t_end > 0 and math.isfinite(t_end)):
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    n_steps = int(np.floor(t_end / dt + 1e-12))
    remainder = t_end - n_steps * dt
    return n_steps, remainder if remainder > 1e-12 else 0.0


def step(u: FourierField, p: FlowParams) -> FourierField:
    """One RK4 step of size p.dt of the full flow.

    Raises BlowUpError when ||u||_{H^1} reaches the guard before the step or
    the state is no longer finite after it.
    """
    h1 = float(np.sqrt(sobolev_sq_rows(u.coeffs, u.grid, 1.0)))
    if not h1 < p.blowup_threshold:
        raise BlowUpError(f"H^1 guard tripped: ||u||_H1 = {h1:.6g}")
    with np.errstate(over="ignore", invalid="ignore"):
        # _rhs_coeffs looked up per call, so that a tracer patched into flow counts it
        c = _rk4(u.coeffs, lambda x: _rhs_coeffs(x, u.grid, p), p.dt)
    if not _finite_rows(c):
        raise BlowUpError("state left the representable range during a step")
    return FourierField(u.grid, c)


def _march(c, live, trip_times, grid, p, t_end, cutoffs):
    """Advance the rows of c in place along evolve's schedule, each while it
    is live.

    Row i takes the Galerkin cutoff cutoffs[i], its _cut looked up before
    the first step.  Each step runs chunk_rows(grid.quintic_pad()) rows at a
    time through _rk4_bins, and a chunk's new rows overwrite its old ones
    once computed (the rows are independent); whether their H^1 norms
    (sobolev_sq_rows) are below the guard is kept for the next step.  Yields
    (k, t) after step k, t being the time of the new state: k * dt, or t_end
    after the partial step.  Before each step a row whose H^1 norm is not
    below the guard (NaN and inf are not), and after it a row that is no
    longer finite, keeps its last good state, leaves `live` and gets that
    state's time in trip_times.  Finiteness is checked only in a chunk where
    some new norm fails the guard; a finite row over the guard after the last
    step stays live.  Stops once no row is live.
    """
    size = grid.quintic_pad()
    cut = [_cut(grid.modes, m, size) for m in cutoffs]  # one per row
    n_steps, remainder = _schedule(t_end, p.dt)
    none = np.zeros(size, dtype=bool)  # the mask of a row without projector
    cut = None if all(x is None for x in cut) else np.stack([none if x is None else x for x in cut])
    # the live rows and their block; c[rows] is kept equal to it (c itself
    # until a row leaves)
    rows, block = np.arange(len(c)), c
    per_chunk = chunk_rows(size)
    t = 0.0

    def below_guard(x):
        return np.sqrt(sobolev_sq_rows(x, grid, 1.0)) < p.blowup_threshold

    def leave(good):
        nonlocal rows, block, under, cut
        live[rows[~good]] = False
        trip_times[rows[~good]] = t
        rows, block, under = rows[good], block[good], under[good]
        cut = cut if cut is None else cut[good]

    under = below_guard(block)  # H^1 norm below the guard, per row
    for k in range(1, n_steps + 1 + (remainder > 0)):
        if not under.all():
            leave(under)
        if rows.size:
            dt = p.dt if k <= n_steps else remainder
            finite = True
            # one np.errstate per step: RK4 overflows quietly, and so does |c|^2
            # of a finite row past the float range's square root
            with np.errstate(over="ignore", invalid="ignore"):
                for i in range(0, rows.size, per_chunk):
                    part = slice(i, i + per_chunk)
                    new = _rk4_bins(block[part], grid, p, dt, cut if cut is None else cut[part])
                    under[part] = ok = below_guard(new)
                    if ok.all():
                        block[part] = new
                    else:
                        if finite is True:
                            finite = np.ones(rows.size, dtype=bool)
                        finite[part] = ok = _finite_rows(new)
                        block[part][ok] = new[ok]
            if finite is not True:
                leave(finite)
            if block is not c:
                c[rows] = block
        if not rows.size:
            return
        t = k * p.dt if k <= n_steps else t_end
        yield k, t


def evolve(c, grid: GridSpec, p: FlowParams, t_end: float, stride: int | None = None, cutoffs=None) -> tuple:
    """Advance each row of a (B, 2M+1) coefficient block c by t_end along
    step()'s arithmetic, with its own Galerkin cutoff from `cutoffs` (FULL
    or an int in [0, grid.modes] per row; None: FULL for every row).

    A row whose H^1 norm reaches the guard before a step, or that is no
    longer finite after one, is frozen at its last good state and leaves
    live at the step where step() would raise.  Returns (times, states, live,
    trip_times): states[k] is the block at times[k], recorded at t = 0, after
    every `stride`-th step (none if None) and at the last state, once each;
    trip_times[i] is the time of row i's last good state if it left live,
    else NaN.  A cutoffs that is not one entry per row is a ValueError that
    names the block's row count, and a cutoff outside [0, grid.modes] one
    that names the cutoff, before any step.
    """
    # C order: _march steps these rows in place, and their row sums must
    # round as step()'s do
    c = np.array(c, dtype=np.complex128, order="C")
    if c.ndim != 2:
        raise ValueError(f"evolve takes a (B, 2M+1) block, got shape {c.shape}")
    if stride is not None and stride < 1:
        raise ValueError("stride must be >= 1")
    cutoffs = [FULL] * len(c) if cutoffs is None else cutoffs
    if np.shape(cutoffs) != (len(c),):
        raise ValueError(f"cutoffs of shape {np.shape(cutoffs)} for a block of {len(c)} rows: one entry per row")
    live = np.ones(len(c), dtype=bool)
    trip_times = np.full(len(c), np.nan)
    times, states = [0.0], [c.copy()]
    t = 0.0
    for k, t in _march(c, live, trip_times, grid, p, t_end, cutoffs):
        if stride is not None and k % stride == 0:
            times.append(t)
            states.append(c.copy())
    if times[-1] != t:
        times.append(t)
        states.append(c)
    return np.asarray(times), np.array(states), live, trip_times


def momentum_rows(c: np.ndarray, grid: GridSpec) -> np.ndarray:
    """2 Im int conj(u) u_x dx = 4*pi * sum n |u_n|^2 (= int J dx), of a
    coefficient vector or of each row of a (B, 2M+1) block c on `grid`."""
    return 2.0 * TWO_PI * np.sum(grid.n * np.abs(c) ** 2, axis=-1)


def l6_pow6(c: np.ndarray, grid: GridSpec) -> np.ndarray:
    """int |u|^6 dx, alias-free (degree-6 integrand), of a coefficient vector
    or of each row of a (B, 2M+1) block c on `grid`."""
    size = grid.pad_for_degree(6)
    vals = synthesize(c, grid.modes, size)
    return TWO_PI / size * np.sum(np.abs(vals) ** 6, axis=-1)


def hamiltonian_rows(c: np.ndarray, grid: GridSpec, sigma: int = 1) -> np.ndarray:
    """(1/2) int |u_x|^2 + (sigma/6) int |u|^6, of a coefficient vector or of
    each row of a (B, 2M+1) block c on `grid`."""
    n = grid.n
    kinetic = 0.5 * TWO_PI * np.sum(n * n * np.abs(c) ** 2, axis=-1)
    return kinetic + sigma / 6.0 * l6_pow6(c, grid)
