"""Gaussian measures mu_s on the torus, deterministic ensembles and statistics.

A sample of mu_s is the random Fourier series with coefficients

    u_n = (h_n + i l_n) / (1 + n^2)^{s/2},   |n| <= M,

where h_n, l_n are independent unit normals (so E|g_n|^2 = 2).  Samples lie
in H^{s - 1/2 - delta} statistically; this is tested through moments, never
per sample.

Determinism and order independence come from a counter-based stream split: each
ensemble member index gets its own Philox stream keyed by

    seed(index) = splitmix64(base_seed XOR splitmix64(index)),

and normals are drawn through the inverse normal CDF applied to 53-bit
uniforms offset by half a step and kept inside (0, 1).  sample_mu draws a
block of members at once: one Philox bit generator is re-keyed to
[seed(index), 0] with counter 0 and an empty buffer for each member, and its
raw 64-bit outputs shifted right by 11 are that member's 53-bit integers
(what Generator.integers(0, 2^53) draws, as Lemire's bounded method never
rejects on a power-of-two range).  The transform to coefficients then runs
chunk_rows(2 (2M+1)) members at a time, spectral's one row-chunk rule.  A
member's row is bit-for-bit the same in every block it is drawn in, given
(spec, index); bit-compatibility across implementations is not promised,
statistical compatibility is.

Observables are name -> (B,) arrays over the members, from sampling to the
ensemble files that write_ensemble makes of them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .energy import r2_rows
from .flow import l6_pow6
from .spectral import FourierField, GridSpec, chunk_rows, pad_chunked, sobolev_sq_rows

_MASK64 = (1 << 64) - 1


def splitmix64(z: int) -> int:
    """One SplitMix64 output step (Steele, Lea, Flood 2014)."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(base_seed: int, index: int) -> int:
    """Documented stream split: splitmix64(base_seed XOR splitmix64(index))."""
    return splitmix64((base_seed & _MASK64) ^ splitmix64(index & _MASK64))


@dataclass(frozen=True)
class MeasureSpec:
    """Regularity index s, sample cutoff M and the ensemble's base seed."""

    s: float = 2.0
    M: int = 32
    base_seed: int = 20260810

    def __post_init__(self):
        if self.M < 0:
            raise ValueError("M must be >= 0")


def _standard_normals(k: np.ndarray) -> np.ndarray:
    """Inverse-CDF normals ndtri(u) of u = (k + 0.5) / 2^53 in float64, k an
    array of 53-bit integers.

    For k < 2^52 the sum is exact and u is the midpoint of its cell; above,
    k + 0.5 is a tie and rounds to the even one of k and k + 1.  Only
    k = 2^53 - 1 then gives u = 1.0; it is clamped to the largest double
    below 1, so u lies in (0, 1) and every normal is finite.
    """
    u = (k.astype(np.float64) + 0.5) / float(1 << 53)
    return ndtri(np.minimum(u, np.nextafter(1.0, 0.0)))


def sample_mu(spec: MeasureSpec, indices, grid: GridSpec, seeds=None) -> np.ndarray:
    """The (len(indices), 2 grid.modes + 1) coefficient block on `grid` of
    the ensemble members of mu_s with these indices, in their order; each
    row is deterministic per (spec, index).

    A member's normals are its first 2 (2M+1) draws in mode order
    n = -M..M, h_n then l_n for each n.  `seeds`, if given, are the
    members' derive_seed(spec.base_seed, index), from a caller that also
    writes them out.
    """
    if grid.modes < spec.M:
        raise ValueError(f"grid modes {grid.modes} < sample cutoff {spec.M}")
    if seeds is None:
        seeds = [derive_seed(spec.base_seed, i) for i in indices]
    n = np.arange(-spec.M, spec.M + 1)
    weight = (1.0 + n * n) ** (spec.s / 2.0)
    width = 2 * n.size
    philox = np.random.Philox(key=0)
    state = philox.state  # counter 0, empty buffer (buffer_pos 4)
    key = state["state"]["key"]
    c = np.zeros((len(seeds), 2 * grid.modes + 1), dtype=np.complex128)
    per_chunk = chunk_rows(width)
    for lo in range(0, len(seeds), per_chunk):
        part = seeds[lo : lo + per_chunk]
        k = np.empty((len(part), width), dtype=np.uint64)
        for row, seed in enumerate(part):
            key[0] = seed
            philox.state = state
            k[row] = philox.random_raw(width)
        hl = _standard_normals(k >> np.uint64(11))
        g = hl[:, 0::2] + 1j * hl[:, 1::2]
        c[lo : lo + len(part), grid.modes - spec.M : grid.modes + spec.M + 1] = g / weight
    return c


OBSERVABLE_NAMES = ("mass", "h1_sq", "hs_half_eps", "u0_sq", "l6_pow6", "e2")


@pad_chunked
def observables_rows(c: np.ndarray, grid: GridSpec, sigma: int = 1) -> dict[str, np.ndarray]:
    """Scalar observables for invariance/transport experiments, name -> (B,)
    array, of each row of a (B, 2M+1) coefficient block c on `grid`.

    Non-conserved functionals (|u_0|^2, H^1, L^6, E_2) carry the signal;
    mass is the conserved control.  hs_half_eps is ||u||_{H^{7/4}}^2, the
    pinned reporting norm.
    """
    return {
        "mass": sobolev_sq_rows(c, grid, 0.0),
        "h1_sq": sobolev_sq_rows(c, grid, 1.0),
        "hs_half_eps": sobolev_sq_rows(c, grid, 1.75),
        # scalar abs: np.abs of an array rounds some |u_0| differently
        "u0_sq": np.array([abs(z) ** 2 for z in c[:, grid.modes]]),
        "l6_pow6": l6_pow6(c, grid),
        "e2": sobolev_sq_rows(c, grid, 2.0) + r2_rows(c, grid, sigma)[0],
    }


def observables(u: FourierField, sigma: int = 1) -> dict[str, float]:
    """observables_rows of one field."""
    rows = observables_rows(u.coeffs[np.newaxis], u.grid, sigma)
    return {name: float(v[0]) for name, v in rows.items()}


def ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov sup-distance of empirical CDFs."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("ks_statistic needs nonempty samples")
    both = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, both, side="right") / a.size
    cdf_b = np.searchsorted(b, both, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_critical_value(n: int, m: int, alpha: float = 0.05) -> float:
    """Asymptotic two-sample KS critical value c(alpha) sqrt((n+m)/(n m))."""
    c = np.sqrt(-0.5 * np.log(alpha / 2.0))
    return float(c * np.sqrt((n + m) / (n * m)))


MIN_TAIL_SAMPLES = 100  # fewer gives a tail fraction too coarse to compare


def tail_ratio(before, after, threshold: float) -> float:
    """(fraction of after > threshold) / (fraction of before > threshold).

    Conventions: 0/0 -> 1.0; x/0 with x > 0 -> +inf (reported distinctly).
    """
    before = np.asarray(before, dtype=float)
    after = np.asarray(after, dtype=float)
    if before.size != after.size:
        raise ValueError("tail_ratio: arrays differ in length")
    if before.size < MIN_TAIL_SAMPLES:
        raise ValueError(f"tail_ratio needs at least {MIN_TAIL_SAMPLES} samples")
    fb = float(np.mean(before > threshold))
    fa = float(np.mean(after > threshold))
    if fb == 0.0:
        return 1.0 if fa == 0.0 else float("inf")
    return fa / fb


def write_ensemble(path, seeds, live, obs: dict[str, np.ndarray]) -> None:
    """Ensemble file: JSON-lines, one {index, seed, observables} record per
    member of the name -> (B,) arrays obs, with "observables": {} for a
    member that is not live."""
    rows = zip(*(v.tolist() for v in obs.values()))
    with open(path, "w") as fh:
        for i, (seed, ok, row) in enumerate(zip(seeds, live, rows)):
            record = {"index": i, "seed": seed, "observables": dict(zip(obs, row)) if ok else {}}
            fh.write(json.dumps(record) + "\n")
