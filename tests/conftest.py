from dataclasses import replace

import numpy as np
import pytest

from qnls import BlowUpError, FourierField, GridSpec, step


def random_field(grid: GridSpec, seed: int, amp: float = 1.0, decay: float = 0.0) -> FourierField:
    """Random band-limited field; decay > 0 tapers coefficients like e^{-|n|*decay}."""
    rng = np.random.default_rng(seed)
    n = grid.n
    c = amp * (rng.standard_normal(n.size) + 1j * rng.standard_normal(n.size))
    if decay:
        c = c * np.exp(-np.abs(n) * decay)
    return FourierField(grid, c)


@pytest.fixture
def grid8():
    return GridSpec(modes=8)


@pytest.fixture
def grid16():
    return GridSpec(modes=16)


def step_loop(u0, p, t_end: float, stride: int = 1):
    """Reference for each row of evolve: a plain step() loop.

    Full steps of p.dt, then a partial step landing on t_end (none if under
    1e-12).  Returns (final field, blow-up time or None, record times): the
    blow-up time is the row's trip_times entry in evolve, None a row that
    stays live; a record at t = 0, after every `stride`-th full step, and at
    the last good state, once each.
    """
    n_steps = int(np.floor(t_end / p.dt + 1e-12))
    remainder = t_end - n_steps * p.dt
    steps = [p.dt] * n_steps + ([remainder] if remainder > 1e-12 else [])
    u, t, times = u0, 0.0, [0.0]
    for k, dt in enumerate(steps, 1):
        try:
            u = step(u, replace(p, dt=dt))
        except BlowUpError:
            if times[-1] != t:
                times.append(t)
            return u, t, times
        t = k * p.dt if k <= n_steps else t_end
        if k % stride == 0 and k < len(steps):
            times.append(t)
    times.append(t)
    return u, None, times
