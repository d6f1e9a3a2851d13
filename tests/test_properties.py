"""Property tests: spectral round trips, and block functionals equal to their
one-row calls bit for bit.

Examples are derandomized, so every run draws the same ones.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qnls import FourierField, GridSpec
from qnls.measure import OBSERVABLE_NAMES, observables, observables_rows
from qnls.spectral import analyze, jet, synthesize

PROPERTY = settings(derandomize=True, max_examples=12, deadline=None)

coefficient = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)


@st.composite
def blocks(draw, min_rows, max_rows):
    """(grid, block): random rows on a random grid, some parts set to -0.0."""
    modes = draw(st.integers(1, 8))
    rows = draw(st.integers(min_rows, max_rows))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = np.arange(-modes, modes + 1)
    shape = (rows, n.size)
    c = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / (1.0 + n * n)
    c.real[rng.random(shape) < 0.2] = -0.0
    c.imag[rng.random(shape) < 0.2] = -0.0
    return GridSpec(modes=modes), c


@PROPERTY
@given(
    modes=st.integers(1, 16),
    extra=st.integers(0, 40),
    rows=st.integers(0, 4),
    data=st.data(),
)
def test_synthesize_analyze_round_trip(modes, extra, rows, data):
    # rows = 0 draws one coefficient vector, else a (rows, 2M+1) block
    shape = (2 * modes + 1,) if rows == 0 else (rows, 2 * modes + 1)
    c = data.draw(hnp.arrays(np.complex128, shape, elements=coefficient))
    back = analyze(synthesize(c, modes, 2 * modes + 1 + extra), modes)
    assert back.shape == c.shape
    assert np.allclose(back, c, rtol=0.0, atol=1e-12 * max(1.0, np.max(np.abs(c))))


@PROPERTY
@given(block=blocks(1, 80), size_factor=st.integers(1, 12), order=st.integers(1, 3))
def test_jet_rows_are_the_one_row_calls(block, size_factor, order):
    grid, c = block
    size = size_factor * grid.modes  # below 2M+1 for factor 1: the fold path
    whole = jet(c, grid, size, order)
    for i, row in enumerate(c):
        one = jet(row, grid, size, order)
        for got, want in zip([*whole.d, whole.N, whole.Nx, whole.J], [*one.d, one.N, one.Nx, one.J]):
            assert got[i].tobytes() == want.tobytes()


@PROPERTY
@given(block=blocks(65, 140), sigma=st.sampled_from([1, -1]))
def test_observables_rows_are_the_one_row_calls(block, sigma):
    # more than 64 rows: the block is evaluated in chunks
    grid, c = block
    whole = observables_rows(c, grid, sigma)
    assert list(whole) == list(OBSERVABLE_NAMES)
    one = [observables(FourierField(grid, row), sigma) for row in c]
    for name in OBSERVABLE_NAMES:
        assert whole[name].tobytes() == np.array([o[name] for o in one]).tobytes(), name
