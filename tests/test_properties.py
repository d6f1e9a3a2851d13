"""Property tests: spectral round trips, Parseval and skew-adjointness, the
spectral kernels equal to their numpy.fft and scipy.fft formulas bit for
bit, the linearity of E_2's first variation, and block functionals and block
flows equal to their one-row calls bit for bit.

Examples are derandomized, so every run draws the same ones.
"""

from dataclasses import replace

import numpy as np
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qnls import FULL, FlowParams, FourierField, GridSpec, e2_directional, evolve
from qnls.densities import continuity_residuals, eleele_residual, j0_diag, residual_rows
from qnls.energy import breakdown_rows, full_breakdown, projected_rates, r2_rows, r2_truncation_curve
from qnls.measure import OBSERVABLE_NAMES, observables, observables_rows
from qnls.spectral import TWO_PI, analyze, chunk_rows, from_bins, jet, quintic_bins, quintic_rows, synthesize, to_bins

from conftest import step_loop
from oracles import (
    analyze_numpy,
    derivative,
    inner,
    n1_rows,
    padded,
    project,
    projected_rates_masked,
    quintic_rows_numpy,
    r2_truncation_curve_masked,
    sobolev_norm_sq,
    synthesize_numpy,
    values,
)

PROPERTY = settings(derandomize=True, max_examples=12, deadline=None)

coefficient = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)


@st.composite
def blocks(draw, min_rows, max_rows, modes=st.integers(1, 8)):
    """(grid, block): random rows on a random grid, some parts set to -0.0."""
    modes = draw(modes)
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


@st.composite
def kernel_inputs(draw):
    """(grid, c): a coefficient vector or a block of 1-120 rows at M = 8, 32
    or 128, each row scaled by 1, 1e70 or 1e78 so |u|^4 u may overflow."""
    rows = draw(st.integers(0, 120))  # 0 draws one coefficient vector
    grid, c = draw(blocks(max(rows, 1), max(rows, 1), modes=st.sampled_from([8, 32, 128])))
    scales = draw(st.lists(st.sampled_from([1.0, 1e70, 1e78]), min_size=len(c), max_size=len(c)))
    c = c * np.array(scales)[:, np.newaxis]
    return grid, c[0] if rows == 0 else c


@PROPERTY
@given(kernel=kernel_inputs())
def test_kernels_are_their_numpy_formulas_bit_for_bit(kernel):
    grid, c = kernel
    for size in (2 * grid.modes + 1, grid.phys_size, grid.quintic_pad()):  # 2M+1: the least synthesize takes
        v = synthesize(c, grid.modes, size)
        assert v.tobytes() == synthesize_numpy(c, grid.modes, size).tobytes(), size
        assert analyze(v, grid.modes).tobytes() == analyze_numpy(v, grid.modes).tobytes(), size
    with np.errstate(over="ignore", invalid="ignore"):  # as step and _march hold it
        got = quintic_rows(c, grid)
    want = quintic_rows_numpy(c, grid)
    assert np.array_equal(np.isfinite(got), np.isfinite(want))  # overflow lands in the same bins
    assert got.tobytes() == want.tobytes()


@PROPERTY
@given(kernel=kernel_inputs())
def test_quintic_bins_is_quintic_rows_bit_for_bit(kernel):
    # the march's quintic in the pad's bin layout, -0.0 parts and overflow
    # included; to_bins and from_bins round-trip every bit
    grid, c = kernel
    a = to_bins(c, grid.modes, grid.quintic_pad())
    assert from_bins(a, grid.modes).tobytes() == c.tobytes()
    a += 0.0  # a -0.0 part enters the transform as +0.0, as synthesize pads it
    with np.errstate(over="ignore", invalid="ignore"):
        got = from_bins(quintic_bins(a), grid.modes)
        want = quintic_rows(c, grid)
    assert got.tobytes() == want.tobytes()


@PROPERTY
@given(kernel=kernel_inputs())
def test_transforms_are_scipy_fft_bit_for_bit(kernel):
    # synthesize and analyze call pocketfft's c2c binding, not scipy.fft: a
    # scipy release that changes what c2c's arguments mean shows up here
    grid, c = kernel
    for size in (2 * grid.modes + 1, grid.phys_size, grid.quintic_pad()):
        v = synthesize(c, grid.modes, size)
        assert v.tobytes() == scipy.fft.ifft(padded(c, grid.modes, size), axis=-1, norm="forward").tobytes(), size
        bins = np.arange(-grid.modes, grid.modes + 1) % size
        with np.errstate(over="ignore", invalid="ignore"):
            quintic = (np.abs(v) ** 2) ** 2 * v  # inf and nan where the row overflows
            for values in (v, quintic):
                want = scipy.fft.fft(values, axis=-1, norm="forward").take(bins, axis=-1)
                assert analyze(values, grid.modes).tobytes() == want.tobytes(), size


@PROPERTY
@given(block=blocks(1, 1), extra=st.integers(0, 40))
def test_parseval(block, extra):
    grid, c = block
    u = FourierField(grid, c[0])
    size = 2 * grid.modes + 1 + extra
    norm = inner(u, u)
    assert abs(norm.imag) <= 1e-15 * norm.real
    assert np.isclose(norm.real, sobolev_norm_sq(u, 0), rtol=1e-13, atol=0.0)
    samples = TWO_PI / size * np.sum(np.abs(values(u, size)) ** 2)
    assert np.isclose(norm.real, samples, rtol=1e-12, atol=1e-300)


@PROPERTY
@given(block=blocks(2, 2))
def test_derivative_is_skew_adjoint(block):
    grid, c = block
    u, v = FourierField(grid, c[0]), FourierField(grid, c[1])
    lhs, rhs = inner(derivative(u), v), -inner(u, derivative(v))
    scale = grid.modes * TWO_PI * np.sum(np.abs(c[0]) * np.abs(c[1]))
    assert abs(lhs - rhs) <= 1e-14 * scale


@PROPERTY
@given(block=blocks(1, 80), size_factor=st.integers(3, 12), order=st.integers(1, 3))
def test_jet_rows_are_the_one_row_calls(block, size_factor, order):
    grid, c = block
    size = size_factor * grid.modes  # at least 2M+1, as synthesize requires
    d, *densities = jet(c, grid, size, order)
    for i, row in enumerate(c):
        one_d, *one_densities = jet(row, grid, size, order)
        for got, want in zip([*d, *densities], [*one_d, *one_densities]):
            assert got[i].tobytes() == want.tobytes()


@st.composite
def chunk_spanning_blocks(draw):
    """(grid, block) whose rows run one to eight past the first row chunk."""
    modes = draw(st.sampled_from([24, 64]))
    rows = chunk_rows(GridSpec(modes=modes).pad_for_degree(10))
    return draw(blocks(rows + 1, rows + 8, modes=st.just(modes)))


@PROPERTY
@given(block=chunk_spanning_blocks(), sigma=st.sampled_from([1, -1]))
def test_observables_rows_are_the_one_row_calls(block, sigma):
    grid, c = block
    whole = observables_rows(c, grid, sigma)
    assert list(whole) == list(OBSERVABLE_NAMES)
    one = [observables(FourierField(grid, row), sigma) for row in c]
    for name in OBSERVABLE_NAMES:
        assert whole[name].tobytes() == np.array([o[name] for o in one]).tobytes(), name


@PROPERTY
@given(block=chunk_spanning_blocks(), sigma=st.sampled_from([1, -1]), cutoff=st.sampled_from([FULL, 10]))
def test_breakdown_and_projected_rates_rows_are_the_one_row_calls(block, sigma, cutoff):
    grid, c = block
    p = FlowParams(sigma=sigma, cutoff=cutoff)
    whole = breakdown_rows(c, grid, p)
    w, rate, raw = projected_rates(c, grid, p)
    for i, row in enumerate(c):
        got = {name: float(v[i]) for name, v in whole.items()}
        want = full_breakdown(FourierField(grid, row), p)
        assert list(got) == list(want)
        assert np.array(list(got.values())).tobytes() == np.array(list(want.values())).tobytes(), i
        ow, orate, oraw = projected_rates(row[np.newaxis], grid, p)
        assert w[i].tobytes() == ow[0].tobytes()
        assert rate[i].tobytes() == orate[0].tobytes()
        assert [v[i].tobytes() for v in raw.values()] == [v[0].tobytes() for v in oraw.values()]


@PROPERTY
@given(block=blocks(1, 20, modes=st.sampled_from([4, 7, 16, 33, 64])))
def test_residual_rows_are_the_one_row_calls(block):
    grid, c = block
    whole = residual_rows(c, grid)
    assert list(whole) == ["eleele", "j0", "mass_p", "mom_p", "mass_m", "mom_m"]
    n1 = n1_rows(c, grid)
    for i, row in enumerate(c):
        u = FourierField(grid, row)
        assert n1[i].tobytes() == n1_rows(row[np.newaxis], grid)[0].tobytes(), i
        one = {"eleele": eleele_residual(u), "j0": j0_diag(u, FlowParams(sigma=1))}
        one["mass_p"], one["mom_p"] = continuity_residuals(u, FlowParams(sigma=1))
        one["mass_m"], one["mom_m"] = continuity_residuals(u, FlowParams(sigma=-1))
        got = np.array([whole[name][i] for name in one])
        assert got.tobytes() == np.array(list(one.values())).tobytes(), i


@PROPERTY
@given(block=blocks(3, 3), a=st.floats(-4.0, 4.0), b=st.floats(-4.0, 4.0), sigma=st.sampled_from([1, -1]))
def test_e2_directional_is_linear_in_v(block, a, b, sigma):
    grid, c = block
    u, v, w = (FourierField(grid, row) for row in c)
    dv, dw = e2_directional(u, v, sigma), e2_directional(u, w, sigma)
    both = e2_directional(u, FourierField(grid, a * c[1] + b * c[2]), sigma)
    assert abs(both - (a * dv + b * dw)) <= 1e-13 * (abs(a * dv) + abs(b * dw))
    # a power of two scales every product of the variation exactly
    assert e2_directional(u, FourierField(grid, 4.0 * c[1]), sigma) == 4.0 * dv


@PROPERTY
@given(block=blocks(1, 5, modes=st.integers(2, 8)), data=st.data(), sigma=st.sampled_from([1, -1]))
def test_block_rows_are_one_row_evolve_runs(block, data, sigma):
    # mixed per-row cutoffs; a guard threshold drawn near the rows' H^1 norms
    # trips some of them
    grid, c = block
    choices = st.sampled_from([FULL, 0, 1, grid.modes // 2, grid.modes])
    cutoffs = data.draw(st.lists(choices, min_size=len(c), max_size=len(c)))
    p = FlowParams(sigma=sigma, dt=1e-3, blowup_threshold=data.draw(st.floats(3.0, 12.0)))
    t_end = 0.0105  # ten full steps and a partial one
    _, states, live, trip_times = evolve(c, grid, p, t_end, cutoffs=cutoffs)
    for row, c0, cutoff, ok, trip_time in zip(states[-1], c, cutoffs, live, trip_times):
        _, one, one_live, one_trip = evolve(c0[np.newaxis], grid, replace(p, cutoff=cutoff), t_end)
        assert row.tobytes() == one[-1, 0].tobytes()
        assert one_live[0] == ok
        assert np.array_equal(one_trip, [trip_time], equal_nan=True)
        # both march in the bin layout; step, in storage order, is the reference
        ref, blowup_time, _ = step_loop(FourierField(grid, c0), replace(p, cutoff=cutoff), t_end)
        assert row.tobytes() == ref.coeffs.tobytes()
        assert blowup_time == (None if ok else trip_time)


def band(c: np.ndarray, grid: GridSpec, cutoff: int) -> tuple[np.ndarray, GridSpec]:
    """The coefficients |n| <= m of c on `grid`, m = min(cutoff, modes), and GridSpec(m)."""
    m = min(cutoff, grid.modes)
    return c[..., grid.modes - m : grid.modes + m + 1], GridSpec(m)


@PROPERTY
@given(block=blocks(1, 30, modes=st.sampled_from([8, 24, 64])), data=st.data(), sigma=st.sampled_from([1, -1]))
def test_projected_rates_are_the_full_rates_of_the_band(block, data, sigma):
    # a cutoff's rates are those of the band's rows under FULL on GridSpec(M)
    # bit for bit, and the masked evaluation on the grid's pads to rounding
    grid, c = block
    cutoff = data.draw(st.sampled_from([0, 1, grid.modes // 3, grid.modes - 1, grid.modes]))
    w, rate, raw = projected_rates(c, grid, FlowParams(sigma=sigma, cutoff=cutoff))
    assert w.tobytes() == np.array([project(FourierField(grid, row), cutoff).coeffs for row in c]).tobytes()
    rows, band_grid = band(c, grid, cutoff)
    _, band_rate, band_raw = projected_rates(rows, band_grid, FlowParams(sigma=sigma))
    assert [rate.tobytes(), *(v.tobytes() for v in raw.values())] == [
        band_rate.tobytes(), *(v.tobytes() for v in band_raw.values())
    ]
    masked_w, masked_rate, masked_raw = projected_rates_masked(c, grid, FlowParams(sigma=sigma, cutoff=cutoff))
    assert w.tobytes() == masked_w.tobytes()
    got, want = np.stack([rate, *raw.values()]), np.stack([masked_rate, *masked_raw.values()])
    if cutoff == 0:
        # P_0 u is a constant, whose flow turns its phase: every rate is 0 but
        # for rounding, of order |u_0|^6 to |u_0|^14
        scale = 1e-13 * (1.0 + np.abs(c[:, grid.modes]) ** 2) ** 7
        assert np.all(np.abs(got) <= scale) and np.all(np.abs(want) <= scale)
    else:
        # a term may vanish where its summands do not (one mode left in the
        # band zeroes N_x), so the rounding is taken against the largest value
        assert np.allclose(got, want, rtol=1e-11, atol=1e-11 * np.max(np.abs(want)))


@PROPERTY
@given(block=blocks(1, 1, modes=st.integers(1, 24)), data=st.data(), sigma=st.sampled_from([1, -1]))
def test_r2_truncation_curve_is_the_per_cutoff_loop(block, data, sigma):
    # each R_2(P_M u) on its own band's grid; the masked rows on the grid's
    # pads give the same curve to rounding
    grid, c = block
    m_list = sorted(data.draw(st.sets(st.integers(0, grid.modes + 2), min_size=1, max_size=5)))
    whole, terms = r2_rows(c[0], grid, sigma)
    want = [abs(r2_rows(*band(c[0], grid, M), sigma)[0] - whole) for M in m_list]
    curve = r2_truncation_curve(c[0], grid, m_list, sigma)
    assert curve.tobytes() == np.array(want).tobytes()
    scale = sum(abs(v) for v in terms.values())
    assert np.allclose(curve, r2_truncation_curve_masked(c[0], grid, m_list, sigma), rtol=1e-11, atol=1e-11 * scale)
