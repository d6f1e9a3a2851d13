"""Flow module: linear flow, right-hand side, RK4 steps, conserved quantities, guards."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from qnls import (
    BlowUpError,
    FlowParams,
    FourierField,
    GridSpec,
    evolve,
    field_from_modes,
    sample_mu,
    step,
)
from qnls.config import default_config
from qnls.experiments import smooth_random_field
from qnls import flow
from qnls.flow import FULL, _cut, _rhs_coeffs, hamiltonian_rows, linear_flow_rows, momentum_rows
from qnls.spectral import chunk_rows, from_bins, quintic_rows, to_bins

from conftest import random_field, step_loop
from oracles import galerkin_rhs, mode_field, project, quintic_convolution, sample_field, sobolev_norm_sq, zero_field


def mass(u):
    return sobolev_norm_sq(u, 0)


def invariants(u, sigma=1):
    """Mass, momentum and Hamiltonian of one field."""
    return mass(u), momentum_rows(u.coeffs, u.grid), hamiltonian_rows(u.coeffs, u.grid, sigma)


def smooth_field(grid):
    """The conservation experiment's default initial field at `grid`."""
    return FourierField(grid, smooth_random_field(grid, seed=42, amplitude=0.2, width=4.0, bias=0.25, bias_mode=2))


class TestLinearFlow:
    def test_t_zero(self, grid16):
        u = random_field(grid16, seed=1)
        assert np.array_equal(linear_flow_rows(u.coeffs, grid16, 0.0), u.coeffs)

    def test_plane_wave_phase(self, grid8):
        v = linear_flow_rows(field_from_modes(grid8, {2: 1.0}), grid8, 0.7)
        assert v[grid8.modes + 2] == pytest.approx(np.exp(-4j * 0.7), rel=1e-14)

    def test_block_rounds_as_the_per_mode_phase(self):
        # linear_invariance's ks.csv holds only ranks of the observables, so
        # a reordered phase product, which rounds differently, would change
        # no data file; this pins the rounding of c * e^{-i t n^2}
        cfg = default_config("linear_invariance")
        c = sample_mu(cfg.measure, range(50), cfg.grid)
        n = np.arange(-cfg.grid.modes, cfg.grid.modes + 1)
        for t in cfg.params["times"]:
            want = c * np.exp(-1j * t * n * n)
            assert linear_flow_rows(c, cfg.grid, t).tobytes() == want.tobytes(), t

    def test_group_law(self, grid16):
        c = random_field(grid16, seed=2).coeffs
        lhs = linear_flow_rows(linear_flow_rows(c, grid16, 0.3), grid16, 0.9)
        assert np.max(np.abs(lhs - linear_flow_rows(c, grid16, 1.2))) < 1e-12

    def test_hs_isometry(self, grid16):
        u = random_field(grid16, seed=3)
        v = FourierField(grid16, linear_flow_rows(u.coeffs, grid16, 2.1))
        for s in (0.0, 1.0, 1.75, 2.0):
            assert sobolev_norm_sq(v, s) == pytest.approx(
                sobolev_norm_sq(u, s), rel=1e-13
            )


class TestRhs:
    def test_zero(self, grid8):
        assert np.all(_rhs_coeffs(zero_field(grid8).coeffs, grid8, FlowParams(sigma=1)) == 0)

    def test_plane_wave(self, grid8):
        # |u|^4 u = u for e^{inx}, so du/dt = -i(n^2 + sigma) u
        p = FlowParams(sigma=1)
        for n in (1, 3):
            v = _rhs_coeffs(field_from_modes(grid8, {n: 1.0}), grid8, p)
            assert v[grid8.modes + n] == pytest.approx(-1j * (n * n + 1), rel=1e-13)

    def test_projector_annihilates(self, grid8):
        # pi_1 e^{i2x} = 0 kills the nonlinearity entirely, in the storage-order
        # reference that evolve's Galerkin rows are held to
        v = galerkin_rhs(field_from_modes(grid8, {2: 1.0}), grid8, 1, 1)
        assert v[grid8.modes + 2] == pytest.approx(-4j, rel=1e-14)
        others = np.delete(v, grid8.modes + 2)
        assert np.max(np.abs(others)) < 1e-15

    @pytest.mark.parametrize("sigma", [1, -1])
    def test_rows_and_blocks_match_the_convolution_oracle(self, grid8, sigma):
        # -i n^2 c - i sigma P_M(quintic_convolution(P_M u)) per row, from the
        # storage-order Galerkin reference; a block under one cutoff gives each
        # row's values bit for bit, and at FULL flow._rhs_coeffs gives them too
        cutoffs = [FULL, 5, 2, grid8.modes]
        fields = [random_field(grid8, seed=40 + i, amp=0.5, decay=0.2) for i in range(len(cutoffs))]
        coeffs = np.stack([u.coeffs for u in fields])
        full = [_rhs_coeffs(c, grid8, FlowParams(sigma=sigma)) for c in coeffs]
        for m in cutoffs:
            rows = [galerkin_rhs(c, grid8, sigma, m) for c in coeffs]
            block = galerkin_rhs(coeffs, grid8, sigma, m)
            if m is FULL:
                assert all(a.tobytes() == b.tobytes() for a, b in zip(rows, full))
            m = grid8.modes if m is FULL else m
            for i, u in enumerate(fields):
                want = -1j * grid8.n**2 * u.coeffs - 1j * sigma * project(quintic_convolution(project(u, m)), m).coeffs
                assert np.max(np.abs(rows[i] - want)) <= 1e-12 * np.max(np.abs(want)), (m, i)
                assert block[i].tobytes() == rows[i].tobytes(), (m, i)

    @pytest.mark.parametrize("cutoff", [9, -1])
    def test_cutoff_exceeds_grid(self, grid8, cutoff, monkeypatch):
        # a cutoff outside [0, modes] is named before any step is taken
        def no_step(*args):
            raise AssertionError("stepped")

        monkeypatch.setattr(flow, "_rk4_bins", no_step)
        c = np.stack([mode_field(grid8, {1: 0.5}).coeffs] * 2)
        with pytest.raises(ValueError, match=rf"cutoff {cutoff} is outside \[0, 8\]"):
            evolve(c, grid8, FlowParams(), 0.01, cutoffs=[FULL, cutoff])

    @pytest.mark.parametrize(
        "modes, cutoff", [(m, c) for m in (1, 8, 32) for c in dict.fromkeys((FULL, 0, 1, m - 1, m))]
    )
    def test_cut_is_one_bin_mask_per_pad(self, modes, cutoff):
        # the modes P_M drops, in the bin layout of the least size to_bins
        # takes and of the quintic pad the march steps on; None exactly where
        # P_M is the identity
        grid = GridSpec(modes=modes)
        sizes = (2 * modes + 1, grid.quintic_pad())
        if cutoff is FULL or cutoff == modes:
            assert all(_cut(modes, cutoff, size) is None for size in sizes)
            return
        drop = np.abs(grid.n) > cutoff
        for size in sizes:
            bins = _cut(modes, cutoff, size)
            assert np.array_equal(bins, to_bins(drop, modes, size)) and not bins.flags.writeable
            assert np.array_equal(from_bins(bins, modes), drop)


class TestStep:
    def test_zero_fixed_point(self, grid8):
        p = FlowParams(dt=1e-3)
        u = step(zero_field(grid8), p)
        assert np.all(u.coeffs == 0)

    def test_plane_wave_order(self, grid8):
        # exact solution e^{i(nx - (n^2+1)t)}; rk4 global error order in [3.7, 4.3]
        n = 2
        u0 = mode_field(grid8, {n: 1.0})
        t_end = 0.5
        errs = []
        dts = [4e-3, 2e-3, 1e-3, 5e-4]
        for dt in dts:
            p = FlowParams(sigma=1, dt=dt)
            u = u0
            for _ in range(int(round(t_end / dt))):
                u = step(u, p)
            exact = np.exp(-1j * (n * n + 1) * t_end)
            errs.append(abs(u.coeffs[grid8.modes + n] - exact))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        assert all(3.7 <= o <= 4.3 for o in orders), orders

    def test_single_step_mass_drift(self):
        g = GridSpec(modes=32)
        u = smooth_field(g)
        p = FlowParams(sigma=1, dt=1e-3)
        m0 = mass(u)
        m1 = mass(step(u, p))
        assert abs(m1 - m0) / m0 < 1e-10

    def test_guard_raises(self, grid8):
        u = mode_field(grid8, {1: 100.0})
        p = FlowParams(sigma=-1, dt=1e-3, blowup_threshold=10.0)
        with pytest.raises(BlowUpError):
            step(u, p)


class TestEvolve:
    def test_conservation_over_unit_time(self):
        # mass, momentum, Hamiltonian drift < 1e-8 (rk4, dt=1e-3, M_g=32, FULL)
        g = GridSpec(modes=32)
        u0 = smooth_field(g)
        p = FlowParams(sigma=1, dt=1e-3)
        ref = np.array(invariants(u0))
        got = np.array(invariants(FourierField(g, evolve(u0.coeffs[np.newaxis], g, p, 1.0, stride=1000)[1][-1, 0])))
        assert np.all(np.abs((got - ref) / ref) < 1e-8), (got - ref) / ref

    def test_lands_on_t_end(self, grid8):
        p = FlowParams(dt=0.3)
        times, states, _, _ = evolve(field_from_modes(grid8, {1: 0.5})[np.newaxis], grid8, p, 1.0)
        assert times[-1] == pytest.approx(1.0, abs=1e-15)
        # 3 full steps + remainder 0.1; coarse dt, so only O(dt^4) phase accuracy
        exact = 0.5 * np.exp(-1j * (1 + 0.5**4) * 1.0)
        assert abs(states[-1, 0, grid8.modes + 1] - exact) < 1e-3

    def test_observer_stride(self, grid8):
        c0 = field_from_modes(grid8, {1: 0.1})
        p = FlowParams(dt=0.1)
        times, states, _, _ = evolve(c0[np.newaxis], grid8, p, 1.0, stride=3)
        assert list(times) == pytest.approx([0.0, 0.3, 0.6, 0.9, 1.0])
        assert states.shape == (5, 1, 2 * grid8.modes + 1)
        assert states[0].tobytes() == c0.tobytes()
        assert states[-1].tobytes() == step_loop(FourierField(grid8, c0), p, 1.0)[0].coeffs.tobytes()

    def test_gauge_covariance(self, grid16):
        u0 = random_field(grid16, seed=5, amp=0.2, decay=0.3)
        p = FlowParams(sigma=1, dt=1e-3)
        a = evolve(u0.coeffs[np.newaxis], grid16, p, 0.05)[1][-1, 0]
        theta = 0.713
        b = evolve(u0.coeffs[np.newaxis] * np.exp(1j * theta), grid16, p, 0.05)[1][-1, 0]
        assert np.max(np.abs(b - a * np.exp(1j * theta))) < 1e-10

    def test_high_mode_stays_linear(self, grid8):
        # cutoff M=1: the nonlinearity sees only pi_1 u, so the n=2 coefficient
        # rotates by e^{-i n^2 t} up to integrator error
        c0 = field_from_modes(grid8, {1: 0.4, -1: 0.2j, 2: 0.3})
        p = FlowParams(sigma=1, dt=1e-3)
        got = evolve(c0[np.newaxis], grid8, p, 0.1, cutoffs=[1])[1][-1, 0, grid8.modes + 2]
        assert abs(got - 0.3 * np.exp(-4j * 0.1)) < 1e-10

    def test_split_mass_conservation(self, grid8):
        # mass of pi_M u and of (1 - pi_M) u are separately conserved
        u0 = random_field(grid8, seed=6, amp=0.3, decay=0.2)
        M = 3
        p = FlowParams(sigma=1, dt=5e-4)
        low0 = mass(project(u0, M))
        tot0 = mass(u0)
        u1 = FourierField(grid8, evolve(u0.coeffs[np.newaxis], grid8, p, 0.2, cutoffs=[M])[1][-1, 0])
        low1 = mass(project(u1, M))
        tot1 = mass(u1)
        assert abs(low1 - low0) / low0 < 1e-9
        assert abs((tot1 - tot0) - (low1 - low0)) < 1e-8 * tot0

    def test_focusing_guard_records_time(self):
        # 6cos(x) on a 32-mode grid trips the H^1 guard at t = 0.0065.  Not
        # 4cos(x): whether RK4 trips on it before t = 1 hangs on the rounding
        # of the transforms
        g = GridSpec(modes=32)
        c0 = field_from_modes(g, {1: 3.0, -1: 3.0})
        p = FlowParams(sigma=-1, dt=5e-4, blowup_threshold=1e3)
        _, _, live, trip_times = evolve(c0[np.newaxis], g, p, 1.0)
        assert not live[0] and trip_times[0] == pytest.approx(0.0065)

    def test_momentum_plane_wave(self, grid8):
        u = mode_field(grid8, {3: 1.0})
        assert invariants(u) == pytest.approx((2 * np.pi, 12 * np.pi, 9 * np.pi + np.pi / 3))

    def test_invariants_zero_field(self, grid8):
        assert invariants(zero_field(grid8), -1) == (0.0, 0.0, 0.0)


class TestEvolveBlock:
    """evolve's rows and records against conftest.step_loop, bit for bit: a
    loop of step() on FULL rows, of oracles.galerkin_step on truncated ones."""

    @pytest.mark.parametrize("cutoffs", ["full", "half", "mixed"])
    @pytest.mark.parametrize("sigma", [1, -1])
    @pytest.mark.parametrize("modes", [8, 32, 128], ids=["pad49", "pad196", "pad770"])
    def test_rows_are_single_member_runs(self, modes, sigma, cutoffs):
        # _march steps in the quintic pad's bin layout, the step loop in
        # storage order:
        # rows with -0.0 parts, a one-mode row and a zero row, at each cutoff
        # pattern (mixed: FULL, 0, 1, M-1, M), to a partial last step
        grid = GridSpec(modes=modes)
        assert grid.quintic_pad() == {8: 49, 32: 196, 128: 770}[modes]
        rng = np.random.default_rng(modes)
        n = grid.n
        block = 0.5 * (rng.standard_normal((5, n.size)) + 1j * rng.standard_normal((5, n.size))) / (1.0 + n * n)
        block.real[rng.random(block.shape) < 0.2] = -0.0
        block.imag[rng.random(block.shape) < 0.2] = -0.0
        block[3] = mode_field(grid, {1: complex(0.8, -0.0)}).coeffs
        block[4] = -0.0
        cutoffs = {"full": [FULL] * 5, "half": [modes // 2] * 5, "mixed": [FULL, 0, 1, modes - 1, modes]}[cutoffs]
        p = FlowParams(sigma=sigma, dt=1e-4)
        t_end = 12.5 * p.dt
        _, (_, c), live, trip_times = evolve(block, grid, p, t_end, cutoffs=cutoffs)
        assert live.all() and np.isnan(trip_times).all()
        for i, (row, c0, m) in enumerate(zip(c, block, cutoffs)):
            ref, blowup_time, _ = step_loop(FourierField(grid, c0), p, t_end, cutoff=m)
            assert blowup_time is None
            assert row.tobytes() == ref.coeffs.tobytes(), i

    def test_rows_take_their_own_cutoffs(self, grid16):
        # FULL, cutoff = modes (the identity projector) and two finite cutoffs
        # in one block, each row against a step_loop at its own cutoff
        cutoffs = [FULL, grid16.modes, 3, 10]
        u0 = random_field(grid16, seed=7, amp=0.4, decay=0.2)
        p = FlowParams(sigma=1, dt=1e-3)
        t_end = 0.0125
        block = np.tile(u0.coeffs, (len(cutoffs), 1))
        _, (_, c), live, _ = evolve(block, grid16, p, t_end, cutoffs=cutoffs)
        assert live.all()
        for row, m in zip(c, cutoffs):
            ref, _, _ = step_loop(u0, p, t_end, cutoff=m)
            assert row.tobytes() == ref.coeffs.tobytes()
        assert c[0].tobytes() == c[1].tobytes()
        assert c[2].tobytes() != c[3].tobytes()

    def test_tripped_row_is_frozen_and_others_run_on(self):
        # member 48 at this seed is unstable at dt = 1e-3 and trips the H^1
        # guard at t = 0.002; its neighbours run to t_end
        cfg = default_config("transport_mc")
        spec = replace(cfg.measure, base_seed=cfg.measure.base_seed + 25)
        members = [sample_field(spec, i, cfg.grid) for i in (46, 47, 48)]
        _, (_, c), live, trip_times = evolve(np.stack([u.coeffs for u in members]), cfg.grid, cfg.flow, 0.05)
        assert live.tolist() == [True, True, False]
        refs = [step_loop(u, cfg.flow, 0.05) for u in members]
        for row, (ref, _, _) in zip(c, refs):
            assert row.tobytes() == ref.coeffs.tobytes()
        assert [ref[1] for ref in refs] == [None, None, pytest.approx(0.002)]
        # the trip time is the step loop's, bit for bit; NaN for the rest
        assert trip_times[2] == refs[2][1]
        assert np.isnan(trip_times[[0, 1]]).all()

    def test_rows_past_one_chunk_are_their_step_loops(self):
        # the block runs five rows past the step's first row chunk, with mixed
        # cutoffs; member 48 at this seed trips the H^1 guard at t = 0.002,
        # and it sits in the second chunk
        cfg = default_config("transport_mc")
        grid = cfg.grid
        spec = replace(cfg.measure, base_seed=cfg.measure.base_seed + 25)
        per_chunk = chunk_rows(grid.quintic_pad())
        n = per_chunk + 5
        indices = list(range(n))
        indices[per_chunk + 2] = 48
        cutoffs = [[FULL, grid.modes, 3, 10][i % 4] for i in range(n)]
        cutoffs[per_chunk + 2] = grid.modes
        members = [sample_field(spec, i, grid) for i in indices]
        t_end = 0.0125
        _, (_, c), live, trip_times = evolve(
            np.stack([u.coeffs for u in members]), grid, cfg.flow, t_end, cutoffs=cutoffs
        )
        refs = [step_loop(u, cfg.flow, t_end, cutoff=m) for u, m in zip(members, cutoffs)]
        assert refs[per_chunk + 2][1] == pytest.approx(0.002)
        for i, (ref, blowup_time, _) in enumerate(refs):
            assert c[i].tobytes() == ref.coeffs.tobytes(), i
            assert live[i] == (blowup_time is None), i
            if blowup_time is None:
                assert np.isnan(trip_times[i]), i
            else:
                assert trip_times[i] == blowup_time, i

    @pytest.mark.parametrize(
        "amp, p, why",
        [
            (3.0, FlowParams(dt=1e-3, blowup_threshold=10.0), r"H\^1 guard"),
            (1e80, FlowParams(dt=1e-3, blowup_threshold=1e300), "representable"),
        ],
        ids=["guard", "overflow"],
    )
    def test_failing_row_is_frozen_where_step_raises(self, grid8, amp, p, why):
        # the guard trips before the first step, or |u|^4 u overflows in it
        tame, bad = mode_field(grid8, {1: 0.5}), mode_field(grid8, {1: amp})
        with pytest.raises(BlowUpError, match=why):
            step(bad, p)
        block = np.stack([tame.coeffs, bad.coeffs])
        _, (_, c), live, trip_times = evolve(block, grid8, p, 0.01)
        assert live.tolist() == [True, False]
        assert c[0].tobytes() == step_loop(tame, p, 0.01)[0].coeffs.tobytes()
        assert c[1].tobytes() == bad.coeffs.tobytes()
        assert np.isnan(trip_times[0]) and trip_times[1] == 0.0
        assert evolve(bad.coeffs[np.newaxis], grid8, p, 0.01)[3][0] == step_loop(bad, p, 0.01)[1] == 0.0

    def test_overflowing_row_leaves_live_without_a_warning(self, grid8):
        # |u|^4 u of the 1e78 row overflows in the first stage; the step holds
        # the np.errstate, and the finiteness check takes the row out
        block = np.stack([random_field(grid8, seed=s, amp=0.3, decay=0.3).coeffs for s in range(3)])
        block[1] *= 1e78
        p = FlowParams(dt=1e-3, blowup_threshold=1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, (_, c), live, trip_times = evolve(block, grid8, p, 0.005)
        assert live.tolist() == [True, False, True]
        assert c[1].tobytes() == block[1].tobytes() and trip_times[1] == 0.0

    def test_the_kernel_alone_warns_on_that_row(self, grid8):
        # quintic_rows holds no np.errstate: its caller owns the overflow state
        row = 1e78 * random_field(grid8, seed=1, amp=0.3, decay=0.3).coeffs
        with pytest.warns(RuntimeWarning, match="overflow"):
            quintic_rows(row, grid8)

    def test_trip_in_the_partial_step(self, grid8):
        # a threshold between the H^1 norms of the last two full-step states
        # trips the guard before the partial step: the last good state is
        # n_steps * dt, not t_end
        u0 = mode_field(grid8, {1: 1.2, -1: 1.2})
        p = FlowParams(sigma=-1, dt=1e-3, blowup_threshold=1e300)
        t_end, n_steps = 0.0205, 20
        u = u0
        h1 = []
        for _ in range(n_steps):
            u = step(u, p)
            h1.append(sobolev_norm_sq(u, 1.0) ** 0.5)
        assert h1[-2] < h1[-1] and max(h1[:-1]) == h1[-2]
        p = replace(p, blowup_threshold=(h1[-2] + h1[-1]) / 2)
        ref, blowup_time, _ = step_loop(u0, p, t_end)
        assert blowup_time == n_steps * p.dt
        _, (_, c), live, trip_times = evolve(u0.coeffs[None], grid8, p, t_end)
        assert not live[0] and trip_times[0] == blowup_time
        assert c[0].tobytes() == ref.coeffs.tobytes()
        times, _, live, trip_times = evolve(u0.coeffs[None], grid8, p, t_end, stride=7)
        assert not live[0] and trip_times[0] == blowup_time
        assert list(times) == step_loop(u0, p, t_end, stride=7)[2]

    def test_last_step_non_finite_leaves_and_over_guard_stays_live(self, grid8):
        # at dt = 0.05 RK4 is unstable on both rows.  2.1 e^{0x} is finite with
        # H^1 <= 245 for six steps and overflows in the seventh; 0.25 e^{8ix},
        # linear under cutoff 0, grows by |R(3.2i)| = 2.27 a step and passes
        # the guard 1e3 only in the seventh.  The third row stays small.
        p = FlowParams(dt=0.05, blowup_threshold=1e3)
        t_end, n_steps = 0.35, 7
        members = [mode_field(grid8, {0: 2.1}), mode_field(grid8, {8: 0.25}), mode_field(grid8, {1: 0.1})]
        cutoffs = [FULL, 0, FULL]
        refs = [step_loop(u, p, t_end, cutoff=m) for u, m in zip(members, cutoffs)]
        assert [blowup_time for _, blowup_time, _ in refs] == [(n_steps - 1) * p.dt, None, None]
        with pytest.raises(BlowUpError, match="representable"):
            step(refs[0][0], p)
        assert sobolev_norm_sq(refs[1][0], 1.0) ** 0.5 >= p.blowup_threshold
        _, (_, c), live, trip_times = evolve(
            np.stack([u.coeffs for u in members]), grid8, p, t_end, cutoffs=cutoffs
        )
        assert live.tolist() == [False, True, True]
        assert trip_times[0] == refs[0][1] and np.isnan(trip_times[1:]).all()
        for row, (ref, _, _) in zip(c, refs):
            assert row.tobytes() == ref.coeffs.tobytes()

    @pytest.mark.parametrize("stride", [1, 3, 1000])
    @pytest.mark.parametrize("t_end", [0.01234, 0.012, 0.6], ids=["partial", "whole", "trips"])
    def test_evolve_records_where_the_step_loop_does(self, stride, t_end):
        # 4.4cos(x) trips the guard at t = 0.015 at dt = 5e-4, after t_end of
        # the partial and whole cases
        g = GridSpec(modes=32)
        u0 = mode_field(g, {1: 2.2, -1: 2.2})
        p = FlowParams(sigma=-1, dt=5e-4)
        got_times, states, live, trip_times = evolve(u0.coeffs[np.newaxis], g, p, t_end, stride=stride)
        ref, blowup_time, times = step_loop(u0, p, t_end, stride=stride)
        assert list(got_times) == times
        assert states.shape == (len(times), 1, 2 * g.modes + 1)
        assert (blowup_time is not None) == (t_end == 0.6)
        if blowup_time is None:
            assert live[0] and np.isnan(trip_times[0])
        else:
            assert not live[0] and trip_times[0] == blowup_time
        assert states[-1, 0].tobytes() == ref.coeffs.tobytes()


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            FlowParams(sigma=0)
        with pytest.raises(ValueError):
            FlowParams(dt=0.0)
        with pytest.raises(ValueError):
            FlowParams(blowup_threshold=-1.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("dt", float("nan")),
            ("dt", float("inf")),
            ("dt", -float("inf")),
            ("blowup_threshold", float("nan")),  # would trip every row before its first step
        ],
    )
    def test_non_finite_params_are_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            FlowParams(**{field: value})

    def test_an_infinite_guard_is_no_guard(self):
        assert FlowParams(blowup_threshold=float("inf")).blowup_threshold == float("inf")

    def test_a_row_is_rejected_with_its_shape(self, grid8):
        # evolve steps (B, 2M+1) blocks; a one-field run is a one-row block
        c = mode_field(grid8, {1: 0.5}).coeffs
        with pytest.raises(ValueError, match=r"\(17,\)"):
            evolve(c, grid8, FlowParams(), 0.01)

    @pytest.mark.parametrize(
        "cutoffs, shape",
        [([FULL], r"\(1,\)"), ([FULL] * 4, r"\(4,\)"), (5, r"\(\)")],
        ids=["short_cutoffs", "long_cutoffs", "scalar_cutoffs"],
    )
    def test_cutoffs_of_another_length_are_rejected(self, cutoffs, shape):
        # one cutoff per row: a list of another length, or a scalar, which
        # len() rejects with a bare TypeError, is a ValueError that names the
        # block's row count
        c = random_field(GridSpec(modes=4), seed=0).coeffs[np.newaxis].repeat(3, axis=0)
        with pytest.raises(ValueError, match=f"cutoffs of shape {shape} for a block of 3 rows"):
            evolve(c, GridSpec(modes=4), FlowParams(), 0.01, cutoffs=cutoffs)

    @pytest.mark.parametrize("t_end", [float("nan"), float("inf"), 0.0, -1.0])
    def test_bad_t_end_is_rejected(self, grid8, t_end):
        # NaN has no whole step count and inf overflows one: both must fail
        # with the field's name, before any step
        c = mode_field(grid8, {1: 0.5}).coeffs
        with pytest.raises(ValueError, match="t_end"):
            evolve(c[np.newaxis], grid8, FlowParams(), t_end)
        with pytest.raises(ValueError, match="t_end"):
            evolve(c[np.newaxis], grid8, FlowParams(), t_end, stride=1)
