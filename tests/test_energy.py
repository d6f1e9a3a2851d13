"""Modified energy E_2, its first variation, flow derivative and estimates."""

import numpy as np
import pytest

from qnls import (
    FlowParams,
    FourierField,
    GridSpec,
    MeasureSpec,
    e2,
    e2_directional,
    evolve,
    field_from_modes,
    r2_truncation_curve,
    sample_mu,
    smoothing_bound,
)
from qnls.config import default_config
from qnls.energy import DEFAULT_M0, R2_TERMS, full_breakdown, h2_directional, r2_rows, smoothing_bound_rows
from qnls.spectral import TWO_PI, chunk_rows, sobolev_sq_rows, synthesize

from conftest import random_field
from oracles import derivative, f2, lp_norm, mode_field, project, r2_lipschitz_probe, sample_field, sobolev_norm_sq, zero_field


class TestR2:
    def test_zero(self, grid8):
        total, terms = r2_rows(zero_field(grid8).coeffs, grid8, sigma=1)
        assert total == 0.0
        assert all(v == 0.0 for v in terms.values())

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_plane_wave_terms(self, grid8, n):
        # by hand: Re int u_xx conj(u)|u|^4 = -2 pi n^2, int N Nx^2 = 0,
        # int N J^2 = 8 pi n^2, int N^5 = 2 pi
        total, terms = r2_rows(field_from_modes(grid8, {n: 1.0}), grid8, sigma=1)
        assert terms["curv_quintic"] == pytest.approx(4 * np.pi * n * n, rel=1e-12)
        assert terms["grad_density"] == pytest.approx(0.0, abs=1e-12)
        assert terms["current_sq"] == pytest.approx(4 * np.pi * n * n, rel=1e-12)
        assert terms["density_fifth"] == pytest.approx(8 * np.pi / 15, rel=1e-12)
        assert total == pytest.approx(8 * np.pi * n * n + 8 * np.pi / 15, rel=1e-12)

    def test_finite_on_rough_sample(self):
        # samples of mu_2 live below H^2 but R_2 only needs H^1-type norms
        grid = GridSpec(modes=64)
        total, _ = r2_rows(sample_mu(MeasureSpec(s=2.0, M=64, base_seed=5), [0], grid)[0], grid, sigma=1)
        assert np.isfinite(total)

    def test_sigma_placement(self, grid8):
        # sigma multiplies the first three terms; int N^5 keeps its sign
        u = random_field(grid8, seed=1, amp=0.5)
        _, plus = r2_rows(u.coeffs, grid8, sigma=1)
        _, minus = r2_rows(u.coeffs, grid8, sigma=-1)
        for name in ("curv_quintic", "grad_density", "current_sq"):
            assert minus[name] == pytest.approx(-plus[name], rel=1e-13)
        assert minus["density_fifth"] == pytest.approx(plus["density_fifth"], rel=1e-13)


class TestE2:
    def test_zero(self, grid8):
        b = e2(zero_field(grid8))
        assert b["e2"] == 0.0 and b["h2_sq"] == 0.0 and b["r2"] == 0.0

    def test_breakdown_consistency(self, grid16):
        u = random_field(grid16, seed=2, amp=0.5)
        b = e2(u, sigma=1)
        assert b["e2"] == pytest.approx(b["h2_sq"] + b["r2"], rel=1e-14)
        assert b["r2"] == pytest.approx(sum(b[name] for name, _, _ in R2_TERMS), rel=1e-14)

    def test_keys_are_breakdown_rows_without_f2_and_bound(self, grid8):
        u = random_field(grid8, seed=2, amp=0.5)
        want = [k for k in full_breakdown(u, FlowParams()) if k not in ("f2", "bound")]
        assert list(e2(u)) == want == ["h2_sq", "r2", "e2", *(name for name, _, _ in R2_TERMS)]

    def test_plane_wave(self, grid8):
        b = e2(mode_field(grid8, {1: 1.0}), sigma=1)
        assert b["h2_sq"] == pytest.approx(8 * np.pi, rel=1e-13)
        assert b["e2"] == pytest.approx(8 * np.pi + 8 * np.pi + 8 * np.pi / 15, rel=1e-12)

    def test_gauge_invariance(self, grid16):
        u = random_field(grid16, seed=3, amp=0.4)
        rot = FourierField(grid16, u.coeffs * np.exp(0.917j))
        assert e2(rot, 1)["e2"] == pytest.approx(e2(u, 1)["e2"], rel=1e-12)

    def test_translation_invariance(self, grid16):
        # u(x - a) has coefficients e^{-ina} u_n; grid-commensurate a
        u = random_field(grid16, seed=4, amp=0.4)
        a = 2 * np.pi * 3 / grid16.pad_for_degree(2)
        shifted = FourierField(grid16, u.coeffs * np.exp(-1j * grid16.n * a))
        assert e2(shifted, 1)["e2"] == pytest.approx(e2(u, 1)["e2"], rel=1e-10)


def _fd_directional(u, v, sigma, eps=1e-5):
    """Richardson-extrapolated central difference of E_2 along v."""

    def central(h):
        up = FourierField(u.grid, u.coeffs + h * v.coeffs)
        um = FourierField(u.grid, u.coeffs - h * v.coeffs)
        return (e2(up, sigma)["e2"] - e2(um, sigma)["e2"]) / (2 * h)

    d1, d2 = central(eps), central(eps / 2)
    return (4 * d2 - d1) / 3


class TestDirectional:
    def test_zero_direction(self, grid8):
        u = random_field(grid8, seed=5)
        assert e2_directional(u, zero_field(grid8), 1) == 0.0

    def test_quadratic_homogeneity(self, grid16):
        # the H^2 part is quadratic: d/de ||u + e u||^2 at 0 equals 2 ||u||^2
        u = random_field(grid16, seed=6)
        assert h2_directional(u.coeffs, u.coeffs, u.grid) == pytest.approx(
            2 * sobolev_norm_sq(u, 2), rel=1e-13
        )

    @pytest.mark.parametrize("sigma", [1, -1])
    def test_matches_finite_differences(self, sigma):
        g = GridSpec(modes=12)
        rng = np.random.default_rng(7)
        for trial in range(100):
            u = random_field(g, seed=1000 + trial, amp=0.6)
            v = random_field(g, seed=5000 + trial, amp=0.6)
            an = e2_directional(u, v, sigma)
            fd = _fd_directional(u, v, sigma)
            assert abs(an - fd) <= 1e-6 * max(1.0, abs(an)), (trial, an, fd)

    def test_grid_mismatch(self, grid8, grid16):
        with pytest.raises(ValueError, match="grids"):
            e2_directional(zero_field(grid8), zero_field(grid16), 1)


class TestF2:
    def test_zero(self, grid8):
        assert f2(zero_field(grid8), FlowParams()) == 0.0

    def test_plane_wave_invariant_profile(self, grid8):
        # plane waves evolve by a phase, and E_2 is gauge-invariant
        u = mode_field(grid8, {2: 1.0})
        p = FlowParams(sigma=1)
        scale = 1.0 + abs(e2(u, 1)["e2"])
        assert abs(f2(u, p)) < 1e-9 * scale

    @pytest.mark.parametrize("sigma", [1, -1])
    @pytest.mark.parametrize("cutoff", [None, 8])
    def test_matches_trajectory_derivative(self, sigma, cutoff):
        # 4th-order FD of t -> E_2(P_M u(t)) along an rk4 trajectory
        g = GridSpec(modes=16)
        c0 = sample_mu(MeasureSpec(s=2.0, M=16, base_seed=11), [3], g)[0]
        dt = 2e-4
        p = FlowParams(sigma=sigma, cutoff=cutoff, dt=dt)
        states = [FourierField(g, c) for c in evolve(c0[np.newaxis], g, p, 6 * dt, stride=1)[1][:, 0]]
        w = [project(s, cutoff) if cutoff else s for s in states]
        energies = [e2(s, sigma)["e2"] for s in w]
        for k in (2, 3):
            fd = (
                -energies[k + 2]
                + 8 * energies[k + 1]
                - 8 * energies[k - 1]
                + energies[k - 2]
            ) / (12 * dt)
            an = f2(states[k], p)
            assert abs(an - fd) <= 1e-5 * max(abs(an), abs(fd)), (sigma, cutoff, an, fd)

    def test_full_breakdown_fields(self, grid16):
        u = random_field(grid16, seed=8, amp=0.3)
        b = full_breakdown(u, FlowParams(sigma=1))
        assert b["f2"] is not None and b["bound"] is not None
        assert b["bound"] >= 1.0


class TestBounds:
    def test_bound_zero_field(self, grid8):
        assert smoothing_bound(zero_field(grid8)) == 1.0
        b = full_breakdown(zero_field(grid8), FlowParams())
        assert b["f2"] == 0.0 and b["bound"] == 1.0

    def test_bound_powers_are_python_float_powers(self):
        # the norms are row sums, their powers Python float powers: numpy's
        # array ** rounds some of these powers differently in the last bit
        grid = GridSpec(modes=32)
        for idx in range(64):
            u = sample_field(MeasureSpec(s=2.0, M=32, base_seed=41), idx, grid)
            h1 = sobolev_norm_sq(u, 1.0) ** 0.5
            l4 = lp_norm(derivative(u, 1), 4)
            assert smoothing_bound(u) == (1.0 + h1**DEFAULT_M0) * (1.0 + l4**4), idx

    def test_bound_is_exact_on_the_sweep_ensemble(self):
        # |u_x|^4 has degree 4, so its sum on the degree-4 pad is the integral:
        # a quadrature on twice that pad agrees to rounding on smoothing_sweep's
        # mu_2 members at M = 128, where a sum on 2M+1 points aliases by ~1e-3
        cfg = default_config("smoothing_sweep")
        grid = cfg.grid
        assert grid.modes == max(cfg.params["m_sweep"]) == 128
        c = sample_mu(cfg.measure, range(cfg.run.ensemble_size), grid)
        size = 2 * grid.pad_for_degree(4)
        ux = synthesize(c * (1j * grid.n), grid.modes, size)
        l4_pow4 = TWO_PI / size * np.sum(np.abs(ux) ** 4, axis=-1)
        want = (1.0 + sobolev_sq_rows(c, grid, 1.0) ** (DEFAULT_M0 / 2)) * (1.0 + l4_pow4)
        assert np.max(np.abs(smoothing_bound_rows(c, grid) / want - 1.0)) < 1e-13

    def test_plane_wave_ratio_zero(self, grid8):
        b = full_breakdown(mode_field(grid8, {1: 1.0}), FlowParams())
        assert abs(b["f2"]) / b["bound"] < 1e-12

    def test_lipschitz_probe_identical(self, grid8):
        u = random_field(grid8, seed=9)
        assert r2_lipschitz_probe(u, u) is None

    def test_lipschitz_probe_vs_zero(self, grid8):
        u = random_field(grid8, seed=10, amp=0.5)
        val = r2_lipschitz_probe(u, zero_field(grid8), sigma=1)
        assert val is not None and np.isfinite(val) and val > 0

    def test_lipschitz_probe_bounded(self):
        g = GridSpec(modes=16)
        vals = []
        for seed in range(50):
            u = random_field(g, seed=2000 + seed, amp=0.4)
            v = random_field(g, seed=3000 + seed, amp=0.4)
            vals.append(r2_lipschitz_probe(u, v, sigma=1))
        assert np.isfinite(vals).all()

    def test_probe_grid_stable(self):
        # the integrals are alias-free, so refining the grid is inert
        g1 = GridSpec(modes=16)
        u1 = random_field(g1, seed=4000, amp=0.4)
        v1 = random_field(g1, seed=4001, amp=0.4)
        g2 = GridSpec(modes=32)
        pad = np.zeros(2 * 32 + 1, dtype=complex)
        pad[16:49] = u1.coeffs
        u2 = FourierField(g2, pad)
        pad2 = np.zeros(2 * 32 + 1, dtype=complex)
        pad2[16:49] = v1.coeffs
        v2 = FourierField(g2, pad2)
        p1 = r2_lipschitz_probe(u1, v1)
        p2 = r2_lipschitz_probe(u2, v2)
        assert p1 == pytest.approx(p2, rel=1e-10)


class TestTruncationCurve:
    def test_supported_field(self, grid8):
        c = field_from_modes(grid8, {4: 0.5, -2: 0.3, 0: 1.0})
        curve = r2_truncation_curve(c, grid8, [4, 6, 8])
        assert np.max(curve) < 1e-12

    def test_zero(self, grid8):
        assert np.all(r2_truncation_curve(zero_field(grid8).coeffs, grid8, [2, 4]) == 0.0)

    def test_requires_increasing(self, grid8):
        with pytest.raises(ValueError, match="increasing"):
            r2_truncation_curve(zero_field(grid8).coeffs, grid8, [4, 4])

    def test_block_rows_are_their_one_row_curves(self):
        # two rows past one pad chunk, each bit for bit its one-row curve
        grid = GridSpec(modes=32)
        n = chunk_rows(grid.pad_for_degree(10)) + 2
        c = sample_mu(MeasureSpec(s=2.0, M=32, base_seed=17), range(n), grid)
        curves = r2_truncation_curve(c, grid, [4, 8, 16, 32], -1)
        assert curves.shape == (n, 4)
        for row, curve in zip(c, curves):
            assert curve.tobytes() == r2_truncation_curve(row, grid, [4, 8, 16, 32], -1).tobytes()

    def test_mu2_sample_decreases(self):
        grid = GridSpec(modes=64)
        c = sample_mu(MeasureSpec(s=2.0, M=64, base_seed=17), [1], grid)[0]
        curve = r2_truncation_curve(c, grid, [8, 16, 32, 64])
        assert curve[-1] < 1e-12  # final M equals the sample cutoff
        assert curve[0] > curve[-2]


class TestCutoffFlatness:
    def test_sigma_placement_oracle(self):
        # the coefficient-validity oracle in miniature: with the shipped sign
        # placement, max |f2|/bound over rough samples stays flat between a
        # shallow and a deep cutoff for sigma = -1; flipping the sign of the
        # density corrections makes it grow with the cutoff
        spec = MeasureSpec(s=2.0, M=256, base_seed=29)
        grid = GridSpec(modes=256)
        flipped = {"grad_density": -1.0, "current_sq": -1.0}
        ratios = {"shipped": {}, "flipped": {}}
        for M in (16, 256):
            p = FlowParams(sigma=-1, cutoff=M)
            good, bad = 0.0, 0.0
            for idx in range(8):
                u = sample_field(spec, idx, grid)
                w = project(u, M)
                b = smoothing_bound(w)
                good = max(good, abs(f2(u, p)) / b)
                bad = max(bad, abs(f2(u, p, overrides=flipped)) / b)
            ratios["shipped"][M] = good
            ratios["flipped"][M] = bad
        assert ratios["shipped"][256] < 2.0 * ratios["shipped"][16]
        assert ratios["flipped"][256] > 2.0 * ratios["flipped"][16]

