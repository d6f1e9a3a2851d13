"""Density triple, the pointwise identity, continuity laws and diagnostics."""

import numpy as np
import pytest

from qnls import FlowParams, GridSpec, continuity_residuals, eleele_residual, j0_diag
from qnls.densities import scale_rows
from qnls.flow import momentum_rows
from qnls.spectral import TWO_PI

from conftest import random_field
from oracles import densities, mode_field, n1_rows, sobolev_norm_sq, zero_field


class TestDensities:
    def test_plane_wave(self, grid8):
        for n in (1, 4):
            d = densities(mode_field(grid8, {n: 1.0}), sigma=1)
            assert np.allclose(d.N, 1.0)
            assert np.allclose(d.J, 2.0 * n)
            assert np.allclose(d.T, 4.0 * n * n + 4.0 / 3.0)

    def test_plane_wave_focusing(self, grid8):
        d = densities(mode_field(grid8, {2: 1.0}), sigma=-1)
        assert np.allclose(d.T, 16.0 - 4.0 / 3.0)

    def test_zero(self, grid8):
        d = densities(zero_field(grid8), sigma=1)
        assert np.all(d.N == 0) and np.all(d.J == 0) and np.all(d.T == 0)

    def test_real_field_zero_current(self, grid8):
        # u = 2cos(x): N = 4cos^2(x), J = 0
        u = mode_field(grid8, {1: 1.0, -1: 1.0})
        d = densities(u, sigma=1)
        x = TWO_PI * np.arange(grid8.phys_size) / grid8.phys_size
        assert np.max(np.abs(d.N - 4.0 * np.cos(x) ** 2)) < 1e-12
        assert np.max(np.abs(d.J)) < 1e-12

    def test_nonnegative_and_real(self, grid16):
        u = random_field(grid16, seed=1)
        d = densities(u, sigma=1)
        assert np.min(d.N) >= -1e-12
        assert d.J.dtype == np.float64 and d.T.dtype == np.float64

    def test_integrals_match_invariants(self, grid16):
        u = random_field(grid16, seed=2)
        d = densities(u, sigma=1)
        w = TWO_PI / u.grid.phys_size
        assert w * np.sum(d.N) == pytest.approx(sobolev_norm_sq(u, 0), rel=1e-10)
        assert w * np.sum(d.J) == pytest.approx(momentum_rows(u.coeffs, u.grid), rel=1e-10)


class TestEleele:
    def test_plane_wave(self, grid8):
        assert eleele_residual(mode_field(grid8, {3: 1.0})) < 1e-12

    def test_zero(self, grid8):
        assert eleele_residual(zero_field(grid8)) == 0.0

    def test_random_scaled(self):
        g = GridSpec(modes=16)
        for seed in range(10):
            u = random_field(g, seed=100 + seed)
            (scale,), _ = scale_rows(u.coeffs[np.newaxis], g)
            assert eleele_residual(u) < 1e-9 * scale

    def test_holds_for_non_solutions(self, grid16):
        # the identity is pointwise algebra: any field satisfies it
        u = random_field(grid16, seed=3, amp=5.0)
        (scale,), _ = scale_rows(u.coeffs[np.newaxis], grid16)
        assert eleele_residual(u) < 1e-9 * scale


class TestContinuity:
    @pytest.mark.parametrize("sigma", [1, -1])
    def test_plane_wave(self, grid8, sigma):
        r_mass, r_mom = continuity_residuals(
            mode_field(grid8, {2: 1.0}), FlowParams(sigma=sigma)
        )
        assert r_mass < 1e-12 and r_mom < 1e-11

    def test_zero(self, grid8):
        assert continuity_residuals(zero_field(grid8), FlowParams()) == (0.0, 0.0)

    @pytest.mark.parametrize("sigma", [1, -1])
    def test_random_scaled(self, sigma):
        g = GridSpec(modes=8)
        for seed in range(8):
            u = random_field(g, seed=200 + seed)
            r_mass, r_mom = continuity_residuals(u, FlowParams(sigma=sigma))
            _, (scale,) = scale_rows(u.coeffs[np.newaxis], g)
            assert r_mass < 1e-8 * scale
            assert r_mom < 1e-8 * scale

    def test_rejects_finite_cutoff(self, grid8):
        with pytest.raises(ValueError, match="FULL"):
            continuity_residuals(zero_field(grid8), FlowParams(cutoff=4))


class TestDiagnostics:
    def test_plane_wave(self, grid8):
        u = mode_field(grid8, {2: 1.0})
        p = FlowParams()
        assert abs(j0_diag(u, p)) < 1e-12
        assert abs(n1_rows(u.coeffs, grid8)) < 1e-12

    def test_j0_vanishes_randomly(self):
        # J0 = -int dJ/dx J^2 = -(1/3) int d/dx (J^3) = 0 for every field
        g = GridSpec(modes=16)
        p = FlowParams()
        for seed in range(10):
            u = random_field(g, seed=300 + seed)
            _, (scale,) = scale_rows(u.coeffs[np.newaxis], g)
            assert abs(j0_diag(u, p)) < 1e-9 * (1.0 + scale)

    def test_j0_real_field(self, grid8):
        # J vanishes identically for real fields
        u = mode_field(grid8, {1: 0.7, -1: 0.7})
        assert j0_diag(u, FlowParams()) == pytest.approx(0.0, abs=1e-14)

    def test_n1_generically_nonzero(self, grid16):
        u = random_field(grid16, seed=4)
        assert abs(n1_rows(u.coeffs, grid16)) > 1e-6

    def test_rejects_finite_cutoff(self, grid8):
        with pytest.raises(ValueError, match="FULL"):
            j0_diag(zero_field(grid8), FlowParams(cutoff=2))
