"""Gaussian sampler moments, determinism, KS machinery and tail ratios."""

import json

import numpy as np
import pytest
from scipy.special import ndtri

from qnls import (
    FourierField,
    GridSpec,
    MeasureSpec,
    e2,
    ks_critical_value,
    ks_statistic,
    observables,
    sample_mu,
    sobolev_sq_rows,
    tail_ratio,
)
from qnls.flow import linear_flow_rows
from qnls.measure import _standard_normals, derive_seed, write_ensemble
from qnls.spectral import chunk_rows

from oracles import mode_field, sample_field, sample_member, zero_field


class TestSampler:
    def test_deterministic(self):
        spec = MeasureSpec(s=2.0, M=16, base_seed=77)
        a = sample_mu(spec, [5], GridSpec(modes=16))
        b = sample_mu(spec, [5], GridSpec(modes=16))
        assert np.array_equal(a, b)

    def test_distinct_indices_differ(self):
        spec = MeasureSpec(s=2.0, M=16, base_seed=77)
        a, b = sample_mu(spec, [0, 1], GridSpec(modes=16))
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize(
        "s, M, modes, base_seed",
        [(2.0, 32, 32, 20260810), (1.5, 8, 12, 3), (3.0, 0, 1, 123), (2.5, 64, 70, 17)],
    )
    def test_block_rows_are_the_one_member_draws(self, s, M, modes, base_seed):
        # out of order, with gaps, and past the first chunk of the transform,
        # so each row is also independent of its place in the block
        spec = MeasureSpec(s=s, M=M, base_seed=base_seed)
        grid = GridSpec(modes=modes)
        per_chunk = chunk_rows(2 * (2 * M + 1))
        indices = [per_chunk + 7, 3, 0, 2 * per_chunk, 5, per_chunk - 1, per_chunk, 1]
        indices += range(40 + per_chunk, 40, -1)
        block = sample_mu(spec, indices, grid)
        assert block.shape == (len(indices), 2 * modes + 1)
        for row, i in zip(block, indices):
            assert row.tobytes() == sample_member(spec, i, grid).tobytes(), i

    def test_seed_derivation_spreads(self):
        seeds = {derive_seed(1, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_grid_too_small(self):
        spec = MeasureSpec(s=2.0, M=16, base_seed=1)
        with pytest.raises(ValueError, match="cutoff"):
            sample_mu(spec, [0], GridSpec(modes=8))

    def test_single_mode_second_moment(self):
        # M = 0: one complex gaussian with E|u_0|^2 = 2
        spec = MeasureSpec(s=3.0, M=0, base_seed=123)
        vals = np.abs(sample_mu(spec, range(10_000), GridSpec(modes=1))[:, 1]) ** 2
        se = np.std(vals) / np.sqrt(len(vals))
        assert abs(np.mean(vals) - 2.0) < 3 * se

    def test_mean_mass_s2_m1(self):
        # E||u||_L2^2 = 2 pi sum 2/(1+n^2)^2 over |n|<=1 = 6 pi
        spec = MeasureSpec(s=2.0, M=1, base_seed=321)
        grid = GridSpec(modes=1)
        vals = sobolev_sq_rows(sample_mu(spec, range(10_000), grid), grid, 0.0)
        se = np.std(vals) / np.sqrt(len(vals))
        assert abs(np.mean(vals) - 6 * np.pi) < 3 * se

    def test_per_mode_moments(self):
        spec = MeasureSpec(s=2.0, M=8, base_seed=555)
        samples = sample_mu(spec, range(10_000), GridSpec(modes=8))
        n = np.arange(-8, 9)
        expected = 2.0 / (1.0 + n * n) ** 2
        for k in range(17):
            vals = np.abs(samples[:, k]) ** 2
            se = np.std(vals) / np.sqrt(len(vals))
            assert abs(np.mean(vals) - expected[k]) < 4 * se

    def test_rotation_invariance_re_im(self):
        # real and imaginary parts of each coefficient share one law
        spec = MeasureSpec(s=2.0, M=4, base_seed=999)
        samples = sample_mu(spec, range(1000), GridSpec(modes=4))
        crit = ks_critical_value(1000, 1000)
        for k in (0, 4, 8):
            stat = ks_statistic(samples[:, k].real, samples[:, k].imag)
            assert stat < crit

    def test_top_integer_draw_gives_a_finite_normal(self):
        # (k + 0.5) / 2^53 rounds to 1.0 only at k = 2^53 - 1, where ndtri is
        # +inf; every other draw keeps the unclamped value bit for bit
        k = np.array([0, 1, 1 << 52, (1 << 52) + 1, (1 << 53) - 2, (1 << 53) - 1], dtype=np.uint64)
        z = _standard_normals(k.reshape(3, 2))
        assert np.isfinite(z).all()
        assert z.ravel()[:5].tobytes() == ndtri((k[:5].astype(np.float64) + 0.5) / float(1 << 53)).tobytes()
        assert z[2, 1] == ndtri(np.nextafter(1.0, 0.0)) > 8.0


class TestObservables:
    def test_zero(self, grid8):
        obs = observables(zero_field(grid8))
        assert all(v == 0.0 for v in obs.values())

    def test_plane_wave(self, grid8):
        obs = observables(mode_field(grid8, {1: 1.0}))
        assert obs["mass"] == pytest.approx(2 * np.pi)
        assert obs["u0_sq"] == 0.0

    def test_u0_sq_is_the_scalar_modulus_squared(self):
        # np.abs of an array rounds some |u_0| differently, which would
        # change ensemble files in the last bit
        spec = MeasureSpec(s=2.0, M=8)
        for i in range(200):
            u = sample_field(spec, i, GridSpec(modes=8))
            assert observables(u)["u0_sq"] == float(abs(u.coeffs[8]) ** 2)

    def test_e2_delegates(self, grid16):
        from conftest import random_field

        u = random_field(grid16, seed=1, amp=0.4)
        assert observables(u)["e2"] == pytest.approx(e2(u, 1)["e2"], rel=1e-12)


class TestKS:
    def test_identical(self):
        a = np.arange(10.0)
        assert ks_statistic(a, a) == 0.0

    def test_disjoint(self):
        assert ks_statistic([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]) == 1.0

    def test_same_normal_below_09(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal(1000)
        b = rng.standard_normal(1000)
        assert ks_statistic(a, b) < 0.09

    def test_matches_scipy(self):
        from scipy.stats import ks_2samp

        rng = np.random.default_rng(9)
        a = rng.standard_normal(400)
        b = rng.standard_normal(600) + 0.2
        assert ks_statistic(a, b) == pytest.approx(ks_2samp(a, b).statistic, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            ks_statistic([], [1.0])

    def test_critical_value(self):
        # c(0.05) = 1.3581; n = m = 1000 gives about 0.0607
        assert ks_critical_value(1000, 1000) == pytest.approx(0.0607, abs=5e-4)


class TestLinearInvariance:
    def test_ks_below_critical(self):
        # the statistical content of the linear-flow invariance of mu_s
        spec = MeasureSpec(s=2.0, M=16, base_seed=2024)
        n_samp = 400
        fields = [sample_field(spec, i, GridSpec(modes=16)) for i in range(n_samp)]
        before = {k: [] for k in ("l6_pow6", "e2")}
        after = {k: [] for k in ("l6_pow6", "e2")}
        for u in fields:
            o0 = observables(u)
            o1 = observables(FourierField(u.grid, linear_flow_rows(u.coeffs, u.grid, 1.0 + np.sqrt(2.0))))
            for k in before:
                before[k].append(o0[k])
                after[k].append(o1[k])
        crit = ks_critical_value(n_samp, n_samp)
        for k in before:
            assert ks_statistic(before[k], after[k]) < crit


class TestTailRatio:
    def test_identical(self):
        a = np.linspace(0, 1, 200)
        assert tail_ratio(a, a, 0.9) == 1.0

    def test_zero_over_zero(self):
        a = np.zeros(150)
        assert tail_ratio(a, a, 0.5) == 1.0

    def test_infinite(self):
        before = np.zeros(150)
        after = np.ones(150)
        assert tail_ratio(before, after, 0.5) == np.inf

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            tail_ratio(np.zeros(150), np.zeros(151), 0.0)

    def test_minimum_size(self):
        with pytest.raises(ValueError, match="100"):
            tail_ratio(np.zeros(50), np.zeros(50), 0.0)


class TestEnsembleIO:
    def test_roundtrip(self, tmp_path):
        # member 2 is not live: its record keeps index and seed, with no observables
        seeds = [derive_seed(7, i) for i in range(5)]
        live = np.array([True, True, False, True, True])
        path = tmp_path / "ensemble.jsonl"
        write_ensemble(path, seeds, live, {"mass": np.arange(5.0), "e2": 0.5 * np.arange(5.0)})
        back = [json.loads(line) for line in path.read_text().splitlines()]
        assert back == [
            {"index": i, "seed": seeds[i], "observables": {} if i == 2 else {"mass": float(i), "e2": 0.5 * i}}
            for i in range(5)
        ]
