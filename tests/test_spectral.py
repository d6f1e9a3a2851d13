"""Spectral core: projections, norms, derivatives, dealiased quintic."""

import numpy as np
import pytest

from qnls import FourierField, GridSpec, field_from_modes
from qnls.spectral import TWO_PI, analyze, jet, quintic_rows, synthesize

from conftest import random_field
from oracles import derivative, inner, lp_norm, mode_field, project, quintic_convolution, sobolev_norm_sq, zero_field


class TestGridSpec:
    def test_defaults(self):
        g = GridSpec(modes=8)
        assert g.phys_size >= 17
        assert g.quintic_pad() >= 6 * 8 + 1

    def test_rejects_bad_modes(self):
        with pytest.raises(ValueError, match="modes"):
            GridSpec(modes=0)


class TestFourierField:
    def test_rejects_nan(self, grid8):
        c = np.zeros(17, dtype=complex)
        c[3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            FourierField(grid8, c)

    def test_rejects_wrong_shape(self, grid8):
        with pytest.raises(ValueError, match="shape"):
            FourierField(grid8, np.zeros(5, dtype=complex))

    def test_immutable(self, grid8):
        u = zero_field(grid8)
        with pytest.raises(ValueError):
            u.coeffs[0] = 1.0

    def test_roundtrip(self, grid16):
        u = random_field(grid16, seed=1)
        back = analyze(u.values(), grid16.modes)
        assert np.max(np.abs(back - u.coeffs)) < 1e-12 * np.max(np.abs(u.coeffs))

        # a (B, 2M+1) block goes through both transforms row by row, bit for
        # bit, also when size < 2M+1 folds the modes
        block = np.stack([u.coeffs, random_field(grid16, seed=2).coeffs])
        for size in (grid16.phys_size, 17):
            back = analyze(synthesize(block, grid16.modes, size), grid16.modes)
            rows = [analyze(synthesize(c, grid16.modes, size), grid16.modes) for c in block]
            assert back.tobytes() == np.stack(rows).tobytes()


class TestFieldFromModes:
    def test_row_in_storage_order(self, grid8):
        c = field_from_modes(grid8, {-8: 2.0, 3: 1j})
        assert c.shape == (17,) and c.dtype == np.complex128
        assert c[0] == 2.0 and c[grid8.modes + 3] == 1j and np.count_nonzero(c) == 2

    def test_rejects_mode_outside_grid(self, grid8):
        with pytest.raises(ValueError, match="outside grid"):
            field_from_modes(grid8, {9: 1.0})


class TestProject:
    def test_cutoff(self, grid8):
        u = mode_field(grid8, {2: 1.0, 1: 1.0})
        v = project(u, 1)
        assert v.coeffs[grid8.modes + 1] == 1.0
        assert v.coeffs[grid8.modes + 2] == 0.0

    def test_identity_bitwise(self, grid8):
        u = random_field(grid8, seed=3)
        assert project(u, grid8.modes) is u
        assert project(u, 100) is u

    def test_nesting(self, grid8):
        u = random_field(grid8, seed=4)
        assert np.array_equal(project(project(u, 3), 5).coeffs, project(u, 3).coeffs)

    def test_idempotent(self, grid8):
        u = random_field(grid8, seed=5)
        assert np.array_equal(project(project(u, 4), 4).coeffs, project(u, 4).coeffs)

    def test_self_adjoint(self, grid8):
        u = random_field(grid8, seed=6)
        v = random_field(grid8, seed=7)
        lhs = inner(project(u, 3), v)
        rhs = inner(u, project(v, 3))
        assert abs(lhs - rhs) < 1e-12 * (1 + abs(lhs))


class TestNorms:
    def test_single_mode_h2(self, grid8):
        u = mode_field(grid8, {2: 1.0})
        assert sobolev_norm_sq(u, 2) == pytest.approx(50 * np.pi, rel=1e-14)

    def test_zero(self, grid8):
        assert sobolev_norm_sq(zero_field(grid8), 1.5) == 0.0

    def test_two_mode_h1_vs_quadrature(self, grid8):
        # oracle: quadrature of int(|u|^2 + |u_x|^2) on a fine grid
        u = mode_field(grid8, {1: 1.0, -1: 1.0})
        size = 4 * grid8.modes + 3
        vals = u.values(size)
        dvals = derivative(u, 1).values(size)
        quad = TWO_PI / size * np.sum(np.abs(vals) ** 2 + np.abs(dvals) ** 2)
        assert quad == pytest.approx(8 * np.pi, rel=1e-12)
        assert sobolev_norm_sq(u, 1) == pytest.approx(8 * np.pi, rel=1e-14)

    def test_parseval_random(self, grid16):
        u = random_field(grid16, seed=8)
        quad = TWO_PI / grid16.phys_size * np.sum(np.abs(u.values()) ** 2)
        assert quad == pytest.approx(sobolev_norm_sq(u, 0), rel=1e-10)

    def test_lp_plane_wave(self, grid8):
        u = mode_field(grid8, {3: 1.0})
        assert lp_norm(u, 4) == pytest.approx(TWO_PI ** 0.25, rel=1e-12)

    def test_lp_inf_zero(self, grid8):
        assert lp_norm(zero_field(grid8), np.inf) == 0.0

    def test_lp2_against_coefficients(self, grid8):
        # int |1 + e^{ix}|^2 = 4*pi, so the L2 norm is 2 sqrt(pi)
        u = mode_field(grid8, {0: 1.0, 1: 1.0})
        assert TWO_PI * np.sum(np.abs(u.coeffs) ** 2) == pytest.approx(4 * np.pi)
        assert lp_norm(u, 2) == pytest.approx(2 * np.sqrt(np.pi), rel=1e-10)

    def test_lp2_matches_sobolev(self, grid16):
        u = random_field(grid16, seed=9)
        assert lp_norm(u, 2) == pytest.approx(sobolev_norm_sq(u, 0) ** 0.5, rel=1e-10)


class TestDerivative:
    def test_single_mode(self, grid8):
        u = mode_field(grid8, {2: 1.0})
        d = derivative(u, 1)
        assert d.coeffs[grid8.modes + 2] == pytest.approx(2j)

    def test_order_zero(self, grid8):
        u = random_field(grid8, seed=10)
        assert derivative(u, 0) is u

    def test_composition(self, grid16):
        u = random_field(grid16, seed=11)
        twice = derivative(derivative(u, 1), 1)
        once = derivative(u, 2)
        assert np.max(np.abs(twice.coeffs - once.coeffs)) < 1e-12 * np.max(
            np.abs(once.coeffs)
        )

    def test_skew_adjoint(self, grid16):
        u = random_field(grid16, seed=12)
        val = inner(derivative(u, 1), u)
        assert abs(val.real) < 1e-10 * (1 + abs(val))


class TestQuintic:
    def test_plane_wave_fixed_point(self, grid8):
        u = mode_field(grid8, {5: 1.0})
        q = quintic_rows(u.coeffs, grid8)
        assert np.max(np.abs(q - u.coeffs)) < 1e-13

    def test_zero(self, grid8):
        q = quintic_rows(zero_field(grid8).coeffs, grid8)
        assert np.all(q == 0)

    def test_two_cosine_against_convolution(self, grid8):
        # |2cos x|^4 (2cos x) = 32 cos^5 x = 2cos5x + 10cos3x + 20cos x,
        # so the e^{ix} coefficient is 10 (convolution oracle agrees).
        u = mode_field(grid8, {1: 1.0, -1: 1.0})
        q = quintic_rows(u.coeffs, grid8)
        oracle = quintic_convolution(u)
        assert np.max(np.abs(q - oracle.coeffs)) < 1e-12
        assert q[grid8.modes + 1] == pytest.approx(10.0, rel=1e-13)

    def test_random_small_support_against_convolution(self):
        g = GridSpec(modes=5)
        for seed in range(6):
            u = random_field(g, seed=20 + seed)
            q = quintic_rows(u.coeffs, g)
            oracle = quintic_convolution(u)
            assert np.max(np.abs(q - oracle.coeffs)) < 1e-12 * max(
                1.0, np.max(np.abs(oracle.coeffs))
            )

    def test_block_against_convolution(self):
        # the flow's right-hand side takes quintic_rows of (B, 2M+1) blocks
        g = GridSpec(modes=5)
        fields = [random_field(g, seed=40 + seed, decay=0.2 * seed) for seed in range(5)]
        q = quintic_rows(np.stack([u.coeffs for u in fields]), g)
        for row, u in zip(q, fields):
            oracle = quintic_convolution(u).coeffs
            assert np.max(np.abs(row - oracle)) < 1e-12 * max(1.0, np.max(np.abs(oracle)))
            assert row.tobytes() == quintic_rows(u.coeffs, g).tobytes()


def test_jet_samples_are_the_synthesized_derivatives(grid16):
    u = random_field(grid16, seed=29)
    size = grid16.pad_for_degree(10)
    j = jet(u.coeffs, grid16, size, 3)
    for k in range(4):
        direct = synthesize(derivative(u, k).coeffs, grid16.modes, size)
        assert j.d[k].tobytes() == direct.tobytes()
    assert np.array_equal(j.N, np.abs(j.d[0]) ** 2)


class TestInner:
    def test_same_mode(self, grid8):
        u = mode_field(grid8, {1: 1.0})
        assert inner(u, u) == pytest.approx(TWO_PI)

    def test_orthogonal(self, grid8):
        u = mode_field(grid8, {1: 1.0})
        v = mode_field(grid8, {2: 1.0})
        assert abs(inner(u, v)) < 1e-15

    def test_norm_consistency(self, grid16):
        u = random_field(grid16, seed=27)
        assert inner(u, u).real == pytest.approx(sobolev_norm_sq(u, 0), rel=1e-12)

    def test_grid_mismatch(self, grid8, grid16):
        with pytest.raises(ValueError, match="grids"):
            inner(zero_field(grid8), zero_field(grid16))


def test_synthesize_fold_matches_direct():
    # folding modulo the transform size evaluates the polynomial exactly
    # even when size < 2*modes + 1
    g = GridSpec(modes=12)
    u = random_field(g, seed=28)
    size = 17
    x = TWO_PI * np.arange(size) / size
    direct = sum(
        u.coeffs[k] * np.exp(1j * (k - g.modes) * x) for k in range(2 * g.modes + 1)
    )
    assert np.max(np.abs(synthesize(u.coeffs, g.modes, size) - direct)) < 1e-12
    # a (B, 2M+1) block folds row by row, bit for bit
    block = np.stack([u.coeffs, random_field(g, seed=29).coeffs])
    rows = np.stack([synthesize(c, g.modes, size) for c in block])
    assert synthesize(block, g.modes, size).tobytes() == rows.tobytes()
    # with and without a fold, vectors and blocks sum bit for bit as
    # np.add.at into zeros does, which turns a -0.0 coefficient into +0.0
    block[0, 3] = complex(-0.0, -0.0)
    block[1, g.modes + 2] = complex(-0.0, 1.0)
    for size in (17, g.phys_size, g.quintic_pad()):
        a = np.zeros((2, size), dtype=complex)
        np.add.at(a, (..., np.arange(-g.modes, g.modes + 1) % size), block)
        ref = np.fft.ifft(a, axis=-1) * size
        assert synthesize(block, g.modes, size).tobytes() == ref.tobytes()
        assert synthesize(block[0], g.modes, size).tobytes() == ref[0].tobytes()
    # the FFT hides the sign of a zero except at size 1, where it is the identity
    assert synthesize(np.array([complex(-0.0, -0.0)]), 0, 1).tobytes() == bytes(16)


@pytest.mark.parametrize("rows", [None, 1, 6])
def test_kernels_leave_their_arguments_unchanged(rows):
    # fresh C-contiguous complex arrays, which an in-place transform or an
    # in-place op on the argument would clobber: no read-only copy guards rows
    g = GridSpec(modes=12)
    rng = np.random.default_rng(31)
    shape = (2 * g.modes + 1,) if rows is None else (rows, 2 * g.modes + 1)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert c.flags.c_contiguous and c.flags.writeable
    before = c.tobytes()
    for size in (17, g.phys_size, g.quintic_pad()):  # 17 < 2M+1 folds the modes
        values = synthesize(c, g.modes, size)
        assert values.flags.c_contiguous and values.flags.writeable
        kept = values.tobytes()
        analyze(values, g.modes)
        assert values.tobytes() == kept, size
    quintic_rows(c, g)
    assert c.tobytes() == before
