"""Field synthesis against quadrature oracles, plus format round-trips."""

import math

import numpy as np
import pytest

from fieldtopo import (
    PowerSpectrumModel,
    correlation_length,
    generate,
    load_field,
    sample_moments,
    save_field,
    smooth,
    spectral_moment,
)
from fieldtopo.errors import ConfigError, DomainError, FormatError
from fieldtopo.grf import FieldGrid

FLAT = PowerSpectrumModel(amplitude=1.0, alpha=0.0)


class TestGenerate:
    def test_zero_amplitude_gives_zero_field(self):
        f = generate(PowerSpectrumModel(amplitude=0.0), 32, 32.0, 2, seed=5)
        assert np.all(f.values == 0.0)

    def test_deterministic(self):
        a = generate(FLAT, 64, 64.0, 2, seed=7)
        b = generate(FLAT, 64, 64.0, 2, seed=7)
        assert np.array_equal(a.values, b.values)

    def test_seed_changes_field(self):
        a = generate(FLAT, 32, 32.0, 2, seed=1)
        b = generate(FLAT, 32, 32.0, 2, seed=2)
        assert not np.array_equal(a.values, b.values)

    def test_zero_mean(self):
        f = generate(FLAT, 64, 64.0, 2, seed=3)
        assert abs(f.values.mean()) < 1e-12 * f.values.std()

    def test_grid_size_validation(self):
        with pytest.raises(ConfigError):
            generate(FLAT, 100, 100.0, 2, seed=0)
        with pytest.raises(ConfigError):
            generate(FLAT, 16, 16.0, 2, seed=0)
        with pytest.raises(DomainError):
            generate(FLAT, 32, 32.0, 4, seed=0)

    def test_values_of_the_wrong_shape_rejected(self):
        with pytest.raises(ConfigError, match=r"values shape \(32, 16\) does not match"):
            FieldGrid(dim=2, side=32, L=32.0, values=np.zeros((32, 16)), seed=0)

    def test_variance_matches_quadrature(self):
        # flat spectrum: every lattice mode carries the same power, so the
        # quadrature window with the equal-area high cut (k^2 = 4 pi N^2/L^2)
        # reproduces the full mode sum
        model = PowerSpectrumModel(amplitude=2.0, alpha=0.0)
        side, L, nseeds = 256, 256.0, 100
        pred = spectral_moment(model, 0, 0.0, 0.0, 2 * math.sqrt(math.pi) * side / L, 2)
        variances = np.array(
            [generate(model, side, L, 2, seed=(1234, s)).values.var() for s in range(nseeds)]
        )
        se = variances.std(ddof=1) / math.sqrt(nseeds)
        assert abs(variances.mean() - pred) < 5 * se

    def test_3d_generation(self):
        f = generate(FLAT, 32, 32.0, 3, seed=11)
        assert f.values.shape == (32, 32, 32)
        assert f.values.std() > 0

    @pytest.mark.parametrize(
        "dim, side, L, rs", [(2, 64, 64.0, 3.0), (2, 64, 90.0, 1.5), (3, 32, 40.0, 2.0)]
    )
    def test_fused_smoothing_matches_smooth(self, dim, side, L, rs):
        model = PowerSpectrumModel(amplitude=1.0, alpha=-1.0)
        fused = generate(model, side, L, dim, seed=(4, 2), rs=rs)
        staged = smooth(generate(model, side, L, dim, seed=(4, 2)), rs)
        scale = staged.values.std()
        assert np.abs(fused.values - staged.values).max() < 1e-12 * scale
        assert fused.rs_applied == staged.rs_applied == rs

    @pytest.mark.parametrize("rs", [-1.0, math.nan, math.inf])
    def test_bad_rs_rejected(self, rs):
        with pytest.raises(DomainError):
            generate(FLAT, 32, 32.0, 2, seed=0, rs=rs)

    @pytest.mark.parametrize("L", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_bad_box_size_rejected(self, L):
        with pytest.raises(DomainError):
            generate(FLAT, 32, L, 2, seed=0)

    @pytest.mark.parametrize(
        "amplitude, L, dim", [(1.0, 1e-300, 2), (1e308, 32.0, 2), (1e308, 32.0, 3)]
    )
    def test_overflowing_field_rejected(self, amplitude, L, dim):
        # the gain sqrt(P N^d / L^d) overflows, so the field would be inf or NaN
        with pytest.raises(DomainError, match="not finite"):
            generate(PowerSpectrumModel(amplitude=amplitude), 32, L, dim, seed=0)

    @pytest.mark.parametrize("L, dim", [(1e308, 2), (1e200, 2), (1e150, 3)])
    def test_overflowing_box_volume_rejected(self, L, dim):
        # L**dim is a Python float power: it raises OverflowError, not a numpy warning
        with pytest.raises(DomainError, match=rf"box volume L\^{dim} overflows"):
            generate(FLAT, 32, L, dim, seed=0)

    @pytest.mark.parametrize("dim, rs", [(2, 0.0), (2, 2.0), (3, 0.0), (3, 2.0)])
    def test_values_are_contiguous_float64(self, dim, rs):
        f = generate(FLAT, 32, 32.0, dim, seed=1, rs=rs)
        assert f.values.dtype == np.float64
        assert f.values.flags.c_contiguous
        assert smooth(f, 1.0).values.flags.c_contiguous

    def test_gaussianity_moment_check(self):
        f = generate(FLAT, 256, 256.0, 2, seed=21)
        x = f.values.ravel()
        x = (x - x.mean()) / x.std()
        m = x.size
        skew = float((x**3).mean())
        exkurt = float((x**4).mean()) - 3.0
        assert abs(skew) < 5.0 * math.sqrt(6.0 / m)
        assert abs(exkurt) < 5.0 * math.sqrt(24.0 / m)


class TestSmooth:
    def test_rs_zero_is_identity(self):
        f = generate(FLAT, 32, 32.0, 2, seed=1)
        g = smooth(f, 0.0)
        assert np.array_equal(f.values, g.values)
        assert g.values is not f.values

    def test_mean_preserved(self):
        f = generate(FLAT, 64, 64.0, 2, seed=2)
        f.values += 1.5  # nonzero mean to make the check meaningful
        g = smooth(f, 3.0)
        assert g.values.mean() == pytest.approx(f.values.mean(), abs=1e-12)

    def test_semigroup(self):
        f = generate(FLAT, 64, 64.0, 2, seed=3)
        twice = smooth(smooth(f, 2.0), 1.5)
        once = smooth(f, math.hypot(2.0, 1.5))
        scale = np.abs(once.values).max()
        assert np.abs(twice.values - once.values).max() < 1e-10 * scale
        assert twice.rs_applied == pytest.approx(once.rs_applied)

    def test_variance_matches_quadrature(self):
        side, L, rs, nseeds = 256, 256.0, 4.0, 100
        pred = spectral_moment(FLAT, 0, rs, 0.0, math.inf, 2)
        variances = np.array(
            [
                smooth(generate(FLAT, side, L, 2, seed=(99, s)), rs).values.var()
                for s in range(nseeds)
            ]
        )
        se = variances.std(ddof=1) / math.sqrt(nseeds)
        assert abs(variances.mean() - pred) < 5 * se

    def test_negative_rs_rejected(self):
        f = generate(FLAT, 32, 32.0, 2, seed=1)
        with pytest.raises(DomainError):
            smooth(f, -1.0)

    @pytest.mark.parametrize("rs", [math.nan, math.inf])
    def test_non_finite_rs_rejected(self, rs):
        f = generate(FLAT, 32, 32.0, 2, seed=1)
        with pytest.raises(DomainError):
            smooth(f, rs)


def spectral_gradient_sigma1(field: FieldGrid) -> float:
    """RMS gradient from full complex transforms: fftn, then ifftn(i k_d F).real per axis."""
    spec = np.fft.fftn(field.values)
    k1 = 2.0 * np.pi * np.fft.fftfreq(field.side, d=field.pixel_size)
    grad_sq = np.zeros(field.values.shape)
    for d in range(field.dim):
        shape = [1] * field.dim
        shape[d] = field.side
        g = np.fft.ifftn(spec * (1j * k1.reshape(shape))).real
        grad_sq += g * g
    return float(np.sqrt(grad_sq.mean()))


class TestSampleMoments:
    @pytest.mark.parametrize(
        "dim, side, L, rs",
        [
            (2, 64, 64.0, 0.0),  # unsmoothed: the Nyquist modes carry power
            (2, 128, 37.0, 2.0),  # L != side
            (2, 64, 64.0, 3.0),
            (3, 32, 32.0, 0.0),
            (3, 32, 45.0, 1.5),
        ],
    )
    def test_sigma1_matches_spectral_gradient(self, dim, side, L, rs):
        for seed in range(3):
            f = generate(FLAT, side, L, dim, seed=(8, seed), rs=rs)
            expected = spectral_gradient_sigma1(f)
            assert sample_moments(f).sigma1 == pytest.approx(expected, rel=1e-13)

    def test_sigma1_of_nyquist_checkerboard_is_zero(self):
        # (-1)^(x + y) lives on the Nyquist modes only, where the periodic
        # spectral gradient of a real field vanishes
        side = 32
        x = np.arange(side)
        values = (-1.0) ** (x[:, None] + x[None, :])
        f = FieldGrid(dim=2, side=side, L=32.0, values=values, seed=0)
        assert spectral_gradient_sigma1(f) < 1e-12
        assert sample_moments(f).sigma1 < 1e-12

    def test_constant_field(self):
        values = np.full((32, 32), 2.5)
        f = FieldGrid(dim=2, side=32, L=32.0, values=values, seed=0)
        moments = sample_moments(f)
        assert moments == pytest.approx((2.5, 0.0, 0.0))

    def test_sine_gradient_ratio(self):
        side, L = 256, 17.0
        x = np.arange(side) * (L / side)
        values = np.sin(2 * math.pi * x / L)[:, None] * np.ones((1, side))
        f = FieldGrid(dim=2, side=side, L=L, values=values, seed=0)
        moments = sample_moments(f)
        assert moments.sigma1 / moments.sigma0 == pytest.approx(2 * math.pi / L, rel=1e-3)

    def test_rc_matches_correlation_length(self):
        side, L, rs, nseeds = 128, 128.0, 4.0, 100
        pred = correlation_length(FLAT, rs=rs, L=L, dim=2)
        ratios = []
        for s in range(nseeds):
            moments = sample_moments(smooth(generate(FLAT, side, L, 2, seed=(7, s)), rs))
            ratios.append(moments.sigma0 / moments.sigma1)
        assert np.mean(ratios) == pytest.approx(pred, rel=0.05)


class TestFieldIO:
    def test_roundtrip(self, tmp_path):
        f = smooth(generate(FLAT, 64, 80.0, 2, seed=(5, 3)), 2.0)
        path = tmp_path / "field.bin"
        save_field(f, path)
        assert path.stat().st_size == 32 + 64 * 64 * 8
        g = load_field(path)
        assert np.array_equal(f.values, g.values)
        assert g.L == f.L and g.dim == 2 and g.side == 64
        assert g.rs_applied == pytest.approx(f.rs_applied)
        assert tuple(g.seed) == (5, 3)

    def test_roundtrip_3d(self, tmp_path):
        f = generate(FLAT, 32, 32.0, 3, seed=9)
        path = tmp_path / "field3.bin"
        save_field(f, path)
        g = load_field(path)
        assert np.array_equal(f.values, g.values)
        assert g.dim == 3

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 60)
        with pytest.raises(FormatError, match="magic"):
            load_field(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(b"EXTF\x01")
        with pytest.raises(FormatError, match="truncated"):
            load_field(path)

    def test_wrong_payload_size(self, tmp_path):
        f = generate(FLAT, 32, 32.0, 2, seed=1)
        path = tmp_path / "field.bin"
        save_field(f, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError, match="samples"):
            load_field(path)

    def test_missing_sidecar_defaults(self, tmp_path):
        f = generate(FLAT, 32, 48.0, 2, seed=1)
        path = tmp_path / "field.bin"
        save_field(f, path)
        path.with_name(path.name + ".json").unlink()
        g = load_field(path)
        assert g.L == 32.0 and g.seed == -1
