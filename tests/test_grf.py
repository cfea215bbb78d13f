"""Field synthesis against the spectral-moment oracles, plus format round-trips."""

import math
import tracemalloc

import numpy as np
import pytest

from fieldtopo import (
    PowerSpectrumModel,
    eval_power,
    generate,
    load_field,
    sample_moments,
    save_field,
    smooth,
    spectral_moment,
    spectral_params,
)
from fieldtopo.errors import ConfigError, DomainError, FormatError
from fieldtopo.grf import FieldGrid, _synthesis_gain

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
        for seed in (-1, (-1, 0), 1.5):
            with pytest.raises(DomainError, match="seed"):
                generate(FLAT, 32, 32.0, 2, seed=seed)
        # a wrongly typed argument is refused by name, not by a bare TypeError
        with pytest.raises(ConfigError, match="side must be int"):
            generate(FLAT, 32.0, 32.0, 2, seed=0)
        with pytest.raises(DomainError, match="dim must be int"):
            generate(FLAT, 32, 32.0, 2.0, seed=0)
        with pytest.raises(DomainError, match="L must be float"):
            generate(FLAT, 32, "32", 2, seed=0)
        with pytest.raises(DomainError, match="rs must be float"):
            generate(FLAT, 32, 32.0, 2, seed=0, rs="1")

    def test_values_of_the_wrong_shape_rejected(self):
        with pytest.raises(ConfigError, match=r"values shape \(32, 16\) does not match"):
            FieldGrid(dim=2, side=32, L=32.0, values=np.zeros((32, 16)), seed=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        values = np.zeros((32, 32))
        values[3, 4] = bad
        with pytest.raises(DomainError, match="the field is not finite"):
            FieldGrid(dim=2, side=32, L=32.0, values=values, seed=0)

    def test_variance_matches_quadrature(self):
        # flat spectrum: every lattice mode carries the same power, so the
        # moment over the disc with the equal-area high cut (k^2 = 4 pi N^2/L^2)
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


def half_lattice_k2(side, L, dim, zero_nyquist=False):
    """|k|^2 summed axis by axis on the rfftn half lattice (even sides only)."""
    k2 = 0.0
    for axis in range(dim):
        freq = np.fft.rfftfreq if axis == dim - 1 else np.fft.fftfreq
        k = 2.0 * np.pi * freq(side, d=L / side)
        if zero_nyquist:
            k[side // 2] = 0.0
        k2 = k2 + (k * k).reshape([-1 if i == axis else 1 for i in range(dim)])
    return k2


def uncached_field(model, side, L, dim, seed, rs):
    """The synthesis written out: irfftn(rfftn(white) * gain), gain built afresh."""
    white = np.random.default_rng(seed).standard_normal((side,) * dim)
    k2 = half_lattice_k2(side, L, dim)
    gain = np.zeros_like(k2)
    live = k2 > 0
    gain[live] = np.sqrt(eval_power(model, np.sqrt(k2[live])) * side**dim / float(L) ** dim)
    gain *= np.exp(-0.5 * k2 * rs * rs)
    return np.fft.irfftn(np.fft.rfftn(white) * gain, s=white.shape, axes=tuple(range(dim)))


def traced_peak(call) -> int:
    """Peak bytes that numpy and Python allocate while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSynthesisGainCache:
    CONFIGS = [
        (FLAT, 64, 64.0, 2, 0.0),
        (PowerSpectrumModel(amplitude=2.0, alpha=-1.0), 64, 64.0, 2, 0.0),
        (FLAT, 64, 64.0, 2, 3.0),
        (FLAT, 128, 90.0, 2, 3.0),
        (FLAT, 32, 40.0, 3, 2.0),
    ]

    def test_alternating_configs_match_the_uncached_synthesis(self):
        for seed, (model, side, L, dim, rs) in enumerate(self.CONFIGS * 2 + self.CONFIGS[::-1]):
            f = generate(model, side, L, dim, seed=(3, seed), rs=rs)
            expected = uncached_field(model, side, L, dim, (3, seed), rs)
            assert f.values.tobytes() == expected.tobytes()
            assert _synthesis_gain.cache_info().currsize <= 1

    def test_cached_gain_is_read_only(self):
        generate(FLAT, 32, 32.0, 2, seed=0, rs=1.0)
        gain = _synthesis_gain(FLAT, 32, 32.0, 2, 1.0)
        with pytest.raises(ValueError, match="read-only"):
            gain[0, 1] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            gain *= 2.0

    def test_mutating_a_field_leaves_the_next_realization_unchanged(self):
        first = generate(FLAT, 32, 32.0, 2, seed=4, rs=1.0)
        expected = first.values.copy()
        first.values *= 0.0
        first.values += 7.0
        again = generate(FLAT, 32, 32.0, 2, seed=4, rs=1.0)
        assert again.values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dim, side", [(2, 256), (3, 32), (3, 64)])
    def test_peak_memory_on_a_warm_cache(self, dim, side):
        # at the peak a realization holds the half-lattice spectrum, which
        # the inverse transform runs through in place, and the output field
        # (the noise is freed once transformed)
        args = (FLAT, side, float(side), dim)
        field = generate(*args, seed=0, rs=2.0)  # fills the gain cache
        nbytes = field.values.nbytes
        assert traced_peak(lambda: generate(*args, seed=1, rs=2.0)) <= 2.25 * nbytes
        assert traced_peak(lambda: sample_moments(field)) <= 2.25 * nbytes


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

    def test_huge_rs_leaves_the_mean_without_a_warning(self):
        # k^2 rs^2 overflows to inf off k = 0, so the window keeps the k = 0 mode alone
        f = generate(FLAT, 32, 32.0, 2, seed=1)
        f.values += 1.5
        g = smooth(f, 1e200)
        assert g.values == pytest.approx(np.full((32, 32), f.values.mean()), abs=1e-12)


def spectral_gradient_sigma1(field: FieldGrid) -> float:
    """RMS gradient from full complex transforms: fftn, then ifftn(i k_d F).real per axis."""
    spec = np.fft.fftn(field.values)
    k1 = 2.0 * np.pi * np.fft.fftfreq(field.side, d=field.L / field.side)
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

    @pytest.mark.parametrize("dim, side", [(2, 33), (2, 35), (3, 33)])
    def test_sigma1_on_odd_sides_matches_spectral_gradient(self, dim, side):
        # an odd side has no Nyquist index: its last half-axis column is a
        # pair of modes like every other column past the first
        values = np.random.default_rng(side).standard_normal((side,) * dim)
        f = FieldGrid(dim=dim, side=side, L=1.3 * side, values=values, seed=0)
        expected = spectral_gradient_sigma1(f)
        assert sample_moments(f).sigma1 == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "dim, side, L, rs", [(2, 64, 64.0, 0.0), (2, 128, 37.0, 2.0), (3, 32, 45.0, 1.5)]
    )
    def test_sigma1_on_even_sides_equals_the_weighted_power_sum(self, dim, side, L, rs):
        # the weight applied to the power, not folded into k2: the same floats
        f = generate(FLAT, side, L, dim, seed=(9, side), rs=rs)
        spec = np.fft.rfftn(f.values)
        weight = np.full(spec.shape[-1], 2.0)
        weight[[0, -1]] = 1.0
        power = (spec.real**2 + spec.imag**2) * weight
        k2 = half_lattice_k2(side, L, dim, zero_nyquist=True)
        expected = math.sqrt(float(np.sum(k2 * power))) / f.values.size
        assert sample_moments(f).sigma1 == expected

    def test_sigma1_of_nyquist_checkerboard_is_zero(self):
        # (-1)^(x + y) lives on the Nyquist modes only, where the periodic
        # spectral gradient of a real field vanishes
        side = 32
        x = np.arange(side)
        values = (-1.0) ** (x[:, None] + x[None, :])
        f = FieldGrid(dim=2, side=side, L=32.0, values=values, seed=0)
        assert spectral_gradient_sigma1(f) < 1e-12
        assert sample_moments(f).sigma1 < 1e-12

    @pytest.mark.parametrize(
        "dim, L, scale", [(2, 1e-100, 1e100), (3, 1e-100, 1e100), (2, 1e-160, 1.0)]
    )
    def test_overflowing_sigma1_rejected(self, dim, L, scale):
        # finite fields on tiny boxes: |k|^2 |F_k|^2 overflows (values of the
        # size `generate` gives there, ~ L^(-dim/2)), or |k|^2 itself does
        values = scale * np.random.default_rng(3).standard_normal((32,) * dim)
        f = FieldGrid(dim=dim, side=32, L=L, values=values, seed=0)
        with pytest.raises(DomainError, match="sigma1 overflows a float"):
            sample_moments(f)

    def test_overflowing_sigma0_rejected(self):
        # finite samples of size ~1e300: their squares overflow, and no numpy warning escapes
        values = 1e300 * np.random.default_rng(3).standard_normal((32, 32))
        f = FieldGrid(dim=2, side=32, L=32.0, values=values, seed=0)
        with pytest.raises(DomainError, match="sigma0 overflows a float"):
            sample_moments(f)

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
        pred = spectral_params(FLAT, rs=rs, L=L, dim=2).r_c
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

    def test_numpy_seed_roundtrip(self, tmp_path):
        f = generate(FLAT, 32, 32.0, 2, seed=(np.int64(3), np.uint8(1)))
        assert f.seed == (3, 1) and all(type(p) is int for p in f.seed)
        path = tmp_path / "field.bin"
        save_field(f, path)
        g = load_field(path)
        assert g.seed == (3, 1)
        assert np.array_equal(g.values, generate(FLAT, 32, 32.0, 2, seed=(3, 1)).values)

    def test_unwritable_sidecar_writes_no_file(self, tmp_path):
        # json refuses a numpy integer seed; the sidecar text is built before either file opens
        field = FieldGrid(dim=2, side=32, L=1.0, values=np.zeros((32, 32)), seed=np.int64(0))
        path = tmp_path / "field.bin"
        with pytest.raises(TypeError):
            save_field(field, path)
        assert list(tmp_path.iterdir()) == []

    def test_numpy_scalar_fields_roundtrip(self, tmp_path):
        field = FieldGrid(dim=np.int64(2), side=np.int32(32), L=np.float32(1),
                          values=np.zeros((32, 32)), seed=0, rs_applied=np.float64(0.5))
        assert type(field.L) is float and type(field.side) is int
        path = tmp_path / "field.bin"
        save_field(field, path)
        g = load_field(path)
        assert (g.dim, g.side, g.L, g.rs_applied) == (2, 32, 1.0, 0.5)

    @pytest.mark.parametrize("name, value", [("L", "1"), ("side", 32.0), ("rs_applied", None)])
    def test_field_type_rejected(self, name, value):
        kwargs = dict(dim=2, side=32, L=1.0, values=np.zeros((32, 32)), seed=0)
        kwargs[name] = value
        with pytest.raises(ConfigError, match=name):
            FieldGrid(**kwargs)

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

    def test_body_of_the_wrong_byte_count_rejected(self, tmp_path):
        # the body is checked by its byte count before numpy reads it as float64
        path = tmp_path / "field.bin"
        save_field(generate(FLAT, 32, 32.0, 2, seed=1), path)
        raw = path.read_bytes()
        for body in (raw[32:-3], raw[32:40]):  # ragged; one sample long
            path.write_bytes(raw[:32] + body)
            with pytest.raises(FormatError, match="samples"):
                load_field(path)

    def test_non_finite_sample_rejected(self, tmp_path):
        # save_field cannot write one: FieldGrid refuses it, so the bytes are patched
        path = tmp_path / "field.bin"
        save_field(generate(FLAT, 32, 32.0, 2, seed=1), path)
        raw = bytearray(path.read_bytes())
        raw[40:48] = np.array([math.nan], dtype="<f8").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="the field is not finite"):
            load_field(path)

    def test_missing_sidecar_defaults(self, tmp_path):
        f = generate(FLAT, 32, 48.0, 2, seed=1)
        path = tmp_path / "field.bin"
        save_field(f, path)
        path.with_name(path.name + ".json").unlink()
        g = load_field(path)
        assert g.L == 32.0 and g.seed == -1

    @pytest.mark.parametrize("dim", [2, 3])
    def test_empty_grid_rejected(self, tmp_path, dim):
        path = tmp_path / "empty.bin"
        save_field(FieldGrid(dim=dim, side=0, L=1.0, values=np.zeros((0,) * dim), seed=0), path)
        with pytest.raises(FormatError, match="empty grid"):
            load_field(path)

    @pytest.mark.parametrize(
        "sidecar, message",
        [
            ('{"L": NaN}', "box size L"),
            ('{"L": Infinity}', "box size L"),
            ('{"L": -5}', "box size L"),
            ('{"L": 0}', "box size L"),
            ('{"rs_applied": NaN}', "smoothing length"),
            ('{"rs_applied": -1}', "smoothing length"),
        ],
    )
    def test_sidecar_that_does_not_describe_a_box_rejected(self, tmp_path, sidecar, message):
        path = tmp_path / "field.bin"
        save_field(generate(FLAT, 32, 32.0, 2, seed=1), path)
        path.with_name(path.name + ".json").write_text(sidecar)
        with pytest.raises(FormatError, match=message):
            load_field(path)
