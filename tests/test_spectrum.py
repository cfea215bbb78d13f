"""Spectral moments against closed-form Gamma-integral oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fieldtopo import (
    PowerSpectrumModel,
    correlation_length,
    eval_power,
    packing_fraction,
    spectral_moment,
    spectral_params,
)
from fieldtopo.errors import DegenerateFieldError, DivergenceError, DomainError

FLAT = PowerSpectrumModel(amplitude=1.0, alpha=0.0)


def gamma_moment_oracle(n: int, rs: float, dim: int, amplitude: float = 1.0) -> float:
    """sigma_n^2 for a flat spectrum over [0, inf): pure Gamma integral.

    int_0^inf k^(d-1+2n) exp(-k^2 rs^2) dk = Gamma((d+2n)/2) / (2 rs^(d+2n)).
    """
    coef = 1.0 / (2.0 * math.pi**2) if dim == 3 else 1.0 / (2.0 * math.pi)
    power = dim + 2 * n
    return amplitude * coef * math.gamma(power / 2.0) / (2.0 * rs**power)


class TestEvalPower:
    def test_flat(self):
        assert eval_power(PowerSpectrumModel(1.0, 0.0), 2.0) == 1.0

    def test_outside_high_cutoff(self):
        model = PowerSpectrumModel(1.0, 0.0, k_high_cutoff=1.0)
        assert eval_power(model, 2.0) == 0.0

    def test_power_law_arithmetic(self):
        assert eval_power(PowerSpectrumModel(3.0, 2.0), 2.0) == 12.0

    def test_below_low_cutoff(self):
        model = PowerSpectrumModel(1.0, 0.0, k_low_cutoff=0.5)
        assert eval_power(model, 0.2) == 0.0
        assert eval_power(model, 0.7) == 1.0

    def test_nonpositive_k_rejected(self):
        with pytest.raises(DomainError):
            eval_power(FLAT, 0.0)
        with pytest.raises(DomainError):
            eval_power(FLAT, -1.0)

    def test_vectorized(self):
        out = eval_power(PowerSpectrumModel(2.0, 1.0), np.array([1.0, 2.0]))
        assert np.allclose(out, [2.0, 4.0])

    def test_classify(self):
        assert FLAT.classify() == 1
        assert PowerSpectrumModel(1.0, 0.0, k_low_cutoff=0.1).classify() == 2
        assert PowerSpectrumModel(1.0, 0.0, k_high_cutoff=3.0).classify() == 2

    def test_bad_cutoff_order(self):
        with pytest.raises(DomainError):
            PowerSpectrumModel(1.0, 0.0, k_low_cutoff=2.0, k_high_cutoff=1.0)

    @pytest.mark.parametrize(
        "override",
        [
            {"amplitude": math.nan},
            {"amplitude": math.inf},
            {"alpha": math.nan},
            {"alpha": -math.inf},
            {"k_low_cutoff": math.nan},
            {"k_high_cutoff": math.nan},
            {"k_high_cutoff": math.inf},
        ],
    )
    def test_non_finite_rejected(self, override):
        with pytest.raises(DomainError, match="finite"):
            PowerSpectrumModel(**override)


class TestSpectralMoment:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("rs", [1.0, 2.0])
    def test_flat_matches_gamma_oracle(self, dim, n, rs):
        got = spectral_moment(FLAT, n, rs, 0.0, math.inf, dim)
        assert got == pytest.approx(gamma_moment_oracle(n, rs, dim), rel=1e-7)

    def test_reference_value(self):
        # sigma_0^2 = Gamma(3/2) / 2 / (2 pi^2) for the flat 3D case, rs = 1
        got = spectral_moment(FLAT, 0, 1.0, 0.0, math.inf, 3)
        assert got == pytest.approx(0.5 * math.gamma(1.5) / (2 * math.pi**2), rel=1e-9)
        assert got == pytest.approx(0.02244839, rel=1e-6)

    def test_zero_amplitude(self):
        model = PowerSpectrumModel(amplitude=0.0, alpha=0.0)
        assert spectral_moment(model, 0, 1.0, 0.0, math.inf, 3) == 0.0

    def test_amplitude_linearity(self):
        a = spectral_moment(PowerSpectrumModel(3.0, 0.0), 0, 1.0, 0.0, math.inf, 2)
        b = spectral_moment(FLAT, 0, 1.0, 0.0, math.inf, 2)
        assert a == pytest.approx(3.0 * b, rel=1e-10)

    def test_low_divergence_named(self):
        model = PowerSpectrumModel(1.0, alpha=-2.0)  # k^(1-2) at dim=2, n=0
        with pytest.raises(DivergenceError, match="lower limit"):
            spectral_moment(model, 0, 1.0, 0.0, math.inf, 2)

    def test_high_divergence_named(self):
        with pytest.raises(DivergenceError, match="upper limit"):
            spectral_moment(FLAT, 0, 0.0, 0.0, math.inf, 3)

    def test_high_cutoff_tames_divergence(self):
        model = PowerSpectrumModel(1.0, 0.0, k_high_cutoff=2.0)
        got = spectral_moment(model, 0, 0.0, 0.0, math.inf, 2)
        assert got == pytest.approx(2.0**2 / (4.0 * math.pi), rel=1e-9)

    def test_cutoffs_restrict_window(self):
        model = PowerSpectrumModel(1.0, 0.0, k_low_cutoff=1.0, k_high_cutoff=2.0)
        got = spectral_moment(model, 0, 0.0, 0.0, math.inf, 2)
        assert got == pytest.approx((4.0 - 1.0) / (4.0 * math.pi), rel=1e-9)

    def test_bad_window(self):
        with pytest.raises(DomainError):
            spectral_moment(FLAT, 0, 1.0, 2.0, 1.0, 3)

    @pytest.mark.parametrize(
        "n, rs, kmin, dim, message",
        [
            (0, 1.0, 0.0, 4, "dim must be 2 or 3"),
            (-1, 1.0, 0.0, 2, "moment order"),
            (0, -1.0, 0.0, 2, "smoothing length"),
            (0, 1.0, -1.0, 2, "kmin must be >= 0"),
        ],
    )
    def test_bad_arguments_rejected(self, n, rs, kmin, dim, message):
        with pytest.raises(DomainError, match=message):
            spectral_moment(FLAT, n, rs, kmin, math.inf, dim)

    def test_window_ending_below_low_cutoff_is_zero(self):
        # rs = 5 truncates the integral at k = 8 / 5, below the cutoff at 10
        model = PowerSpectrumModel(1.0, 0.0, k_low_cutoff=10.0)
        assert spectral_moment(model, 0, 5.0, 0.0, math.inf, 2) == 0.0

    @settings(max_examples=30, deadline=None)
    @given(
        rs_lo=st.floats(0.2, 5.0),
        factor=st.floats(1.01, 4.0),
        n=st.integers(0, 2),
        alpha=st.floats(-1.0, 2.0),
    )
    def test_monotone_nonincreasing_in_rs(self, rs_lo, factor, n, alpha):
        model = PowerSpectrumModel(1.0, alpha)
        lo = spectral_moment(model, n, rs_lo, 0.0, math.inf, 2)
        hi = spectral_moment(model, n, rs_lo * factor, 0.0, math.inf, 2)
        assert hi <= lo * (1 + 1e-9)


class TestCorrelationLength:
    def test_flat_reference(self):
        # sigma1^2/sigma0^2 = Gamma(5/2)/Gamma(3/2) = 3/2 for flat 3D, rs = 1
        assert correlation_length(FLAT, rs=1.0, L=math.inf, dim=3) == pytest.approx(
            math.sqrt(2.0 / 3.0), rel=1e-9
        )

    def test_type2_invariant_under_L(self):
        model = PowerSpectrumModel(1.0, 0.0, k_low_cutoff=0.1, k_high_cutoff=1.0)
        r1 = correlation_length(model, rs=0.0, L=200.0, dim=3)
        r2 = correlation_length(model, rs=0.0, L=400.0, dim=3)
        assert r2 == pytest.approx(r1, rel=1e-6)

    def test_type2_stable_under_small_rs(self):
        model = PowerSpectrumModel(1.0, 0.0, k_low_cutoff=0.1, k_high_cutoff=1.0)
        r1 = correlation_length(model, rs=1e-4, L=200.0, dim=3)
        r2 = correlation_length(model, rs=5e-5, L=200.0, dim=3)
        assert r2 == pytest.approx(r1, rel=1e-6)

    def test_type1_rs_scaling(self):
        r_big = correlation_length(FLAT, rs=4.0, L=512.0, dim=3)
        r_small = correlation_length(FLAT, rs=2.0, L=512.0, dim=3)
        assert r_big / r_small == pytest.approx(2.0, rel=0.10)

    def test_degenerate(self):
        model = PowerSpectrumModel(amplitude=0.0)
        with pytest.raises(DegenerateFieldError):
            correlation_length(model, rs=1.0, L=math.inf, dim=3)

    def test_kmax_cap_respected(self):
        capped = correlation_length(FLAT, rs=0.0, L=100.0, dim=2, kmax=3.0)
        # with an explicit cap the integrals are plain power laws
        kmin = 2 * math.pi / 100.0
        s0 = (3.0**2 - kmin**2) / (4 * math.pi)
        s1 = (3.0**4 - kmin**4) / (8 * math.pi)
        assert capped == pytest.approx(math.sqrt(s0 / s1), rel=1e-9)


class TestPackingFraction:
    def test_simple(self):
        assert packing_fraction(1.0, 10.0, 2) == pytest.approx(100.0)
        assert packing_fraction(2.0, 2.0, 3) == pytest.approx(1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            packing_fraction(0.0, 1.0, 2)
        with pytest.raises(DomainError):
            packing_fraction(1.0, -1.0, 2)

    def test_rejects_dim_4(self):
        with pytest.raises(DomainError, match="dim must be 2 or 3"):
            packing_fraction(1.0, 1.0, 4)

    @settings(max_examples=25, deadline=None)
    @given(
        r_c=st.floats(0.01, 100.0),
        L=st.floats(0.01, 1000.0),
        s=st.floats(0.001, 1000.0),
        dim=st.sampled_from([2, 3]),
    )
    def test_dimensionless_under_rescaling(self, r_c, L, s, dim):
        q1 = packing_fraction(r_c, L, dim)
        q2 = packing_fraction(r_c / s, L / s, dim)
        assert q2 == pytest.approx(q1, rel=1e-9)

    def test_q_grows_when_rs_halves(self):
        # type-1 spectrum at fixed L: r_c tracks rs, so q gains ~2^dim
        for dim in (2, 3):
            p_big = spectral_params(FLAT, rs=4.0, L=512.0, dim=dim)
            p_small = spectral_params(FLAT, rs=2.0, L=512.0, dim=dim)
            assert p_small.q / p_big.q == pytest.approx(2.0**dim, rel=0.20)


class TestSpectralParams:
    def test_identities(self):
        params = spectral_params(FLAT, rs=2.0, L=256.0, dim=2)
        assert params.r_c == pytest.approx(params.sigma0 / params.sigma1, rel=1e-12)
        assert params.q == pytest.approx((params.L / params.r_c) ** params.dim, rel=1e-12)
        assert params.dim == 2 and params.rs == 2.0
