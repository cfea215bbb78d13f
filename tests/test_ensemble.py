"""Ensemble pipeline (`ensemble`) and inference on its results (`inference`).

The pipeline tests come first: moment algebra, the fold and the writers.  From
`TestAnalyticChi` on, the fits, PDF distances and diagnostics of `inference`.

Monte-Carlo-heavy checks at the reference scale live in test_acceptance; the
ensembles here are kept small.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import kurtosis, norm, skew

from fieldtopo import (
    EnsembleConfig,
    ExcursionMask,
    PowerSpectrumModel,
    ThresholdSummary,
    analytic_chi_amplitude,
    analytic_chi_gaussian,
    duality_check,
    expected_chi,
    fit_binomial_chi,
    fit_binomial_moments,
    normality_trend,
    pdf_compare,
    run_ensemble,
    variance_split,
)
import fieldtopo.ensemble as ens
import fieldtopo.inference as inference
from fieldtopo.ensemble import TABLE_COLUMNS, config_from_manifest, measure_mask
from fieldtopo.inference import N_TRIALS_CAP, STATISTICS
from fieldtopo.errors import ConfigError, DegenerateFieldError, DomainError

FLAT = PowerSpectrumModel(1.0)


def quick_config(**overrides):
    base = dict(
        model=FLAT,
        side=64,
        L=64.0,
        dim=2,
        rs=2.0,
        n_realizations=40,
        thresholds=(-1.0, 0.0, 1.0),
        master_seed=99,
        sigma_mode="sample",
    )
    base.update(overrides)
    return EnsembleConfig(**base)


@pytest.fixture(scope="module")
def quick_result():
    return run_ensemble(quick_config(), workers=1)


class TestMeasureMask:
    def test_2d_mask_gives_its_hole_spectrum(self):
        bits = np.zeros((8, 8), dtype=bool)
        bits[1:6, 1:6] = True
        bits[2, 2] = bits[4, 4] = False
        bits[7, 7] = True
        assert measure_mask(ExcursionMask(bits=bits)) == {
            "b0": 2, "b1": 2, "b2": 0, "chi": 0, "bsum": 4, "jmax": 2, "chi_cell": 0, "bg": 3,
            "m": (1, 0, 1),
        }

    def test_3d_mask_has_no_spectrum(self):
        bits = np.zeros((5, 5, 5), dtype=bool)
        bits[1:4, 1:4, 1:4] = True
        bits[2, 2, 2] = False
        assert measure_mask(ExcursionMask(bits=bits)) == {
            "b0": 1, "b1": 0, "b2": 1, "chi": 2, "bsum": 2, "jmax": 0, "chi_cell": 2, "bg": 2,
            "m": None,
        }


class TestConfig:
    def test_needs_two_realizations(self):
        with pytest.raises(ConfigError):
            quick_config(n_realizations=1)

    def test_thresholds_must_increase(self):
        with pytest.raises(ConfigError):
            quick_config(thresholds=(0.0, 0.0, 1.0))

    def test_thresholds_must_print_apart(self):
        # hist file names and CSV fields print nu as %.12g
        with pytest.raises(ConfigError, match="both print as 1$"):
            quick_config(thresholds=(0.0, 1.0, 1.0 + 1e-13))
        assert quick_config(thresholds=(1.0000001, 1.0000002)).thresholds == (
            1.0000001, 1.0000002)

    @pytest.mark.parametrize(
        "override",
        [
            {"dim": 4},
            {"side": 33},
            {"side": 16, "L": 16.0},
            {"L": 0.0},
            {"L": math.inf},
            {"rs": math.nan},
            {"sigma_mode": -1.0},
            {"sigma_mode": math.nan},
            {"sigma_mode": "abc"},
            {"master_seed": -1},
            {"thresholds": (math.nan,)},
            {"thresholds": ()},
        ],
    )
    def test_rejects_invalid_parameters(self, override):
        with pytest.raises(ConfigError):
            quick_config(**override)

    @pytest.mark.parametrize(
        "build, value, error",
        [
            (EnsembleConfig, {"side": 256.0}, ConfigError),
            (EnsembleConfig, {"L": "5"}, ConfigError),
            (EnsembleConfig, {"n_realizations": 2.5}, ConfigError),
            (EnsembleConfig, {"master_seed": 1.5}, ConfigError),
            (EnsembleConfig, {"dim": 2.0}, ConfigError),
            (EnsembleConfig, {"L": True}, ConfigError),
            (EnsembleConfig, {"rs": True}, ConfigError),
            (EnsembleConfig, {"sigma_mode": True}, ConfigError),
            (EnsembleConfig, {"thresholds": ("0",)}, ConfigError),
            (EnsembleConfig, {"thresholds": 0.5}, ConfigError),
            (EnsembleConfig, {"model": None}, ConfigError),
            (PowerSpectrumModel, {"amplitude": "1"}, DomainError),
            (PowerSpectrumModel, {"alpha": None}, DomainError),
            (PowerSpectrumModel, {"k_low_cutoff": True}, DomainError),
            (lambda workers: run_ensemble(EnsembleConfig(), workers), {"workers": 2.5}, ConfigError),
        ],
        ids=lambda v: repr(v) if isinstance(v, dict) else "",
    )
    def test_rejects_wrong_types(self, build, value, error):
        # each field refused with the error class its range check raises
        with pytest.raises(error, match=f"{next(iter(value))} must be "):
            build(**value)

    def test_takes_numpy_scalars_and_ints_as_floats(self):
        cfg = quick_config(side=np.int64(32), L=32, rs=np.float64(1.0),
                           thresholds=np.array([0.0, 1.0]), master_seed=np.uint8(3))
        assert (cfg.side, cfg.L, cfg.thresholds, cfg.master_seed) == (32, 32, (0.0, 1.0), 3)
        assert PowerSpectrumModel(amplitude=2, k_high_cutoff=np.float32(0.5)).amplitude == 2

    def test_sigma_mode_text_is_parsed(self):
        assert quick_config(sigma_mode="0.25").sigma_mode == 0.25
        assert quick_config(sigma_mode="sample").sigma_mode == "sample"

    def test_manifest_names_every_field(self):
        manifest = quick_config().to_manifest()
        names = [f.name for f in dataclasses.fields(PowerSpectrumModel)]
        names += [f.name for f in dataclasses.fields(EnsembleConfig) if f.name != "model"]
        assert set(manifest) == {"schema", *names}

    def test_manifest_roundtrip(self):
        cfg = quick_config()
        again = config_from_manifest(cfg.to_manifest())
        assert again == cfg
        assert again.manifest_hash() == cfg.manifest_hash()

    def test_hash_tracks_content(self):
        assert quick_config().manifest_hash() != quick_config(master_seed=1).manifest_hash()

    def test_equal_configs_hash_alike(self):
        # a config file always spells the float fields as floats
        ints = EnsembleConfig(side=32, L=32, rs=1, n_realizations=3, thresholds=(0,),
                              model=PowerSpectrumModel(amplitude=1, alpha=0))
        floats = EnsembleConfig(side=32, L=32.0, rs=1.0, n_realizations=3, thresholds=(0.0,),
                                model=PowerSpectrumModel(amplitude=1.0, alpha=0.0))
        assert ints == floats
        assert ints.manifest_hash() == floats.manifest_hash()
        assert ints.to_manifest() == floats.to_manifest()
        assert type(ints.L) is float and type(ints.model.amplitude) is float

    def test_numpy_scalar_config_runs_and_writes(self, tmp_path):
        cfg = EnsembleConfig(
            side=np.int64(32), L=np.float32(32), rs=np.float64(1), n_realizations=np.int32(3),
            thresholds=np.array([-1.0, 0.0]), master_seed=np.int64(5),
            model=PowerSpectrumModel(alpha=np.float32(0.5)),
        )
        plain = EnsembleConfig(side=32, L=32.0, rs=1.0, n_realizations=3, thresholds=(-1.0, 0.0),
                               master_seed=5, model=PowerSpectrumModel(alpha=0.5))
        assert cfg.manifest_hash() == plain.manifest_hash()
        result = run_ensemble(cfg, workers=1)
        ens.write_summary_csv(result, tmp_path / "summary.csv")
        ens.write_manifest(result, tmp_path / "manifest.json")
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["manifest_hash"] == plain.manifest_hash()
        assert config_from_manifest(manifest) == plain

    def test_written_manifest_records_environment(self, tmp_path, quick_result):
        path = tmp_path / "manifest.json"
        ens.write_manifest(quick_result, path)
        manifest = json.loads(path.read_text())
        env = manifest["environment"]
        assert set(env) == {"fieldtopo", "python", "numpy", "scipy", "fft"}
        assert env["numpy"] == np.__version__ and env["fft"] == "numpy.fft"
        again = config_from_manifest(manifest)
        assert again == quick_result.config
        assert again.manifest_hash() == manifest["manifest_hash"]
        assert manifest["manifest_hash"] == quick_result.config.manifest_hash()


class InProcessPool:
    """Stands in for ProcessPoolExecutor: records its size, maps in this process."""

    def __init__(self, max_workers, sizes):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


class TestWorkers:
    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        sizes = []
        monkeypatch.setattr(ens, "ProcessPoolExecutor", lambda max_workers: InProcessPool(
            max_workers, sizes))
        return sizes

    @pytest.mark.parametrize(
        "workers, cpus, expected",
        [
            (100_000, 64, [3]),  # never more processes than realizations
            (100_000, 2, [2]),  # nor than CPUs
            (2, 64, [2]),
            (100_000, None, []),  # CPU count unknown: no pool
            (1, 64, []),
        ],
    )
    def test_pool_size(self, monkeypatch, pool_sizes, workers, cpus, expected):
        monkeypatch.setattr(ens.os, "cpu_count", lambda: cpus)
        cfg = quick_config(side=32, L=32.0, n_realizations=3, thresholds=(0.0,))
        result = run_ensemble(cfg, workers=workers)
        assert pool_sizes == expected
        serial = [ens._realize(cfg, i)["table"] for i in range(3)]
        assert np.array_equal(np.stack(serial)[:, :, 0], result.stats["b0"])

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_fewer_than_one(self, pool_sizes, workers):
        with pytest.raises(ConfigError, match="workers must be >= 1"):
            run_ensemble(quick_config(side=32, L=32.0, n_realizations=2), workers=workers)
        assert pool_sizes == []


class TestRunEnsemble:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_failure_names_realization_seed_and_threshold(self, workers):
        cfg = quick_config(model=PowerSpectrumModel(0.0), n_realizations=2, side=32, L=32.0)
        # the flat field fails at the first threshold, with its own error type
        with pytest.raises(DegenerateFieldError) as exc:
            run_ensemble(cfg, workers=workers)
        assert str(exc.value).startswith("realization 0, seed (99, 0), nu = -1.0: sigma0 = 0.0")

    def test_flat_field_has_no_measured_rc(self):
        # a fixed sigma lets the flat field through, but sigma_1 = 0 gives no r_c
        cfg = quick_config(model=PowerSpectrumModel(0.0), n_realizations=2, side=32, L=32.0,
                           sigma_mode=1.0, thresholds=(-2.0, 0.0, 2.0))
        with pytest.raises(DegenerateFieldError, match="sigma_1 = 0"):
            run_ensemble(cfg).r_c_measured

    def test_failure_before_the_thresholds_names_no_nu(self):
        cfg = quick_config(model=PowerSpectrumModel(1e308), n_realizations=2, side=32, L=32.0)
        with pytest.raises(DomainError, match=r"^realization 0, seed \(99, 0\): the field"):
            run_ensemble(cfg)

    def test_two_realization_means_exact(self):
        cfg = quick_config(n_realizations=2, side=32, L=32.0)
        res = run_ensemble(cfg)
        for t, summary in enumerate(res.summaries):
            b0 = res.stats["b0"][:, t]
            assert summary.mean["b0"] == pytest.approx(b0.mean())
            assert summary.sd["b0"] == pytest.approx(b0.std(ddof=1))

    def test_summaries_keyed_by_every_statistic(self):
        # 3D, so b2 varies: its moments are kept though summary.csv leaves them out
        res = run_ensemble(quick_config(n_realizations=3, side=32, L=32.0, dim=3))
        for t, summary in enumerate(res.summaries):
            assert list(summary.mean) == list(summary.sd) == [*ens.STAT_NAMES, "bg"]
            for stat, mean in summary.mean.items():
                x = res.stats[stat][:, t]
                assert mean == pytest.approx(x.mean())
                assert summary.sd[stat] == pytest.approx(x.std(ddof=1))
        assert any(s.mean["b2"] > 0 for s in res.summaries)

    def test_mean_chi_vanishes_at_zero(self, quick_result):
        s = quick_result.summary_at(0.0)
        boundary = quick_result.config.L / (
            math.sqrt(2) * math.pi * quick_result.r_c_measured
        )
        # the clipped frame contributes a known positive offset ~ L/(sqrt(2) pi r_c)
        assert abs(s.mean["chi"] - boundary - 0.5) <= 3 * s.se("chi") + 1.0

    def test_variance_identities(self, quick_result):
        for s in quick_result.summaries:
            lhs = s.sd["chi"]**2
            rhs = s.sd["b0"]**2 + s.sd["b1"]**2 - 2 * s.cov_b0b1
            assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs), 1.0)
            lhs = s.sd["bsum"]**2
            rhs = s.sd["b0"]**2 + s.sd["b1"]**2 + 2 * s.cov_b0b1
            assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs), 1.0)

    def test_chi_consistency_columns(self, quick_result):
        assert np.array_equal(quick_result.stats["chi"], quick_result.stats["chi_cell"])
        assert np.array_equal(
            quick_result.stats["chi"],
            quick_result.stats["b0"] - quick_result.stats["b1"],
        )
        assert np.array_equal(
            quick_result.stats["bsum"],
            quick_result.stats["b0"] + quick_result.stats["b1"],
        )

    def test_mj_tables_match_table_columns(self, quick_result):
        assert set(quick_result.stats) == set(TABLE_COLUMNS)
        for t, table in enumerate(quick_result.mj_tables):
            jmax = quick_result.stats["jmax"][:, t]
            assert table.shape == (quick_result.config.n_realizations, jmax.max() + 1)
            assert np.array_equal(table.sum(axis=1), quick_result.stats["b0"][:, t])
            j = np.arange(table.shape[1])
            assert np.array_equal(table @ j, quick_result.stats["b1"][:, t])
            populated = table > 0
            assert np.array_equal((populated * j).max(axis=1), jmax)

    @pytest.mark.parametrize("dim, side, rs", [(2, 64, 2.0), (2, 64, 0.0), (3, 32, 1.5)])
    def test_one_synthesis_and_one_moments_pass(self, monkeypatch, dim, side, rs):
        calls = []
        for name in ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
                     "fftn", "ifftn", "rfftn", "irfftn"):
            original = getattr(np.fft, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        ens._realize(quick_config(side=side, L=float(side), dim=dim, rs=rs), 0)
        # the inverse runs axis by axis in place: one ifft per leading axis, then irfft
        expected = {
            2: ["rfftn", "ifft", "irfft", "rfftn"],
            3: ["rfftn", "ifft", "ifft", "irfft", "rfftn"],
        }
        assert calls == expected[dim]

    def test_worker_count_invariance(self):
        cfg = quick_config(n_realizations=8)
        serial = run_ensemble(cfg, workers=1)
        parallel = run_ensemble(cfg, workers=2)
        for key in serial.stats:
            assert np.array_equal(serial.stats[key], parallel.stats[key])
        assert np.array_equal(serial.sigma0s, parallel.sigma0s)

    def test_background_count_recorded(self, quick_result):
        bg = quick_result.stats["bg"]
        assert bg.shape == quick_result.stats["b0"].shape
        # every hole is a background component; the frame-cut exterior adds more
        assert (bg >= quick_result.stats["b1"]).all()
        for t, s in enumerate(quick_result.summaries):
            assert s.mean["bg"] == pytest.approx(bg[:, t].mean())
            assert s.sd["bg"] == pytest.approx(bg[:, t].std(ddof=1))
        assert quick_result.spectrum_at(3, 1.0).n_background == bg[3, 2]

    @pytest.mark.parametrize("realization", [-1, 40])
    def test_spectrum_index_outside_ensemble_rejected(self, quick_result, realization):
        with pytest.raises(DomainError, match=r"not in \[0, 40\)"):
            quick_result.spectrum_at(realization, 1.0)

    def test_coefficient_moments_give_summary_moments(self, quick_result):
        # b0 = 1.m and b1 = j.m, so each summary moment is a form in (mean, C)
        for s in quick_result.summaries:
            mean, cov = quick_result.coefficient_moments(s.nu)
            j = np.arange(mean.size)
            one = np.ones(mean.size)
            assert mean @ one == pytest.approx(s.mean["b0"], rel=1e-9)
            assert mean @ j == pytest.approx(s.mean["b1"], rel=1e-9)
            totals = {name: total for name, (total, _) in variance_split(cov).items()}
            expected = {stat: s.sd[stat] ** 2 for stat in STATISTICS}
            assert totals == pytest.approx({**expected, "cov_b0b1": s.cov_b0b1}, rel=1e-9)

    def test_coefficient_moments_unknown_threshold(self, quick_result):
        with pytest.raises(DomainError):
            quick_result.coefficient_moments(0.25)

    def test_histograms_cover_all_realizations(self, quick_result, tmp_path):
        ens.write_hist_csvs(quick_result, tmp_path)
        for nu in quick_result.config.thresholds:
            for stat in ("b0", "b1", "chi", "bsum"):
                path = tmp_path / f"hist_{stat}_{nu:.12g}.csv"
                _, header, *rows = path.read_text().splitlines()
                assert header == "bin,count"
                total = sum(int(row.split(",")[1]) for row in rows)
                assert total == quick_result.config.n_realizations

    def test_samples_accessor(self, quick_result):
        x = quick_result.samples("b0", 1.0)
        assert x.shape == (40,)
        with pytest.raises(DomainError):
            quick_result.samples("b0", 0.25)
        with pytest.raises(DomainError):
            quick_result.samples("nope", 1.0)

    @pytest.mark.parametrize("stat", [["b0"], None, 3, b"b0"], ids=["list", "none", "int", "bytes"])
    def test_samples_statistic_must_be_text(self, quick_result, stat):
        with pytest.raises(DomainError, match="stat must be str"):
            quick_result.samples(stat, 1.0)

    @pytest.mark.parametrize(
        "read, message",
        [
            (lambda r: r.samples("b0", math.nan), "threshold nan not in"),
            (lambda r: r.spectrum_at(1, math.nan), "threshold nan not in"),
            (lambda r: r.samples("b0", "0"), "nu must be float"),
            (lambda r: r.summary_at(None), "nu must be float"),
            (lambda r: r.spectrum_at(1.5, 0.0), "realization must be int"),
            (lambda r: r.spectrum_at(True, 0.0), "realization must be int"),
        ],
        ids=["nan-samples", "nan-spectrum", "text-nu", "none-nu", "float-index", "bool-index"],
    )
    def test_threshold_or_index_not_in_the_ensemble_rejected(self, quick_result, read, message):
        # NaN is within 1e-9 of no threshold, so it must not read as the first one
        with pytest.raises(DomainError, match=message):
            read(quick_result)

    def test_sd_ordering_follows_covariance_sign(self, quick_result):
        # algebraic consequence of the variance identities
        for s in quick_result.summaries:
            if s.cov_b0b1 < 0:
                quad = math.hypot(s.sd["b0"], s.sd["b1"])
                assert s.sd["chi"] > quad
                assert s.sd["bsum"] < quad


class TestAnalyticChi:
    def test_zero_at_zero(self):
        assert analytic_chi_gaussian(0.0, 1.0) == 0.0

    def test_reference_value(self):
        expected = math.exp(-0.5) / (4 * math.sqrt(2) * math.pi**1.5)
        assert analytic_chi_gaussian(1.0, 1.0) == pytest.approx(expected, rel=1e-12)
        assert analytic_chi_gaussian(1.0, 1.0) == pytest.approx(0.019257, rel=1e-4)

    def test_antisymmetric(self):
        for nu in (0.3, 1.7, 2.5):
            assert analytic_chi_gaussian(-nu, 2.0) == -analytic_chi_gaussian(nu, 2.0)

    def test_amplitude_scale(self):
        assert analytic_chi_amplitude(2.0) == pytest.approx(analytic_chi_amplitude(1.0) / 4)
        for r_c in (0.0, -1.0, math.nan, math.inf, 1e-200):  # 1e-200 squares to 0
            with pytest.raises(DomainError, match="r_c must be positive and finite"):
                analytic_chi_amplitude(r_c)
        for nu in (math.nan, math.inf):
            with pytest.raises(DomainError, match="nu must be finite"):
                analytic_chi_gaussian(nu, 1.0)
        with pytest.raises(DomainError):
            expected_chi(1.0, math.inf, 10.0)


class TestExpectedChi:
    def test_full_and_empty_window_limits(self):
        # far below every value the set is the whole square (chi 1); far above, empty
        for r_c, L in ((1.0, 10.0), (4.0, 512.0)):
            assert expected_chi(-40.0, r_c, L) == pytest.approx(1.0, abs=1e-12)
            assert expected_chi(40.0, r_c, L) == pytest.approx(0.0, abs=1e-12)

    def test_per_area_tends_to_area_only_density(self):
        for nu in (-2.0, -0.5, 1.0, 1.5):
            rel = [
                abs(expected_chi(nu, 3.0, L) / L**2 / analytic_chi_gaussian(nu, 3.0) - 1)
                for L in (1e2, 1e4, 1e6)
            ]
            assert rel[0] > rel[1] > rel[2]
            assert rel[2] < 1e-4

    def test_matches_boundary_corrected_formula(self):
        # the inline formula of the acceptance suite's C1 diagnostic
        r_c, L = 4.2, 512.0
        for nu in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0):
            rho1 = math.exp(-0.5 * nu * nu) / (2.0 * math.sqrt(2.0) * math.pi * r_c)
            inline = analytic_chi_gaussian(nu, r_c) + (2 * L * rho1 + norm.sf(nu)) / L**2
            assert expected_chi(nu, r_c, L) / L**2 == pytest.approx(inline, rel=1e-12)

    def test_domain(self):
        for nu, r_c, L in ((1.0, 0.0, 10.0), (1.0, 1.0, 0.0), (1.0, 1.0, -5.0),
                           (1.0, 1.0, math.inf), (math.inf, 1.0, 10.0),
                           (math.nan, 1.0, 10.0), (1.0, 1e-200, 10.0),
                           (0.0, 1.0, 1e200), (-1.0, 1.0, 1e160)):
            with pytest.raises(DomainError):
                expected_chi(nu, r_c, L)


class TestMjInequality:
    """The b0-b1 anti-correlation in the m_j covariance, split by `variance_split`."""

    def test_single_j_fails(self):
        # one populated j has no cross-j term: Cov(b0, b1) = j var(m_j) >= 0
        split = variance_split(np.diag([0.0, 0.0, 1.5]))
        assert split["cov_b0b1"] == pytest.approx((3.0, 3.0))
        assert split["b1"] == pytest.approx((6.0, 6.0))

    def test_anticorrelated_two_j_negative(self):
        # m_0 = const - 2 m_1: var 4 and 1, covariance -2 (every sum is exact)
        split = variance_split(np.array([[4.0, -2.0], [-2.0, 1.0]]))
        assert split == {
            "b0": (1.0, 5.0), "b1": (1.0, 1.0), "chi": (4.0, 4.0), "bsum": (0.0, 8.0),
            "cov_b0b1": (-1.0, 1.0),
        }

    def test_gaussian_ensemble_negative_at_minus_one(self, quick_result):
        _, cov = quick_result.coefficient_moments(-1.0)
        total, independent = variance_split(cov)["cov_b0b1"]
        assert total < 0 <= independent

    def test_matches_loop_over_populated_j(self, quick_result):
        for t, nu in enumerate(quick_result.config.thresholds):
            table = quick_result.mj_tables[t]
            expected = dict.fromkeys((*STATISTICS, "cov_b0b1"), 0.0)
            for j in np.flatnonzero(table.any(axis=0)).tolist():
                var_j = float(table[:, j].var(ddof=1))
                for name, w2 in (("b0", 1), ("b1", j * j), ("chi", (1 - j) ** 2),
                                 ("bsum", (1 + j) ** 2), ("cov_b0b1", j)):
                    expected[name] += w2 * var_j
            _, cov = quick_result.coefficient_moments(nu)
            independent = {name: part for name, (_, part) in variance_split(cov).items()}
            assert independent == pytest.approx(expected, rel=1e-12)
            assert independent["cov_b0b1"] >= 0

    def test_empty_moments_rejected(self):
        with pytest.raises(DomainError, match="non-empty"):
            variance_split(np.zeros((0, 0)))

    @pytest.mark.parametrize(
        "cov", [np.ones(2), np.ones((2, 3)), np.ones((2, 2, 2))], ids=["1-D", "2x3", "3-D"]
    )
    def test_non_square_rejected(self, cov):
        with pytest.raises(DomainError, match="non-empty, square, finite 2-D array"):
            variance_split(cov)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_moments_rejected(self, bad):
        cov = np.eye(2)
        cov[0, 1] = bad
        with pytest.raises(DomainError, match="finite"):
            variance_split(cov)

    def test_3d_result_rejected(self):
        # betti3d measures no m_j, so a 3D result stores no m_j table
        res = run_ensemble(quick_config(n_realizations=2, side=32, L=32.0, dim=3, thresholds=(0.0,)))
        assert res.stats["b0"].any()
        assert res.mj_tables == []
        with pytest.raises(DomainError, match="3D result"):
            res.coefficient_moments(0.0)
        with pytest.raises(DomainError, match="3D result"):
            res.spectrum_at(0, 0.0)


class TestBinomialFits:
    def test_high_nu_algebra(self):
        # arrange mu = 16 via area * analytic density, then sigma^2 = 4
        r_c = 1.0
        nu = 1.0
        area = 16.0 / analytic_chi_gaussian(nu, r_c)
        fit = fit_binomial_chi(nu, 2.0, r_c, area)
        assert fit.valid
        assert fit.N_fit == pytest.approx(16.0 * 16.0 / 12.0)
        assert fit.p_fit == pytest.approx(0.75)

    def test_high_nu_poisson_limit(self):
        r_c = 1.0
        nu = 1.0
        area = 16.0 / analytic_chi_gaussian(nu, r_c)
        fit = fit_binomial_chi(nu, 4.0, r_c, area)  # sigma^2 == mu
        assert fit.valid and fit.N_fit == N_TRIALS_CAP
        assert "poisson" in fit.note
        assert fit.p_fit == pytest.approx(16.0 / N_TRIALS_CAP)

    def test_high_nu_super_poisson_invalid(self):
        r_c = 1.0
        nu = 1.0
        area = 16.0 / analytic_chi_gaussian(nu, r_c)
        fit = fit_binomial_chi(nu, 5.0, r_c, area)
        assert not fit.valid

    def test_low_nu_mirrors_high(self):
        r_c, nu = 1.0, 1.5
        area = 100.0 / analytic_chi_gaussian(nu, r_c)
        high = fit_binomial_chi(nu, 5.0, r_c, area)
        low = fit_binomial_chi(-nu, 5.0, r_c, area)
        assert low.N_fit == pytest.approx(high.N_fit)
        assert low.p_fit == pytest.approx(high.p_fit)
        # mu = 100, sigma^2 = 25: N = 400/3, p = 0.75
        assert low.N_fit == pytest.approx(400.0 / 3.0)
        assert low.p_fit == pytest.approx(0.75)

    def test_non_finite_tail_mean_rejected(self):
        # r_c = 1e-160 overflows the analytic mean to inf
        with pytest.raises(DomainError, match="mean must be finite"):
            fit_binomial_chi(1.0, 1.0, 1e-160, 1.0)

    @pytest.mark.parametrize(
        "fit",
        [
            lambda: fit_binomial_chi(1.0, 1.0, 1.0, 1e308),
            lambda: fit_binomial_moments(2e9, 2e9),
            # squaring this mean would overflow float64 with a RuntimeWarning
            lambda: fit_binomial_moments(np.float64(1e200), np.float64(1.0)),
        ],
        ids=["tail", "poisson-limit", "float64-overflow"],
    )
    def test_capped_fit_needing_p_above_one_invalid(self, fit):
        # the mean exceeds N_TRIALS_CAP, so p = mean / N_TRIALS_CAP would exceed 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit()
        assert not fit.valid and fit.N_fit == N_TRIALS_CAP and fit.p_fit > 1
        assert fit.note == "mean above the N cap"

    def test_regime_preconditions(self):
        for nu in (0.0, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="finite nu != 0"):
                fit_binomial_chi(nu, 1.0, 1.0, 100.0)
        for area in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="area must be positive and finite"):
                fit_binomial_chi(1.0, 1.0, 1.0, area)

    @pytest.mark.parametrize("sd", [0.0, -1.0, math.nan])
    def test_non_positive_sd_rejected(self, sd):
        with pytest.raises(DomainError):
            fit_binomial_chi(1.0, sd, 1.0, 100.0)

    def test_compute_fits_tails_and_middle(self):
        result = run_ensemble(
            quick_config(side=32, L=32.0, rs=1.0, n_realizations=100, thresholds=(-2.0, 0.0, 2.0)),
            workers=1,
        )
        rows = inference.compute_fits(result)
        assert [(r.nu, r.statistic, r.regime) for r in rows] == [
            (-2.0, "chi", "low_negative"),
            *[(0.0, stat, "intermediate") for stat in ("b0", "b1", "chi", "bsum")],
            (2.0, "chi", "high_positive"),
        ]
        for row, sign in [(rows[0], -1), (rows[-1], 1)]:
            nu = row.nu
            fit = fit_binomial_chi(nu, result.summary_at(nu).sd["chi"], result.r_c_measured,
                                   result.config.area)
            assert row.fit == fit
            cmp = pdf_compare(sign * result.samples("chi", nu), fit if fit.valid else None)
            assert (row.tv_binomial, row.tv_gaussian) == (cmp.tv_binomial, cmp.tv_gaussian)

        # 3D: the tail inversion's mean is the 2D density (times L^3 here), so
        # the tail rows are refused, and chi is compared as it is, not mirrored
        result = run_ensemble(
            quick_config(side=32, L=32.0, dim=3, n_realizations=100, thresholds=(-2.5, 0.0, 2.5)),
            workers=1,
        )
        rows = inference.compute_fits(result)
        assert [(r.regime, r.fit.valid) for r in (rows[0], rows[-1])] == [
            ("low_negative", False), ("high_positive", False),
        ]
        for row in (rows[0], rows[-1]):
            assert (row.fit.N_fit, row.fit.p_fit, row.fit.note) == (0.0, 0.0, "no 3D analytic chi")
            cmp = pdf_compare(result.samples("chi", row.nu), None)
            assert (row.tv_binomial, row.tv_gaussian) == (None, cmp.tv_gaussian)

    def test_moments_algebra(self):
        fit = fit_binomial_moments(8.0, 4.0)
        assert fit.valid and fit.p_fit == pytest.approx(0.5)
        assert fit.N_fit == pytest.approx(16.0)
        assert fit.N_round == 16

    def test_moments_zero_mean_invalid(self):
        assert not fit_binomial_moments(0.0, 1.0).valid

    def test_moments_super_poisson_invalid(self):
        assert not fit_binomial_moments(5.0, 5.5).valid

    @pytest.mark.parametrize(
        "mean, variance, note",
        [(0.5, 0.1, "N below one trial"), (5.0, -1.0, "negative variance")],
    )
    def test_moments_without_binomial_solution_invalid(self, mean, variance, note):
        fit = fit_binomial_moments(mean, variance)
        assert not fit.valid and fit.note == note

    @pytest.mark.parametrize(
        "mean, variance, message",
        [
            (math.nan, 1.0, "mean must be finite"),
            (math.inf, 1.0, "mean must be finite"),
            (-math.inf, 1.0, "mean must be finite"),
            (5.0, math.nan, "variance must not be NaN"),
        ],
        ids=["nan", "inf", "-inf", "nan-variance"],
    )
    def test_moments_non_finite_mean_rejected(self, mean, variance, message):
        with pytest.raises(DomainError, match=message):
            fit_binomial_moments(mean, variance)


class TestPdfCompare:
    def test_synthetic_binomial_self_consistency(self):
        rng = np.random.default_rng(314)
        samples = rng.binomial(16, 0.5, size=100_000)
        fit = fit_binomial_moments(float(samples.mean()), float(samples.var(ddof=1)))
        assert fit.valid
        cmp = pdf_compare(samples, fit)
        assert cmp.tv_binomial is not None and cmp.tv_binomial < 0.01

    def test_constant_samples_degenerate(self):
        cmp = pdf_compare(np.full(200, 7), None)
        assert cmp.tv_binomial is None
        assert math.isfinite(cmp.tv_gaussian)
        assert cmp.tv_gaussian == pytest.approx(0.0, abs=1e-12)

    def test_invalid_fit_skips_binomial(self):
        samples = np.arange(150)
        fit = fit_binomial_moments(0.0, 1.0)
        cmp = pdf_compare(samples, fit if fit.valid else None)
        assert cmp.tv_binomial is None

    def test_poisson_limit_fit_keeps_bins_at_the_data(self, tmp_path):
        # the fit's N is N_TRIALS_CAP: bins up to N would take ~8 GB, so a child
        # interpreter capped at 3 GiB of address space turns that into a MemoryError
        code = f"""
import json, resource
resource.setrlimit(resource.RLIMIT_AS, ({3 << 30}, {3 << 30}))
import numpy as np
from scipy.stats import poisson
from fieldtopo import fit_binomial_moments, pdf_compare
samples = np.random.default_rng(5).poisson(5, 500)
fit = fit_binomial_moments(5.0, 5.0)
cmp = pdf_compare(samples, fit)
hi = int(cmp.bins[-1])
emp = np.bincount(samples, minlength=hi + 1) / samples.size
tv = 0.5 * (np.abs(emp - poisson.pmf(np.arange(hi + 1), 5.0)).sum() + poisson.sf(hi, 5.0))
print(json.dumps({{"N": fit.N_fit, "bins": len(cmp.bins), "tv": cmp.tv_binomial,
                  "tv_poisson": float(tv)}}))
"""
        src = Path(ens.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        out = json.loads(proc.stdout.splitlines()[-1])
        assert out["N"] == N_TRIALS_CAP and out["bins"] < 100
        assert math.isfinite(out["tv"])
        assert out["tv"] == pytest.approx(out["tv_poisson"], abs=1e-6)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_samples_rejected(self, bad):
        samples = np.ones(150)
        samples[7] = bad
        with pytest.raises(DomainError, match="finite samples"):
            pdf_compare(samples, None)

    @pytest.mark.parametrize("bad", [1e300, -1e300, 2.0**63])
    def test_samples_beyond_int64_rejected(self, bad):
        # rounding them to int64 would wrap them onto bins near -9.2e18
        with pytest.raises(DomainError, match="int64 range"):
            pdf_compare(np.full(150, bad), None)

    @pytest.mark.parametrize("big", [2.0**63 - 1024, 1e12])
    def test_bin_span_beyond_cap_rejected(self, big):
        # in the int64 range, but np.arange would fail or ask for terabytes
        with pytest.raises(DomainError, match="bins"):
            pdf_compare(np.full(150, big), None)

    @pytest.mark.parametrize("shape", [(150, 2), (1, 150), ()])
    def test_samples_not_1d_rejected(self, shape):
        with pytest.raises(DomainError, match="1-D samples"):
            pdf_compare(np.ones(shape), None)

    def test_needs_hundred_samples(self):
        with pytest.raises(DomainError):
            pdf_compare(np.ones(99), None)

    def test_pmf_normalized(self):
        rng = np.random.default_rng(2)
        cmp = pdf_compare(rng.poisson(5.0, size=500), None)
        assert cmp.pmf_empirical.sum() == pytest.approx(1.0)


def manual_summary(nu, mean_b0, mean_bg, n=100, sd=1.0):
    # b1 is set off the dual on purpose, so a check that mirrored b1 instead
    # of the background count would fail these tests
    return ThresholdSummary(
        nu=nu, n_realizations=n,
        mean={"b0": mean_b0, "b1": 0.0, "chi": 0.0, "bsum": 0.0, "bg": mean_bg},
        sd={"b0": sd, "b1": sd, "chi": sd, "bsum": sd, "bg": sd}, cov_b0b1=0.0,
    )


class TestDualityCheck:
    def test_requires_symmetric_grid(self):
        summaries = [manual_summary(nu, 10.0, 10.0) for nu in (-1.0, 0.0, 0.5)]
        with pytest.raises(ConfigError):
            duality_check(summaries)

    def test_symmetric_rule(self):
        assert inference.symmetric((1.0, -1.0, 0.0))
        assert inference.symmetric((-2.0, 2.0 + 1e-10))
        assert not inference.symmetric((-1.0, 0.0, 0.5))
        # within numpy's default rtol of 1e-5, but not within 1e-9
        assert not inference.symmetric((-100.0, 100.0009))
        assert not inference.symmetric((-3.0, 0.0, 3.00002))

    def test_symmetric_rule_near_the_float_limit(self):
        # mirrored pairs near +-1e308 must not overflow on their way to a verdict
        with np.errstate(all="raise"):
            assert not inference.symmetric((-1e308, 1e308, 1.5e308))
            assert inference.symmetric((-1.7e308, 0.0, 1.7e308))

    def test_perfect_duality_passes(self):
        for sd in (1.0, 0.0):  # sd = 0: no standard error, and no excess either
            summaries = [manual_summary(nu, 10.0, 10.0, sd=sd) for nu in (-1.0, 0.0, 1.0)]
            rows = duality_check(summaries)
            assert all(r.ok and r.z == 0.0 for r in rows)
            assert [r.nu for r in rows] == [-1.0, 0.0, 1.0]

    def test_mirrored_lookup(self):
        for sd in (1.0, 0.0):
            summaries = [
                manual_summary(-1.0, mean_b0=3.0, mean_bg=20.0, sd=sd),
                manual_summary(0.0, mean_b0=11.0, mean_bg=11.0, sd=sd),
                manual_summary(1.0, mean_b0=20.4, mean_bg=2.0, sd=sd),
            ]
            rows = duality_check(summaries)
            by_nu = {r.nu: r for r in rows}
            # b0(1) = 20.4 against the background count at -1, 20.0: within
            # the 2% allowance of 0.408
            assert by_nu[1.0].diff == pytest.approx(0.4)
            assert by_nu[1.0].mean_bg_mirror == 20.0
            assert by_nu[1.0].ok and by_nu[1.0].z == 0.0
            # b0(-1) = 3 against bg(1) = 2: 1.0 apart with sys 0.06, se sqrt(2)/10;
            # with sd = 0 there is no standard error, so the excess is infinitely many
            assert by_nu[-1.0].diff == pytest.approx(1.0)
            assert not by_nu[-1.0].ok
            z = math.inf if sd == 0.0 else pytest.approx(0.94 / math.sqrt(0.02))
            assert by_nu[-1.0].z == z

    def test_single_realization_flagged(self):
        summaries = [manual_summary(0.0, 5.0, 5.0, n=1)]
        rows = duality_check(summaries)
        assert rows[0].flag == "insufficient data"
        assert math.isnan(rows[0].z) and not rows[0].ok


@pytest.fixture(scope="module")
def two_sizes():
    cfgs = [
        quick_config(side=32, L=32.0, rs=1.0, n_realizations=60,
                     thresholds=(-6.0, 1.0)),
        quick_config(side=64, L=64.0, rs=1.0, n_realizations=60,
                     thresholds=(-6.0, 1.0)),
    ]
    return [run_ensemble(c) for c in cfgs]


class TestNormalityTrend:
    def test_rows_and_flags(self, two_sizes):
        rows = normality_trend(two_sizes, statistics=("b0",))
        by_nu = {r.nu: r for r in rows}
        # at nu = -6 the mask is always full: b0 = 1 constantly -> flagged
        assert any("constant" in f for f in by_nu[-6.0].flags)
        assert not by_nu[-6.0].abs_skew_decreasing
        trend = by_nu[1.0]
        assert trend.sides == [32, 64]
        assert all(math.isfinite(s) for s in trend.skewness)

    @staticmethod
    def check_against_scipy(results, rows):
        for row in rows:
            by_side = {r.config.side: r.samples(row.statistic, row.nu) for r in results}
            flags, finite = [], []
            for side, g1, g2 in zip(row.sides, row.skewness, row.excess_kurtosis):
                x = by_side[side].astype(float)
                if np.ptp(x) == 0.0:
                    assert math.isnan(g1) and math.isnan(g2)
                    flags.append(f"constant at side {side}")
                else:
                    assert g1 == float(skew(x))
                    assert g2 == float(kurtosis(x))
                    finite.append(abs(g1))
            assert row.flags == flags
            decreasing = len(finite) == len(row.sides) and all(
                b < a for a, b in zip(finite, finite[1:])
            )
            assert row.abs_skew_decreasing == decreasing

    def test_moments_equal_scipy_on_integer_samples(self):
        rng = np.random.default_rng(20250801)
        results = []
        for side, n in zip((32, 64, 128), (8, 100, 500)):
            skewed, even, flat = rng.geometric(0.3, n), rng.binomial(40, 0.5, n), np.full(n, 3)
            draws = {"b0": rng.poisson(12.0, n), "b1": rng.integers(0, 400, n),
                     "chi": rng.binomial(3, 0.02, n) - 1, "bsum": np.full(n, 7),
                     # constant at one end only; |skewness| falls across the other two
                     "flat_first": {32: flat, 64: skewed, 128: even}[side],
                     "flat_last": {32: skewed, 64: even, 128: flat}[side]}
            results.append(SimpleNamespace(
                config=SimpleNamespace(side=side, dim=2, thresholds=(1.0,)),
                samples=lambda stat, nu, d=draws: d[stat],
            ))
        rows = normality_trend(results, statistics=tuple(draws))
        self.check_against_scipy(results, rows)
        assert any(row.flags for row in rows)  # the constant bsum
        by_stat = {row.statistic: row for row in rows}
        for stat, side in [("flat_first", 32), ("flat_last", 128)]:
            row = by_stat[stat]
            assert row.flags == [f"constant at side {side}"]
            assert not row.abs_skew_decreasing
            finite = [abs(g) for g in row.skewness if not math.isnan(g)]
            assert finite[1] < finite[0]  # so the NaN alone breaks the trend

    def test_moments_equal_scipy_on_an_ensemble(self, two_sizes):
        self.check_against_scipy(two_sizes, normality_trend(two_sizes))

    def test_needs_two_results(self, two_sizes):
        with pytest.raises(ConfigError):
            normality_trend(two_sizes[:1])

    def test_needs_one_dim_and_distinct_sides(self, two_sizes):
        cube = run_ensemble(quick_config(side=32, L=32.0, dim=3, rs=1.0, n_realizations=4,
                                         thresholds=(-6.0, 1.0)))
        for results in ([two_sizes[0], cube], [two_sizes[0], two_sizes[0]]):
            with pytest.raises(ConfigError, match="differ in grid side"):
                normality_trend(results)

    def test_needs_common_grid(self, two_sizes):
        other = run_ensemble(quick_config(side=32, L=32.0, n_realizations=4,
                                          thresholds=(0.0,)))
        with pytest.raises(ConfigError):
            normality_trend([two_sizes[0], other])
