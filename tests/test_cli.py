"""End-to-end checks of the command-line surface and its file formats."""

import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fieldtopo.cli import (
    MAX_SWEEP_THRESHOLDS,
    RunConfig,
    _sweep_thresholds,
    main,
    parse_run_config,
)
from fieldtopo.ensemble import EnsembleConfig, manifest_types
from fieldtopo.errors import ConfigError
from fieldtopo.grf import FieldGrid, save_field
from fieldtopo.spectrum import PowerSpectrumModel


def run_cli(*argv) -> int:
    return main(list(argv))


class TestGen:
    def test_writes_field_and_moments(self, tmp_path, capsys):
        out = tmp_path / "f.bin"
        code = run_cli(
            "gen", "--alpha", "0", "--n", "64", "--boxsize", "64", "--rs", "2",
            "--seed", "7", "--dim", "2", "--out", str(out),
        )
        assert code == 0
        assert out.stat().st_size == 32 + 64 * 64 * 8
        moments = json.loads(capsys.readouterr().out)
        assert set(moments) == {"mean", "sigma0", "sigma1"}
        assert abs(moments["mean"]) < 1e-10
        sidecar = json.loads(out.with_name(out.name + ".json").read_text())
        assert sidecar["seed"] == 7 and sidecar["rs_applied"] == 2.0

    def test_missing_out_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("gen", "--n", "64", "--boxsize", "64")
        assert exc.value.code == 2

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        args = ["gen", "--n", "32", "--boxsize", "32", "--seed", "3"]
        assert run_cli(*args, "--out", str(a)) == 0
        assert run_cli(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_grid_exits_2(self, tmp_path):
        code = run_cli("gen", "--n", "100", "--boxsize", "64",
                       "--out", str(tmp_path / "f.bin"))
        assert code == 2

    @pytest.mark.parametrize("rs", ["-1", "nan", "inf"])
    def test_bad_rs_exits_4(self, tmp_path, rs):
        out = tmp_path / "f.bin"
        code = run_cli("gen", "--n", "32", "--boxsize", "32", "--rs", rs, "--out", str(out))
        assert code == 4
        assert not out.exists()

    def test_unwritable_out_exits_3(self, tmp_path):
        code = run_cli("gen", "--n", "32", "--boxsize", "32",
                       "--out", str(tmp_path / "no" / "such" / "dir" / "f.bin"))
        assert code == 3


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestSweep:
    def test_constant_field_full_and_empty_rows(self, tmp_path):
        values = np.full((32, 32), 0.5)
        save_field(FieldGrid(dim=2, side=32, L=32.0, values=values, seed=0),
                   tmp_path / "const.bin")
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep", "--field", str(tmp_path / "const.bin"), "--nu-min", "-1",
            "--nu-max", "1", "--nu-step", "0.5", "--sigma-mode", "1.0",
            "--out", str(out),
        )
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 5
        below = [r for r in rows if float(r["nu"]) <= 0.5]
        for r in below:  # mask is the whole grid
            assert (r["b0"], r["b1"], r["chi"], r["bsum"]) == ("1", "0", "1", "1")
        beyond = [r for r in rows if float(r["nu"]) > 0.5]
        for r in beyond:  # threshold above the field maximum
            assert (r["b0"], r["b1"], r["chi"], r["bsum"]) == ("0", "0", "0", "0")

    def test_chi_column_consistent(self, tmp_path):
        out = tmp_path / "f.bin"
        run_cli("gen", "--n", "64", "--boxsize", "64", "--rs", "3", "--seed", "5",
                "--out", str(out))
        csv = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--field", str(out), "--nu-min", "-2",
                       "--nu-max", "2", "--nu-step", "0.5", "--out", str(csv)) == 0
        for row in read_rows(csv):
            assert int(row["chi"]) == int(row["b0"]) - int(row["b1"])
            spectrum = json.loads(row["m_spectrum"])
            assert sum(spectrum.values()) == int(row["b0"])

    def test_3d_field_alternating_sum(self, tmp_path):
        out = tmp_path / "f3.bin"
        assert run_cli("gen", "--n", "32", "--boxsize", "32", "--rs", "2", "--seed", "5",
                       "--dim", "3", "--out", str(out)) == 0
        csv = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--field", str(out), "--nu-min", "-2",
                       "--nu-max", "2", "--nu-step", "0.5", "--out", str(csv)) == 0
        rows = read_rows(csv)
        assert len(rows) == 9
        for row in rows:
            b0, b1, b2 = (int(row[k]) for k in ("b0", "b1", "b2"))
            assert int(row["chi"]) == b0 - b1 + b2
            assert int(row["bsum"]) == b0 + b1 + b2
            assert row["m_spectrum"] == "{}" and row["jmax"] == "0"
        assert any(int(r["b2"]) > 0 for r in rows) and any(int(r["b1"]) > 0 for r in rows)

    @pytest.mark.parametrize(
        "bounds, message",
        [
            (["--nu-max", "inf"], "--nu-max must be finite"),
            (["--nu-min=-inf"], "--nu-min must be finite"),
            (["--nu-step", "nan"], "--nu-step must be finite"),
            (["--nu-min=-1e308", "--nu-max", "1e308"], "inf thresholds"),  # span overflows
            (["--nu-min", "0", "--nu-max", "1", "--nu-step", "1e-5"], "100001 thresholds"),
        ],
    )
    def test_unbounded_sweep_exits_2(self, tmp_path, capsys, bounds, message):
        field = tmp_path / "f.bin"
        save_field(FieldGrid(dim=2, side=32, L=32.0, values=np.zeros((32, 32)), seed=0), field)
        out = tmp_path / "x.csv"
        assert run_cli("sweep", "--field", str(field), *bounds, "--out", str(out)) == 2
        assert not out.exists()
        assert message in capsys.readouterr().err

    def test_threshold_count_limit(self):
        top = MAX_SWEEP_THRESHOLDS - 1
        assert len(_sweep_thresholds(0.0, float(top), 1.0)) == MAX_SWEEP_THRESHOLDS
        with pytest.raises(ConfigError, match=f"{MAX_SWEEP_THRESHOLDS + 1} thresholds"):
            _sweep_thresholds(0.0, float(top + 1), 1.0)

    def test_nan_pixel_exits_3(self, tmp_path):
        values = np.zeros((32, 32))
        values[4, 4] = math.nan
        save_field(FieldGrid(dim=2, side=32, L=32.0, values=values, seed=0),
                   tmp_path / "nan.bin")
        out = tmp_path / "x.csv"
        code = run_cli("sweep", "--field", str(tmp_path / "nan.bin"), "--out", str(out))
        assert code == 3
        assert not out.exists()

    def test_mask_input_mode_annulus(self, tmp_path):
        bits = np.zeros((5, 5))
        bits[1:4, 1:4] = 1.0
        bits[2, 2] = 0.0
        save_field(FieldGrid(dim=2, side=5, L=5.0, values=bits, seed=0),
                   tmp_path / "annulus.bin")
        out = tmp_path / "mask.csv"
        code = run_cli("sweep", "--field", str(tmp_path / "annulus.bin"),
                       "--mask", "--out", str(out))
        assert code == 0
        (row,) = read_rows(out)
        assert (row["b0"], row["b1"], row["chi"], row["bsum"]) == ("1", "1", "0", "2")

    def test_corrupt_magic_exits_3(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"JUNK" + b"\x00" * 60)
        code = run_cli("sweep", "--field", str(bad), "--out", str(tmp_path / "x.csv"))
        assert code == 3

    def test_bad_sigma_mode_exits_2(self, tmp_path):
        out = tmp_path / "f.bin"
        run_cli("gen", "--n", "32", "--boxsize", "32", "--out", str(out))
        code = run_cli("sweep", "--field", str(out), "--sigma-mode", "abc",
                       "--out", str(tmp_path / "x.csv"))
        assert code == 2

    def test_malformed_sidecar_exits_3(self, tmp_path):
        out = tmp_path / "f.bin"
        run_cli("gen", "--n", "32", "--boxsize", "32", "--out", str(out))
        out.with_name(out.name + ".json").write_text("{not json")
        code = run_cli("sweep", "--field", str(out), "--out", str(tmp_path / "x.csv"))
        assert code == 3

    def test_bad_range_exits_2(self, tmp_path):
        out = tmp_path / "f.bin"
        run_cli("gen", "--n", "32", "--boxsize", "32", "--out", str(out))
        code = run_cli("sweep", "--field", str(out), "--nu-min", "2",
                       "--nu-max", "-2", "--out", str(tmp_path / "x.csv"))
        assert code == 2


CONFIG_TEXT = """
# smoke ensemble
amplitude = 1.0
alpha = 0.0
n = 32
boxsize = 32
dim = 2
rs = 1.0
n_realizations = {n_real}
thresholds = {thresholds}
master_seed = 11
sigma_mode = sample
workers = 1
"""


class TestEnsembleCommand:
    def write_config(self, tmp_path, n_real=2, thresholds="-1, 0, 1"):
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG_TEXT.format(n_real=n_real, thresholds=thresholds))
        return path

    def test_smoke_outputs(self, tmp_path):
        cfg = self.write_config(tmp_path)
        outdir = tmp_path / "out"
        assert run_cli("ensemble", "--config", str(cfg),
                       "--output-dir", str(outdir)) == 0
        summary = (outdir / "summary.csv").read_text().splitlines()
        assert summary[0].startswith("# manifest_hash=")
        header = summary[1].split(",")
        assert header[:3] == ["nu", "n", "area"]
        assert len(summary) == 2 + 3  # hash, header, one row per threshold
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["n_realizations"] == 2
        assert summary[0].endswith(manifest["manifest_hash"])
        fits = (outdir / "fits.csv").read_text().splitlines()
        assert fits[1].split(",") == ["nu", "statistic", "regime", "N", "p",
                                      "valid", "tv_binomial", "tv_gaussian"]
        assert (outdir / "hist_b0_1.csv").exists()
        assert (outdir / "duality.csv").exists()
        assert not (outdir / "PARTIAL_OUTPUT").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = self.write_config(tmp_path, n_real=4)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run_cli("ensemble", "--config", str(cfg), "--output-dir", str(out1),
                       "--workers", "1") == 0
        assert run_cli("ensemble", "--config", str(cfg), "--output-dir", str(out2),
                       "--workers", "2") == 0
        assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()
        assert (out1 / "fits.csv").read_bytes() == (out2 / "fits.csv").read_bytes()

    def test_chi_fit_invalid_at_zero(self, tmp_path):
        cfg = self.write_config(tmp_path, n_real=20, thresholds="0")
        outdir = tmp_path / "zero"
        assert run_cli("ensemble", "--config", str(cfg),
                       "--output-dir", str(outdir)) == 0
        rows = [line.split(",") for line in
                (outdir / "fits.csv").read_text().splitlines()[2:]]
        chi_rows = [r for r in rows if r[1] == "chi"]
        assert chi_rows and all(r[5] == "0" for r in chi_rows)

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus = 1\n")
        assert run_cli("ensemble", "--config", str(cfg),
                       "--output-dir", str(tmp_path / "o")) == 2

    def test_partial_marker_on_failure(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        # a flat field cannot be thresholded: the run fails after outdir creation
        cfg.write_text("amplitude = 0\nn = 32\nboxsize = 32\nthresholds = 0\n")
        outdir = tmp_path / "o"
        code = run_cli("ensemble", "--config", str(cfg), "--output-dir", str(outdir))
        assert code == 4
        assert (outdir / "PARTIAL_OUTPUT").exists()

    @pytest.mark.parametrize(
        "line",
        ["dim = 4", "n = 33", "boxsize = 0", "sigma_mode = -1", "n = abc", "amplitude = nan"],
    )
    def test_invalid_value_exits_2_before_output(self, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{line}\nthresholds = 0\n")
        outdir = tmp_path / "o"
        code = run_cli("ensemble", "--config", str(cfg), "--output-dir", str(outdir))
        assert code == 2
        assert not outdir.exists()


class TestStatesCommand:
    def test_n2(self, capsys):
        assert run_cli("states", "--b0", "2", "--b1", "2") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"formula": 2, "vector": 2, "composition": 2,
                           "discrepancy": False}

    def test_n4_discrepancy(self, capsys):
        assert run_cli("states", "--b0", "4", "--b1", "4") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["formula"] == 4 and payload["vector"] == 5
        assert payload["discrepancy"] is True

    def test_list_states(self, capsys):
        assert run_cli("states", "--b0", "2", "--b1", "2", "--list") == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(tuple(s) for s in payload["states"]) == [(0, 2, 0), (1, 0, 1)]

    def test_negative_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("states", "--b0", "-1", "--b1", "2")
        assert exc.value.code == 2

    def test_guard_exits_4(self, capsys):
        assert run_cli("states", "--b0", "45", "--b1", "45") == 4


#: every key a config file accepts
CONFIG_KEYS = (
    ["n", "boxsize", "fwhm"]
    + [k for k in manifest_types() if k not in ("side", "L")]
    + ["output_dir", "workers", "verbosity"]
)

CONFIG_VALUES = st.one_of(
    st.text(max_size=12),
    st.integers().map(str),
    st.floats().map(repr),
    st.lists(st.floats(-5, 5).map(repr), max_size=4).map(" ".join),
    st.sampled_from(["none", "sample", "-1", "0", "nan", "inf"]),
)


class TestRunConfigParsing:
    def test_fwhm_alias(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("fwhm = 4.0\nthresholds = 0\n")
        parsed = parse_run_config(cfg)
        assert parsed.config.rs == pytest.approx(4.0 / math.sqrt(8 * math.log(2)))

    def test_comments_and_whitespace(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# full line comment\n\nn = 64  # trailing comment\n"
                       "thresholds = -1 0 1\n")
        parsed = parse_run_config(cfg)
        assert parsed.config.side == 64
        assert parsed.config.thresholds == (-1.0, 0.0, 1.0)

    def test_every_key(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "amplitude = 2\nalpha = -1\nk_low_cutoff = 0.1\nk_high_cutoff = none\n"
            "n = 64\nboxsize = 100\ndim = 3\nrs = 1.5\nn_realizations = 5\n"
            "thresholds = -1, 1\nmaster_seed = 9\nsigma_mode = 0.5\n"
            "output_dir = out\nworkers = 2\nverbosity = 0\n"
        )
        model = PowerSpectrumModel(amplitude=2.0, alpha=-1.0, k_low_cutoff=0.1)
        assert parse_run_config(cfg) == RunConfig(
            config=EnsembleConfig(
                model=model, side=64, L=100.0, dim=3, rs=1.5, n_realizations=5,
                thresholds=(-1.0, 1.0), master_seed=9, sigma_mode=0.5,
            ),
            output_dir="out", workers=2, verbosity=0,
        )

    def test_file_defaults(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# nothing set\n")
        assert parse_run_config(cfg) == RunConfig(
            config=EnsembleConfig(
                model=PowerSpectrumModel(amplitude=1.0), side=256, L=256.0, dim=2,
                rs=0.0, n_realizations=2, thresholds=(0.0,), master_seed=0,
                sigma_mode="sample",
            ),
            output_dir=".", workers=1, verbosity=1,
        )

    @pytest.mark.parametrize("key", ["side", "L", "model", "schema", "config"])
    def test_non_file_keys_rejected(self, tmp_path, key):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{key} = 64\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_run_config(cfg)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.tuples(st.sampled_from(CONFIG_KEYS), CONFIG_VALUES).map(
                    lambda kv: f"{kv[0]} = {kv[1]}"
                ),
                st.text(max_size=20),
            ),
            max_size=6,
        )
    )
    def test_any_text_parses_or_raises_config_error(self, tmp_path_factory, lines):
        cfg = tmp_path_factory.mktemp("fuzz") / "c.cfg"
        cfg.write_bytes("\n".join(lines).encode("utf-8", "surrogatepass"))
        try:
            parsed = parse_run_config(cfg)
        except ConfigError:
            return
        assert isinstance(parsed, RunConfig)

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("just some words\n")
        with pytest.raises(ConfigError):
            parse_run_config(cfg)
