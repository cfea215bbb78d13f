"""End-to-end checks of the command-line surface and its file formats."""

import csv
import json
import math
import time

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
from fieldtopo.ensemble import TABLE_COLUMNS, EnsembleConfig, manifest_types, run_ensemble
from fieldtopo.errors import ConfigError
from fieldtopo import grf
from fieldtopo.grf import FieldGrid, generate, save_field
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

    def test_negative_seed_is_usage_error(self, tmp_path):
        out = tmp_path / "f.bin"
        with pytest.raises(SystemExit) as exc:
            run_cli("gen", "--n", "32", "--boxsize", "32", "--seed=-1", "--out", str(out))
        assert exc.value.code == 2
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "flags",
        [["--boxsize", "nan"], ["--boxsize", "inf"], ["--boxsize", "1e-300"],
         ["--boxsize", "1e308"], ["--boxsize", "1e200", "--dim", "3"],
         ["--boxsize", "32", "--amplitude", "1e308"], ["--boxsize", "1e-100"]],
    )
    def test_non_finite_field_exits_4_without_dump(self, tmp_path, capsys, flags):
        out = tmp_path / "f.bin"
        assert run_cli("gen", "--n", "32", *flags, "--out", str(out)) == 4
        assert not out.exists()
        assert capsys.readouterr().out == ""

    def test_unallocatable_grid_exits_4_without_dump(self, tmp_path, capsys):
        # numpy refuses (2^30)^3 doubles before allocating anything
        out = tmp_path / "f.bin"
        code = run_cli("gen", "--n", str(2**30), "--dim", "3", "--boxsize", "1",
                       "--out", str(out))
        assert code == 4
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"cannot allocate a 3D grid of side {2**30}" in captured.err

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

    @pytest.mark.parametrize("dim", [2, 3])
    def test_rows_are_the_ensemble_table(self, tmp_path, dim):
        # realization i, dumped and swept at the ensemble's thresholds, gives its
        # row of the per-realization table and, in 2D, its m_j
        config = EnsembleConfig(side=32, L=32.0, dim=dim, rs=2.0, n_realizations=3,
                                thresholds=(-1.0, 0.0, 1.0), master_seed=5)
        result = run_ensemble(config)
        i = 2
        save_field(generate(config.model, config.side, config.L, dim,
                            seed=(config.master_seed, i), rs=config.rs), tmp_path / "f.bin")
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--field", str(tmp_path / "f.bin"), "--nu-min=-1",
                       "--nu-max", "1", "--nu-step", "1", "--sigma-mode", "sample",
                       "--out", str(out)) == 0
        rows = read_rows(out)
        assert [float(r["nu"]) for r in rows] == list(config.thresholds)
        for t, (nu, row) in enumerate(zip(config.thresholds, rows)):
            assert {c: int(row[c]) for c in TABLE_COLUMNS} == {
                c: result.stats[c][i, t] for c in TABLE_COLUMNS}
            assert row["chi_cell"] == row["chi"]
            spectrum = {int(j): m for j, m in json.loads(row["m_spectrum"]).items()}
            m = result.spectrum_at(i, nu).m if dim == 2 else ()
            assert spectrum == {j: c for j, c in enumerate(m) if c}

    @pytest.mark.parametrize(
        "bounds, message",
        [
            (["--nu-max", "inf"], "--nu-max must be finite"),
            (["--nu-min=-inf"], "--nu-min must be finite"),
            (["--nu-step", "nan"], "--nu-step must be finite"),
            (["--nu-min=-1e308", "--nu-max", "1e308"], "inf thresholds"),  # span overflows
            (["--nu-min", "0", "--nu-max", "1", "--nu-step", "1e-5"], "100001 thresholds"),
            (["--nu-step", "0"], "--nu-step must be > 0"),
        ],
    )
    def test_unbounded_sweep_exits_2(self, tmp_path, capsys, bounds, message):
        field = tmp_path / "f.bin"
        save_field(FieldGrid(dim=2, side=32, L=32.0, values=np.zeros((32, 32)), seed=0), field)
        out = tmp_path / "x.csv"
        assert run_cli("sweep", "--field", str(field), *bounds, "--out", str(out)) == 2
        assert not out.exists()
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "nu_min, nu_max, nu_step, count",
        [
            (-3.0, 3.0, 0.7, 9),  # not a whole number of steps: stops at 2.6
            (0.0, 1.0, 0.35, 3),  # stops at 0.7
            (-3.0, 3.0, 0.5, 13),
            (0.0, 1.0, 0.1, 11),
            (-3.0, 3.0, 0.1, 61),  # 6 / 0.1 is just below 60 in floating point
            (-5.0, 1.3, 0.1, 64),  # -5 + 0.1 * 63 rounds to 1.3000000000000007
        ],
    )
    def test_thresholds_stop_at_nu_max(self, nu_min, nu_max, nu_step, count):
        nus = _sweep_thresholds(nu_min, nu_max, nu_step)
        assert len(nus) == count and nus[0] == nu_min
        assert 0 <= nu_max - nus[-1] < nu_step

    def test_threshold_count_limit(self):
        top = MAX_SWEEP_THRESHOLDS - 1
        assert len(_sweep_thresholds(0.0, float(top), 1.0)) == MAX_SWEEP_THRESHOLDS
        with pytest.raises(ConfigError, match=f"{MAX_SWEEP_THRESHOLDS + 1} thresholds"):
            _sweep_thresholds(0.0, float(top + 1), 1.0)

    def test_nan_pixel_exits_3(self, tmp_path):
        # FieldGrid refuses a NaN sample, so the dump is written by hand
        values = np.zeros((32, 32))
        values[4, 4] = math.nan
        (tmp_path / "nan.bin").write_bytes(
            grf._HEADER.pack(grf._MAGIC, grf._VERSION, 2, 32) + values.astype("<f8").tobytes()
        )
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

    def test_mask_m_spectrum_text(self, tmp_path):
        # three blocks, a block with 2 holes and a strip with 12: the keys are
        # j as text, sorted as strings, with the zero entries left out
        bits = np.zeros((32, 32))
        bits[1:4, 1:26] = 1.0
        bits[2, 2:25:2] = 0.0
        bits[6:9, 1:6] = 1.0
        bits[7, [2, 4]] = 0.0
        bits[12, [1, 4, 7]] = 1.0
        save_field(FieldGrid(dim=2, side=32, L=32.0, values=bits, seed=0),
                   tmp_path / "spectrum.bin")
        out = tmp_path / "mask.csv"
        assert run_cli("sweep", "--field", str(tmp_path / "spectrum.bin"),
                       "--mask", "--out", str(out)) == 0
        (row,) = read_rows(out)
        assert (row["b0"], row["b1"], row["jmax"]) == ("5", "14", "12")
        assert row["m_spectrum"] == '{"0": 3, "12": 1, "2": 1}'
        assert out.read_text().splitlines()[1].endswith(',"{""0"": 3, ""12"": 1, ""2"": 1}"')

    def test_corrupt_magic_exits_3(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"JUNK" + b"\x00" * 60)
        code = run_cli("sweep", "--field", str(bad), "--out", str(tmp_path / "x.csv"))
        assert code == 3

    @pytest.mark.parametrize(
        "offset, value, message",
        [(4, 2, "unsupported version 2"), (6, 4, "bad dimension 4")],
    )
    def test_unsupported_header_exits_3(self, tmp_path, capsys, offset, value, message):
        dump = tmp_path / "f.bin"
        save_field(FieldGrid(dim=2, side=32, L=32.0, values=np.ones((32, 32)), seed=0), dump)
        raw = bytearray(dump.read_bytes())
        raw[offset : offset + 2] = value.to_bytes(2, "little")  # a uint16 of the header
        dump.write_bytes(bytes(raw))
        out = tmp_path / "x.csv"
        assert run_cli("sweep", "--field", str(dump), "--out", str(out)) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

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

    def test_sidecar_not_an_object_exits_3(self, tmp_path, capsys):
        out = tmp_path / "f.bin"
        run_cli("gen", "--n", "32", "--boxsize", "32", "--out", str(out))
        out.with_name(out.name + ".json").write_text("[1, 2]")
        code = run_cli("sweep", "--field", str(out), "--out", str(tmp_path / "x.csv"))
        assert code == 3
        assert "malformed sidecar: not a JSON object" in capsys.readouterr().err

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
dim = {dim}
rs = 1.0
n_realizations = {n_real}
thresholds = {thresholds}
master_seed = 11
sigma_mode = sample
workers = 1
"""


class TestEnsembleCommand:
    def write_config(self, tmp_path, n_real=2, thresholds="-1, 0, 1", dim=2):
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG_TEXT.format(n_real=n_real, thresholds=thresholds, dim=dim))
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
                                      "valid", "tv_binomial", "tv_gaussian", "note"]
        assert (outdir / "hist_b0_1.csv").exists()
        assert (outdir / "duality.csv").exists()
        assert not (outdir / "PARTIAL_OUTPUT").exists()

    def test_3d_run_writes_no_duality(self, tmp_path):
        # the duality allowance was measured on 2D grids, so a 3D run gets no
        # verdict, even on a symmetric threshold grid
        cfg = self.write_config(tmp_path, dim=3)
        outdir = tmp_path / "out"
        assert run_cli("ensemble", "--config", str(cfg), "--output-dir", str(outdir)) == 0
        assert (outdir / "summary.csv").exists() and (outdir / "fits.csv").exists()
        assert not (outdir / "duality.csv").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = self.write_config(tmp_path, n_real=4)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run_cli("ensemble", "--config", str(cfg), "--output-dir", str(out1),
                       "--workers", "1") == 0
        assert run_cli("ensemble", "--config", str(cfg), "--output-dir", str(out2),
                       "--workers", "2") == 0
        assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()
        assert (out1 / "fits.csv").read_bytes() == (out2 / "fits.csv").read_bytes()

    def test_reused_output_dir_holds_only_the_last_run(self, tmp_path):
        outdir = tmp_path / "out"
        outdir.mkdir()
        (outdir / "notes.txt").write_text("kept\n")
        flat = tmp_path / "flat.cfg"
        flat.write_text("amplitude = 0\nn = 32\nboxsize = 32\nthresholds = 0.5\n")
        runs = [(flat, 4), (self.write_config(tmp_path, thresholds="-1 0 1"), 0),
                (self.write_config(tmp_path, thresholds="0"), 0)]
        for cfg, code in runs:
            assert run_cli("ensemble", "--config", str(cfg), "--output-dir", str(outdir)) == code
        written = {"manifest.json", "summary.csv", "fits.csv", "duality.csv",
                   *(f"hist_{stat}_0.csv" for stat in ("b0", "b1", "b2", "chi", "bsum"))}
        assert {p.name for p in outdir.iterdir()} == written | {"notes.txt"}
        manifest_hash = json.loads((outdir / "manifest.json").read_text())["manifest_hash"]
        for path in outdir.glob("*.csv"):
            assert path.read_text().splitlines()[0] == f"# manifest_hash={manifest_hash}"
        assert (outdir / "notes.txt").read_text() == "kept\n"

    def test_chi_fit_invalid_at_zero(self, tmp_path):
        cfg = self.write_config(tmp_path, n_real=20, thresholds="0")
        outdir = tmp_path / "zero"
        assert run_cli("ensemble", "--config", str(cfg),
                       "--output-dir", str(outdir)) == 0
        rows = [line.split(",") for line in
                (outdir / "fits.csv").read_text().splitlines()[2:]]
        chi_rows = [r for r in rows if r[1] == "chi"]
        assert chi_rows and all(r[5] == "0" for r in chi_rows)

    def test_constant_tail_chi_gives_a_flagged_row(self, tmp_path):
        # chi has one value in all three realizations at nu = 3.5: no (N, p) to
        # solve for, but the ensemble still writes every output
        cfg = tmp_path / "tail.cfg"
        cfg.write_text("n = 32\nboxsize = 32\nrs = 3\nn_realizations = 3\n"
                       "thresholds = 3.5\nmaster_seed = 1\n")
        outdir = tmp_path / "tail"
        assert run_cli("ensemble", "--config", str(cfg), "--output-dir", str(outdir)) == 0
        summary = list(csv.DictReader((outdir / "summary.csv").read_text().splitlines()[1:]))
        assert [row["sd_chi"] for row in summary] == ["0"]
        fits = (outdir / "fits.csv").read_text().splitlines()[2:]
        assert fits == ["3.5,chi,high_positive,0,0,0,,,zero variance"]
        assert not (outdir / "PARTIAL_OUTPUT").exists()

    def test_flat_field_with_fixed_sigma_completes(self, tmp_path):
        # sigma_1 = 0 in every realization, so there is no measured r_c; chi
        # never varies at the tail thresholds, so no fit asks for one
        cfg = tmp_path / "flat.cfg"
        cfg.write_text("amplitude = 0\nsigma_mode = 1.0\nn = 32\nboxsize = 32\n"
                       "thresholds = -2 0 2\n")
        outdir = tmp_path / "flat"
        assert run_cli("ensemble", "--config", str(cfg), "--output-dir", str(outdir)) == 0
        fits = (outdir / "fits.csv").read_text().splitlines()[2:]
        assert [row for row in fits if row.startswith(("-2,", "2,"))] == [
            "-2,chi,low_negative,0,0,0,,,zero variance",
            "2,chi,high_positive,0,0,0,,,zero variance",
        ]
        assert not (outdir / "PARTIAL_OUTPUT").exists()

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus = 1\n")
        assert run_cli("ensemble", "--config", str(cfg),
                       "--output-dir", str(tmp_path / "o")) == 2

    def test_partial_marker_on_failure(self, tmp_path, capsys):
        # a flat field cannot be thresholded: the run fails after outdir creation
        for workers in (1, 2):
            cfg = tmp_path / f"run{workers}.cfg"
            cfg.write_text(
                f"amplitude = 0\nn = 32\nboxsize = 32\nthresholds = 0.5\n"
                f"master_seed = 11\nworkers = {workers}\n"
            )
            outdir = tmp_path / f"o{workers}"
            code = run_cli("ensemble", "--config", str(cfg), "--output-dir", str(outdir))
            assert code == 4
            assert (outdir / "PARTIAL_OUTPUT").exists()
            # the failure names its realization, seed and threshold, across the pool too
            site = "realization 0, seed (11, 0), nu = 0.5: sigma0 = 0.0"
            assert site in capsys.readouterr().err
            assert site in (outdir / "PARTIAL_OUTPUT").read_text()

    def test_non_finite_field_exits_4(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("amplitude = 1e308\nsigma_mode = 1.0\nn = 32\nboxsize = 32\n"
                       "thresholds = -1 0 1\n")
        outdir = tmp_path / "o"
        code = run_cli("ensemble", "--config", str(cfg), "--output-dir", str(outdir))
        assert code == 4
        assert (outdir / "PARTIAL_OUTPUT").exists()
        assert not (outdir / "summary.csv").exists()
        err = capsys.readouterr().err
        assert "realization 0, seed (0, 0): the field is not finite" in err

    def test_overflowing_box_volume_exits_4(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 32\nboxsize = 1e200\nthresholds = -1 0 1\n")
        outdir = tmp_path / "o"
        code = run_cli("ensemble", "--config", str(cfg), "--output-dir", str(outdir))
        assert code == 4
        assert not (outdir / "summary.csv").exists()
        site = "realization 0, seed (0, 0): the box volume L^2 overflows a float (L = 1e+200)"
        assert site in capsys.readouterr().err
        assert site in (outdir / "PARTIAL_OUTPUT").read_text()

    def test_overflowing_gradient_exits_4(self, tmp_path, capsys):
        # a finite field whose sigma1 overflows: the run stops at realization 0,
        # not at the tail fit, which would read r_c = sigma0 / inf = 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 32\nboxsize = 1e-150\nthresholds = 3\n")
        outdir = tmp_path / "o"
        code = run_cli("ensemble", "--config", str(cfg), "--output-dir", str(outdir))
        assert code == 4
        assert not (outdir / "summary.csv").exists()
        site = "realization 0, seed (0, 0): sigma1 overflows a float"
        assert site in capsys.readouterr().err
        assert site in (outdir / "PARTIAL_OUTPUT").read_text()

    def test_unallocatable_grid_exits_4(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"n = {2**30}\ndim = 3\nboxsize = 1\nthresholds = 0\n")
        outdir = tmp_path / "o"
        code = run_cli("ensemble", "--config", str(cfg), "--output-dir", str(outdir))
        assert code == 4
        assert not (outdir / "summary.csv").exists()
        site = f"realization 0, seed (0, 0): cannot allocate a 3D grid of side {2**30}"
        assert site in capsys.readouterr().err
        assert site in (outdir / "PARTIAL_OUTPUT").read_text()

    def test_hist_names_print_nu_as_the_csvs_do(self, tmp_path):
        cfg = self.write_config(tmp_path, thresholds="1.0000001 1.0000002")
        outdir = tmp_path / "out"
        assert run_cli("ensemble", "--config", str(cfg), "--output-dir", str(outdir)) == 0
        names = sorted(p.name for p in outdir.glob("hist_*.csv"))
        assert len(names) == 10
        assert "hist_b0_1.0000001.csv" in names and "hist_b0_1.0000002.csv" in names

    def test_thresholds_printing_alike_exit_2_before_output(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, thresholds="1 1.0000000000001")
        outdir = tmp_path / "o"
        assert run_cli("ensemble", "--config", str(cfg), "--output-dir", str(outdir)) == 2
        assert "both print as 1\n" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("flag", ["0", "-1"])
    def test_workers_flag_below_one_exits_2_before_output(self, tmp_path, capsys, flag):
        cfg = self.write_config(tmp_path)
        outdir = tmp_path / "o"
        code = run_cli("ensemble", "--config", str(cfg), "--output-dir", str(outdir),
                       "--workers", flag)
        assert code == 2
        assert f"workers must be >= 1, got {flag}" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "line",
        ["dim = 4", "n = 33", "boxsize = 0", "sigma_mode = -1", "n = abc", "amplitude = nan",
         "workers = 0", "workers = -1", "amplitude = -1", "k_low_cutoff = 0"],
    )
    def test_invalid_value_exits_2_before_output(self, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{line}\nthresholds = 0\n")
        outdir = tmp_path / "o"
        code = run_cli("ensemble", "--config", str(cfg), "--output-dir", str(outdir))
        assert code == 2
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            (b"amplitude = \xff\n", "can't decode byte 0xff"),
            (b"thresholds =\n", "bad value for 'thresholds': expected at least one value"),
        ],
    )
    def test_unparsable_config_exits_2_before_output(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(text)
        outdir = tmp_path / "o"
        code = run_cli("ensemble", "--config", str(cfg), "--output-dir", str(outdir))
        assert code == 2
        assert message in capsys.readouterr().err
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
        # 4000 * 4000 additions are past the work guard of 10^7
        assert run_cli("states", "--b0", "4000", "--b1", "4000") == 4
        assert "over the cap" in capsys.readouterr().err

    def test_past_the_old_guards(self, capsys):
        assert run_cli("states", "--b0", "45", "--b1", "45") == 0
        assert json.loads(capsys.readouterr().out) == {
            "formula": 45, "vector": 89134, "composition": 17592186044416,
            "discrepancy": True,
        }
        # b0 = 0 costs nothing however long b1 is
        assert run_cli("states", "--b0", "0", "--b1", "1000000000000", "--list") == 0
        assert json.loads(capsys.readouterr().out) == {
            "formula": 0, "vector": 0, "composition": 0, "discrepancy": False,
            "states": [],
        }

    def test_list_one_long_vector(self, capsys):
        # one part of 5000 holes: the listing recurses over parts, not over j
        assert run_cli("states", "--b0", "1", "--b1", "5000", "--list") == 0
        (vec,) = json.loads(capsys.readouterr().out)["states"]
        assert vec == [0] * 5000 + [1]

    def test_listing_cap_exits_4(self, capsys):
        # 200 001 vectors of length 400 001: refused after the count, before the
        # listing, which would not finish in any bound
        start = time.perf_counter()
        assert run_cli("states", "--b0", "2", "--b1", "400000", "--list") == 4
        assert time.perf_counter() - start < 5.0
        assert "exceeds the cap" in capsys.readouterr().err

    def test_guard_runs_before_any_count(self, capsys):
        start = time.perf_counter()
        assert run_cli("states", "--b0", "2000000", "--b1", "1000000") == 4
        assert time.perf_counter() - start < 1.0

    def test_jmax_is_no_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("states", "--b0", "2", "--b1", "2", "--jmax", "5000")
        assert exc.value.code == 2


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

    @pytest.mark.parametrize(
        "field",
        [{"workers": "2"}, {"workers": None}, {"workers": 2.5}, {"workers": True},
         {"verbosity": "x"}, {"output_dir": 3}, {"config": None}],
        ids=repr,
    )
    def test_run_config_rejects_wrong_types(self, field):
        # typed before the workers range check, which "2" and None would fail untyped
        with pytest.raises(ConfigError, match=f"{next(iter(field))} must be "):
            RunConfig(**{"config": EnsembleConfig(), **field})

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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("rs = 2\nn = 64\nrs = 3\n", "c.cfg:3: 'rs' repeats 'rs' of line 1$"),
            ("rs = 2\nfwhm = 9.42\n", "c.cfg:2: 'fwhm' repeats 'rs' of line 1$"),
            ("fwhm = 9.42\nrs = 2\n", "c.cfg:2: 'rs' repeats 'fwhm' of line 1$"),
            ("n = 64\n# n = 32\nn = 128\n", "c.cfg:3: 'n' repeats 'n' of line 1$"),
        ],
    )
    def test_key_given_twice(self, tmp_path, text, message):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        with pytest.raises(ConfigError, match=message):
            parse_run_config(cfg)

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("just some words\n")
        with pytest.raises(ConfigError):
            parse_run_config(cfg)


#: values a careless or hostile user may give any option or config key
HOSTILE = ("nan", "inf", "-inf", "1e308", "1e-300", "-1", "0", "abc", "")


def hostile_or(*valid: str, invalid: tuple[str, ...] = ()):
    """One of ``valid`` or, about one draw in five, a hostile or ``invalid`` value."""
    bad = (*invalid, *HOSTILE)
    return st.sampled_from(valid * math.ceil(4 * len(bad) / len(valid)) + bad)


#: fuzz values by config key, a few valid ones beside the hostile ones; no run
#: gets a grid side other than 32 or 64, nor more than 3 realizations or 2 workers
FUZZ_CONFIG_VALUES = {
    "amplitude": hostile_or("1", "2.5"),
    "alpha": hostile_or("0", "-1.5"),
    "k_low_cutoff": hostile_or("none", "0.1"),
    "k_high_cutoff": hostile_or("none", "2"),
    "n": hostile_or("32", "64", invalid=("33", "32.0", "-32", "2**5")),
    "boxsize": hostile_or("32", "64", "1e200"),
    "dim": hostile_or("2", "3", "4"),
    "rs": hostile_or("1", "2"),
    "fwhm": hostile_or("3"),
    "n_realizations": hostile_or("2", "3"),
    "thresholds": st.one_of(
        hostile_or("0", "-1 0 1", "-2.5 1", "1 2.5"),
        st.lists(hostile_or("1", "-1"), min_size=2, max_size=3).map(" ".join),
    ),
    "master_seed": hostile_or("7"),
    "sigma_mode": hostile_or("sample", "1.5"),
    "output_dir": hostile_or("out"),
    "workers": hostile_or("1", "2"),
    "verbosity": hostile_or("1", "2"),
}


def config_line(key: str):
    return FUZZ_CONFIG_VALUES[key].map(lambda value: f"{key} = {value}")


#: a config text: exactly one grid side (an absent one would mean 256, or 256^3
#: in 3D), then any lines, keys repeated or not, and some that are not key = value
CONFIG_TEXT_FUZZ = st.tuples(
    config_line("n"),
    st.lists(
        hostile_or(*sorted(set(FUZZ_CONFIG_VALUES) - {"n"})).flatmap(
            lambda key: config_line(key) if key in FUZZ_CONFIG_VALUES else st.just(key)
        ),
        max_size=6,
    ),
).map(lambda parts: "\n".join([parts[0], *parts[1]]) + "\n")


def options(**values):
    """Any subset of the given options, each written ``--flag=value``."""
    return st.fixed_dictionaries({}, optional=values).map(
        lambda chosen: [f"--{flag.replace('_', '-')}={value}" for flag, value in chosen.items()]
    )


def switch(flag: str):
    return st.sampled_from([[], [flag]])


#: the field dumps of the fuzz directory, each with the exit codes of a plain
#: `sweep` of it and of a `sweep --mask`; `fuzz_dir` writes them
FUZZ_DUMPS = {
    "field.bin": (0, 0), "junk.bin": (3, 3), "missing.bin": (3, 3),
    "empty2.bin": (3, 3), "empty3.bin": (3, 3),
    "side1.bin": (4, 0),  # one sample: sigma0 = 0 leaves nothing to threshold by
    "side2.bin": (0, 0),
    "dim0.bin": (3, 3), "dim4.bin": (3, 3), "truncated.bin": (3, 3),
    "nan.bin": (3, 3), "inf.bin": (3, 3), "magic.bin": (3, 3), "version.bin": (3, 3),
    "no_sidecar.bin": (0, 0), "list_sidecar.bin": (3, 3),
    "L_nan.bin": (3, 3), "L_neg.bin": (3, 3), "L_zero.bin": (3, 3), "L_abc.bin": (3, 3),
    "rs_nan.bin": (3, 3), "rs_neg.bin": (3, 3),
    "ragged.bin": (3, 3),  # a body that is no whole number of samples
    "huge.bin": (4, 0),  # finite samples ~1e300: sigma0 overflows, the 0.5 mask does not
}

#: argv by subcommand; @DIR stands for the fuzz directory
FUZZ_ARGV = {
    "gen": st.tuples(
        hostile_or("32", "64", invalid=("33", "32.0")).map(lambda n: [f"--n={n}"]),
        hostile_or("32", "1e200").map(lambda box: [f"--boxsize={box}"]),
        options(
            amplitude=hostile_or("1"), alpha=hostile_or("-1.5"), klow=hostile_or("0.1"),
            khigh=hostile_or("2"), rs=hostile_or("1"), seed=hostile_or("3"),
            dim=hostile_or("2", "3"),
        ),
        st.just(["--out=@DIR/gen.bin"]),
    ),
    "sweep": st.tuples(
        hostile_or(*FUZZ_DUMPS).map(lambda f: [f"--field=@DIR/{f}"]),
        options(
            nu_min=hostile_or("-1"), nu_max=hostile_or("1", "2"),
            nu_step=hostile_or("0.5"), sigma_mode=hostile_or("sample", "1.5"),
        ),
        switch("--mask"),
        st.just(["--out=@DIR/sweep.csv"]),
    ),
    "ensemble": st.tuples(
        st.just(["--config=@DIR/run.cfg", "--output-dir=@DIR/out"]),
        options(workers=hostile_or("1", "2")),
    ),
    "states": st.tuples(
        # (99999, 100000) lies past the work guard, where the counts would crawl,
        # and (41, 100000) inside it
        hostile_or("2", "4", "12", "41", "99999").map(lambda b0: [f"--b0={b0}"]),
        hostile_or("2", "4", "12", "41", "100000").map(lambda b1: [f"--b1={b1}"]),
        switch("--list"),
    ),
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    assert main(["gen", "--n", "32", "--boxsize", "32", "--rs", "1",
                 "--out", str(root / "field.bin")]) == 0
    (root / "junk.bin").write_bytes(b"not a field dump")
    rng = np.random.default_rng(0)
    for name, dim, side in [("empty2", 2, 0), ("empty3", 3, 0), ("side1", 2, 1), ("side2", 3, 2)]:
        field = FieldGrid(dim=dim, side=side, L=1.0, values=rng.random((side,) * dim), seed=0)
        save_field(field, root / f"{name}.bin")

    raw = (root / "field.bin").read_bytes()
    sidecar = (root / "field.bin.json").read_text()

    def variant(name: str, dump: bytes = raw, sidecar: str | None = sidecar) -> None:
        (root / name).write_bytes(dump)
        if sidecar is not None:
            (root / f"{name}.json").write_text(sidecar)

    def sample(value: float) -> bytes:  # the dump with its first sample replaced
        return raw[:32] + np.array([value], dtype="<f8").tobytes() + raw[40:]

    variant("dim0.bin", raw[:6] + (0).to_bytes(2, "little") + raw[8:])
    variant("dim4.bin", raw[:6] + (4).to_bytes(2, "little") + raw[8:])
    variant("truncated.bin", raw[:-8])
    variant("ragged.bin", raw[:-3])
    variant("huge.bin", raw[:32] + (1e300 * np.frombuffer(raw[32:], dtype="<f8")).tobytes())
    variant("nan.bin", sample(math.nan))
    variant("inf.bin", sample(math.inf))
    variant("magic.bin", b"FTXE" + raw[4:])
    variant("version.bin", raw[:4] + (2).to_bytes(2, "little") + raw[6:])
    variant("no_sidecar.bin", sidecar=None)
    variant("list_sidecar.bin", sidecar="[1, 2]")
    for name, text in [
        ("L_nan", '{"L": NaN}'), ("L_neg", '{"L": -1}'), ("L_zero", '{"L": 0}'),
        ("L_abc", '{"L": "abc"}'), ("rs_nan", '{"rs_applied": NaN}'),
        ("rs_neg", '{"rs_applied": -1}'),
    ]:
        variant(f"{name}.bin", sidecar=text)
    return root


class TestMainFuzz:
    def test_every_config_key_is_fuzzed(self):
        assert set(FUZZ_CONFIG_VALUES) == set(CONFIG_KEYS)

    @settings(max_examples=300, deadline=None)
    @given(
        command=st.sampled_from(sorted(FUZZ_ARGV)),
        data=st.data(),
        config_text=CONFIG_TEXT_FUZZ,
    )
    def test_exits_with_a_documented_code(self, fuzz_dir, command, data, config_text):
        # 0 ok, 2 usage or config, 3 I/O or format, 4 domain; never a traceback
        (fuzz_dir / "run.cfg").write_text(config_text)
        parts = data.draw(FUZZ_ARGV[command])
        argv = [command] + [arg.replace("@DIR", str(fuzz_dir)) for part in parts for arg in part]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the argv
            code = exc.code
        assert code in (0, 2, 3, 4)

    @pytest.mark.parametrize("mask", [False, True])
    @pytest.mark.parametrize("dump", sorted(FUZZ_DUMPS))
    def test_sweep_of_every_dump_exits_as_documented(self, fuzz_dir, dump, mask):
        argv = ["sweep", f"--field={fuzz_dir / dump}", f"--out={fuzz_dir / 'sweep.csv'}"]
        assert main(argv + ["--mask"] * mask) == FUZZ_DUMPS[dump][mask]
