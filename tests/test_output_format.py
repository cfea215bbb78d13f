"""The CSV files the command line writes: their layout, and the one writer behind them."""

import csv
import json
import pathlib
import sys

import pytest

import fieldtopo.ensemble as ens
from fieldtopo.cli import SWEEP_COLUMNS, main

CONFIG = """\
n = 32
boxsize = 32
rs = 1.0
n_realizations = 3
thresholds = -1 0 1
master_seed = 5
verbosity = 0
"""

ENSEMBLE_KINDS = ("summary", "fits", "duality", "hist")


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """A small ensemble and three sweeps, with every `.csv` write and its caller recorded."""
    root = tmp_path_factory.mktemp("outputs")
    (root / "run.cfg").write_text(CONFIG)
    callers = []
    write_text = pathlib.Path.write_text

    def recording(self, *args, **kwargs):
        if self.suffix == ".csv":
            frame = sys._getframe(1)
            callers.append((frame.f_globals["__name__"], frame.f_code.co_name))
        return write_text(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pathlib.Path, "write_text", recording)
        argvs = [
            ["ensemble", "--config", str(root / "run.cfg"), "--output-dir", str(root / "ens")],
            ["gen", "--n", "32", "--boxsize", "32", "--rs", "1", "--seed", "3",
             "--out", str(root / "f2.bin")],
            ["gen", "--n", "32", "--boxsize", "32", "--rs", "1", "--seed", "3", "--dim", "3",
             "--out", str(root / "f3.bin")],
            ["sweep", "--field", str(root / "f2.bin"), "--nu-step", "1",
             "--out", str(root / "sweep2d.csv")],
            ["sweep", "--field", str(root / "f3.bin"), "--nu-step", "1",
             "--out", str(root / "sweep3d.csv")],
            ["sweep", "--field", str(root / "f2.bin"), "--mask", "--out", str(root / "mask.csv")],
        ]
        for argv in argvs:
            assert main(argv) == 0, argv
    return root, callers


def read(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_ensemble_csvs_start_with_the_manifest_hash(outputs):
    root, _ = outputs
    manifest = json.loads((root / "ens" / "manifest.json").read_text())
    paths = sorted((root / "ens").glob("*.csv"))
    assert {p.stem.split("_")[0] for p in paths} == set(ENSEMBLE_KINDS)
    assert len(paths) == 3 + 3 * len(ens.STAT_NAMES)
    for path in paths:
        rows = read(path)
        assert rows[0] == [f"# manifest_hash={manifest['manifest_hash']}"], path.name
        assert all(len(row) == len(rows[1]) for row in rows[2:]), path.name


def test_sweep_csvs_have_no_hash_and_parse_back(outputs):
    root, _ = outputs
    for name, n_rows in [("sweep2d.csv", 7), ("sweep3d.csv", 7), ("mask.csv", 1)]:
        rows = read(root / name)
        assert tuple(rows[0]) == (
            "nu", "b0", "b1", "b2", "chi", "bsum", "jmax", "chi_cell", "bg", "m_spectrum",
        )
        assert len(rows) == 1 + n_rows
        for row in rows[1:]:
            assert len(row) == len(SWEEP_COLUMNS)
            record = dict(zip(SWEEP_COLUMNS, row))
            spectrum = {int(j): m for j, m in json.loads(record["m_spectrum"]).items()}
            if name == "sweep3d.csv":
                assert spectrum == {}
            else:
                assert sum(spectrum.values()) == int(record["b0"])
                assert sum(j * m for j, m in spectrum.items()) == int(record["b1"])
                assert max(spectrum, default=0) == int(record["jmax"])
    # a spectrum with two or more entries holds commas, so the field was quoted
    assert '"{""' in (root / "sweep2d.csv").read_text()


def test_every_csv_is_written_by_write_csv(outputs):
    root, callers = outputs
    n_files = len(list(root.rglob("*.csv")))
    assert n_files == len(callers) == 3 + 3 * len(ens.STAT_NAMES) + 3
    assert set(callers) == {("fieldtopo.ensemble", "write_csv")}


class TestWriteCsv:
    def test_fields(self, tmp_path):
        path = tmp_path / "t.csv"
        ens.write_csv(path, ["a", "b", "c", "d"], [[0.1 + 0.2, None, 3, 'x,"y"']])
        assert path.read_text() == 'a,b,c,d\n0.3,,3,"x,""y"""\n'
        assert read(path)[1] == ["0.3", "", "3", 'x,"y"']

    def test_hash_line_and_empty_body(self, tmp_path):
        path = tmp_path / "t.csv"
        ens.write_csv(path, ["bin", "count"], [], manifest_hash="abc")
        assert path.read_text() == "# manifest_hash=abc\nbin,count\n"

    def test_floats_print_with_twelve_digits(self, tmp_path):
        path = tmp_path / "t.csv"
        ens.write_csv(path, ["x"], [[1 / 3], [1e-20], [float("nan")], [-0.0]])
        assert path.read_text().splitlines()[1:] == ["0.333333333333", "1e-20", "nan", "-0"]
