"""The names the benchmark in ``perfbench/`` reaches into fieldtopo by.

Every benchmark run installs `perfbench/tracing.py`'s `Tracer`, traced or
not, and builds its configurations with `worker.build_configs`; a renamed
function, option or result field makes every run fail.  These checks catch
that here.  They read ``perfbench/`` and change nothing in it.
"""

import dataclasses
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer, layer_samples  # noqa: E402

import fieldtopo.ensemble as ens  # noqa: E402


def test_tracer_installs_and_restores_every_name(tmp_path):
    tracer = Tracer(tmp_path)
    try:
        tracer.install()
        patches = list(tracer.patches)
        assert patches
        assert all(getattr(owner, attr) is not original for owner, attr, original in patches)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original for owner, attr, original in patches)
    assert tracer.patches == []


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workload_configs_build(tmp_path, name):
    wl = run.WORKLOADS[name]
    configs, cfg_path = worker.build_configs(dataclasses.asdict(wl), 7, tmp_path)
    assert (cfg_path is not None) == wl.via_cli
    assert [c.side for c in configs] == list(wl.sides[:1] if wl.via_cli else wl.sides)
    for config in configs:
        assert (config.dim, config.n_realizations) == (wl.dim, wl.n_realizations)
        assert config.thresholds == tuple(wl.thresholds)
        assert config.master_seed == 7


@pytest.mark.parametrize("dim", [2, 3])
def test_tiny_ensemble_passes_the_output_checks(dim):
    config = ens.EnsembleConfig(
        side=32, L=32.0, dim=dim, rs=2.0, n_realizations=3, thresholds=(-1.0, 0.0, 1.0),
        master_seed=5,
    )
    assert worker.failed_realizations(ens.run_ensemble(config)) == 0


def test_corrupt_mj_entry_fails_its_realization():
    # the generating function of the stored m_j row must give back b0 and b1
    config = ens.EnsembleConfig(
        side=32, L=32.0, dim=2, rs=2.0, n_realizations=3, thresholds=(-1.0, 0.0, 1.0),
        master_seed=5,
    )
    result = ens.run_ensemble(config)
    result.mj_tables[1][2, 0] += 1
    assert worker.failed_realizations(result) == 1


def test_traced_pool_run_records_every_realization(tmp_path):
    # the traced `_realize` is a local wrapper: the pool must reach it through a
    # module-level function, or no traced run with workers > 1 can pickle its task
    config = ens.EnsembleConfig(
        side=32, L=32.0, dim=2, rs=2.0, n_realizations=6, thresholds=(-1.0, 0.0, 1.0),
        master_seed=5,
    )
    tracer = Tracer(tmp_path)
    try:
        tracer.install()
        ens.run_ensemble(config, workers=2)
    finally:
        tracer.uninstall()
    names = [span["name"] for span in tracer.gather()]
    assert names.count("ensemble.realization") == 6
    assert names.count("topo2d.hole_spectrum") == 6 * 3


def test_cli_job_writes_the_expected_files(tmp_path):
    # ref2d's job is `fieldtopo ensemble`: a run whose file count differs from
    # `expected_outputs` counts every realization as failed
    wl = dataclasses.asdict(dataclasses.replace(
        run.WORKLOADS["ref2d"], sides=(32,), thresholds=(-1.0, 0.0, 1.0), n_realizations=4,
        workers=2, table_side=32,
    ))
    configs, cfg_path = worker.build_configs(wl, 7, tmp_path)
    outdir = tmp_path / "out"
    outdir.mkdir()
    paths = worker.run_job(wl, configs, cfg_path, outdir)
    assert len(list(outdir.iterdir())) == worker.expected_outputs(wl) == 19
    assert paths == [outdir / "summary.csv"] and paths[0].exists()


def test_traced_cli_job_times_the_fits_and_the_writers(tmp_path):
    # the tracer wraps `compute_fits`, `duality_check` and the writers on
    # `fieldtopo.ensemble` (and `cli._write_duality_csv`): a CLI that reached
    # them by other names would leave `ensemble.fits_ms` at 0
    wl = dataclasses.asdict(dataclasses.replace(
        run.WORKLOADS["ref2d"], sides=(32,), thresholds=(-1.0, 0.0, 1.0), n_realizations=4,
        workers=1, table_side=32,
    ))
    configs, cfg_path = worker.build_configs(wl, 7, tmp_path)
    outdir, spool = tmp_path / "out", tmp_path / "spool"
    outdir.mkdir()
    spool.mkdir()
    tracer = Tracer(spool)
    try:
        tracer.install()
        with tracer.span("bench.rep"):
            worker.run_job(wl, configs, cfg_path, outdir)
    finally:
        tracer.uninstall()
    spans = tracer.gather()
    names = [span["name"] for span in spans]
    assert names.count("ensemble.fits") == 2  # compute_fits and duality_check
    assert names.count("ensemble.write") == 5  # manifest, summary, hist, fits and duality
    assert layer_samples(spans, 32)["ensemble.fits_ms"][0] > 0
