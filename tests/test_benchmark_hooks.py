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
from tracing import Tracer  # noqa: E402

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
