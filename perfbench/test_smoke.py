"""Smoke test of the benchmark at tiny grid sizes.

Run from the root of a checkout:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import fieldtopo.ensemble as ens  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

TINY = {
    "ref2d": run.Workload(2, (64,), 2.0, (-1.0, -0.5, 0.0, 0.5, 1.0), 4, 2, True, 64),
    "clt2d": run.Workload(2, (32, 64, 128), 4.0, (-1.0, 1.0), 4, 1, False, 64),
    "vol3d": run.Workload(3, (32,), 3.0, run.REFERENCE_THRESHOLDS, 2, 1, False, 32),
}
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def tiny_run():
    """Run the benchmark on a tiny workload; results are cached per argument set."""
    cache = {}
    patch = pytest.MonkeyPatch()
    patch.setattr(run, "WORKLOADS", TINY)
    patch.setattr(run, "SETUP_SAMPLES", 2)

    def invoke(workload: str, seed: int, trace: int, capsys) -> tuple[int, list[str]]:
        key = (workload, seed, trace)
        if key not in cache:
            code = run.main([
                "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
                "--trace", str(trace),
            ])
            cache[key] = code, capsys.readouterr().out.splitlines()
        return cache[key]

    yield invoke
    patch.undo()


def detail(lines: list[str]) -> dict:
    """The indented JSON object printed before the tables and the result line."""
    end = lines.index("}")
    return json.loads("\n".join(lines[: end + 1]))


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(tiny_run, capsys, workload, trace):
    code, lines = tiny_run(workload, 1, trace, capsys)
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    env = detail(lines)["environment"]
    assert env["fft_modules"] == ["numpy.fft"]
    assert env["src_fieldtopo_lines"] > 0


@pytest.mark.parametrize("workload,dim", [("ref2d", 2), ("vol3d", 3)])
def test_traced_counts(tiny_run, capsys, workload, dim):
    metrics = json.loads(tiny_run(workload, 1, 1, capsys)[1][-1])["metrics"]
    assert metrics["grf.fft_calls"]["value"] == {2: 7, 3: 8}[dim]
    assert metrics[f"topo{dim}d.label_calls"]["value"] == 2
    assert metrics["ensemble.realization_ms"]["value"] > 0


def test_seed_changes_inputs(tiny_run, capsys):
    first = detail(tiny_run("clt2d", 1, 0, capsys)[1])["summary_csv_sha256"]
    second = detail(tiny_run("clt2d", 2, 0, capsys)[1])["summary_csv_sha256"]
    assert len(first) == len(second) == 1  # byte-identical summaries within a run
    assert first != second
    cfg = worker.build_configs(dataclasses.asdict(TINY["clt2d"]), 2, ROOT)[0][0]
    assert cfg.master_seed == 2


def test_corrupted_chi_cell_counts_as_failed(tmp_path, monkeypatch, capsys):
    run_ensemble = ens.run_ensemble

    def corrupted(*args, **kwargs):
        result = run_ensemble(*args, **kwargs)
        result.stats["chi_cell"][0, 1] += 1
        return result

    monkeypatch.setattr(ens, "run_ensemble", corrupted)
    spec = {
        "workload": dataclasses.asdict(TINY["clt2d"]), "seed": 1, "seconds": 0.0,
        "trace": False, "index": 0, "scratch": str(tmp_path),
    }
    assert worker.main([json.dumps(spec)]) == 0
    child = json.loads(capsys.readouterr().out.splitlines()[-1])
    child["setup_s"] = 1.0
    result, _ = run.summarize([child], trace=False)
    assert result["attempted"] == 12 and result["failed"] == 3  # one per ensemble
    assert not result["correct"]
    assert result["metrics"]["pass_frac"]["value"] == pytest.approx(0.75)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ref2d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
