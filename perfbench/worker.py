"""One measurement process of the fieldtopo benchmark.

``run.py`` starts this script in a fresh interpreter with one JSON argument
(workload, seed, seconds, trace flag, scratch directory).  It imports the
package, builds the workload's configuration and runs one warm-up realization
per grid size; the moment it is ready ends the set-up time.  It then repeats
the workload's ensemble job until its share of the measured seconds is used,
checks every job's outputs, and prints one JSON line with the repetitions,
peak memory, versions, the FFT module that ran and, when tracing, the
per-layer samples.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import shutil
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy

import fieldtopo
import fieldtopo.cli as cli
import fieldtopo.ensemble as ens
from fieldtopo.topo2d import betti_from_h

from tracing import Tracer, layer_samples


def failed_realizations(result: ens.EnsembleResult) -> int:
    """Realizations with at least one (realization, threshold) row failing a check.

    2D: the closed-cell chi equals b0 - b1, and the generating function of
    the stored m_j row gives back b0 and b1.  3D: chi equals b0 - b1 + b2 and
    b1 is not negative.
    """
    st = result.stats
    if result.config.dim == 2:
        bad = st["chi_cell"] != st["b0"] - st["b1"]
        for t, nu in enumerate(result.config.thresholds):
            for i in range(result.config.n_realizations):
                got = betti_from_h(result.spectrum_at(i, nu))
                if (got.b0, got.b1) != (st["b0"][i, t], st["b1"][i, t]):
                    bad[i, t] = True
    else:
        bad = (st["chi"] != st["b0"] - st["b1"] + st["b2"]) | (st["b1"] < 0)
    return int(bad.any(axis=1).sum())


def config_text(wl: dict, seed: int) -> str:
    """The `fieldtopo ensemble` config file of a CLI workload."""
    side = wl["sides"][0]
    return "\n".join([
        "amplitude = 1.0",
        "alpha = 0.0",
        f"n = {side}",
        f"boxsize = {side}",
        f"dim = {wl['dim']}",
        f"rs = {wl['rs']}",
        f"n_realizations = {wl['n_realizations']}",
        "thresholds = " + " ".join(repr(float(nu)) for nu in wl["thresholds"]),
        f"master_seed = {seed}",
        "sigma_mode = sample",
        f"workers = {wl['workers']}",
        "verbosity = 0",
    ]) + "\n"


def build_configs(wl: dict, seed: int, scratch: Path) -> tuple[list[ens.EnsembleConfig], Path | None]:
    if wl["via_cli"]:
        path = scratch / "run.cfg"
        path.write_text(config_text(wl, seed))
        return [cli.parse_run_config(path).ensemble_config()], path
    model = fieldtopo.PowerSpectrumModel(amplitude=1.0, alpha=0.0)
    configs = [
        ens.EnsembleConfig(
            model=model, side=side, L=float(side), dim=wl["dim"], rs=wl["rs"],
            n_realizations=wl["n_realizations"], thresholds=tuple(wl["thresholds"]),
            master_seed=seed,
        )
        for side in wl["sides"]
    ]
    return configs, None


def run_job(wl, configs, cfg_path, outdir: Path) -> list[Path]:
    """The timed unit: one ensemble job as a user runs it; returns its summary files."""
    if cfg_path is not None:
        rc = cli.main(["ensemble", "--config", str(cfg_path), "--output-dir", str(outdir)])
        if rc != 0:
            raise RuntimeError(f"fieldtopo ensemble exited with {rc}")
        return [outdir / "summary.csv"]
    results, paths = [], []
    for cfg in configs:
        result = ens.run_ensemble(cfg, workers=wl["workers"])
        path = outdir / f"summary_{cfg.side}.csv"
        ens.write_summary_csv(result, path)
        results.append(result)
        paths.append(path)
    if len(results) > 1:
        rows = ens.normality_trend(results)
        if len(rows) != 4 * len(wl["thresholds"]):
            raise RuntimeError(f"normality_trend gave {len(rows)} rows")
    return paths


def expected_outputs(wl: dict) -> int:
    """Files one job writes: the CLI adds manifest, fits, duality and 5 histograms per threshold."""
    if wl["via_cli"]:
        return 4 + 5 * len(wl["thresholds"])
    return len(wl["sides"])


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((sys.argv[1:] if argv is None else argv)[0])
    wl, seed, scratch = spec["workload"], spec["seed"], Path(spec["scratch"])
    configs, cfg_path = build_configs(wl, seed, scratch)
    for cfg in configs:
        ens._realize(cfg, 0)
    t_ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    captured: list[ens.EnsembleResult] = []
    run_ensemble = ens.run_ensemble

    def capture(*args, **kwargs):
        result = run_ensemble(*args, **kwargs)
        captured.append(result)
        return result

    ens.run_ensemble = capture
    spool = scratch / "spool"
    spool.mkdir()
    tracer = Tracer(spool)
    outdir = scratch / "out"
    attempted_per_job = sum(cfg.n_realizations for cfg in configs)
    reps, samples = [], defaultdict(list)
    min_reps = 2 if spec["trace"] else 1
    start = time.perf_counter()
    # start another job only while it is expected to end within the share
    while len(reps) < min_reps or (
        time.perf_counter() - start + reps[-1]["seconds"] / 2 < spec["seconds"]
    ):
        traced = spec["trace"] and (len(reps) + spec["index"]) % 2 == 1
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir()
        captured.clear()
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            with tracer.span("bench.rep") if traced else contextlib.nullcontext({}) as rep_span:
                paths = run_job(wl, configs, cfg_path, outdir)
            seconds = time.perf_counter() - t0
            failed = sum(failed_realizations(r) for r in captured)
            if len(captured) != len(configs) or len(list(outdir.iterdir())) != expected_outputs(wl):
                failed = attempted_per_job
            digest = hashlib.sha256(b"".join(p.read_bytes() for p in paths)).hexdigest()
        except Exception:
            traceback.print_exc()
            seconds = time.perf_counter() - t0
            failed, digest = attempted_per_job, ""
        finally:
            tracer.uninstall()
        output_bytes = sum(p.stat().st_size for p in outdir.iterdir())
        reps.append({
            "traced": traced, "seconds": seconds, "realizations": attempted_per_job,
            "failed": failed, "digest": digest,
        })
        spans = tracer.gather()
        if traced:
            rep_span["output_bytes"] = output_bytes
            for name, values in layer_samples(spans, wl["table_side"]).items():
                samples[name].extend(values)

    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    tracer.install()  # probe which FFT module a realization enters
    try:
        ens._realize(configs[0], 0)
    finally:
        tracer.uninstall()
    print(json.dumps({
        "t_ready": t_ready,
        "reps": reps,
        "peak_rss_mb": peak_kib / 1024,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "fieldtopo": fieldtopo.__version__,
            "fieldtopo_path": fieldtopo.__file__,
        },
        "fft_modules": sorted({s["module"] for s in tracer.gather() if s["name"] == "fft"}),
        "samples": samples,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
