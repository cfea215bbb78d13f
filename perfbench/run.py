"""fieldtopo benchmark: ensemble throughput, set-up time, peak memory and output checks.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ref2d --seed 20250801 --seconds 30 --trace 0

Each run starts `SETUP_SAMPLES` fresh interpreters one after another
(``worker.py``).  Each one imports the package from ``src/``, builds the
workload's configuration, runs one warm-up realization per grid size and then
repeats the workload's ensemble job for its share of ``--seconds``.  The last
line of standard output is one JSON object: with ``--trace 0`` the end-to-end
metrics, with ``--trace 1`` the per-layer metrics from a run in which every
other job is traced.  Lines before it record the environment, the digest of
the summary CSVs and, when tracing, the per-layer and stage tables.  The exit
code is 0 only if every output check passed.  See README.md in this
directory for why each workload and metric was chosen.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench_run"

#: fresh processes per run; set-up time is their median
SETUP_SAMPLES = 4

#: time a run may take beyond --seconds before its measurement process is killed
RUN_TIMEOUT_S = 120

ACCEPTANCE_SEED = 20250801
REFERENCE_THRESHOLDS = tuple(-3.5 + 0.5 * i for i in range(15))


@dataclasses.dataclass(frozen=True)
class Workload:
    dim: int
    sides: tuple[int, ...]
    rs: float
    thresholds: tuple[float, ...]
    n_realizations: int  # per ensemble
    workers: int
    via_cli: bool  # run `fieldtopo ensemble` with a generated config file
    table_side: int  # grid side of the realizations the per-layer metrics describe


WORKLOADS = {
    # the acceptance reference configuration, through the CLI and its writers
    "ref2d": Workload(2, (512,), 4.0, REFERENCE_THRESHOLDS, 16, 2, True, 512),
    # normality-trend ensembles: two thresholds, so field synthesis dominates
    "clt2d": Workload(2, (128, 256, 512), 4.0, (-1.0, 1.0), 8, 1, False, 256),
    # 3D Betti numbers: betti3d dominates and hole_spectrum is bypassed
    "vol3d": Workload(3, (64,), 3.0, REFERENCE_THRESHOLDS, 4, 1, False, 64),
}

END_TO_END_UNITS = {
    "realizations_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "pass_frac": "ratio",
}

PER_LAYER_UNITS = {
    "grf.generate_ms": "ms",
    "grf.smooth_ms": "ms",
    "grf.sample_moments_ms": "ms",
    "grf.fft_calls": "count",
    "grf.fft_mb_computed": "MB",
    "spectrum.eval_power_ms": "ms",
    "topo2d.excursion_mask_ms": "ms",
    "topo2d.hole_spectrum_ms": "ms",
    "topo2d.label_calls": "count",
    "topo2d.label_ms": "ms",
    "topo2d.euler_closed_cell_ms": "ms",
    "topo3d.betti3d_ms": "ms",
    "topo3d.label_calls": "count",
    "topo3d.label_ms": "ms",
    "topo3d.euler_closed_cell_ms": "ms",
    "ensemble.realization_ms": "ms",
    "ensemble.fold_ms": "ms",
    "ensemble.worker_busy_frac": "ratio",
    "ensemble.fits_ms": "ms",
    "ensemble.write_ms": "ms",
    "ensemble.output_bytes": "bytes",
    "cli.self_ms": "ms",
    "trace.overhead_frac": "ratio",
}

#: (row label, per-layer metric) of the stage table, in the ROADMAP baseline layout
STAGE_ROWS = [
    ("generate", "grf.generate_ms"),
    ("smooth", "grf.smooth_ms"),
    ("sample_moments", "grf.sample_moments_ms"),
    ("excursion_mask ×{n}", "topo2d.excursion_mask_ms"),
    ("hole_spectrum ×{n}", "topo2d.hole_spectrum_ms"),
    ("euler_closed_cell ×{n}", "topo2d.euler_closed_cell_ms"),
    ("betti3d ×{n}", "topo3d.betti3d_ms"),
    ("realization total", "ensemble.realization_ms"),
]


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest of a few percentiles with at least ten samples above it, and its value."""
    ordered = sorted(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(ordered) * (1 - p / 100) >= 10:
            return p, ordered[math.ceil(p / 100 * len(ordered)) - 1]
    return None


def environment(wl: Workload, child: dict) -> dict:
    """Machine, versions and working sets; what a result was measured on."""
    caches = {}
    for level in ("LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            out = subprocess.run(["getconf", level], capture_output=True, text=True).stdout
        except OSError:
            out = ""
        caches[level] = int(out) if out.strip().isdigit() else 0
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src_lines = sum(
        len(p.read_text().splitlines()) for p in (ROOT / "src" / "fieldtopo").glob("*.py")
    )
    l2, l3 = caches["LEVEL2_CACHE_SIZE"], caches["LEVEL3_CACHE_SIZE"]
    working_set = {}
    for side in wl.sides:
        cells = side**wl.dim
        complex_bytes = 16 * cells
        working_set[f"{side}^{wl.dim}"] = (
            f"float64 field {8 * cells / 2**20:g} MiB, complex128 FFT buffer "
            f"{complex_bytes / 2**20:g} MiB: {'within' if complex_bytes <= l2 else 'beyond'} "
            f"the {l2 / 2**20:g} MiB L2 per core, {'within' if complex_bytes <= l3 else 'beyond'} "
            f"the {l3 / 2**20:g} MiB L3"
        )
    return {
        **child["versions"],
        "fft_modules": child["fft_modules"],
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "l2_bytes_per_core": l2,
        "l3_bytes": l3,
        "src_fieldtopo_lines": src_lines,
        "working_set": working_set,
        "memory_bandwidth": "not measured: every array is smaller than the L3 cache",
    }


def run_child(
    wl: Workload, seed: int, seconds: float, trace: bool, index: int, deadline: float
) -> dict:
    """Run one fresh measurement process; its set-up time is spawn to ready."""
    scratch = SCRATCH / f"child{index}"
    scratch.mkdir(parents=True)
    spec = {
        "workload": dataclasses.asdict(wl), "seed": seed, "seconds": seconds,
        "trace": trace, "index": index, "scratch": str(scratch),
    }
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("worker.py")), json.dumps(spec)],
        stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"measurement process {index} timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"measurement process {index} exited with {proc.returncode}")
    if not out.strip():
        raise RuntimeError(f"measurement process {index} printed no result")
    child = json.loads(out.splitlines()[-1])
    if Path(child["versions"]["fieldtopo_path"]).resolve().parent != ROOT / "src" / "fieldtopo":
        raise RuntimeError(f"imported fieldtopo from {child['versions']['fieldtopo_path']}")
    child["setup_s"] = child["t_ready"] - t_spawn
    return child


def realizations_per_s(jobs: list[dict]) -> float:
    """Realizations finished per second spent in jobs."""
    return sum(j["realizations"] for j in jobs) / sum(j["seconds"] for j in jobs)


def summarize(children: list[dict], trace: bool) -> tuple[dict, dict | None]:
    """The result line of a run, and the per-layer statistics when tracing."""
    reps = [r for c in children for r in c["reps"]]
    attempted = sum(r["realizations"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if len({r["digest"] for r in reps}) != 1:
        failed = attempted  # same code and seed must give byte-identical summaries
    rate = realizations_per_s([r for r in reps if not r["traced"]])
    layers = None
    if trace:
        pooled = defaultdict(list)
        for c in children:
            for name, values in c["samples"].items():
                pooled[name].extend(values)
        overhead = 1 - realizations_per_s([r for r in reps if r["traced"]]) / rate
        pooled["trace.overhead_frac"] = [overhead]
        layers = {
            name: {
                "median": statistics.median(pooled[name]) if pooled[name] else 0.0,
                "tail": tail(pooled[name]),
                "n": len(pooled[name]),
            }
            for name in PER_LAYER_UNITS
        }
        metrics = {
            name: {"value": stat["median"], "unit": PER_LAYER_UNITS[name]}
            for name, stat in layers.items()
        }
    else:
        values = {
            "realizations_per_s": rate,
            "setup_s": statistics.median(c["setup_s"] for c in children),
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
            "pass_frac": 1 - failed / attempted,
        }
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in values.items()
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, layers


def stage_table(wl: Workload, layers: dict[str, dict]) -> str:
    n = len(wl.thresholds)
    head = f"{wl.table_side}^{wl.dim}" if wl.dim == 3 else f"{wl.table_side}²"
    lines = [f"| stage | {head} |", "|---|---|"]
    for label, metric in STAGE_ROWS:
        stat = layers[metric]
        value = f"{stat['median']:.1f} ms" if stat["median"] else "—"
        lines.append(f"| `{label.format(n=n)}` | {value} |")
    return "\n".join(lines)


def layer_table(layers: dict[str, dict]) -> str:
    lines = ["| metric | median | tail | n |", "|---|---|---|---|"]
    for name, stat in layers.items():
        t = f"p{stat['tail'][0]:g} {stat['tail'][1]:.4g}" if stat["tail"] else "—"
        lines.append(f"| {name} | {stat['median']:.4g} {PER_LAYER_UNITS[name]} | {t} | {stat['n']} |")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=ACCEPTANCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fieldtopo" / "__init__.py").is_file():
        print(f"perfbench: no fieldtopo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be >= 0", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]

    deadline = time.monotonic() + args.seconds + RUN_TIMEOUT_S
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        children = [
            run_child(wl, args.seed, args.seconds / SETUP_SAMPLES, bool(args.trace), k, deadline)
            for k in range(SETUP_SAMPLES)
        ]
    except (RuntimeError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)

    result, layers = summarize(children, bool(args.trace))
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "summary_csv_sha256": sorted({r["digest"] for c in children for r in c["reps"]}),
        "environment": environment(wl, children[0]),
    }, indent=1))
    if layers is not None:
        print(stage_table(wl, layers))
        print(layer_table(layers))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
