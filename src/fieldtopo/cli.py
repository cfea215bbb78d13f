"""Command-line front end: gen, sweep, ensemble and states subcommands.

Exit codes: 0 success, 2 usage or configuration error, 3 I/O or file-format
error, 4 numeric or domain error.  The CSV files are written by
`ensemble.write_csv`.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import ensemble as ens
from . import states as states_mod
from .errors import (
    ConfigError,
    DomainError,
    FieldtopoError,
    FormatError,
)
from .grf import generate, load_field, sample_moments, sample_sigma0, save_field
from .inference import symmetric
from .spectrum import PowerSpectrumModel, check_type
from .topo2d import ExcursionMask, excursion_mask

FWHM_PER_RS = math.sqrt(8.0 * math.log(2.0))


# ---------------------------------------------------------------------------
# run configuration (plain key = value file)


@dataclass(frozen=True)
class RunConfig:
    """A parsed config file: the ensemble's run parameters and how to run it."""

    config: ens.EnsembleConfig
    output_dir: str = "."
    workers: int = 1
    verbosity: int = 1

    def __post_init__(self) -> None:
        for name, tp in get_type_hints(RunConfig).items():
            object.__setattr__(self, name, check_type(name, getattr(self, name), tp, ConfigError))
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")

    def ensemble_config(self) -> ens.EnsembleConfig:
        return self.config


#: manifest keys that a config file spells differently
FILE_SPELLING = {"side": "n", "L": "boxsize"}


def parse_run_config(path: str | Path) -> RunConfig:
    """Parse a `key = value` config file; '#' starts a comment.

    The keys are the manifest keys of `EnsembleConfig.to_manifest`, with the
    grid side spelled `n` and the box size `boxsize`, plus the `RunConfig`
    fields; a key left out takes its field default.  A `fwhm` key may be
    given instead of `rs` (fwhm = sqrt(8 ln 2) rs); a key given twice, `rs`
    and `fwhm` counting as one, is an error.
    """
    types = {**ens.manifest_types(), **get_type_hints(RunConfig)}
    del types["config"]
    names = {FILE_SPELLING.get(name, name): name for name in types}
    names["fwhm"] = "rs"
    values: dict[str, object] = {}
    seen: dict[str, str] = {}  # field name -> where a key set it
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in names:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        name = names[key]
        if name in seen:
            raise ConfigError(f"{path}:{lineno}: {key!r} repeats {seen[name]}")
        seen[name] = f"{key!r} of line {lineno}"
        try:
            parsed = _parse_value(types[name], value.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
        values[name] = parsed / FWHM_PER_RS if key == "fwhm" else parsed
    run = {f.name: values.pop(f.name) for f in fields(RunConfig) if f.name in values}
    try:
        return RunConfig(config=ens.config_from_manifest(values), **run)
    except DomainError as exc:  # PowerSpectrumModel checks its own fields
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_value(tp, text: str):
    """Parse one config value by the annotated type of the field it sets."""
    if tp in (int, float, str):
        return tp(text)
    if tp == float | None:
        return None if text.lower() in ("", "none") else float(text)
    if tp == tuple[float, ...]:
        values = tuple(float(p) for p in text.replace(",", " ").split())
        if not values:
            raise ValueError("expected at least one value")
        return values
    if tp == str | float:  # "sample" or a number: EnsembleConfig parses it
        return text
    raise TypeError(f"no config-file parser for type {tp}")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(args: argparse.Namespace) -> int:
    model = PowerSpectrumModel(
        amplitude=args.amplitude,
        alpha=args.alpha,
        k_low_cutoff=args.klow,
        k_high_cutoff=args.khigh,
    )
    field = generate(model, args.n, args.boxsize, args.dim, seed=args.seed, rs=args.rs)
    moments = sample_moments(field)  # before the dump, so a refused field leaves none
    save_field(field, args.out)
    print(json.dumps({"mean": moments.mean, "sigma0": moments.sigma0,
                      "sigma1": moments.sigma1}))
    return 0


#: most thresholds one `sweep` evaluates
MAX_SWEEP_THRESHOLDS = 10_000


def _sweep_thresholds(nu_min: float, nu_max: float, nu_step: float) -> np.ndarray:
    for flag, value in [("--nu-min", nu_min), ("--nu-max", nu_max), ("--nu-step", nu_step)]:
        if not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite, got {value}")
    if not nu_min < nu_max:
        raise ConfigError("--nu-min must be < --nu-max")
    if not nu_step > 0:
        raise ConfigError("--nu-step must be > 0")
    steps = (nu_max - nu_min) / nu_step  # inf when the range overflows
    # the whole steps that fit, so no value passes --nu-max; the tolerance keeps
    # the endpoint of a whole-step range whose quotient rounds just below
    count = math.floor(steps + 1e-9) + 1 if math.isfinite(steps) else math.inf
    if count > MAX_SWEEP_THRESHOLDS:
        raise ConfigError(
            f"the sweep would evaluate {float(count):.6g} thresholds, "
            f"more than {MAX_SWEEP_THRESHOLDS}"
        )
    # rounding can put a whole-step endpoint a few ulps above --nu-max
    return np.minimum(nu_min + nu_step * np.arange(count), nu_max)


#: the columns of a `sweep` CSV, one row per threshold
SWEEP_COLUMNS = ("nu", *ens.TABLE_COLUMNS, "m_spectrum")


def _sweep_row(nu: float, mask: ExcursionMask) -> list:
    """One `sweep` row, in `SWEEP_COLUMNS` order, for the mask made at threshold nu:
    the mask's row of the per-realization table, its m_j written as ``{"j": m_j}``."""
    row = ens.measure_mask(mask)
    spectrum = {str(j): m for j, m in enumerate(row["m"] or ()) if m}  # a 3D mask has None
    return [nu, *(row[c] for c in ens.TABLE_COLUMNS), json.dumps(spectrum, sort_keys=True)]


def _cmd_sweep(args: argparse.Namespace) -> int:
    sigma_mode = ens.parse_sigma_mode(args.sigma_mode)
    field = load_field(args.field)
    rows = []
    if args.mask:
        bits = field.values > 0.5
        rows.append(_sweep_row(math.nan, ExcursionMask(bits=bits)))
    else:
        sigma = sample_sigma0(field) if sigma_mode == "sample" else sigma_mode
        for nu in _sweep_thresholds(args.nu_min, args.nu_max, args.nu_step).tolist():
            rows.append(_sweep_row(nu, excursion_mask(field, nu, sigma)))
    ens.write_csv(args.out, SWEEP_COLUMNS, rows)
    return 0


#: the files `ensemble` writes; a run first removes them from its output directory,
#: so that none is left from an earlier run
ENSEMBLE_OUTPUTS = (
    "PARTIAL_OUTPUT", "manifest.json", "summary.csv", "fits.csv", "duality.csv", "hist_*.csv",
)


def _cmd_ensemble(args: argparse.Namespace) -> int:
    run_cfg = parse_run_config(args.config)
    if args.workers is not None:
        run_cfg = replace(run_cfg, workers=args.workers)  # checked before any output
    config = run_cfg.config
    outdir = Path(args.output_dir or run_cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    for pattern in ENSEMBLE_OUTPUTS:
        for stale in outdir.glob(pattern):
            stale.unlink()
    try:
        result = ens.run_ensemble(config, workers=run_cfg.workers)
        fits = ens.compute_fits(result)
        # `DUALITY_SYSTEMATIC` was measured on 2D grids: a 3D run gets no duality verdict
        planar_mirror = config.dim == 2 and symmetric(config.thresholds)
        duality = ens.duality_check(result.summaries) if planar_mirror else None
        ens.write_manifest(result, outdir / "manifest.json")
        ens.write_summary_csv(result, outdir / "summary.csv")
        ens.write_hist_csvs(result, outdir)
        ens.write_fits_csv(fits, outdir / "fits.csv", config.manifest_hash())
        if duality is not None:
            _write_duality_csv(duality, outdir / "duality.csv", config.manifest_hash())
    except Exception as exc:
        (outdir / "PARTIAL_OUTPUT").write_text(f"run aborted: {exc}\n")
        raise
    if run_cfg.verbosity > 0:
        print(f"wrote {outdir}/summary.csv ({config.n_realizations} realizations, "
              f"{len(config.thresholds)} thresholds)")
    return 0


#: the name `_cmd_ensemble` calls the duality writer by: perfbench/tracing.py wraps it
#: here, and a benchmark change that wraps `ens.write_duality_csv` can drop it
_write_duality_csv = ens.write_duality_csv


def _cmd_states(args: argparse.Namespace) -> int:
    count = states_mod.count_all(args.b0, args.b1)
    payload = {
        "formula": count.formula_count,
        "vector": count.vector_count,
        "composition": count.composition_count,
        "discrepancy": count.discrepancy,
    }
    if args.list:
        payload["states"] = [list(v) for v in states_mod.vector_states(count)]
    print(json.dumps(payload))
    return 0


# ---------------------------------------------------------------------------
# parser and entry point


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fieldtopo",
        description="Topological statistics of excursion sets of Gaussian random fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a Gaussian random field dump")
    gen.add_argument("--amplitude", type=float, default=1.0)
    gen.add_argument("--alpha", type=float, default=0.0)
    gen.add_argument("--klow", type=float, default=None)
    gen.add_argument("--khigh", type=float, default=None)
    gen.add_argument("--n", type=int, required=True, help="grid side (power of two >= 32)")
    gen.add_argument("--boxsize", type=float, required=True)
    gen.add_argument("--rs", type=float, default=0.0, help="Gaussian smoothing length")
    gen.add_argument("--seed", type=_nonnegative_int, default=0)
    gen.add_argument("--dim", type=int, choices=(2, 3), default=2)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen)

    sweep = sub.add_parser("sweep", help="threshold sweep of a stored field")
    sweep.add_argument("--field", required=True, help="binary field dump")
    sweep.add_argument("--nu-min", type=float, default=-3.0)
    sweep.add_argument("--nu-max", type=float, default=3.0)
    sweep.add_argument("--nu-step", type=float, default=0.5)
    sweep.add_argument("--sigma-mode", default="sample",
                       help="'sample' or a fixed sigma0 value")
    sweep.add_argument("--mask", action="store_true",
                       help="treat the stored values as a binary mask (one row)")
    sweep.add_argument("--out", required=True)
    sweep.set_defaults(func=_cmd_sweep)

    ensemble_p = sub.add_parser("ensemble", help="run an ensemble from a config file")
    ensemble_p.add_argument("--config", required=True)
    ensemble_p.add_argument("--output-dir", default=None,
                            help="override output_dir from the config file")
    ensemble_p.add_argument("--workers", type=int, default=None)
    ensemble_p.set_defaults(func=_cmd_ensemble)

    states_p = sub.add_parser("states", help="count coefficient states for (b0, b1)")
    states_p.add_argument("--b0", type=_nonnegative_int, required=True)
    states_p.add_argument("--b1", type=_nonnegative_int, required=True)
    states_p.add_argument("--list", action="store_true",
                          help="also list the coefficient vectors")
    states_p.set_defaults(func=_cmd_states)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FieldtopoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ConfigError):
            return 2
        return 3 if isinstance(exc, (FormatError, OSError)) else 4


if __name__ == "__main__":
    sys.exit(main())
