"""Ensemble pipeline: seeded realizations folded into per-threshold summaries.

`run_ensemble` drives n independent realizations (seeded as (master_seed,
index), so the result is independent of how work is scheduled) through
generate (with the smoothing fused in) -> threshold -> `measure_mask`, and
folds their integer statistics into per-threshold summaries.  `write_csv`
writes every CSV file of the package, `sweep`'s too; the other writers build rows.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence, get_type_hints

import numpy as np
import scipy

from .errors import ConfigError, DegenerateFieldError, DomainError, FieldtopoError
from .grf import generate, sample_moments
from .grf import smooth  # noqa: F401  unused here; perfbench/tracing.py wraps it by name
from .inference import STATISTICS, DualityRow, FitRow
# unused here, like `smooth`: perfbench/tracing.py wraps them by name, and cli calls them here
from .inference import compute_fits, duality_check, normality_trend  # noqa: F401
from .spectrum import PowerSpectrumModel, check_type
from .topo2d import (
    ExcursionMask,
    HoleSpectrum,
    euler_closed_cell,
    excursion_mask,
    hole_spectrum,
    topo_stats_from_spectrum,
)
from .topo3d import betti3d

STAT_NAMES = ("b0", "b1", "b2", "chi", "bsum")

#: columns of the per-realization table, one row per threshold: the Betti
#: statistics, the largest j with m_j > 0, the closed-cell chi and the
#: background component count
TABLE_COLUMNS = (*STAT_NAMES, "jmax", "chi_cell", "bg")

#: how a float prints in a CSV field and in a hist file name
FLOAT_FORMAT = ".12g"


# ---------------------------------------------------------------------------
# configuration and result containers


@dataclass(frozen=True)
class EnsembleConfig:
    """The run parameters of an ensemble; their field names are the manifest keys.

    The defaults are those of a config file that leaves a key out.
    """

    model: PowerSpectrumModel = PowerSpectrumModel()
    side: int = 256
    L: float = 256.0
    dim: int = 2
    rs: float = 0.0
    n_realizations: int = 2
    thresholds: tuple[float, ...] = (0.0,)
    master_seed: int = 0
    sigma_mode: str | float = "sample"

    def __post_init__(self) -> None:
        for name, tp in get_type_hints(EnsembleConfig).items():
            object.__setattr__(self, name, check_type(name, getattr(self, name), tp, ConfigError))
        if self.dim not in (2, 3):
            raise ConfigError(f"dim must be 2 or 3, got {self.dim}")
        if self.side < 32 or self.side & (self.side - 1) != 0:
            raise ConfigError(f"grid side must be a power of two >= 32, got {self.side}")
        if not (math.isfinite(self.L) and self.L > 0):
            raise ConfigError(f"box size L must be finite and > 0, got {self.L}")
        if not (math.isfinite(self.rs) and self.rs >= 0):
            raise ConfigError(f"rs must be finite and >= 0, got {self.rs}")
        object.__setattr__(self, "sigma_mode", parse_sigma_mode(self.sigma_mode))
        if self.n_realizations < 2:
            raise ConfigError("an ensemble needs at least 2 realizations")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be >= 0, got {self.master_seed}")
        nus = self.thresholds
        if not (nus and all(math.isfinite(v) for v in nus)):
            raise ConfigError("thresholds must list at least one finite value")
        for a, b in zip(nus, nus[1:]):
            if b <= a:
                raise ConfigError("thresholds must be strictly increasing")
            if format(a, FLOAT_FORMAT) == format(b, FLOAT_FORMAT):  # rounding is monotone
                raise ConfigError(f"thresholds {a!r} and {b!r} both print as {a:{FLOAT_FORMAT}}")

    @property
    def area(self) -> float:
        """Box measure (L^2 or L^3); the per-unit-area normalizer."""
        return self.L**self.dim

    def to_manifest(self) -> dict:
        """Every run parameter under its field name, the model's fields flattened in."""
        manifest = {"schema": "fieldtopo-run/1"}
        for owner in (self.model, self):
            manifest.update(
                (f.name, getattr(owner, f.name)) for f in fields(owner) if f.name != "model"
            )
        return manifest

    def manifest_hash(self) -> str:
        payload = json.dumps(self.to_manifest(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]


def parse_sigma_mode(value: str | float) -> str | float:
    """Check a sigma_mode: ``"sample"``, or a finite sigma0 > 0 given as a number or text."""
    if value == "sample":
        return value
    try:
        sigma = float(value)
    except (TypeError, ValueError):
        sigma = math.nan
    if not (math.isfinite(sigma) and sigma > 0):
        raise ConfigError(f"sigma_mode must be 'sample' or a finite number > 0, got {value!r}")
    return sigma


def manifest_types() -> dict[str, object]:
    """The annotated type of every run parameter, by manifest key."""
    types = {**get_type_hints(PowerSpectrumModel), **get_type_hints(EnsembleConfig)}
    del types["model"]
    return types


def config_from_manifest(manifest: dict) -> EnsembleConfig:
    """Inverse of `EnsembleConfig.to_manifest`; an absent key takes its field default."""

    def given(cls) -> dict:
        return {f.name: manifest[f.name] for f in fields(cls) if f.name in manifest}

    model = PowerSpectrumModel(**given(PowerSpectrumModel))
    return EnsembleConfig(**{**given(EnsembleConfig), "model": model})


@dataclass
class ThresholdSummary:
    """Ensemble moments of the topological statistics at one threshold.

    ``mean`` and ``sd`` (ddof 1) are keyed by statistic: each of `STAT_NAMES`
    and ``"bg"``, the background component count (holes plus frame-cut
    exterior pieces), the dual partner of b0 at -nu.
    """

    nu: float
    n_realizations: int
    mean: dict[str, float]
    sd: dict[str, float]
    cov_b0b1: float

    def se(self, stat: str) -> float:
        """Standard error of the ensemble mean of ``stat``."""
        return self.sd[stat] / math.sqrt(self.n_realizations)


@dataclass
class EnsembleResult:
    config: EnsembleConfig
    summaries: list[ThresholdSummary]
    stats: dict[str, np.ndarray]  # (n_realizations, n_thresholds) int64 each
    mj_tables: list[np.ndarray]  # per threshold: (n_realizations, jmax+1); none in 3D
    sigma0s: np.ndarray
    sigma1s: np.ndarray

    @property
    def r_c_measured(self) -> float:
        """Mean of the per-realization sigma0/sigma1 ratios; a flat realization has none."""
        if not self.sigma1s.all():
            raise DegenerateFieldError("a realization has sigma_1 = 0: no measured r_c")
        return float(np.mean(self.sigma0s / self.sigma1s))

    def nu_index(self, nu: float) -> int:
        check_type("nu", nu, float, DomainError)
        dist = [abs(t - float(nu)) for t in self.config.thresholds]
        idx = dist.index(min(dist))  # the first closest, as argmin takes it
        if not dist[idx] <= 1e-9:  # NaN is in no grid
            raise DomainError(f"threshold {nu} not in the ensemble grid")
        return idx

    def samples(self, stat: str, nu: float) -> np.ndarray:
        """Per-realization values of one statistic at one threshold."""
        check_type("stat", stat, str, DomainError)
        if stat not in self.stats:
            raise DomainError(f"unknown statistic {stat!r}")
        return self.stats[stat][:, self.nu_index(nu)]

    def summary_at(self, nu: float) -> ThresholdSummary:
        return self.summaries[self.nu_index(nu)]

    def coefficient_moments(self, nu: float) -> tuple[np.ndarray, np.ndarray]:
        """Column means and ddof-1 covariance C of the m_j table at one threshold.

        Computed on each call, never stored; a 3D result raises `DomainError`,
        as `spectrum_at` does.  With j = 0 .. jmax, b0 = 1.m and
        b1 = j.m, so every second moment of b0, b1, chi and bsum is a
        quadratic form of C; `inference.variance_split(C)` gives each one
        beside the part that independent m_j would give.
        """
        _, table = self._mj_table(nu)
        return table.mean(axis=0), np.atleast_2d(np.cov(table, rowvar=False))

    def spectrum_at(self, realization: int, nu: float) -> HoleSpectrum:
        check_type("realization", realization, int, DomainError)
        if not 0 <= realization < self.config.n_realizations:
            raise DomainError(
                f"realization {realization} not in [0, {self.config.n_realizations})"
            )
        t, table = self._mj_table(nu)
        n_background = int(self.stats["bg"][realization, t])
        return HoleSpectrum(m=table[realization].tolist(), n_background=n_background)

    def _mj_table(self, nu: float) -> tuple[int, np.ndarray]:
        """The index of threshold nu and its m_j table; `betti3d` measures no m_j."""
        if self.config.dim == 3:
            raise DomainError("a 3D result has no m_j: betti3d counts no holes per component")
        t = self.nu_index(nu)
        return t, self.mj_tables[t]


# ---------------------------------------------------------------------------
# the pipeline


def measure_mask(mask: ExcursionMask) -> dict:
    """The mask's row of the per-realization table, keyed by `TABLE_COLUMNS`, and its m_j as "m".

    2D: `hole_spectrum`, with `euler_closed_cell` as the independent check of its run graph.
    3D: `betti3d`, whose chi is read off its run graph; it measures no m_j ("m" None, jmax 0).
    """
    if mask.dim == 3:
        st = betti3d(mask)
        m, jmax, chi_cell = None, 0, st.chi
    else:
        hs = hole_spectrum(mask)
        st = topo_stats_from_spectrum(hs)
        m, jmax, chi_cell = hs.m, hs.jmax, euler_closed_cell(mask)
    stats = {name: getattr(st, name) for name in STAT_NAMES}
    return {**stats, "jmax": jmax, "chi_cell": chi_cell, "bg": st.n_background, "m": m}


def _realize(config: EnsembleConfig, index: int) -> dict:
    """Run one realization through the full topology chain.

    A `FieldtopoError` on the way is re-raised as the same type, its message
    prefixed with the realization index, its seed and, from the threshold
    loop, the threshold nu.
    """
    nu = None
    try:
        field = generate(
            config.model, config.side, config.L, config.dim,
            seed=(config.master_seed, index), rs=config.rs,
        )
        moments = sample_moments(field)

        table = np.zeros((len(config.thresholds), len(TABLE_COLUMNS)), dtype=np.int64)
        mj: list[tuple[int, ...] | None] = []
        sigma = moments.sigma0 if config.sigma_mode == "sample" else config.sigma_mode
        for t, nu in enumerate(config.thresholds):
            row = measure_mask(excursion_mask(field, nu, sigma))
            table[t] = [row[c] for c in TABLE_COLUMNS]
            mj.append(row["m"])
    except FieldtopoError as exc:
        site = f"realization {index}, seed ({config.master_seed}, {index})"
        if nu is not None:
            site += f", nu = {nu}"
        raise type(exc)(f"{site}: {exc}") from exc
    return {
        "sigma0": moments.sigma0,
        "sigma1": moments.sigma1,
        "table": table,
        "mj": mj,
    }


def _realize_args(args: tuple[EnsembleConfig, int]) -> dict:
    """`_realize` for the pool: pickled by name, it looks `_realize` up per call,
    so a wrapped `_realize` (a local function, as perfbench's tracer installs) still runs."""
    return _realize(*args)


def _summarize(config: EnsembleConfig, rows: list[dict]) -> EnsembleResult:
    """Deterministic fold of the per-realization results, given in index order."""
    n = len(rows)
    cube = np.stack([r["table"] for r in rows])  # (n, n_nu, len(TABLE_COLUMNS))
    stats = {name: cube[:, :, c] for c, name in enumerate(TABLE_COLUMNS)}

    mj_tables = []
    if config.dim == 2:  # betti3d measures no m_j
        for t in range(len(config.thresholds)):
            table = np.zeros((n, stats["jmax"][:, t].max() + 1), dtype=np.int64)
            for i, m in enumerate(r["mj"][t] for r in rows):
                table[i, : len(m)] = m
            mj_tables.append(table)

    summaries = []
    for t, nu in enumerate(config.thresholds):
        x = {name: stats[name][:, t].astype(float) for name in (*STAT_NAMES, "bg")}
        summaries.append(
            ThresholdSummary(
                nu=nu,
                n_realizations=n,
                mean={name: float(v.mean()) for name, v in x.items()},
                sd={name: float(v.std(ddof=1)) for name, v in x.items()},
                cov_b0b1=float(np.cov(x["b0"], x["b1"])[0, 1]),
            )
        )

    return EnsembleResult(
        config=config,
        summaries=summaries,
        stats=stats,
        mj_tables=mj_tables,
        sigma0s=np.array([r["sigma0"] for r in rows]),
        sigma1s=np.array([r["sigma1"] for r in rows]),
    )


def run_ensemble(config: EnsembleConfig, workers: int = 1) -> EnsembleResult:
    """Run the full ensemble; all realizations or nothing.

    The per-realization table and every derived summary are bitwise
    independent of ``workers``: realization i is seeded by
    (master_seed, i) and the fold is a fixed-order pass over indices, so
    the pool has min(workers, n_realizations, CPUs) processes (none for 1).
    """
    check_type("workers", workers, int, ConfigError)
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    indices = range(config.n_realizations)
    workers = min(workers, config.n_realizations, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(
                pool.map(
                    _realize_args,
                    [(config, i) for i in indices],
                    chunksize=max(1, config.n_realizations // (4 * workers)),
                )
            )
    else:
        rows = [_realize(config, i) for i in indices]
    return _summarize(config, rows)


# ---------------------------------------------------------------------------
# file output (summary.csv, hist_*.csv, fits.csv, duality.csv, manifest)


def write_csv(path: str | Path, columns, rows, manifest_hash: str | None = None) -> None:
    """Write one CSV file; every CSV of the package goes through here.

    An optional ``# manifest_hash=`` line, the header, then one line per row.
    A float prints as ``%.12g``, a bool as 0 or 1, None as an empty field,
    anything else with `str`; a field holding a comma or a double quote is
    quoted (RFC 4180).
    """

    def text(value) -> str:
        if value is None:
            return ""
        if isinstance(value, bool):
            value = int(value)
        out = format(value, FLOAT_FORMAT) if isinstance(value, float) else str(value)
        if "," in out or '"' in out:
            out = '"' + out.replace('"', '""') + '"'
        return out

    lines = [] if manifest_hash is None else [f"# manifest_hash={manifest_hash}"]
    lines += [",".join(map(text, row)) for row in [columns, *rows]]
    Path(path).write_text("\n".join(lines) + "\n")


def write_summary_csv(result: EnsembleResult, path: str | Path) -> None:
    """Write per-threshold moments; body is deterministic for a given manifest."""
    cols = [
        "nu", "n", "area",
        *(f"mean_{stat}" for stat in STATISTICS),
        *(f"sd_{stat}" for stat in STATISTICS), "cov_b0b1",
        *(f"mean_{stat}_per_area" for stat in STATISTICS),
    ]
    area = result.config.area
    rows = [
        [
            s.nu, s.n_realizations, area,
            *(s.mean[stat] for stat in STATISTICS),
            *(s.sd[stat] for stat in STATISTICS), s.cov_b0b1,
            *(s.mean[stat] / area for stat in STATISTICS),
        ]
        for s in result.summaries
    ]
    write_csv(path, cols, rows, result.config.manifest_hash())


def write_hist_csvs(result: EnsembleResult, outdir: str | Path) -> None:
    """One hist_<stat>_<nu>.csv per statistic and threshold, nu as in the CSVs."""
    mh = result.config.manifest_hash()
    for t, nu in enumerate(result.config.thresholds):
        for stat in STAT_NAMES:
            bins, counts = np.unique(result.stats[stat][:, t], return_counts=True)
            path = Path(outdir) / f"hist_{stat}_{nu:{FLOAT_FORMAT}}.csv"
            write_csv(path, ["bin", "count"], zip(bins.tolist(), counts.tolist()), mh)


def write_fits_csv(rows: Sequence[FitRow], path: str | Path, manifest_hash: str) -> None:
    cols = ["nu", "statistic", "regime", "N", "p", "valid", "tv_binomial", "tv_gaussian", "note"]
    write_csv(path, cols, [
        [r.nu, r.statistic, r.regime, r.fit.N_fit, r.fit.p_fit,
         r.fit.valid, r.tv_binomial, r.tv_gaussian, r.fit.note]
        for r in rows
    ], manifest_hash)


def write_duality_csv(rows: Sequence[DualityRow], path: str | Path, manifest_hash: str) -> None:
    """One column per `DualityRow` field, in field order."""
    cols = [f.name for f in fields(DualityRow)]
    write_csv(path, cols, [[getattr(r, c) for c in cols] for r in rows], manifest_hash)


def _environment() -> dict[str, str]:
    """What a run ran on: package, Python, numpy and scipy versions, FFT module.

    Outputs are byte-reproducible only within one FFT implementation, so
    `manifest.json` records it; the manifest hash does not cover it.
    """
    from . import __version__  # the package imports this module first

    return {
        "fieldtopo": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "fft": np.fft.__name__,
    }


def write_manifest(result: EnsembleResult, path: str | Path) -> None:
    manifest = result.config.to_manifest()
    manifest["manifest_hash"] = result.config.manifest_hash()
    manifest["environment"] = _environment()
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
