"""Ensemble pipeline: per-threshold moments, Binomial fits and diagnostics.

`run_ensemble` drives n independent realizations (seeded as
(master_seed, index), so the result is reproducible and independent of how
work is scheduled) through generate (with the smoothing fused in) ->
threshold -> hole spectrum, and folds the per-realization integer
statistics into per-threshold summaries.  On top of the summaries sit the
analytic Gaussian Euler characteristic, the Binomial moment inversions
(`fit_binomial_chi` in both tails, `fit_binomial_moments` in between),
total-variation comparisons of empirical PMFs against Binomial and Gaussian
models, and the duality and normality diagnostics.  Only `pdf_compare`
needs ``scipy.stats`` (the Binomial PMF), and only it and `expected_chi`
need ``scipy.special`` (``ndtr``).  They import them on their first call, so
an ensemble of fewer than 100 realizations loads neither.  Every
CSV file of the package, the `sweep` table included, is written by
`write_csv`; the other writers build rows.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dataclass_field, fields
from pathlib import Path
from typing import Sequence, get_type_hints

import numpy as np
import scipy

from .errors import ConfigError, DomainError, FieldtopoError
from .grf import generate, sample_moments
from .grf import smooth  # noqa: F401  unused here; perfbench/tracing.py wraps it by name
from .spectrum import PowerSpectrumModel
from .topo2d import (
    ExcursionMask,
    HoleSpectrum,
    TopoStats,
    euler_closed_cell,
    excursion_mask,
    hole_spectrum,
    topo_stats_from_spectrum,
)
from .topo3d import betti3d

STAT_NAMES = ("b0", "b1", "b2", "chi", "bsum")

#: the statistics that `summary.csv`, the intermediate-regime fits and
#: `normality_trend` report
STATISTICS = ("b0", "b1", "chi", "bsum")

#: columns of the per-realization table, one row per threshold: the Betti
#: statistics, the largest j with m_j > 0, the closed-cell chi and the
#: background component count
TABLE_COLUMNS = (*STAT_NAMES, "jmax", "chi_cell", "bg")

#: cap on the trials parameter when the moment inversion degenerates
N_TRIALS_CAP = 1.0e9

#: relative systematic allowance in the duality check for the 8/4 (26/6)
#: connectivity asymmetry: a diagonal-only contact joins two foreground
#: components but splits the background they enclose
DUALITY_SYSTEMATIC = 0.02

#: |nu| at and beyond which `compute_fits` uses the analytic chi inversions
REGIME_CUT = 2.0

#: fewest samples `pdf_compare` takes, so the ensemble size from which
#: `compute_fits` attaches TV distances
MIN_PDF_SAMPLES = 100

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
        nus = tuple(float(v) for v in self.thresholds)
        if not (nus and all(math.isfinite(v) for v in nus)):
            raise ConfigError("thresholds must list at least one finite value")
        for a, b in zip(nus, nus[1:]):
            if b <= a:
                raise ConfigError("thresholds must be strictly increasing")
            if format(a, FLOAT_FORMAT) == format(b, FLOAT_FORMAT):  # rounding is monotone
                raise ConfigError(f"thresholds {a!r} and {b!r} both print as {a:{FLOAT_FORMAT}}")
        object.__setattr__(self, "thresholds", nus)

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
    mean_mj: dict[int, float] = dataclass_field(default_factory=dict)
    var_mj: dict[int, float] = dataclass_field(default_factory=dict)
    histograms: dict[str, dict[int, int]] = dataclass_field(default_factory=dict)

    def se(self, stat: str) -> float:
        """Standard error of the ensemble mean of ``stat``."""
        return self.sd[stat] / math.sqrt(self.n_realizations)


@dataclass
class EnsembleResult:
    config: EnsembleConfig
    summaries: list[ThresholdSummary]
    stats: dict[str, np.ndarray]  # (n_realizations, n_thresholds) int64 each
    mj_tables: list[np.ndarray]  # per threshold: (n_realizations, jmax+1)
    sigma0s: np.ndarray
    sigma1s: np.ndarray

    @property
    def area(self) -> float:
        return self.config.area

    @property
    def r_c_measured(self) -> float:
        """Mean of the per-realization sigma0/sigma1 ratios."""
        return float(np.mean(self.sigma0s / self.sigma1s))

    def nu_index(self, nu: float) -> int:
        nus = np.asarray(self.config.thresholds)
        idx = int(np.argmin(np.abs(nus - nu)))
        if abs(nus[idx] - nu) > 1e-9:
            raise DomainError(f"threshold {nu} not in the ensemble grid")
        return idx

    def samples(self, stat: str, nu: float) -> np.ndarray:
        """Per-realization values of one statistic at one threshold."""
        if stat not in self.stats:
            raise DomainError(f"unknown statistic {stat!r}")
        return self.stats[stat][:, self.nu_index(nu)]

    def summary_at(self, nu: float) -> ThresholdSummary:
        return self.summaries[self.nu_index(nu)]

    def spectrum_at(self, realization: int, nu: float) -> HoleSpectrum:
        t = self.nu_index(nu)
        row = self.mj_tables[t][realization]
        counts = {j: int(m) for j, m in enumerate(row) if m > 0}
        n_background = int(self.stats["bg"][realization, t])
        return HoleSpectrum(counts=counts, n_background=n_background)


# ---------------------------------------------------------------------------
# the pipeline


def measure_mask(mask: ExcursionMask) -> tuple[TopoStats, dict[int, int]]:
    """Topological statistics of one mask and its hole spectrum {j: m_j}.

    A 3D mask goes to `betti3d` and has an empty spectrum; a 2D mask goes
    to `hole_spectrum`.
    """
    if mask.dim == 3:
        return betti3d(mask), {}
    hs = hole_spectrum(mask)
    return topo_stats_from_spectrum(hs), hs.counts


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
        mj: list[dict[int, int]] = []
        sigma = moments.sigma0 if config.sigma_mode == "sample" else config.sigma_mode
        for t, nu in enumerate(config.thresholds):
            mask = excursion_mask(field, nu, sigma)
            st, counts = measure_mask(mask)
            # betti3d's chi is the closed-cell count; in 2D the whole-mask count
            # checks the per-component block sums that the hole counts come from
            chi_cell = euler_closed_cell(mask) if mask.dim == 2 else st.chi
            row = {"jmax": max(counts, default=0), "chi_cell": chi_cell, "bg": st.n_background}
            table[t] = [row[c] if c in row else getattr(st, c) for c in TABLE_COLUMNS]
            mj.append(counts)
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
    n_nu = len(config.thresholds)
    cube = np.stack([r["table"] for r in rows])  # (n, n_nu, len(TABLE_COLUMNS))
    stats = {name: cube[:, :, c] for c, name in enumerate(TABLE_COLUMNS)}

    mj_tables = []
    for t in range(n_nu):
        table = np.zeros((n, stats["jmax"][:, t].max() + 1), dtype=np.int64)
        for i, r in enumerate(rows):
            counts = r["mj"][t]
            table[i, list(counts)] = list(counts.values())
        mj_tables.append(table)

    summaries = []
    for t, nu in enumerate(config.thresholds):
        x = {name: stats[name][:, t].astype(float) for name in (*STAT_NAMES, "bg")}
        mjt = mj_tables[t]
        mean_mj = {j: float(m) for j, m in enumerate(mjt.mean(axis=0)) if m > 0}
        var_mj = {
            j: float(v)
            for j, v in enumerate(mjt.var(axis=0, ddof=1))
            if j in mean_mj
        }
        histograms = {}
        for name in STAT_NAMES:
            vals, counts = np.unique(stats[name][:, t], return_counts=True)
            histograms[name] = {int(v): int(c) for v, c in zip(vals, counts)}
        summaries.append(
            ThresholdSummary(
                nu=nu,
                n_realizations=n,
                mean={name: float(v.mean()) for name, v in x.items()},
                sd={name: float(v.std(ddof=1)) for name, v in x.items()},
                cov_b0b1=float(np.cov(x["b0"], x["b1"])[0, 1]),
                mean_mj=mean_mj,
                var_mj=var_mj,
                histograms=histograms,
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
# analytic mean Euler characteristic (2D Gaussian field)


def analytic_chi_amplitude(r_c: float) -> float:
    """Amplitude of the mean Euler characteristic density: 1/(4 sqrt(2) pi^1.5 r_c^2)."""
    if r_c <= 0:
        raise DomainError("r_c must be positive")
    return 1.0 / (4.0 * math.sqrt(2.0) * math.pi**1.5 * r_c * r_c)


def analytic_chi_gaussian(nu: float, r_c: float) -> float:
    """Mean Euler characteristic per unit area of a 2D Gaussian field."""
    return analytic_chi_amplitude(r_c) * nu * math.exp(-0.5 * nu * nu)


def expected_chi(nu: float, r_c: float, L: float) -> float:
    """Mean Euler characteristic of the excursion set in an L x L square window.

    Gaussian kinematic formula with the Lipschitz-Killing curvatures of the
    square (area L^2, half-perimeter 2L, Euler characteristic 1):
    L^2 rho_2(nu) + 2L rho_1(nu) + (1 - Phi(nu)), where rho_2 is
    `analytic_chi_gaussian` and rho_1 = exp(-nu^2/2)/(2 sqrt(2) pi r_c).
    The last two terms are what a clipped window adds to the area-only mean.
    """
    if not math.isfinite(nu):
        raise DomainError("nu must be finite")
    if not (math.isfinite(L) and L > 0):
        raise DomainError("window side L must be positive and finite")
    rho2 = analytic_chi_gaussian(nu, r_c)
    rho1 = math.exp(-0.5 * nu * nu) / (2.0 * math.sqrt(2.0) * math.pi * r_c)
    from scipy.special import ndtr  # on first use, like `binom` in `pdf_compare`

    return L * L * rho2 + 2.0 * L * rho1 + float(ndtr(-nu))


# ---------------------------------------------------------------------------
# spectrum-level inequality diagnostic


@dataclass
class MjInequalityReport:
    nu: float
    total_sum: float
    total_negative: bool
    violating_j: list[int]
    per_j_margin: dict[int, float]


def check_mj_inequality(summary: ThresholdSummary) -> MjInequalityReport:
    """Evaluate the anti-correlation inequality on the m_j moments.

    The total is sum_j j (<m_j^2> - <m_j> sum_k <m_k>), which equals
    Cov(b0, b1) under cross-j independence, so it should come out negative
    for Gaussian fields.  The strict per-component condition
    <m_j> + var(m_j)/<m_j> < sum_k <m_k> is checked for every populated
    j >= 1; violations are compatible with a negative total.
    """
    if not summary.mean_mj:
        raise DomainError("summary has no m_j moments")
    total_mean = sum(summary.mean_mj.values())
    total = 0.0
    violating = []
    margins = {}
    for j, mean_j in summary.mean_mj.items():
        var_j = summary.var_mj.get(j, 0.0)
        second_moment = var_j + mean_j * mean_j
        total += j * (second_moment - mean_j * total_mean)
        if j >= 1 and mean_j > 0:
            # condition multiplied through by <m_j> to avoid the division
            margin = mean_j * mean_j + var_j - mean_j * total_mean
            margins[j] = margin
            if margin >= 0:
                violating.append(j)
    return MjInequalityReport(
        nu=summary.nu,
        total_sum=total,
        total_negative=total < 0,
        violating_j=violating,
        per_j_margin=margins,
    )


# ---------------------------------------------------------------------------
# Binomial modeling


@dataclass
class BinomialFit:
    """Result of a Binomial moment inversion for one statistic at one threshold."""

    nu: float
    regime: str  # high_positive | low_negative | intermediate
    N_fit: float
    p_fit: float
    valid: bool
    statistic: str
    note: str = ""

    @property
    def N_round(self) -> int:
        return max(1, int(round(self.N_fit)))


def _invert_moments(
    mu: float, variance: float, nu: float, regime: str, statistic: str
) -> BinomialFit:
    """Solve mu = N p, variance = N p (1 - p) for (N, p); every solved fit is built here.

    variance >= mu has no Binomial solution; variance == mu is the Poisson
    limit, reported as a capped-N fit.
    """

    def fit(n: float, p: float, valid: bool, note: str = "") -> BinomialFit:
        return BinomialFit(
            nu=nu, regime=regime, N_fit=n, p_fit=p, valid=valid, statistic=statistic, note=note
        )

    if not mu > 0:
        return fit(0.0, 0.0, False, "non-positive mean")
    if variance < 0:
        return fit(0.0, 0.0, False, "negative variance")
    denom = mu - variance
    if denom < 0:
        return fit(0.0, 0.0, False, "super-Poisson variance")
    if denom == 0 or mu * mu / denom > N_TRIALS_CAP:
        return fit(N_TRIALS_CAP, mu / N_TRIALS_CAP, True, "poisson-like (N capped)")
    n = mu * mu / denom
    if n < 1.0:
        return fit(n, mu / n, False, "N below one trial")
    return fit(n, mu / n, True)


def fit_binomial_chi(nu: float, sd_chi_num: float, r_c: float, area: float) -> BinomialFit:
    """Tail fit: the magnitude of the analytic mean chi plays the role of N p.

    At large positive nu the excursion set is dominated by simply connected
    components, so chi ~ b0 ~ m_0 (regime ``high_positive``).  At large
    negative nu it tends to one multiply connected region and chi ~ -b1
    (``low_negative``), the mirror image under f -> -f.  Either way
    mu = area |rho_2(nu)| and the numerically measured sd of chi pin down
    (N, p).
    """
    if not (math.isfinite(nu) and nu != 0):
        raise DomainError(f"the tail fit needs a finite nu != 0, got {nu}")
    if not sd_chi_num > 0:
        raise DomainError("sd_chi_num must be positive")
    mu = area * abs(analytic_chi_gaussian(nu, r_c))
    return _invert_moments(mu, sd_chi_num * sd_chi_num, nu, _tail_regime(nu), "chi")


def _tail_regime(nu: float) -> str:
    return "high_positive" if nu > 0 else "low_negative"


def fit_binomial_moments(
    mean: float, variance: float, nu: float = math.nan, statistic: str = ""
) -> BinomialFit:
    """Intermediate-regime fit: treat the statistic itself as one Binomial.

    Method of moments: p = 1 - variance/mean, N = mean/p.  A non-positive
    mean or super-Poisson variance has no Binomial solution and is returned
    flagged invalid rather than raised.
    """
    if not math.isfinite(mean):
        raise DomainError("mean must be finite")
    return _invert_moments(mean, variance, nu, "intermediate", statistic)


# ---------------------------------------------------------------------------
# PDF comparison


@dataclass
class PdfComparison:
    bins: np.ndarray
    pmf_empirical: np.ndarray
    tv_binomial: float | None
    tv_gaussian: float


def pdf_compare(samples, fit: BinomialFit | None) -> PdfComparison:
    """Total-variation distances of the empirical PMF to the fitted models.

    The empirical distribution of the integer ``samples`` is compared to the
    fitted Binomial PMF (skipped when ``fit`` is missing or invalid) and to a
    Gaussian with the sample mean and standard deviation, integrated over the
    same integer bins.  A fitted real-valued N is evaluated at the nearest
    integer with p rescaled to preserve the fitted mean N p.
    """
    samples = np.asarray(samples)
    if samples.size < MIN_PDF_SAMPLES:
        raise DomainError(f"pdf_compare needs at least {MIN_PDF_SAMPLES} samples")
    values = np.rint(samples).astype(np.int64)
    mean = float(values.mean())
    sd = float(values.std(ddof=1))
    sd = max(sd, 1e-9)  # sigma floor for degenerate ensembles

    lo = int(min(values.min(), math.floor(mean - 8 * sd), 0))
    hi = int(max(values.max(), math.ceil(mean + 8 * sd)))
    bins = np.arange(lo, hi + 1)

    pmf_emp = np.bincount(values - lo, minlength=bins.size) / values.size

    tv_binomial = None
    if fit is not None and fit.valid:
        n_int = fit.N_round
        p_use = min(1.0, max(0.0, fit.N_fit * fit.p_fit / n_int))
        from scipy.stats import binom  # on first use: importing it would double start-up

        pmf_bin = binom.pmf(bins, n_int, p_use)
        # no sample lies above hi, so the Binomial mass there is all unmatched;
        # lo <= 0, so none lies below
        unmatched = binom.sf(hi, n_int, p_use)
        tv_binomial = float(0.5 * (np.abs(pmf_emp - pmf_bin).sum() + unmatched))

    from scipy.special import ndtr  # on first use, like `binom`: import loads no scipy submodule

    edges = np.concatenate([bins - 0.5, [bins[-1] + 0.5]])
    cdf = ndtr((edges - mean) / sd)
    pmf_gauss = np.diff(cdf)
    tv_gaussian = float(0.5 * np.abs(pmf_emp - pmf_gauss).sum())

    return PdfComparison(
        bins=bins, pmf_empirical=pmf_emp, tv_binomial=tv_binomial, tv_gaussian=tv_gaussian
    )


# ---------------------------------------------------------------------------
# duality and normality diagnostics


@dataclass
class DualityRow:
    nu: float
    mean_b0: float
    mean_bg_mirror: float
    diff: float
    se_combined: float
    systematic: float
    z: float
    ok: bool
    flag: str = ""


def symmetric(thresholds: Sequence[float]) -> bool:
    """Whether a threshold grid is its own mirror image about 0 (to 1e-9)."""
    nus = np.sort(np.asarray(thresholds, dtype=float))
    return bool(np.allclose(nus, -nus[::-1], rtol=0.0, atol=1e-9))


def duality_check(summaries: Sequence[ThresholdSummary]) -> list[DualityRow]:
    """Compare <b0(nu)> against the background component count at -nu.

    Under f -> -f the components of the excursion set at nu map onto all
    background components at -nu: the holes plus the pieces of exterior the
    frame cuts off.  (b1(-nu) leaves the frame-cut pieces out, so it is not
    the dual on a clipped window; in 3D neither is b1, which counts tunnels.)
    What remains of the difference comes from the 8/4 (26/6) connectivity
    asymmetry, which `DUALITY_SYSTEMATIC` allows for.  The z-score is the
    excess of |difference| over that systematic, in units of the combined
    standard error; |z| <= 3 is the pass mark.
    """
    summaries = sorted(summaries, key=lambda s: s.nu)
    if not symmetric([s.nu for s in summaries]):
        raise ConfigError("duality check needs a threshold grid symmetric about 0")

    rows = []
    for i, s_pos in enumerate(summaries):
        s_neg = summaries[len(summaries) - 1 - i]  # summary at -nu
        diff = s_pos.mean["b0"] - s_neg.mean["bg"]
        se = math.hypot(s_pos.se("b0"), s_neg.se("bg"))
        scale = max(abs(s_pos.mean["b0"]), abs(s_neg.mean["bg"]))
        systematic = DUALITY_SYSTEMATIC * scale
        flag = ""
        if s_pos.n_realizations < 2:
            flag = "insufficient data"
            z = math.nan
            ok = False
        elif se == 0.0:
            excess = max(0.0, abs(diff) - systematic)
            z = 0.0 if excess == 0.0 else math.inf
            ok = z <= 3.0
        else:
            z = max(0.0, abs(diff) - systematic) / se
            ok = z <= 3.0
        rows.append(
            DualityRow(
                nu=s_pos.nu,
                mean_b0=s_pos.mean["b0"],
                mean_bg_mirror=s_neg.mean["bg"],
                diff=diff,
                se_combined=se,
                systematic=systematic,
                z=z,
                ok=ok,
                flag=flag,
            )
        )
    return rows


@dataclass
class NormalityRow:
    statistic: str
    nu: float
    sides: list[int]
    skewness: list[float]
    excess_kurtosis: list[float]
    abs_skew_decreasing: bool
    flags: list[str]


def normality_trend(
    results: Sequence[EnsembleResult], statistics: Sequence[str] = STATISTICS
) -> list[NormalityRow]:
    """Track skewness and excess kurtosis across grid sizes.

    All results must share the threshold grid; rows report, per statistic and
    threshold, whether |skewness| decreases monotonically as the grid side
    grows (the Gaussian-limit trend).  Constant statistics are flagged.
    Skewness m3 / m2^1.5 and excess kurtosis m4 / m2^2 - 3 come from the
    biased central moments m_k, in the same operations as the defaults of
    ``scipy.stats.skew`` and ``kurtosis``, so the values match them exactly.
    """
    if len(results) < 2:
        raise ConfigError("normality trend needs at least 2 grid sizes")
    thresholds = results[0].config.thresholds
    for r in results[1:]:
        if r.config.thresholds != thresholds:
            raise ConfigError("all ensembles must share the threshold grid")
    results = sorted(results, key=lambda r: r.config.side)
    sides = [r.config.side for r in results]

    rows = []
    for stat in statistics:
        for nu in thresholds:
            skews, kurts, flags = [], [], []
            for r in results:
                x = r.samples(stat, nu).astype(float)
                if np.ptp(x) == 0.0:
                    skews.append(math.nan)
                    kurts.append(math.nan)
                    flags.append(f"constant at side {r.config.side}")
                else:
                    d = x - x.mean()
                    d2 = d**2
                    m2 = d2.mean()
                    skews.append(float((d2 * d).mean() / m2**1.5))
                    kurts.append(float((d2**2).mean() / m2**2.0 - 3.0))
            finite = [abs(s) for s in skews if not math.isnan(s)]
            decreasing = len(finite) == len(skews) and all(
                b < a for a, b in zip(finite, finite[1:])
            )
            rows.append(
                NormalityRow(
                    statistic=stat,
                    nu=nu,
                    sides=sides,
                    skewness=skews,
                    excess_kurtosis=kurts,
                    abs_skew_decreasing=decreasing,
                    flags=flags,
                )
            )
    return rows


# ---------------------------------------------------------------------------
# regime-wise fit table (the fits.csv content)


@dataclass
class FitRow:
    fit: BinomialFit
    tv_binomial: float | None
    tv_gaussian: float | None


def compute_fits(result: EnsembleResult) -> list[FitRow]:
    """Produce the per-threshold fit table across the three regimes.

    |nu| >= `REGIME_CUT`: the analytic-mean inversion on chi, with the
    measured r_c, sampled as -chi below zero (a tail threshold where chi
    never varies gets an invalid row noted "zero variance"); in between:
    method-of-moments fits for each statistic.  The inversion needs the 2D
    density `analytic_chi_gaussian`, so a 3D tail row is invalid, noted
    "no 3D analytic chi", with chi sampled as it is.  TV distances are
    attached when there are enough realizations for a PDF comparison.
    """
    r_c = result.r_c_measured
    area = result.area
    enough = result.config.n_realizations >= MIN_PDF_SAMPLES
    planar = result.config.dim == 2
    rows: list[FitRow] = []
    for summary in result.summaries:
        nu = summary.nu
        if abs(nu) >= REGIME_CUT:
            if planar and summary.sd["chi"] > 0:
                fit = fit_binomial_chi(nu, summary.sd["chi"], r_c, area)
            else:  # chi took one value in every realization, or no 3D mean to invert against
                note = "zero variance" if planar else "no 3D analytic chi"
                fit = BinomialFit(nu, _tail_regime(nu), 0.0, 0.0, False, "chi", note)
            samples = result.samples("chi", nu)
            rows.append(_fit_row(fit, -samples if planar and nu < 0 else samples, enough))
        else:
            for stat in STATISTICS:
                samples = result.samples(stat, nu)
                fit = fit_binomial_moments(
                    float(samples.mean()),
                    float(samples.var(ddof=1)),
                    nu=nu,
                    statistic=stat,
                )
                rows.append(_fit_row(fit, samples, enough))
    return rows


def _fit_row(fit: BinomialFit, samples: np.ndarray, enough: bool) -> FitRow:
    if not enough:
        return FitRow(fit=fit, tv_binomial=None, tv_gaussian=None)
    cmp = pdf_compare(samples, fit)
    return FitRow(fit=fit, tv_binomial=cmp.tv_binomial, tv_gaussian=cmp.tv_gaussian)


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
    area = result.area
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
    for s in result.summaries:
        for stat in STAT_NAMES:
            path = Path(outdir) / f"hist_{stat}_{s.nu:{FLOAT_FORMAT}}.csv"
            write_csv(path, ["bin", "count"], sorted(s.histograms.get(stat, {}).items()), mh)


def write_fits_csv(rows: Sequence[FitRow], path: str | Path, manifest_hash: str) -> None:
    cols = ["nu", "statistic", "regime", "N", "p", "valid", "tv_binomial", "tv_gaussian"]
    write_csv(path, cols, [
        [r.fit.nu, r.fit.statistic, r.fit.regime, r.fit.N_fit, r.fit.p_fit,
         r.fit.valid, r.tv_binomial, r.tv_gaussian]
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
