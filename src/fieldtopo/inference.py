"""Inference on ensemble results: analytic references, Binomial fits, diagnostics.

`ensemble` folds the realizations into per-threshold summaries; this module
asks whether those statistics look Binomial or Gaussian, and `compute_fits`
gives `fits.csv`.  Only `pdf_compare` needs ``scipy.stats`` (the Binomial
PMF), and only it and `expected_chi` need ``scipy.special`` (``ndtr``): they
import them on first call, so an ensemble under 100 realizations loads neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import ConfigError, DomainError

if TYPE_CHECKING:
    from .ensemble import EnsembleResult, ThresholdSummary

#: the statistics that `summary.csv`, the intermediate-regime fits and
#: `normality_trend` report
STATISTICS = ("b0", "b1", "chi", "bsum")

#: cap on the trials parameter when the moment inversion degenerates
N_TRIALS_CAP = 1.0e9

#: relative systematic allowance in the duality check for the 2D 8/4
#: connectivity asymmetry: a diagonal-only contact joins two foreground
#: components but splits the background they enclose
DUALITY_SYSTEMATIC = 0.02

#: |nu| at and beyond which `compute_fits` uses the analytic chi inversions
REGIME_CUT = 2.0

#: fewest samples `pdf_compare` takes, so the ensemble size from which
#: `compute_fits` attaches TV distances
MIN_PDF_SAMPLES = 100

#: most integer bins `pdf_compare` spans: 64 times the largest count a
#: 512^2 or 64^3 ensemble can hold (a count never exceeds the 262 144 cells)
MAX_PDF_BINS = 2**24


# ---------------------------------------------------------------------------
# analytic mean Euler characteristic (2D Gaussian field)


def analytic_chi_amplitude(r_c: float) -> float:
    """Amplitude of the mean Euler characteristic density: 1/(4 sqrt(2) pi^1.5 r_c^2)."""
    if not (math.isfinite(r_c) and r_c > 0 and r_c * r_c > 0):
        raise DomainError(f"r_c must be positive and finite, its square too, got {r_c}")
    return 1.0 / (4.0 * math.sqrt(2.0) * math.pi**1.5 * r_c * r_c)


def analytic_chi_gaussian(nu: float, r_c: float) -> float:
    """Mean Euler characteristic per unit area of a 2D Gaussian field."""
    if not math.isfinite(nu):
        raise DomainError("nu must be finite")
    return analytic_chi_amplitude(r_c) * nu * math.exp(-0.5 * nu * nu)


def expected_chi(nu: float, r_c: float, L: float) -> float:
    """Mean Euler characteristic of the excursion set in an L x L square window.

    Gaussian kinematic formula with the Lipschitz-Killing curvatures of the
    square (area L^2, half-perimeter 2L, Euler characteristic 1):
    L^2 rho_2(nu) + 2L rho_1(nu) + (1 - Phi(nu)), where rho_2 is
    `analytic_chi_gaussian` and rho_1 = exp(-nu^2/2)/(2 sqrt(2) pi r_c).
    The last two terms are what a clipped window adds to the area-only mean.
    A mean that overflows a float raises `DomainError`.
    """
    if not (math.isfinite(L) and L > 0):
        raise DomainError("window side L must be positive and finite")
    rho2 = analytic_chi_gaussian(nu, r_c)
    rho1 = math.exp(-0.5 * nu * nu) / (2.0 * math.sqrt(2.0) * math.pi * r_c)
    from scipy.special import ndtr  # on first use, like `binom` in `pdf_compare`

    chi = L * L * rho2 + 2.0 * L * rho1 + float(ndtr(-nu))
    if not math.isfinite(chi):
        raise DomainError(f"the mean chi overflows a float (nu = {nu}, r_c = {r_c}, L = {L})")
    return chi


# ---------------------------------------------------------------------------
# variance split over the m_j covariance


def variance_split(cov: np.ndarray) -> dict[str, tuple[float, float]]:
    """Each second moment of the m_j sums as (total, the part independent m_j give).

    ``cov`` is the m_j covariance C that `EnsembleResult.coefficient_moments`
    returns.  b0, b1, chi and bsum weight the m_j by w = 1, j, 1 - j and 1 + j,
    so under each name in `STATISTICS` the pair is (w^T C w, sum_j w_j^2 C_jj);
    under "cov_b0b1" it is (1^T C j, sum_j j C_jj), whose independent part is
    never negative.  A C that is not a non-empty, square, finite 2-D array
    raises `DomainError`.
    """
    cov = np.asarray(cov)
    if not (cov.ndim == 2 and cov.shape[0] == cov.shape[1] > 0 and np.isfinite(cov).all()):
        raise DomainError(f"cov {cov.shape} must be a non-empty, square, finite 2-D array")
    j = np.arange(len(cov), dtype=float)
    one, diag = np.ones_like(j), np.diag(cov)
    pairs = {stat: (w, w) for stat, w in zip(STATISTICS, (one, j, one - j, one + j))}
    pairs["cov_b0b1"] = (one, j)
    return {name: (float(u @ cov @ v), float(u * v @ diag)) for name, (u, v) in pairs.items()}


# ---------------------------------------------------------------------------
# Binomial modeling


@dataclass
class BinomialFit:
    """Result of a Binomial moment inversion: N and p with mean N p and variance N p (1 - p)."""

    N_fit: float
    p_fit: float
    valid: bool
    note: str = ""

    @property
    def N_round(self) -> int:
        return max(1, int(round(self.N_fit)))


def fit_binomial_moments(mean: float, variance: float) -> BinomialFit:
    """Solve mean = N p, variance = N p (1 - p) for (N, p); every inverted fit is built here.

    Method of moments: p = 1 - variance/mean, N = mean/p.  A non-positive
    mean or super-Poisson variance has no Binomial solution and is returned
    flagged invalid rather than raised, as is a capped N that would need
    p > 1; variance == mean is the Poisson limit, reported as a capped-N
    fit.  A non-finite mean or a NaN variance is rejected.
    """
    if not math.isfinite(mean):
        raise DomainError("mean must be finite")
    if math.isnan(variance):
        raise DomainError("variance must not be NaN")
    if not mean > 0:
        return BinomialFit(0.0, 0.0, False, "non-positive mean")
    if variance < 0:
        return BinomialFit(0.0, 0.0, False, "negative variance")
    denom = mean - variance
    if denom < 0:
        return BinomialFit(0.0, 0.0, False, "super-Poisson variance")
    if mean > N_TRIALS_CAP:  # so mean * mean below cannot overflow
        return BinomialFit(N_TRIALS_CAP, mean / N_TRIALS_CAP, False, "mean above the N cap")
    n = mean * mean / denom if denom > 0 else math.inf
    if n > N_TRIALS_CAP:
        return BinomialFit(N_TRIALS_CAP, mean / N_TRIALS_CAP, True, "poisson-like (N capped)")
    if n < 1.0:
        return BinomialFit(n, mean / n, False, "N below one trial")
    return BinomialFit(n, mean / n, True)


def fit_binomial_chi(nu: float, sd_chi_num: float, r_c: float, area: float) -> BinomialFit:
    """Tail fit: the magnitude of the analytic mean chi plays the role of N p.

    At large positive nu the excursion set is dominated by simply connected
    components, so chi ~ b0 ~ m_0.  At large negative nu it tends to one
    multiply connected region and chi ~ -b1, the mirror image under
    f -> -f.  Either way mu = area |rho_2(nu)| and the numerically measured
    sd of chi pin down (N, p) through `fit_binomial_moments`.
    """
    if not (math.isfinite(nu) and nu != 0):
        raise DomainError(f"the tail fit needs a finite nu != 0, got {nu}")
    if not sd_chi_num > 0:
        raise DomainError("sd_chi_num must be positive")
    if not (math.isfinite(area) and area > 0):
        raise DomainError(f"area must be positive and finite, got {area}")
    mu = area * abs(analytic_chi_gaussian(nu, r_c))
    return fit_binomial_moments(mu, sd_chi_num * sd_chi_num)


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
    if samples.ndim != 1:
        raise DomainError(f"pdf_compare needs 1-D samples, got shape {samples.shape}")
    if samples.size < MIN_PDF_SAMPLES:
        raise DomainError(f"pdf_compare needs at least {MIN_PDF_SAMPLES} samples")
    if not (np.abs(samples) < 2.0**63).all():  # NaN and inf fail too; larger ones wrap in the cast
        raise DomainError("pdf_compare needs finite samples within the int64 range")
    values = np.rint(samples).astype(np.int64)
    mean = float(values.mean())
    sd = float(values.std(ddof=1))
    sd = max(sd, 1e-9)  # sigma floor for degenerate ensembles

    lo = int(min(values.min(), math.floor(mean - 8 * sd), 0))
    hi = int(max(values.max(), math.ceil(mean + 8 * sd)))
    if hi - lo + 1 > MAX_PDF_BINS:
        raise DomainError(
            f"pdf_compare would span {hi - lo + 1} bins ({lo} to {hi}), "
            f"more than MAX_PDF_BINS = {MAX_PDF_BINS}"
        )
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
    """Whether a finite threshold grid is its own mirror image about 0 (to 1e-9)."""
    nus = np.sort(np.asarray(thresholds, dtype=float)) / 2  # halves: the sum cannot overflow
    return bool(np.all(np.abs(nus + nus[::-1]) <= 0.5e-9))


def duality_check(summaries: Sequence[ThresholdSummary]) -> list[DualityRow]:
    """Compare <b0(nu)> against the background component count at -nu.

    Under f -> -f the components of the excursion set at nu map onto all
    background components at -nu: the holes plus the pieces of exterior the
    frame cuts off.  (b1(-nu) leaves the frame-cut pieces out, so it is not
    the dual on a clipped window; in 3D neither is b1, which counts tunnels.)
    What remains of the difference comes from the 8/4 connectivity
    asymmetry, which `DUALITY_SYSTEMATIC` allows for; it was measured on 2D
    ensembles (3D's 26/6 gap is larger).  The z-score is the excess of
    |difference| over that systematic, in units of the combined standard
    error; z <= 3 is the pass mark, which NaN (under 2 realizations) fails.
    """
    summaries = sorted(summaries, key=lambda s: s.nu)
    if not symmetric([s.nu for s in summaries]):
        raise ConfigError("duality check needs a threshold grid symmetric about 0")

    rows = []
    for s_pos, s_neg in zip(summaries, reversed(summaries)):  # s_neg is the summary at -nu
        b0, bg = s_pos.mean["b0"], s_neg.mean["bg"]
        diff = b0 - bg
        se = math.hypot(s_pos.se("b0"), s_neg.se("bg"))
        systematic = DUALITY_SYSTEMATIC * max(abs(b0), abs(bg))
        excess = max(0.0, abs(diff) - systematic)
        if s_pos.n_realizations < 2:
            z = math.nan
        elif se == 0.0:  # constant counts: any excess is infinitely many standard errors
            z = 0.0 if excess == 0.0 else math.inf
        else:
            z = excess / se
        rows.append(DualityRow(
            nu=s_pos.nu, mean_b0=b0, mean_bg_mirror=bg, diff=diff, se_combined=se,
            systematic=systematic, z=z, ok=z <= 3.0,  # NaN and inf fail
            flag="insufficient data" if s_pos.n_realizations < 2 else "",
        ))
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

    All results must share the threshold grid and the dimension, each at its
    own grid side; rows report, per statistic and threshold, whether
    |skewness| decreases monotonically as the grid side grows (the
    Gaussian-limit trend).  A constant statistic is flagged, and
    its NaN skewness compares False, so it breaks the trend.
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
    if len({r.config.dim for r in results}) > 1 or len(set(sides)) < len(sides):
        raise ConfigError("all ensembles must share the dimension and differ in grid side")

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
            decreasing = all(abs(b) < abs(a) for a, b in zip(skews, skews[1:]))
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
    nu: float
    statistic: str
    regime: str  # high_positive | low_negative | intermediate
    fit: BinomialFit
    tv_binomial: float | None = None
    tv_gaussian: float | None = None


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
    area = result.config.area
    enough = result.config.n_realizations >= MIN_PDF_SAMPLES
    planar = result.config.dim == 2
    rows: list[FitRow] = []
    for summary in result.summaries:
        nu = summary.nu
        tail = abs(nu) >= REGIME_CUT
        for stat in ("chi",) if tail else STATISTICS:
            samples = result.samples(stat, nu)
            if tail:
                regime = "high_positive" if nu > 0 else "low_negative"
                if planar and summary.sd["chi"] > 0:
                    fit = fit_binomial_chi(nu, summary.sd["chi"], result.r_c_measured, area)
                else:  # chi took one value in every realization, or no 3D mean to invert against
                    note = "zero variance" if planar else "no 3D analytic chi"
                    fit = BinomialFit(0.0, 0.0, False, note)
                if planar and nu < 0:
                    samples = -samples
            else:
                regime = "intermediate"
                fit = fit_binomial_moments(float(samples.mean()), float(samples.var(ddof=1)))
            row = FitRow(nu, stat, regime, fit)
            if enough:
                cmp = pdf_compare(samples, fit)
                row.tv_binomial, row.tv_gaussian = cmp.tv_binomial, cmp.tv_gaussian
            rows.append(row)
    return rows

