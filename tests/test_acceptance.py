"""Acceptance gate: one test per stated criterion, at its stated tolerance.

The reference ensemble is a flat-spectrum 2D field, 512^2 grid, box L = 512
pixel units, smoothing rs = 4 px, 500 realizations, thresholds
-3.5 .. 3.5 in steps of 0.5, per-realization sigma thresholding.  Every test
prints one PASS/FAIL line (run with `pytest -s` to see them on success).

Each measurement is judged against a reference for the window and the
sample size actually measured.  The analysis window is a clipped square, so
C1 compares the mean chi with the Gaussian kinematic formula for the square
(`expected_chi`: area, half-perimeter and corner terms), and C5 pairs the
components at nu with all background components at -nu, the frame-cut ones
included.  C3 judges the sign of cov(b0, b1) by the covariance's own
standard error, and C6 scores total-variation distances net of the floor an
exact sample of 500 from the fitted model shows.

One clause is left failing rather than loosened: C6 for b1 at nu = +1, a
count of mean ~1.2 whose sample variance exceeds its mean, so the Binomial
fit is refused, and whose Gaussian model sits ~0.14 in TV from the Poisson
law such a count follows, at any sample size.  Its failure message carries
the measured numbers.  Companion diagnostics below check each mechanism
independently (the boundary terms by an inline formula, the perimeter
scaling of the raw b0(nu) - b1(-nu) deficit).
"""

import math
import time

import numpy as np
import pytest
from scipy import special
from scipy.stats import norm, poisson

from fieldtopo import (
    EnsembleConfig,
    ExcursionMask,
    PowerSpectrumModel,
    analytic_chi_gaussian,
    betti3d,
    betti_from_h,
    count_all,
    count_states_formula,
    duality_check,
    expected_chi,
    fit_binomial_chi,
    fit_binomial_moments,
    normality_trend,
    pdf_compare,
    run_ensemble,
    spectral_params,
    topo_stats_from_spectrum,
)
from fieldtopo.ensemble import config_from_manifest, write_summary_csv
from state_oracles import enumerate_composition_states

FLAT = PowerSpectrumModel(amplitude=1.0, alpha=0.0)
MASTER_SEED = 20250801
THRESHOLDS = tuple(x / 2.0 for x in range(-7, 8))

REFERENCE = EnsembleConfig(
    model=FLAT, side=512, L=512.0, dim=2, rs=4.0, n_realizations=500,
    thresholds=THRESHOLDS, master_seed=MASTER_SEED, sigma_mode="sample",
)

CI_PROFILE = EnsembleConfig(
    model=FLAT, side=256, L=256.0, dim=2, rs=4.0, n_realizations=200,
    thresholds=THRESHOLDS, master_seed=MASTER_SEED, sigma_mode="sample",
)


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="session")
def reference():
    return run_ensemble(REFERENCE, workers=2)


@pytest.fixture(scope="session")
def clt_trio():
    results = []
    for side in (128, 256, 512):
        cfg = EnsembleConfig(
            model=FLAT, side=side, L=float(side), dim=2, rs=4.0,
            n_realizations=500, thresholds=(-1.0, 1.0),
            master_seed=MASTER_SEED, sigma_mode="sample",
        )
        results.append(run_ensemble(cfg, workers=2))
    return results


def test_ci_profile_runtime(tmp_path):
    start = time.perf_counter()
    result = run_ensemble(CI_PROFILE, workers=2)
    elapsed = time.perf_counter() - start
    write_summary_csv(result, tmp_path / "summary.csv")
    ok = elapsed < 120.0 and (tmp_path / "summary.csv").exists()
    assert report("CI-PROFILE", ok, f"200x256^2 ensemble in {elapsed:.1f}s (limit 120s)")


def test_criterion_1_analytic_chi(reference):
    """Mean chi against the Gaussian kinematic formula for the square window."""
    r_c = reference.r_c_measured
    L = reference.config.L
    failures, worst = [], 0.0
    for summary in reference.summaries:
        nu = summary.nu
        if not 0.5 <= abs(nu) <= 2.0:
            continue
        predicted = expected_chi(nu, r_c, L)
        rel = (summary.mean["chi"] - predicted) / abs(predicted)
        worst = max(worst, abs(rel))
        tol = max(0.05 * abs(predicted), 3.0 * summary.se("chi"))
        if abs(summary.mean["chi"] - predicted) > tol:
            failures.append(f"nu={nu:+.1f}: rel={rel:+.1%}")
    ok = report(
        "C1", not failures,
        f"mean chi within max(5%, 3 SE) of the square-window prediction on "
        f"0.5<=|nu|<=2 (worst {worst:.2%})"
        + ("" if not failures else f"; exceeded at {failures}"),
    )
    assert ok, f"mean chi deviates from expected_chi(nu, r_c, L) at {failures}"


def test_diagnostic_chi_with_boundary_term(reference):
    """The finite-window boundary terms, evaluated inline.

    For a field observed through a square window the mean Euler
    characteristic gains half-perimeter and corner contributions,
    2L rho_1(nu) + (1 - Phi(nu)) with rho_1 = exp(-nu^2/2)/(2 sqrt(2) pi r_c),
    on top of the area-only density.  This writes the formula out
    independently of `expected_chi`, which criterion 1 uses, and holds it to
    a tighter 3% mark.
    """
    r_c = reference.r_c_measured
    L = reference.config.L
    area = reference.config.area
    worst = 0.0
    for summary in reference.summaries:
        nu = summary.nu
        if not 0.5 <= abs(nu) <= 2.0:
            continue
        rho1 = math.exp(-0.5 * nu * nu) / (2.0 * math.sqrt(2.0) * math.pi * r_c)
        predicted = analytic_chi_gaussian(nu, r_c) + (2 * L * rho1 + norm.sf(nu)) / area
        rel = abs(summary.mean["chi"] / area - predicted) / abs(predicted)
        worst = max(worst, rel)
    ok = report("C1-DIAGNOSTIC", worst < 0.03,
                f"boundary-corrected chi matches within {worst:.2%} (limit 3%)")
    assert ok


def test_criterion_2_exact_identities(reference):
    chi_ok = np.array_equal(reference.stats["chi"], reference.stats["chi_cell"])
    sums_ok = np.array_equal(
        reference.stats["bsum"], reference.stats["b0"] + reference.stats["b1"]
    ) and np.array_equal(
        reference.stats["chi"], reference.stats["b0"] - reference.stats["b1"]
    )
    gen_ok = True
    for t, nu in enumerate(reference.config.thresholds):
        for i in range(reference.config.n_realizations):
            hs = reference.spectrum_at(i, nu)
            direct = topo_stats_from_spectrum(hs)
            via_h = betti_from_h(hs)
            if (
                via_h != direct
                or direct.b0 != reference.stats["b0"][i, t]
                or direct.b1 != reference.stats["b1"][i, t]
            ):
                gen_ok = False
    ok = report(
        "C2", chi_ok and sums_ok and gen_ok,
        f"closed-cell chi == b0-b1: {chi_ok}; bsum == b0+b1: {sums_ok}; "
        f"generating-function equivalence on all {reference.stats['b0'].size} "
        f"(realization, threshold) pairs: {gen_ok}",
    )
    assert ok


def test_criterion_3_covariance_sign_and_ordering(reference):
    """b0 and b1 are anti-correlated, judged by the covariance's own SE.

    The SE of cov(b0, b1) is that of the mean of the centred products
    b0' b1'.  (a) No threshold on |nu| <= 2.5 has cov > +3 SE.  (b) Over the
    thresholds where both counts vary, the per-realization sum
    sum_nu b0' b1' / (sd_b0 sd_b1) has a mean more than 3 SE below 0; for
    independent counts it would sit near 0.  (c) Through C4's identities the
    ordering sd_chi > sqrt(sd_b0^2 + sd_b1^2) > sd_bsum is the same
    inequality as the sign; it is asserted wherever cov < -2 SE.  Where one
    count is (nearly) constant the covariance is statistically zero, and
    those thresholds are reported, not asserted.
    """
    n = reference.config.n_realizations
    pooled = np.zeros(n)
    positive, ordering_failures, resolved, unresolved = [], [], [], []
    for t, summary in enumerate(reference.summaries):
        nu = summary.nu
        if abs(nu) > 2.5:
            continue
        b0 = reference.stats["b0"][:, t].astype(float)
        b1 = reference.stats["b1"][:, t].astype(float)
        products = (b0 - b0.mean()) * (b1 - b1.mean())
        se = float(products.std(ddof=1)) / math.sqrt(n)
        cov = summary.cov_b0b1
        if cov > 3.0 * se:
            positive.append(f"nu={nu:+.1f}: cov={cov:+.3f} > 3 SE={3 * se:.3f}")
        if summary.sd["b0"] > 0 and summary.sd["b1"] > 0:
            pooled += products / (summary.sd["b0"] * summary.sd["b1"])
        quad = math.hypot(summary.sd["b0"], summary.sd["b1"])
        ordered = summary.sd["chi"] > quad > summary.sd["bsum"]
        if cov < -2.0 * se:
            resolved.append(f"{nu:+.1f} (z={cov / se:+.1f})")
            if not ordered:
                ordering_failures.append(f"nu={nu:+.1f}")
        else:
            unresolved.append(
                f"{nu:+.1f} (cov={cov:+.3f}, se={se:.3f}, "
                f"ordering {'holds' if ordered else 'fails'})"
            )
    pooled_se = float(pooled.std(ddof=1)) / math.sqrt(n)
    pooled_z = float(pooled.mean()) / pooled_se
    ok = report(
        "C3", not positive and pooled_z < -3.0 and not ordering_failures,
        f"no cov > +3 SE on |nu| <= 2.5: {not positive}; pooled normalized "
        f"covariance at {pooled_z:+.1f} SE (mark -3); resolved thresholds "
        f"{resolved} with sd ordering failing at {ordering_failures}; "
        f"unresolved, reported only: {unresolved}",
    )
    assert ok, (
        f"positive covariance at {positive}; pooled z = {pooled_z:+.2f}; "
        f"sd ordering fails where cov < -2 SE at {ordering_failures}"
    )


def test_criterion_4_variance_identities(reference):
    worst = 0.0
    for s in reference.summaries:
        lhs = s.sd["chi"]**2
        rhs = s.sd["b0"]**2 + s.sd["b1"]**2 - 2.0 * s.cov_b0b1
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-30))
        lhs = s.sd["bsum"]**2
        rhs = s.sd["b0"]**2 + s.sd["b1"]**2 + 2.0 * s.cov_b0b1
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-30))
    ok = report("C4", worst <= 1e-9,
                f"variance identities hold to {worst:.2e} relative (limit 1e-9)")
    assert ok


def test_criterion_5_duality(reference):
    rows = duality_check(reference.summaries)
    checked = [r for r in rows if abs(r.nu) <= 2.0]
    failures = [f"nu={r.nu:+.1f}: z={r.z:.1f}" for r in checked if not r.ok]
    worst = max(checked, key=lambda r: r.z)
    ok = report(
        "C5", not failures,
        "b0(nu) vs background components at -nu within 3 SE + 2% for "
        f"|nu| <= 2 (worst z={worst.z:.2f} at nu={worst.nu:+.1f})"
        + ("" if not failures else f"; violated at {failures}"),
    )
    assert ok, (
        f"duality violated at {failures}: b0(nu) and the background component "
        "count at -nu differ by more than the 2% connectivity allowance"
    )


def test_diagnostic_duality_deficit_scales_with_perimeter(clt_trio):
    """The raw b0(nu) - b1(-nu) deficit grows like the window perimeter.

    b1 leaves out the background pieces the frame cuts off, which is why
    criterion 5 pairs b0 with the full background count instead.  Across
    sides 128/256/512 the b0(1) - b1(-1) deficit should grow ~4x per
    doubling if it were a bulk effect and ~2x if it is boundary clipping;
    perimeter scaling pins it on the frame.
    """
    diffs = []
    for result in clt_trio:
        diff = float(
            result.samples("b0", 1.0).mean() - result.samples("b1", -1.0).mean()
        )
        diffs.append(diff)
    growth = diffs[2] / diffs[0]  # side 512 vs side 128
    ok = report(
        "C5-DIAGNOSTIC", 2.0 < growth < 8.0,
        f"duality deficits {['%.1f' % d for d in diffs]} grow x{growth:.1f} "
        "over a 4x side increase (perimeter ~4, bulk ~16)",
    )
    assert ok


#: seeded draws from a fitted model that set the TV floor of one sample size
FLOOR_DRAWS = 200


def tv_floor(samples: np.ndarray, fit, model: str) -> float:
    """Median TV distance of an exact sample from the fitted model to its refit.

    Each of FLOOR_DRAWS samples of the same size is drawn from the fitted
    model ("binomial": the Binomial as `pdf_compare` evaluates it;
    "gaussian": the sample mean and sd), refit with `fit_binomial_moments`
    and scored by `pdf_compare`.  The observed TV minus this floor is a lower
    bound on the model's distance from the parent distribution.
    """
    rng = np.random.default_rng(MASTER_SEED)
    tvs = []
    for _ in range(FLOOR_DRAWS):
        if model == "binomial":
            n_int = fit.N_round
            draws = rng.binomial(n_int, fit.N_fit * fit.p_fit / n_int, size=samples.size)
        else:
            draws = rng.normal(samples.mean(), samples.std(ddof=1), size=samples.size)
        refit = fit_binomial_moments(float(draws.mean()), float(draws.var(ddof=1)))
        cmp = pdf_compare(draws, refit if refit.valid else None)
        tv = cmp.tv_binomial if model == "binomial" else cmp.tv_gaussian
        if tv is not None:
            tvs.append(tv)
    return float(np.median(tvs))


def gaussian_tv_to_poisson(mean: float, sd: float) -> float:
    """TV distance between Poisson(mean) and the binned Gaussian(mean, sd)."""
    bins = np.arange(math.floor(mean - 8 * sd), math.ceil(mean + 8 * sd) + 1)
    edges = np.concatenate([bins - 0.5, [bins[-1] + 0.5]])
    gauss = np.diff(special.ndtr((edges - mean) / sd))
    return float(0.5 * np.abs(gauss - poisson.pmf(bins, mean)).sum())


def test_criterion_6_binomial_regimes(reference):
    r_c = reference.r_c_measured
    area = reference.config.area
    problems = []

    # high-threshold regime: analytic-mean inversion on chi (~ b0 there)
    fits = {}
    for nu in (3.0, 3.5):
        summary = reference.summary_at(nu)
        fits[nu] = fit_binomial_chi(nu, summary.sd["chi"], r_c, area)
        if not fits[nu].valid:
            problems.append(f"fit at nu={nu} invalid")
    n_decreasing = fits[3.0].valid and fits[3.5].valid and fits[3.5].N_fit < fits[3.0].N_fit
    if not n_decreasing:
        problems.append(
            f"N_fit not decreasing: N(3)={fits[3.0].N_fit:.1f} N(3.5)={fits[3.5].N_fit:.1f}"
        )

    cmp35 = pdf_compare(reference.samples("chi", 3.5), fits[3.5] if fits[3.5].valid else None)
    tv_ok = cmp35.tv_binomial is not None and cmp35.tv_binomial <= cmp35.tv_gaussian
    if not tv_ok:
        problems.append(
            f"tv_binomial={cmp35.tv_binomial} > tv_gaussian={cmp35.tv_gaussian:.3f} at nu=3.5"
        )

    chi0 = reference.samples("chi", 0.0)
    fit0 = fit_binomial_moments(float(chi0.mean()), float(chi0.var(ddof=1)))
    if fit0.valid:
        problems.append("chi fit at nu=0 unexpectedly valid")

    # intermediate regime: TV net of the sampling floor of 500 draws
    tv_summary = []
    for nu in (1.0, -1.0):
        for stat in ("b0", "b1"):
            x = reference.samples(stat, nu)
            mean, var = float(x.mean()), float(x.var(ddof=1))
            fit = fit_binomial_moments(mean, var)
            cmp = pdf_compare(x, fit if fit.valid else None)
            models = {"gaussian": cmp.tv_gaussian}
            if fit.valid:
                models["binomial"] = cmp.tv_binomial
            else:
                detail = (
                    f"{stat}@{nu:+g} binomial: fit refused ({fit.note}: mean "
                    f"{mean:.3f}, variance {var:.3f}, {np.unique(x).size} occupied bins)"
                )
                if var > mean:
                    tv_poisson = gaussian_tv_to_poisson(mean, math.sqrt(var))
                    detail += (
                        f"; its Gaussian model is {tv_poisson:.3f} in TV from "
                        f"Poisson({mean:.2f}) at any sample size"
                    )
                problems.append(detail)
            for model, tv in models.items():
                floor = tv_floor(x, fit, model)
                tv_summary.append(
                    f"{stat}@{nu:+g} {model}: TV {tv:.3f} - floor {floor:.3f} = {tv - floor:+.3f}"
                )
                if tv - floor > 0.1:
                    problems.append(
                        f"{stat}@{nu:+g} {model}: TV {tv:.3f} - floor {floor:.3f} "
                        f"= {tv - floor:.3f} > 0.1"
                    )

    ok = report(
        "C6", not problems,
        f"high-nu fits N(3)={fits[3.0].N_fit:.1f} > N(3.5)={fits[3.5].N_fit:.1f}, "
        f"tvB(3.5)={cmp35.tv_binomial:.3f} <= tvG={cmp35.tv_gaussian:.3f}, "
        f"chi@0 invalid={not fit0.valid}; [{'; '.join(tv_summary)}]"
        + ("" if not problems else f"; problems: {problems}"),
    )
    assert ok, (
        f"{problems}; TV is scored net of the median TV of {FLOOR_DRAWS} exact "
        "samples of the same size from the fitted model, so what exceeds 0.1 "
        "is a misfit of the model, not sampling noise"
    )


def test_criterion_7_state_counting():
    for n0 in range(1, 13):
        for n1 in range(1, 13):
            if n0 != n1:
                assert count_states_formula(n0, n1) == enumerate_composition_states(n0, n1)
    assert count_all(2, 2).vector_count == 2
    assert count_all(3, 3).vector_count == 3
    vector_n4 = count_all(4, 4).vector_count
    vector_43 = count_all(4, 3).vector_count
    assert vector_n4 == 5 and vector_43 == 3
    ok = report(
        "C7", True,
        "formula == composition oracle on 1..12 off-diagonal; vector oracle "
        f"gives 2, 3 for n=2,3 and {vector_n4} for n=4 vs closed-form 4, "
        f"{vector_43} for (4,3) vs closed-form 4 (documented deviation: the "
        "closed forms count ordered compositions, not coefficient vectors)",
    )
    assert ok


def test_criterion_8_3d_fixtures():
    def stats_of(bits):
        return betti3d(ExcursionMask(bits=bits))

    ball = np.zeros((6, 6, 6), dtype=bool)
    ball[1:5, 1:5, 1:5] = True
    shell = np.zeros((5, 5, 5), dtype=bool)
    shell[1:4, 1:4, 1:4] = True
    shell[2, 2, 2] = False
    torus = np.zeros((7, 7, 3), dtype=bool)
    torus[1:6, 1, 1] = torus[1:6, 5, 1] = True
    torus[1, 1:6, 1] = torus[5, 1:6, 1] = True

    results = {}
    for name, bits in (("ball", ball), ("shell", shell), ("torus", torus)):
        s = stats_of(bits)
        results[name] = (s.b0, s.b1, s.b2, s.chi, s.bsum)
    expected = {
        "ball": (1, 0, 0, 1, 1),
        "shell": (1, 0, 1, 2, 2),
        "torus": (1, 1, 0, 0, 2),
    }
    fixtures_ok = results == expected

    rng = np.random.default_rng(MASTER_SEED)
    b1_ok = True
    for _ in range(100):
        bits = rng.random((64, 64, 64)) < rng.uniform(0.1, 0.9)
        if stats_of(bits).b1 < 0:
            b1_ok = False
    ok = report(
        "C8", fixtures_ok and b1_ok,
        f"voxel fixtures {results}; b1 >= 0 on 100 random 64^3 masks: {b1_ok}",
    )
    assert ok


def test_criterion_9_spectral_scaling():
    type2 = PowerSpectrumModel(1.0, 0.0, k_low_cutoff=0.1, k_high_cutoff=1.0)
    base = spectral_params(type2, rs=1e-4, L=200.0, dim=3).r_c
    double_L = spectral_params(type2, rs=1e-4, L=400.0, dim=3).r_c
    half_rs = spectral_params(type2, rs=5e-5, L=200.0, dim=3).r_c
    type2_ok = (
        abs(double_L - base) <= 1e-6 * base and abs(half_rs - base) <= 1e-6 * base
    )

    type1_ratios = {}
    for dim in (2, 3):
        small = spectral_params(FLAT, rs=2.0, L=512.0, dim=dim)
        big = spectral_params(FLAT, rs=4.0, L=512.0, dim=dim)
        type1_ratios[dim] = (big.r_c / small.r_c, small.q / big.q)
    type1_ok = all(
        abs(r_ratio - 2.0) <= 0.2 and abs(q_ratio - 2.0**dim) <= 0.2 * 2.0**dim
        for dim, (r_ratio, q_ratio) in type1_ratios.items()
    )
    ok = report(
        "C9", type2_ok and type1_ok,
        f"type-2 r_c stable to 1e-6 under L->2L and rs->rs/2: {type2_ok}; "
        f"type-1 r_c/q ratios per dim {type1_ratios}",
    )
    assert ok


def test_criterion_10_clt_trend(clt_trio):
    rows = normality_trend(clt_trio, statistics=("b0",))
    row = next(r for r in rows if r.nu == 1.0)
    ok = report(
        "C10", row.abs_skew_decreasing,
        f"|skew(b0, nu=1)| across sides {row.sides}: "
        f"{['%.3f' % s for s in row.skewness]} strictly decreasing: "
        f"{row.abs_skew_decreasing}",
    )
    assert ok


def test_criterion_11_determinism(reference, tmp_path):
    first = tmp_path / "summary_workers2.csv"
    write_summary_csv(reference, first)

    rerun_config = config_from_manifest(reference.config.to_manifest())
    rerun = run_ensemble(rerun_config, workers=1)
    second = tmp_path / "summary_workers1.csv"
    write_summary_csv(rerun, second)

    identical = first.read_bytes() == second.read_bytes()
    ok = report(
        "C11", identical,
        "summary.csv byte-identical when the manifest is re-run with a "
        f"different worker count: {identical}",
    )
    assert ok
