"""
Ensemble moments of the topological statistics
==============================================

Run a small ensemble and look at the structure the theory predicts: the
mean Euler characteristic follows nu exp(-nu^2/2) (plus a finite-window
boundary offset), b0 and b1 are anti-correlated through the percolation
region, and the variance identities tie the four statistics together.
"""

import math
import time

from fieldtopo import (
    EnsembleConfig,
    PowerSpectrumModel,
    analytic_chi_gaussian,
    duality_check,
    expected_chi,
    run_ensemble,
    variance_split,
)

config = EnsembleConfig(
    model=PowerSpectrumModel(amplitude=1.0, alpha=0.0),
    side=128, L=128.0, dim=2, rs=4.0,
    n_realizations=200,
    thresholds=(-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0),
    master_seed=7, sigma_mode="sample",
)

start = time.perf_counter()
result = run_ensemble(config, workers=2)
print(f"{config.n_realizations} realizations of {config.side}^2 "
      f"in {time.perf_counter() - start:.1f}s")

r_c = result.r_c_measured
area = result.config.area
L = config.L
print(f"measured r_c = {r_c:.3f} (smoothing rs = {config.rs})")

# the clipped square window adds perimeter + corner terms to <chi>
print(f"\n{'nu':>5} {'<chi>':>9} {'area formula':>13} {'with boundary':>14} "
      f"{'cov(b0,b1)':>11} {'sd_chi':>7} {'sd_bsum':>8}")
for s in result.summaries:
    analytic = analytic_chi_gaussian(s.nu, r_c) * area
    print(f"{s.nu:5.1f} {s.mean['chi']:9.2f} {analytic:13.2f} "
          f"{expected_chi(s.nu, r_c, L):14.2f} {s.cov_b0b1:11.3f} "
          f"{s.sd['chi']:7.2f} {s.sd['bsum']:8.2f}")

print("\nnegative cov(b0,b1) makes sd_chi the widest and sd_bsum the "
      "narrowest of the four statistics:")
s = result.summary_at(0.0)
quad = math.hypot(s.sd['b0'], s.sd['b1'])
print(f"  at nu=0: sd_chi={s.sd['chi']:.2f} > sqrt(sd_b0^2+sd_b1^2)={quad:.2f} "
      f"> sd_bsum={s.sd['bsum']:.2f}")

print("\nvariance split over the m_j covariance C (b1 = sum_j j m_j): each "
      "total against the part independent m_j would give")
print(f"{'nu':>5} {'var b1':>9} {'indep.':>9} {'cov(b0,b1)':>11} {'indep.':>9}")
for s in result.summaries:
    split = variance_split(result.coefficient_moments(s.nu)[1])
    (var_b1, var_b1_ind), (cov, cov_ind) = split["b1"], split["cov_b0b1"]
    print(f"{s.nu:5.1f} {var_b1:9.2f} {var_b1_ind:9.2f} {cov:11.2f} {cov_ind:9.2f}")
print("the independent part of cov(b0,b1), sum_j j var(m_j), is never negative: "
      "the anti-correlation lives in the cross-j covariances")

print("\nduality b0(nu) vs background components at -nu (holes plus the "
      "pieces the frame cuts off; b1(-nu) alone would miss the latter):")
for row in duality_check(result.summaries):
    if row.nu >= 0:
        print(f"  nu={row.nu:4.1f}: b0={row.mean_b0:8.2f} "
              f"bg(-nu)={row.mean_bg_mirror:8.2f} diff={row.diff:6.2f} "
              f"z={row.z:4.2f}")
