"""
Binomial modeling of the topological statistics
===============================================

Treating the basis coefficients as draws-from-a-box Binomial variables
predicts the moments of b0, b1, chi and bsum.  Invert the measured moments
regime by regime and score the resulting PMFs against the empirical ones
with total-variation distances.
"""

import time

from fieldtopo import EnsembleConfig, PowerSpectrumModel, run_ensemble
from fieldtopo.inference import compute_fits

config = EnsembleConfig(
    model=PowerSpectrumModel(amplitude=1.0, alpha=0.0),
    side=128, L=128.0, dim=2, rs=4.0,
    n_realizations=400,
    thresholds=(-3.0, -2.5, -1.0, 0.0, 1.0, 2.5, 3.0),
    master_seed=31, sigma_mode="sample",
)

start = time.perf_counter()
result = run_ensemble(config, workers=2)
print(f"{config.n_realizations} realizations in {time.perf_counter() - start:.1f}s; "
      f"r_c = {result.r_c_measured:.3f}\n")

rows = compute_fits(result)
print(f"{'nu':>5} {'statistic':>9} {'regime':>14} {'N':>10} {'p':>7} "
      f"{'valid':>5} {'tv_binom':>9} {'tv_gauss':>9}")
for row in rows:
    f = row.fit
    tvb = f"{row.tv_binomial:.3f}" if row.tv_binomial is not None else "-"
    tvg = f"{row.tv_gaussian:.3f}" if row.tv_gaussian is not None else "-"
    print(f"{row.nu:5.1f} {row.statistic:>9} {row.regime:>14} {f.N_fit:10.1f} "
          f"{f.p_fit:7.3f} {str(f.valid):>5} {tvb:>9} {tvg:>9}")

print("""
Reading the table:
 - outer thresholds (|nu| >= 2.5) invert sigma_chi against the analytic mean;
   N shrinks and p grows as |nu| climbs, until variance ~ mean (Poisson
   territory) makes the inversion fragile;
 - chi at nu = 0 has zero mean: no Binomial can produce it (valid = False);
 - statistics with super-Poisson variance (variance > mean) are likewise
   flagged invalid rather than forced;
 - the TV columns compare empirical PMFs against the fitted Binomial and a
   moment-matched Gaussian; with a few hundred samples the floor set by
   histogram noise is ~0.1-0.15 for the wide central distributions.
""")
