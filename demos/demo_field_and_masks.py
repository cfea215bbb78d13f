"""
From a power spectrum to excursion-set topology
===============================================

Generate one smoothed Gaussian field, threshold it at a few levels, and
watch the topology flip from hole-dominated (low nu) to component-dominated
(high nu).
"""

import math

from fieldtopo import (
    PowerSpectrumModel,
    excursion_mask,
    generate,
    hole_spectrum,
    sample_moments,
    spectral_moment,
    spectral_params,
    topo_stats_from_spectrum,
)

model = PowerSpectrumModel(amplitude=1.0, alpha=0.0)
side, box, rs = 256, 256.0, 4.0

field = generate(model, side, box, dim=2, seed=20250801, rs=rs)

moments = sample_moments(field)
predicted_sigma0 = math.sqrt(spectral_moment(model, 0, rs, 0.0, math.inf, 2))
predicted_rc = spectral_params(model, rs=rs, L=box, dim=2).r_c
print(f"sample sigma0 = {moments.sigma0:.5f}   (closed form: {predicted_sigma0:.5f})")
print(f"sample r_c    = {moments.sigma0 / moments.sigma1:.3f}   (closed form: {predicted_rc:.3f})")

print(f"\n{'nu':>5} {'b0':>6} {'b1':>6} {'chi':>6} {'bsum':>6} {'jmax':>5}  occupancy")
for nu in (-2.0, -1.0, 0.0, 1.0, 2.0):
    mask = excursion_mask(field, nu, moments.sigma0)
    hs = hole_spectrum(mask)
    stats = topo_stats_from_spectrum(hs)
    fill = mask.bits.mean()
    print(f"{nu:5.1f} {stats.b0:6d} {stats.b1:6d} {stats.chi:6d} "
          f"{stats.bsum:6d} {hs.jmax:5d}  {fill:8.1%}")

print("""
low nu: one sprawling component riddled with holes (chi < 0);
high nu: many isolated components, few holes (chi > 0);
the crossover sits near nu = 0 where components and holes balance.
""")
