"""
Spectral length scales and how they move with the observation window
====================================================================

A power-law spectrum P(k) = A k^alpha has no scales of its own (type 1);
cutoffs k_low/k_high give it intrinsic scales (type 2).  The correlation
length r_c = sigma0/sigma1 then either tracks the observation parameters
(box size L, smoothing rs) or stays pinned to the intrinsic cutoffs, and the
packing fraction q = (L/r_c)^d counts how many fluctuation cells fit in the
box.
"""

import math

from fieldtopo import PowerSpectrumModel, spectral_params

flat = PowerSpectrumModel(amplitude=1.0, alpha=0.0)
banded = PowerSpectrumModel(amplitude=1.0, alpha=0.0, k_low_cutoff=0.1, k_high_cutoff=1.0)

print("type of flat model:", flat.classify())
print("type of banded model:", banded.classify())

# --- type 1: r_c follows the smoothing scale at fixed L -------------------
print("\ntype-1 (flat) spectrum, L = 512, rs swept:")
print(f"{'rs':>6} {'r_c':>10} {'q':>12}")
for rs in (1.0, 2.0, 4.0, 8.0):
    p = spectral_params(flat, rs=rs, L=512.0, dim=2)
    print(f"{rs:6.1f} {p.r_c:10.4f} {p.q:12.1f}")
print("halving rs halves r_c and multiplies q by ~2^d: resolution creates room")

# --- type 2: r_c pinned by the intrinsic band -----------------------------
print("\ntype-2 (banded) spectrum, rs = 1e-4, L swept:")
for L in (100.0, 200.0, 400.0, 800.0):
    r_c = spectral_params(banded, rs=1e-4, L=L, dim=3).r_c
    print(f"L={L:6.0f}  r_c={r_c:.6f}  q={(L / r_c) ** 3:12.0f}")
print("r_c is frozen by the cutoffs; growing the box only grows q")

# --- the steep-spectrum case: r_c dragged by the box ----------------------
# for a red spectrum with alpha <= -(d+2) the variance is dominated by the
# largest observed scale, so r_c itself grows with L (with a slow log drag
# from the gradient integral); we report the measured exponent
steep = PowerSpectrumModel(amplitude=1.0, alpha=-5.0)
print("\nsteep spectrum (alpha = -5), rs = 1, L swept:")
pairs = []
for L in (200.0, 400.0, 800.0, 1600.0):
    r_c = spectral_params(steep, rs=1.0, L=L, dim=3).r_c
    pairs.append((L, r_c))
    print(f"L={L:7.0f}  r_c={r_c:10.3f}")
slope = math.log(pairs[-1][1] / pairs[0][1]) / math.log(pairs[-1][0] / pairs[0][0])
print(f"measured scaling r_c ~ L^{slope:.2f} (pure proportionality would be 1)")
