"""
The hole-count spectrum of small masks
======================================

Every excursion set decomposes into components carrying 0, 1, 2, ... holes;
m_j counts the components with exactly j holes, and all four topological
statistics are weighted sums over the spectrum (m_0, m_1, ..., m_jmax).
Walk through the basic shapes.
"""

import numpy as np

from fieldtopo import (
    ExcursionMask,
    HoleSpectrum,
    betti_from_h,
    euler_closed_cell,
    generating_function,
    hole_spectrum,
    topo_stats_from_spectrum,
)


def show(name, bits):
    mask = ExcursionMask(bits=np.asarray(bits, dtype=bool))
    hs = hole_spectrum(mask)
    stats = topo_stats_from_spectrum(hs)
    print(f"{name:24s} m = {hs.m!s:12s} "
          f"b0={stats.b0} b1={stats.b1} chi={stats.chi} bsum={stats.bsum} "
          f"(closed-cell chi = {euler_closed_cell(mask)})")


solid = np.ones((3, 3))

annulus = np.ones((3, 3))
annulus[1, 1] = 0

two_holes = np.ones((3, 5))
two_holes[1, 1] = two_holes[1, 3] = 0

pair = np.zeros((6, 6))
pair[0:2, 0:2] = pair[4:6, 4:6] = 1

nested = np.zeros((9, 9))
nested[0, :] = nested[-1, :] = nested[:, 0] = nested[:, -1] = 1
nested[3:6, 3:6] = 1
nested[4, 4] = 0

show("solid block", solid)
show("annulus", annulus)
show("block with two holes", two_holes)
show("two disjoint blocks", pair)
show("ring nested in a ring", nested)

# --- the generating function route ----------------------------------------
# h(alpha) = sum_j m_j exp(-j alpha) packs the whole spectrum into one
# function; its value and slope at alpha = 0 give back the statistics
hs = HoleSpectrum(m=(3, 2, 1))
print(f"\nspectrum m = {hs.m}:")
for alpha in (0.0, 0.5, 1.0, 2.0):
    h, dh = generating_function(hs, alpha)
    print(f"  h({alpha:3.1f}) = {h:7.4f}   h'({alpha:3.1f}) = {dh:8.4f}")
print("  from h at 0:", betti_from_h(hs))
print("  direct sums:", topo_stats_from_spectrum(hs))
