"""
Betti numbers of 3D excursion sets
==================================

In three dimensions a connected region can carry handles (b1) and enclose
cavities (b2); the Euler characteristic alternates b0 - b1 + b2.  Check the
canonical voxel shapes, then sweep a random field.
"""

import numpy as np

from fieldtopo import (
    ExcursionMask,
    PowerSpectrumModel,
    betti3d,
    excursion_mask,
    generate,
)


def show(name, bits):
    stats = betti3d(ExcursionMask(bits=bits))
    print(f"{name:22s} b0={stats.b0} b1={stats.b1} b2={stats.b2} "
          f"chi={stats.chi:+d} bsum={stats.bsum}")


ball = np.zeros((6, 6, 6), dtype=bool)
ball[1:5, 1:5, 1:5] = True

shell = np.zeros((5, 5, 5), dtype=bool)
shell[1:4, 1:4, 1:4] = True
shell[2, 2, 2] = False

torus = np.zeros((7, 7, 3), dtype=bool)
torus[1:6, 1, 1] = torus[1:6, 5, 1] = True
torus[1, 1:6, 1] = torus[5, 1:6, 1] = True

show("solid ball", ball)
show("hollow shell", shell)
show("solid torus", torus)

# --- a random field in 3D --------------------------------------------------
field = generate(PowerSpectrumModel(1.0), 64, 64.0, dim=3, seed=11, rs=3.0)
print(f"\n64^3 Gaussian field, rs = 3:")
print(f"{'nu':>5} {'b0':>6} {'b1':>6} {'b2':>6} {'chi':>7} {'bsum':>7}")
sigma0 = float(field.values.std())
for nu in (-2.0, -1.0, 0.0, 1.0, 2.0):
    stats = betti3d(excursion_mask(field, nu, sigma0))
    print(f"{nu:5.1f} {stats.b0:6d} {stats.b1:6d} {stats.b2:6d} "
          f"{stats.chi:7d} {stats.bsum:7d}")
print("""
the 3D signature: handles (b1) dominate near nu = 0 where the set is
sponge-like, components take over at high nu, cavities at low nu -
and chi = b0 - b1 + b2 holds row by row by construction.
""")
