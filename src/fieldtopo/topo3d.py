"""Global Betti numbers of 3D excursion masks.

Components are counted on runs, not voxels, with the `run_graph` that
2D shares: a run is a maximal stretch of set voxels along the last axis.
Foreground runs are 26-connected: runs in adjacent lines (the lines along
the last axis, neighbours across the first two axes, diagonals included)
join when they overlap or meet end to end.  Background runs are
6-connected: runs in face-adjacent lines join when they share a position.
Together these match the closed-voxel complex, and the union-find roots
count the components.  The frame rule: a background component is a cavity
unless one of its runs lies in a line on a face of the first two axes or
starts or ends at a face of the last.  All background components, cavities
and frame-cut exterior pieces together, are reported as ``n_background``.
b1 is recovered from the alternating-sum identity chi = b0 - b1 + b2 with
chi taken from the closed-cell count, which avoids explicit 1-cycle
homology.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .topo2d import ExcursionMask, TopoStats, euler_closed_cell, run_graph


def betti3d(mask: ExcursionMask) -> TopoStats:
    """Betti numbers (b0, b1, b2), chi and b_sum of a 3D mask.

    Raises if the derived b1 comes out negative, which would indicate a
    connectivity mismatch between the component counts and the Euler
    characteristic.
    """
    if mask.dim != 3:
        raise DomainError("betti3d is defined for 3D masks")
    root, _, _ = run_graph(mask.bits, touching=True)
    b0 = int(np.count_nonzero(root == np.arange(root.size)))
    root, _, frame = run_graph(~mask.bits, touching=False)
    n_bg = int(np.count_nonzero(root == np.arange(root.size)))
    b2 = n_bg - int(np.count_nonzero(frame))

    chi = euler_closed_cell(mask)
    b1 = b0 + b2 - chi
    if b1 < 0:
        raise DomainError(
            f"derived b1 = {b1} < 0 (b0 = {b0}, b2 = {b2}, chi = {chi}); "
            "connectivity conventions are inconsistent"
        )
    return TopoStats(b0=b0, b1=b1, b2=b2, n_background=n_bg)
