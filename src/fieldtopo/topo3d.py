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
b1 is recovered from the alternating-sum identity chi = b0 - b1 + b2,
which avoids explicit 1-cycle homology.

chi is read off the foreground run graph, with no pass over the closed
cells.  Group the closed cells by their footprint across the first two
axes: a line, the face between two face-adjacent lines, or the edge where
four lines meet.  Along the last axis each group is a union of closed
intervals, so its cells sum to the runs of the OR of the lines beside it,
and chi = sum(line runs) - sum(face-pair runs) + sum(corner runs).  A
line's runs are the V runs of the graph.  The runs of two face-adjacent
lines form a forest (intervals in two lines), so their OR has n_A + n_B -
E_AB runs, where E_AB counts the graph's edges between them.  Every line
lies in four face pairs and four corners, so chi = R4 + E_face - 3 V, with
R4 the runs of the OR of each 2x2 block of lines of the mask padded by one
clear line on every side.  `euler_closed_cell`, which counts the cells
directly, is the test oracle for this sum.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .topo2d import ExcursionMask, TopoStats, run_graph
from .topo2d import euler_closed_cell  # noqa: F401  perfbench/tracing.py wraps it by name


def _corner_runs(bits: np.ndarray) -> int:
    """R4: the runs along the last axis of the OR of each 2x2 block of padded lines."""
    a, b, n = bits.shape
    padded = np.zeros((a + 2, b + 2, n + 1), dtype=bool)  # a clear cell before each line
    padded[1:-1, 1:-1, 1:] = bits
    block = padded[:-1] | padded[1:]
    block = block[:, :-1] | block[:, 1:]
    return int(np.count_nonzero(block[..., 1:] > block[..., :-1]))


def betti3d(mask: ExcursionMask) -> TopoStats:
    """Betti numbers (b0, b1, b2), chi and b_sum of a 3D mask.

    Raises if the derived b1 comes out negative, which would indicate a
    connectivity mismatch between the component counts and the Euler
    characteristic.
    """
    if mask.dim != 3:
        raise DomainError("betti3d is defined for 3D masks")
    root, _, _, _, e_face = run_graph(mask.bits, touching=True)
    b0 = int(np.count_nonzero(root == np.arange(root.size)))
    chi = _corner_runs(mask.bits) + e_face - 3 * root.size
    root, _, _, frame, _ = run_graph(~mask.bits, touching=False)
    n_bg = int(np.count_nonzero(root == np.arange(root.size)))
    b2 = n_bg - int(np.count_nonzero(frame))

    b1 = b0 + b2 - chi
    if b1 < 0:
        raise DomainError(
            f"derived b1 = {b1} < 0 (b0 = {b0}, b2 = {b2}, chi = {chi}); "
            "connectivity conventions are inconsistent"
        )
    return TopoStats(b0=b0, b1=b1, b2=b2, n_background=n_bg)
