"""Global Betti numbers of 3D excursion masks.

Components are counted on runs, not voxels: a run is a maximal stretch of
set voxels along the last axis.  Foreground runs are 26-connected: runs in
adjacent lines (the lines along the last axis, neighbours across the first
two axes, diagonals included) join when they overlap or meet end to end.
Background runs are 6-connected: runs in face-adjacent lines join when they
share a position.  Together these match the closed-voxel complex.  A
vectorised union-find hooks the larger root of every edge onto the smaller
(``np.minimum.at``) and then jumps pointers to their roots, until every edge
joins one root; the roots count the components.  The frame rule: a
background component is a cavity unless one of its runs lies in a line on a
face of the first two axes or starts or ends at a face of the last.  All
background components, cavities and frame-cut exterior pieces together, are
reported as ``n_background``.  b1 is recovered from the alternating-sum
identity chi = b0 - b1 + b2 with chi taken from the closed-cell count, which
avoids explicit 1-cycle homology.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .topo2d import ExcursionMask, TopoStats, euler_closed_cell


def _run_components(bits: np.ndarray, touching: bool) -> tuple[int, int]:
    """Connected components of the set voxels of ``bits``, and how many reach the frame.

    ``touching`` selects 26-connectivity, else 6.  The mask is copied into
    lines along the last axis, each followed by one clear cell, with one
    clear line after every row of the middle axis and one clear plane at the
    end, so a neighbour line never wraps onto a real one.  A run is the flat
    keys [start, end) of its cells, and ``seen[k]`` counts the run
    boundaries at or before key k: seen[k] // 2 runs end and
    (seen[k] + 1) // 2 start at or before k.  That gives every run its range
    of joined runs in each forward neighbour line.
    """
    n0, n1, n2 = bits.shape
    width = n2 + 1
    flat = np.zeros(1 + (n0 + 1) * (n1 + 1) * width, dtype=bool)
    flat[1:].reshape(n0 + 1, n1 + 1, width)[:n0, :n1, :n2] = bits
    boundary = flat[1:] != flat[:-1]
    keys = np.flatnonzero(boundary)
    starts, ends = keys[0::2], keys[1::2]
    # int32 unless the count could overflow it: the int64 pass is up to 3x slower here
    seen = np.cumsum(boundary, dtype=np.int32 if keys.size < 2**31 else np.int64)
    n_runs = starts.size

    slack = 1 if touching else 0
    # forward neighbour lines, as line offsets: (0, +1), (+1, -1), (+1, 0), (+1, +1)
    shifts = [1, n1, n1 + 1, n1 + 2] if touching else [1, n1 + 1]
    src, dst = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    for shift in shifts:
        offset = shift * width
        first = seen[starts + (offset - slack)] >> 1
        count = ((seen[ends + (offset + slack - 1)] + 1) >> 1) - first
        run = np.flatnonzero(count)  # edge (run, first + k) for each run joined to more than k
        k = 0
        while run.size:
            src.append(run)
            dst.append(first[run] + k)
            k += 1
            run = run[count[run] > k]
    u, v = np.concatenate(src), np.concatenate(dst)

    parent = np.arange(n_runs)
    while True:
        ru, rv = parent[u], parent[v]
        if np.array_equal(ru, rv):
            break
        np.minimum.at(parent, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped

    line = starts // width
    frame_line = np.zeros((n0 + 1, n1 + 1), dtype=bool)
    frame_line[[0, n0 - 1]] = True
    frame_line[:, [0, n1 - 1]] = True
    on_frame = frame_line.ravel()[line] | (starts == line * width) | (ends == line * width + n2)
    roots_on_frame = np.zeros(n_runs, dtype=bool)
    roots_on_frame[parent[on_frame]] = True
    n_roots = int(np.count_nonzero(parent == np.arange(n_runs)))
    return n_roots, int(np.count_nonzero(roots_on_frame))


def betti3d(mask: ExcursionMask) -> TopoStats:
    """Betti numbers (b0, b1, b2), chi and b_sum of a 3D mask.

    Raises if the derived b1 comes out negative, which would indicate a
    connectivity mismatch between the component counts and the Euler
    characteristic.
    """
    if mask.dim != 3:
        raise DomainError("betti3d is defined for 3D masks")
    b0, _ = _run_components(mask.bits, touching=True)
    n_bg, n_exterior = _run_components(~mask.bits, touching=False)
    b2 = n_bg - n_exterior

    chi = euler_closed_cell(mask)
    b1 = b0 + b2 - chi
    if b1 < 0:
        raise DomainError(
            f"derived b1 = {b1} < 0 (b0 = {b0}, b2 = {b2}, chi = {chi}); "
            "connectivity conventions are inconsistent"
        )
    return TopoStats(
        b0=b0, b1=b1, b2=b2, chi=chi, bsum=b0 + b1 + b2, nu=mask.nu, n_background=n_bg
    )
