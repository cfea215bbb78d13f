"""Global Betti numbers of 3D excursion masks.

Components are counted with 26-connectivity and cavities as 6-connected
background components that do not reach the grid border, matching the
closed-voxel complex.  All 6-connected background components, cavities and
frame-cut exterior pieces together, are reported as ``n_background``.  b1 is
recovered from the alternating-sum identity chi = b0 - b1 + b2 with chi taken
from the closed-cell count, which avoids explicit 1-cycle homology.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from .errors import DomainError
from .topo2d import ExcursionMask, TopoStats, euler_closed_cell, touches_frame

_STRUCT_26 = np.ones((3, 3, 3), dtype=int)


def betti3d(mask: ExcursionMask) -> TopoStats:
    """Betti numbers (b0, b1, b2), chi and b_sum of a 3D mask.

    Raises if the derived b1 comes out negative, which would indicate a
    connectivity mismatch between the component counts and the Euler
    characteristic.
    """
    if mask.dim != 3:
        raise DomainError("betti3d is defined for 3D masks")
    bits = mask.bits
    _, b0 = ndimage.label(bits, structure=_STRUCT_26)
    bg_labels, n_bg = ndimage.label(~bits)  # default structure = 6-connectivity
    b2 = n_bg - int(np.count_nonzero(touches_frame(bg_labels, n_bg)[1:]))

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
