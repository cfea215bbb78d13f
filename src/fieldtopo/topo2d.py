"""Excursion masks, the hole-count spectrum {m_j}, and 2D topological statistics.

A thresholded field decomposes into connected components, each carrying some
number j of holes; m_j counts the components with exactly j holes.  All four
statistics follow by weighted sums over the spectrum:

    b0 = sum_j m_j           (components)
    b1 = sum_j j m_j         (holes)
    chi = b0 - b1            (Euler characteristic)
    b_sum = b0 + b1

Conventions, fixed once for the whole package: foreground is 8-connected and
background 4-connected (26/6 in 3D), which is exactly the connectivity of the
union of closed unit pixels.  Analysis is planar: the grid is treated as a
clipped field of view, not a torus, so components touching the border count
as components and background touching the border is exterior, not a hole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np
from scipy import ndimage

from .errors import DegenerateFieldError, DomainError
from .grf import FieldGrid

_STRUCT_8 = np.ones((3, 3), dtype=int)


@dataclass
class ExcursionMask:
    """Boolean excursion set of a field at threshold nu (in units of sigma0)."""

    bits: np.ndarray
    nu: float
    sigma_used: float

    def __post_init__(self) -> None:
        if self.bits.dtype != bool:
            self.bits = self.bits.astype(bool)
        if self.bits.ndim not in (2, 3):
            raise DomainError(f"mask must be 2D or 3D, got {self.bits.ndim}D")

    @property
    def dim(self) -> int:
        return self.bits.ndim

    @property
    def side(self) -> int:
        return self.bits.shape[0]


@dataclass
class HoleSpectrum:
    """Counts m_j of connected components having exactly j holes.

    ``n_background`` is the number of 4-connected background components,
    holes and frame-cut exterior pieces together (1 for an empty mask, 0 for
    a full one); it is ``None`` when the spectrum was not measured on a mask.
    Under f -> -f the components at nu map onto these at -nu.
    """

    nu: float
    counts: dict[int, int] = dataclass_field(default_factory=dict)
    n_background: int | None = None

    def __post_init__(self) -> None:
        cleaned: dict[int, int] = {}
        for j, m in self.counts.items():
            if j < 0 or m < 0:
                raise DomainError(f"invalid spectrum entry m_{j} = {m}")
            if m > 0:
                cleaned[int(j)] = int(m)
        self.counts = cleaned

    @property
    def jmax(self) -> int:
        return max(self.counts) if self.counts else 0

    @property
    def n_components(self) -> int:
        return sum(self.counts.values())


@dataclass
class TopoStats:
    """Betti numbers, Euler characteristic and their sum at one threshold.

    ``n_background`` carries the background component count of the mask
    (see `HoleSpectrum`) when it was measured.
    """

    b0: int
    b1: int
    b2: int
    chi: int
    bsum: int
    nu: float
    n_background: int | None = None

    def __post_init__(self) -> None:
        if self.chi != self.b0 - self.b1 + self.b2:
            raise DomainError("chi must equal b0 - b1 + b2")
        if self.bsum != self.b0 + self.b1 + self.b2:
            raise DomainError("bsum must equal b0 + b1 + b2")


def excursion_mask(field: FieldGrid, nu: float, sigma_mode="sample") -> ExcursionMask:
    """Threshold a field at nu * sigma0.

    ``sigma_mode`` is either the string ``"sample"`` (use the realization's
    own standard deviation) or a positive float (a fixed ensemble sigma0).
    """
    if sigma_mode == "sample":
        sigma = float(field.values.std())
    else:
        sigma = float(sigma_mode)
    if not sigma > 0.0:
        raise DegenerateFieldError(f"sigma0 = {sigma}: cannot threshold a flat or NaN field")
    bits = field.values >= nu * sigma
    return ExcursionMask(bits=bits, nu=float(nu), sigma_used=sigma)


def enclosed_background(bits: np.ndarray) -> tuple[np.ndarray, int, np.ndarray]:
    """Background labels, their count, and which labels no face of the frame touches.

    The background is labeled with 4-connectivity (6 in 3D).  ``enclosed``
    has one entry per label, 0 included; it is True for the holes (cavities
    in 3D) and False for label 0 and for every exterior piece.
    """
    labels, n = ndimage.label(~bits)  # default structure = 4/6-connectivity
    enclosed = np.ones(n + 1, dtype=bool)
    enclosed[0] = False
    for axis in range(bits.ndim):
        enclosed[np.take(labels, [0, -1], axis=axis)] = False
    return labels, n, enclosed


def hole_spectrum(mask: ExcursionMask) -> HoleSpectrum:
    """Count components by their number of holes (2D, planar).

    Foreground components are labeled with 8-connectivity, background with
    4-connectivity.  Background components touching the grid border are
    exterior; every other one is a hole.  The number of background
    components, exterior ones included, is kept as ``n_background``.  A hole
    is attributed to the component owning the pixel directly above the
    hole's topmost-leftmost pixel; under the 8/4 convention that pixel is
    always foreground and always belongs to the enclosing component (islands
    nested inside a hole lie strictly below its topmost row).
    """
    if mask.dim != 2:
        raise DomainError("hole_spectrum is defined for 2D masks")
    bits = mask.bits
    fg_labels, n_fg = ndimage.label(bits, structure=_STRUCT_8)
    if n_fg == 0:
        return HoleSpectrum(nu=mask.nu, counts={}, n_background=1)

    bg_labels, n_bg, is_hole = enclosed_background(bits)
    holes_per_component = np.zeros(n_fg + 1, dtype=np.int64)
    if is_hole.any():
        ncols = bits.shape[1]
        labels_seen, first_idx = np.unique(bg_labels.ravel(), return_index=True)
        hole_first = first_idx[is_hole[labels_seen]]
        owner_idx = hole_first - ncols  # pixel directly above, row-major
        owners = fg_labels.ravel()[owner_idx]
        if not owners.all():
            raise DomainError("pixel above a hole's topmost pixel must be foreground")
        holes_per_component = np.bincount(owners, minlength=n_fg + 1)

    m = np.bincount(holes_per_component[1:])
    return HoleSpectrum(nu=mask.nu, counts=dict(enumerate(m.tolist())), n_background=n_bg)


def topo_stats_from_spectrum(hs: HoleSpectrum) -> TopoStats:
    """Betti numbers and friends as weighted sums over the spectrum."""
    b0 = sum(hs.counts.values())
    b1 = sum(j * m for j, m in hs.counts.items())
    return TopoStats(
        b0=b0, b1=b1, b2=0, chi=b0 - b1, bsum=b0 + b1, nu=hs.nu, n_background=hs.n_background
    )


def euler_closed_cell(mask: ExcursionMask) -> int:
    """Euler characteristic of the union of closed unit pixels/voxels.

    Counts distinct vertices, edges and faces (and cubes in 3D) of the cell
    complex: chi = V - E + F (- C).  Along each axis a cell either spans a
    pixel (the interior slice of the padded mask) or lies on a grid line
    (present if either pixel beside it is); a cell spanning k axes enters
    with sign (-1)^k.  This is an independent cross-check of the labeling
    route; under the closed-cell convention it equals b0 - b1 (+ b2) exactly.
    """
    cells = [(np.pad(mask.bits, 1), 1)]
    for axis in range(mask.dim):
        before = (slice(None),) * axis
        cells = [
            cell
            for grid, sign in cells
            for cell in (
                (grid[before + (slice(1, -1),)], -sign),
                (grid[before + (slice(None, -1),)] | grid[before + (slice(1, None),)], sign),
            )
        ]
    return int(sum(sign * np.count_nonzero(grid) for grid, sign in cells))


def generating_function(hs: HoleSpectrum, alpha: float) -> tuple[float, float]:
    """Evaluate h(alpha) = sum_j m_j exp(-j alpha) and its derivative."""
    if not math.isfinite(alpha):
        raise DomainError("alpha must be finite")
    h = 0.0
    dh = 0.0
    for j, m in hs.counts.items():
        w = m * math.exp(-j * alpha)
        h += w
        dh -= j * w
    return h, dh


def betti_from_h(hs: HoleSpectrum) -> TopoStats:
    """Recover the topological statistics from the generating function at 0.

    b0 = h(0), b1 = -h'(0), chi = h(0) + h'(0), bsum = h(0) - h'(0).
    """
    h, dh = generating_function(hs, 0.0)
    b0 = int(round(h))
    b1 = int(round(-dh))
    return TopoStats(
        b0=b0, b1=b1, b2=0, chi=b0 - b1, bsum=b0 + b1, nu=hs.nu, n_background=hs.n_background
    )
