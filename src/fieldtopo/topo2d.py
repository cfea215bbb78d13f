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
A connected planar component with closed-cell Euler characteristic chi_c
has 1 - chi_c holes, so {m_j} needs one labeling per mask (`hole_spectrum`);
the background component count follows from that labeling and the runs of
set pixels around the boundary loop.
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


def touches_frame(labels: np.ndarray, n: int) -> np.ndarray:
    """Which of the labels 0..n some face of the frame touches, one bool each."""
    touched = np.zeros(n + 1, dtype=bool)
    for axis in range(labels.ndim):
        touched[np.take(labels, [0, -1], axis=axis)] = True
    return touched


#: 4 x the share of V - E + F of the closed pixels at a 2x2 block's centre, by the
#: block's code (bit 0 top-left, 1 top-right, 2 bottom-left, 3 bottom-right):
#: +1 for one set pixel, -1 for three, -2 for a diagonal pair (Gray 1971)
_QUAD_WEIGHT = np.array([0, 1, 1, 0, 1, 0, -2, -1, 1, -2, 0, -1, 0, -1, -1, 0], dtype=np.int8)


def hole_spectrum(mask: ExcursionMask) -> HoleSpectrum:
    """Count components by their number of holes (2D, planar).

    The zero-padded foreground is labeled once, with 8-connectivity.  The
    `_QUAD_WEIGHT` of the 2x2 blocks centred on the vertices of that padded
    grid sum to 4 chi of the closed-pixel union.  A block's set pixels are 8-adjacent, so
    the largest of its labels owns it; the blocks a component owns sum to
    4 chi_c, and the component has 1 - chi_c holes.  ``n_background`` (all
    4-connected background components) is the hole count of the mask framed
    by a ring of set pixels, which absorbs every component touching the
    frame.  By inclusion-exclusion, chi(framed) = chi(mask) + chi(ring) -
    chi(mask & ring) = b0 - b1 - arcs, since the ring is an annulus (chi 0)
    and it meets the mask in the ``arcs`` runs of set border pixels around
    the boundary loop (0 when the loop is all set or all clear).  So
    n_background = 1 + b1 - (components touching the frame) + arcs.
    """
    if mask.dim != 2:
        raise DomainError("hole_spectrum is defined for 2D masks")
    padded = np.pad(mask.bits, 1)
    labels, n_fg = ndimage.label(padded, structure=_STRUCT_8)
    # block i has its top-left pixel at flat index i of the padded grid; a block
    # that wraps a row holds only padding, so its code is 0 like an empty block
    width = padded.shape[1]
    q = padded.view(np.uint8).ravel()
    code = q[: -width - 1] | q[1:-width] << 1 | q[width:-1] << 2 | q[width + 1 :] << 3
    block = np.flatnonzero((code != 0) & (code != 15))  # empty and full blocks weigh 0
    flat = labels.ravel()
    owner = np.max([flat[block + step] for step in (0, 1, width, width + 1)], axis=0)
    chi4 = np.bincount(owner, weights=_QUAD_WEIGHT[code[block]], minlength=n_fg + 1)
    holes = 1 - chi4[1:].astype(np.int64) // 4
    m = np.bincount(holes)

    b = mask.bits  # the boundary loop, clockwise; a corner pixel shows on both its sides
    loop = np.concatenate([b[0], b[:, -1], b[-1, ::-1], b[::-1, 0]])
    arcs = int(np.count_nonzero(loop & ~np.roll(loop, 1)))
    on_frame = int(np.count_nonzero(touches_frame(labels[1:-1, 1:-1], n_fg)[1:]))
    n_bg = 1 + int(holes.sum()) - on_frame + arcs
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
