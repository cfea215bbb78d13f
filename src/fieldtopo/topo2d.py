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
No pixel is labeled.  `run_graph` joins the runs of set cells along the
last axis, in 2D and 3D alike, and `hole_spectrum` gives each component the
cycle rank of its runs' graph as its holes, which the nerve theorem makes
exact; the background component count follows from the components that
reach the frame and the runs of set pixels around the boundary loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFieldError, DomainError
from .grf import FieldGrid


@dataclass
class ExcursionMask:
    """A 2D or 3D boolean excursion set; the threshold that made it stays with its caller."""

    bits: np.ndarray

    def __post_init__(self) -> None:
        try:
            self.bits = np.asarray(self.bits, dtype=bool)
        except ValueError as exc:  # a ragged nested list
            raise DomainError(f"mask bits are not a rectangular array: {exc}") from exc
        if self.bits.ndim not in (2, 3):
            raise DomainError(f"mask must be 2D or 3D, got {self.bits.ndim}D")
        if 0 in self.bits.shape:
            raise DomainError(f"mask has an empty axis: shape {self.bits.shape}")

    @property
    def dim(self) -> int:
        return self.bits.ndim


@dataclass
class HoleSpectrum:
    """The counts (m_0, ..., m_jmax): m[j] components have exactly j holes.

    ``m`` is given as a tuple, list or 1-D array of Python or numpy integers
    >= 0 and kept as a tuple ending at its last non-zero entry, so ``()`` is
    no component.  ``n_background`` is the number of 4-connected background
    components, holes and frame-cut exterior pieces together (1 for an empty
    mask, 0 for a full one); it is ``None`` when the spectrum was not
    measured on a mask.  Under f -> -f the components at nu map onto these
    at -nu.
    """

    m: tuple[int, ...] = ()
    n_background: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.m, (tuple, list, np.ndarray)):  # a dict would give its keys
            raise DomainError(f"m must be the sequence (m_0, ..., m_jmax), got {self.m!r}")
        for j, c in enumerate(self.m):
            if isinstance(c, bool) or not isinstance(c, (int, np.integer)) or c < 0:
                raise DomainError(f"invalid spectrum entry m_{j} = {c!r}")
        end = max((j + 1 for j, c in enumerate(self.m) if c), default=0)  # past the last m_j > 0
        self.m = tuple(map(int, self.m[:end]))

    @property
    def jmax(self) -> int:
        return max(len(self.m) - 1, 0)


@dataclass
class TopoStats:
    """Betti numbers of one mask; chi and bsum are their alternating and plain sums.

    ``n_background`` carries the background component count of the mask
    (see `HoleSpectrum`) when it was measured.
    """

    b0: int
    b1: int
    b2: int
    n_background: int | None = None

    @property
    def chi(self) -> int:
        return self.b0 - self.b1 + self.b2

    @property
    def bsum(self) -> int:
        return self.b0 + self.b1 + self.b2


def excursion_mask(field: FieldGrid, nu: float, sigma0: float) -> ExcursionMask:
    """Threshold a field at nu * sigma0, with sigma0 as its caller resolved it.

    nu = -inf and +inf give the full and the empty mask.  A NaN nu, or a
    sigma0 that is not finite and > 0, has no level and raises: it would
    give an empty mask that reads as a measured one.  A nu or sigma0 that is
    no real number raises `DomainError`.
    """
    try:
        if not sigma0 > 0.0:
            raise DegenerateFieldError(f"sigma0 = {sigma0}: cannot threshold a flat or NaN field")
        if math.isnan(nu) or math.isinf(sigma0):
            raise DomainError(f"nu = {nu} with sigma0 = {sigma0}: no threshold level")
    except TypeError as exc:  # a non-number fails these comparisons; a number pays no extra check
        raise DomainError(f"nu = {nu!r} with sigma0 = {sigma0!r}: no threshold level") from exc
    return ExcursionMask(bits=field.values >= nu * sigma0)


def run_graph(bits: np.ndarray, touching: bool) -> tuple[np.ndarray, ...]:
    """The runs of set cells of ``bits`` (2D or 3D) and the graph of their contacts.

    A run is a maximal stretch of set cells along the last axis; the other
    axes index its line.  ``touching`` joins two runs in adjacent lines
    (diagonals included) when their closed cells meet, even at one corner,
    which is 8-connectivity in 2D and 26 in 3D; otherwise runs in lines one
    axis step apart join when they share a position (4 or 6).  Returns:

    - ``root``: each run's component, as the smallest run index in it;
    - ``u``, ``v``: for each edge, the run it leaves and the later run it
      reaches; each joined pair of runs is one edge, both ends under one root;
    - ``frame``: True at the roots of the components with a run in a line on
      the frame or starting or ending at a face of the last axis;
    - ``e_face``: the number of edges between runs in face-adjacent lines
      (one step along one line axis), which in 2D and without ``touching``
      is every edge; `betti3d` reads chi off it.

    The mask is copied into lines along the last axis, each followed by one
    clear cell, with one clear line after the last along every line axis, so
    a neighbour line never wraps onto a real one.  A run is the flat keys
    [start, end) of its cells, and ``seen[k]`` counts the run boundaries at
    or before key k: seen[k] // 2 runs end and (seen[k] + 1) // 2 start at or
    before k.  It is constant between boundaries, so it is filled run-length
    (``np.repeat`` over their gaps), not summed cell by cell, as int16 when
    there are fewer than 2**15 boundaries (int32, then int64, above).  That
    gives every run its range of joined runs in each forward neighbour line,
    and their sum over the face lines is ``e_face``.  A
    vectorised union-find then hooks the larger root of every edge onto the
    smaller (``np.minimum.at``) and jumps pointers to their roots, until
    every edge joins one root.
    """
    *line_shape, n = bits.shape
    width = n + 1
    grid = tuple(s + 1 for s in line_shape)
    flat = np.zeros(1 + math.prod(grid) * width, dtype=bool)
    flat[1:].reshape(*grid, width)[tuple(slice(s) for s in line_shape) + (slice(n),)] = bits
    keys = np.flatnonzero(flat[1:] != flat[:-1])
    starts, ends = keys[0::2], keys[1::2]
    # the narrowest type that holds every level (keys.size is even, so seen + 1
    # fits too): fewer bytes to fill and to gather from
    dtype = np.int16 if keys.size < 2**15 else np.int32 if keys.size < 2**31 else np.int64
    levels = np.arange(keys.size + 1, dtype=dtype)
    seen = np.repeat(levels, np.diff(keys, prepend=0, append=flat.size - 1))
    n_runs = starts.size

    # forward neighbour lines, as line offsets: the next row in 2D; in 3D the
    # face lines (0, +1), (+1, 0), then when touching (+1, -1), (+1, +1)
    g = grid[-1]
    face = [1] if len(grid) == 1 else [1, g]
    shifts = face + [g - 1, g + 1] if touching and len(grid) > 1 else face
    slack = 1 if touching else 0
    src, dst = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    e_face = 0
    for i, shift in enumerate(shifts):
        offset = shift * width
        first = seen[starts + (offset - slack)] >> 1
        count = ((seen[ends + (offset + slack - 1)] + 1) >> 1) - first
        if i < len(face):
            e_face += int(count.sum())
        run = np.flatnonzero(count)  # edge (run, first + k) for each run joined to more than k
        k = 0
        while run.size:
            src.append(run)
            dst.append(first[run] + k)
            k += 1
            run = run[count[run] > k]
    u, v = np.concatenate(src), np.concatenate(dst)

    root = np.arange(n_runs)
    while True:
        ru, rv = root[u], root[v]
        if np.array_equal(ru, rv):
            break
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped

    line = starts // width
    frame_line = np.zeros(grid, dtype=bool)
    for axis, s in enumerate(line_shape):
        frame_line[(slice(None),) * axis + ([0, s - 1],)] = True
    on_frame = frame_line.ravel()[line] | (starts == line * width) | (ends == line * width + n)
    frame = np.zeros(n_runs, dtype=bool)
    frame[root[on_frame]] = True
    return root, u, v, frame, e_face


def hole_spectrum(mask: ExcursionMask) -> HoleSpectrum:
    """Count components by their number of holes (2D, planar).

    No pixel is labeled: each component's holes are the cycle rank of its
    `run_graph`, 8-connected.  Take each run of set pixels as a closed
    rectangle.  Two of them can meet only if they lie in adjacent rows, and
    where they do (in a segment or a point) the graph has an edge.  Runs in
    one row are disjoint, and so are runs two rows apart, so no three runs
    meet and every non-empty intersection is convex.  By the nerve theorem (Borsuk 1948;
    Björner 1995) the union of closed pixels is then homotopy equivalent to
    the run graph, so a component with R runs and E edges has E - R + 1
    holes, exactly.  ``n_background`` (all 4-connected background
    components) is the hole count of the mask framed by a ring of set pixels,
    which absorbs every component touching the frame.  By
    inclusion-exclusion, chi(framed) = chi(mask) + chi(ring) -
    chi(mask & ring) = b0 - b1 - arcs, since the ring is an annulus (chi 0)
    and it meets the mask in the ``arcs`` runs of set border pixels around
    the boundary loop (0 when the loop is all set or all clear).  So
    n_background = 1 + b1 - (components touching the frame) + arcs.
    """
    if mask.dim != 2:
        raise DomainError("hole_spectrum is defined for 2D masks")
    root, u, _, frame, _ = run_graph(mask.bits, touching=True)
    roots = np.flatnonzero(root == np.arange(root.size))
    runs = np.bincount(root)[roots]
    holes = np.bincount(root[u], minlength=root.size)[roots] - runs + 1

    b = mask.bits  # the boundary loop, clockwise; a corner pixel shows on both its sides
    loop = np.concatenate([b[0], b[:, -1], b[-1, ::-1], b[::-1, 0]])
    arcs = int(np.count_nonzero(loop & ~np.roll(loop, 1)))
    n_bg = 1 + int(holes.sum()) - int(np.count_nonzero(frame)) + arcs
    return HoleSpectrum(m=np.bincount(holes).tolist(), n_background=n_bg)


def topo_stats_from_spectrum(hs: HoleSpectrum) -> TopoStats:
    """Betti numbers and friends as weighted sums over the spectrum."""
    b0 = sum(hs.m)
    b1 = sum(j * m for j, m in enumerate(hs.m))
    return TopoStats(b0=b0, b1=b1, b2=0, n_background=hs.n_background)


def euler_closed_cell(mask: ExcursionMask) -> int:
    """Euler characteristic of the union of closed unit pixels/voxels.

    Counts distinct vertices, edges and faces (and cubes in 3D) of the cell
    complex: chi = V - E + F (- C).  Along each axis a cell either spans a
    pixel (the interior slice of the padded mask) or lies on a grid line
    (present if either pixel beside it is); a cell spanning k axes enters
    with sign (-1)^k.  Under the closed-cell convention it equals b0 - b1
    (+ b2) exactly.  It is the independent cross-check of the run graph in
    2D (`measure_mask`'s ``chi_cell``) and the test oracle for the chi that
    `betti3d` reads off the run graph in 3D.
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
    """Evaluate h(alpha) = sum_j m_j exp(-j alpha) and its derivative.

    A value beyond the float range raises `DomainError`.
    """
    if not math.isfinite(alpha):
        raise DomainError("alpha must be finite")
    h = 0.0
    dh = 0.0
    try:
        for j in np.flatnonzero(hs.m).tolist():
            w = hs.m[j] * math.exp(-j * alpha)
            h += w
            dh -= j * w
    except OverflowError:
        h = math.inf
    if not (math.isfinite(h) and math.isfinite(dh)):
        raise DomainError(f"h(alpha) overflows a float at alpha = {alpha}")
    return h, dh


def betti_from_h(hs: HoleSpectrum) -> TopoStats:
    """Recover the topological statistics from the generating function at 0.

    b0 = h(0), b1 = -h'(0), chi = h(0) + h'(0), bsum = h(0) - h'(0).
    """
    h, dh = generating_function(hs, 0.0)
    return TopoStats(b0=int(round(h)), b1=int(round(-dh)), b2=0, n_background=hs.n_background)
