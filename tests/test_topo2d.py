"""Hole-spectrum, Euler characteristic and generating-function checks.

The fixtures are the canonical small spaces: a solid block (one component,
no holes), an annulus (one hole), a block with two separated holes, and
nested annuli, with hand-counted cell complexes as independent oracles.
`two_labeling_spectrum` is an independent route to {m_j} and the background
count (label the foreground and the background with `ndimage.label`, drop
the background labels that `touches_frame`, and give each hole to the
component above its first pixel); `hole_spectrum`, which labels no pixel,
is checked against it.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis.extra.numpy import array_shapes, arrays
from scipy import ndimage

from fieldtopo import (
    ExcursionMask,
    HoleSpectrum,
    PowerSpectrumModel,
    betti_from_h,
    euler_closed_cell,
    excursion_mask,
    generate,
    generating_function,
    hole_spectrum,
    smooth,
    topo_stats_from_spectrum,
)
from fieldtopo.errors import DegenerateFieldError, DomainError
from fieldtopo.grf import FieldGrid
from fieldtopo.topo2d import run_graph


def spectrum_of(counts: dict[int, int]) -> tuple[int, ...]:
    """The tuple (m_0, ..., m_jmax) holding a {j: m_j} dict."""
    return tuple(counts.get(j, 0) for j in range(max(counts, default=-1) + 1))


def mask_of(array) -> ExcursionMask:
    return ExcursionMask(bits=np.asarray(array, dtype=bool))


def block(shape, canvas=None, offset=(1, 1)):
    """A solid rectangle, optionally embedded in a larger canvas of zeros."""
    if canvas is None:
        return np.ones(shape, dtype=bool)
    out = np.zeros(canvas, dtype=bool)
    out[offset[0] : offset[0] + shape[0], offset[1] : offset[1] + shape[1]] = True
    return out


class TestExcursionMask:
    def field(self):
        f = generate(PowerSpectrumModel(1.0), 32, 32.0, 2, seed=8)
        return smooth(f, 2.0)

    def test_minus_infinity_all_true(self):
        f = self.field()
        assert excursion_mask(f, -math.inf, float(f.values.std())).bits.all()

    def test_plus_infinity_all_false(self):
        f = self.field()
        assert not excursion_mask(f, math.inf, float(f.values.std())).bits.any()

    def test_single_pixel_at_sigma(self):
        values = np.zeros((16, 16))
        values[4, 9] = 1.0
        f = FieldGrid(dim=2, side=16, L=16.0, values=values, seed=0)
        mask = excursion_mask(f, 0.5, 1.0)
        assert mask.bits.sum() == 1 and mask.bits[4, 9]

    def test_degenerate_sigma(self):
        f = FieldGrid(dim=2, side=16, L=16.0, values=np.zeros((16, 16)), seed=0)
        with pytest.raises(DegenerateFieldError):
            excursion_mask(f, 1.0, float(f.values.std()))

    def test_nan_field_rejected(self):
        values = np.zeros((16, 16))
        values[3, 5] = 1.0
        values[7, 7] = math.nan
        f = FieldGrid(dim=2, side=16, L=16.0, values=values, seed=0)
        with pytest.raises(DegenerateFieldError):
            excursion_mask(f, 0.0, float(f.values.std()))

    def test_one_dimensional_bits_rejected(self):
        with pytest.raises(DomainError, match="mask must be 2D or 3D, got 1D"):
            ExcursionMask(bits=np.ones(8, dtype=bool))

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0, 0), (4, 0, 4)])
    def test_empty_axis_rejected(self, shape):
        with pytest.raises(DomainError, match="empty axis"):
            ExcursionMask(bits=np.zeros(shape, dtype=bool))

    @pytest.mark.parametrize("nu, sigma0", [(math.nan, 1.0), (0.0, math.inf), (1.0, math.inf)])
    def test_no_threshold_level_rejected(self, nu, sigma0):
        with pytest.raises(DomainError, match="no threshold level"):
            excursion_mask(self.field(), nu, sigma0)

    def test_integer_bits_cast_to_bool(self):
        mask = ExcursionMask(bits=np.array([[0, 2], [1, 0]]))
        assert mask.bits.dtype == bool
        assert mask.bits.tolist() == [[False, True], [True, False]]

    def test_monotone_in_threshold(self):
        f = self.field()
        sigma0 = float(f.values.std())
        previous = excursion_mask(f, -2.0, sigma0).bits
        for nu in (-1.0, 0.0, 1.0, 2.0):
            current = excursion_mask(f, nu, sigma0).bits
            assert not (current & ~previous).any()  # mask(nu2) subset of mask(nu1)
            previous = current


class TestHoleSpectrum:
    def test_solid_block(self):
        hs = hole_spectrum(mask_of(block((3, 3))))
        assert hs.m == (1,)
        stats = topo_stats_from_spectrum(hs)
        assert (stats.b0, stats.b1) == (1, 0)

    def test_annulus(self):
        bits = block((3, 3))
        bits[1, 1] = False
        hs = hole_spectrum(mask_of(bits))
        assert hs.m == (0, 1)
        stats = topo_stats_from_spectrum(hs)
        assert (stats.b0, stats.b1, stats.chi, stats.bsum) == (1, 1, 0, 2)

    def test_two_separated_holes(self):
        bits = block((3, 5))
        bits[1, 1] = False
        bits[1, 3] = False
        hs = hole_spectrum(mask_of(bits))
        assert hs.m == (0, 0, 1)
        assert topo_stats_from_spectrum(hs).chi == -1
        assert topo_stats_from_spectrum(hs).bsum == 3

    def test_two_disjoint_blocks(self):
        bits = np.zeros((6, 6), dtype=bool)
        bits[0:2, 0:2] = True
        bits[4:6, 4:6] = True
        assert hole_spectrum(mask_of(bits)).m == (2,)

    def test_empty_mask(self):
        hs = hole_spectrum(mask_of(np.zeros((8, 8), dtype=bool)))
        assert hs.m == () and hs.jmax == 0
        stats = topo_stats_from_spectrum(hs)
        assert (stats.b0, stats.b1, stats.chi, stats.bsum) == (0, 0, 0, 0)

    def test_full_mask_is_one_component(self):
        assert hole_spectrum(mask_of(np.ones((8, 8), dtype=bool))).m == (1,)

    def test_island_inside_hole(self):
        # border ring with an island in its hole: the island's absence of
        # holes must not leak into the ring's count
        bits = np.zeros((7, 7), dtype=bool)
        bits[0, :] = bits[-1, :] = bits[:, 0] = bits[:, -1] = True
        bits[3, 3] = True
        hs = hole_spectrum(mask_of(bits))
        assert hs.m == (1, 1)
        # a fully set border is one closed run around the loop: no exterior piece
        assert hs.n_background == 1

    def test_nested_annuli(self):
        # ring inside the hole of a bigger ring: one hole each, so a wrong
        # hole-to-component attribution would show up as {2: 1, 0: 1}
        bits = np.zeros((9, 9), dtype=bool)
        bits[0, :] = bits[-1, :] = bits[:, 0] = bits[:, -1] = True
        bits[3:6, 3:6] = True
        bits[4, 4] = False
        hs = hole_spectrum(mask_of(bits))
        assert hs.m == (0, 2)

    def test_diagonal_pixels_are_one_component(self):
        bits = np.zeros((4, 4), dtype=bool)
        bits[0, 0] = bits[1, 1] = True
        assert hole_spectrum(mask_of(bits)).m == (1,)

    def test_diagonal_background_is_not_a_tunnel(self):
        # closed-cell convention: the diagonal pinch keeps the hole sealed
        bits = block((3, 3))
        bits[1, 1] = False
        bits[0, 0] = False  # corner removed; hole still enclosed 4-wise
        assert hole_spectrum(mask_of(bits)).m == (0, 1)

    def test_rejects_3d(self):
        bits = np.ones((4, 4, 4), dtype=bool)
        with pytest.raises(DomainError):
            hole_spectrum(ExcursionMask(bits=bits))

    def test_component_total(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            bits = rng.random((24, 24)) < rng.uniform(0.2, 0.8)
            hs = hole_spectrum(mask_of(bits))
            n_fg = ndimage.label(bits, structure=np.ones((3, 3)))[1]
            assert sum(hs.m) == n_fg

    def test_island_in_hole_of_annulus_in_hole_of_annulus(self):
        # three levels of nesting: each annulus keeps its own hole, the
        # innermost island has none
        bits = np.zeros((11, 11), dtype=bool)
        bits[0, :] = bits[-1, :] = bits[:, 0] = bits[:, -1] = True
        bits[2:9, 2:9] = True
        bits[3:8, 3:8] = False
        bits[5, 5] = True
        hs = hole_spectrum(mask_of(bits))
        assert hs.m == (1, 2)
        assert hs.n_background == 2  # the two holes; no background meets the frame

    def test_frame_touching_component_with_holes(self):
        # a block flush with the left and top edges, with two holes, and a
        # detached pixel; the holes stay holes although the block meets the frame
        bits = np.zeros((6, 8), dtype=bool)
        bits[0:4, 0:5] = True
        bits[1, 1] = bits[2, 3] = False
        bits[5, 7] = True
        hs = hole_spectrum(mask_of(bits))
        assert hs.m == (1, 0, 1)
        assert hs.n_background == 3  # two holes and the exterior


REFERENCE_THRESHOLDS = np.linspace(-3.5, 3.5, 15)


def touches_frame(labels: np.ndarray, n: int) -> np.ndarray:
    """Which of the labels 0..n some face of the frame touches, one bool each (2D or 3D)."""
    touched = np.zeros(n + 1, dtype=bool)
    for axis in range(labels.ndim):
        touched[np.take(labels, [0, -1], axis=axis)] = True
    return touched


class TestTouchesFrame:
    def test_annulus_hole_is_enclosed(self):
        bits = block((3, 3), canvas=(5, 5))
        bits[2, 2] = False
        labels, n = ndimage.label(~bits)
        touched = touches_frame(labels, n)
        assert n == 2 and touched.shape == (3,)
        assert not touched[labels[2, 2]] and touched[labels[0, 0]]
        assert not touched[0]  # the foreground (label 0 here) stays off the frame

    def test_every_face_of_the_frame_is_exterior(self):
        # a background piece touching only one face is exterior, in 2D and 3D
        for shape in ((6, 7), (5, 6, 7)):
            bits = np.ones(shape, dtype=bool)
            for axis in range(len(shape)):
                for end in (0, -1):
                    probe = bits.copy()
                    index = [s // 2 for s in shape]
                    index[axis] = end
                    probe[tuple(index)] = False
                    labels, n = ndimage.label(~probe)
                    assert n == 1 and touches_frame(labels, n).tolist() == [True, True]

    def test_3d_cavity_is_enclosed(self):
        bits = np.ones((3, 3, 3), dtype=bool)
        bits[1, 1, 1] = False
        labels, n = ndimage.label(~bits)
        assert n == 1 and touches_frame(labels, n).tolist() == [True, False]


def two_labeling_spectrum(bits) -> tuple[tuple[int, ...], int]:
    """(m_0, ..., m_jmax) and the background count by labeling foreground and background.

    A 4-connected background component no face of the frame touches is a
    hole.  It belongs to the component owning the pixel directly above the
    hole's first pixel in row-major order: under the 8/4 convention that
    pixel is foreground and encloses the hole, since islands nested in the
    hole lie strictly below its top row.
    """
    fg_labels, n_fg = ndimage.label(bits, structure=np.ones((3, 3), dtype=int))
    bg_labels, n_bg = ndimage.label(~bits)
    is_hole = ~touches_frame(bg_labels, n_bg)
    is_hole[0] = False
    labels_seen, first_idx = np.unique(bg_labels.ravel(), return_index=True)
    owners = fg_labels.ravel()[first_idx[is_hole[labels_seen]] - bits.shape[1]]
    assert owners.all(), "the pixel above a hole's first pixel must be foreground"
    holes_per_component = np.bincount(owners, minlength=n_fg + 1)
    m = np.bincount(holes_per_component[1:])
    return tuple(m.tolist()), n_bg


class TestAgainstTwoLabelingOracle:
    @staticmethod
    def check(bits):
        hs = hole_spectrum(mask_of(bits))
        assert (hs.m, hs.n_background) == two_labeling_spectrum(bits)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (7, 7), (40, 40), (3, 40)])
    @pytest.mark.parametrize("fill", [False, True])
    def test_empty_and_full(self, shape, fill):
        self.check(np.full(shape, fill))

    @pytest.mark.parametrize("shape", [(1, 23), (23, 1), (2, 31), (31, 2)])
    def test_thin_strips(self, shape):
        rng = np.random.default_rng(sum(shape))
        for _ in range(50):
            self.check(rng.random(shape) < rng.uniform(0.1, 0.9))

    @settings(max_examples=400, deadline=None)
    @given(arrays(bool, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=40)))
    @example(np.eye(5, dtype=bool) | np.eye(5, dtype=bool)[::-1])
    def test_random_masks(self, bits):
        self.check(bits)

    def test_dense_random_masks(self):
        # hypothesis favours sparse arrays; this sweeps the fill fraction
        rng = np.random.default_rng(20250801)
        for _ in range(300):
            shape = tuple(rng.integers(1, 40, size=2))
            self.check(rng.random(shape) < rng.uniform(0.02, 0.98))

    def test_reference_field_masks(self):
        # the masks of the acceptance reference: 512^2, rs = 4, 15 thresholds
        for index in range(3):
            field = generate(PowerSpectrumModel(1.0), 512, 512.0, 2, seed=(20250801, index), rs=4.0)
            sigma0 = float(field.values.std())
            for nu in REFERENCE_THRESHOLDS:
                self.check(excursion_mask(field, nu, sigma0).bits)

    def test_white_noise_masks(self):
        # rs = 0: the most runs per row and the most holes per component
        field = generate(PowerSpectrumModel(1.0), 512, 512.0, 2, seed=20250801, rs=0.0)
        sigma0 = float(field.values.std())
        for nu in REFERENCE_THRESHOLDS:
            self.check(excursion_mask(field, nu, sigma0).bits)

    @pytest.mark.parametrize("parity", [0, 1])
    def test_checkerboard(self, parity):
        # every contact is diagonal: each one-pixel run meets two runs in each neighbour row
        bits = np.indices((64, 64)).sum(axis=0) % 2 == parity
        # one component; each clear pixel off the frame is a hole, half of the 62^2 inner ones
        assert hole_spectrum(mask_of(bits)).m == (0,) * (62 * 62 // 2) + (1,)
        self.check(bits)

    @pytest.mark.parametrize("side", [63, 64])
    def test_diagonal_x(self, side):
        # two one-pixel diagonals crossing: every run touches the next row at a corner only
        bits = np.eye(side, dtype=bool) | np.eye(side, dtype=bool)[::-1]
        assert hole_spectrum(mask_of(bits)).m == (1,)
        self.check(bits)

    def test_no_pixel_labeling(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("hole_spectrum labeled pixels")

        bits = block((3, 5))
        bits[1, 1] = bits[1, 3] = False
        monkeypatch.setattr(ndimage, "label", refuse)
        hs = hole_spectrum(mask_of(bits))
        assert (hs.m, hs.n_background) == ((0, 0, 1), 2)


def pairwise_run_graph(bits, touching) -> tuple[list, list, list]:
    """`run_graph`'s (edges, root, frame), with every pair of runs tested for contact.

    Runs are found cell by cell and numbered in C order of their lines.  Two
    runs join when their lines are one step apart along every line axis
    (``touching``) or along exactly one, and their closed cells meet
    (``touching``) or they share a position.  An edge is (earlier, later).
    """
    *line_shape, n = bits.shape
    runs = []
    for line in np.ndindex(*line_shape):
        start = None
        for x, bit in enumerate([*bits[line].tolist(), False]):
            if bit and start is None:
                start = x
            elif not bit and start is not None:
                runs.append((line, start, x))
                start = None
    edges = []
    for a, (line_a, start_a, end_a) in enumerate(runs):
        for b, (line_b, start_b, end_b) in enumerate(runs):
            step = tuple(j - i for i, j in zip(line_a, line_b))
            near = max(map(abs, step)) == 1 if touching else sum(map(abs, step)) == 1
            overlap = min(end_a, end_b) - max(start_a, start_b)
            if near and step > (0,) * len(step) and overlap >= (0 if touching else 1):
                edges.append((a, b))

    root = list(range(len(runs)))

    def find(r):
        while root[r] != r:
            r = root[r]
        return r

    for a, b in edges:
        ra, rb = find(a), find(b)
        root[max(ra, rb)] = min(ra, rb)
    root = [find(r) for r in range(len(runs))]
    frame = [False] * len(runs)
    for r, (line, start, end) in enumerate(runs):
        if start == 0 or end == n or any(i in (0, s - 1) for i, s in zip(line, line_shape)):
            frame[root[r]] = True
    return sorted(edges), root, frame


class TestRunGraphAgainstPairwiseOverlaps:
    """The exact edge set, roots and frame flags of `run_graph`, 2D and 3D."""

    @staticmethod
    def check(bits, touching):
        root, u, v, frame = run_graph(np.asarray(bits, dtype=bool), touching)
        got = (sorted(zip(u.tolist(), v.tolist())), root.tolist(), frame.tolist())
        assert got == pairwise_run_graph(np.asarray(bits, dtype=bool), touching)

    @pytest.mark.parametrize("touching", [True, False])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_random_masks(self, dim, touching):
        rng = np.random.default_rng(dim + 2 * touching)
        for _ in range(150):
            shape = tuple(rng.integers(1, 9 if dim == 2 else 6, size=dim))
            self.check(rng.random(shape) < rng.uniform(0.0, 1.0), touching)

    @pytest.mark.parametrize("touching", [True, False])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 6), (6, 1), (5, 7), (1, 1, 1), (3, 4, 5)])
    def test_first_and_last_cells_empty_and_full(self, shape, touching):
        # the first cell is key 0 and the last real cell ends next to the final gap
        first, last = np.zeros(shape, dtype=bool), np.zeros(shape, dtype=bool)
        first.flat[0] = last.flat[-1] = True
        for bits in (first, last, first | last, ~(first | last), np.zeros(shape), np.ones(shape)):
            self.check(bits, touching)

    def test_diagonal_contacts_join_only_when_touching(self):
        bits = np.eye(4, dtype=bool)
        self.check(bits, True)
        self.check(bits, False)
        assert run_graph(bits, True)[0].tolist() == [0, 0, 0, 0]
        assert run_graph(bits, False)[0].tolist() == [0, 1, 2, 3]


class TestBackgroundCount:
    """All 4-connected background components, holes and frame-cut ones."""

    def test_annulus(self):
        bits = block((3, 3), canvas=(5, 5))
        bits[2, 2] = False
        hs = hole_spectrum(mask_of(bits))
        assert hs.m == (0, 1)
        assert hs.n_background == 2  # the hole and the exterior

    def test_c_shape_open_to_frame(self):
        bits = block((3, 3), canvas=(5, 5))
        bits[2, 2] = bits[2, 3] = False  # the gap joins the inside to the exterior
        hs = hole_spectrum(mask_of(bits))
        assert hs.m == (1,)
        assert hs.n_background == 1

    def test_empty_and_full(self):
        assert hole_spectrum(mask_of(np.zeros((6, 6), dtype=bool))).n_background == 1
        assert hole_spectrum(mask_of(np.ones((6, 6), dtype=bool))).n_background == 0

    def test_frame_cut_pieces_counted(self):
        bits = np.zeros((5, 5), dtype=bool)
        bits[2, :] = True  # a bar across the window cuts the background in two
        hs = hole_spectrum(mask_of(bits))
        assert (hs.m, hs.n_background) == ((1,), 2)

    @pytest.mark.parametrize("corners", [[(0, 0)], [(0, -1)], [(-1, 0), (0, -1)],
                                         [(0, 0), (-1, -1)], [(0, 0), (0, -1), (-1, 0), (-1, -1)]])
    def test_contact_at_corner_pixels_only(self, corners):
        # a corner pixel shows on both sides of the loop: one arc, not two
        bits = np.zeros((6, 6), dtype=bool)
        for corner in corners:
            bits[corner] = True
        hs = hole_spectrum(mask_of(bits))
        assert (hs.m, hs.n_background) == ((len(corners),), 1)
        TestAgainstTwoLabelingOracle.check(bits)

    def test_corner_run_wraps_the_loop(self):
        # one run that starts on the left side and ends on the top row
        bits = np.zeros((6, 6), dtype=bool)
        bits[:3, 0] = bits[0, :3] = True
        hs = hole_spectrum(mask_of(bits))
        assert (hs.m, hs.n_background) == ((1,), 1)
        TestAgainstTwoLabelingOracle.check(bits)

    @pytest.mark.parametrize(
        "row, n_components, n_background",
        [("1011001", 3, 2), ("0110100", 2, 3), ("1111111", 1, 0), ("0000000", 0, 1)],
    )
    def test_strips(self, row, n_components, n_background):
        # in a 1 x n or n x 1 strip each run of clear pixels is one background component
        strip = np.array([[c == "1" for c in row]])
        for bits in (strip, strip.T):
            hs = hole_spectrum(mask_of(bits))
            assert (sum(hs.m), hs.jmax, hs.n_background) == (
                n_components, 0, n_background
            )
            TestAgainstTwoLabelingOracle.check(bits)

    def test_carried_to_stats(self):
        bits = block((3, 3), canvas=(5, 5))
        bits[2, 2] = False
        hs = hole_spectrum(mask_of(bits))
        assert topo_stats_from_spectrum(hs).n_background == 2
        assert betti_from_h(hs).n_background == 2


class TestTopoStatsFromSpectrum:
    def test_single_component_no_holes(self):
        stats = topo_stats_from_spectrum(HoleSpectrum(m=(1,)))
        assert (stats.b0, stats.b1, stats.chi, stats.bsum) == (1, 0, 1, 1)

    def test_two_hole_component(self):
        stats = topo_stats_from_spectrum(HoleSpectrum(m=(0, 0, 1)))
        assert (stats.b0, stats.b1, stats.chi, stats.bsum) == (1, 2, -1, 3)

    def test_mixed_spectrum(self):
        stats = topo_stats_from_spectrum(HoleSpectrum(m=(3, 2, 1)))
        assert (stats.b0, stats.b1, stats.chi, stats.bsum) == (6, 4, 2, 10)

    def test_parity_and_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            counts = {int(j): int(rng.integers(0, 5)) for j in rng.integers(0, 8, size=4)}
            stats = topo_stats_from_spectrum(HoleSpectrum(m=spectrum_of(counts)))
            assert stats.bsum >= abs(stats.chi)
            assert (stats.bsum - stats.chi) % 2 == 0

    @pytest.mark.parametrize("counts", [(-1,), (2, -1)])
    def test_negative_entry_rejected(self, counts):
        with pytest.raises(DomainError, match="invalid spectrum entry"):
            HoleSpectrum(m=counts)


class TestHoleSpectrumEntries:
    @pytest.mark.parametrize(
        "m", [(1.5,), (0, 2.7), (1.0,), (np.float64(2.0),), (True,), (np.True_,), (1, math.nan)]
    )
    def test_non_integer_entry_rejected(self, m):
        # a fractional j or m_j, a bool or a NaN is no count of components
        with pytest.raises(DomainError, match="invalid spectrum entry"):
            HoleSpectrum(m=m)

    @pytest.mark.parametrize("m", [{0: 3, 1: 2}, {1, 2}, 3])
    def test_non_sequence_rejected(self, m):
        # iterating the dict form {j: m_j} would read its keys as counts
        with pytest.raises(DomainError, match="sequence"):
            HoleSpectrum(m=m)

    def test_numpy_integers_taken_and_trailing_zeros_trimmed(self):
        hs = HoleSpectrum(m=np.array([2, 0, 1, 0, 0], dtype=np.int64))
        assert hs.m == (2, 0, 1) and all(type(c) is int for c in hs.m)
        assert hs.jmax == 2
        assert HoleSpectrum(m=[0, 0]).m == () and HoleSpectrum().jmax == 0


class TestEulerClosedCell:
    def test_single_pixel(self):
        bits = np.zeros((3, 3), dtype=bool)
        bits[1, 1] = True
        assert euler_closed_cell(mask_of(bits)) == 1  # 4 - 4 + 1

    def test_annulus_hand_count(self):
        bits = block((3, 3))
        bits[1, 1] = False
        assert euler_closed_cell(mask_of(bits)) == 16 - 24 + 8

    def test_matches_spectrum_on_random_masks(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            bits = rng.random((64, 64)) < rng.uniform(0.2, 0.8)
            mask = mask_of(bits)
            stats = topo_stats_from_spectrum(hole_spectrum(mask))
            assert euler_closed_cell(mask) == stats.b0 - stats.b1

    def test_empty(self):
        assert euler_closed_cell(mask_of(np.zeros((5, 5), dtype=bool))) == 0

    @settings(max_examples=300, deadline=None)
    @given(arrays(bool, array_shapes(min_dims=2, max_dims=2, max_side=8)))
    def test_matches_cell_oracle_2d(self, bits):
        assert euler_closed_cell(mask_of(bits)) == cell_oracle_chi(bits)

    @settings(max_examples=300, deadline=None)
    @given(arrays(bool, array_shapes(min_dims=3, max_dims=3, max_side=5)))
    def test_matches_cell_oracle_3d(self, bits):
        assert euler_closed_cell(mask_of(bits)) == cell_oracle_chi(bits)


def cell_oracle_chi(bits) -> int:
    """V - E + F (- C) from explicit sets of the closed cells of every foreground pixel.

    Each cell of the unit pixel (voxel) at x is the product over the axes of
    {x_a}, {x_a + 1} or the span {x_a, x_a + 1}; it is stored as the tuple of
    its corners in the set of its dimension, so a cell shared by neighbours
    is counted once.
    """
    cells = [set() for _ in range(bits.ndim + 1)]
    for x in zip(*np.nonzero(bits)):
        options = [((int(a),), (int(a) + 1,), (int(a), int(a) + 1)) for a in x]
        for choice in itertools.product(*options):
            corners = tuple(itertools.product(*choice))
            cells[sum(len(c) == 2 for c in choice)].add(corners)
    return sum((-1) ** k * len(found) for k, found in enumerate(cells))


class TestGeneratingFunction:
    def test_single_simply_connected(self):
        hs = HoleSpectrum(m=(1,))
        for alpha in (-1.0, 0.0, 2.5):
            h, dh = generating_function(hs, alpha)
            assert (h, dh) == (1.0, 0.0)

    def test_two_annuli(self):
        h, dh = generating_function(HoleSpectrum(m=(0, 2)), 0.0)
        assert (h, dh) == (2.0, -2.0)
        stats = betti_from_h(HoleSpectrum(m=(0, 2)))
        assert stats.b1 == 2

    def test_decay_in_alpha(self):
        hs = HoleSpectrum(m=(1, 0, 0, 2))
        h, _ = generating_function(hs, 5.0)
        assert h == pytest.approx(1.0 + 2.0 * math.exp(-15.0))

    def test_nonfinite_alpha_rejected(self):
        with pytest.raises(DomainError):
            generating_function(HoleSpectrum(m=(1,)), math.inf)

    def test_overflow_rejected(self):
        # the 64^2 checkerboard: one component with 1922 holes, so exp(961) at alpha = -0.5
        bits = np.indices((64, 64)).sum(axis=0) % 2 == 0
        hs = hole_spectrum(mask_of(bits))
        with pytest.raises(DomainError, match="overflows"):
            generating_function(hs, -0.5)
        # each exp is finite here, but their weighted sum is not
        with pytest.raises(DomainError, match="overflows"):
            generating_function(HoleSpectrum(m=(0,) * 700 + (10**5,)), -1.0)

    def test_equivalence_with_direct_sums(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            counts = {
                int(j): int(rng.integers(1, 6))
                for j in rng.choice(12, size=rng.integers(0, 5), replace=False)
            }
            hs = HoleSpectrum(m=spectrum_of(counts))
            assert betti_from_h(hs) == topo_stats_from_spectrum(hs)
