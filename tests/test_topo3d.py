"""3D Betti numbers on hand-built voxel fixtures.

`two_labeling_counts` is the voxel route `betti3d` took before it counted
runs: label the foreground (26-connected) and the background (6-connected)
and drop the background labels that reach the frame.  `betti3d`'s run graph
is checked against it.
"""

import itertools

import numpy as np
import pytest
from scipy import ndimage

from fieldtopo import (
    ExcursionMask,
    PowerSpectrumModel,
    betti3d,
    euler_closed_cell,
    excursion_mask,
    generate,
)
from fieldtopo.errors import DomainError
from test_topo2d import touches_frame  # the frame rule of the 2D oracle

REFERENCE_THRESHOLDS = [-3.5 + 0.5 * i for i in range(15)]


def mask3(array) -> ExcursionMask:
    return ExcursionMask(bits=np.asarray(array, dtype=bool))


def solid_ball(canvas=7, radius=2.4):
    c = (canvas - 1) / 2
    idx = np.indices((canvas,) * 3)
    return ((idx - c) ** 2).sum(axis=0) <= radius**2


def hollow_shell(canvas=5):
    bits = np.zeros((canvas,) * 3, dtype=bool)
    bits[1:-1, 1:-1, 1:-1] = True
    bits[canvas // 2, canvas // 2, canvas // 2] = False
    return bits


def solid_torus(canvas=7):
    bits = np.zeros((canvas,) * 3, dtype=bool)
    bits[1:-1, 1, canvas // 2] = True
    bits[1:-1, -2, canvas // 2] = True
    bits[1, 1:-1, canvas // 2] = True
    bits[-2, 1:-1, canvas // 2] = True
    return bits


class TestFixtures:
    def test_single_voxel_euler(self):
        bits = np.zeros((3, 3, 3), dtype=bool)
        bits[1, 1, 1] = True
        assert euler_closed_cell(mask3(bits)) == 8 - 12 + 6 - 1

    def test_solid_ball(self):
        stats = betti3d(mask3(solid_ball()))
        assert (stats.b0, stats.b1, stats.b2, stats.chi, stats.bsum) == (1, 0, 0, 1, 1)

    def test_solid_cube(self):
        bits = np.zeros((6, 6, 6), dtype=bool)
        bits[1:5, 1:5, 1:5] = True
        stats = betti3d(mask3(bits))
        assert (stats.b0, stats.b1, stats.b2, stats.chi, stats.bsum) == (1, 0, 0, 1, 1)

    def test_hollow_shell(self):
        stats = betti3d(mask3(hollow_shell()))
        assert (stats.b0, stats.b1, stats.b2, stats.chi, stats.bsum) == (1, 0, 1, 2, 2)

    def test_background_count(self):
        # the shell's cavity plus the exterior; empty and full masks give 1 and 0
        assert betti3d(mask3(hollow_shell())).n_background == 2
        assert betti3d(mask3(np.zeros((4, 4, 4)))).n_background == 1
        assert betti3d(mask3(np.ones((4, 4, 4)))).n_background == 0

    def test_solid_torus(self):
        stats = betti3d(mask3(solid_torus()))
        assert (stats.b0, stats.b1, stats.b2, stats.chi, stats.bsum) == (1, 1, 0, 0, 2)

    def test_two_balls(self):
        bits = np.zeros((12, 6, 6), dtype=bool)
        bits[1:4, 1:4, 1:4] = True
        bits[7:10, 1:4, 1:4] = True
        stats = betti3d(mask3(bits))
        assert (stats.b0, stats.b2) == (2, 0)

    def test_rejects_2d(self):
        with pytest.raises(DomainError):
            betti3d(ExcursionMask(bits=np.ones((4, 4), dtype=bool)))


class TestInvariants:
    def test_alternating_sum_on_fixtures(self):
        for bits in (solid_ball(), hollow_shell(), solid_torus()):
            stats = betti3d(mask3(bits))
            assert stats.chi == stats.b0 - stats.b1 + stats.b2
            assert euler_closed_cell(mask3(bits)) == stats.chi

    def test_b1_nonnegative_on_random_masks(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            bits = rng.random((64, 64, 64)) < rng.uniform(0.1, 0.9)
            stats = betti3d(mask3(bits))
            assert stats.b1 >= 0

    def test_negation_swaps_cavities_and_components(self):
        bits = hollow_shell()
        stats = betti3d(mask3(bits))
        negated = betti3d(mask3(~bits))
        # the exterior of the shell adds one border-touching component
        assert negated.b0 == stats.b2 + 1
        assert negated.b2 == stats.b0


def two_labeling_counts(bits) -> tuple[int, int, int]:
    """(b0, b2, n_background) from one labeling of the foreground and one of the background."""
    _, b0 = ndimage.label(bits, structure=np.ones((3, 3, 3), dtype=int))
    labels, n_bg = ndimage.label(~bits)  # default structure = 6-connectivity
    b2 = n_bg - int(np.count_nonzero(touches_frame(labels, n_bg)[1:]))
    return b0, b2, n_bg


def run_graph_counts(bits) -> tuple[int, int, int]:
    stats = betti3d(mask3(bits))
    return stats.b0, stats.b2, stats.n_background


def serpentine(n):
    """A one-voxel-thick path through every even site of an n^3 grid, axis 0 fastest.

    Consecutive voxels along the path are far apart in run order, so the
    union-find needs more than one hooking round and deep pointer jumps.
    """
    bits = np.zeros((n, n, n), dtype=bool)
    evens = list(range(0, n, 2))
    rows = [(c1, c2) for i2, c2 in enumerate(evens) for c1 in evens[:: 1 - 2 * (i2 % 2)]]
    path = [(c0, c1, c2) for i, (c1, c2) in enumerate(rows) for c0 in evens[:: 1 - 2 * (i % 2)]]
    for a, b in zip(path, path[1:]):
        assert sum(abs(x - y) for x, y in zip(a, b)) == 2  # neighbours two steps apart
        bits[a] = bits[b] = bits[tuple((x + y) // 2 for x, y in zip(a, b))] = True
    return bits


class TestRunGraphAgainstTwoLabelings:
    def test_random_masks_of_every_small_shape(self):
        rng = np.random.default_rng(23)
        for shape in itertools.product(range(1, 10), repeat=3):
            bits = rng.random(shape) < rng.uniform(0.0, 1.0)
            assert run_graph_counts(bits) == two_labeling_counts(bits), shape

    def test_empty_full_and_slabs(self):
        shape = (5, 6, 7)
        masks = [np.zeros(shape, dtype=bool), np.ones(shape, dtype=bool)]
        for axis, at in itertools.product(range(3), (0, 2)):
            slab = np.zeros(shape, dtype=bool)
            slab[(slice(None),) * axis + (at,)] = True
            masks += [slab, ~slab]
        for bits in masks:
            assert run_graph_counts(bits) == two_labeling_counts(bits)
        assert run_graph_counts(masks[0]) == (0, 0, 1)
        assert run_graph_counts(masks[1]) == (1, 0, 0)
        assert run_graph_counts(masks[2]) == (1, 0, 1)  # a slab on a face leaves one side

    def test_island_in_a_cavity_in_a_shell(self):
        bits = np.zeros((9, 9, 9), dtype=bool)
        bits[1:8, 1:8, 1:8] = True
        bits[2:7, 2:7, 2:7] = False
        bits[4, 4, 4] = True
        assert run_graph_counts(bits) == two_labeling_counts(bits) == (2, 1, 2)
        # the complement: the exterior and the cavity, around the shell and the island
        assert run_graph_counts(~bits) == two_labeling_counts(~bits) == (2, 2, 2)

    @pytest.mark.parametrize("rs", [0.0, 1.0, 3.0])
    def test_smoothed_field_at_reference_thresholds(self, rs):
        field = generate(PowerSpectrumModel(1.0), 64, 64.0, dim=3, seed=11, rs=rs)
        sigma0 = float(field.values.std())
        for nu in REFERENCE_THRESHOLDS:
            bits = excursion_mask(field, nu, sigma0).bits
            assert run_graph_counts(bits) == two_labeling_counts(bits), nu

    def test_serpentine_and_its_complement(self):
        bits = serpentine(33)
        assert run_graph_counts(bits) == two_labeling_counts(bits)
        assert run_graph_counts(bits)[0] == 1
        assert run_graph_counts(~bits) == two_labeling_counts(~bits)

    def test_no_voxel_labeling(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("betti3d labeled voxels")

        monkeypatch.setattr(ndimage, "label", refuse)
        assert run_graph_counts(hollow_shell()) == (1, 1, 2)
