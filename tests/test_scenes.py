"""Synthetic box-city scenes: rendering, labeling, pooling, and mask scoring."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from geoalign.formats import parse_scene_spec
from geoalign.scenes import (
    FACADE_RAMP_MIN,
    FACADE_WIDTH_MAX,
    Box,
    Label,
    LabelMap,
    NotEvaluableError,
    SceneSpec,
    _add_noise,
    _base_scene,
    _dilate,
    class_mask_means,
    facade_heavy_spec,
    facade_width,
    mask_quality,
    pool_labels,
    render_oblique,
    render_ortho,
)
from geoalign.structure_filter import DepthMap, structure_mask
from test_formats import serialize_scene_spec


SLOPE = (0.03, 0.02)


def count(labels, label):
    return int((labels.labels == label).sum())


def single_box_spec(**overrides):
    kwargs = dict(ground_depth=40.0, boxes=(Box(24, 24, 16, 16, 22.0),),
                  oblique_slope=SLOPE, raster=(64, 64), noise_sigma=0.0,
                  rng_seed=0)
    kwargs.update(overrides)
    return SceneSpec(**kwargs)


class TestSpecValidation:
    def test_box_footprint_and_height(self):
        with pytest.raises(ValueError, match="1x1"):
            Box(0, 0, 0, 4, 5.0)
        with pytest.raises(ValueError, match="positive"):
            Box(0, 0, 4, 4, 0.0)

    def test_box_must_fit_raster(self):
        with pytest.raises(ValueError, match="box 0 leaves"):
            SceneSpec(10.0, (Box(60, 60, 8, 8, 5.0),), raster=(64, 64))

    def test_overlapping_boxes_name_both_indices(self):
        with pytest.raises(ValueError, match="boxes 0 and 1 overlap"):
            SceneSpec(10.0, (Box(4, 4, 8, 8, 5.0), Box(8, 8, 8, 8, 5.0)))

    def test_touching_boxes_are_allowed(self):
        spec = SceneSpec(10.0, (Box(4, 4, 8, 8, 5.0), Box(12, 4, 8, 8, 5.0)))
        assert len(spec.boxes) == 2

    def test_scalar_validation(self):
        with pytest.raises(ValueError, match="raster too small"):
            SceneSpec(10.0, (), raster=(2, 64))
        with pytest.raises(ValueError, match="noise sigma"):
            SceneSpec(10.0, (), noise_sigma=-0.1)
        with pytest.raises(ValueError, match="edge band"):
            SceneSpec(10.0, (), edge_band=0)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            SceneSpec(10.0, (), rng_seed=-1)
        with pytest.raises(ValueError, match="slope 1e\\+308 0.0 tilts the ground plane"):
            SceneSpec(10.0, (), oblique_slope=(1e308, 0.0))
        with pytest.raises(ValueError, match="on the 64x4 raster"):
            SceneSpec(1e308, (), oblique_slope=(0.0, -1e308), raster=(4, 64))

    def test_box_past_float64_names_the_box(self):
        # The tilt alone stays finite (1.5e308); only the second roof adds past it.
        with pytest.raises(ValueError, match="box 1 of height 1e\\+308 .* on the 8x4 raster"):
            SceneSpec(0.0, (Box(0, 0, 1, 1, 1.0), Box(2, 2, 1, 1, 1e308)),
                      oblique_slope=(0.0, 5e307), raster=(4, 8))

    def test_label_map_validation(self):
        with pytest.raises(ValueError, match="2-d"):
            LabelMap(np.zeros(4, dtype=np.uint8))
        with pytest.raises(ValueError, match="unknown label"):
            LabelMap(np.full((4, 4), 9, dtype=np.uint8))


def first_overlap_message(boxes):
    """The pairwise overlap rule: the message for the first pair (i, j) in
    scan order whose footprints share a pixel, or None."""
    for i, a in enumerate(boxes):
        for j, b in enumerate(boxes[i + 1:], start=i + 1):
            if (a.x < b.x + b.w and b.x < a.x + a.w and
                    a.y < b.y + b.h and b.y < a.y + a.h):
                return f"boxes {i} and {j} overlap"
    return None


@st.composite
def boxes_on_raster(draw):
    """2-12 boxes of up to 4x4 pixels anywhere on a small raster, so some
    specs overlap in several pairs and some in none."""
    h, w = draw(st.integers(4, 16)), draw(st.integers(4, 16))
    boxes = []
    for _ in range(draw(st.integers(2, 12))):
        x, y = draw(st.integers(0, w - 1)), draw(st.integers(0, h - 1))
        boxes.append(Box(x, y, draw(st.integers(1, min(4, w - x))),
                         draw(st.integers(1, min(4, h - y))), 5.0))
    return (h, w), tuple(boxes)


# Overlaps in pairs (0, 3) and (1, 2); the scan names (0, 3) first.
TWO_OVERLAPS = ((16, 16), (Box(0, 0, 4, 4, 5.0), Box(10, 10, 4, 4, 5.0),
                           Box(11, 11, 2, 2, 5.0), Box(1, 1, 2, 2, 5.0)))


class TestBoxOverlap:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(case=boxes_on_raster())
    @example(case=TWO_OVERLAPS)
    def test_message_names_the_first_overlapping_pair(self, case):
        raster, boxes = case
        expected = first_overlap_message(boxes)
        if expected is None:
            assert SceneSpec(10.0, boxes, raster=raster).boxes == boxes
        else:
            with pytest.raises(ValueError) as info:
                SceneSpec(10.0, boxes, raster=raster)
            assert str(info.value) == expected

    def test_forty_thousand_boxes_validate_quickly(self):
        # A 200x200 grid of 1x1 boxes: a pair scan makes 8e8 comparisons.
        lines = [f"box {2 * i} {2 * j} 1 1 5.0" for i in range(200) for j in range(200)]
        start = time.perf_counter()
        spec = parse_scene_spec("\n".join(["ground 40", "raster 400 400", *lines]))
        assert time.perf_counter() - start < 10.0
        assert len(spec.boxes) == 40_000

    def test_late_overlap_among_forty_thousand_boxes_is_named_quickly(self):
        # The same grid plus a box on its last one: the only overlapping pair
        # comes last in scan order.
        lines = [f"box {2 * i} {2 * j} 1 1 5.0" for i in range(200) for j in range(200)]
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            parse_scene_spec("\n".join(["ground 40", "raster 400 400", *lines,
                                        "box 398 398 1 1 5.0"]))
        assert time.perf_counter() - start < 10.0
        assert str(info.value) == "boxes 39999 and 40000 overlap"


class TestRenderOrtho:
    def test_empty_scene_is_constant_ground(self):
        depth, labels = render_ortho(SceneSpec(17.5, (), raster=(16, 16)))
        assert np.array_equal(depth.values, np.full((16, 16), 17.5))
        assert count(labels, Label.GROUND) == 256

    def test_single_box_roof_and_edge_ring(self):
        spec = SceneSpec(20.0, (Box(4, 6, 4, 4, 5.0),), raster=(16, 16))
        depth, labels = render_ortho(spec)
        roof = labels.labels[6:10, 4:8]
        assert np.all(roof == Label.ROOF)
        assert np.all(depth.values[6:10, 4:8] == 15.0)
        ring = np.zeros((16, 16), dtype=bool)
        ring[5:11, 3:9] = True
        ring[6:10, 4:8] = False
        assert np.all(labels.labels[ring] == Label.EDGE)
        outside = ~ring & (labels.labels != Label.ROOF)
        assert np.all(labels.labels[outside & (labels.labels != Label.EDGE)]
                      == Label.GROUND)
        assert count(labels, Label.EDGE) == ring.sum()
        assert count(labels, Label.FACADE) == 0

    def test_ring_is_clipped_at_the_raster_border(self):
        spec = SceneSpec(20.0, (Box(0, 0, 4, 4, 5.0),), raster=(16, 16))
        _, labels = render_ortho(spec)
        assert labels.labels[0, 0] == Label.ROOF
        assert count(labels, Label.EDGE) == 9  # an L of 4 + 4 + 1 cells

    def test_rings_never_overwrite_a_touching_neighbours_roof(self):
        edge_pair = (Box(2, 2, 4, 4, 5.0), Box(6, 3, 3, 5, 7.0))  # share a side
        corner_pair = (Box(2, 2, 4, 4, 5.0), Box(6, 6, 3, 3, 7.0))  # share a corner
        for boxes in (edge_pair, corner_pair):
            _, labels = render_ortho(SceneSpec(20.0, boxes, raster=(12, 12)))
            footprint = np.zeros((12, 12), dtype=bool)
            for box in boxes:
                footprint[box.y:box.y + box.h, box.x:box.x + box.w] = True
            assert np.all(labels.labels[footprint] == Label.ROOF)
            assert np.all(labels.labels[~footprint] != Label.ROOF)
            ring = np.zeros((12, 12), dtype=bool)
            for box in boxes:
                ring[max(box.y - 1, 0):box.y + box.h + 1,
                     max(box.x - 1, 0):box.x + box.w + 1] = True
            assert np.array_equal(labels.labels == Label.EDGE, ring & ~footprint)

    def test_disjoint_boxes_contribute_additively(self):
        a = Box(2, 2, 4, 4, 5.0)
        b = Box(10, 10, 3, 5, 7.0)
        _, la = render_ortho(SceneSpec(20.0, (a,), raster=(20, 20)))
        _, lb = render_ortho(SceneSpec(20.0, (b,), raster=(20, 20)))
        _, lab = render_ortho(SceneSpec(20.0, (a, b), raster=(20, 20)))
        for label in (Label.ROOF, Label.EDGE):
            assert count(lab, label) == count(la, label) + count(lb, label)

    def test_deterministic_with_noise(self):
        spec = SceneSpec(20.0, (Box(4, 4, 6, 6, 5.0),), raster=(16, 16),
                         noise_sigma=0.5, rng_seed=9)
        d1, l1 = render_ortho(spec)
        d2, l2 = render_ortho(spec)
        assert np.array_equal(d1.values, d2.values)
        assert np.array_equal(l1.labels, l2.labels)

    def test_noise_changes_depth_not_labels(self):
        base = SceneSpec(20.0, (Box(4, 4, 6, 6, 5.0),), raster=(16, 16))
        noisy = SceneSpec(20.0, (Box(4, 4, 6, 6, 5.0),), raster=(16, 16),
                          noise_sigma=0.1, rng_seed=3)
        d0, l0 = render_ortho(base)
        d1, l1 = render_ortho(noisy)
        assert not np.array_equal(d0.values, d1.values)
        assert np.array_equal(l0.labels, l1.labels)


class TestFacadeWidth:
    def test_tall_box_hits_the_width_cap(self):
        assert facade_width(22.0, SLOPE) == FACADE_WIDTH_MAX
        assert 22.0 / (FACADE_WIDTH_MAX + 1) > FACADE_RAMP_MIN

    def test_width_shrinks_until_ramp_clears_the_floor(self):
        width = facade_width(15.0, SLOPE)
        assert width == 5
        assert 15.0 / (width + 1) > FACADE_RAMP_MIN
        assert 15.0 / (width + 2) <= FACADE_RAMP_MIN

    def test_short_box_keeps_minimum_width_one(self):
        assert facade_width(1.0, SLOPE) == 1

    def test_steep_tilt_raises_the_ramp_floor(self):
        width = facade_width(22.0, (3.0, 4.0))
        assert width == 1
        assert 22.0 / (width + 1) > 5.0

    def test_unbounded_ratio_hits_the_width_cap(self):
        # height / tilt is inf in float64 for both.
        assert facade_width(30.0, (5e-324, 0.0)) == FACADE_WIDTH_MAX
        assert facade_width(1e308, (0.01, 0.0)) == FACADE_WIDTH_MAX


class TestRenderOblique:
    def test_zero_slope_degenerates_to_ortho_bit_for_bit(self):
        spec = SceneSpec(20.0, (Box(4, 4, 6, 6, 5.0),), raster=(16, 16),
                         oblique_slope=(0.0, 0.0), noise_sigma=0.05, rng_seed=2)
        do, lo = render_ortho(spec)
        db, lb = render_oblique(spec)
        assert np.array_equal(do.values, db.values)
        assert np.array_equal(lo.labels, lb.labels)

    def test_strips_grow_only_on_tilt_facing_sides(self):
        spec = single_box_spec(oblique_slope=(0.05, 0.0))
        _, labels = render_oblique(spec)
        ys, xs = np.nonzero(labels.labels == Label.FACADE)
        assert len(xs) > 0
        box = spec.boxes[0]
        width = facade_width(box.height, spec.oblique_slope)
        assert np.all(xs >= box.x + box.w)
        assert np.all(xs < box.x + box.w + width)
        assert np.all((ys >= box.y) & (ys < box.y + box.h))

    def test_negative_slope_flips_the_strip_side(self):
        spec = single_box_spec(oblique_slope=(-0.05, 0.0))
        _, labels = render_oblique(spec)
        ys, xs = np.nonzero(labels.labels == Label.FACADE)
        box = spec.boxes[0]
        assert len(xs) > 0
        assert np.all(xs < box.x)
        assert np.all(xs >= box.x - facade_width(box.height, spec.oblique_slope))

    def test_strip_depth_ramps_from_roof_to_ground(self):
        spec = single_box_spec()
        depth, _ = render_oblique(spec)
        box = spec.boxes[0]
        width = facade_width(box.height, SLOPE)
        step = box.height / (width + 1)
        row = box.y + box.h // 2
        sx, sy = SLOPE
        for d in range(1, width + 1):
            col = box.x + box.w - 1 + d
            want = (spec.ground_depth - box.height) + step * d \
                + sx * col + sy * row
            assert depth.values[row, col] == pytest.approx(want, abs=1e-12)

    def test_facade_ramp_is_steeper_than_the_tilt(self):
        spec = single_box_spec()
        box = spec.boxes[0]
        width = facade_width(box.height, SLOPE)
        step = box.height / (width + 1)
        assert step > FACADE_RAMP_MIN > math.hypot(*SLOPE)

    def test_oblique_equals_ortho_plus_tilt_on_roofs_even_with_noise(self):
        spec = single_box_spec(noise_sigma=0.3, rng_seed=11)
        do, lo = render_ortho(spec)
        db, _ = render_oblique(spec)
        h, w = spec.raster
        cols, rows = np.meshgrid(np.arange(w, dtype=float),
                                 np.arange(h, dtype=float))
        tilt = SLOPE[0] * cols + SLOPE[1] * rows
        roof = lo.labels == Label.ROOF
        assert np.max(np.abs((db.values - do.values - tilt)[roof])) < 1e-12

    def test_roof_interior_survives_banding_and_rim_becomes_edge(self):
        spec = single_box_spec()
        _, labels = render_oblique(spec)
        box = spec.boxes[0]
        interior = labels.labels[box.y + 2:box.y + box.h - 2,
                                 box.x + 2:box.x + box.w - 2]
        assert np.all(interior == Label.ROOF)
        roof_mask = labels.labels == Label.ROOF
        footprint = np.zeros(spec.raster, dtype=bool)
        footprint[box.y:box.y + box.h, box.x:box.x + box.w] = True
        assert not np.any(roof_mask & ~footprint)

    def test_no_facade_survives_in_the_border_band(self):
        clipped = SceneSpec(40.0, (Box(44, 20, 12, 12, 22.0),),
                            oblique_slope=(0.05, 0.02), raster=(64, 64))
        _, labels = render_oblique(clipped)
        eb = clipped.edge_band
        border = np.zeros((64, 64), dtype=bool)
        border[:eb, :] = border[-eb:, :] = True
        border[:, :eb] = border[:, -eb:] = True
        assert not np.any((labels.labels == Label.FACADE) & border)
        assert count(labels, Label.FACADE) > 0  # the south strip survives

    def test_interior_strip_keeps_its_measurable_core(self):
        spec = single_box_spec()
        _, labels = render_oblique(spec)
        box = spec.boxes[0]
        width = facade_width(box.height, SLOPE)
        # Two-pixel transition rims on both sides leave width - 4 columns.
        core_cols = slice(box.x + box.w + 2, box.x + box.w + width - 2)
        core = labels.labels[box.y + 2:box.y + box.h - 2, core_cols]
        assert np.all(core == Label.FACADE)

    def test_sy_strip_is_the_sx_strip_of_the_transpose(self):
        boxes = (Box(6, 20, 14, 9, 22.0), Box(30, 40, 10, 16, 31.0))
        flipped = tuple(Box(b.y, b.x, b.h, b.w, b.height) for b in boxes)
        for s in (0.05, -0.05):
            dx, lx = render_oblique(SceneSpec(40.0, boxes, oblique_slope=(s, 0.0)))
            dy, ly = render_oblique(SceneSpec(40.0, flipped, oblique_slope=(0.0, s)))
            assert count(ly, Label.FACADE) > 0
            assert np.array_equal(dy.values, dx.values.T)
            assert np.array_equal(ly.labels, lx.labels.T)

    def test_edge_band_wider_than_the_raster(self):
        box = Box(1, 1, 2, 2, 5.0)
        full = SceneSpec(40.0, (box,), oblique_slope=(0.1, 0.0), edge_band=66)
        assert np.all(render_oblique(full)[1].labels == Label.EDGE)
        # On a 4-row raster a band of 6 spans every row; along the rows it
        # reaches 5 columns past the last transition (strip end | ground).
        thin = SceneSpec(40.0, (box,), oblique_slope=(0.1, 0.0), raster=(4, 64),
                         edge_band=6)
        _, labels = render_oblique(thin)
        reach = box.x + box.w + facade_width(box.height, (0.1, 0.0)) + 5
        assert np.all(labels.labels[:, :reach + 1] == Label.EDGE)
        assert np.all(labels.labels[:, reach + 1:] == Label.GROUND)
        tall = SceneSpec(40.0, (box,), oblique_slope=(0.0, 0.1), raster=(64, 4),
                         edge_band=6)
        assert np.array_equal(render_oblique(tall)[1].labels, labels.labels.T)

    def test_deterministic(self):
        spec = facade_heavy_spec(5)
        d1, l1 = render_oblique(spec)
        d2, l2 = render_oblique(spec)
        assert np.array_equal(d1.values, d2.values)
        assert np.array_equal(l1.labels, l2.labels)


def per_column_render_oblique(spec):
    """``render_oblique`` with one write per facade column: the reference for
    its one write per strip."""
    sx, sy = spec.oblique_slope
    depth, labels = _base_scene(spec)
    h, w = spec.raster
    for box in spec.boxes:
        width = facade_width(box.height, spec.oblique_slope)
        roof = spec.ground_depth - box.height
        step = box.height / (width + 1)
        for slope, d_view, l_view, lo, length, across in (
                (sx, depth, labels, box.x, box.w, slice(box.y, box.y + box.h)),
                (sy, depth.T, labels.T, box.y, box.h, slice(box.x, box.x + box.w))):
            if slope == 0.0:
                continue
            for d in range(1, width + 1):
                col = lo + length - 1 + d if slope > 0 else lo - d
                if not 0 <= col < d_view.shape[1]:
                    continue
                writable = l_view[across, col] != Label.ROOF
                d_view[across, col] = np.where(writable, roof + step * d,
                                               d_view[across, col])
                l_view[across, col] = np.where(writable, Label.FACADE,
                                               l_view[across, col])
    boundary = np.zeros((h, w), dtype=bool)
    boundary[:, 1:] |= labels[:, 1:] != labels[:, :-1]
    boundary[:, :-1] |= labels[:, 1:] != labels[:, :-1]
    boundary[1:, :] |= labels[1:, :] != labels[:-1, :]
    boundary[:-1, :] |= labels[1:, :] != labels[:-1, :]
    labels[_dilate(boundary, spec.edge_band - 1)] = Label.EDGE
    border = np.zeros((h, w), dtype=bool)
    eb = spec.edge_band
    border[:eb, :] = border[-eb:, :] = True
    border[:, :eb] = border[:, -eb:] = True
    labels[border & (labels == Label.FACADE)] = Label.EDGE
    cols, rows = np.meshgrid(np.arange(w, dtype=np.float64),
                             np.arange(h, dtype=np.float64))
    return _add_noise(depth + sx * cols + sy * rows, spec), labels


# Strips cut whole at the left (A), top and right (C) borders, and in part at
# the left and bottom (D), top (B) and right (F) ones. A's and B's strips
# overlap in the three columns between them, as do C's and F's rows.
BORDER_BOXES = (Box(0, 2, 6, 10, 30.0), Box(9, 2, 6, 10, 30.0), Box(30, 0, 10, 8, 25.0),
                Box(4, 24, 10, 5, 30.0), Box(16, 16, 4, 4, 20.0), Box(28, 14, 8, 10, 28.0))


class TestStripWrites:
    """``render_oblique`` writes each facade strip at once, bit for bit as one
    column at a time."""

    @staticmethod
    def assert_renders_equal(spec):
        depth, labels = render_oblique(spec)
        want_depth, want_labels = per_column_render_oblique(spec)
        assert np.array_equal(depth.values.view(np.int64), want_depth.view(np.int64))
        assert np.array_equal(labels.labels, want_labels)

    def test_facade_heavy_scenes(self):
        for seed in range(200):
            self.assert_renders_equal(facade_heavy_spec(seed))

    @pytest.mark.parametrize("slope", [(sx, sy) for sx in (-0.05, 0.0, 0.05)
                                       for sy in (-0.05, 0.0, 0.05) if (sx, sy) != (0.0, 0.0)])
    def test_strips_cut_at_borders_and_overlapping(self, slope):
        spec = SceneSpec(40.0, BORDER_BOXES, oblique_slope=slope, raster=(32, 40),
                         noise_sigma=0.02, rng_seed=5)
        _, labels = render_oblique(spec)
        assert count(labels, Label.FACADE) > 0
        self.assert_renders_equal(spec)


class TestDilate:
    @pytest.mark.parametrize("shape", [(4, 64), (64, 4), (5, 7), (16, 16)])
    def test_matches_window_any_oracle_at_every_radius(self, shape):
        h, w = shape
        rng = np.random.default_rng(h * 100 + w)
        for density in (0.02, 0.2):
            mask = rng.random(shape) < density
            for radius in range(2 * max(h, w) + 1):
                want = np.array([[mask[max(0, i - radius):i + radius + 1,
                                       max(0, j - radius):j + radius + 1].any()
                                  for j in range(w)] for i in range(h)])
                got = _dilate(mask, radius)
                assert got.dtype == bool and np.array_equal(got, want), (density, radius)


class TestPoolLabels:
    def test_identity_at_native_resolution(self):
        _, labels = render_oblique(single_box_spec())
        pooled, scoreable = pool_labels(labels, 64, 64)
        non_edge = labels.labels != Label.EDGE
        assert np.array_equal(pooled[non_edge], labels.labels[non_edge])
        assert np.array_equal(scoreable, non_edge)
        assert np.all(pooled[~scoreable] == Label.EDGE)

    def test_plurality_vote_within_blocks(self):
        block = np.full((4, 4), Label.GROUND, dtype=np.uint8)
        block.reshape(-1)[:5] = Label.FACADE
        block.reshape(-1)[5:10] = Label.EDGE
        pooled, scoreable = pool_labels(LabelMap(block), 1, 1)
        # 6 ground, 5 facade, 5 edge: scoreable, ground wins the plurality.
        assert scoreable[0, 0]
        assert pooled[0, 0] == Label.GROUND

    def test_class_ties_prefer_facade_then_roof(self):
        half = np.full((4, 4), Label.ROOF, dtype=np.uint8)
        half[:2] = Label.FACADE
        pooled, scoreable = pool_labels(LabelMap(half), 1, 1)
        assert scoreable[0, 0] and pooled[0, 0] == Label.FACADE
        half[:2] = Label.GROUND
        pooled, _ = pool_labels(LabelMap(half), 1, 1)
        assert pooled[0, 0] == Label.ROOF

    def test_edge_plurality_marks_bin_unscoreable(self):
        block = np.full((4, 4), Label.EDGE, dtype=np.uint8)
        block[:2] = Label.FACADE  # 8 edge vs 8 facade: edge ties the max
        pooled, scoreable = pool_labels(LabelMap(block), 1, 1)
        assert not scoreable[0, 0]
        assert pooled[0, 0] == Label.EDGE

    def test_uneven_pooling_rejected(self):
        with pytest.raises(ValueError, match="does not pool evenly"):
            pool_labels(LabelMap(np.zeros((6, 6), dtype=np.uint8)), 4, 4)


class TestMaskQuality:
    def labels_with_both_classes(self):
        labels = np.full((8, 8), Label.GROUND, dtype=np.uint8)
        labels[:, 4:] = Label.FACADE
        labels[2:4, 1:3] = Label.ROOF
        return LabelMap(labels)

    def test_perfect_mask_scores_one(self):
        labels = self.labels_with_both_classes()
        mask = np.where(labels.labels == Label.FACADE, 0.1, 0.9)
        assert mask_quality(mask, labels) == 1.0

    def test_inverted_mask_scores_zero(self):
        labels = self.labels_with_both_classes()
        mask = np.where(labels.labels == Label.FACADE, 0.9, 0.1)
        assert mask_quality(mask, labels) == 0.0

    def test_neutral_mask_scores_half(self):
        labels = self.labels_with_both_classes()
        assert mask_quality(np.full((8, 8), 0.5), labels) == 0.5

    def test_edge_bins_are_excluded_from_scoring(self):
        labels = self.labels_with_both_classes()
        spoiled = labels.labels.copy()
        spoiled[0, :4] = Label.EDGE
        mask = np.where(spoiled == Label.FACADE, 0.1, 0.9)
        mask[0, :4] = 0.1  # wrong value, but only on excluded EDGE cells
        assert mask_quality(mask, LabelMap(spoiled)) == 1.0

    def test_ortho_scene_is_not_evaluable(self):
        _, labels = render_ortho(single_box_spec())
        with pytest.raises(NotEvaluableError, match="no facade"):
            mask_quality(np.full((64, 64), 0.9), labels)

    def test_all_facade_scene_is_not_evaluable(self):
        labels = LabelMap(np.full((4, 4), Label.FACADE, dtype=np.uint8))
        with pytest.raises(NotEvaluableError, match="no horizontal"):
            mask_quality(np.full((4, 4), 0.5), labels)

    def test_class_mask_means_reports_nan_for_absent_classes(self):
        _, labels = render_ortho(single_box_spec())
        means = class_mask_means(np.full((64, 64), 0.7), labels)
        assert means["roof"] == pytest.approx(0.7)
        assert means["ground"] == pytest.approx(0.7)
        assert math.isnan(means["facade"])


class TestFacadeHeavySpec:
    def test_deterministic_and_well_formed_across_seeds(self):
        for seed in range(50):
            spec = facade_heavy_spec(seed)
            again = facade_heavy_spec(seed)
            assert spec == again
            assert len(spec.boxes) == 3
            mag = math.hypot(*spec.oblique_slope)
            assert 0.025 <= mag <= 0.04
            for box in spec.boxes:
                assert 15.0 <= box.height <= 34.0
                assert facade_width(box.height, spec.oblique_slope) >= 5

    def test_scenes_vary_with_seed(self):
        assert facade_heavy_spec(0) != facade_heavy_spec(1)

    def test_mask_ordering_survives_depth_scaling(self):
        for seed in range(5):
            depth, labels = render_oblique(facade_heavy_spec(seed))
            for c in (0.5, 1.0, 2.0):
                mask = structure_mask(DepthMap(depth.values * c), 64, 64)
                means = class_mask_means(mask, labels)
                assert means["roof"] > means["facade"], (seed, c)

    def test_mask_quality_degrades_with_noise_on_average(self):
        levels = (0.0, 0.5, 2.0, 4.0, 8.0)
        means = []
        for sigma in levels:
            scores = []
            for seed in range(20):
                spec = replace(facade_heavy_spec(seed), noise_sigma=sigma)
                depth, labels = render_oblique(spec)
                scores.append(mask_quality(structure_mask(depth, 64, 64), labels))
            means.append(float(np.mean(scores)))
        for lo, hi in zip(means[1:], means[:-1]):
            assert lo <= hi + 0.05, means


# Finite magnitudes from the float64 extremes and from the ordinary range.
MAGNITUDES = st.one_of(st.sampled_from([5e-324, 1e-300, 1e300, 1e308]),
                       st.floats(1e-3, 1e3))
SIGNED = st.one_of(st.just(0.0), MAGNITUDES, MAGNITUDES.map(lambda v: -v))
PROPERTY = settings(derandomize=True, database=None, max_examples=200, deadline=None)
TINY_TILT = SceneSpec(40.0, (Box(1, 1, 4, 4, 30.0),), oblique_slope=(5e-324, 0.0))
TALL_BOX = SceneSpec(40.0, (Box(1, 1, 4, 4, 1e308),), oblique_slope=(0.01, 0.0))


@st.composite
def valid_specs(draw, single_axis=False):
    """A ``SceneSpec`` with at most one box per cell of a grid over the raster,
    so no two boxes overlap."""
    h, w = draw(st.integers(4, 40)), draw(st.integers(4, 40))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    boxes = []
    for r in range(rows):
        for c in range(cols):
            if not draw(st.booleans()):
                continue
            y0, y1 = r * h // rows, (r + 1) * h // rows
            x0, x1 = c * w // cols, (c + 1) * w // cols
            y, x = draw(st.integers(y0, y1 - 1)), draw(st.integers(x0, x1 - 1))
            boxes.append(Box(x, y, draw(st.integers(1, x1 - x)),
                             draw(st.integers(1, y1 - y)), draw(MAGNITUDES)))
    slope = (draw(SIGNED), 0.0 if single_axis else draw(SIGNED))
    try:
        return SceneSpec(draw(SIGNED), tuple(boxes), slope, (h, w),
                         noise_sigma=draw(st.one_of(st.just(0.0), MAGNITUDES)),
                         rng_seed=draw(st.integers(0, 2**32)),
                         edge_band=draw(st.integers(1, 6)))
    except ValueError as exc:
        # The tilt and box rules bound depth; nothing else rejects these.
        if "past the float64 range" not in str(exc):
            raise
        reject()


class TestValidSpecProperties:
    @PROPERTY
    @given(spec=valid_specs())
    @example(spec=TINY_TILT)
    @example(spec=TALL_BOX)
    def test_renders_finite_depth_and_round_trips(self, spec):
        assert parse_scene_spec(serialize_scene_spec(spec)) == spec
        still = replace(spec, noise_sigma=0.0)
        for render in (render_ortho, render_oblique):
            depth, labels = render(still)
            assert np.isfinite(depth.values).all()
            assert depth.shape == labels.shape == spec.raster

    @PROPERTY
    @given(spec=valid_specs(single_axis=True))
    @example(spec=TINY_TILT)
    @example(spec=TALL_BOX)
    def test_single_axis_slope_is_the_transpose_of_the_other_axis(self, spec):
        h, w = spec.raster
        flipped = SceneSpec(spec.ground_depth,
                            tuple(Box(b.y, b.x, b.h, b.w, b.height) for b in spec.boxes),
                            oblique_slope=(0.0, spec.oblique_slope[0]), raster=(w, h),
                            edge_band=spec.edge_band)
        dx, lx = render_oblique(replace(spec, noise_sigma=0.0))
        dy, ly = render_oblique(flipped)
        assert np.array_equal(dy.values, dx.values.T)
        assert np.array_equal(ly.labels, lx.labels.T)
