"""Geometric attention mask pipeline: gradients, normals, edge partition,
clustering, gating, and feature modulation."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geoalign import structure_filter
from geoalign.autodiff import Kernel2D, Tape, Tensor, conv2d, mul, sum_all
from geoalign.scenes import facade_heavy_spec, render_oblique, render_ortho
from geoalign.structure_filter import (
    SOBEL_X,
    SOBEL_Y,
    ZENITH,
    DepthMap,
    EdgePartition,
    FilterConfig,
    GateParams,
    GeoMask,
    MaskGeometry,
    NormalField,
    _kmeans_pp,
    adaptive_gate,
    align_depth,
    cluster_normals,
    compute_normals,
    dominant_normal,
    macro_gradient,
    modulate,
    normal_consistency,
    partition_edges,
    rectify_edges,
    structure_mask,
)


def filter_features(features, depth, gate=GateParams(), cfg=FilterConfig()):
    """Mask at the feature grid, then modulate: the retrieval arms' masking step."""
    mask = MaskGeometry.from_depth(align_depth(depth, *features.data.shape[2:]), cfg).mask(gate)
    return modulate(features, mask), mask


def pixels(mask):
    """The (row, col) coordinates where a boolean raster is set."""
    return frozenset(zip(*np.nonzero(mask)))


def sigma(x):
    return 1.0 / (1.0 + math.exp(-x))


def ramp(a, b, h=16, w=16):
    cols, rows = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))
    return DepthMap(a * cols + b * rows)


class TestDepthMapAndAlign:
    def test_depth_map_validation(self):
        with pytest.raises(ValueError, match="2-d"):
            DepthMap(np.zeros(5))
        with pytest.raises(ValueError, match="too small"):
            DepthMap(np.zeros((2, 8)))
        with pytest.raises(ValueError, match="finite"):
            DepthMap(np.full((4, 4), np.nan))

    def test_align_keeps_constants_constant(self):
        pooled = align_depth(DepthMap(np.full((8, 8), 7.25)), 4, 4)
        assert np.array_equal(pooled.values, np.full((4, 4), 7.25))

    def test_align_averages_checkerboard_to_half(self):
        board = np.indices((8, 8)).sum(axis=0) % 2
        pooled = align_depth(DepthMap(board.astype(float)), 4, 4)
        assert np.array_equal(pooled.values, np.full((4, 4), 0.5))

    def test_align_rejects_upsampling(self):
        with pytest.raises(ValueError, match=re.escape("whole blocks: (4, 4) -> (8, 8)")):
            align_depth(DepthMap(np.zeros((4, 4))), 8, 8)


class TestMacroGradient:
    @pytest.mark.parametrize("dilation", [1, 2, 4])
    def test_linear_ramp_recovers_slopes_in_interior(self, dilation):
        a, b = 3.0, 0.0
        gx, gy = macro_gradient(ramp(a, b), dilation)
        r = dilation
        assert np.max(np.abs(gx[r:-r, r:-r] - a)) < 1e-12
        assert np.max(np.abs(gy[r:-r, r:-r] - b)) < 1e-12

    def test_diagonal_ramp_gives_unit_slopes(self):
        gx, gy = macro_gradient(ramp(1.0, 1.0), 2)
        assert np.max(np.abs(gx[2:-2, 2:-2] - 1.0)) < 1e-12
        assert np.max(np.abs(gy[2:-2, 2:-2] - 1.0)) < 1e-12

    def test_constant_depth_has_zero_gradient_everywhere(self):
        gx, gy = macro_gradient(DepthMap(np.full((10, 10), 7.0)), 2)
        assert np.array_equal(gx, np.zeros((10, 10)))
        assert np.array_equal(gy, np.zeros((10, 10)))

    def test_rejects_rasters_smaller_than_stencil(self):
        with pytest.raises(ValueError, match="stencil"):
            macro_gradient(DepthMap(np.zeros((4, 4))), 2)

    @pytest.mark.parametrize("side", [16, 128])
    @pytest.mark.parametrize("dilation", [1, 2, 4])
    def test_matches_one_conv_per_stencil_bit_for_bit(self, side, dilation):
        rng = np.random.default_rng(side + dilation)
        depth = ramp(0.3, -0.7, side, side).values + rng.normal(0.0, 2.0, (side, side))
        t = Tensor(depth[None, None])
        scale = 1.0 / (8.0 * dilation)
        want = [conv2d(t, Kernel2D(stencil[None] * scale, dilation=dilation)).data[0, 0]
                for stencil in (SOBEL_X, SOBEL_Y)]
        for got_i, want_i in zip(macro_gradient(DepthMap(depth), dilation), want):
            assert np.array_equal(got_i.view(np.int64), want_i.view(np.int64))

    def test_sobel_pair_is_transpose_symmetric(self):
        assert np.array_equal(SOBEL_Y, SOBEL_X.T)


class TestNormals:
    def test_hand_cases(self):
        gx = np.array([[0.0, 1.0, 3.0]])
        gy = np.array([[0.0, 0.0, 4.0]])
        field = compute_normals(gx, gy).normals
        assert np.max(np.abs(field[0, 0] - [0.0, 0.0, 1.0])) < 1e-12
        want = np.array([-1.0, 0.0, 1.0]) / math.sqrt(2.0)
        assert np.max(np.abs(field[0, 1] - want)) < 1e-12
        want = np.array([-3.0, -4.0, 1.0]) / math.sqrt(26.0)
        assert np.max(np.abs(field[0, 2] - want)) < 1e-12

    def test_random_fields_are_unit_with_positive_z(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            gx, gy = rng.normal(size=(2, 6, 7)) * 5.0
            field = compute_normals(gx, gy).normals
            lengths = np.linalg.norm(field, axis=2)
            assert np.max(np.abs(lengths - 1.0)) < 1e-9
            assert np.min(field[:, :, 2]) > 0.0

    def test_normal_field_validation(self):
        with pytest.raises(ValueError, match="unit"):
            NormalField(np.full((2, 2, 3), 1.0))
        flat = np.zeros((1, 1, 3))
        flat[..., 2] = -1.0
        with pytest.raises(ValueError, match="positive"):
            NormalField(flat)


class TestEdgePartition:
    def test_zero_gradients_produce_no_edges(self):
        part = partition_edges(np.zeros((5, 5)), np.zeros((5, 5)))
        assert part.n_edges == 0
        assert part.n_flat == 25
        assert pixels(part.edge_mask) == frozenset()

    def test_single_outlier_is_the_only_edge(self):
        gx = np.zeros((10, 10))
        gx[3, 7] = 100.0
        part = partition_edges(gx, np.zeros((10, 10)),
                               FilterConfig(edge_quantile=0.9))
        assert pixels(part.edge_mask) == frozenset({(3, 7)})
        assert part.threshold == 0.0

    def test_two_level_field_splits_at_median(self):
        gx = np.zeros((4, 4))
        gx[2:, :] = 10.0
        part = partition_edges(gx, np.zeros((4, 4)),
                               FilterConfig(edge_quantile=0.5))
        assert part.edge_mask[2:, :].all()
        assert not part.edge_mask[:2, :].any()

    def test_quantile_zero_marks_everything_ambiguous(self):
        part = partition_edges(np.zeros((3, 3)), np.zeros((3, 3)),
                               FilterConfig(edge_quantile=0.0))
        assert part.n_edges == 9
        assert part.threshold == float("-inf")

    def test_flat_and_edge_sets_partition_the_raster(self):
        rng = np.random.default_rng(4)
        gx, gy = rng.normal(size=(2, 8, 8))
        part = partition_edges(gx, gy)
        assert part.n_edges + part.n_flat == 64
        everything = {(i, j) for i in range(8) for j in range(8)}
        assert pixels(part.edge_mask) | pixels(part.flat_mask) == everything

    def test_config_validation(self):
        with pytest.raises(ValueError, match="quantile"):
            FilterConfig(edge_quantile=1.0)
        with pytest.raises(ValueError, match="dilation"):
            FilterConfig(gradient_dilation=0)
        with pytest.raises(ValueError, match="cluster"):
            FilterConfig(clusters=0)


def cluster_one_map(points, k, seed):
    """``cluster_normals`` on one map's points, without the map axis."""
    centroids, counts = cluster_normals(points, k, seed, 1)
    return centroids[0], counts[0]


class TestClustering:
    def test_two_well_separated_groups_are_recovered(self):
        tilted = np.array([-1.0, 0.0, 1.0]) / math.sqrt(2.0)
        points = np.array([ZENITH] * 5 + [tilted] * 3)
        centroids, counts = cluster_one_map(points, 2, seed=0)
        assert sorted(counts.tolist()) == [3, 5]
        big = int(np.argmax(counts))
        assert np.max(np.abs(centroids[big] - ZENITH)) < 1e-12
        assert np.max(np.abs(centroids[1 - big] - tilted)) < 1e-12

    def test_identical_points_collapse_to_lowest_index(self):
        points = np.tile(ZENITH, (5, 1))
        centroids, counts = cluster_one_map(points, 2, seed=3)
        assert counts.tolist() == [5, 0]
        assert np.array_equal(centroids[0], ZENITH)

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(5)
        points = rng.normal(size=(20, 3))
        a = cluster_one_map(points, 3, seed=7)
        b = cluster_one_map(points, 3, seed=7)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


def broadcast_kmeans_pp(points, k, rng):
    """k-means++ seeding with ``(N, 3)`` broadcast distances summed along the
    coordinate axis: the reference for the column-wise ``_kmeans_pp``."""
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = ((points - points[chosen[0]]) ** 2).sum(axis=1)
    for _ in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            pick = next(i for i in range(n) if i not in chosen)
        else:
            pick = int(rng.choice(n, p=d2 / total))
        chosen.append(pick)
        d2 = np.minimum(d2, ((points - points[pick]) ** 2).sum(axis=1))
    return points[chosen].copy()


def broadcast_lloyd(points, k, seed):
    """The Lloyd loop as an ``(N, k, 3)`` broadcast with a per-cluster member
    mean: the reference the column-wise step must reproduce bit for bit.
    Returns the centroids, the member counts and the step (1-based) at
    which the labels first repeat, or 50."""
    centroids = broadcast_kmeans_pp(points, k, np.random.default_rng(seed))
    labels = np.zeros(len(points), dtype=int)
    for step in range(1, 51):
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(d2, axis=1)
        for m in range(k):
            members = points[new_labels == m]
            if len(members):
                centroids[m] = members.mean(axis=0)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return centroids, np.bincount(new_labels, minlength=k), step


def assert_same_clustering(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


def grid_points(k, extra, distinct, jitter, data_seed):
    """``k + extra`` points drawn from ``distinct`` sites of a coarse decimal
    grid: exact duplicates and near-equal distances. ``jitter`` moves every
    second point off its site."""
    rng = np.random.default_rng(data_seed)
    sites = rng.integers(-5, 6, size=(distinct, 3)) / 10.0
    points = sites[rng.integers(0, distinct, size=k + extra)]
    if jitter:
        points[::2] += rng.normal(0.0, 0.05, size=points[::2].shape)
    return points


# Two sites for three clusters: the third k-means++ seed duplicates one of the
# sites, loses every tie to the lower index and stays empty.
EMPTIED = dict(k=3, seed=0, extra=5, distinct=2, jitter=False, data_seed=0)
# One site for seven clusters: every row of every step ties on every point.
ALL_TIED = dict(k=7, seed=0, extra=20, distinct=1, jitter=False, data_seed=0)


class TestClusteringProperty:
    """The column-wise Lloyd step against the broadcast reference."""

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(k=st.integers(1, 7), seed=st.integers(0, 9), extra=st.integers(0, 200),
           distinct=st.integers(1, 12), jitter=st.booleans(),
           data_seed=st.integers(0, 2**32 - 1))
    @example(**EMPTIED)
    @example(**ALL_TIED)
    def test_matches_broadcast_lloyd_bit_for_bit(self, k, seed, extra, distinct,
                                                 jitter, data_seed):
        points = grid_points(k, extra, distinct, jitter, data_seed)
        assert_same_clustering(cluster_one_map(points, k, seed),
                               broadcast_lloyd(points, k, seed)[:2])

    @pytest.mark.parametrize("k", [3, 5])
    def test_matches_broadcast_lloyd_on_a_128px_render(self, k):
        # ~14k flat normals, so NumPy's vector loops run at full width and not
        # only through the remainder paths that the small sets above reach.
        depth, _ = render_oblique(facade_heavy_spec(0, raster=(128, 128)))
        gx, gy = macro_gradient(depth, FilterConfig().gradient_dilation)
        flat = compute_normals(gx, gy).normals[partition_edges(gx, gy).flat_mask]
        assert len(flat) > 10_000
        assert_same_clustering(cluster_one_map(flat, k, 0), broadcast_lloyd(flat, k, 0)[:2])

    def test_explicit_example_empties_a_cluster(self):
        e = EMPTIED
        points = grid_points(e["k"], e["extra"], e["distinct"], e["jitter"], e["data_seed"])
        _, counts, _ = broadcast_lloyd(points, e["k"], e["seed"])
        assert 0 in counts.tolist()


class TestDominantNormal:
    def all_flat(self, n):
        return EdgePartition(np.zeros((1, n), dtype=bool), threshold=0.0)

    def test_uniform_field_returns_that_normal(self):
        tilted = np.array([-3.0, -4.0, 1.0]) / math.sqrt(26.0)
        field = NormalField(np.tile(tilted, (1, 8, 1)))
        got = dominant_normal(field, self.all_flat(8), FilterConfig(clusters=2))
        assert np.max(np.abs(got - tilted)) < 1e-12

    def test_majority_cluster_wins(self):
        tilted = np.array([-1.0, 0.0, 1.0]) / math.sqrt(2.0)
        normals = np.array([ZENITH] * 9 + [tilted] * 3).reshape(1, 12, 3)
        got = dominant_normal(NormalField(normals), self.all_flat(12),
                              FilterConfig(clusters=2))
        assert np.max(np.abs(got - ZENITH)) < 1e-12

    def test_size_tie_breaks_toward_higher_z(self):
        tilted = np.array([-1.0, 0.0, 1.0]) / math.sqrt(2.0)
        normals = np.array([tilted] * 6 + [ZENITH] * 6).reshape(1, 12, 3)
        got = dominant_normal(NormalField(normals), self.all_flat(12),
                              FilterConfig(clusters=2))
        assert np.max(np.abs(got - ZENITH)) < 1e-12

    def test_fewer_flat_pixels_than_clusters_uses_their_mean(self):
        tilted = np.array([-1.0, 0.0, 1.0]) / math.sqrt(2.0)
        normals = np.stack([ZENITH, tilted]).reshape(1, 2, 3)
        got = dominant_normal(NormalField(normals), self.all_flat(2),
                              FilterConfig(clusters=3))
        mean = (ZENITH + tilted) / 2.0
        want = mean / np.linalg.norm(mean)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_no_flat_pixels_returns_zenith(self):
        field = NormalField(np.tile(ZENITH, (2, 2, 1)))
        part = EdgePartition(np.ones((2, 2), dtype=bool), threshold=0.0)
        assert np.array_equal(dominant_normal(field, part), ZENITH)


class TestConsistencyAndGate:
    def test_consistency_is_cosine_with_reference(self):
        tilted_a = np.array([-1.0, 0.0, 1.0]) / math.sqrt(2.0)
        tilted_b = np.array([-3.0, -4.0, 1.0]) / math.sqrt(26.0)
        field = NormalField(np.stack([ZENITH, tilted_a, tilted_b]).reshape(1, 3, 3))
        c = normal_consistency(field, ZENITH)
        assert c[0, 0] == 1.0
        assert abs(c[0, 1] - 1.0 / math.sqrt(2.0)) < 1e-12
        assert abs(c[0, 2] - 1.0 / math.sqrt(26.0)) < 1e-12
        assert abs(c[0, 1] - 0.7071) < 1e-4
        assert abs(c[0, 2] - 0.1961) < 1e-4

    def test_gate_defaults(self):
        c = np.array([1.0, 0.5, 1.0 / math.sqrt(26.0)])
        out = adaptive_gate(c).data
        assert abs(out[0] - sigma(2.5)) < 1e-15
        assert out[1] == 0.5
        assert abs(out[2] - sigma(5.0 / math.sqrt(26.0) - 2.5)) < 1e-15
        assert abs(out[0] - 0.9241) < 1e-4
        assert abs(out[2] - 0.1795) < 1e-4

    def test_zeroed_gate_is_neutral_everywhere(self):
        rng = np.random.default_rng(6)
        c = rng.uniform(-1.0, 1.0, size=(4, 4))
        out = adaptive_gate(c, GateParams(gain=0.0, bias=0.0)).data
        assert np.array_equal(out, np.full((4, 4), 0.5))

    def test_gate_is_monotone_in_consistency(self):
        c = np.linspace(-1.0, 1.0, 21)
        out = adaptive_gate(c).data
        assert np.all(np.diff(out) > 0.0)

    def test_gate_accepts_learnable_tensors(self):
        tape = Tape()
        gate = GateParams(gain=tape.leaf(5.0), bias=tape.leaf(-2.5))
        out = adaptive_gate(np.array([[0.8]]), gate)
        tape.backward(sum_all(out))
        assert gate.gain.grad is not None and gate.gain.grad != 0.0
        assert gate.bias.grad is not None and gate.bias.grad != 0.0

    def test_gate_params_are_frozen(self):
        # One instance is the shared default of adaptive_gate and
        # MaskGeometry.mask, so an assignment would change every later call.
        gate = GateParams()
        with pytest.raises(dataclasses.FrozenInstanceError):
            gate.gain = 1.0
        assert gate == GateParams(gain=5.0, bias=-2.5)


class TestRectifyAndGeoMask:
    def test_empty_edge_set_keeps_mask_bit_identical(self):
        rng = np.random.default_rng(7)
        raw = Tensor(rng.uniform(0.1, 0.9, size=(5, 5)))
        part = EdgePartition(np.zeros((5, 5), dtype=bool), threshold=0.0)
        out = rectify_edges(raw, part)
        assert np.array_equal(out.values, raw.data)

    def test_full_edge_set_neutralizes_everything(self):
        raw = Tensor(np.full((3, 3), 0.9))
        part = EdgePartition(np.ones((3, 3), dtype=bool), threshold=0.0)
        out = rectify_edges(raw, part)
        assert np.array_equal(out.values, np.full((3, 3), 0.5))

    def test_mixed_edges_neutralized_others_kept(self):
        raw = Tensor(np.full((2, 2), 0.8))
        edge = np.array([[True, False], [False, False]])
        out = rectify_edges(raw, EdgePartition(edge, threshold=1.0))
        assert out.values[0, 0] == 0.5
        assert np.all(out.values[edge == False] == 0.8)  # noqa: E712

    def test_geomask_enforces_open_interval(self):
        edge = np.zeros((2, 2), dtype=bool)
        with pytest.raises(ValueError, match="strictly inside"):
            GeoMask(Tensor(np.array([[0.0, 0.5], [0.5, 0.5]])), edge)
        with pytest.raises(ValueError, match="strictly inside"):
            GeoMask(Tensor(np.array([[1.0, 0.5], [0.5, 0.5]])), edge)

    def test_geomask_enforces_neutral_edges(self):
        edge = np.array([[True, False], [False, False]])
        with pytest.raises(ValueError, match="neutral"):
            GeoMask(Tensor(np.full((2, 2), 0.7)), edge)


class TestModulate:
    def neutral_mask(self, h, w):
        return GeoMask(Tensor(np.full((h, w), 0.5)), np.zeros((h, w), dtype=bool))

    def test_neutral_mask_scales_by_one_and_a_half(self):
        rng = np.random.default_rng(8)
        f = Tensor(rng.normal(size=(2, 3, 4, 4)))
        out = modulate(f, self.neutral_mask(4, 4))
        assert np.array_equal(out.data, 1.5 * f.data)

    def test_gate_values_amplify_unit_features(self):
        vals = np.array([[sigma(2.5), sigma(5.0 / math.sqrt(26.0) - 2.5)]])
        mask = GeoMask(Tensor(vals), np.zeros((1, 2), dtype=bool))
        out = modulate(Tensor(np.ones((1, 1, 1, 2))), mask)
        assert abs(out.data[0, 0, 0, 0] - 1.9241) < 1e-4
        assert abs(out.data[0, 0, 0, 1] - 1.1795) < 1e-4

    def test_magnitudes_bounded_between_one_and_two_times_input(self):
        for seed in range(5):
            rng = np.random.default_rng(30 + seed)
            f = rng.normal(size=(1, 2, 6, 6))
            mask = GeoMask(Tensor(rng.uniform(0.01, 0.99, size=(6, 6))),
                           np.zeros((6, 6), dtype=bool))
            out = modulate(Tensor(f), mask).data
            assert np.all(np.abs(out) >= np.abs(f))
            assert np.all(np.abs(out) <= 2.0 * np.abs(f))
            assert np.array_equal(np.sign(out), np.sign(f))

    def test_single_map_gives_the_broadcast_product_bytes(self):
        rng = np.random.default_rng(31)
        f = rng.normal(size=(2, 3, 4, 4))
        m = rng.uniform(0.01, 0.99, size=(4, 4))
        out = modulate(Tensor(f), GeoMask(Tensor(m), np.zeros((4, 4), dtype=bool)))
        assert out.data.tobytes() == (f * (m[None, None] + 1.0)).tobytes()

    def test_stacked_maps_modulate_their_own_batch_items(self):
        rng = np.random.default_rng(32)
        f = rng.normal(size=(3, 2, 4, 4))
        maps = rng.uniform(0.01, 0.99, size=(3, 4, 4))
        edges = maps > 0.8
        maps[edges] = 0.5
        tape = Tape()
        leaf = tape.leaf(maps)
        out = modulate(Tensor(f), GeoMask(leaf, edges))
        for i in range(3):
            alone = modulate(Tensor(f[i:i + 1]), GeoMask(Tensor(maps[i]), edges[i]))
            assert out.data[i:i + 1].tobytes() == alone.data.tobytes()
        tape.backward(sum_all(out))
        assert np.allclose(leaf.grad, f.sum(axis=1), rtol=0.0, atol=1e-14)


class TestStructureMaskPipeline:
    def test_level_plane_gives_constant_gate_and_no_edges(self):
        depth = DepthMap(np.full((32, 32), 40.0))
        mask = structure_mask(depth, 16, 16)
        edges = MaskGeometry.from_depth(align_depth(depth, 16, 16)).partition.edge_mask
        assert not edges.any()
        assert np.max(np.abs(mask.values - sigma(2.5))) < 1e-12

    def test_tilted_plane_interior_is_fully_consistent(self):
        # Away from the border, every pixel of a tilted plane shares one
        # normal, so all non-edge interior pixels carry a single gate value
        # sitting essentially at full consistency.
        depth = ramp(0.05, -0.03, 32, 32)
        mask = structure_mask(depth, 32, 32)
        edges = MaskGeometry.from_depth(align_depth(depth, 32, 32)).partition.edge_mask
        interior = mask.values[4:-4, 4:-4]
        flat_vals = interior[~edges[4:-4, 4:-4]]
        assert flat_vals.size > 0
        assert np.max(flat_vals) - np.min(flat_vals) < 1e-12
        assert np.max(np.abs(flat_vals - sigma(2.5))) < 1e-4

    def test_zeroed_gate_masks_everything_at_half(self):
        rng = np.random.default_rng(9)
        depth = DepthMap(40.0 + rng.normal(size=(32, 32)))
        mask = MaskGeometry.from_depth(align_depth(depth, 16, 16)).mask(
            GateParams(gain=0.0, bias=0.0))
        assert np.array_equal(mask.values, np.full((16, 16), 0.5))

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        depth = DepthMap(40.0 + rng.normal(size=(32, 32)))
        a = structure_mask(depth, 16, 16)
        b = structure_mask(depth, 16, 16)
        assert np.array_equal(a.values, b.values)
        edges = [MaskGeometry.from_depth(align_depth(depth, 16, 16)).partition.edge_mask
                 for _ in range(2)]
        assert np.array_equal(edges[0], edges[1])

    def test_all_noise_depth_with_quantile_zero_is_all_neutral(self):
        rng = np.random.default_rng(11)
        depth = DepthMap(rng.normal(size=(16, 16)) * 10.0)
        cfg = FilterConfig(edge_quantile=0.0)
        mask = structure_mask(depth, 16, 16, cfg=cfg)
        assert np.array_equal(mask.values, np.full((16, 16), 0.5))
        out = modulate(Tensor(np.ones((1, 1, 16, 16))), mask)
        assert np.array_equal(out.data, np.full((1, 1, 16, 16), 1.5))

    def test_overflow_raises_under_the_float_policy(self):
        # Slopes of 5e306 per pixel overflow the normals' squared length.
        before = np.geterr()
        with pytest.raises(FloatingPointError, match="overflow"):
            structure_mask(ramp(5e306, 5e306), 16, 16)
        assert np.geterr() == before

    def test_grid_that_does_not_divide_the_raster_raises(self):
        depth = DepthMap(np.full((64, 64), 40.0))
        with pytest.raises(ValueError, match=re.escape("whole blocks: (64, 64) -> (10, 10)")):
            structure_mask(depth, 10, 10)


class TestFilterFeatures:
    def test_returns_modulated_features_and_mask(self):
        rng = np.random.default_rng(12)
        depth = DepthMap(40.0 + rng.normal(size=(32, 32)))
        f = Tensor(rng.normal(size=(1, 4, 16, 16)))
        out, mask = filter_features(f, depth)
        assert out.shape == f.shape
        assert mask.values.shape == (16, 16)
        assert np.array_equal(out.data, f.data * (1.0 + mask.values))

    def test_mask_resolution_follows_feature_grid(self):
        depth = DepthMap(np.full((32, 32), 40.0))
        _, mask = filter_features(Tensor(np.ones((1, 2, 8, 8))), depth)
        assert mask.values.shape == (8, 8)

    def test_gradient_flows_through_gate_parameters(self):
        tape = Tape()
        gate = GateParams(gain=tape.leaf(5.0), bias=tape.leaf(-2.5))
        rng = np.random.default_rng(13)
        depth = DepthMap(40.0 + rng.normal(size=(32, 32)))
        f = Tensor(rng.normal(size=(1, 2, 8, 8)))
        out, _ = filter_features(f, depth, gate)
        tape.backward(sum_all(mul(out, out)))
        assert gate.gain.grad is not None and gate.gain.grad != 0.0
        assert gate.bias.grad is not None and gate.bias.grad != 0.0


def lloyd_steps(points, k, seed):
    """The step at which ``broadcast_lloyd``'s labels first repeat (or 50)."""
    return broadcast_lloyd(points, k, seed)[2]


def assert_same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestStackedPass:
    """A stack of maps runs as one pass that gives each map the bytes that
    map gets alone."""

    def test_cluster_normals_gives_each_map_its_own_bytes(self):
        # Maps of one size: two sites for three clusters (one cluster
        # empties), identical points (k-means++ falls back to the lowest
        # unused index), and jittered sets whose Lloyd loops stop at other
        # steps.
        sets = [grid_points(3, 40, 2, False, 0), np.tile(ZENITH, (43, 1)),
                grid_points(3, 40, 12, True, 1), grid_points(3, 40, 6, True, 2),
                grid_points(3, 40, 12, True, 3)]
        assert len({lloyd_steps(points, 3, 4) for points in sets}) >= 3
        centroids, counts = cluster_normals(np.concatenate(sets), 3, seed=4, b=len(sets))
        assert centroids.shape == (5, 3, 3) and counts.shape == (5, 3)
        for i, points in enumerate(sets):
            for got, want in zip((centroids[i], counts[i]), cluster_one_map(points, 3, seed=4)):
                assert_same_bytes(got, want)

    def test_dominant_normal_takes_each_maps_own_branch(self):
        # Map 0 has no flat pixel (the zenith), map 1 fewer flat pixels than
        # clusters (their mean), map 2 sixteen equal normals and map 3 mixed
        # ones (clusters).
        rng = np.random.default_rng(3)
        normals = rng.normal(size=(4, 4, 4, 3))
        normals[..., 2] = np.abs(normals[..., 2]) + 0.5
        normals[2] = np.array([-1.0, 0.0, 1.0]) / math.sqrt(2.0)
        normals /= np.linalg.norm(normals, axis=-1, keepdims=True)
        edges = np.zeros((4, 4, 4), dtype=bool)
        edges[0] = True
        edges[1] = True
        edges[1, 2, 1:3] = False
        edges[3, ::2, ::3] = True
        field, partition = NormalField(normals), EdgePartition(edges, np.zeros(4))
        cfg = FilterConfig(clusters=3, cluster_seed=5)
        got = dominant_normal(field, partition, cfg)
        assert np.array_equal(got[0], ZENITH)
        for i in range(4):
            alone = dominant_normal(NormalField(normals[i]), EdgePartition(edges[i], 0.0), cfg)
            assert_same_bytes(got[i], alone)

    def test_dominant_normal_clusters_by_flat_count(self, monkeypatch):
        # Flat counts 40 (three maps), 52 (two maps), 33 (one map) and 2,
        # fewer than the clusters (the mean).
        n_flat = [40, 52, 2, 40, 33, 52, 40]
        rng = np.random.default_rng(11)
        normals = rng.normal(size=(7, 8, 8, 3))
        normals[..., 2] = np.abs(normals[..., 2]) + 0.5
        normals /= np.linalg.norm(normals, axis=-1, keepdims=True)
        edges = np.ones((7, 64), dtype=bool)
        for row, n in zip(edges, n_flat):
            row[rng.choice(64, n, replace=False)] = False
        edges = edges.reshape(7, 8, 8)
        cfg = FilterConfig(clusters=3, cluster_seed=2)
        calls = []

        def counted(points, k, seed, b):
            calls.append((len(points), b))
            return cluster_normals(points, k, seed, b)

        monkeypatch.setattr(structure_filter, "cluster_normals", counted)
        got = dominant_normal(NormalField(normals), EdgePartition(edges, np.zeros(7)), cfg)
        assert sorted(calls) == [(33, 1), (104, 2), (120, 3)]
        for i in range(7):
            alone = dominant_normal(NormalField(normals[i]), EdgePartition(edges[i], 0.0), cfg)
            assert_same_bytes(got[i], alone)

    @pytest.mark.parametrize("noisy", [True, False])
    @pytest.mark.parametrize("cfg, grid", [(FilterConfig(gradient_dilation=1, edge_quantile=0.25),
                                            16),
                                           (FilterConfig(), 32)])
    def test_mask_geometry_gives_each_map_its_own_bytes(self, cfg, grid, noisy):
        # With noise, every map keeps one flat count. Without it, gradient
        # magnitudes tie, so the counts differ, some maps sharing one, and
        # the stack is clustered one count at a time.
        specs = [facade_heavy_spec(seed) for seed in range(4)]
        if not noisy:
            specs = [dataclasses.replace(spec, noise_sigma=0.0) for spec in specs]
        maps = [render(spec)[0].values
                for spec in specs for render in (render_ortho, render_oblique)]
        stack = align_depth(DepthMap(np.stack(maps)), grid, grid)
        steps = set()
        geometry = MaskGeometry.from_depth(stack, cfg)
        n_counts = len(set(geometry.partition.flat_mask.sum(axis=(1, 2)).tolist()))
        assert n_counts == 1 if noisy else 1 < n_counts < len(maps)
        mask = geometry.mask().values
        for i, values in enumerate(maps):
            depth = align_depth(DepthMap(values), grid, grid)
            alone = MaskGeometry.from_depth(depth, cfg)
            assert_same_bytes(geometry.partition.edge_mask[i], alone.partition.edge_mask)
            assert geometry.partition.threshold[i] == alone.partition.threshold
            assert_same_bytes(geometry.reference[i], alone.reference)
            assert_same_bytes(geometry.consistency[i], alone.consistency)
            assert_same_bytes(mask[i], alone.mask().values)
            assert_same_bytes(mask[i], structure_mask(DepthMap(values), grid, grid, cfg).values)
            gx, gy = macro_gradient(depth, cfg.gradient_dilation)
            flat = compute_normals(gx, gy).normals[alone.partition.flat_mask]
            steps.add(lloyd_steps(flat, cfg.clusters, cfg.cluster_seed))
        assert len(steps) >= 2

    def test_mask_geometry_mixes_cluster_and_mean_branches(self):
        # On 3x3 maps at quantile 0.5, a sloped map keeps 5 flat pixels,
        # fewer than 9 clusters; a level map keeps all 9, equal, so they
        # are clustered through k-means++'s all-equal fallback.
        sloped = np.array([[40.0, 41.5, 43.0], [40.25, 42.0, 44.5], [40.75, 43.25, 46.0]])
        stack = DepthMap(np.stack([sloped, np.full((3, 3), 40.0), sloped[::-1]]))
        cfg = FilterConfig(gradient_dilation=1, edge_quantile=0.5, clusters=9)
        geometry = MaskGeometry.from_depth(stack, cfg)
        assert geometry.partition.flat_mask.sum(axis=(1, 2)).tolist() == [5, 9, 5]
        assert np.array_equal(geometry.reference[1], ZENITH)
        for i, values in enumerate(stack.values):
            alone = MaskGeometry.from_depth(DepthMap(values), cfg)
            assert_same_bytes(geometry.reference[i], alone.reference)
            assert_same_bytes(geometry.mask().values[i], alone.mask().values)

    def test_one_map_of_a_stack_is_a_geomask_of_that_map(self):
        maps = [render_oblique(facade_heavy_spec(seed))[0].values for seed in range(2)]
        masks = structure_mask(DepthMap(np.stack(maps)), 16, 16)
        for i, values in enumerate(maps):
            assert_same_bytes(masks[i].values, structure_mask(DepthMap(values), 16, 16).values)


def per_coordinate_lloyd(points, k, seed, b):
    """The Lloyd loop over ``b`` maps of equal size with one count
    ``bincount`` and three weighted per-coordinate ``bincount``s a step, an
    ``intp`` label per point, an ``array_equal`` stop test after each update
    and ``broadcast_kmeans_pp`` seeds: the reference for the interleaved-key
    loop of ``cluster_normals``."""
    n = len(points) // b
    centroids = np.stack([broadcast_kmeans_pp(p, k, np.random.default_rng(seed))
                          for p in points.reshape(b, n, 3)])
    grids = [column.reshape(b, n) for column in points.T]
    offset = np.repeat(np.arange(b) * k, n)
    labels = np.zeros(b * n, dtype=np.intp)
    for _ in range(50):
        d2 = np.empty((k, b * n))
        for m in range(k):
            row = (grids[0] - centroids[:, m, 0, None]) ** 2
            for j in (1, 2):
                row += (grids[j] - centroids[:, m, j, None]) ** 2
            d2[m] = row.ravel()
        best = d2[0].copy()
        new_labels = np.zeros(b * n, dtype=np.intp)
        for m in range(1, k):
            closer = d2[m] < best
            best = np.minimum(best, d2[m])
            new_labels = np.maximum(new_labels, closer * m)
        bins = new_labels + offset
        sizes = np.bincount(bins, minlength=b * k).reshape(b, k)
        for j, column in enumerate(points.T):
            sums = np.bincount(bins, weights=column, minlength=b * k).reshape(b, k)
            np.divide(sums, sizes, out=centroids[:, :, j], where=sizes > 0)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return centroids, sizes


def norm_normals(gx, gy):
    """``[-gx, -gy, 1]`` stacked on a last axis over its ``np.linalg.norm``:
    the reference for the column-wise ``compute_normals``."""
    stacked = np.stack([-gx, -gy, np.ones_like(gx)], axis=-1)
    return stacked / np.linalg.norm(stacked, axis=-1, keepdims=True)


def render_flat_normals(seed, raster=(128, 128)):
    """The flat normals of a facade-heavy oblique render, as ``geoalign mask``
    clusters them, and the render's gradients."""
    depth, _ = render_oblique(facade_heavy_spec(seed, raster=raster))
    gx, gy = macro_gradient(depth, FilterConfig().gradient_dilation)
    return compute_normals(gx, gy).normals[partition_edges(gx, gy).flat_mask], gx, gy


def assert_matches_per_coordinate_lloyd(points, k, seed, b):
    got = cluster_normals(points, k, seed, b)
    for g, w in zip(got, per_coordinate_lloyd(points, k, seed, b)):
        assert_same_bytes(g, w)
    return got


class TestInterleavedLloyd:
    """Interleaved-key centroid sums, moved-point updates, narrow labels and
    coordinate-column distances and normals, against the per-coordinate,
    broadcast and ``np.linalg.norm`` forms they replace."""

    @pytest.mark.parametrize("seed", [0, 5])
    def test_128px_render_with_one_dominant_cluster(self, seed):
        flat, gx, gy = render_flat_normals(seed)
        assert flat[:, 2].min() > 0.999  # every flat normal within 3 degrees of the zenith
        assert_same_bytes(compute_normals(gx, gy).normals, norm_normals(gx, gy))
        assert_same_bytes(_kmeans_pp(flat.T.copy(), 3, np.random.default_rng(seed)),
                          broadcast_kmeans_pp(flat, 3, np.random.default_rng(seed)))
        assert_matches_per_coordinate_lloyd(flat, 3, 0, 1)

    def test_stacked_normals_match_the_norm_form(self):
        rng = np.random.default_rng(8)
        gx, gy = rng.normal(size=(2, 3, 9, 7)) * [[[[0.01]]], [[[40.0]]]]
        assert_same_bytes(compute_normals(gx, gy).normals, norm_normals(gx, gy))

    def test_one_cluster(self):
        points = grid_points(1, 300, 9, True, 6)
        _, counts = assert_matches_per_coordinate_lloyd(points, 1, 2, 1)
        assert counts.tolist() == [[301]]

    @pytest.mark.parametrize("b", [1, 2])
    def test_257_clusters_take_16_bit_labels(self, b):
        assert np.min_scalar_type(256) == np.uint16 and np.min_scalar_type(255) == np.uint8
        points = np.random.default_rng(9).normal(size=(1400, 3))
        _, counts = assert_matches_per_coordinate_lloyd(points, 257, 1, b)
        assert counts[:, 256].any()

    def test_256_clusters_of_one_map_take_8_bit_labels(self):
        # Label 255 has key 765 in an 8-bit label's range of 0-255.
        points = np.random.default_rng(10).normal(size=(1000, 3))
        _, counts = assert_matches_per_coordinate_lloyd(points, 256, 2, 1)
        assert counts[0, 255] > 0

    def test_all_equal_points_take_the_fallback_seeds(self):
        points = np.tile([0.6, 0.0, 0.8], (9, 1))
        assert_same_bytes(_kmeans_pp(points.T.copy(), 4, np.random.default_rng(3)),
                          broadcast_kmeans_pp(points, 4, np.random.default_rng(3)))
        sets = [points, grid_points(4, 5, 5, True, 2)]
        assert_matches_per_coordinate_lloyd(np.concatenate(sets), 4, 3, 2)

    def test_labels_that_repeat_at_step_zero_still_update_once(self):
        # Every point ties with every seed, so step 0 keeps label 0 for all.
        # The member mean of three copies of 0.1 is not 0.1: the centroid must
        # be that mean, and the loop must stop there, though the seeds that
        # stay on 0.1 are now strictly closer.
        points = np.tile([0.1, 0.1, 0.1], (3, 1))
        assert points.sum(axis=0)[0] / 3 != 0.1
        centroids, counts = assert_matches_per_coordinate_lloyd(points, 2, 0, 1)
        assert_same_bytes(centroids[0, 0], points.sum(axis=0) / 3)
        assert_same_bytes(centroids[0, 1], points[0])
        assert counts.tolist() == [[3, 0]]
