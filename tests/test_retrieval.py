"""Cross-view retrieval harness: encoder, embeddings, ranking metrics, and
the ablation experiment."""

import dataclasses

import numpy as np
import pytest

from geoalign import retrieval, structure_filter
from geoalign.autodiff import Tensor, adaptive_avg_pool, l2_normalize, reshape
from geoalign.retrieval import (
    ARM_FILTER_CONFIG,
    ARMS,
    EMBEDDING_DIM,
    FEATURE_GRID,
    RetrievalReport,
    ToyEncoder,
    detrend_depth,
    embed,
    mean_average_precision,
    rank_gallery,
    recall_at_k,
    run_experiment,
    standardize_stack,
    true_rank,
)
from geoalign.scale_fusion import (
    FusionParams,
    depth_feature_stack,
    fuse,
    scale_branches,
    scale_weights,
)
from geoalign.scenes import Box, SceneSpec, facade_heavy_spec, render_oblique, render_ortho
from geoalign.structure_filter import DepthMap, modulate, structure_mask


EASY_A = SceneSpec(40.0, (Box(26, 26, 12, 12, 18.0),), (0.03, 0.02),
                   (64, 64), 0.02, 1)
EASY_B = SceneSpec(40.0, (Box(6, 6, 20, 20, 32.0), Box(36, 10, 18, 14, 25.0),
                          Box(10, 38, 16, 18, 30.0)), (-0.03, 0.025),
                   (64, 64), 0.02, 2)


def scene_depth(seed):
    return render_oblique(facade_heavy_spec(seed))[0]


def arm_inputs(arm, channels, seed=0):
    """The fusion ``run_experiment`` gives ``arm`` (None where unused), and
    whether the arm is masked."""
    fused, masked = retrieval._arm_parts(arm)
    return FusionParams.smoothing(channels, seed=seed) if fused else None, masked


def embed_alone(depth, encoder, arm_parts, fusion):
    """``embed`` of one map, through the depth side of a stack of one."""
    side = retrieval.depth_side(DepthMap(depth.values[None]), arm_parts, fusion)
    return embed(side, encoder, arm_parts, fusion, 0)


def embed_arm(depth, encoder, fusion=None, masked=False):
    """``embed`` for the one arm that uses exactly the given fusion (none for
    ``None``) and mask. An unfused arm passes a fusion that it never reads."""
    used = FusionParams.smoothing(encoder.pw1.shape[0]) if fusion is None else fusion
    return embed_alone(depth, encoder, [(fusion is not None, masked)], used)[0]


def embed_one_arm(depth, encoder, fusion=None, masked=False):
    """The embedding chain of one arm on its own, recomputing every stage."""
    h, w = FEATURE_GRID
    stack = Tensor(standardize_stack(depth_feature_stack(detrend_depth(depth), h, w)))
    features = encoder.forward(stack)
    if fusion is not None:
        features = fuse(features, scale_branches(features, fusion),
                        scale_weights(stack, fusion))
    if masked:
        features = modulate(features, structure_mask(depth, h, w, ARM_FILTER_CONFIG))
    pooled = adaptive_avg_pool(features, 1, 1)
    return l2_normalize(reshape(pooled, (encoder.pw1.shape[0],)))


class TestToyEncoder:
    def test_seeded_is_deterministic(self):
        a = ToyEncoder.seeded(seed=3, channels=8)
        b = ToyEncoder.seeded(seed=3, channels=8)
        c = ToyEncoder.seeded(seed=4, channels=8)
        for field in dataclasses.fields(ToyEncoder):
            assert np.array_equal(getattr(a, field.name), getattr(b, field.name))
        assert not np.array_equal(a.pw1.data, c.pw1.data)

    def test_channel_counts(self):
        enc = ToyEncoder.seeded(channels=12)
        assert enc.pw1.shape[0] == 12
        assert ToyEncoder.seeded().pw1.shape[0] == EMBEDDING_DIM

    def test_forward_shape_and_range(self):
        enc = ToyEncoder.seeded(seed=0, channels=8)
        rng = np.random.default_rng(0)
        from geoalign.autodiff import Tensor

        out = enc.forward(Tensor(rng.normal(size=(1, 3, 8, 8))))
        assert out.shape == (1, 8, 8, 8)
        assert np.min(out.data) > 0.0 and np.max(out.data) < 1.0


class TestPreprocessing:
    def test_standardize_stack_centers_each_channel(self):
        rng = np.random.default_rng(1)
        stack = rng.normal(3.0, 5.0, size=(1, 3, 8, 8))
        out = standardize_stack(stack)
        assert np.max(np.abs(out.mean(axis=(0, 2, 3)))) < 1e-12
        assert np.max(np.abs(out.std(axis=(0, 2, 3)) - 1.0)) < 1e-6

    def test_detrend_keeps_level_maps(self):
        depth = DepthMap(np.full((16, 16), 40.0))
        out = detrend_depth(depth)
        assert np.max(np.abs(out.values - 40.0)) < 1e-9

    def test_detrend_flattens_pure_planes_keeping_the_constant(self):
        cols, rows = np.meshgrid(np.arange(16.0), np.arange(16.0))
        depth = DepthMap(40.0 + 0.5 * cols - 0.25 * rows)
        out = detrend_depth(depth)
        assert np.max(np.abs(out.values - 40.0)) < 1e-9

    def test_detrend_preserves_structure_on_top_of_a_plane(self):
        rng = np.random.default_rng(2)
        structure = rng.normal(size=(16, 16))
        cols, rows = np.meshgrid(np.arange(16.0), np.arange(16.0))
        plane = 40.0 + 0.07 * cols - 0.04 * rows
        with_plane = detrend_depth(DepthMap(structure + plane)).values
        without = detrend_depth(DepthMap(structure + 40.0)).values
        diff = with_plane - without
        assert np.ptp(diff) < 1e-9  # differs only by a constant

    @pytest.mark.parametrize("shape", [(3, 5), (17, 64), (64, 64)])
    def test_detrend_matches_least_squares_plane(self, shape):
        h, w = shape
        rng = np.random.default_rng(h * w)
        cols, rows = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))
        values = 40.0 + 0.3 * cols - 0.8 * rows + rng.normal(0.0, 3.0, shape)
        basis = np.column_stack([cols.ravel(), rows.ravel(), np.ones(h * w)])
        coef, *_ = np.linalg.lstsq(basis, values.ravel(), rcond=None)
        want = values - coef[0] * cols - coef[1] * rows
        assert np.max(np.abs(detrend_depth(DepthMap(values)).values - want)) < 1e-9


class TestEmbed:
    def test_unit_norm_for_every_arm(self):
        depth = scene_depth(0)
        enc = ToyEncoder.seeded(channels=16)
        for arm in ARMS:
            fusion, masked = arm_inputs(arm, 16)
            e = embed_arm(depth, enc, fusion=fusion, masked=masked).data
            assert e.shape == (16,)
            assert abs(np.linalg.norm(e) - 1.0) < 1e-12

    def test_deterministic(self):
        depth = scene_depth(1)
        enc = ToyEncoder.seeded(channels=8)
        a = embed_arm(depth, enc, masked=True).data
        b = embed_arm(depth, enc, masked=True).data
        assert np.array_equal(a, b)

    def test_different_scenes_embed_differently(self):
        enc = ToyEncoder.seeded(channels=16)
        a = embed_arm(scene_depth(0), enc).data
        b = embed_arm(scene_depth(1), enc).data
        assert not np.allclose(a, b)

    def test_mask_raises_same_scene_cross_view_similarity_on_average(self):
        enc = ToyEncoder.seeded(seed=0)
        gains = []
        for seed in range(50):
            spec = facade_heavy_spec(seed)
            ortho = render_ortho(spec)[0]
            oblique = render_oblique(spec)[0]
            plain = float(embed_arm(ortho, enc).data @ embed_arm(oblique, enc).data)
            masked = float(embed_arm(ortho, enc, masked=True).data
                           @ embed_arm(oblique, enc, masked=True).data)
            gains.append(masked - plain)
        assert float(np.mean(gains)) >= 0.0

    def test_shared_arms_are_byte_equal_to_each_arm_alone(self):
        enc = ToyEncoder.seeded(seed=1, channels=16)
        fusion = FusionParams.smoothing(16, seed=1)
        parts = [(False, False), (True, False), (False, True), (True, True)]  # ARMS order
        for seed in range(3):
            spec = facade_heavy_spec(seed)
            for depth in (render_ortho(spec)[0], render_oblique(spec)[0]):
                shared = embed_alone(depth, enc, parts, fusion)
                for arm, e in zip(ARMS, shared):
                    f, m = arm_inputs(arm, 16, seed=1)
                    alone = embed_arm(depth, enc, fusion=f, masked=m).data.tobytes()
                    assert e.data.tobytes() == alone, arm
                    assert embed_one_arm(depth, enc, f, m).data.tobytes() == alone, arm

    def test_arm_filter_config_uses_single_dilation_wide_edge_band(self):
        assert ARM_FILTER_CONFIG.gradient_dilation == 1
        assert ARM_FILTER_CONFIG.edge_quantile == 0.25


class TestRankingMetrics:
    def test_self_retrieval_ranks_first(self):
        rng = np.random.default_rng(3)
        gallery = rng.normal(size=(5, 8))
        gallery /= np.linalg.norm(gallery, axis=1, keepdims=True)
        for i in range(5):
            order = rank_gallery(gallery[i], gallery)
            assert order[0] == i
            assert true_rank(order, i) == 1

    def test_similarity_ties_break_toward_lower_index(self):
        s = np.sqrt(0.19)
        gallery = np.array([[0.9, s], [0.9, -s], [0.1, np.sqrt(0.99)]])
        order = rank_gallery(np.array([1.0, 0.0]), gallery)
        assert order.tolist() == [0, 1, 2]

    def test_recall_hand_values(self):
        ranks = [1, 2, 5]
        assert recall_at_k(ranks, 1) == pytest.approx(1.0 / 3.0)
        assert recall_at_k(ranks, 2) == pytest.approx(2.0 / 3.0)
        assert recall_at_k(ranks, 4) == pytest.approx(2.0 / 3.0)
        assert recall_at_k(ranks, 5) == 1.0

    def test_recall_is_monotone_in_k(self):
        rng = np.random.default_rng(4)
        ranks = rng.integers(1, 20, size=30)
        values = [recall_at_k(ranks, k) for k in range(1, 21)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] == 1.0

    def test_average_precision_hand_values(self):
        assert mean_average_precision([1]) == 1.0
        assert mean_average_precision([2]) == 0.5
        assert mean_average_precision([1, 2, 4]) == pytest.approx(0.5833333333)

    def test_average_precision_is_one_only_for_perfect_ranking(self):
        assert mean_average_precision([1, 1, 1]) == 1.0
        assert mean_average_precision([1, 1, 2]) < 1.0

    def test_empty_ranks_rejected(self):
        with pytest.raises(ValueError, match="no ranks"):
            recall_at_k([], 1)
        with pytest.raises(ValueError, match="no ranks"):
            mean_average_precision([])


class TestArmComponents:
    def test_component_wiring(self):
        # (uses scale fusion, uses the geometric mask) for each arm
        assert [retrieval._arm_parts(arm) for arm in ARMS] == [
            (False, False), (True, False), (False, True), (True, True)]

    def test_unknown_arm_rejected(self):
        with pytest.raises(ValueError, match="unknown arm 'extra'"):
            run_experiment(arms=("extra",))


class TestRunExperiment:
    def test_overflow_raises_under_the_float_policy(self):
        # A ground plane at 1e306 overflows the feature stack's variance.
        before = np.geterr()
        with pytest.raises(FloatingPointError, match="overflow"):
            run_experiment(n_scenes=2, spec_fn=lambda s: dataclasses.replace(
                facade_heavy_spec(s), ground_depth=1e306))
        assert np.geterr() == before

    def test_same_seed_reproduces_reports_exactly(self):
        a = run_experiment(n_scenes=4, seed=2)
        b = run_experiment(n_scenes=4, seed=2)
        assert a == b
        assert set(a) == set(ARMS)

    def test_report_shape_and_rank_bounds(self):
        reports = run_experiment(n_scenes=4, seed=0, arms=("base",))
        report = reports["base"]
        assert isinstance(report, RetrievalReport)
        assert report.n_queries == 4
        assert len(report.ranks) == 4
        assert all(1 <= r <= 4 for r in report.ranks)
        assert recall_at_k(report.ranks, 4) == 1.0

    def test_trivially_separable_pair_is_solved_by_every_arm(self):
        seeds = np.random.default_rng(0).integers(0, 2**31 - 1, size=2)
        first = int(seeds[0])
        reports = run_experiment(
            n_scenes=2, seed=0,
            spec_fn=lambda s: EASY_A if s == first else EASY_B)
        for arm, report in reports.items():
            assert report.recall_at_1 == 1.0, arm
            assert report.mean_ap == 1.0, arm

    def test_rejects_empty_experiment(self):
        with pytest.raises(ValueError, match="at least one scene"):
            run_experiment(n_scenes=0)

    def test_unknown_arm_rejected_before_any_scene_is_built(self):
        built = []

        def counting_spec(seed):
            built.append(seed)
            return facade_heavy_spec(seed)

        for arms, message in ((("base", "extra"), "unknown arm 'extra'"),
                              ((), "at least one arm")):
            with pytest.raises(ValueError, match=message):
                run_experiment(n_scenes=3, arms=arms, spec_fn=counting_spec)
            assert built == []

    def test_each_arm_alone_reproduces_the_all_arm_report(self):
        every = run_experiment(n_scenes=4, seed=2)
        for arm in ARMS:
            assert run_experiment(n_scenes=4, seed=2, arms=(arm,))[arm] == every[arm]

    @pytest.mark.parametrize("arms", [ARMS, ("base",), ("base", "mgsa"), ("mgsa",),
                                      ("mgsf",), ("full",), ("mgsf", "full")])
    def test_shared_work_runs_once_per_depth_map(self, monkeypatch, arms):
        # Per map: embed, the encoder and the fusion, and one modulation per
        # masked arm. Per view, over the stack of its maps: the depth-side
        # pass (detrend, feature stack, standardization), the scale weights
        # when an arm is fused and the mask and its geometry when an arm is
        # masked, and none of them otherwise.
        calls = dict.fromkeys(("embed", "forward", "fuse", "modulate", "detrend", "features",
                               "standardize", "weights", "mask", "geometry"), 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(ToyEncoder, "forward", counted("forward", ToyEncoder.forward))
        for name, attr in (("embed", "embed"), ("fuse", "fuse"), ("modulate", "modulate"),
                           ("detrend", "detrend_depth"), ("features", "depth_feature_stack"),
                           ("standardize", "standardize_stack"), ("weights", "scale_weights"),
                           ("mask", "structure_mask")):
            monkeypatch.setattr(retrieval, attr, counted(name, getattr(retrieval, attr)))
        monkeypatch.setattr(structure_filter, "dominant_normal",
                            counted("geometry", structure_filter.dominant_normal))
        n = 3
        run_experiment(n_scenes=n, seed=1, arms=arms)
        fused = bool({"mgsa", "full"} & set(arms))
        masked = bool({"mgsf", "full"} & set(arms))
        assert calls == {
            "embed": 2 * n, "forward": 2 * n, "fuse": 2 * n if fused else 0,
            "modulate": 2 * n * len({"mgsf", "full"} & set(arms)),
            "detrend": 2, "features": 2, "standardize": 2, "weights": 2 if fused else 0,
            "mask": 2 if masked else 0, "geometry": 2 if masked else 0}

    def test_depth_side_of_a_stack_gives_each_map_its_own_bytes(self):
        enc = ToyEncoder.seeded(seed=2, channels=8)
        fusion = FusionParams.smoothing(8, seed=2)
        parts = [retrieval._arm_parts(arm) for arm in ARMS]
        maps = [render(facade_heavy_spec(seed))[0]
                for seed in range(3) for render in (render_ortho, render_oblique)]
        stack = DepthMap(np.stack([depth.values for depth in maps]))
        detrended = detrend_depth(stack)
        features = standardize_stack(depth_feature_stack(detrended, *FEATURE_GRID))
        weights = scale_weights(Tensor(features), fusion).data
        side = retrieval.depth_side(stack, parts, fusion)
        assert side.features.tobytes() == features.tobytes()
        assert side.weights.tobytes() == weights.tobytes()
        for i, depth in enumerate(maps):
            alone = detrend_depth(depth)
            assert detrended.values[i].tobytes() == alone.values.tobytes()
            alone_features = standardize_stack(depth_feature_stack(alone, *FEATURE_GRID))
            assert features[i:i + 1].tobytes() == alone_features.tobytes()
            assert (weights[i:i + 1].tobytes()
                    == scale_weights(Tensor(alone_features), fusion).data.tobytes())
            mask = structure_mask(depth, *FEATURE_GRID, ARM_FILTER_CONFIG)
            assert side.mask.values[i].tobytes() == mask.values.tobytes()
            for got, want in zip(embed(side, enc, parts, fusion, i),
                                 embed_alone(depth, enc, parts, fusion)):
                assert got.data.tobytes() == want.data.tobytes()
