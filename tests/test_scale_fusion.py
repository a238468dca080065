"""Depth-guided multi-scale fusion: branch construction, weight prediction,
and the residual blend."""

import dataclasses
from dataclasses import replace

import numpy as np
import pytest

from geoalign.autodiff import Tape, Tensor, mul, sum_all
from geoalign.scale_fusion import (
    DEPTH_CHANNELS,
    MID_DILATION,
    FusionParams,
    depth_feature_stack,
    fuse,
    scale_branches,
    scale_weights,
)
from geoalign.structure_filter import SOBEL_X, DepthMap, align_depth, macro_gradient
from identity_params import delta_stencils, identity_fusion


def random_depth(seed, shape=(32, 32)):
    rng = np.random.default_rng(seed)
    return DepthMap(40.0 + rng.normal(size=shape))


def random_stack(seed, h=8, w=8):
    return Tensor(depth_feature_stack(random_depth(seed), h, w))


class TestFusionParams:
    def test_identity_uses_delta_stencils_and_zero_head(self):
        params = identity_fusion(4)
        assert np.array_equal(params.mid_kernel, delta_stencils(3, 4))
        assert np.array_equal(params.far_kernel, delta_stencils(3, 4))
        assert np.array_equal(params.head_weights, np.zeros((3, 3)))
        assert np.array_equal(params.head_bias, np.zeros(3))

    def test_smoothing_kernels_are_normalized_center_heavy(self):
        params = FusionParams.smoothing(channels=4, seed=0)
        for kernel in (params.mid_kernel, params.far_kernel):
            w = kernel.data
            assert w.shape == (4, 3, 3)
            assert np.max(np.abs(w.sum(axis=(1, 2)) - 1.0)) < 1e-12
            assert np.all(w[:, 1, 1] > w[:, 0, 0])

    def test_smoothing_head_is_seeded(self):
        a = FusionParams.smoothing(4, seed=3).head_weights.data
        b = FusionParams.smoothing(4, seed=3).head_weights.data
        c = FusionParams.smoothing(4, seed=4).head_weights.data
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_smoothing_head_is_a_small_normal_draw_and_a_zero_bias(self):
        params = FusionParams.smoothing(4, seed=9)
        want = np.random.default_rng(9).normal(0.0, 0.1, (3, DEPTH_CHANNELS))
        assert params.head_weights.data.tobytes() == want.tobytes()
        assert params.head_bias.data.tobytes() == np.zeros(3).tobytes()

    def test_fusion_params_are_frozen(self):
        # As with GateParams: a change goes through ``replace``, so a shared
        # instance cannot be altered under another caller.
        params = identity_fusion(4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            params.head_bias = np.ones(3)


class TestScaleBranches:
    def test_delta_kernels_reproduce_input_on_every_branch(self):
        rng = np.random.default_rng(1)
        f = Tensor(rng.normal(size=(2, 4, 8, 8)))
        mid, far = scale_branches(f, identity_fusion(4))
        assert np.array_equal(mid.data, f.data)
        assert np.array_equal(far.data, f.data)

    def test_zero_sum_kernel_zeroes_constant_features(self):
        f = Tensor(np.full((1, 2, 8, 8), 5.0))
        stencil = np.zeros((2, 3, 3))
        stencil[:, 1] = [1.0, 2.0, -3.0]
        params = replace(identity_fusion(2), mid_kernel=stencil)
        mid, _ = scale_branches(f, params)
        assert np.array_equal(mid.data, np.zeros_like(f.data))

    def test_scaled_sobel_recovers_ramp_slope_in_interior(self):
        slope = 0.75
        cols = np.arange(12, dtype=np.float64)
        f = Tensor(np.tile(slope * cols, (1, 2, 12, 1)).reshape(1, 2, 12, 12))
        stencil = np.tile(SOBEL_X / (8.0 * MID_DILATION), (2, 1, 1))
        params = replace(identity_fusion(2), mid_kernel=stencil)
        interior = scale_branches(f, params)[0].data[:, :, :, 2:-2]
        assert np.max(np.abs(interior - slope)) < 1e-12

    @pytest.mark.parametrize("branch, dilation", [(0, 2), (1, 4)])
    def test_branches_are_dilation_2_and_4_correlations(self, branch, dilation):
        # Hand-built depthwise correlation: tap (u, v) reads the pixel
        # (u - 1) * dilation rows and (v - 1) * dilation columns away,
        # clamped to the border.
        rng = np.random.default_rng(11)
        features = rng.normal(size=(2, 3, 11, 13))
        params = replace(identity_fusion(3), mid_kernel=rng.normal(size=(3, 3, 3)),
                         far_kernel=rng.normal(size=(3, 3, 3)))
        stencils = (params.mid_kernel, params.far_kernel)[branch]
        want = np.zeros_like(features)
        for u in range(3):
            rows = np.clip(np.arange(11) + (u - 1) * dilation, 0, 10)
            for v in range(3):
                cols = np.clip(np.arange(13) + (v - 1) * dilation, 0, 12)
                want += stencils[:, u, v, None, None] * features[:, :, rows][:, :, :, cols]
        got = scale_branches(Tensor(features), params)[branch].data
        assert np.max(np.abs(got - want)) < 1e-12


class TestScaleWeights:
    def test_zero_head_predicts_uniform_thirds(self):
        w = scale_weights(random_stack(0), identity_fusion(4))
        assert w.shape == (1, 3, 1, 8, 8)
        assert np.array_equal(w.data, np.full((1, 3, 1, 8, 8), 1.0 / 3.0))

    def test_bias_only_head_matches_softmax_of_bias(self):
        params = replace(identity_fusion(4), head_bias=np.array([10.0, 0.0, -10.0]))
        w = scale_weights(random_stack(1), params).data
        z = np.exp([0.0, -10.0, -20.0])
        want = z / z.sum()
        for s in range(3):
            assert np.max(np.abs(w[0, s] - want[s])) < 1e-15
        assert abs(want[0] - 0.9999546) < 1e-7
        assert abs(want[1] - 4.53979e-05) < 1e-9
        assert abs(want[2] - 2.0611e-09) < 1e-12

    def test_constant_depth_shift_leaves_weights_unchanged(self):
        params = FusionParams.smoothing(4, seed=2)
        depth = random_depth(7)
        base = scale_weights(
            Tensor(depth_feature_stack(depth, 8, 8)), params).data
        shifted = scale_weights(
            Tensor(depth_feature_stack(DepthMap(depth.values + 123.0), 8, 8)),
            params).data
        assert np.max(np.abs(base - shifted)) < 1e-9

    def test_centering_is_a_spatial_mean_per_channel(self):
        # A per-channel constant is centered away; an offset that varies
        # along the rows, or along the columns, is not.
        params = FusionParams.smoothing(4, seed=5)
        stack = random_stack(5).data
        rng = np.random.default_rng(5)
        base = scale_weights(Tensor(stack), params).data

        def shifted(shape):
            return scale_weights(Tensor(stack + rng.normal(0.0, 5.0, shape)), params).data

        assert np.max(np.abs(shifted((1, 3, 1, 1)) - base)) < 1e-9
        assert np.max(np.abs(shifted((1, 3, 8, 1)) - base)) > 1e-3
        assert np.max(np.abs(shifted((1, 3, 1, 8)) - base)) > 1e-3

    def test_weights_are_convex_coefficients(self):
        for seed in range(10):
            params = FusionParams.smoothing(4, seed=seed)
            w = scale_weights(random_stack(seed), params).data
            assert np.min(w) >= 0.0 and np.max(w) <= 1.0
            assert np.max(np.abs(w.sum(axis=1) - 1.0)) < 1e-12

    def test_validation(self):
        two_rows = replace(identity_fusion(4), head_weights=np.zeros((2, 3)),
                           head_bias=np.zeros(2))
        with pytest.raises(ValueError, match="cannot reshape"):
            scale_weights(random_stack(0), two_rows)


class TestFuse:
    def test_one_hot_near_weight_doubles_features(self):
        rng = np.random.default_rng(2)
        f = Tensor(rng.normal(size=(1, 4, 8, 8)))
        params = replace(identity_fusion(4), head_bias=np.array([1000.0, 0.0, 0.0]))
        weights = scale_weights(random_stack(2), params)
        assert np.array_equal(weights.data[0, 0], np.ones((1, 8, 8)))
        fused = fuse(f, scale_branches(f, params), weights)
        assert np.array_equal(fused.data, 2.0 * f.data)

    def test_identity_params_double_features_for_any_depth(self):
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            f = Tensor(rng.normal(size=(1, 4, 8, 8)))
            params = identity_fusion(4)
            fused = fuse(f, scale_branches(f, params),
                         scale_weights(random_stack(seed), params))
            assert np.max(np.abs(fused.data - 2.0 * f.data)) < 1e-12

    def test_uniform_weights_blend_single_live_branch_at_one_third(self):
        rng = np.random.default_rng(3)
        f = Tensor(rng.normal(size=(1, 4, 8, 8)))
        zeros = Tensor(np.zeros_like(f.data))
        weights = scale_weights(random_stack(3), identity_fusion(4))
        fused = fuse(f, (zeros, zeros), weights)
        assert np.max(np.abs(fused.data - (f.data + f.data / 3.0))) < 1e-12

    def test_zero_branches_under_zero_near_weight_return_features_bit_for_bit(self):
        rng = np.random.default_rng(4)
        f = Tensor(rng.normal(size=(1, 4, 8, 8)))
        zeros = Tensor(np.zeros_like(f.data))
        params = replace(identity_fusion(4), head_bias=np.array([-1000.0, 0.0, 0.0]))
        weights = scale_weights(random_stack(4), params)
        assert np.array_equal(weights.data[0, 0], np.zeros((1, 8, 8)))
        fused = fuse(f, (zeros, zeros), weights)
        assert np.array_equal(fused.data, f.data)

    def test_blend_stays_in_branch_convex_hull(self):
        for seed in range(10):
            rng = np.random.default_rng(200 + seed)
            f = Tensor(rng.normal(size=(1, 4, 8, 8)))
            params = FusionParams.smoothing(4, seed=seed)
            branches = scale_branches(f, params)
            weights = scale_weights(random_stack(seed), params)
            fused = fuse(f, branches, weights)
            stacked = np.stack([b.data for b in (f, *branches)])
            blend = fused.data - f.data
            assert np.all(blend >= stacked.min(axis=0) - 1e-9)
            assert np.all(blend <= stacked.max(axis=0) + 1e-9)

    def test_output_shape_matches_input(self):
        rng = np.random.default_rng(5)
        f = Tensor(rng.normal(size=(2, 4, 8, 8)))
        params = FusionParams.smoothing(4)
        stack = Tensor(np.concatenate(
            [depth_feature_stack(random_depth(s), 8, 8) for s in (0, 1)]))
        fused = fuse(f, scale_branches(f, params), scale_weights(stack, params))
        assert fused.shape == f.shape

    def test_gradient_reaches_head_and_kernels(self):
        tape = Tape()
        rng = np.random.default_rng(6)
        kernel = np.full((2, 3, 3), 0.4 / 9.0)
        kernel[:, 1, 1] += 0.6
        params = FusionParams(
            mid_kernel=tape.leaf(kernel),
            far_kernel=tape.leaf(kernel.copy()),
            head_weights=tape.leaf(rng.normal(0, 0.1, (3, 3))),
            head_bias=tape.leaf(np.zeros(3)),
        )
        f = Tensor(rng.normal(size=(1, 2, 8, 8)))
        fused = fuse(f, scale_branches(f, params),
                     scale_weights(random_stack(6), params))
        tape.backward(sum_all(mul(fused, fused)))
        assert params.head_weights.grad is not None
        assert np.any(params.head_weights.grad != 0.0)
        assert params.head_bias.grad is not None
        assert params.mid_kernel.grad is not None
        assert np.any(params.mid_kernel.grad != 0.0)


class TestDepthFeatureStack:
    def test_channel_semantics(self):
        depth = random_depth(8, (32, 24))
        stack = depth_feature_stack(depth, 8, 6)
        assert stack.shape == (1, 3, 8, 6)
        pooled = align_depth(depth, 8, 6)
        assert np.array_equal(stack[0, 0], pooled.values)
        gx, gy = macro_gradient(pooled, 2)
        assert np.array_equal(stack[0, 1], np.hypot(gx, gy))
        rows = (np.arange(8) * 32) // 8
        cols = (np.arange(6) * 24) // 6
        assert np.array_equal(stack[0, 2], depth.values[rows][:, cols])

    def test_native_resolution_keeps_depth_unchanged(self):
        depth = random_depth(9, (16, 16))
        stack = depth_feature_stack(depth, 16, 16)
        assert np.array_equal(stack[0, 0], depth.values)
        assert np.array_equal(stack[0, 2], depth.values)
