"""Tensor/tape numeric core: hand-computed cases, algebraic identities, and
central finite-difference agreement for every differentiable op."""

import math
import re
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoalign.autodiff import (
    Kernel2D,
    Tape,
    Tensor,
    absolute,
    adaptive_avg_pool,
    add,
    channel_project,
    conv2d,
    float_policy,
    l2_normalize,
    log1p_exp,
    masked_fill,
    masked_mean,
    mean_over_axis,
    mul,
    relu,
    reshape,
    select_index,
    sigmoid,
    softmax_over_axis,
    sum_all,
)
from identity_params import delta_kernel


def fd_gradients(build_loss, arrays, eps=1e-6):
    """Central-difference gradient of ``build_loss`` w.r.t. each array."""
    grads = []
    for idx, base in enumerate(arrays):
        num = np.zeros_like(base, dtype=np.float64)
        for j in range(base.size):
            hi = [a.copy() for a in arrays]
            hi[idx].reshape(-1)[j] += eps
            lo = [a.copy() for a in arrays]
            lo[idx].reshape(-1)[j] -= eps
            up = build_loss(*[Tensor(a) for a in hi]).item()
            dn = build_loss(*[Tensor(a) for a in lo]).item()
            num.reshape(-1)[j] = (up - dn) / (2.0 * eps)
        grads.append(num)
    return grads


def assert_matches_fd(build_loss, arrays, tol=1e-4):
    """Backward-pass gradients must match central differences for every leaf."""
    tape = Tape()
    leaves = [tape.leaf(a.copy()) for a in arrays]
    tape.backward(build_loss(*leaves))
    numeric = fd_gradients(build_loss, arrays)
    for pos, (leaf, num) in enumerate(zip(leaves, numeric)):
        assert leaf.grad is not None, f"argument {pos} received no gradient"
        scale = np.maximum(np.maximum(np.abs(leaf.grad), np.abs(num)), 1e-3)
        err = np.max(np.abs(leaf.grad - num) / scale)
        assert err < tol, f"argument {pos}: max relative error {err}"


class TestTensorBasics:
    def test_wraps_data_as_float64(self):
        t = Tensor([[1, 2], [3, 4]])
        assert t.data.dtype == np.float64
        assert t.shape == (2, 2)

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError, match="finite"):
            Tensor([1.0, float("nan")])
        with pytest.raises(ValueError, match="finite"):
            Tensor([float("inf")])

    def test_requires_grad_needs_a_tape(self):
        assert Tensor([1.0]).tape is None
        tape = Tape()
        leaf = tape.leaf([1.0])
        assert leaf.tape is tape
        tracked, constant = mul(leaf, 2.0), mul(Tensor([1.0]), 2.0)
        assert tracked.tape is tape and len(tape) == 1
        assert constant.tape is None

    def test_item_demands_single_element(self):
        assert Tensor(3.5).item() == 3.5
        with pytest.raises(ValueError, match="one-element"):
            Tensor([1.0, 2.0]).item()


class TestBackwardMechanics:
    def test_sum_of_squares_gradient(self):
        tape = Tape()
        x = tape.leaf([1.0, 2.0, 3.0])
        tape.backward(sum_all(mul(x, x)))
        assert np.array_equal(x.grad, [2.0, 4.0, 6.0])

    def test_gradient_accumulates_across_reuse(self):
        tape = Tape()
        x = tape.leaf([2.0])
        # x appears in two terms: d/dx (x*x + 3x) = 2x + 3 = 7
        tape.backward(add(sum_all(mul(x, x)), sum_all(mul(x, 3.0))))
        assert np.array_equal(x.grad, [7.0])

    def test_second_backward_overwrites_gradients(self):
        tape = Tape()
        x = tape.leaf([1.0, 2.0])
        loss = sum_all(mul(x, x))
        tape.backward(loss)
        first = x.grad.copy()
        tape.backward(loss)
        assert np.array_equal(x.grad, first)

    def test_backward_rejects_non_scalar_loss(self):
        tape = Tape()
        x = tape.leaf([1.0, 2.0])
        with pytest.raises(ValueError, match="scalar"):
            tape.backward(mul(x, 2.0))

    def test_broadcast_add_sums_gradient_over_expanded_axes(self):
        tape = Tape()
        row = tape.leaf([1.0, 2.0, 3.0])
        full = tape.leaf(np.ones((2, 3)))
        tape.backward(sum_all(add(full, row)))
        assert np.array_equal(row.grad, [2.0, 2.0, 2.0])
        assert np.array_equal(full.grad, np.ones((2, 3)))


class TestConvHandCases:
    def test_dilated_difference_on_ramp(self):
        # Row [0,1,2,3,4] under the middle-row stencil [1,0,-1] at dilation 2
        # reads x[i-2] - x[i+2]; the center sample is 0 - 4 = -4, and the
        # clamp-to-edge border yields the symmetric [-2,-3,-4,-3,-2].
        x = Tensor(np.arange(5.0).reshape(1, 1, 1, 5))
        stencil = np.zeros((1, 3, 3))
        stencil[0, 1] = [1.0, 0.0, -1.0]
        out = conv2d(x, Kernel2D(stencil, dilation=2))
        assert out.data[0, 0, 0, 2] == -4.0
        assert np.array_equal(out.data[0, 0, 0], [-2.0, -3.0, -4.0, -3.0, -2.0])

    @pytest.mark.parametrize("dilation", [1, 2, 3])
    def test_delta_kernel_is_identity_at_any_dilation(self, dilation):
        rng = np.random.default_rng(7 + dilation)
        x = Tensor(rng.normal(size=(2, 3, 6, 5)))
        one_channel = Tensor(x.data[:, :1])
        single = conv2d(one_channel, delta_kernel(dilation=dilation))
        depthwise = conv2d(x, delta_kernel(channels=3, dilation=dilation))
        assert np.array_equal(single.data, one_channel.data)
        assert np.array_equal(depthwise.data, x.data)

    def test_zero_sum_kernel_annihilates_constants_everywhere(self):
        x = Tensor(np.full((1, 2, 5, 7), 3.0))
        stencil = [[1.0, 2.0, -3.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        kernel = Kernel2D(np.tile(stencil, (2, 1, 1)), dilation=2)
        out = conv2d(x, kernel)
        assert np.array_equal(out.data, np.zeros_like(x.data))

    def test_convolution_is_linear(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(1, 2, 6, 6))
        y = rng.normal(size=(1, 2, 6, 6))
        kernel = Kernel2D(np.tile(rng.normal(size=(3, 3)), (2, 1, 1)), dilation=2)
        a, b = 2.5, -1.25
        combined = conv2d(Tensor(a * x + b * y), kernel).data
        separate = a * conv2d(Tensor(x), kernel).data + \
            b * conv2d(Tensor(y), kernel).data
        assert np.max(np.abs(combined - separate)) < 1e-10

    def test_replicate_padding_clamps_borders(self):
        # A pure right-shift stencil reads x[i-1]; at the left border it must
        # re-read the edge column instead of wrapping or zero-filling.
        shift = np.zeros((1, 3, 3))
        shift[0, 1, 0] = 1.0
        x = Tensor(np.arange(4.0).reshape(1, 1, 1, 4))
        out = conv2d(x, Kernel2D(shift))
        assert np.array_equal(out.data[0, 0, 0], [0.0, 0.0, 1.0, 2.0])

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="4-d"):
            conv2d(Tensor(np.zeros((3, 3))), delta_kernel())

    def test_depthwise_channel_mismatch_names_both_shapes(self):
        kernel = delta_kernel(channels=2)
        with pytest.raises(ValueError, match=r"2 channel stencils.*3 channels"):
            conv2d(Tensor(np.zeros((1, 3, 4, 4))), kernel)


class TestKernel2D:
    def test_validation(self):
        with pytest.raises(ValueError, match="odd"):
            Kernel2D(np.zeros((1, 2, 2)))
        with pytest.raises(ValueError, match="square"):
            Kernel2D(np.zeros((1, 3, 5)))
        with pytest.raises(ValueError, match="3-d"):
            Kernel2D(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="3-d"):
            Kernel2D(np.zeros((1, 2, 3, 3)))
        with pytest.raises(ValueError, match="dilation"):
            Kernel2D(np.zeros((1, 3, 3)), dilation=0)


class TestAdaptivePool:
    def test_even_blocks_average_to_block_means(self):
        blocks = np.zeros((1, 1, 4, 4))
        blocks[0, 0, :2, :2] = 1.0
        blocks[0, 0, :2, 2:] = 2.0
        blocks[0, 0, 2:, :2] = 3.0
        blocks[0, 0, 2:, 2:] = 4.0
        out = adaptive_avg_pool(Tensor(blocks), 2, 2)
        assert np.array_equal(out.data[0, 0], [[1.0, 2.0], [3.0, 4.0]])

    def test_identity_at_own_size(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 4, 5))
        out = adaptive_avg_pool(Tensor(x), 4, 5)
        assert np.array_equal(out.data, x)

    def test_rejects_uneven_blocks(self):
        x = Tensor(np.arange(1.0, 10.0).reshape(1, 1, 3, 3))
        with pytest.raises(ValueError, match=re.escape("whole blocks: (3, 3) -> (2, 2)")):
            adaptive_avg_pool(x, 2, 2)

    def test_pool_to_single_cell_is_global_mean(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 3, 7, 9))
        out = adaptive_avg_pool(Tensor(x), 1, 1)
        want = x.mean(axis=(2, 3), keepdims=True)
        assert np.max(np.abs(out.data - want)) < 1e-12

    def test_rejects_upsampling_and_bad_sizes(self):
        x = Tensor(np.zeros((1, 1, 4, 4)))
        with pytest.raises(ValueError, match=re.escape("whole blocks: (4, 4) -> (8, 4)")):
            adaptive_avg_pool(x, 8, 4)
        with pytest.raises(ValueError, match=re.escape("whole blocks: (4, 4) -> (0, 4)")):
            adaptive_avg_pool(x, 0, 4)
        with pytest.raises(ValueError, match=re.escape("whole blocks: (4, 4) -> (4, 0)")):
            adaptive_avg_pool(x, 4, 0)
        with pytest.raises(ValueError, match=re.escape("whole blocks: (4, 4) -> (-2, 4)")):
            adaptive_avg_pool(x, -2, 4)
        with pytest.raises(ValueError, match="4-d"):
            adaptive_avg_pool(Tensor(np.zeros((4, 4))), 2, 2)


class TestSoftmax:
    def test_uniform_logits_give_uniform_weights(self):
        out = softmax_over_axis(Tensor([[0.0, 0.0, 0.0]]), axis=1)
        assert np.max(np.abs(out.data - 1.0 / 3.0)) < 1e-15

    def test_large_logits_do_not_overflow(self):
        out = softmax_over_axis(Tensor([[1000.0, 1000.0, 1000.0]]), axis=1)
        assert np.all(np.isfinite(out.data))
        assert np.max(np.abs(out.data - 1.0 / 3.0)) < 1e-15

    def test_log_weights_recover_probabilities(self):
        logits = np.log(np.array([[1.0, 2.0, 7.0]]))
        out = softmax_over_axis(Tensor(logits), axis=1)
        assert np.max(np.abs(out.data - [[0.1, 0.2, 0.7]])) < 1e-12

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(9)
        out = softmax_over_axis(Tensor(rng.normal(size=(4, 6)) * 30), axis=1)
        assert np.max(np.abs(out.data.sum(axis=1) - 1.0)) < 1e-12
        assert np.all(out.data > 0.0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(13)
        logits = rng.normal(size=(3, 5))
        base = softmax_over_axis(Tensor(logits), axis=1).data
        shifted = softmax_over_axis(Tensor(logits + 123.456), axis=1).data
        assert np.max(np.abs(base - shifted)) < 1e-12


class TestElementwiseAndReductions:
    def test_relu_and_absolute_hand_values(self):
        x = Tensor([-2.0, 0.0, 3.0])
        assert np.array_equal(relu(x).data, [0.0, 0.0, 3.0])
        assert np.array_equal(absolute(x).data, [2.0, 0.0, 3.0])

    def test_sigmoid_symmetry_and_midpoint(self):
        assert sigmoid(Tensor(0.0)).item() == 0.5
        s = sigmoid(Tensor([2.5, -2.5])).data
        assert abs(s[0] - 1.0 / (1.0 + math.exp(-2.5))) < 1e-15
        assert abs(s[0] + s[1] - 1.0) < 1e-15

    def test_sigmoid_saturates_without_overflow(self):
        s = sigmoid(Tensor([800.0, -800.0])).data
        assert np.all(np.isfinite(s))
        assert s[0] == 1.0 and s[1] == 0.0

    def test_sigmoid_matches_two_branch_logistic_bit_for_bit(self):
        x = np.concatenate([[0.0, -0.0, 745.0, -745.0, 1e300, -1e300],
                            np.random.default_rng(3).normal(0.0, 30.0, 500)])
        z = np.exp(-np.abs(x))
        want = np.where(x >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))
        assert np.array_equal(sigmoid(Tensor(x)).data.view(np.int64), want.view(np.int64))

    def test_log1p_exp_softplus_values(self):
        out = log1p_exp(Tensor([0.0, 100.0, -100.0])).data
        assert abs(out[0] - math.log(2.0)) < 1e-15
        assert abs(out[1] - 100.0) < 1e-12
        assert 0.0 < out[2] < 1e-40

    def test_reductions_hand_values(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert sum_all(x).item() == 10.0
        assert np.array_equal(sum_all(x, axis=-1).data, [3.0, 7.0])
        # One mean per item (row); the mask selects within one item.
        assert np.array_equal(masked_mean(x, np.array([True, True])).data, [1.5, 3.5])
        assert np.array_equal(masked_mean(x, np.array([False, True])).data, [2.0, 4.0])
        one_item = Tensor([[[1.0, 2.0], [3.0, 4.0]]])
        assert masked_mean(one_item, np.array([[True, False], [False, True]])).item() == 2.5
        assert np.array_equal(mean_over_axis(x, axis=0).data, [[2.0, 3.0]])

    def test_masked_mean_rejects_empty_mask(self):
        with pytest.raises(ValueError, match="empty"):
            masked_mean(Tensor([[1.0]]), np.array([False]))

    def test_select_index_drops_axis(self):
        x = Tensor(np.arange(24.0).reshape(2, 3, 4))
        out = select_index(x, axis=1, index=2)
        assert out.shape == (2, 4)
        assert np.array_equal(out.data, x.data[:, 2, :])

    def test_masked_fill_replaces_and_blocks_gradient(self):
        tape = Tape()
        x = tape.leaf([1.0, 2.0, 3.0])
        where = np.array([False, True, False])
        y = masked_fill(x, where, 9.0)
        assert np.array_equal(y.data, [1.0, 9.0, 3.0])
        tape.backward(sum_all(mul(y, y)))
        assert np.array_equal(x.grad, [2.0, 0.0, 6.0])

    def test_reshape_round_trip(self):
        x = Tensor(np.arange(6.0))
        out = reshape(x, (2, 3))
        assert out.shape == (2, 3)
        assert np.array_equal(out.data.reshape(-1), x.data)


def einsum_channel_project(x, w, b, g):
    """Forward, input and weight gradients in ``np.einsum`` form: the
    reference for ``channel_project``'s ``np.matmul`` products."""
    out = np.einsum("oc,bchw->bohw", w, x) + b.reshape(1, -1, 1, 1)
    return out, np.einsum("oc,bohw->bchw", w, g), np.einsum("bohw,bchw->oc", g, x)


class TestChannelProject:
    @pytest.mark.parametrize("batch, c_in, c_out, side", [
        # retrieval, one map: encoder layers 3 -> 64 and 64 -> 64, scale head
        (1, 3, 64, 16), (1, 64, 64, 16), (1, 3, 3, 16),
        # gradcheck's batch of three: encoder layers 3 -> 4 and 4 -> 4, scale head
        (3, 3, 4, 8), (3, 4, 4, 8), (3, 3, 3, 8),
    ])
    def test_matmul_matches_einsum_forms(self, batch, c_in, c_out, side):
        rng = np.random.default_rng([batch, c_in, c_out])
        x = rng.normal(size=(batch, c_in, side, side))
        w = rng.normal(size=(c_out, c_in))
        b = rng.normal(size=c_out)
        g = rng.normal(size=(batch, c_out, side, side))
        tape = Tape()
        xt, wt, bt = tape.leaf(x), tape.leaf(w), tape.leaf(b)
        out = channel_project(xt, wt, bt)
        tape.backward(sum_all(mul(out, g)))
        got = (out.data, xt.grad, wt.grad, bt.grad)
        want = einsum_channel_project(x, w, b, g) + (g.sum(axis=(0, 2, 3)),)
        # Relative to the sum of the absolute terms behind each entry, so an
        # entry whose terms cancel to near zero is held to the same bound.
        size = einsum_channel_project(abs(x), abs(w), abs(b), abs(g)) + \
            (abs(g).sum(axis=(0, 2, 3)),)
        for got_i, want_i, size_i in zip(got, want, size):
            assert np.all(np.abs(got_i - want_i) <= 1e-13 * size_i)

    def test_matches_manual_einsum(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(2, 3, 4, 5))
        w = rng.normal(size=(2, 3))
        b = rng.normal(size=(2,))
        out = channel_project(Tensor(x), Tensor(w), Tensor(b))
        want = np.einsum("oc,bchw->bohw", w, x) + b.reshape(1, 2, 1, 1)
        assert np.max(np.abs(out.data - want)) < 1e-12

    def test_shape_validation(self):
        x = Tensor(np.zeros((1, 3, 2, 2)))
        with pytest.raises(ValueError, match="input channels"):
            channel_project(x, Tensor(np.zeros((2, 4))), Tensor(np.zeros(2)))
        with pytest.raises(ValueError, match="bias"):
            channel_project(x, Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))
        with pytest.raises(ValueError, match="4-d"):
            channel_project(Tensor(np.zeros((3, 2))),
                            Tensor(np.zeros((2, 3))), Tensor(np.zeros(2)))


class TestL2Normalize:
    def test_unit_norm_and_direction(self):
        out = l2_normalize(Tensor([3.0, 4.0]))
        assert np.array_equal(out.data, [0.6, 0.8])
        rows = l2_normalize(Tensor([[3.0, 4.0], [0.0, -2.0]]))
        assert np.array_equal(rows.data, [[0.6, 0.8], [0.0, -1.0]])

    def test_rows_equal_the_one_vector_formula_bitwise(self):
        # The reference is the 1-d form with BLAS dot products; an einsum or
        # a row sum of products differs from it in about a third of rows.
        rng = np.random.default_rng(7)
        x = rng.normal(size=(200, 16))
        g = rng.normal(size=(200, 16))
        tape = Tape()
        leaf = tape.leaf(x)
        out = l2_normalize(leaf)
        tape.backward(sum_all(mul(out, Tensor(g))))
        for row, y_row, grad_row, g_row in zip(x, out.data, leaf.grad, g):
            norm = float(np.sqrt(row @ row))
            y = row / norm
            assert y_row.tobytes() == y.tobytes()
            assert grad_row.tobytes() == ((g_row - y * (y @ g_row)) / norm).tobytes()

    def test_rejects_zero_vector_and_matrices(self):
        with pytest.raises(ValueError, match="zero vector"):
            l2_normalize(Tensor([0.0, 0.0]))
        with pytest.raises(ValueError, match="zero vector"):
            l2_normalize(Tensor([[3.0, 4.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="vector or a matrix of rows"):
            l2_normalize(Tensor(np.ones((2, 2, 2))))


class TestFiniteDifferenceAgreement:
    """Every differentiable op matches central differences across 20 seeds."""

    N_SEEDS = 20

    def seeded(self, op_tag):
        # Stable per-op seed stream so failures name the op and seed.
        base = zlib.crc32(op_tag.encode()) % 10_000
        for seed in range(self.N_SEEDS):
            yield seed, np.random.default_rng(base * 1000 + seed)

    def test_add_and_mul_with_broadcasting(self):
        for _, rng in self.seeded("addmul"):
            x = rng.normal(size=(2, 3))
            y = rng.normal(size=(3,))
            w = rng.normal(size=(2, 3))
            assert_matches_fd(
                lambda xt, yt: sum_all(mul(add(xt, yt), Tensor(w))), [x, y])

    def test_relu_away_from_kink(self):
        for _, rng in self.seeded("relu"):
            x = rng.choice([-1.0, 1.0], size=(3, 3)) * rng.uniform(0.2, 1.0, (3, 3))
            w = rng.normal(size=(3, 3))
            assert_matches_fd(
                lambda xt: sum_all(mul(relu(xt), Tensor(w))), [x])

    def test_absolute_away_from_kink(self):
        for _, rng in self.seeded("abs"):
            x = rng.choice([-1.0, 1.0], size=(3, 3)) * rng.uniform(0.2, 1.0, (3, 3))
            w = rng.normal(size=(3, 3))
            assert_matches_fd(
                lambda xt: sum_all(mul(absolute(xt), Tensor(w))), [x])

    def test_sigmoid(self):
        for _, rng in self.seeded("sigmoid"):
            x = rng.normal(size=(2, 4)) * 2.0
            w = rng.normal(size=(2, 4))
            assert_matches_fd(
                lambda xt: sum_all(mul(sigmoid(xt), Tensor(w))), [x])

    def test_log1p_exp(self):
        for _, rng in self.seeded("softplus"):
            x = rng.normal(size=(5,)) * 3.0
            w = rng.normal(size=(5,))
            assert_matches_fd(
                lambda xt: sum_all(mul(log1p_exp(xt), Tensor(w))), [x])

    def test_reductions(self):
        for _, rng in self.seeded("reduce"):
            x = rng.normal(size=(3, 4))
            mask = rng.random(size=4) > 0.4  # within one item, a row of x
            if not mask.any():
                mask[0] = True
            w = rng.normal(size=3)
            assert_matches_fd(lambda xt: mul(sum_all(xt), 1.37), [x])
            assert_matches_fd(lambda xt: sum_all(mul(sum_all(xt, axis=1), Tensor(w))), [x])
            assert_matches_fd(lambda xt: sum_all(mul(masked_mean(xt, mask), Tensor(w))), [x])

    def test_mean_over_axis_and_select_index(self):
        for _, rng in self.seeded("axis"):
            x = rng.normal(size=(2, 3, 4))
            w = rng.normal(size=(2, 1, 4))
            assert_matches_fd(
                lambda xt: sum_all(mul(mean_over_axis(xt, axis=1), Tensor(w))),
                [x])
            w2 = rng.normal(size=(2, 4))
            assert_matches_fd(
                lambda xt: sum_all(mul(select_index(xt, 1, 1), Tensor(w2))),
                [x])

    def test_reshape_and_masked_fill(self):
        for _, rng in self.seeded("shape"):
            x = rng.normal(size=(6,))
            w = rng.normal(size=(2, 3))
            fill = rng.random(size=(2, 3)) > 0.5
            assert_matches_fd(
                lambda xt: sum_all(
                    mul(masked_fill(reshape(xt, (2, 3)), fill, 5.0), Tensor(w))),
                [x])

    def test_softmax(self):
        for _, rng in self.seeded("softmax"):
            x = rng.normal(size=(2, 4)) * 3.0
            w = rng.normal(size=(2, 4))
            assert_matches_fd(
                lambda xt: sum_all(mul(softmax_over_axis(xt, axis=1), Tensor(w))),
                [x])

    def test_conv2d_shared_kernel_input_and_weights(self):
        # One 3x3 stencil shared by both channels: a (1, 3, 3) leaf broadcast
        # to the (2, 3, 3) depthwise stack, at dilation 2.
        tile = Tensor(np.ones((2, 1, 1)))
        for _, rng in self.seeded("conv"):
            x = rng.normal(size=(1, 2, 4, 4))
            k = rng.normal(size=(1, 3, 3))
            w = rng.normal(size=(1, 2, 4, 4))
            assert_matches_fd(
                lambda xt, kt: sum_all(
                    mul(conv2d(xt, Kernel2D(mul(kt, tile), dilation=2)), Tensor(w))),
                [x, k])

    def test_conv2d_depthwise(self):
        for _, rng in self.seeded("convdw"):
            x = rng.normal(size=(1, 2, 4, 4))
            k = rng.normal(size=(2, 3, 3))
            w = rng.normal(size=(1, 2, 4, 4))
            assert_matches_fd(
                lambda xt, kt: sum_all(
                    mul(conv2d(xt, Kernel2D(kt)), Tensor(w))),
                [x, k])

    def test_channel_project(self):
        for _, rng in self.seeded("proj"):
            x = rng.normal(size=(1, 3, 3, 3))
            w = rng.normal(size=(2, 3))
            b = rng.normal(size=(2,))
            s = rng.normal(size=(1, 2, 3, 3))
            assert_matches_fd(
                lambda xt, wt, bt: sum_all(
                    mul(channel_project(xt, wt, bt), Tensor(s))),
                [x, w, b])

    def test_adaptive_avg_pool(self):
        for _, rng in self.seeded("pool"):
            x = rng.normal(size=(1, 2, 6, 4))
            w = rng.normal(size=(1, 2, 2, 2))
            assert_matches_fd(
                lambda xt: sum_all(mul(adaptive_avg_pool(xt, 2, 2), Tensor(w))),
                [x])

    def test_l2_normalize(self):
        for _, rng in self.seeded("l2n"):
            x = rng.normal(size=(6,)) + np.sign(rng.normal()) * 0.5
            w = rng.normal(size=(6,))
            assert_matches_fd(
                lambda xt: sum_all(mul(l2_normalize(xt), Tensor(w))), [x])
            rows = rng.normal(size=(3, 6)) + np.sign(rng.normal()) * 0.5
            w = rng.normal(size=(3, 6))
            assert_matches_fd(
                lambda xt: sum_all(mul(l2_normalize(xt), Tensor(w))), [rows])


def naive_conv2d(x, stencils, dilation):
    """Per-pixel depthwise correlation with clamped (replicate) indices."""
    _, _, h, w = x.shape
    k = stencils.shape[-1]
    r = k // 2
    out = np.zeros_like(x)
    for i in range(h):
        for j in range(w):
            for u in range(k):
                for v in range(k):
                    ii = min(max(i + (u - r) * dilation, 0), h - 1)
                    jj = min(max(j + (v - r) * dilation, 0), w - 1)
                    out[:, :, i, j] += stencils[:, u, v] * x[:, :, ii, jj]
    return out


class TestConvProperty:
    """The one conv2d path against a naive reference on random shapes."""

    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    @given(b=st.integers(1, 2), c=st.integers(1, 4), h=st.integers(1, 9),
           w=st.integers(1, 9), k=st.sampled_from([1, 3, 5]),
           dilation=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_matches_naive_reference_and_central_differences(
            self, b, c, h, w, k, dilation, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(b, c, h, w))
        stencils = rng.normal(size=(c, k, k))
        weights = rng.normal(size=(b, c, h, w))
        out = conv2d(Tensor(x), Kernel2D(stencils, dilation=dilation)).data
        assert np.max(np.abs(out - naive_conv2d(x, stencils, dilation))) <= 1e-12
        assert_matches_fd(
            lambda xt, kt: sum_all(
                mul(conv2d(xt, Kernel2D(kt, dilation=dilation)), Tensor(weights))),
            [x, stencils])


def padded_conv2d(x, stencils, dilation, g):
    """conv2d in its earlier ``np.pad`` form: the output, and the input and
    kernel gradients for the upstream gradient ``g``."""
    b, c, h, w = x.shape
    k = stencils.shape[-1]
    d = dilation
    pad = (k // 2) * d
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="edge")
    out = np.zeros((b, c, h, w))
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(stencils)
    for u in range(k):
        for v in range(k):
            tap = xp[:, :, u * d:u * d + h, v * d:v * d + w]
            coeff = stencils[:, u, v].reshape(1, c, 1, 1)
            out += coeff * tap
            gw[:, u, v] = np.einsum("bchw,bchw->c", g, tap)
            gxp[:, :, u * d:u * d + h, v * d:v * d + w] += coeff * g
    # Fold the padded border's gradient back onto the edge rows, then columns.
    rows = gxp[:, :, pad:pad + h, :].copy()
    rows[:, :, 0, :] += gxp[:, :, :pad, :].sum(axis=2)
    rows[:, :, -1, :] += gxp[:, :, pad + h:, :].sum(axis=2)
    gx = rows[:, :, :, pad:pad + w].copy()
    gx[:, :, :, 0] += rows[:, :, :, :pad].sum(axis=3)
    gx[:, :, :, -1] += rows[:, :, :, pad + w:].sum(axis=3)
    return out, gx, gw


class TestConvMatchesPaddedForm:
    """The clamped-index gather gives the padded form's floats, bit for bit."""

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(b=st.integers(1, 9), c=st.integers(1, 9), h=st.integers(1, 9),
           w=st.integers(1, 9), k=st.sampled_from([1, 3, 5]),
           dilation=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_output_and_gradients_are_bitwise_equal(self, b, c, h, w, k, dilation, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(b, c, h, w))
        stencils = rng.normal(size=(c, k, k))
        g = rng.normal(size=(b, c, h, w))
        tape = Tape()
        xt, kt = tape.leaf(x), tape.leaf(stencils)
        out = conv2d(xt, Kernel2D(kt, dilation=dilation))
        # sum_all passes back ones and 1.0 * g is g, so conv2d's pullback gets g.
        tape.backward(sum_all(mul(out, Tensor(g))))
        want_out, want_gx, want_gw = padded_conv2d(x, stencils, dilation, g)
        assert out.data.tobytes() == want_out.tobytes()
        assert xt.grad.tobytes() == want_gx.tobytes()
        assert kt.grad.tobytes() == want_gw.tobytes()


def pullback_of(op, x, g):
    """``op``'s output on ``x`` and the input gradient its pullback returns for ``g``."""
    tape = Tape()
    xt = tape.leaf(x)
    out = op(xt)
    # sum_all passes back ones and 1.0 * g is g, so the op's pullback gets g.
    tape.backward(sum_all(mul(out, Tensor(g))))
    return out.data, xt.grad


def eager_adaptive_avg_pool(x, out_h, out_w, g):
    """adaptive_avg_pool with its pullback's index maps built in the forward pass."""
    _, _, h, w = x.shape
    row_edges = (np.arange(out_h) * h) // out_h
    col_edges = (np.arange(out_w) * w) // out_w
    row_counts = np.diff(np.append(row_edges, h))
    col_counts = np.diff(np.append(col_edges, w))
    sums = np.add.reduceat(np.add.reduceat(x, row_edges, axis=2), col_edges, axis=3)
    out = sums / (row_counts[:, None] * col_counts[None, :])
    row_map = np.searchsorted(row_edges, np.arange(h), side="right") - 1
    col_map = np.searchsorted(col_edges, np.arange(w), side="right") - 1
    denom = row_counts[row_map][:, None] * col_counts[col_map][None, :]
    return out, g[:, :, row_map[:, None], col_map[None, :]] / denom


def eager_logistic(x):
    z = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))


class TestPullbackStateMatchesEagerForm:
    """Ops that build their pullback-only state inside the pullback give the
    floats of the form that built it eagerly, bit for bit. (conv2d's eager
    form is ``padded_conv2d``: one reshape per tap coefficient, and edge
    padding that equals the clamped-index gather.)"""

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(b=st.integers(1, 3), c=st.integers(1, 4), h=st.integers(1, 9),
           w=st.integers(1, 9), data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_adaptive_avg_pool(self, b, c, h, w, data, seed):
        out_h, out_w = (data.draw(st.sampled_from([k for k in range(1, n + 1) if n % k == 0]))
                        for n in (h, w))
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(b, c, h, w))
        g = rng.normal(size=(b, c, out_h, out_w))
        got = pullback_of(lambda t: adaptive_avg_pool(t, out_h, out_w), x, g)
        want = eager_adaptive_avg_pool(x, out_h, out_w, g)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(n=st.integers(1, 40), scale=st.sampled_from([1e-3, 1.0, 30.0, 800.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_log1p_exp_and_absolute(self, n, scale, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=n) * scale
        x[::3] = 0.0  # absolute's kink and the logistic's branch point
        g = rng.normal(size=n)
        got = pullback_of(log1p_exp, x, g)
        want = (np.logaddexp(0.0, x), g * eager_logistic(x))
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        got = pullback_of(absolute, x, g)
        assert [a.tobytes() for a in got] == [np.abs(x).tobytes(), (g * np.sign(x)).tobytes()]


HUGE = 1e308


class TestFloatPolicy:
    """Op outputs are not checked for finiteness: under the floating-point
    policy an op whose finite inputs overflow raises instead."""

    @pytest.mark.parametrize("name, build", [
        ("add", lambda: add(Tensor([HUGE]), Tensor([HUGE]))),
        ("mul", lambda: mul(Tensor([1e200]), Tensor([1e200]))),
        ("conv2d", lambda: conv2d(Tensor(np.full((1, 1, 3, 3), HUGE)),
                                  Kernel2D(np.full((1, 3, 3), 2.0)))),
        ("channel_project", lambda: channel_project(Tensor(np.full((1, 2, 1, 1), 1e200)),
                                                    Tensor(np.full((1, 2), 1e200)),
                                                    Tensor([0.0]))),
        ("adaptive_avg_pool", lambda: adaptive_avg_pool(Tensor(np.full((1, 1, 2, 2), HUGE)),
                                                        1, 1)),
        ("sum_all", lambda: sum_all(Tensor([HUGE, HUGE]))),
        ("mean_over_axis", lambda: mean_over_axis(Tensor([[HUGE, HUGE]]), 1)),
        ("masked_mean", lambda: masked_mean(Tensor([[HUGE, HUGE]]), [True, True])),
    ])
    def test_overflowing_op_raises(self, name, build):
        with float_policy():
            with pytest.raises(FloatingPointError, match="overflow"):
                build()

    def test_policy_is_restored_on_exit(self):
        before = np.geterr()
        with pytest.raises(FloatingPointError):
            with float_policy():
                assert np.geterr() == {"over": "raise", "invalid": "raise",
                                       "divide": "raise", "under": before["under"]}
                sum_all(Tensor([HUGE, HUGE]))
        assert np.geterr() == before
