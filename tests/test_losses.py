"""Activation-contrast and soft-margin triplet losses."""

import math

import numpy as np
import pytest

from geoalign.autodiff import Tape, Tensor, l2_normalize
from geoalign.losses import (
    TRIPLET_SCALE,
    ActivationPartition,
    activation_contrast_loss,
    activation_map,
    aggregate_activation,
    contrast_hinge,
    contrast_loss,
    partition_by_quantile,
    soft_margin_triplet,
    total_loss,
)


def unit(vec):
    return l2_normalize(Tensor(np.asarray(vec, dtype=float)))


class TestPartitionByQuantile:
    def test_ten_distinct_values_select_top_and_bottom_three(self):
        mask = np.arange(0.1, 1.05, 0.1).reshape(2, 5)
        part = partition_by_quantile(mask, q_high=0.7, q_low=0.3)
        assert sorted(mask[part.stable].tolist()) == pytest.approx([0.8, 0.9, 1.0])
        assert sorted(mask[part.unstable].tolist()) == pytest.approx([0.1, 0.2, 0.3])

    def test_constant_mask_leaves_both_regions_empty(self):
        part = partition_by_quantile(np.full((4, 4), 0.5))
        assert part.n_stable == 0
        assert part.n_unstable == 0

    def test_two_level_mask_ties_shrink_the_low_region(self):
        mask = np.array([0.2] * 8 + [0.9] * 8).reshape(4, 4)
        part = partition_by_quantile(mask, q_high=0.5, q_low=0.3)
        # The high region is exactly the strictly-greater half; every low
        # pixel ties with the low threshold value, so nothing sits below it.
        assert part.n_stable == 8
        assert np.all(mask[part.stable] == 0.9)
        assert part.n_unstable == 0

    def test_two_level_mask_ties_can_empty_the_high_region(self):
        mask = np.array([0.2] * 8 + [0.9] * 8).reshape(4, 4)
        part = partition_by_quantile(mask, q_high=0.7, q_low=0.3)
        assert part.n_stable == 0
        assert part.n_unstable == 0

    @pytest.mark.parametrize("n", [16, 100, 256])
    def test_distinct_value_region_sizes_follow_ceil_and_floor_rules(self, n):
        rng = np.random.default_rng(n)
        values = rng.permutation(np.linspace(0.01, 0.99, n))
        part = partition_by_quantile(values, q_high=0.7, q_low=0.3)
        assert part.n_stable == n - math.ceil(0.7 * n)
        assert part.n_unstable == math.floor(0.3 * n)

    def test_quantile_order_is_validated(self):
        mask = np.linspace(0.1, 0.9, 9)
        with pytest.raises(ValueError, match="q_low < q_high"):
            partition_by_quantile(mask, q_high=0.3, q_low=0.7)
        with pytest.raises(ValueError, match="q_low < q_high"):
            partition_by_quantile(mask, q_high=0.5, q_low=0.5)
        with pytest.raises(ValueError, match="q_low < q_high"):
            partition_by_quantile(mask, q_high=1.0, q_low=0.3)
        with pytest.raises(ValueError, match="q_low < q_high"):
            partition_by_quantile(mask, q_high=0.7, q_low=0.0)

    def test_partition_regions_must_be_disjoint(self):
        overlap = np.array([[True, False], [False, False]])
        with pytest.raises(ValueError, match="disjoint"):
            ActivationPartition(overlap, overlap)


class TestActivationMap:
    def test_mean_absolute_over_channels(self):
        features = Tensor(np.array([3.0, -4.0]).reshape(1, 2, 1, 1))
        out = activation_map(features)
        assert out.shape == (1, 1, 1, 1)
        assert out.item() == 3.5

    def test_single_channel_is_plain_magnitude(self):
        rng = np.random.default_rng(0)
        f = rng.normal(size=(1, 1, 3, 3))
        out = activation_map(Tensor(f))
        assert np.array_equal(out.data[0, 0], np.abs(f[0, 0]))

    def test_rejects_non_4d(self):
        with pytest.raises(ValueError, match="4-d"):
            activation_map(Tensor(np.zeros((3, 3))))


class TestAggregateActivation:
    def partition_for(self, stable, unstable):
        return ActivationPartition(np.asarray(stable), np.asarray(unstable))

    def test_region_means(self):
        act = Tensor(np.array([2.0, 4.0, 1.0, 1.0, 1.0]).reshape(1, 1, 1, 5))
        part = self.partition_for([[True, True, False, False, False]],
                                  [[False, False, True, True, True]])
        v_stable, v_unstable = aggregate_activation(act, part)
        assert v_stable.item() == 3.0
        assert v_unstable.item() == 1.0

    def test_empty_region_raises(self):
        act = Tensor(np.ones((1, 1, 1, 3)))
        part = self.partition_for([[True, False, False]],
                                  [[False, False, False]])
        with pytest.raises(ValueError, match="unstable=0"):
            aggregate_activation(act, part)

    def test_shape_checks(self):
        part = self.partition_for(np.ones((2, 2), dtype=bool),
                                  np.zeros((2, 2), dtype=bool))
        with pytest.raises(ValueError, match=r"\(B, 1, H, W\)"):
            aggregate_activation(Tensor(np.ones((1, 2, 2, 2))), part)
        with pytest.raises(ValueError, match="does not match"):
            aggregate_activation(Tensor(np.ones((1, 1, 3, 3))), part)


class TestContrastHinge:
    def test_satisfied_margin_gives_exactly_zero(self):
        assert contrast_hinge(0.9, 0.2, margin=0.5).item() == 0.0

    def test_violated_margin_returns_the_gap(self):
        assert contrast_hinge(0.5, 0.4, margin=0.5).item() == pytest.approx(0.4, abs=1e-15)

    def test_equal_regions_cost_the_margin(self):
        assert contrast_hinge(0.7, 0.7, margin=0.5).item() == 0.5


class TestActivationContrastLoss:
    def test_end_to_end_matches_manual_computation(self):
        rng = np.random.default_rng(1)
        features = Tensor(rng.normal(size=(1, 3, 4, 4)))
        mask = rng.permutation(np.linspace(0.05, 0.95, 16)).reshape(4, 4)
        loss, report = activation_contrast_loss(features, mask)
        part = partition_by_quantile(mask)
        act = np.abs(features.data).mean(axis=1, keepdims=True)[0, 0]
        v_s, v_u = act[part.stable].mean(), act[part.unstable].mean()
        want = max(0.0, 0.5 + v_u - v_s)
        assert loss.item() == pytest.approx(want, abs=1e-12)
        assert report.v_stable == pytest.approx(v_s, abs=1e-12)
        assert report.v_unstable == pytest.approx(v_u, abs=1e-12)
        assert report.loss == loss.item()

    def test_rejects_a_batch_of_maps(self):
        mask = np.linspace(0.05, 0.95, 16).reshape(4, 4)
        with pytest.raises(ValueError, match=r"one map's \(1, C, H, W\), got shape \(2, 3, 4, 4\)"):
            activation_contrast_loss(Tensor(np.ones((2, 3, 4, 4))), mask)

    def test_constant_mask_is_safely_zero_and_not_evaluable(self):
        rng = np.random.default_rng(2)
        features = Tensor(rng.normal(size=(1, 3, 4, 4)))
        with pytest.raises(ValueError, match="empty partition"):
            activation_contrast_loss(features, np.full((4, 4), 0.5))

    def test_gradients_hit_only_partitioned_pixels(self):
        tape = Tape()
        rng = np.random.default_rng(3)
        features = tape.leaf(rng.normal(size=(1, 1, 4, 4)))
        mask = rng.permutation(np.linspace(0.05, 0.95, 16)).reshape(4, 4)
        loss, report = activation_contrast_loss(features, mask)
        assert report.loss > 0.0
        tape.backward(loss)
        part = partition_by_quantile(mask)
        grid = features.grad[0, 0]
        selected = part.stable | part.unstable
        assert np.all(grid[~selected] == 0.0)
        assert np.all(grid[selected] != 0.0)

    def test_is_contrast_loss_on_the_quantile_partition_bitwise(self):
        rng = np.random.default_rng(4)
        values = rng.normal(size=(1, 3, 6, 6))
        mask = rng.uniform(0.05, 0.95, size=(6, 6))
        results = []
        def contrast_one(f):
            loss, (report,) = contrast_loss(f, partition_by_quantile(mask))
            return loss, report

        for loss_fn in (lambda f: activation_contrast_loss(f, mask), contrast_one):
            tape = Tape()
            features = tape.leaf(values)
            loss, report = loss_fn(features)
            tape.backward(loss)
            results.append((loss.data.tobytes(), report, features.grad.tobytes()))
        assert results[0][1].loss > 0.0
        assert results[0] == results[1]


class TestContrastLoss:
    def test_margin_shifts_the_active_hinge(self):
        rng = np.random.default_rng(5)
        features = Tensor(rng.normal(size=(1, 2, 4, 4)))
        part = partition_by_quantile(rng.permutation(np.linspace(0.05, 0.95, 16)).reshape(4, 4))
        _, (report,) = contrast_loss(features, part, margin=0.0)
        loss, (wide,) = contrast_loss(features, part, margin=10.0)
        assert (wide.v_stable, wide.v_unstable) == (report.v_stable, report.v_unstable)
        assert loss.item() == wide.loss == 10.0 + wide.v_unstable - wide.v_stable

    def test_empty_region_raises(self):
        part = partition_by_quantile(np.full((4, 4), 0.5))
        with pytest.raises(ValueError, match="empty partition"):
            contrast_loss(Tensor(np.ones((1, 2, 4, 4))), part)

    def test_batch_equals_one_item_calls_bitwise(self):
        rng = np.random.default_rng(6)
        values = rng.normal(size=(40, 4, 8, 8))
        part = partition_by_quantile(rng.uniform(0.05, 0.95, size=(8, 8)))
        loss, reports = contrast_loss(Tensor(values), part, margin=1.0)
        assert loss.shape == (40,) and len(reports) == 40
        assert {r.loss > 0.0 for r in reports} == {True}
        for i, item in enumerate(values):
            one, (report,) = contrast_loss(Tensor(item[None]), part, margin=1.0)
            assert one.shape == (1,)
            assert loss.data[i:i + 1].tobytes() == one.data.tobytes()
            assert reports[i] == report


class TestSoftMarginTriplet:
    def test_equal_distances_cost_log_two(self):
        anchor = unit([1.0, 0.0, 0.0])
        other = unit([0.0, 1.0, 0.0])
        loss = soft_margin_triplet(anchor, other, other)
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_perfect_triplet(self):
        anchor = unit([1.0, 0.0])
        negative = unit([0.0, 1.0])
        loss = soft_margin_triplet(anchor, anchor, negative)
        assert TRIPLET_SCALE == 10.0
        assert loss.item() == pytest.approx(math.log1p(math.exp(-20.0)), rel=1e-12)
        assert loss.item() == pytest.approx(2.061153620314381e-09, rel=1e-12)

    def test_inverted_triplet(self):
        anchor = unit([1.0, 0.0])
        positive = unit([0.0, 1.0])
        loss = soft_margin_triplet(anchor, positive, anchor)
        assert loss.item() == pytest.approx(20.0 + math.log1p(math.exp(-20.0)), abs=1e-12)
        assert loss.item() == pytest.approx(20.000000002061153, abs=1e-12)

    def test_rejects_non_unit_embeddings(self):
        anchor = unit([1.0, 0.0])
        with pytest.raises(ValueError, match="positive.*unit length"):
            soft_margin_triplet(anchor, Tensor([2.0, 0.0]), anchor)

    def test_rejects_bad_shapes(self):
        anchor = unit([1.0, 0.0])
        with pytest.raises(ValueError, match=r"positive must be a \(D,\) embedding or \(P, D\) rows"):
            soft_margin_triplet(anchor, Tensor(np.ones((1, 1, 2))), anchor)
        with pytest.raises(ValueError, match="share a shape"):
            soft_margin_triplet(anchor, Tensor(np.eye(2)), anchor)
        with pytest.raises(ValueError, match="share a shape"):
            soft_margin_triplet(anchor, unit([0.0, 1.0]), unit([0.0, 0.0, 1.0]))

    def test_rows_equal_one_item_calls_bitwise(self):
        rng = np.random.default_rng(8)
        rows = [l2_normalize(Tensor(rng.normal(size=(40, 16)))) for _ in range(3)]
        loss = soft_margin_triplet(*rows)
        assert loss.shape == (40,)
        for i in range(40):
            a, p, n = (r.data[i] for r in rows)
            one = soft_margin_triplet(Tensor(a), Tensor(p), Tensor(n))
            assert loss.data[i].tobytes() == one.data.tobytes()
            # The same ops in plain numpy, with 1-d sums.
            d_pos = ((a + p * -1.0) * (a + p * -1.0)).sum()
            d_neg = ((a + n * -1.0) * (a + n * -1.0)).sum()
            want = np.logaddexp(0.0, (d_pos + d_neg * -1.0) * TRIPLET_SCALE)
            assert loss.data[i].tobytes() == want.tobytes()

    def test_names_the_first_row_off_unit_length(self):
        rows = Tensor([[1.0, 0.0], [0.0, 0.5], [2.0, 0.0]])
        with pytest.raises(ValueError, match=r"^negative must be unit length, got norm 0\.5$"):
            soft_margin_triplet(Tensor(np.eye(2)[[0, 1, 0]]), Tensor(np.eye(2)[[1, 0, 1]]), rows)

    def test_gradient_pulls_anchor_toward_positive(self):
        tape = Tape()
        raw = tape.leaf([0.8, 0.6])
        anchor = l2_normalize(raw)
        positive = unit([1.0, 0.0])
        negative = unit([0.0, 1.0])
        tape.backward(soft_margin_triplet(anchor, positive, negative))
        step = raw.data - 0.05 * raw.grad
        moved = step / np.linalg.norm(step)
        before = float(anchor.data @ positive.data)
        after = float(moved @ positive.data)
        assert after > before


class TestTotalLoss:
    def test_weighted_sum(self):
        out = total_loss(Tensor(math.log(2.0)), Tensor(0.4))
        assert out.item() == math.log(2.0) + 0.4
        assert out.item() == pytest.approx(1.0931, abs=1e-4)
