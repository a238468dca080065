"""Ranking and activation-contrast losses.

Two objectives live here. The soft-margin triplet loss ranks unit embeddings
by squared Euclidean distance. The activation-contrast loss reads the
geometric attention mask as a detached partitioning signal: pixels with the
highest mask values (view-stable, roof-like) and the lowest (view-dependent,
wall-like) are selected by quantile, per-pixel activation magnitudes are
averaged over each region, and a hinge pushes the stable region's mean
activation above the unstable one's by a margin. Gradients flow through the
activations only — never through the partition itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Array,
    Tensor,
    absolute,
    add,
    log1p_exp,
    masked_mean,
    mean_over_axis,
    mul,
    relu,
    row_dot,
    sum_all,
)

# Sharpness of the soft-margin triplet: the squared-distance gap is scaled by
# this before the softplus.
TRIPLET_SCALE = 10.0


@dataclass(frozen=True)
class ActivationPartition:
    """Quantile split of mask pixels into stable and unstable regions."""

    stable: Array
    unstable: Array

    def __post_init__(self):
        object.__setattr__(self, "stable", np.asarray(self.stable, dtype=bool))
        object.__setattr__(self, "unstable", np.asarray(self.unstable, dtype=bool))
        if np.any(self.stable & self.unstable):
            raise ValueError("stable and unstable regions must be disjoint")

    @property
    def n_stable(self) -> int:
        return int(self.stable.sum())

    @property
    def n_unstable(self) -> int:
        return int(self.unstable.sum())


def partition_by_quantile(mask, q_high: float = 0.7,
                          q_low: float = 0.3) -> ActivationPartition:
    """Select strictly-above / strictly-below quantile pixels of a mask.

    With N distinct values the high region has exactly ``N - ceil(q_high*N)``
    pixels (threshold at the ``ceil(q_high*N)``-th smallest value) and the low
    region exactly ``floor(q_low*N)`` pixels (threshold at the value ranked
    just above them). Ties shrink both regions, never grow them.
    """
    if not 0.0 < q_low < q_high < 1.0:
        raise ValueError(f"need 0 < q_low < q_high < 1, got {(q_low, q_high)}")
    values = np.asarray(mask, dtype=np.float64)
    flat = np.sort(values, axis=None)
    n = flat.size
    tau_high = float(flat[math.ceil(q_high * n) - 1])
    tau_low = float(flat[math.floor(q_low * n)])
    return ActivationPartition(stable=values > tau_high, unstable=values < tau_low)


def activation_map(features: Tensor) -> Tensor:
    """Per-pixel mean magnitude across channels, shape (B, 1, H, W)."""
    return mean_over_axis(absolute(features), axis=1)


def aggregate_activation(activation: Tensor,
                         partition: ActivationPartition) -> tuple[Tensor, Tensor]:
    """Mean activation over each region, one per item of a (B, 1, H, W) batch
    under one partition; raises on an empty region."""
    if partition.n_stable == 0 or partition.n_unstable == 0:
        raise ValueError(
            f"empty partition (stable={partition.n_stable}, "
            f"unstable={partition.n_unstable})"
        )
    v_stable = masked_mean(activation, partition.stable)
    v_unstable = masked_mean(activation, partition.unstable)
    return v_stable, v_unstable


def contrast_hinge(v_stable, v_unstable, margin: float) -> Tensor:
    """max(0, margin + v_unstable - v_stable)."""
    return relu(add(add(Tensor(float(margin)), v_unstable), mul(v_stable, -1.0)))


@dataclass(frozen=True)
class ContrastReport:
    """Scalar summary of one activation-contrast evaluation."""

    v_stable: float
    v_unstable: float
    loss: float


def contrast_loss(features: Tensor, partition: ActivationPartition,
                  margin: float = 0.5) -> tuple[Tensor, list[ContrastReport]]:
    """Contrast region activations under a given partition: activation map,
    region means, hinge. (B, C, H, W) features give a (B,) loss and one report
    per item. Raises ``ValueError`` on an empty region."""
    v_stable, v_unstable = aggregate_activation(activation_map(features), partition)
    loss = contrast_hinge(v_stable, v_unstable, margin)
    return loss, [ContrastReport(*item) for item in
                  zip(v_stable.data.tolist(), v_unstable.data.tolist(), loss.data.tolist())]


def activation_contrast_loss(features: Tensor, mask) -> tuple[Tensor, ContrastReport]:
    """Full pipeline for one map's (1, C, H, W) features: partition the mask,
    contrast region activations. Raises ``ValueError`` on an empty region
    (e.g. a constant mask)."""
    if features.data.shape[:1] != (1,):
        raise ValueError(f"features must be one map's (1, C, H, W), got shape {features.shape}")
    loss, (report,) = contrast_loss(features, partition_by_quantile(mask))
    return loss, report


def _check_unit(name: str, v: Tensor) -> None:
    norms = np.sqrt(row_dot(v.data, v.data))
    off = np.abs(norms - 1.0) > 1e-8
    if off.any():
        raise ValueError(f"{name} must be unit length, got norm {float(norms[off][0])!r}")


def soft_margin_triplet(anchor: Tensor, positive: Tensor, negative: Tensor) -> Tensor:
    """log(1 + exp(TRIPLET_SCALE * (d_pos - d_neg))) on unit embeddings, one
    loss per row: (D,) embeddings give a scalar, (P, D) rows a (P,) batch.

    Distances are squared Euclidean; non-normalized inputs are rejected so the
    distance scale stays comparable across batches.
    """
    for name, v in (("anchor", anchor), ("positive", positive), ("negative", negative)):
        _check_unit(name, v)
    diff_pos = add(anchor, mul(positive, -1.0))
    diff_neg = add(anchor, mul(negative, -1.0))
    d_pos = sum_all(mul(diff_pos, diff_pos), axis=-1)
    d_neg = sum_all(mul(diff_neg, diff_neg), axis=-1)
    gap = add(d_pos, mul(d_neg, -1.0))
    return log1p_exp(mul(gap, TRIPLET_SCALE))


def total_loss(triplet: Tensor, contrast: Tensor) -> Tensor:
    """triplet + contrast."""
    return add(triplet, contrast)
