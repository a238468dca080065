"""Depth-guided multi-scale feature fusion.

Three parallel views of a feature map — the map itself, and two dilated
depthwise smoothings with widening receptive fields — are blended per pixel
by weights predicted from depth-derived channels. The prediction head is a
single 1x1 projection on mean-centered depth features followed by a softmax
across the three scales, and the blend keeps the original features as a
residual:

    fused = f + sum_s w_s * branch_s

With identity (centered delta) branch kernels and a zeroed head this reduces
to doubling the input (up to float round-off in the uniform weights), which
makes the whole block a safe no-op to bolt onto an existing encoder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Array,
    Kernel2D,
    Tensor,
    add,
    channel_project,
    conv2d,
    mean_over_axis,
    mul,
    reshape,
    select_index,
    softmax_over_axis,
)
from .structure_filter import DepthMap, align_depth, macro_gradient

MID_DILATION = 2
FAR_DILATION = 4
SMOOTHING_MIX = 0.4


@dataclass(frozen=True)
class FusionParams:
    """Branch stencils plus the scale-prediction head.

    ``mid_kernel`` and ``far_kernel`` are ``(C, 3, 3)`` depthwise stencils,
    applied at dilations ``MID_DILATION`` and ``FAR_DILATION``.
    ``head_weights`` (3 x depth channels) and ``head_bias`` (3,) map
    mean-centered depth features to scale logits. A copy made with
    ``dataclasses.replace`` may hold tape leaves in place of any of them.
    """

    mid_kernel: Array | Tensor
    far_kernel: Array | Tensor
    head_weights: Array | Tensor
    head_bias: Array | Tensor

    @classmethod
    def smoothing(cls, channels: int, seed: int = 0) -> "FusionParams":
        """Center-weighted averaging branches with a small random head.

        Each branch kernel blends the center tap with a normalized box
        average (weights sum to one), so branches smooth without washing
        structure out; an all-identity block would cancel out of cosine
        similarity, which is why the retrieval harness uses this one. The
        fields are wrapped as tensors here, once, rather than on every use.
        """
        rng = np.random.default_rng(seed)
        kernel = np.full((channels, 3, 3), SMOOTHING_MIX / 9.0)
        kernel[:, 1, 1] += 1.0 - SMOOTHING_MIX
        return cls(
            mid_kernel=Tensor(kernel.copy()),
            far_kernel=Tensor(kernel.copy()),
            head_weights=Tensor(rng.normal(0.0, 0.1, (3, DEPTH_CHANNELS))),
            head_bias=Tensor(np.zeros(3)),
        )


def scale_branches(features: Tensor, params: FusionParams) -> tuple[Tensor, Tensor]:
    """The mid and far views: dilation-2 and dilation-4 smoothings. The near
    view is ``features`` itself."""
    return (conv2d(features, Kernel2D(params.mid_kernel, MID_DILATION)),
            conv2d(features, Kernel2D(params.far_kernel, FAR_DILATION)))


def scale_weights(depth_features: Tensor, params: FusionParams) -> Tensor:
    """Predict the per-pixel scale blend from depth-derived channels: convex
    weights over the three scales, shape (B, 3, 1, H, W).

    The features are mean-centered per channel before the projection, so a
    constant depth offset cannot change the prediction.
    """
    b, _, h, w = depth_features.data.shape
    spatial_mean = mean_over_axis(mean_over_axis(depth_features, 3), 2)
    centered = add(depth_features, mul(spatial_mean, -1.0))
    logits = channel_project(centered, params.head_weights, params.head_bias)
    return reshape(softmax_over_axis(logits, axis=1), (b, 3, 1, h, w))


def fuse(features: Tensor, branches: tuple[Tensor, Tensor], weights: Tensor) -> Tensor:
    """Residual weighted blend over the near (``features``), mid and far
    views: f + sum_s w_s * branch_s."""
    out = features
    for s, branch in enumerate((features, *branches)):
        w_s = select_index(weights, axis=1, index=s)  # (B, 1, H, W)
        out = add(out, mul(w_s, branch))
    return out


DEPTH_CHANNELS = 3


def depth_feature_stack(depth: DepthMap, h: int, w: int) -> Array:
    """Fixed depth-derived channels at the feature resolution.

    Channel 0 is depth averaged over whole blocks (``h`` and ``w`` must
    divide the raster's sides), channel 1 the magnitude of its dilation-2
    Sobel gradient, channel 2 raw depth at each block's first cell.
    Shape (B, DEPTH_CHANNELS, h, w) for a (B, H, W) stack of maps, in one
    pass over the stack, and (1, DEPTH_CHANNELS, h, w) for one map.
    """
    pooled = align_depth(depth, h, w)
    gx, gy = macro_gradient(pooled)
    rows, cols = depth.shape[-2:]
    strided = depth.values[..., ::rows // h, ::cols // w]
    return np.stack([pooled.values, np.hypot(gx, gy), strided],
                    axis=-3).reshape(-1, DEPTH_CHANNELS, h, w)
