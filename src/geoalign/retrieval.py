"""Cross-view retrieval over synthetic scenes.

Queries are oblique renders and the gallery holds orthographic renders of
the same scenes, so each query has exactly one correct match. Embeddings
come from a small frozen encoder over depth-derived channels; four arms
toggle the scale-fusion block and the geometric mask independently so each
component's contribution to retrieval quality can be measured:

``base``
    encoder only.
``mgsa``
    encoder + depth-guided scale fusion.
``mgsf``
    encoder + geometric attention mask.
``full``
    both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .autodiff import (
    Array,
    Kernel2D,
    Tensor,
    adaptive_avg_pool,
    channel_project,
    conv2d,
    float_policy,
    l2_normalize,
    reshape,
    select_index,
    sigmoid,
)
from .scale_fusion import (
    DEPTH_CHANNELS,
    FusionParams,
    depth_feature_stack,
    fuse,
    scale_branches,
    scale_weights,
)
from .scenes import facade_heavy_spec, render_oblique, render_ortho
from .structure_filter import DepthMap, FilterConfig, modulate, structure_mask

ARMS = ("base", "mgsa", "mgsf", "full")
FEATURE_GRID = (16, 16)
EMBEDDING_DIM = 64

# Mask settings for the coarse feature grid: pooling to 16x16 already smears
# depth breaks across neighbouring cells, so the gradient stencil stays
# undilated, and the edge collar is kept broad enough that the strip of
# cells around every depth break — the cells whose content differs between
# views of the same scene — lands in the fixed-value edge partition in both
# views instead of being scored against view-dependent normals.
ARM_FILTER_CONFIG = FilterConfig(gradient_dilation=1, edge_quantile=0.25)


@dataclass(frozen=True)
class ToyEncoder:
    """Two separable stages: depthwise 3x3 stencil, 1x1 channel mix, sigmoid.

    Weights are plain arrays fixed at construction. A copy made with
    ``dataclasses.replace`` may hold tape leaves in place of any of them, so
    gradients can be checked through the whole pipeline.
    """

    dw1: Array
    pw1: Array
    b1: Array
    dw2: Array
    pw2: Array
    b2: Array

    @classmethod
    def seeded(cls, seed: int = 0, channels: int = EMBEDDING_DIM) -> "ToyEncoder":
        rng = np.random.default_rng(seed)
        return cls(
            dw1=rng.normal(0.0, 0.35, (DEPTH_CHANNELS, 3, 3)),
            pw1=rng.normal(0.0, 0.5, (channels, DEPTH_CHANNELS)),
            b1=rng.normal(0.0, 0.1, channels),
            dw2=rng.normal(0.0, 0.35, (channels, 3, 3)),
            pw2=rng.normal(0.0, 0.5 / np.sqrt(channels), (channels, channels)),
            b2=rng.normal(0.0, 0.1, channels),
        )

    def forward(self, x: Tensor) -> Tensor:
        y = conv2d(x, Kernel2D(self.dw1))
        y = sigmoid(channel_project(y, self.pw1, self.b1))
        y = conv2d(y, Kernel2D(self.dw2))
        y = sigmoid(channel_project(y, self.pw2, self.b2))
        return y


def standardize_stack(stack: Array) -> Array:
    """Zero-mean, unit-variance per channel (shared across batch and space)."""
    mean = stack.mean(axis=(0, 2, 3), keepdims=True)
    std = stack.std(axis=(0, 2, 3), keepdims=True)
    return (stack - mean) / (std + 1e-8)


def detrend_depth(depth: DepthMap) -> DepthMap:
    """Remove the least-squares plane from a depth map.

    Cross-view pairs differ by a global attitude change on top of the
    structural differences; fitting and subtracting a plane leaves only the
    structure, which is what embeddings should compare. The constant term of
    the fit is kept, so an already-level map passes through unchanged. The
    fit is closed-form: on the full grid, centred column and row coordinates
    are orthogonal to each other and to the constant, so each slope is the
    column (row) sums dotted with them, over ``h`` (``w``) times their norm².
    """
    values = depth.values
    h, w = values.shape
    cols, rows = np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64)
    cx, cy = cols - (w - 1) / 2.0, rows - (h - 1) / 2.0
    slope_x = (values.sum(axis=0) @ cx) / (h * (cx @ cx))
    slope_y = (values.sum(axis=1) @ cy) / (w * (cy @ cy))
    return DepthMap(values - slope_x * cols - slope_y * rows[:, None])


def pooled_embeddings(features: Tensor, pool: int) -> Tensor:
    """Unit-norm embeddings of ``(B, C, H, W)`` features, one row per item:
    the item average-pooled to ``pool x pool``, flattened and L2-normalized."""
    n, c = features.shape[:2]
    return l2_normalize(reshape(adaptive_avg_pool(features, pool, pool), (n, c * pool * pool)))


def embed(depth: DepthMap, encoder: ToyEncoder, arm_parts: Sequence[tuple[bool, bool]],
          fusion: FusionParams) -> list[Tensor]:
    """Unit-norm embeddings of one depth map, one per (uses fusion, uses mask)
    pair in ``arm_parts``.

    The depth map is plane-detrended, reduced to fixed derived channels and
    encoded; the features are optionally fused across scales and optionally
    modulated by the geometric mask under the default gate, then globally
    average-pooled (``pooled_embeddings`` at pool 1). The mask is computed from
    the original depth map — handling oblique geometry is its job — while the
    encoder sees the detrended one. The encoder, the fusion and the mask each
    run at most once for all pairs; only the modulation, pooling and
    normalization run per pair. Only fused pairs read ``fusion``.
    """
    stack = Tensor(standardize_stack(depth_feature_stack(detrend_depth(depth), *FEATURE_GRID)))
    plain = encoder.forward(stack)
    if any(fused for fused, _ in arm_parts):
        fused_features = fuse(plain, scale_branches(plain, fusion), scale_weights(stack, fusion))
    if any(masked for _, masked in arm_parts):
        mask = structure_mask(depth, *FEATURE_GRID, cfg=ARM_FILTER_CONFIG)
    embeddings = []
    for fused, masked in arm_parts:
        features = fused_features if fused else plain
        features = modulate(features, mask) if masked else features
        embeddings.append(select_index(pooled_embeddings(features, 1), 0, 0))
    return embeddings


def rank_gallery(query: Array, gallery: Array) -> Array:
    """Gallery indices ordered by descending cosine similarity.

    Embeddings are unit vectors, so the dot product is the cosine. Ties are
    broken toward the lower index, deterministically.
    """
    sims = gallery @ query
    return np.argsort(-sims, kind="stable")


def true_rank(order: Array, target: int) -> int:
    """1-based position of the correct item in a ranking."""
    (pos,) = np.nonzero(order == target)
    return int(pos[0]) + 1


def recall_at_k(ranks, k: int) -> float:
    ranks = np.asarray(ranks)
    if ranks.size == 0:
        raise ValueError("no ranks to score")
    return float((ranks <= k).mean())


def mean_average_precision(ranks) -> float:
    """With one relevant item per query, AP reduces to reciprocal rank."""
    ranks = np.asarray(ranks, dtype=np.float64)
    if ranks.size == 0:
        raise ValueError("no ranks to score")
    return float((1.0 / ranks).mean())


@dataclass(frozen=True)
class RetrievalReport:
    arm: str
    n_queries: int
    recall_at_1: float
    recall_at_5: float
    mean_ap: float
    ranks: tuple[int, ...]


def _arm_parts(arm: str) -> tuple[bool, bool]:
    """Whether ``arm`` uses (scale fusion, the geometric mask)."""
    if arm not in ARMS:
        raise ValueError(f"unknown arm {arm!r}; expected one of {ARMS}")
    return arm in ("mgsa", "full"), arm in ("mgsf", "full")


def run_experiment(
    n_scenes: int = 50,
    seed: int = 0,
    arms: tuple[str, ...] = ARMS,
    spec_fn=facade_heavy_spec,
) -> dict[str, RetrievalReport]:
    """Render paired views of seeded scenes and score each arm.

    Everything — scene content, encoder weights, fusion head — derives from
    ``seed``, so two runs with the same arguments produce identical reports.
    Scene seeds are ``default_rng(seed).integers(0, 2**31 - 1, n_scenes)``,
    each passed to ``spec_fn`` in order. Each depth map is embedded for all
    arms at once (``embed``). Runs under the floating-point policy.
    """
    if n_scenes < 1:
        raise ValueError("need at least one scene")
    if not arms:
        raise ValueError("need at least one arm")
    arm_parts = [_arm_parts(arm) for arm in arms]
    with float_policy():
        rng = np.random.default_rng(seed)
        scene_seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=n_scenes)]
        specs = [spec_fn(s) for s in scene_seeds]
        gallery_depths = [render_ortho(spec)[0] for spec in specs]
        query_depths = [render_oblique(spec)[0] for spec in specs]
        encoder = ToyEncoder.seeded(seed=seed)
        fusion = FusionParams.smoothing(EMBEDDING_DIM, seed=seed)
        gallery_rows, query_rows = (
            [embed(d, encoder, arm_parts, fusion) for d in depths]
            for depths in (gallery_depths, query_depths))
        reports: dict[str, RetrievalReport] = {}
        for k, arm in enumerate(arms):
            gallery = np.stack([row[k].data for row in gallery_rows])
            ranks = [true_rank(rank_gallery(row[k].data, gallery), i)
                     for i, row in enumerate(query_rows)]
            reports[arm] = RetrievalReport(
                arm=arm,
                n_queries=n_scenes,
                recall_at_1=recall_at_k(ranks, 1),
                recall_at_5=recall_at_k(ranks, 5),
                mean_ap=mean_average_precision(ranks),
                ranks=tuple(ranks),
            )
        return reports
