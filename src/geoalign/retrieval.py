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
    row_dot,
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
from .structure_filter import DepthMap, FilterConfig, GeoMask, modulate, structure_mask

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
    """Zero-mean, unit-variance per channel of each map, over its pixels."""
    mean = stack.mean(axis=(2, 3), keepdims=True)
    std = stack.std(axis=(2, 3), keepdims=True)
    return (stack - mean) / (std + 1e-8)


def detrend_depth(depth: DepthMap) -> DepthMap:
    """Remove the least-squares plane from a depth map, or from each map of
    a stack.

    Cross-view pairs differ by a global attitude change on top of the
    structural differences; fitting and subtracting a plane leaves only the
    structure, which is what embeddings should compare. The constant term of
    the fit is kept, so an already-level map passes through unchanged. The
    fit is closed-form: on the full grid, centred column and row coordinates
    are orthogonal to each other and to the constant, so each slope is the
    column (row) sums dotted with them, over ``h`` (``w``) times their norm².
    Each dot is ``row_dot``'s (1, W) @ (W, 1) product, the 1-d ``@`` bit for
    bit; a (B, W) @ (W,) matrix-vector product is not.
    """
    values = depth.values
    h, w = values.shape[-2:]
    cols, rows = np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64)
    cx, cy = cols - (w - 1) / 2.0, rows - (h - 1) / 2.0
    slope_x = row_dot(values.sum(axis=-2), cx)[..., None] / (h * (cx @ cx))
    slope_y = row_dot(values.sum(axis=-1), cy)[..., None] / (w * (cy @ cy))
    detrended = values - slope_x * cols
    detrended -= slope_y * rows[:, None]
    return DepthMap(detrended)


def pooled_embeddings(features: Tensor, pool: int) -> Tensor:
    """Unit-norm embeddings of ``(B, C, H, W)`` features, one row per item:
    the item average-pooled to ``pool x pool``, flattened and L2-normalized."""
    n, c = features.shape[:2]
    return l2_normalize(reshape(adaptive_avg_pool(features, pool, pool), (n, c * pool * pool)))


@dataclass(frozen=True)
class DepthSide:
    """What ``embed`` reads of a (B, H, W) stack of depth maps, each field
    computed in one pass over the stack; item ``i`` of each is map ``i``'s,
    the floats that map alone gets."""

    features: Array  # (B, DEPTH_CHANNELS, h, w), each map standardized on its own
    weights: Array | None  # (B, 3, 1, h, w) scale weights; None if no pair is fused
    mask: GeoMask | None  # (B, h, w) under the default gate; None if no pair is masked


def depth_side(depths: DepthMap, arm_parts: Sequence[tuple[bool, bool]],
               fusion: FusionParams) -> DepthSide:
    """The depth side of ``embed`` for a (B, H, W) stack of maps: the
    standardized feature stacks of the plane-detrended maps and, when a
    (uses fusion, uses mask) pair of ``arm_parts`` needs them, their scale
    weights and the masks of the original maps (handling oblique geometry is
    the mask's job). Only fused pairs read ``fusion``."""
    features = standardize_stack(depth_feature_stack(detrend_depth(depths), *FEATURE_GRID))
    weights = mask = None
    if any(fused for fused, _ in arm_parts):
        weights = scale_weights(Tensor(features), fusion).data
    if any(masked for _, masked in arm_parts):
        mask = structure_mask(depths, *FEATURE_GRID, cfg=ARM_FILTER_CONFIG)
    return DepthSide(features, weights, mask)


def embed(side: DepthSide, encoder: ToyEncoder, arm_parts: Sequence[tuple[bool, bool]],
          fusion: FusionParams, item: int) -> list[Tensor]:
    """Unit-norm embeddings of map ``item`` of a stack, one per (uses
    fusion, uses mask) pair in ``arm_parts``.

    The stack's depth side (``depth_side``) gives the map's feature stack
    and, as the pairs need them, its scale weights and its mask under the
    default gate. The features are encoded, optionally fused across scales
    and optionally modulated by the mask, then globally average-pooled
    (``pooled_embeddings`` at pool 1). The encoder and the fusion each run at
    most once for all pairs; only the modulation, pooling and normalization
    run per pair. Only fused pairs read ``fusion``.
    """
    plain = encoder.forward(Tensor(side.features[item:item + 1]))
    if any(fused for fused, _ in arm_parts):
        fused_features = fuse(plain, scale_branches(plain, fusion),
                              Tensor(side.weights[item:item + 1]))
    if any(masked for _, masked in arm_parts):
        mask = side.mask[item]
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


def _render_stack(specs, render) -> DepthMap:
    """One view of every scene as an (n, H, W) stack, each render written
    into it as it is made; every scene must share one raster size."""
    first = render(specs[0])[0].values
    stack = np.empty((len(specs),) + first.shape)
    stack[0] = first
    for i, spec in enumerate(specs[1:], 1):
        stack[i] = render(spec)[0].values
    return DepthMap(stack)


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
    each passed to ``spec_fn`` in order; every spec must give one raster
    size. Each view's depth side runs once over the stack of its maps
    (``depth_side``), and each map is embedded for all arms at once
    (``embed``). Runs under the floating-point policy.
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
        encoder = ToyEncoder.seeded(seed=seed)
        fusion = FusionParams.smoothing(EMBEDDING_DIM, seed=seed)
        rows = []
        for render in (render_ortho, render_oblique):
            side = depth_side(_render_stack(specs, render), arm_parts, fusion)
            rows.append([embed(side, encoder, arm_parts, fusion, i) for i in range(n_scenes)])
            del side  # so the next view's pass runs without it
        gallery_rows, query_rows = rows
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
