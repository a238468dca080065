"""Depth-driven geometric attention masks.

A raw depth raster is pooled to the working resolution, differentiated with a
dilated Sobel stencil, lifted to per-pixel surface normals, and split into an
ambiguous high-gradient edge set and a flat remainder. Clustering the flat
normals yields the scene's dominant surface orientation; agreement with that
orientation is squashed through a learnable sigmoid gate into a mask in
(0, 1), with edge pixels reset to the neutral value 0.5. Features modulated
by ``1 + mask`` are amplified where geometry is view-stable and left nearly
untouched where it is not.

Only the gate (its gain and bias) participates in gradient tracking; the
normal/cluster machinery is a fixed geometric preprocessor, ``MaskGeometry``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Array,
    Kernel2D,
    Tensor,
    adaptive_avg_pool,
    add,
    conv2d,
    float_policy,
    masked_fill,
    mul,
    reshape,
    sigmoid,
)

# Correlation-form Sobel stencils; column/row tap offsets are scaled by the
# dilation and the response divided by 8*dilation, so a linear ramp of slope a
# reads back exactly a at interior pixels.
SOBEL_X = np.array([[-1.0, 0.0, 1.0],
                    [-2.0, 0.0, 2.0],
                    [-1.0, 0.0, 1.0]])
SOBEL_Y = SOBEL_X.T

ZENITH = np.array([0.0, 0.0, 1.0])

LLOYD_ITERS = 50  # cluster_normals stops earlier once no assignment changes


@dataclass(frozen=True)
class DepthMap:
    """A finite 2-d depth raster, at least 3 pixels on each side."""

    values: Array

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"depth must be 2-d, got shape {arr.shape}")
        if min(arr.shape) < 3:
            raise ValueError(f"depth raster too small: {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("depth must be finite")
        object.__setattr__(self, "values", arr)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass(frozen=True)
class NormalField:
    """Unit surface normals (H, W, 3) with strictly positive z."""

    normals: Array

    def __post_init__(self):
        arr = np.asarray(self.normals, dtype=np.float64)
        lengths = np.linalg.norm(arr, axis=2)
        if np.max(np.abs(lengths - 1.0)) > 1e-9:
            raise ValueError("normals must be unit length")
        if np.min(arr[:, :, 2]) <= 0.0:
            raise ValueError("normal z-components must be positive")
        object.__setattr__(self, "normals", arr)


@dataclass(frozen=True)
class EdgePartition:
    """Split of the raster into ambiguous edge pixels and flat pixels."""

    edge_mask: Array
    threshold: float

    def __post_init__(self):
        object.__setattr__(self, "edge_mask",
                           np.asarray(self.edge_mask, dtype=bool))

    @property
    def flat_mask(self) -> Array:
        return ~self.edge_mask

    @property
    def n_edges(self) -> int:
        return int(self.edge_mask.sum())

    @property
    def n_flat(self) -> int:
        return int((~self.edge_mask).sum())


@dataclass(frozen=True)
class GateParams:
    """Sigmoid gate sigma(gain * consistency + bias); both terms learnable."""

    gain: float | Tensor = 5.0
    bias: float | Tensor = -2.5


@dataclass(frozen=True)
class FilterConfig:
    gradient_dilation: int = 2
    edge_quantile: float = 0.85
    clusters: int = 3
    cluster_seed: int = 0

    def __post_init__(self):
        if self.gradient_dilation < 1:
            raise ValueError(f"dilation must be >= 1, got {self.gradient_dilation}")
        if not 0.0 <= self.edge_quantile < 1.0:
            raise ValueError(f"edge quantile must be in [0, 1), got {self.edge_quantile}")
        if self.clusters < 1:
            raise ValueError(f"need at least one cluster, got {self.clusters}")


class GeoMask:
    """Per-pixel geometric attention in (0, 1), exactly 0.5 on edge pixels:
    one (H, W) map, or (B, H, W) maps stacked."""

    def __init__(self, mask: Tensor, edge_mask: Array):
        edge_mask = np.asarray(edge_mask, dtype=bool)
        if np.min(mask.data) <= 0.0 or np.max(mask.data) >= 1.0:
            raise ValueError("mask values must lie strictly inside (0, 1)")
        if edge_mask.any() and not np.all(mask.data[edge_mask] == 0.5):
            raise ValueError("edge pixels must carry the neutral value 0.5")
        self.mask = mask

    @property
    def values(self) -> Array:
        return self.mask.data

    @property
    def shape(self) -> tuple[int, ...]:
        return self.mask.data.shape


def align_depth(depth: DepthMap, h: int, w: int) -> DepthMap:
    """Average raw depth over whole blocks down to the working resolution."""
    pooled = adaptive_avg_pool(Tensor(depth.values[None, None]), h, w)
    return DepthMap(pooled.data[0, 0])


def macro_gradient(depth: DepthMap, dilation: int = 2) -> tuple[Array, Array]:
    """Dilated Sobel depth gradients, normalized to slope units.

    Tap offsets are scaled by ``dilation`` and the raw response divided by
    ``8 * dilation``; on a linear ramp ``a*x + b*y`` the interior response is
    exactly ``(a, b)``.
    """
    h, w = depth.shape
    if min(h, w) < 2 * dilation + 1:
        raise ValueError(
            f"raster {depth.shape} smaller than the {2 * dilation + 1} pixel stencil"
        )
    t = Tensor(np.broadcast_to(depth.values, (1, 2, h, w)))
    stencils = np.stack([SOBEL_X, SOBEL_Y]) * (1.0 / (8.0 * dilation))
    gx, gy = conv2d(t, Kernel2D(stencils, dilation=dilation)).data[0]
    return gx, gy


def compute_normals(gx: Array, gy: Array) -> NormalField:
    """Lift depth slopes to unit surface normals ``[-gx, -gy, 1] / norm``.

    The z-component is always positive and the denominator at least one, so
    the field is defined everywhere.
    """
    if gx.shape != gy.shape:
        raise ValueError(f"gradient shapes differ: {gx.shape} vs {gy.shape}")
    stacked = np.stack([-gx, -gy, np.ones_like(gx)], axis=2)
    norms = np.linalg.norm(stacked, axis=2, keepdims=True)
    return NormalField(stacked / norms)


def partition_edges(gx: Array, gy: Array, cfg: FilterConfig = FilterConfig()) -> EdgePartition:
    """Split pixels by gradient magnitude at a per-image quantile threshold.

    The threshold is the lower-interpolation quantile of the magnitudes;
    membership in the edge set is strict (``> threshold``). Quantile 0 marks
    every pixel ambiguous.
    """
    magnitude = np.hypot(gx, gy)
    tau = (float(np.quantile(magnitude, cfg.edge_quantile, method="lower"))
           if cfg.edge_quantile else float("-inf"))
    return EdgePartition(magnitude > tau, tau)


def _kmeans_pp(points: Array, k: int, rng: np.random.Generator) -> Array:
    """k-means++ seeding; degenerate (all-equal) distances fall back to the
    lowest unused index so the routine stays deterministic."""
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


def cluster_normals(points: Array, k: int, seed: int) -> tuple[Array, Array, Array]:
    """Lloyd's iteration with seeded k-means++ starts.

    Returns ``(centroids, labels, counts)``. Assignment ties go to the lowest
    cluster index; a cluster that empties keeps its previous centroid. The
    whole routine is bit-deterministic for fixed inputs and seed.

    Each step works on the points' coordinate columns, with no ``(N, k, 3)``
    temporary: row ``m`` of a reused ``(k, N)`` distance buffer is
    ``(x0-c0)² + (x1-c1)² + (x2-c2)²`` added left to right, and each centroid
    coordinate is a ``bincount``-weighted sum in point order over the member
    count. Every distance and centroid is therefore the same float as the
    broadcast form's axis sum and member mean. (The expanded form
    ``|x|² - 2x·c + |c|²`` is not: it rounds differently and can flip an
    assignment on a near-tie.)

    The assignment is a running minimum over the rows with no ``argmin`` and
    no masked write: a point moves to row ``m`` only where ``d2[m]`` is
    strictly below every earlier row, and ``m`` exceeds every earlier label,
    so ``max(label, m * closer)`` relabels exactly those points. Distances are
    finite and non-negative, so this is ``argmin``'s first-minimum rule.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if n < k:
        raise ValueError(f"cannot form {k} clusters from {n} points")
    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp(points, k, rng)
    columns = [np.ascontiguousarray(column) for column in points.T]
    d2 = np.empty((k, n))
    term = np.empty(n)
    closer = np.empty(n, dtype=bool)
    relabel = np.empty(n, dtype=np.intp)
    labels = np.zeros(n, dtype=int)
    for _ in range(LLOYD_ITERS):
        for m, centroid in enumerate(centroids):
            row = d2[m]
            np.square(np.subtract(columns[0], centroid[0], out=row), out=row)
            for column, c in zip(columns[1:], centroid[1:]):
                row += np.square(np.subtract(column, c, out=term), out=term)
        best = d2[0]  # becomes the running minimum; d2 is refilled every step
        new_labels = np.zeros(n, dtype=np.intp)
        for m in range(1, k):
            np.less(d2[m], best, out=closer)  # strict: a tie keeps the lower index
            np.minimum(best, d2[m], out=best)
            np.maximum(new_labels, np.multiply(closer, m, out=relabel), out=new_labels)
        sizes = np.bincount(new_labels, minlength=k)
        for j, column in enumerate(columns):
            np.divide(np.bincount(new_labels, weights=column, minlength=k), sizes,
                      out=centroids[:, j], where=sizes > 0)
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
    return centroids, labels, sizes


def dominant_normal(field: NormalField, partition: EdgePartition,
                    cfg: FilterConfig = FilterConfig()) -> Array:
    """Unit normal of the most populous flat-surface cluster.

    Ties on cluster size are broken toward the larger z-component, then the
    lower cluster index. With fewer flat pixels than clusters the mean flat
    normal is used instead; with no flat pixels at all the zenith is returned.
    """
    flat = field.normals[partition.flat_mask]
    if len(flat) == 0:
        return ZENITH.copy()
    if len(flat) < cfg.clusters:
        mean = flat.mean(axis=0)
        return mean / np.linalg.norm(mean)
    centroids, _, counts = cluster_normals(flat, cfg.clusters, cfg.cluster_seed)
    best = max(range(cfg.clusters),
               key=lambda m: (counts[m], centroids[m, 2], -m))
    winner = centroids[best]
    return winner / np.linalg.norm(winner)


def normal_consistency(field: NormalField, reference: Array) -> Array:
    """Cosine agreement of every pixel's normal with a reference direction."""
    reference = np.asarray(reference, dtype=np.float64)
    if reference.shape != (3,):
        raise ValueError(f"reference normal must be a 3-vector, got {reference.shape}")
    if abs(np.linalg.norm(reference) - 1.0) > 1e-9:
        raise ValueError("reference normal must be unit length")
    return field.normals @ reference


def adaptive_gate(consistency, gate: GateParams = GateParams()) -> Tensor:
    """Squash consistency through sigma(gain * c + bias)."""
    return sigmoid(add(mul(consistency, gate.gain), gate.bias))


def rectify_edges(raw_mask: Tensor, partition: EdgePartition) -> GeoMask:
    """Reset ambiguous edge pixels to the neutral attention value 0.5."""
    if raw_mask.data.shape != partition.edge_mask.shape:
        raise ValueError(
            f"mask shape {raw_mask.shape} does not match partition "
            f"{partition.edge_mask.shape}"
        )
    return GeoMask(masked_fill(raw_mask, partition.edge_mask, 0.5),
                   partition.edge_mask)


def modulate(features: Tensor, mask: GeoMask) -> Tensor:
    """Amplify features by ``1 + mask``, broadcast over channels. An (H, W)
    mask is broadcast over the batch too; a (B, H, W) one holds one map per
    batch item."""
    if features.data.ndim != 4:
        raise ValueError(f"features must be 4-d, got shape {features.shape}")
    b, _, h, w = features.data.shape
    if mask.shape[-2:] != (h, w):
        raise ValueError(
            f"feature grid {features.data.shape[2:]} does not match mask {mask.shape}"
        )
    if mask.shape not in ((h, w), (b, h, w)):
        raise ValueError(f"feature batch of {b} does not match mask {mask.shape}")
    m = reshape(mask.mask, (-1, 1, h, w))
    return mul(features, add(m, 1.0))


@dataclass(frozen=True)
class MaskGeometry:
    """The gate-independent part of one depth map's mask, at its own resolution.

    Several same-size maps may share one, each field (and the edge
    threshold) stacked on a leading axis; ``mask`` then gates them all as one
    (B, H, W) ``GeoMask``.
    """

    partition: EdgePartition
    reference: Array
    consistency: Array

    @classmethod
    def from_depth(cls, depth: DepthMap, cfg: FilterConfig = FilterConfig()) -> "MaskGeometry":
        """Gradients, normals, edge split, dominant normal and consistency."""
        gx, gy = macro_gradient(depth, cfg.gradient_dilation)
        field = compute_normals(gx, gy)
        partition = partition_edges(gx, gy, cfg)
        reference = dominant_normal(field, partition, cfg)
        return cls(partition, reference, normal_consistency(field, reference))

    def mask(self, gate: GateParams = GateParams()) -> GeoMask:
        """Gate the consistency field and reset the edge pixels to 0.5."""
        return rectify_edges(adaptive_gate(self.consistency, gate), self.partition)


def structure_mask(depth: DepthMap, h: int, w: int,
                   cfg: FilterConfig = FilterConfig()) -> GeoMask:
    """Full depth -> attention-mask pipeline at resolution (h, w) under the
    default gate, run under the floating-point policy."""
    with float_policy():
        return MaskGeometry.from_depth(align_depth(depth, h, w), cfg).mask()
