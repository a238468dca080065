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
    select_index,
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
    """A finite 2-d depth raster, at least 3 pixels on each side, or a
    (B, H, W) stack of same-size rasters. Every stage of the mask takes
    either; a stack runs as one pass that gives each map the floats it gets
    alone."""

    values: Array

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim not in (2, 3):
            raise ValueError(f"depth must be 2-d, or a 3-d stack of maps, got shape {arr.shape}")
        if min(arr.shape[-2:]) < 3:
            raise ValueError(f"depth raster too small: {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("depth must be finite")
        object.__setattr__(self, "values", arr)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass(frozen=True)
class NormalField:
    """Unit surface normals (H, W, 3), or (B, H, W, 3) for a stack of maps,
    with strictly positive z."""

    normals: Array

    def __post_init__(self):
        arr = np.asarray(self.normals, dtype=np.float64)
        # The norm on the coordinate columns, summed left to right: the
        # floats of ``np.linalg.norm(arr, axis=-1)``.
        x, y, z = np.moveaxis(arr, -1, 0)
        lengths = np.sqrt(x * x + y * y + z * z)
        if np.max(np.abs(lengths - 1.0)) > 1e-9:
            raise ValueError("normals must be unit length")
        if np.min(z) <= 0.0:
            raise ValueError("normal z-components must be positive")
        object.__setattr__(self, "normals", arr)


@dataclass(frozen=True)
class EdgePartition:
    """Split of the raster into ambiguous edge pixels and flat pixels. A
    stack of maps has a (B, H, W) edge mask and one threshold per map."""

    edge_mask: Array
    threshold: float | Array

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
    """Per-pixel geometric attention strictly inside (0, 1): one (H, W) map,
    or maps stacked on leading axes. ``rectify_edges`` sets its edge pixels to
    the neutral 0.5."""

    def __init__(self, mask: Tensor):
        if np.min(mask.data) <= 0.0 or np.max(mask.data) >= 1.0:
            raise ValueError("mask values must lie strictly inside (0, 1)")
        self.mask = mask

    @property
    def values(self) -> Array:
        return self.mask.data

    def __getitem__(self, i: int) -> "GeoMask":
        """Map ``i`` of a (B, H, W) stack."""
        return GeoMask(select_index(self.mask, 0, i))


def align_depth(depth: DepthMap, h: int, w: int) -> DepthMap:
    """Average raw depth over whole blocks down to the working resolution,
    every map of a stack in one pooling."""
    values = depth.values
    pooled = adaptive_avg_pool(Tensor(values.reshape(-1, 1, *values.shape[-2:])), h, w)
    return DepthMap(pooled.data.reshape(values.shape[:-2] + (h, w)))


def macro_gradient(depth: DepthMap, dilation: int = 2) -> tuple[Array, Array]:
    """Dilated Sobel depth gradients, normalized to slope units.

    Tap offsets are scaled by ``dilation`` and the raw response divided by
    ``8 * dilation``; on a linear ramp ``a*x + b*y`` the interior response is
    exactly ``(a, b)``.
    """
    h, w = depth.shape[-2:]
    if min(h, w) < 2 * dilation + 1:
        raise ValueError(
            f"raster {depth.shape} smaller than the {2 * dilation + 1} pixel stencil"
        )
    values = depth.values.reshape(-1, 1, h, w)
    t = Tensor(np.broadcast_to(values, (len(values), 2, h, w)))
    stencils = np.stack([SOBEL_X, SOBEL_Y]) * (1.0 / (8.0 * dilation))
    out = conv2d(t, Kernel2D(stencils, dilation=dilation)).data
    return out[:, 0].reshape(depth.shape), out[:, 1].reshape(depth.shape)


def compute_normals(gx: Array, gy: Array) -> NormalField:
    """Lift depth slopes to unit surface normals ``[-gx, -gy, 1] / norm``.

    The z-component is always positive and the denominator at least one, so
    the field is defined everywhere. The denominator is ``gx² + gy² + 1``
    summed left to right on the slope arrays, under a square root: the floats
    of ``np.linalg.norm`` along the stacked vectors' last axis. Each
    coordinate is divided by it straight into its column of the field.
    """
    norms = np.sqrt(gx * gx + gy * gy + 1.0)
    normals = np.empty(norms.shape + (3,))
    for j, numerator in enumerate((-gx, -gy, 1.0)):
        np.divide(numerator, norms, out=normals[..., j])
    return NormalField(normals)


def partition_edges(gx: Array, gy: Array, cfg: FilterConfig = FilterConfig()) -> EdgePartition:
    """Split pixels by gradient magnitude at a per-image quantile threshold.

    The threshold is the lower-interpolation quantile of the magnitudes;
    membership in the edge set is strict (``> threshold``). Quantile 0 marks
    every pixel ambiguous. Each map of a (B, H, W) stack has its own
    threshold.
    """
    magnitude = np.hypot(gx, gy)
    per_map = magnitude.reshape(-1, magnitude.shape[-2] * magnitude.shape[-1])
    tau = (np.quantile(per_map, cfg.edge_quantile, axis=1, method="lower")
           if cfg.edge_quantile else np.full(len(per_map), -np.inf))
    edges = magnitude > tau.reshape(magnitude.shape[:-2] + (1, 1))
    return EdgePartition(edges, float(tau[0]) if magnitude.ndim == 2 else tau)


def _kmeans_pp(columns: Array, k: int, rng: np.random.Generator) -> Array:
    """k-means++ seeding on a map's ``(3, N)`` coordinate columns; degenerate
    (all-equal) distances fall back to the lowest unused index so the routine
    stays deterministic. Returns the ``(k, 3)`` seed points.

    A squared distance is ``(x0-c0)² + (x1-c1)² + (x2-c2)²`` added left to
    right across the columns: the float of the ``(N, 3)`` points' axis sum,
    without that sum's pass over a 3-wide axis.
    """
    n = columns.shape[1]
    diff = np.empty_like(columns)

    def d2_to(i: int) -> Array:
        np.square(np.subtract(columns, columns[:, i, None], out=diff), out=diff)
        d2 = diff[0] + diff[1]
        d2 += diff[2]
        return d2

    chosen = [int(rng.integers(n))]
    d2 = d2_to(chosen[0])
    for _ in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            pick = next(i for i in range(n) if i not in chosen)
        else:
            pick = int(rng.choice(n, p=d2 / total))
        chosen.append(pick)
        np.minimum(d2, d2_to(pick), out=d2)
    return columns[:, chosen].T.copy()


def cluster_normals(points: Array, k: int, seed: int, b: int) -> tuple[Array, Array]:
    """Lloyd's iteration with seeded k-means++ starts, for the points of
    ``b`` maps of equal size at once.

    ``points`` is the maps' ``(N, 3)`` normals concatenated in map order,
    ``N / b`` of them each map's, at least ``k``. Returns
    ``(centroids, counts)``: ``(b, k, 3)`` centroids and ``(b, k)`` member
    counts, one of each per map. Assignment ties go to the lowest cluster
    index; a cluster that empties keeps its previous centroid. Each map seeds
    from its own ``default_rng(seed)`` and gets the floats it gets alone; the
    routine is bit-deterministic for fixed inputs and seed.

    Each step's distances work on the points' coordinate columns, one
    ``(b, N / b)`` grid each, with each map's centroids broadcast as
    ``(3, b, 1)`` columns and no ``(N, k, 3)`` temporary: row ``m`` of a
    reused distance buffer is ``(x0-c0)² + (x1-c1)² + (x2-c2)²`` added left
    to right, the float of the broadcast form's axis sum. (The expanded form
    ``|x|² - 2x·c + |c|²`` is not: it rounds differently and can flip an
    assignment on a near-tie.)

    The assignment is a running minimum over the rows with no ``argmin`` and
    no masked write: a point moves to row ``m`` only where ``d2[m]`` is
    strictly below every earlier row, and ``m`` exceeds every earlier label,
    so ``max(label, m * closer)`` relabels exactly those points. Distances are
    non-negative, so this is ``argmin``'s first-minimum rule. Labels are held
    in the narrowest unsigned dtype that holds ``k - 1``.

    The centroids are one ``bincount`` over the interleaved coordinates, in
    which point ``p``'s coordinate ``j`` carries key ``3 * bin + j``, map
    ``i``'s labels counting from bin ``i * k``: each centroid coordinate is
    its members' sum in point order, the float of a per-coordinate
    ``bincount`` or a member mean, over the member count. Only the points
    whose label moved get new keys, and the member counts change only by
    theirs. A step is a function of the labels alone, so a step after the
    first whose labels repeat would write the same centroids, and the loop
    stops before it. Step 0 compares its labels with the all-zero start; if
    they repeat it, its update still runs once, and the loop stops there. A
    map whose labels repeat stays put while the loop runs on until every
    map's labels repeat (or ``LLOYD_ITERS``).
    """
    n = len(points) // b
    grids = np.ascontiguousarray(points.T).reshape(3, b, n)
    centroids = np.stack([_kmeans_pp(grids[:, i], k, np.random.default_rng(seed))
                          for i in range(b)])
    # Views that follow the in-place centroid updates: centroid m's
    # coordinates as a (3, B, 1) column per coordinate and map.
    at = [centroids[:, m].T[:, :, None] for m in range(k)]
    # A lone map needs no bin offset, but an intp zero still widens its
    # labels before they are scaled to keys. Every label starts at 0, so
    # every map's points at its first bin.
    offset = np.repeat(np.arange(b) * k, n) if b > 1 else np.intp(0)
    lanes = np.arange(3)
    keys = 3 * np.reshape(offset, (-1, 1)) + np.broadcast_to(lanes, (b * n, 3))
    weights = points.ravel()
    sizes = np.zeros(b * k, dtype=np.intp)  # member counts, bin by bin
    sizes[::k] = n
    d2 = np.empty((k, b * n))
    d2_grid = d2.reshape(k, b, n)
    diff = np.empty_like(grids)
    closer = np.empty(b * n, dtype=bool)
    label_type = np.min_scalar_type(k - 1)
    labels = np.zeros(b * n, dtype=label_type)
    new_labels = np.empty_like(labels)
    relabel = np.empty_like(labels)
    for step in range(LLOYD_ITERS):
        for m in range(k):
            np.square(np.subtract(grids, at[m], out=diff), out=diff)
            np.add(diff[0], diff[1], out=d2_grid[m])
            d2_grid[m] += diff[2]
        best = d2[0]  # becomes the running minimum; d2 is refilled every step
        new_labels.fill(0)
        for m in range(1, k):
            np.less(d2[m], best, out=closer)  # strict: a tie keeps the lower index
            np.minimum(best, d2[m], out=best)
            np.maximum(new_labels, np.multiply(closer, label_type.type(m), out=relabel),
                       out=new_labels)
        moved = np.flatnonzero(new_labels != labels)
        if step and not len(moved):
            break  # the update would write the same centroids
        if len(moved):
            shift = offset if b == 1 else offset[moved]
            was, now = labels[moved] + shift, new_labels[moved] + shift
            sizes += np.bincount(now, minlength=b * k) - np.bincount(was, minlength=b * k)
            keys[moved] = 3 * now[:, None] + lanes
        labels, new_labels = new_labels, labels
        sums = np.bincount(keys.ravel(), weights=weights, minlength=3 * b * k)
        np.divide(sums.reshape(b, k, 3), sizes.reshape(b, k, 1), out=centroids,
                  where=sizes.reshape(b, k, 1) > 0)
        if not len(moved):
            break  # step 0 left every label at 0: the update runs once, then stops
    return centroids, sizes.reshape(b, k)


def dominant_normal(field: NormalField, partition: EdgePartition,
                    cfg: FilterConfig = FilterConfig()) -> Array:
    """Unit normal of the most populous flat-surface cluster: a 3-vector, or
    one per map of a stack.

    Ties on cluster size are broken toward the larger z-component, then the
    lower cluster index. With fewer flat pixels than clusters the mean flat
    normal is used instead; with no flat pixels at all the zenith is returned.
    The maps of a stack that have enough flat pixels are clustered in one
    ``cluster_normals`` call per flat-pixel count, each map getting the
    floats it gets alone.
    """
    flat_mask = partition.flat_mask.reshape(-1, *partition.edge_mask.shape[-2:])
    normals = field.normals.reshape(flat_mask.shape + (3,))
    n_flat = flat_mask.sum(axis=(1, 2))
    clustered = n_flat >= cfg.clusters
    out = np.empty((len(n_flat), 3))
    for count in set(n_flat[clustered].tolist()):
        group = n_flat == count
        centroids, counts = cluster_normals(normals[flat_mask & group[:, None, None]],
                                            cfg.clusters, cfg.cluster_seed, int(group.sum()))
        for i, c, sizes in zip(np.flatnonzero(group), centroids, counts):
            best = max(range(cfg.clusters), key=lambda m: (sizes[m], c[m, 2], -m))
            out[i] = c[best] / np.linalg.norm(c[best])
    for i in np.flatnonzero(~clustered):
        flat = normals[i][flat_mask[i]]
        if len(flat) == 0:
            out[i] = ZENITH
        else:
            mean = flat.mean(axis=0)
            out[i] = mean / np.linalg.norm(mean)
    return out.reshape(partition.edge_mask.shape[:-2] + (3,))


def normal_consistency(field: NormalField, reference: Array) -> Array:
    """Cosine agreement of every pixel's normal with a reference direction;
    in a stack, of each map's normals with that map's own reference."""
    maps = field.normals.reshape(-1, *field.normals.shape[-3:])
    out = np.empty(maps.shape[:-1])
    for normals, r, cosines in zip(maps, reference.reshape(-1, 3), out):
        np.matmul(normals, r, out=cosines)
    return out.reshape(field.normals.shape[:-1])


def adaptive_gate(consistency, gate: GateParams = GateParams()) -> Tensor:
    """Squash consistency through sigma(gain * c + bias)."""
    return sigmoid(add(mul(consistency, gate.gain), gate.bias))


def rectify_edges(raw_mask: Tensor, partition: EdgePartition) -> GeoMask:
    """Reset ambiguous edge pixels to the neutral attention value 0.5."""
    return GeoMask(masked_fill(raw_mask, partition.edge_mask, 0.5))


def modulate(features: Tensor, mask: GeoMask) -> Tensor:
    """Amplify features by ``1 + mask``, broadcast over channels. An (H, W)
    mask is broadcast over the batch too; a (B, H, W) one holds one map per
    batch item."""
    h, w = features.data.shape[2:]
    m = reshape(mask.mask, (-1, 1, h, w))
    return mul(features, add(m, 1.0))


@dataclass(frozen=True)
class MaskGeometry:
    """The gate-independent part of a depth map's mask, at its own resolution.

    Built from a (B, H, W) stack of same-size maps, each field (and the edge
    threshold) is stacked on a leading axis, and ``mask`` gates them all as
    one (B, H, W) ``GeoMask``. One map is the same pass without the axis.
    """

    partition: EdgePartition
    reference: Array
    consistency: Array

    @classmethod
    def from_depth(cls, depth: DepthMap, cfg: FilterConfig = FilterConfig()) -> "MaskGeometry":
        """Gradients, normals, edge split, dominant normal and consistency,
        each stage once for every map of a stack."""
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
