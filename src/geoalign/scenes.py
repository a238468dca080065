"""Procedural box-city scenes with ground-truth surface labels.

A scene is a flat ground plane plus axis-aligned boxes. The orthographic
render looks straight down: box footprints are rooftops at ``ground - height``
and no vertical surface is visible. The oblique render adds a global linear
tilt to the depth field and, on each box's tilt-facing sides, a facade strip
that ramps from roof depth back down to ground depth — the ramp is always
strictly steeper than the tilt, so facades are the view-dependent, steep
structures a geometric mask is supposed to suppress.

Labels distinguish GROUND, ROOF, FACADE and an ambiguous EDGE class near
depth breaks. ``mask_quality`` turns a mask plus labels into a balanced
accuracy over the horizontal-vs-facade decision, excluding EDGE pixels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .autodiff import Array
from .structure_filter import DepthMap, GeoMask


class Label(IntEnum):
    GROUND = 0
    ROOF = 1
    FACADE = 2
    EDGE = 3


# Facade strips: width scales with height over tilt magnitude, capped so the
# ramp from roof to ground stays steep, and shrunk further until the ramp
# both beats the tilt and clears a steepness floor. The floor keeps facade
# normals decisively far from vertical: a ramp of g per pixel has normal
# z-component 1/sqrt(1+g^2), so g >= 2.2 keeps it below 0.42, well clear of
# any plausible horizontal plane.
FACADE_WIDTH_COEFF = 0.03
FACADE_WIDTH_MAX = 8
FACADE_RAMP_MIN = 2.2


@dataclass(frozen=True)
class Box:
    """Axis-aligned footprint (x = column, y = row) with a positive height."""

    x: int
    y: int
    w: int
    h: int
    height: float

    def __post_init__(self):
        if self.w < 1 or self.h < 1:
            raise ValueError(f"footprint must be at least 1x1, got {self.w}x{self.h}")
        if self.height <= 0.0:
            raise ValueError(f"box height must be positive, got {self.height}")


def check_spec_field(name: str, value) -> None:
    """Raise ``ValueError`` if the ``SceneSpec`` field ``name`` breaks a rule
    of its own. The rules that compare fields (the slope's tilt on the raster,
    box bounds, box depth, box overlap) are checked by ``SceneSpec`` alone."""
    if name == "raster" and min(value) < 4:
        raise ValueError(f"raster too small: {value}")
    if name == "raster" and value[0] * value[1] * 8 > np.iinfo(np.intp).max:
        raise ValueError(f"raster too large: {value} is past NumPy's array size limit")
    if name == "noise_sigma" and value < 0.0:
        raise ValueError(f"noise sigma must be >= 0, got {value}")
    if name == "edge_band" and value < 1:
        raise ValueError(f"edge band must be >= 1, got {value}")
    if name == "rng_seed" and value < 0:
        raise ValueError(f"seed must be >= 0, got {value}")


def _first_overlap(boxes: tuple[Box, ...]) -> tuple[int, int] | None:
    """The first pair ``(i, j)`` in pair-scan order whose footprints overlap, or None.
    Boxes are laid last to first on the grid cut at their edges (no larger than the
    raster); each cell keeps the lowest index laid on it, so the cells under box ``i``
    name the first later box it overlaps, and the last hit is the scan's first pair."""
    col = {x: i for i, x in enumerate(sorted({x for b in boxes for x in (b.x, b.x + b.w)}))}
    row = {y: i for i, y in enumerate(sorted({y for b in boxes for y in (b.y, b.y + b.h)}))}
    n = len(boxes)
    lowest = np.full((len(row), len(col)), n, dtype=np.min_scalar_type(n))
    pair = None
    for i, b in reversed(list(enumerate(boxes))):
        cells = lowest[row[b.y]:row[b.y + b.h], col[b.x]:col[b.x + b.w]]
        if (j := int(cells.min())) < n:
            pair = (i, j)
        cells[...] = i
    return pair


@dataclass(frozen=True)
class SceneSpec:
    """Complete description of a synthetic scene; rendering is a pure function
    of this value."""

    ground_depth: float
    boxes: tuple[Box, ...]
    oblique_slope: tuple[float, float] = (0.0, 0.0)
    raster: tuple[int, int] = (64, 64)
    noise_sigma: float = 0.0
    rng_seed: int = 0
    edge_band: int = 2

    def __post_init__(self):
        object.__setattr__(self, "boxes", tuple(self.boxes))
        object.__setattr__(self, "oblique_slope",
                           (float(self.oblique_slope[0]), float(self.oblique_slope[1])))
        for name in ("raster", "noise_sigma", "edge_band", "rng_seed"):
            check_spec_field(name, getattr(self, name))
        h, w = self.raster
        sx, sy = self.oblique_slope
        if not math.isfinite(abs(self.ground_depth) + abs(sx) * (w - 1) + abs(sy) * (h - 1)):
            raise ValueError(f"slope {sx} {sy} tilts the ground plane past the float64 "
                             f"range on the {w}x{h} raster")
        for i, box in enumerate(self.boxes):
            if box.x < 0 or box.y < 0 or box.x + box.w > w or box.y + box.h > h:
                raise ValueError(f"box {i} leaves the {w}x{h} raster: {box}")
            # A conservative bound on every rendered depth, like the tilt rule.
            if not math.isfinite(abs(self.ground_depth - box.height)
                                 + abs(sx) * (w - 1) + abs(sy) * (h - 1)):
                raise ValueError(f"box {i} of height {box.height} puts depth past "
                                 f"the float64 range on the {w}x{h} raster")
        if len(self.boxes) > 1 and (pair := _first_overlap(self.boxes)):
            raise ValueError("boxes %d and %d overlap" % pair)


@dataclass(frozen=True)
class LabelMap:
    labels: Array

    def __post_init__(self):
        arr = np.asarray(self.labels, dtype=np.uint8)
        if arr.ndim != 2:
            raise ValueError(f"labels must be 2-d, got shape {arr.shape}")
        if arr.max(initial=0) > max(Label):
            raise ValueError("unknown label value")
        object.__setattr__(self, "labels", arr)

    @property
    def shape(self) -> tuple[int, int]:
        return self.labels.shape


class NotEvaluableError(ValueError):
    """Raised when a scene has no scoreable facade content."""


def _base_scene(spec: SceneSpec) -> tuple[Array, Array]:
    h, w = spec.raster
    depth = np.full((h, w), spec.ground_depth, dtype=np.float64)
    labels = np.full((h, w), Label.GROUND, dtype=np.uint8)
    for box in spec.boxes:
        depth[box.y:box.y + box.h, box.x:box.x + box.w] = spec.ground_depth - box.height
        labels[box.y:box.y + box.h, box.x:box.x + box.w] = Label.ROOF
    return depth, labels


def _add_noise(depth: Array, spec: SceneSpec) -> Array:
    """``depth`` plus seeded Gaussian noise; raises, naming the sigma, when a
    draw or a sum leaves the float64 range."""
    rng = np.random.default_rng(spec.rng_seed)
    with np.errstate(over="ignore"):  # the check below names the cause
        noisy = depth + rng.normal(0.0, spec.noise_sigma, depth.shape)
    if not np.isfinite(noisy).all():
        h, w = spec.raster
        raise ValueError(f"noise {spec.noise_sigma} pushes depth past the float64 "
                         f"range on the {w}x{h} raster")
    return noisy


def render_ortho(spec: SceneSpec) -> tuple[DepthMap, LabelMap]:
    """Straight-down view: rooftops and ground only, with a one-pixel EDGE
    ring just outside each footprint marking the depth discontinuity."""
    depth, labels = _base_scene(spec)
    roof = labels == Label.ROOF
    labels[_dilate(roof, 1) & ~roof] = Label.EDGE
    return DepthMap(_add_noise(depth, spec)), LabelMap(labels)


def facade_width(height: float, slope: tuple[float, float]) -> int:
    """Pixel width of a facade strip for a box of this height under a nonzero
    slope (``render_oblique`` renders a zero slope without strips).

    Proportional to height over tilt magnitude, clamped to keep the strip
    narrow, then shrunk until the roof-to-ground ramp ``height / (width + 1)``
    is strictly steeper than both the tilt and the ``FACADE_RAMP_MIN``
    steepness floor.
    """
    mag = math.hypot(*slope)
    floor = max(mag, FACADE_RAMP_MIN)
    # The ratio is inf for a tiny tilt or a huge box; ``min`` caps it first.
    width = max(1, round(min(FACADE_WIDTH_COEFF * height / mag, FACADE_WIDTH_MAX)))
    while width > 1 and height / (width + 1) <= floor:
        width -= 1
    return width


def _dilate(mask: Array, radius: int) -> Array:
    """``mask`` grown by ``radius`` pixels (Chebyshev). A shift past an axis
    reaches no pixel, so each axis's offsets are clipped to its length."""
    h, w = mask.shape
    ry, rx = (max(0, min(radius, n - 1)) for n in (h, w))
    out = np.zeros_like(mask)
    for dy in range(-ry, ry + 1):
        for dx in range(-rx, rx + 1):
            ys = slice(max(dy, 0), h + min(dy, 0))
            yd = slice(max(-dy, 0), h + min(-dy, 0))
            xs = slice(max(dx, 0), w + min(dx, 0))
            xd = slice(max(-dx, 0), w + min(-dx, 0))
            out[yd, xd] |= mask[ys, xs]
    return out


def render_oblique(spec: SceneSpec) -> tuple[DepthMap, LabelMap]:
    """Tilted view: global linear depth ramp plus facade strips.

    Each box grows a FACADE strip on the side its nonzero slope component
    points toward; the strip's depth ramps from roof depth back to ground
    depth and is strictly steeper than the tilt. Pixels within ``edge_band``
    of any label transition are relabeled EDGE — including the rims of the
    strip itself, whose gradients blend with the neighbouring surfaces and
    are genuinely ambiguous. Strip pixels within ``edge_band`` of the raster
    border are relabeled the same way: a strip running off the raster is cut
    mid-ramp, so its outermost pixels lack the context that makes a ramp
    measurable, exactly like a transition rim. Flat surfaces at the border
    keep their labels. A zero slope degenerates to the orthographic render,
    bit for bit.
    """
    sx, sy = spec.oblique_slope
    if sx == 0.0 and sy == 0.0:
        return render_ortho(spec)
    depth, labels = _base_scene(spec)
    h, w = spec.raster
    for box in spec.boxes:
        width = facade_width(box.height, spec.oblique_slope)
        roof = spec.ground_depth - box.height
        step = box.height / (width + 1)
        # The sy strip is the sx strip of the transposed views.
        for slope, d_view, l_view, lo, length, across in (
                (sx, depth, labels, box.x, box.w, slice(box.y, box.y + box.h)),
                (sy, depth.T, labels.T, box.y, box.h, slice(box.x, box.x + box.w))):
            if slope == 0.0:
                continue
            d = np.arange(1, width + 1)
            cols = lo + length - 1 + d if slope > 0 else lo - d
            inside = (cols >= 0) & (cols < d_view.shape[1])
            cols, d = cols[inside], d[inside]
            writable = l_view[across, cols] != Label.ROOF
            d_view[across, cols] = np.where(writable, roof + step * d, d_view[across, cols])
            l_view[across, cols] = np.where(writable, Label.FACADE, l_view[across, cols])
    across = labels[:, 1:] != labels[:, :-1]
    down = labels[1:, :] != labels[:-1, :]
    boundary = np.zeros((h, w), dtype=bool)
    boundary[:, 1:] |= across
    boundary[:, :-1] |= across
    boundary[1:, :] |= down
    boundary[:-1, :] |= down
    labels[_dilate(boundary, spec.edge_band - 1)] = Label.EDGE
    eb = spec.edge_band
    border_facade = labels == Label.FACADE
    border_facade[eb:h - eb, eb:w - eb] = False
    labels[border_facade] = Label.EDGE
    depth = (depth + sx * np.arange(w, dtype=np.float64)
             + sy * np.arange(h, dtype=np.float64)[:, None])
    return DepthMap(_add_noise(depth, spec)), LabelMap(labels)


def pool_labels(labels: LabelMap, h: int, w: int) -> tuple[Array, Array]:
    """Majority-vote labels down to (h, w); returns (pooled, scoreable).

    Bins where EDGE holds at least a plurality are marked unscoreable. Among
    the other classes, ties break toward FACADE, then ROOF, then GROUND.
    """
    src_h, src_w = labels.shape
    if src_h % h or src_w % w:
        raise ValueError(
            f"label raster {labels.shape} does not pool evenly to {(h, w)}"
        )
    blocks = labels.labels.reshape(h, src_h // h, w, src_w // w)
    counts = np.stack([(blocks == lab).sum(axis=(1, 3))
                       for lab in (Label.GROUND, Label.ROOF, Label.FACADE,
                                   Label.EDGE)])
    scoreable = counts[3] < counts[:3].max(axis=0)
    priority = np.stack([counts[2], counts[1], counts[0]])  # FACADE, ROOF, GROUND
    pick = np.asarray(np.argmax(priority, axis=0))
    pooled = np.array([Label.FACADE, Label.ROOF, Label.GROUND],
                      dtype=np.uint8)[pick]
    pooled[~scoreable] = Label.EDGE
    return pooled, scoreable


def mask_quality(mask, labels: LabelMap) -> float:
    """Balanced accuracy of the horizontal-vs-facade decision ``mask > 0.5``.

    Labels are majority-pooled to the mask resolution and EDGE-dominant bins
    are excluded. Raises :class:`NotEvaluableError` when nothing facade-like
    (or nothing horizontal) survives pooling.
    """
    values = mask.values if isinstance(mask, GeoMask) else np.asarray(mask, dtype=np.float64)
    mh, mw = values.shape
    pooled, scoreable = pool_labels(labels, mh, mw)
    facade = scoreable & (pooled == Label.FACADE)
    horizontal = scoreable & ((pooled == Label.ROOF) | (pooled == Label.GROUND))
    if not facade.any():
        raise NotEvaluableError("not evaluable: no facade pixels to score")
    if not horizontal.any():
        raise NotEvaluableError("not evaluable: no horizontal pixels to score")
    predicted_horizontal = values > 0.5
    recall_h = float((predicted_horizontal & horizontal).sum() / horizontal.sum())
    recall_f = float((~predicted_horizontal & facade).sum() / facade.sum())
    return 0.5 * (recall_h + recall_f)


def class_mask_means(mask, labels: LabelMap) -> dict[str, float]:
    """Mean mask value per pooled label class (nan for absent classes)."""
    values = mask.values if isinstance(mask, GeoMask) else np.asarray(mask, dtype=np.float64)
    pooled, _ = pool_labels(labels, *values.shape)
    means = {}
    for lab in Label:
        sel = pooled == lab
        means[lab.name.lower()] = float(values[sel].mean()) if sel.any() else float("nan")
    return means


# Anchor corners for the three footprint slots. Jittering positions within
# +/-4 and side lengths within [12, 17] keeps the slots pairwise disjoint and
# inside a 64x64 raster while letting every scene differ in footprint shape.
_SLOT_ANCHORS = ((8, 10), (36, 34), (10, 38))
_SLOT_JITTER = 4
_SIDE_RANGE = (12, 17)
_HEIGHT_RANGE = (15.0, 34.0)


def facade_heavy_spec(seed: int, raster: tuple[int, int] = (64, 64)) -> SceneSpec:
    """Seeded scene with tall boxes and wide, steep facade strips.

    The tilt is kept gentle while strip widths sit at their cap, so the
    view-dependent content of an oblique render is dominated by facades —
    exactly the part a geometric mask can suppress. Every facade ramp is at
    least ~1.5 depth units per pixel, far steeper than the tilt, and strips
    are wide enough that their interiors survive the dilated gradient
    stencil. Footprint positions and side lengths are jittered per scene so
    the gallery stays distinguishable.
    """
    rng = np.random.default_rng(seed)
    mag = rng.uniform(0.025, 0.04)
    theta = rng.uniform(0.25, 1.32)
    sign_x = 1.0 if rng.integers(2) else -1.0
    sign_y = 1.0 if rng.integers(2) else -1.0
    slope = (sign_x * mag * math.cos(theta), sign_y * mag * math.sin(theta))
    boxes = []
    for ax, ay in _SLOT_ANCHORS:
        x = int(ax + rng.integers(-_SLOT_JITTER, _SLOT_JITTER + 1))
        y = int(ay + rng.integers(-_SLOT_JITTER, _SLOT_JITTER + 1))
        bw = int(rng.integers(_SIDE_RANGE[0], _SIDE_RANGE[1] + 1))
        bh = int(rng.integers(_SIDE_RANGE[0], _SIDE_RANGE[1] + 1))
        height = float(rng.uniform(*_HEIGHT_RANGE))
        boxes.append(Box(x, y, bw, bh, height))
    return SceneSpec(
        ground_depth=40.0,
        boxes=tuple(boxes),
        oblique_slope=slope,
        raster=raster,
        noise_sigma=0.02,
        rng_seed=seed,
    )
