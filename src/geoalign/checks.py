"""Finite-difference validation of every learnable-parameter group.

For a batch of seeded scenes the harness builds the full differentiable
path — encoder, scale fusion, geometric gate, feature modulation — down to
three scalar losses (activation contrast, soft-margin triplet, and their
sum), then compares analytic gradients against central finite differences
at sampled coordinates of each parameter group.

Two things are deliberately frozen per scene so the compared function is
smooth: the depth-derived ``MaskGeometry`` (edge set, dominant normal,
consistency field), which is data rather than parameters, and the
stable/unstable activation partition, which is computed once from that
geometry's mask under the initial gate. Relative error uses
``|ga - gf| / max(|ga|, |gf|, floor)`` with a floor of 1e-3, so near-zero
gradients are compared absolutely at that scale instead of amplifying
finite-difference noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import product

import numpy as np

from .autodiff import (
    NOT_FINITE,
    Array,
    Tape,
    Tensor,
    float_policy,
    reshape,
    select_index,
)
from .losses import (
    ActivationPartition,
    ContrastReport,
    contrast_loss,
    partition_by_quantile,
    soft_margin_triplet,
    total_loss,
)
from .retrieval import ToyEncoder, pooled_embeddings, standardize_stack
from .scale_fusion import (
    FusionParams,
    depth_feature_stack,
    fuse,
    scale_branches,
    scale_weights,
)
from .scenes import facade_heavy_spec, render_oblique, render_ortho
from .structure_filter import (
    EdgePartition,
    GateParams,
    GeoMask,
    MaskGeometry,
    align_depth,
    modulate,
)

LOSS_NAMES = ("contrast", "triplet", "total")
PARAM_GROUPS = (
    "mid_kernel",
    "far_kernel",
    "head_weights",
    "head_bias",
    "gate_gain",
    "gate_bias",
    "enc_dw1",
    "enc_pw2",
)
REL_ERR_FLOOR = 1e-3
_GRID = (8, 8)
_CHANNELS = 4
_POOL = 2
# The parts of ``_losses`` that a probe may leave unchanged, and the parameter
# groups each one reads.
_PART_GROUPS = {
    "features": ("enc_dw1", "enc_pw2"),
    "branches": ("enc_dw1", "enc_pw2", "mid_kernel", "far_kernel"),
    "weights": ("head_weights", "head_bias"),
    "mask": ("gate_gain", "gate_bias"),
}


@dataclass(frozen=True)
class GradientCheck:
    """Worst observed analytic-vs-finite-difference disagreement."""

    group: str
    loss: str
    max_rel_err: float
    n_evals: int


@dataclass(frozen=True)
class _Scenario:
    """One scene triple: the anchor (oblique render of scene A), the positive
    (ortho render of A) and the negative (ortho render of scene B), stacked in
    that order as a batch of three so each pass runs once for all of them."""

    encoder: ToyEncoder
    stack: Tensor  # (3, DEPTH_CHANNELS, H, W); it has no tape, so no pass writes to it
    geometry: MaskGeometry  # the three maps' geometries, stacked in the same order
    contrast_partition: ActivationPartition
    params: dict[str, Array]
    margin: float  # of the contrast hinge
    # Parts computed from ``params`` itself, keyed by part name. ``replace``
    # hands the same dict on, so it lives as long as the scenario.
    prefix: dict = field(default_factory=dict, compare=False, repr=False)


def _build_scenario(seed: int) -> _Scenario:
    rng = np.random.default_rng(seed)
    seed_a, seed_b = (int(s) for s in rng.integers(0, 2**31 - 1, size=2))
    spec_a, spec_b = facade_heavy_spec(seed_a), facade_heavy_spec(seed_b)
    depths = (render_oblique(spec_a)[0], render_ortho(spec_a)[0], render_ortho(spec_b)[0])
    # Each map is standardized on its own, as ``embed`` does, before stacking.
    stack = Tensor(np.concatenate(
        [standardize_stack(depth_feature_stack(depth, *_GRID)) for depth in depths]))
    maps = [MaskGeometry.from_depth(align_depth(depth, *_GRID)) for depth in depths]
    geometry = MaskGeometry(
        EdgePartition(np.stack([g.partition.edge_mask for g in maps]),
                      np.array([g.partition.threshold for g in maps])),
        np.stack([g.reference for g in maps]),
        np.stack([g.consistency for g in maps]))
    encoder = ToyEncoder.seeded(seed, channels=_CHANNELS)
    params = {
        "mid_kernel": 1.0 / 9.0 + rng.normal(0.0, 0.02, (_CHANNELS, 3, 3)),
        "far_kernel": 1.0 / 9.0 + rng.normal(0.0, 0.02, (_CHANNELS, 3, 3)),
        "head_weights": rng.normal(0.0, 0.15, (3, 3)),
        "head_bias": rng.normal(0.0, 0.05, 3),
        "gate_gain": np.array(5.0 + rng.normal(0.0, 0.25)),
        "gate_bias": np.array(-2.5 + rng.normal(0.0, 0.25)),
        "enc_dw1": encoder.dw1.copy(),
        "enc_pw2": encoder.pw2.copy(),
    }
    baseline_gate = GateParams(float(params["gate_gain"]), float(params["gate_bias"]))
    # Neither region is empty: each takes 19 of the 64 pixels less the ties at
    # its threshold, and the one systematic tie, the edge value 0.5, is held by
    # at most 10 pixels. So each keeps 10 or more unless 10 non-edge gate values
    # tie bit for bit (tests/test_checks.py checks 200 scenarios).
    contrast_partition = partition_by_quantile(geometry.mask(baseline_gate).values[0])
    scenario = _Scenario(encoder, stack, geometry, contrast_partition, params, margin=0.5)
    # Stable regions out-activate unstable ones at the default margin, which
    # would park the contrast hinge at zero and reduce its gradient check to
    # 0 == 0. Raise the margin until the hinge is active with 0.5 of slack, so
    # the compared gradients are the real ones.
    _, (report,) = _losses([params], scenario)
    return replace(scenario, margin=max(0.5, report.v_stable - report.v_unstable + 0.5))


def _part(scenario: _Scenario, params: dict, name: str, fn, *args):
    """``fn(*args)``, computed once per scenario while every group it reads
    ``is`` the scenario's own array.

    A finite-difference probe copies the groups it leaves alone by reference,
    so those parts are the same floats as the stored ones. Identity, not
    ``id``, is compared: a freed probe array's ``id`` can come back. Taped
    leaves are never the scenario's arrays, so the taped pass reuses nothing.
    """
    if any(params[g] is not scenario.params[g] for g in _PART_GROUPS[name]):
        return fn(*args)
    if name not in scenario.prefix:
        scenario.prefix[name] = fn(*args)
    return scenario.prefix[name]


def _parts(params: dict, scenario: _Scenario) -> tuple[Tensor, ...]:
    """One parameter set's parts for the batch of three maps: the features,
    the mid and far branches, the scale weights and the gate values."""
    fusion = FusionParams(params["mid_kernel"], params["far_kernel"],
                          params["head_weights"], params["head_bias"])
    gate = GateParams(gain=params["gate_gain"], bias=params["gate_bias"])
    encoder = replace(scenario.encoder, dw1=params["enc_dw1"], pw2=params["enc_pw2"])
    x = scenario.stack
    features = _part(scenario, params, "features", encoder.forward, x)
    branches = _part(scenario, params, "branches", scale_branches, features, fusion)
    weights = _part(scenario, params, "weights", scale_weights, x, fusion)
    mask = _part(scenario, params, "mask", scenario.geometry.mask, gate)
    return (features, *branches, weights, mask.mask)


def _concat(parts: tuple[Tensor, ...]) -> Tensor:
    """The parts' batches, in order, as one; a lone part is itself, so a taped
    pass of one set records no extra op."""
    if len(parts) == 1:
        return parts[0]
    return Tensor(np.concatenate([part.data for part in parts]))


def _losses(param_sets: list[dict],
            scenario: _Scenario) -> tuple[dict[str, Tensor], list[ContrastReport]]:
    """The three losses of one scenario under each of P parameter sets, as
    (P,) tensors, and the anchor's contrast report per set.

    Each set's parts run on their own, and ``_part`` reuses those it leaves
    unchanged; the rest of the chain runs once for the parts concatenated into
    a batch of 3P maps. Every forward op works per map and every reduction of
    the losses per item, so a set's losses are the floats a pass of that set
    alone, or of each map alone, gives; only the shared parameters' gradients
    differ from a per-map pass, summed over the batch in one reduction.
    """
    p = len(param_sets)
    features, mid, far, weights, mask = (
        _concat(column) for column in zip(*(_parts(params, scenario) for params in param_sets)))
    edges = np.concatenate([scenario.geometry.partition.edge_mask] * p)
    features = modulate(fuse(features, (mid, far), weights), GeoMask(mask, edges))
    embeddings = reshape(pooled_embeddings(features, _POOL), (p, 3, -1))
    anchor_features = select_index(reshape(features, (p, 3, *features.shape[1:])), 1, 0)
    contrast, reports = contrast_loss(anchor_features, scenario.contrast_partition,
                                      scenario.margin)
    triplet = soft_margin_triplet(*(select_index(embeddings, 1, k) for k in range(3)))
    return {"contrast": contrast, "triplet": triplet,
            "total": total_loss(triplet, contrast)}, reports


def _analytic_gradients(scenario: _Scenario) -> dict[str, dict[str, Array]]:
    tape = Tape()
    leaves = {name: tape.leaf(arr) for name, arr in scenario.params.items()}
    losses, _ = _losses([leaves], scenario)
    gradients: dict[str, dict[str, Array]] = {}
    for loss_name in LOSS_NAMES:
        # Each loss reads every leaf, and backward overwrites each .grad it reaches.
        tape.backward(losses[loss_name])
        gradients[loss_name] = {name: leaf.grad.copy() for name, leaf in leaves.items()}
    tape._nodes.clear()  # its tensors refer back to it; unlinked, refcounting frees the pass
    return gradients


def _probe_losses(scenario: _Scenario, group: str, coords: list[int],
                  eps: float) -> dict[str, list[float]]:
    """The three losses at every probe of ``group``, as one batch: for each
    ``idx`` in ``coords``, coordinate ``idx`` shifted by ``+eps``, then by
    ``-eps``. Raises, naming the step size, the error that the first failing
    probe raises on its own: its shift is lost to rounding, or it overflows
    the forward pass."""
    base = scenario.params[group]
    probes = []
    for idx, step in product(coords, (eps, -eps)):
        arr = base.copy()
        arr.flat[idx] += step
        probes.append(arr)
        if arr.flat[idx] == base.flat[idx]:
            # Below the coordinate's float spacing: the finite difference
            # would read 0 whatever the gradient. A probe before it that
            # overflows fails first; this one runs the unshifted parameters.
            _run_probes(scenario, group, probes, eps)
            raise ValueError(f"step size {eps} is too small for the {group} probes "
                             f"(a shifted coordinate is unchanged)")
    return _run_probes(scenario, group, probes, eps)


def _run_probes(scenario: _Scenario, group: str, probes: list[Array],
                eps: float) -> dict[str, list[float]]:
    """The three losses with ``group`` set to each array of ``probes``, in
    one ``_losses`` batch."""
    # A step that overflows the forward pass surfaces as a degenerate value,
    # or as an invalid operation on an overflowed (non-finite) tensor.
    try:
        with np.errstate(over="ignore"):
            values, _ = _losses([{**scenario.params, group: arr} for arr in probes], scenario)
    except (ValueError, FloatingPointError) as exc:
        if len(probes) > 1:
            # The batch stops at its first failing op, which need not be its
            # first failing probe's: run each probe alone, in order, so that
            # the first to fail names the error.
            for arr in probes:
                _run_probes(scenario, group, [arr], eps)
        reason = exc if isinstance(exc, ValueError) else NOT_FINITE
        raise ValueError(f"step size {eps} is too large for the {group} probes "
                         f"({reason})") from None
    return {name: values[name].data.tolist() for name in LOSS_NAMES}


def run_gradient_checks(base_seed: int = 0, n_seeds: int = 20,
                        eps: float = 1e-5) -> list[GradientCheck]:
    """Compare analytic and central-difference gradients over seeded scenes.

    Returns one row per (parameter group, loss) with the maximum relative
    error observed across all seeds and sampled coordinates. Runs under the
    floating-point policy; the finite-difference probes let overflow through.
    """
    if n_seeds < 1:
        raise ValueError("need at least one seed")
    if not 0.0 < eps < np.inf:
        raise ValueError(f"step size must be positive and finite, got {eps}")
    worst = {(g, l): 0.0 for g in PARAM_GROUPS for l in LOSS_NAMES}
    n_evals = dict.fromkeys(PARAM_GROUPS, 0)  # a group's three losses share it
    with float_policy():
        seed_rng = np.random.default_rng(base_seed)
        for raw_seed in seed_rng.integers(0, 2**31 - 1, size=n_seeds):
            scenario = _build_scenario(int(raw_seed))
            analytic = _analytic_gradients(scenario)
            coord_rng = np.random.default_rng(int(raw_seed) + 1)
            for group in PARAM_GROUPS:
                size = scenario.params[group].size
                coords = [int(i) for i in coord_rng.choice(size, size=min(3, size),
                                                           replace=False)]
                values = _probe_losses(scenario, group, coords, eps)
                n_evals[group] += len(coords)
                for k, idx in enumerate(coords):
                    for loss_name in LOSS_NAMES:
                        plus, minus = values[loss_name][2 * k:2 * k + 2]
                        fd = (plus - minus) / (2.0 * eps)
                        ga = float(analytic[loss_name][group].flat[idx])
                        rel = abs(ga - fd) / max(abs(ga), abs(fd), REL_ERR_FLOOR)
                        worst[group, loss_name] = max(worst[group, loss_name], rel)
    return [
        GradientCheck(group, loss, worst[group, loss], n_evals[group])
        for group in PARAM_GROUPS
        for loss in LOSS_NAMES
    ]
