"""Span tracer that measures geoalign's layers from outside the package.

The tracer replaces each traced function with a wrapper in every
``geoalign`` namespace that binds it: module globals (``conv2d`` is imported
by name into several modules), class attributes for methods, and function
defaults bound at definition time (``run_experiment``'s ``spec_fn``).
``Tensor`` constructions are traced by wrapping ``Tensor.__init__``, so
``isinstance`` checks keep working. No file of the package changes.

Each call records one span (``SPAN_FIELDS``) in memory, as seven float64s;
``count`` is a work measure computed from the arguments (``mflop``,
``points``, ``bytes`` or ``nodes``) for the layers that have one.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from array import array

import numpy as np

SPAN_FIELDS = ("span_id", "parent_id", "op_id", "layer", "t0_s", "t1_s", "count")

# Layers, by module, in report order. A dotted name is a method of a class.
LAYERS = {
    "autodiff": ("Tensor", "conv2d", "channel_project", "sigmoid",
                 "softmax_over_axis", "adaptive_avg_pool", "l2_normalize",
                 "Tape.backward"),
    "scenes": ("facade_heavy_spec", "render_ortho", "render_oblique"),
    "scale_fusion": ("depth_feature_stack", "scale_branches", "scale_weights",
                     "fuse"),
    "structure_filter": ("align_depth", "macro_gradient", "compute_normals",
                         "partition_edges", "dominant_normal",
                         "cluster_normals", "normal_consistency",
                         "adaptive_gate", "rectify_edges", "modulate",
                         "structure_mask"),
    "retrieval": ("detrend_depth", "standardize_stack", "ToyEncoder.forward",
                  "embed", "rank_gallery", "run_experiment"),
    "losses": ("partition_by_quantile", "aggregate_activation",
               "contrast_hinge", "soft_margin_triplet", "total_loss"),
    "checks": ("run_gradient_checks",),
    "formats": ("read_f64_raster", "write_f64_raster", "write_mask_pgm",
                "atomic_write_text"),
    "cli": ("main",),
}

# Entry points of the three workloads also report their inclusive time.
ENTRY_POINTS = ("retrieval.run_experiment", "checks.run_gradient_checks",
                "cli.main")


def _shape(args, kwargs, index, name):
    """Shape of an argument given positionally or by name, Tensor or array."""
    value = args[index] if len(args) > index else kwargs[name]
    return np.shape(getattr(value, "data", value))


def _conv2d_mflop(args, kwargs):
    # One multiply and one add per kernel tap per output element.
    b, c, h, w = _shape(args, kwargs, 0, "t")
    k = (args[1] if len(args) > 1 else kwargs["kernel"]).size
    return 2.0 * b * c * h * w * k * k / 1e6


def _channel_project_mflop(args, kwargs):
    b, c_in, h, w = _shape(args, kwargs, 0, "t")
    c_out = _shape(args, kwargs, 1, "weights")[0]
    return 2.0 * b * c_in * c_out * h * w / 1e6


def _cluster_points(args, kwargs):
    return float(_shape(args, kwargs, 0, "points")[0])


def _text_bytes(args, kwargs):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return float(len(text.encode("utf-8")))


def _tape_nodes(args, kwargs):
    return float(len(args[0]))


# Computed work counts: layer -> (stat name, unit, function of the arguments).
COUNTERS = {
    "autodiff.conv2d": ("mflop", "Mflop", _conv2d_mflop),
    "autodiff.channel_project": ("mflop", "Mflop", _channel_project_mflop),
    "autodiff.Tape.backward": ("nodes", "count", _tape_nodes),
    "structure_filter.cluster_normals": ("points", "count", _cluster_points),
    "formats.atomic_write_text": ("bytes", "bytes", _text_bytes),
}


def layer_names() -> list[str]:
    return [f"{module}.{name}" for module, names in LAYERS.items()
            for name in names]


def metric_specs() -> list[tuple[str, str]]:
    """``(metric name, unit)`` of every per-layer metric, in report order."""
    specs = []
    for layer in layer_names():
        specs.append((f"{layer}.calls", "count"))
        specs.append((f"{layer}.self_ms", "ms"))
        if layer in ENTRY_POINTS:
            specs.append((f"{layer}.total_ms", "ms"))
        if layer in COUNTERS:
            stat, unit, _ = COUNTERS[layer]
            specs.append((f"{layer}.{stat}", unit))
    return specs


def _package_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "geoalign" or name.startswith("geoalign."))]


def _package_functions():
    """Every plain function defined in the package, methods included."""
    seen = set()
    for mod in _package_modules():
        for value in list(vars(mod).values()):
            candidates = [value]
            if isinstance(value, type) and value.__module__.startswith("geoalign"):
                candidates = [getattr(v, "__func__", v) for v in vars(value).values()]
            for fn in candidates:
                fn = getattr(fn, "__wrapped__", fn)
                if (hasattr(fn, "__defaults__") and id(fn) not in seen
                        and fn.__module__.startswith("geoalign")):
                    seen.add(id(fn))
                    yield fn


class Tracer:
    """Wraps the layers, records spans, and restores everything on removal."""

    def __init__(self):
        self.layers = layer_names()
        self.spans = array("d")  # flat rows of SPAN_FIELDS
        self.op = 0
        self._ids = itertools.count(1)
        self._stack = [0]
        self._originals: dict[str, object] = {}
        self._wrappers: dict[str, object] = {}
        self._undo: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import geoalign  # noqa: F401  (loads every module of the package)

        for index, layer in enumerate(self.layers):
            module_name, _, qualname = layer.partition(".")
            module = sys.modules[f"geoalign.{module_name}"]
            counter = COUNTERS.get(layer, (None, None, None))[2]
            owner_name, _, method = qualname.partition(".")
            owner = getattr(module, owner_name)
            if isinstance(owner, type):
                # A method, or for a bare class its constructor: wrap it on the class.
                method = method or "__init__"
                original = vars(owner)[method]
                wrapper = self._wrap(index, original, counter)
                self._set(owner, method, wrapper)
            else:
                original = owner
                wrapper = self._wrap(index, original, counter)
                for mod in _package_modules():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, attr, wrapper)
            self._originals[layer] = original
            self._wrappers[layer] = wrapper
        replacements = {id(o): self._wrappers[k] for k, o in self._originals.items()}
        for fn in _package_functions():
            if fn.__defaults__ and any(id(v) in replacements for v in fn.__defaults__):
                self._undo.append((fn, "__defaults__", fn.__defaults__))
                fn.__defaults__ = tuple(replacements.get(id(v), v) for v in fn.__defaults__)
            kwdefaults = fn.__kwdefaults__ or {}
            if any(id(v) in replacements for v in kwdefaults.values()):
                self._undo.append((fn, "__kwdefaults__", kwdefaults))
                fn.__kwdefaults__ = {k: replacements.get(id(v), v)
                                     for k, v in kwdefaults.items()}

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def unwrapped_bindings(self) -> list[str]:
        """Places in the package that still reach a traced layer unwrapped."""
        originals = {id(o): layer for layer, o in self._originals.items()}
        found = []
        for mod in _package_modules():
            for attr, value in vars(mod).items():
                if id(value) in originals:
                    found.append(f"{mod.__name__}.{attr}")
                if isinstance(value, type) and value.__module__.startswith("geoalign"):
                    for cattr, cvalue in vars(value).items():
                        if id(cvalue) in originals:
                            found.append(f"{mod.__name__}.{attr}.{cattr}")
        for fn in _package_functions():
            for field in ("__defaults__", "__kwdefaults__"):
                defaults = getattr(fn, field) or ()
                values = defaults.values() if isinstance(defaults, dict) else defaults
                for value in values:
                    if id(value) in originals:
                        found.append(f"{fn.__module__}.{fn.__qualname__} default")
        return sorted(set(found))

    def _wrap(self, index, fn, counter):
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            count = counter(args, kwargs) if counter is not None else 0.0
            parent = stack[-1]
            span_id = next(ids)
            stack.append(span_id)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.extend((span_id, parent, self.op, index, t0, t1, count))

        return traced

    # -- results ------------------------------------------------------------

    def table(self) -> np.ndarray:
        """The spans as rows of ``SPAN_FIELDS``."""
        return np.array(self.spans, dtype=np.float64).reshape(-1, len(SPAN_FIELDS))

    def summarize(self, ops) -> dict[str, float]:
        """Per-op layer metrics over the spans of the given op ids."""
        ops = list(ops)
        span_id, parent, op, layer, t0, t1, count = self.table().T
        duration = t1 - t0
        ids = span_id.astype(np.int64)
        covered = np.bincount(parent.astype(np.int64), weights=duration,
                              minlength=int(ids.max(initial=0)) + 1)
        self_time = duration - covered[ids]
        chosen = np.isin(op, ops)
        index = layer[chosen].astype(np.int64)
        n = len(self.layers)

        def per_layer(weights=None):
            w = None if weights is None else weights[chosen]
            return np.bincount(index, weights=w, minlength=n) / len(ops)

        calls, self_ms = per_layer(), per_layer(self_time) * 1e3
        total_ms, counts = per_layer(duration) * 1e3, per_layer(count)
        out = {}
        for i, name in enumerate(self.layers):
            out[f"{name}.calls"] = float(calls[i])
            out[f"{name}.self_ms"] = float(self_ms[i])
            if name in ENTRY_POINTS:
                out[f"{name}.total_ms"] = float(total_ms[i])
            if name in COUNTERS:
                out[f"{name}.{COUNTERS[name][0]}"] = float(counts[i])
        return out

    def write(self, path) -> None:
        """Save the spans, times in seconds from the first, with the layer names."""
        table = self.table()
        if len(table):
            table[:, 4:6] -= table[:, 4].min()
        np.savez_compressed(path, spans=table, fields=np.array(SPAN_FIELDS),
                            layers=np.array(self.layers))
