"""The benchmark's three workloads: inputs from the workload seed, one op, checks.

Each op draws its input from a fixed, finite universe of op seeds, in an
order the workload seed shuffles. ``reference.json`` holds the outputs of
every input in every universe, recorded at the commit that defined the
benchmark, so the reference comparison applies on every workload seed.

An op's output is verified with code of the benchmark's own (it never calls
back into the package, which would also show in a traced run). ``verify``
returns a summary, which must be identical between a traced and an untraced
run of the same op, and the list of problems found; an empty list passes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

# Ops call the package through its modules' attributes, so a tracer that
# rebinds them sees every entry point.
from geoalign import checks, cli, retrieval
from geoalign.checks import LOSS_NAMES, PARAM_GROUPS
from geoalign.formats import write_f64_raster
from geoalign.retrieval import ARMS
from geoalign.scenes import facade_heavy_spec, render_oblique

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Tolerances on float outputs against the recorded reference. Integer
# outputs (ranks, edge counts, finite-difference evaluation counts) must
# match exactly.
RETRIEVAL_REL_TOL = 1e-12   # recall and mAP derive from the integer ranks
GRADCHECK_ABS_TOL = 1e-6    # errors are finite-difference noise, ~1e-8
MASK_ABS_TOL = 1e-9         # dominant normal, edge threshold, mask statistics

# The gradcheck command's default tolerance on the relative error.
GRADCHECK_TOL = 1e-4
# Finite-difference probes per parameter group and scenario: min(3, size).
GRADCHECK_COORDS = {"mid_kernel": 3, "far_kernel": 3, "head_weights": 3,
                    "head_bias": 3, "gate_gain": 1, "gate_bias": 1,
                    "enc_dw1": 3, "enc_pw2": 3}


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


class _Workload:
    """Op inputs: the universe of op seeds in the order the workload seed gives."""

    name: str
    universe: int

    def __init__(self, seed: int, workdir: Path, reference: dict | None):
        order = np.random.default_rng(seed).permutation(self.universe)
        self.keys = [int(k) for k in order]
        self.reference = (reference or {}).get(self.name, {})

    def key(self, i: int) -> int:
        return self.keys[i % len(self.keys)]


class Retrieval(_Workload):
    """``run_experiment`` over 50 scenes and all four arms (``geoalign bench``).

    Forward-only autodiff on 64-channel 16x16 tensors: 100 renders, 400
    ``embed`` calls and 200 masks per op.
    """

    name = "retrieval"
    universe = 48
    trace_ops = 4
    n_scenes = 50

    def op(self, i: int):
        return retrieval.run_experiment(n_scenes=self.n_scenes, seed=self.key(i), arms=ARMS)

    def verify(self, i: int, reports) -> tuple[dict, list[str]]:
        problems = []
        summary = {}
        if tuple(reports) != ARMS:
            return {}, [f"arms {tuple(reports)} != {ARMS}"]
        for arm in ARMS:
            report = reports[arm]
            ranks = np.asarray(report.ranks)
            summary[arm] = {"ranks": [int(r) for r in report.ranks],
                            "recall_at_1": report.recall_at_1,
                            "recall_at_5": report.recall_at_5,
                            "mean_ap": report.mean_ap}
            if report.n_queries != self.n_scenes or ranks.shape != (self.n_scenes,):
                problems.append(f"{arm}: {ranks.shape} ranks for {report.n_queries} queries")
                continue
            if ranks.min() < 1 or ranks.max() > self.n_scenes:
                problems.append(f"{arm}: ranks outside 1..{self.n_scenes}")
            recomputed = {"recall_at_1": float((ranks <= 1).mean()),
                          "recall_at_5": float((ranks <= 5).mean()),
                          "mean_ap": float((1.0 / ranks.astype(np.float64)).mean())}
            for field, value in recomputed.items():
                if summary[arm][field] != value:
                    problems.append(f"{arm}: {field} {summary[arm][field]!r} != "
                                    f"{value!r} recomputed from the ranks")
        expected = self.reference.get(str(self.key(i)))
        if expected is not None:
            problems += _compare_retrieval(summary, expected)
        return summary, problems

    def reference_entry(self, summary: dict) -> dict:
        return summary


def _compare_retrieval(summary: dict, expected: dict) -> list[str]:
    problems = []
    for arm in ARMS:
        if summary[arm]["ranks"] != expected[arm]["ranks"]:
            problems.append(f"{arm}: ranks differ from the reference")
        for field in ("recall_at_1", "recall_at_5", "mean_ap"):
            got, want = summary[arm][field], expected[arm][field]
            if not math.isclose(got, want, rel_tol=RETRIEVAL_REL_TOL, abs_tol=0.0):
                problems.append(f"{arm}: {field} {got!r} != reference {want!r}")
    return problems


class Gradcheck(_Workload):
    """One scenario of ``run_gradient_checks`` (``geoalign gradcheck``).

    Dispatch-bound forward and ``Tape.backward`` on 8x8x4 tensors; the only
    workload that runs ``losses``, ``checks`` and the reverse pass.
    """

    name = "gradcheck"
    universe = 256
    trace_ops = 32

    def op(self, i: int):
        return checks.run_gradient_checks(base_seed=self.key(i), n_seeds=1)

    def verify(self, i: int, rows) -> tuple[dict, list[str]]:
        summary = {"rows": [[r.group, r.loss, r.max_rel_err, r.n_evals] for r in rows]}
        expected_pairs = [[g, l] for g in PARAM_GROUPS for l in LOSS_NAMES]
        if [row[:2] for row in summary["rows"]] != expected_pairs:
            return summary, [f"rows {[row[:2] for row in summary['rows']]} "
                             f"!= {expected_pairs}"]
        problems = []
        for group, loss, err, n_evals in summary["rows"]:
            if not err < GRADCHECK_TOL:
                problems.append(f"{group}/{loss}: error {err!r} >= {GRADCHECK_TOL}")
            if n_evals != GRADCHECK_COORDS[group]:
                problems.append(f"{group}/{loss}: {n_evals} evaluations for "
                                f"{GRADCHECK_COORDS[group]} sampled coordinates")
        expected = self.reference.get(str(self.key(i)))
        if expected is not None:
            for (group, loss, err, _), want in zip(summary["rows"], expected):
                if abs(err - want) > GRADCHECK_ABS_TOL:
                    problems.append(f"{group}/{loss}: error {err!r} != reference {want!r}")
        return summary, problems

    def reference_entry(self, summary: dict) -> list[float]:
        # Four significant digits are ample against the absolute tolerance.
        return [float(f"{row[2]:.3e}") for row in summary["rows"]]


class MaskNative(_Workload):
    """``geoalign mask`` in process, default flags, on 128x128 oblique renders.

    ``structure_filter`` at native resolution plus the GEOD/PGM/CSV writes of
    ``formats``; k-means dominates. The autodiff encoder and the reverse pass
    never run. Set-up renders every input of the universe and writes it as a
    GEOD file into ``workdir``, where the op also writes its outputs; ops
    cycle through them, so every seed runs nearly the same mix of scenes.
    """

    name = "mask_native"
    universe = 64
    raster = (128, 128)
    trace_ops = 32
    float_fields = ("n_dom_x", "n_dom_y", "n_dom_z", "tau_grad",
                    "mask_mean", "mask_min", "mask_max")

    def __init__(self, seed: int, workdir: Path, reference: dict | None):
        super().__init__(seed, workdir, reference)
        self.workdir = workdir
        self.paths = []
        for j, key in enumerate(self.keys):
            depth, _ = render_oblique(facade_heavy_spec(key, raster=self.raster))
            path = workdir / f"in{j}.depth.geod"
            write_f64_raster(path, depth.values)
            self.paths.append(path)

    def _prefix(self, i: int) -> Path:
        return self.workdir / f"out{i % len(self.keys)}"

    def op(self, i: int):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["mask", str(self.paths[i % len(self.paths)]),
                             str(self._prefix(i))])
        return code, stdout.getvalue()

    def verify(self, i: int, outcome) -> tuple[dict, list[str]]:
        code, stdout = outcome
        if code != 0:
            return {"exit": code}, [f"exit code {code}"]
        prefix = self._prefix(i)
        files = {suffix: Path(f"{prefix}.{suffix}").read_bytes()
                 for suffix in ("mask.geod", "mask.pgm", "stats.csv")}
        summary = {"exit": code, "stdout": stdout,
                   "sha256": {k: hashlib.sha256(v).hexdigest() for k, v in files.items()}}
        problems = []
        mask = _parse_geod(files["mask.geod"])
        pgm = _parse_pgm(files["mask.pgm"])
        header, row = files["stats.csv"].decode("utf-8").splitlines()
        stats = dict(zip(header.split(","), row.split(",")))
        n_edges, n_flat = int(stats["n_edges"]), int(stats["n_flat"])
        floats = {field: float(stats[field]) for field in self.float_fields}
        h, w = self.raster
        if mask.shape != (h, w) or pgm.shape != (h, w):
            return summary, [f"mask {mask.shape} / preview {pgm.shape} != {(h, w)}"]
        if not (mask.min() > 0.0 and mask.max() < 1.0):
            problems.append(f"mask leaves (0, 1): [{mask.min()!r}, {mask.max()!r}]")
        if n_edges + n_flat != h * w:
            problems.append(f"n_edges + n_flat = {n_edges + n_flat} != {h * w}")
        # Edge pixels carry exactly 0.5; the gate's sigmoid never lands on it.
        if int((mask == 0.5).sum()) != n_edges:
            problems.append(f"{int((mask == 0.5).sum())} pixels at 0.5 for {n_edges} edges")
        if np.abs(pgm / 255.0 - mask).max() > 1.0 / 510.0 + 1e-12:
            problems.append("PGM preview disagrees with the mask by more than 1/510")
        for field, value in (("mask_mean", mask.mean()), ("mask_min", mask.min()),
                             ("mask_max", mask.max())):
            if floats[field] != float(value):
                problems.append(f"{field} {floats[field]!r} != {float(value)!r} from the mask")
        normal = [floats["n_dom_x"], floats["n_dom_y"], floats["n_dom_z"]]
        if abs(math.hypot(*normal) - 1.0) > 1e-9:
            problems.append(f"dominant normal {normal} is not unit length")
        summary["stats"] = {"n_edges": n_edges, "n_flat": n_flat, **floats}
        expected = self.reference.get(str(self.key(i)))
        if expected is not None:
            for field in ("n_edges", "n_flat"):
                if summary["stats"][field] != expected[field]:
                    problems.append(f"{field} {summary['stats'][field]} != "
                                    f"reference {expected[field]}")
            for field in self.float_fields:
                if abs(floats[field] - expected[field]) > MASK_ABS_TOL:
                    problems.append(f"{field} {floats[field]!r} != reference "
                                    f"{expected[field]!r}")
        return summary, problems

    def reference_entry(self, summary: dict) -> dict:
        return summary["stats"]

def _parse_geod(data: bytes) -> np.ndarray:
    header, _, payload = data.partition(b"\n")
    magic, version, h, w = header.split()
    if magic != b"GEOD" or version != b"1":
        raise ValueError(f"not a GEOD raster: {header!r}")
    return np.frombuffer(payload, dtype="<f8").reshape(int(h), int(w))


def _parse_pgm(data: bytes) -> np.ndarray:
    magic, size, maxval, payload = data.split(b"\n", 3)
    w, h = (int(v) for v in size.split())
    if magic != b"P5" or maxval != b"255":
        raise ValueError("not an 8-bit binary PGM")
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w).astype(np.float64)


WORKLOADS = {cls.name: cls for cls in (Retrieval, Gradcheck, MaskNative)}
