"""The benchmark's own tests: tracer coverage, traced-run fidelity, output contract.

Run from the root of a source checkout:

    python3 -m pytest -q geobench/test_geobench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from run import ROOT, import_package  # noqa: E402

workloads = import_package()
import tracer as tracer_module  # noqa: E402

import geoalign  # noqa: E402
from geoalign import autodiff, retrieval, scenes  # noqa: E402

COUNT_STATS = (".calls", ".mflop", ".points", ".bytes", ".nodes")


@pytest.fixture
def tracer():
    t = tracer_module.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.remove()


def _run_ops(workload, ops, tracer=None):
    """Run and verify ops; return their summaries."""
    summaries = []
    for i in ops:
        if tracer is not None:
            tracer.op = i + 1
        summary, problems = workload.verify(i, workload.op(i))
        assert problems == []
        summaries.append(summary)
    return summaries


def test_every_binding_is_wrapped(tracer):
    assert tracer.unwrapped_bindings() == []
    wrapper = autodiff.conv2d
    assert wrapper.__wrapped__ is not None
    binders = [mod.__name__ for mod in tracer_module._package_modules()
               if vars(mod).get("conv2d") is wrapper]
    assert len(binders) >= 4, binders
    assert retrieval.run_experiment.__wrapped__.__defaults__[-1] is scenes.facade_heavy_spec
    assert isinstance(autodiff.Tensor(1.0), geoalign.Tensor)


def test_unwrapped_binding_is_reported(tracer):
    from geoalign import structure_filter
    structure_filter.conv2d = structure_filter.conv2d.__wrapped__
    assert tracer.unwrapped_bindings() == ["geoalign.structure_filter.conv2d"]


def test_remove_restores_the_package():
    original = autodiff.conv2d
    default = retrieval.run_experiment.__defaults__
    t = tracer_module.Tracer()
    t.install()
    t.remove()
    assert autodiff.conv2d is original
    assert retrieval.run_experiment.__defaults__ == default
    assert "__wrapped__" not in vars(autodiff.Tensor.__init__)


@pytest.mark.parametrize("name,ops", [("retrieval", 1), ("gradcheck", 3),
                                      ("mask_native", 3)])
def test_traced_run_matches_untraced_and_counts_repeat(name, ops, tmp_path):
    reference = workloads.load_reference()
    workload = workloads.WORKLOADS[name](7, tmp_path, reference)
    untraced = _run_ops(workload, range(ops))
    counts = []
    for _ in range(2):
        t = tracer_module.Tracer()
        t.install()
        try:
            assert _run_ops(workload, range(ops), t) == untraced
        finally:
            t.remove()
        layer = t.summarize(range(1, ops + 1))
        counts.append({k: v for k, v in layer.items() if k.endswith(COUNT_STATS)})
    assert counts[0] == counts[1]
    backward_calls = counts[0]["autodiff.Tape.backward.calls"]
    assert (backward_calls > 0) == (name == "gradcheck")
    entry = {"retrieval": "retrieval.run_experiment", "gradcheck": "checks.run_gradient_checks",
             "mask_native": "cli.main"}[name]
    assert counts[0][f"{entry}.calls"] == 1.0


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_the_declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if trace else "end_to_end"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "gradcheck",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in spec[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_command_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "retrieval",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
