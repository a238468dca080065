"""The package root and the ``python -m geoalign`` process boundary."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import geoalign
from geoalign import autodiff, retrieval, scenes
from geoalign.formats import write_f64_raster, write_u8_raster

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SUBMODULES = ("autodiff", "checks", "cli", "formats", "losses", "retrieval",
              "scale_fusion", "scenes", "structure_filter")


def run_python(args, cwd):
    """Run the interpreter with ``src`` first on the import path."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))


class TestPackageRoot:
    def test_import_loads_every_submodule(self, tmp_path):
        code = ("import sys, geoalign; "
                "print(' '.join(sorted(m for m in sys.modules if m.startswith('geoalign.'))))")
        proc = run_python(["-c", code], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [f"geoalign.{name}" for name in SUBMODULES]

    def test_root_exports_only_tensor(self):
        assert geoalign.__all__ == ["Tensor"]
        assert geoalign.Tensor is autodiff.Tensor

    def test_scene_factory_is_the_last_run_experiment_default(self):
        assert retrieval.run_experiment.__defaults__[-1] is scenes.facade_heavy_spec

    def test_readme_library_example_runs(self, tmp_path):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Library example", 1)[1]
        code = section.split("```python\n", 1)[1].split("```", 1)[0]
        proc = run_python(["-c", code], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout.split()[-1]) >= 0.9


class TestModuleEntryPoint:
    def no_facade_pair(self, tmp_path):
        labels = np.zeros((8, 8), dtype=np.uint8)
        labels[:2] = 1  # roofs and ground only
        write_f64_raster(tmp_path / "m.geod", np.full((8, 8), 0.5))
        write_u8_raster(tmp_path / "l.geol", labels)
        return ["m.geod", "l.geol"]

    def test_help_exits_0(self, tmp_path):
        proc = run_python(["-m", "geoalign", "--help"], tmp_path)
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: geoalign")
        assert proc.stderr == ""

    @pytest.mark.parametrize("case, code", [("missing_file", 1), ("no_facades", 2)])
    def test_eval_failure_is_one_error_line(self, tmp_path, case, code):
        files = self.no_facade_pair(tmp_path)
        if case == "missing_file":
            files[0] = "nope.geod"
        proc = run_python(["-m", "geoalign", "eval", *files], tmp_path)
        assert proc.returncode == code
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        (line,) = proc.stderr.splitlines()
        assert line.startswith("error: ")
