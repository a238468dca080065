"""The package root, the ``python -m geoalign`` process boundary and the byte-check runner."""

import importlib.util
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


def run_python(args, cwd, text=True):
    """Run the interpreter with ``src`` first on the import path."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=text, timeout=120, env=dict(os.environ, PYTHONPATH=path))


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


class TestCommandTable:
    """``scripts/commands.py`` runs an entry in-process as a child process would."""

    RUNNER = ROOT / "scripts" / "commands.py"

    def load(self):
        spec = importlib.util.spec_from_file_location("commands", self.RUNNER)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @pytest.mark.parametrize("command, code", [
        ("synth city.spec out --view ortho", 0),  # a table entry
        ("synth small.spec err", 1),  # a must-fail table entry
        ("synth city.spec out --view sideways", 1),  # argparse's SystemExit, not in the table
    ])
    def test_in_process_run_matches_a_child(self, tmp_path, monkeypatch, command, code):
        commands = self.load()
        in_table = any(entry[1] == command for entry in commands.COMMANDS)
        assert in_table == ("sideways" not in command)
        here, child = tmp_path / "here", tmp_path / "child"
        for where in (child, here):
            where.mkdir()
            monkeypatch.chdir(where)
            commands.write_inputs()
        stdout, got, stderr = commands.run(command)
        proc = run_python(["-m", "geoalign", *command.split()], child, text=False)
        assert (stdout.encode(), got, stderr.encode()) == (proc.stdout, code, proc.stderr)
        assert proc.returncode == code
        files = {where: {p.relative_to(where): p.read_bytes()
                         for p in where.rglob("*") if p.is_file()} for where in (here, child)}
        assert files[here] == files[child]

    def test_runner_refuses_a_tree_without_the_package(self, tmp_path):
        proc = run_python([str(self.RUNNER), str(tmp_path), str(tmp_path / "out")], tmp_path)
        installed = SRC / "geoalign" / "__init__.py"
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"geoalign imports from {installed}, not from ")
        assert not (tmp_path / "out").exists()
