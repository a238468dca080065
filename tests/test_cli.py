"""End-to-end command-line behaviour: rendering, masking, scoring, checks."""

import io
import os
import re
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from geoalign import cli
from geoalign.cli import main
from geoalign.formats import (
    _DIRECTIVES,
    encode_f64_raster,
    encode_u8_raster,
    read_f64_raster,
    read_u8_raster,
    write_f64_raster,
    write_u8_raster,
)
from geoalign.scenes import SceneSpec
from geoalign.structure_filter import DepthMap, FilterConfig, GateParams, MaskGeometry, align_depth
from test_formats import RASTER_BYTES, SPEC_TEXTS, serialize_scene_spec
from test_scenes import valid_specs

GROUND_ONLY = "ground 40.0\nraster 32 32\n"
THREE_BOXES = """\
ground 40.0
slope -0.03 0.025
raster 64 64
noise 0.02
seed 2
box 6 6 20 20 32.0
box 36 10 18 14 25.0
box 10 38 16 18 30.0
"""

SIGMA_2_5 = 1.0 / (1.0 + np.exp(-2.5))
SRC = Path(__file__).resolve().parents[1] / "src"
ADDRESS_SPACE_CAP = 1536 * 2**20  # bytes; far below what the inputs below need


def write_spec(tmp_path, text, name="scene.spec"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestSynth:
    def test_ground_only_scene(self, tmp_path, capsys):
        spec = write_spec(tmp_path, GROUND_ONLY)
        out = tmp_path / "out"
        assert main(["synth", spec, str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [l.startswith("wrote ") for l in lines] == [True, True, True]
        depth = read_f64_raster(out / "ortho.depth.geod")
        labels = read_u8_raster(out / "ortho.labels.geol")
        assert depth.shape == (32, 32) and np.all(depth == 40.0)
        assert np.all(labels == 0)
        assert (out / "scene.spec").read_text() == GROUND_ONLY

    def test_oblique_view_renders_facades(self, tmp_path):
        spec = write_spec(tmp_path, "ground 40.0\nslope 0.05 0.0\n"
                                    "box 20 20 16 16 22.0\n")
        out = tmp_path / "out"
        assert main(["synth", spec, str(out), "--view", "oblique"]) == 0
        labels = read_u8_raster(out / "oblique.labels.geol")
        assert 2 in labels  # vertical surfaces appear in the oblique view
        ortho_out = tmp_path / "out2"
        assert main(["synth", spec, str(ortho_out)]) == 0
        assert 2 not in read_u8_raster(ortho_out / "ortho.labels.geol")

    def test_malformed_spec_reports_line(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "ground 40.0\nbox 1 2 3\n")
        assert main(["synth", spec, str(tmp_path / "out")]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_overlapping_boxes_rejected(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "ground 40.0\nbox 4 4 10 10 20.0\n"
                                    "box 8 8 10 10 20.0\n")
        assert main(["synth", spec, str(tmp_path / "out")]) == 1
        assert "overlap" in capsys.readouterr().err

    def test_missing_spec_file(self, tmp_path, capsys):
        assert main(["synth", str(tmp_path / "nope.spec"), str(tmp_path / "o")]) == 1
        assert "error:" in capsys.readouterr().err


class TestMask:
    def synth_flat(self, tmp_path):
        spec = write_spec(tmp_path, GROUND_ONLY)
        out = tmp_path / "scene"
        main(["synth", spec, str(out)])
        return str(out / "ortho.depth.geod")

    def test_flat_plane_statistics(self, tmp_path, capsys):
        depth = self.synth_flat(tmp_path)
        capsys.readouterr()  # drop the synth output
        prefix = str(tmp_path / "flat")
        assert main(["mask", depth, prefix]) == 0
        out_lines = capsys.readouterr().out.splitlines()
        assert len(out_lines) == 3 and all(l.startswith("wrote ") for l in out_lines)
        header, row = (tmp_path / "flat.stats.csv").read_text().splitlines()
        assert header == ("n_dom_x,n_dom_y,n_dom_z,tau_grad,n_edges,n_flat,"
                          "mask_mean,mask_min,mask_max")
        values = row.split(",")
        assert abs(float(values[0])) < 1e-9 and abs(float(values[1])) < 1e-9
        assert abs(float(values[2]) - 1.0) < 1e-9
        assert int(values[4]) == 0  # no gradient outliers on a level plane
        assert int(values[5]) == 32 * 32
        mask = read_f64_raster(tmp_path / "flat.mask.geod")
        assert np.max(np.abs(mask - SIGMA_2_5)) < 1e-12

    def test_zeroed_gate_gives_neutral_mask(self, tmp_path):
        depth = self.synth_flat(tmp_path)
        prefix = str(tmp_path / "neutral")
        assert main(["mask", depth, prefix, "--alpha", "0", "--beta", "0"]) == 0
        mask = read_f64_raster(tmp_path / "neutral.mask.geod")
        assert np.all(mask == 0.5)
        pgm = (tmp_path / "neutral.mask.pgm").read_bytes()
        assert set(pgm.split(b"255\n", 1)[1]) == {128}

    def test_corrupt_raster_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.geod"
        bad.write_bytes(b"GEOD 1 4 4\n" + b"\x00" * 7)
        assert main(["mask", str(bad), str(tmp_path / "m")]) == 1
        assert "payload" in capsys.readouterr().err

    @pytest.mark.parametrize("raster, message", [
        (np.where(np.arange(256).reshape(16, 16) == 37, np.nan, 40.0),
         "depth must be finite"),
        (np.full((2, 2), 40.0), "depth raster too small: (2, 2)"),
        (np.full((4, 4), 40.0), "raster (4, 4) smaller than the 5 pixel stencil"),
    ], ids=["one_nan", "two_by_two", "four_by_four"])
    def test_unusable_depth_raster_is_named(self, tmp_path, capsys, raster, message):
        depth = str(tmp_path / "bad.geod")
        write_f64_raster(depth, raster)
        assert main(["mask", depth, str(tmp_path / "m")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {depth}: {message}\n"
        assert not list(tmp_path.glob("m.*"))

    def test_invalid_quantile_rejected(self, tmp_path, capsys):
        depth = self.synth_flat(tmp_path)
        assert main(["mask", depth, str(tmp_path / "m"), "--tau-q", "1.5"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_outputs_match_structure_mask_and_mask_geometry(self, tmp_path):
        spec = write_spec(tmp_path, THREE_BOXES)
        main(["synth", spec, str(tmp_path / "scene"), "--view", "oblique"])
        path = str(tmp_path / "scene" / "oblique.depth.geod")
        prefix = str(tmp_path / "boxes")
        assert main(["mask", path, prefix, "--alpha", "2", "--beta", "0.3", "--dilation", "3",
                     "--tau-q", "0.7", "--k", "2", "--seed", "4"]) == 0
        depth = DepthMap(read_f64_raster(path))
        gate = GateParams(gain=2.0, bias=0.3)
        cfg = FilterConfig(gradient_dilation=3, edge_quantile=0.7, clusters=2, cluster_seed=4)
        expected = MaskGeometry.from_depth(align_depth(depth, *depth.shape), cfg).mask(gate).values
        assert read_f64_raster(prefix + ".mask.geod").tobytes() == expected.tobytes()
        geometry = MaskGeometry.from_depth(depth, cfg)
        row = (tmp_path / "boxes.stats.csv").read_text().splitlines()[1].split(",")
        assert row[:6] == [repr(float(n)) for n in geometry.reference] + [
            repr(geometry.partition.threshold), str(geometry.partition.n_edges),
            str(geometry.partition.n_flat)]


class TestEval:
    def write_pair(self, tmp_path, mask, labels):
        mask_path = tmp_path / "m.geod"
        label_path = tmp_path / "l.geol"
        write_f64_raster(mask_path, mask)
        write_u8_raster(label_path, labels)
        return str(mask_path), str(label_path)

    def toy_labels(self):
        labels = np.zeros((8, 8), dtype=np.uint8)
        labels[:2] = 1   # roofs
        labels[4:6] = 2  # facades
        return labels

    def test_perfect_mask_scores_one(self, tmp_path, capsys):
        labels = self.toy_labels()
        mask = np.where(labels == 2, 0.0, 1.0).astype(float)
        mask_path, label_path = self.write_pair(tmp_path, mask, labels)
        assert main(["eval", mask_path, label_path]) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert header == "balanced_accuracy,mean_ground,mean_roof,mean_facade,mean_edge"
        accuracy, ground, roof, facade, _ = (float(v) for v in row.split(","))
        assert accuracy == 1.0
        assert ground == 1.0 and roof == 1.0 and facade == 0.0

    def test_neutral_mask_scores_half(self, tmp_path, capsys):
        labels = self.toy_labels()
        mask_path, label_path = self.write_pair(tmp_path, np.full((8, 8), 0.5), labels)
        assert main(["eval", mask_path, label_path]) == 0
        row = capsys.readouterr().out.splitlines()[1]
        assert float(row.split(",")[0]) == 0.5

    def test_out_flag_duplicates_stdout(self, tmp_path, capsys):
        labels = self.toy_labels()
        mask_path, label_path = self.write_pair(tmp_path, np.full((8, 8), 0.5), labels)
        out = tmp_path / "scores.csv"
        assert main(["eval", mask_path, label_path, "--out", str(out)]) == 0
        assert out.read_text() == capsys.readouterr().out

    def test_scene_without_facades_is_not_evaluable(self, tmp_path, capsys):
        labels = np.zeros((8, 8), dtype=np.uint8)
        labels[:2] = 1
        mask_path, label_path = self.write_pair(tmp_path, np.full((8, 8), 0.5), labels)
        assert main(["eval", mask_path, label_path]) == 2
        assert "facade" in capsys.readouterr().err

    def test_shape_mismatch_rejected(self, tmp_path, capsys):
        mask_path, label_path = self.write_pair(
            tmp_path, np.full((8, 8), 0.5), np.zeros((4, 4), dtype=np.uint8))
        assert main(["eval", mask_path, label_path]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("mask, value", [
        (np.full((8, 8), np.nan), "nan"),
        (np.full((8, 8), 7.0), "7.0"),
        (np.where(np.arange(64).reshape(8, 8) == 27, np.inf, 0.5), "inf"),
    ], ids=["all_nan", "all_seven", "one_inf"])
    def test_corrupt_mask_is_rejected(self, tmp_path, capsys, mask, value):
        mask_path, label_path = self.write_pair(tmp_path, mask, self.toy_labels())
        assert main(["eval", mask_path, label_path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: mask {mask_path} must hold finite values "
                                f"in [0, 1], got {value}\n")


class TestPipeline:
    def test_synth_mask_eval_chain_scores_high(self, tmp_path, capsys):
        spec = write_spec(tmp_path, THREE_BOXES)
        out = tmp_path / "scene"
        assert main(["synth", spec, str(out), "--view", "oblique"]) == 0
        depth = str(out / "oblique.depth.geod")
        labels = str(out / "oblique.labels.geol")
        prefix = str(tmp_path / "city")
        assert main(["mask", depth, prefix]) == 0
        capsys.readouterr()
        assert main(["eval", f"{prefix}.mask.geod", labels]) == 0
        row = capsys.readouterr().out.splitlines()[1]
        accuracy = float(row.split(",")[0])
        assert accuracy >= 0.9


class TestGradcheck:
    def test_all_groups_pass_at_default_tolerance(self, capsys):
        assert main(["gradcheck"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["group", "loss", "max_rel_err", "status"]
        body = lines[1:]
        assert len(body) == 24
        assert all(line.endswith("ok") for line in body)

    @pytest.mark.parametrize("flag", ["--tol", "--eps"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-0.5"])
    def test_non_positive_or_non_finite_values_exit_1(self, capsys, flag, value):
        assert main(["gradcheck", flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {flag} must be positive and finite")

    def test_unreachable_tolerance_fails_with_exit_2(self, capsys):
        assert main(["gradcheck", "--tol", "1e-15"]) == 2
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "gradient mismatch" in captured.err


class TestBench:
    def test_four_arm_csv(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--scenes", "2", "--seed", "0",
                     "--out", str(out)]) == 0
        text = out.read_text()
        assert text == capsys.readouterr().out
        lines = text.splitlines()
        assert lines[0] == "arm,n_queries,recall_at_1,recall_at_5,mean_ap"
        assert [l.split(",")[0] for l in lines[1:]] == ["base", "mgsa", "mgsf", "full"]
        assert all(l.split(",")[1] == "2" for l in lines[1:])

    def test_single_arm_selection(self, tmp_path, capsys):
        assert main(["bench", "--scenes", "2", "--ablation", "mgsf"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 and lines[1].startswith("mgsf,")

    def test_rejects_single_scene(self, capsys):
        assert main(["bench", "--scenes", "1"]) == 1
        assert "at least 2 scenes" in capsys.readouterr().err


def run_capped(args, cwd):
    """``python -m geoalign *args`` in a child whose address space is capped,
    so an oversized allocation fails fast instead of taking the machine's memory."""
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_AS"):
        pytest.skip("no RLIMIT_AS on this platform")
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    cap = ADDRESS_SPACE_CAP if hard == resource.RLIM_INFINITY else min(ADDRESS_SPACE_CAP, hard)
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-m", "geoalign", *args], cwd=cwd, env=env, capture_output=True,
        text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, hard)))


class TestOutOfMemory:
    """An input too large for memory ends in one ``error:`` line naming it."""

    @pytest.mark.parametrize("args, named", [
        (["synth", "huge.spec", "out"], "error: raster (50000, 50000): out of memory"),
        (["bench", "--scenes", "2000000000"], "error: --scenes 2000000000: out of memory"),
    ])
    def test_memory_error_is_one_error_line(self, tmp_path, args, named):
        write_spec(tmp_path, "ground 40.0\nraster 50000 50000\n", name="huge.spec")
        proc = run_capped(args, tmp_path)
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == ""
        (line,) = proc.stderr.splitlines()
        assert line.startswith(named)

    def test_box_overlap_check_allocates_no_raster(self, tmp_path):
        # Boxes in opposite corners: the render, not the overlap check, runs out.
        write_spec(tmp_path, "ground 40.0\nraster 50000 50000\nbox 0 0 1 1 5.0\n"
                             "box 49999 49999 1 1 5.0\n", name="huge.spec")
        proc = run_capped(["synth", "huge.spec", "out"], tmp_path)
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == ""
        (line,) = proc.stderr.splitlines()
        assert line.startswith("error: raster (50000, 50000): out of memory (")


class TestUsageErrors:
    def test_no_command(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 1

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as info:
            main(["polish"])
        assert info.value.code == 1

    def test_bad_choice(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["synth", "x", "y", "--view", "aerial"])
        assert info.value.code == 1

    @pytest.mark.parametrize("argv", [["--help"], ["synth", "--help"]])
    def test_help_shows_each_scene_spec_default(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        help_lines = capsys.readouterr().out.splitlines()
        defaults = {f.name: f.default for f in fields(SceneSpec) if f.default is not MISSING}
        for key, (field, _, _) in _DIRECTIVES.items():
            if field in defaults:
                shown = " ".join(f"{v:g}" for v in np.atleast_1d(defaults[field]))
                (line,) = [ln for ln in help_lines if ln.startswith(f"  {key} ")]
                assert line.endswith(f"optional, default {shown}")

    @pytest.mark.parametrize("argv, message", [
        (["mask", "--alpha", "nan"], "--alpha must be finite, got nan"),
        (["mask", "--alpha", "inf"], "--alpha must be finite, got inf"),
        (["mask", "--beta", "nan"], "--beta must be finite, got nan"),
        (["mask", "--seed", "-1"], "--seed must be non-negative, got -1"),
        (["bench", "--scenes", "2", "--seed", "-1"], "--seed must be non-negative, got -1"),
        (["gradcheck", "--seed", "-3"], "--seed must be non-negative, got -3"),
        # Finite gate flags whose gain * c + bias overflows, or whose sigmoid
        # rounds to exactly 1.0 on the ramp's fully consistent pixels.
        (["mask", "--alpha", "1e308", "--beta", "1e308"],
         "--alpha 1e+308 and --beta 1e+308 saturate the mask gate "
         "(tensor data must be finite)"),
        (["mask", "--alpha", "40"],
         "--alpha 40.0 and --beta -2.5 saturate the mask gate "
         "(mask values must lie strictly inside (0, 1))"),
        # A finite step whose shifted parameters overflow the forward pass:
        # the embedding's squared norm, or, larger still, tensor data.
        (["gradcheck", "--eps", "1e300"],
         "--eps: step size 1e+300 is too large for the mid_kernel probes "
         "(anchor must be unit length, got norm 0.0)"),
        (["gradcheck", "--eps", "1e306"],
         "--eps: step size 1e+306 is too large for the mid_kernel probes "
         "(anchor must be unit length, got norm 0.0)"),
        (["gradcheck", "--eps", "1e308"],
         "--eps: step size 1e+308 is too large for the mid_kernel probes "
         "(tensor data must be finite)"),
        (["gradcheck", "--eps", "1.7e308"],
         "--eps: step size 1.7e+308 is too large for the mid_kernel probes "
         "(tensor data must be finite)"),
        # A positive step below the parameters' float spacing.
        (["gradcheck", "--eps", "1e-320"],
         "--eps: step size 1e-320 is too small for the mid_kernel probes "
         "(a shifted coordinate is unchanged)"),
        # 2**60 int64 scene seeds are past what NumPy can size (2**63 - 1 bytes).
        (["bench", "--scenes", "1152921504606846976"],
         "--scenes too large: 1152921504606846976 is past NumPy's array size limit"),
        (["bench", "--scenes", "9223372036854775808"],
         "--scenes too large: 9223372036854775808 is past NumPy's array size limit"),
    ])
    def test_unusable_flag_value_is_named(self, tmp_path, capsys, argv, message):
        if argv[0] == "mask":
            depth = str(tmp_path / "ramp.geod")
            write_f64_raster(depth, np.add.outer(np.arange(8.0), np.arange(8.0)))
            argv = ["mask", depth, str(tmp_path / "m")] + argv[1:]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. a NumPy overflow RuntimeWarning
            assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not list(tmp_path.glob("m.*"))

    def test_slope_whose_tilt_overflows_is_named(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "ground 10\nslope 1e308 1e308\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. a NumPy overflow RuntimeWarning
            assert main(["synth", spec, str(out), "--view", "oblique"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: slope 1e+308 1e+308 tilts the ground plane "
                                "past the float64 range on the 64x64 raster\n")
        assert not out.exists()

    def test_overflow_in_any_command_ends_in_one_error_line(self, monkeypatch, capsys):
        # Commands run under the float policy, so an overflow raises, and
        # main reports it like any other bad value.
        monkeypatch.setattr(cli, "run_experiment", lambda **_: np.full(2, 1e308) * 10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["bench", "--scenes", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: overflow encountered in multiply\n"

    def test_noise_past_float64_is_named(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "ground 10\nnoise 1e308\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["synth", spec, str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: noise 1e+308 pushes depth past the float64 "
                                "range on the 64x64 raster\n")
        assert not out.exists()

    def test_depth_ramp_whose_normals_overflow_is_named(self, tmp_path, capsys):
        depth = str(tmp_path / "ramp.geod")
        write_f64_raster(depth, np.add.outer(np.arange(16.0), np.arange(16.0)) * 5e306)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the overflow is an error, not a warning
            assert main(["mask", depth, str(tmp_path / "m")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {depth}: overflow encountered in multiply\n"
        assert not list(tmp_path.glob("m.*"))

    def test_spec_integer_past_float64_is_not_finite(self, tmp_path, capsys):
        huge = "1" + "0" * 400
        spec = write_spec(tmp_path, f"ground 40\nraster 4 {huge}\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["synth", spec, str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: line 2: `raster`: '{huge}' is not finite\n"
        assert "Traceback" not in captured.err
        assert not out.exists()

    def test_negative_spec_seed_is_named(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "ground 40\nseed -1\n")
        out = tmp_path / "out"
        assert main(["synth", spec, str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 2: seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_failed_write_names_only_its_destination(self, tmp_path, monkeypatch, capsys):
        # The rename onto a directory fails; the random temp file is removed.
        monkeypatch.chdir(tmp_path)
        write_spec(tmp_path, "ground 40\n", name="s.spec")
        (tmp_path / "out" / "ortho.depth.geod").mkdir(parents=True)
        errors = []
        for _ in range(2):
            assert main(["synth", "s.spec", "out"]) == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] == (
            "error: [Errno 21] Is a directory: 'out/ortho.depth.geod'\n")
        assert ".tmp-" not in errors[0]
        assert not list(tmp_path.rglob(".tmp-*~"))

    def test_write_into_a_missing_directory_names_its_destination(self, tmp_path,
                                                                  monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write_f64_raster("d.geod", np.add.outer(np.arange(8.0), np.arange(8.0)))
        assert main(["mask", "d.geod", "nodir/m"]) == 1
        assert capsys.readouterr().err == (
            "error: [Errno 2] No such file or directory: 'nodir/m.mask.geod'\n")

    @pytest.mark.parametrize("directive, message", [
        ("edge-band 0", "edge band must be >= 1, got 0"),
        ("noise -1", "noise sigma must be >= 0, got -1.0"),
        ("raster 3 64", "raster too small: (3, 64)"),
        ("slope 1", "`slope` takes 2 value(s), got 1"),
        # Past what NumPy can size ("array is too big") or index ("Maximum
        # allowed dimension exceeded"); checked without allocating.
        ("raster 100000000000 100000000000",
         "raster too large: (100000000000, 100000000000) is past NumPy's array size limit"),
        ("raster 10000000000000000000 8",
         "raster too large: (10000000000000000000, 8) is past NumPy's array size limit"),
    ])
    def test_single_field_spec_rule_names_its_line(self, tmp_path, capsys, directive,
                                                   message):
        spec = write_spec(tmp_path, f"ground 40\n{directive}\n")
        out = tmp_path / "out"
        assert main(["synth", spec, str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: line 2: {message}\n"
        assert "Traceback" not in captured.err
        assert not out.exists()


# Extreme finite flag values next to ordinary ones. Flags are passed as
# --flag=value: argparse reads a separate "-1e-3" as an option, not a value.
FLAG_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, 0.9999999999999999,
                     1e308, -1e308, 1.7976931348623157e308]),
    st.floats(-1e3, 1e3), st.floats(0.0, 1.0, exclude_max=True))
FLAG_INTS = st.one_of(st.sampled_from([0, 1, 2147483647, 18446744073709551615, -1]),
                      st.integers(-2, 12))
MASK_FLAGS = st.fixed_dictionaries({}, optional={
    name: values for name, values in [
        ("alpha", FLAG_FLOATS), ("beta", FLAG_FLOATS), ("tau-q", FLAG_FLOATS),
        ("dilation", FLAG_INTS), ("k", FLAG_INTS), ("seed", FLAG_INTS)]
}).map(lambda flags: [f"--{name}={value!r}" for name, value in flags.items()])
EXTREME_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308]),
    st.floats(-1e3, 1e3), st.floats(0.0, 1.0))
RASTER_SIDES = st.tuples(st.integers(3, 24), st.integers(3, 24))


def geod_files(shape, ordinary):
    """Fuzzed bytes, or a GEOD raster of ``ordinary`` values or of extremes."""
    return st.one_of(RASTER_BYTES, *[
        hnp.arrays(np.float64, shape, elements=values).map(encode_f64_raster)
        for values in (ordinary, EXTREME_VALUES)])


SPEC_FILES = st.one_of(st.one_of(SPEC_TEXTS, valid_specs().map(serialize_scene_spec))
                      .map(str.encode), st.binary(max_size=64))
CLI_FUZZ = settings(derandomize=True, database=None, max_examples=60, deadline=None)


@st.composite
def eval_files(draw):
    """Mask and label files: rasters whose shapes pool together, or fuzzed bytes."""
    h, w = draw(RASTER_SIDES)
    factor = draw(st.integers(1, 2))
    labels = hnp.arrays(np.uint8, (h * factor, w * factor), elements=st.integers(0, 3))
    return {
        "mask.geod": draw(geod_files((h, w), st.floats(0.0, 1.0))),
        "labels.geol": draw(st.one_of(RASTER_BYTES, labels.map(encode_u8_raster))),
    }


def run_in_process(argv, files=None):
    """``main(argv)`` with warnings as errors, in a fresh directory holding
    ``files``; an argument ``@name`` names ``name`` in that directory.

    Checks the exit contract: code 0, 1 or 2, no exception but argparse's
    ``SystemExit(1)``, and a non-zero exit ends stderr with an ``error:``
    line. Returns the exit code."""
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(), \
            redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        warnings.simplefilter("error")
        for name, data in (files or {}).items():
            Path(tmp, name).write_bytes(data)
        argv = [str(Path(tmp, a[1:])) if a.startswith("@") else a for a in argv]
        try:
            code = main(argv)
        except SystemExit as exc:  # a usage error, reported by argparse
            assert exc.code == 1
            code = exc.code
    assert code in (0, 1, 2)
    if code:
        assert re.match(r"(geoalign( \w+)?: )?error: ", err.getvalue().splitlines()[-1])
    return code


class TestCliFuzz:
    """Every command, on fuzzed files and extreme finite flag values, exits 0,
    1 or 2 with no traceback and no warning."""

    @CLI_FUZZ
    @given(spec=SPEC_FILES, view=st.sampled_from(["ortho", "oblique"]))
    def test_synth(self, spec, view):
        run_in_process(["synth", "@scene.spec", "@out", f"--view={view}"], {"scene.spec": spec})

    @CLI_FUZZ
    @given(depth=geod_files(RASTER_SIDES, st.floats(-1e3, 1e3)), flags=MASK_FLAGS)
    def test_mask(self, depth, flags):
        run_in_process(["mask", "@depth.geod", "@out", *flags], {"depth.geod": depth})

    @CLI_FUZZ
    @given(files=eval_files())
    def test_eval(self, files):
        run_in_process(["eval", "@mask.geod", "@labels.geol", "--out=@eval.csv"], files)

    @pytest.mark.parametrize("argv, code", [
        (["bench", "--scenes=2", "--seed=18446744073709551615"], 0),
        (["bench", "--scenes=3", "--seed=2147483647", "--ablation=mgsf"], 0),
        (["bench", "--scenes=-9223372036854775808"], 1),
        (["gradcheck", "--eps=5e-324"], 1),
        (["gradcheck", "--eps=1.7976931348623157e308"], 1),
        (["gradcheck", "--tol=1e308", "--eps=-1e-5"], 1),
        # The full battery, once: a tolerance no error meets, at the largest seed.
        (["gradcheck", "--seed=18446744073709551615", "--tol=5e-324"], 2),
    ])
    def test_bench_and_gradcheck_extremes(self, argv, code):
        assert run_in_process(argv) == code


class TestDeterminism:
    def test_repeated_synth_is_byte_identical(self, tmp_path):
        spec = write_spec(tmp_path, THREE_BOXES)
        a, b = tmp_path / "a", tmp_path / "b"
        main(["synth", spec, str(a), "--view", "oblique"])
        main(["synth", spec, str(b), "--view", "oblique"])
        for name in ("oblique.depth.geod", "oblique.labels.geol", "scene.spec"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
