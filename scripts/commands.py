"""Every command whose output bytes define geoalign, run against one tree.

    python scripts/commands.py TREE OUT_DIR

TREE is a checkout of this repository. Its ``src`` goes first on the import
path, and the run stops unless ``geoalign`` is imported from there. OUT_DIR
must not exist yet: the runner makes it, writes the input specs and rasters
into it and, with it as the working directory, runs every entry of
``COMMANDS`` in order in this one interpreter. A CLI entry runs
``geoalign.cli.main(argv)``; a battery is a function below that drives the
library directly. Each entry's stdout goes to the file it names. An entry
that must fail gets its stdout, then ``exit N``, then its stderr, so a
changed error message changes the file. The run stops non-zero when a
must-fail entry exits 0 or another entry does not, or when anything raises
that ``main`` does not turn into an exit code (a ``RuntimeWarning`` made an
error by ``PYTHONWARNINGS`` included); argparse's ``SystemExit`` counts as its
exit code, as a child process's would. Out-of-memory cases are left out, as
their text depends on the platform.

A new byte-checked command is one more ``COMMANDS`` entry, with the reason it
is there; ``scripts/compare_outputs.sh`` runs this file on two trees and
diffs the outputs.
"""

import contextlib
import io
import os
import struct
import sys
from hashlib import sha256
from pathlib import Path


def gradcheck_hex():
    """`gradcheck` prints its errors to three digits only; these must match bit for bit."""
    from geoalign.checks import run_gradient_checks

    batteries = [("default", run_gradient_checks())]
    batteries += [(f"seed{s}", run_gradient_checks(base_seed=s, n_seeds=1)) for s in range(64)]
    for label, rows in batteries:
        for r in rows:
            print(label, r.group, r.loss, r.max_rel_err.hex(), r.n_evals)


def gradcheck_eps():
    """Every error's hex or error text per step size, so the blamed bad step matches too."""
    from geoalign.checks import run_gradient_checks

    steps = [1e-330, 5e-324, 1e-320, 1e-310, 1e-300, 1e-200, 1e-100, 1e-20, 1e-17, 1e-16, 3e-16,
             1e-15, 1e-12, 1e-9, 1e-7, 1e-5, 1e-3, 0.1, 1.0, 3.0, 10.0, 30.0, 100.0, 1e3, 1e10,
             1e100, 1e154, 1e155, 1e200, 1e291, 1e300, 1e306, 3.7e306]
    for k, eps in enumerate(steps):
        try:
            rows = run_gradient_checks(base_seed=k % 5, n_seeds=2, eps=eps)
            result = " ".join(r.max_rel_err.hex() for r in rows)
        except ValueError as exc:
            result = f"error: {exc}"
        print(k % 5, repr(eps), result)


def probe_hex():
    """Every probe loss, which the rows above show only through each group's worst error."""
    import numpy as np

    from geoalign.autodiff import float_policy
    from geoalign.checks import PARAM_GROUPS, _build_scenario, _probe_losses

    with float_policy():
        for seed in range(8):
            scenario = _build_scenario(seed)
            coord_rng = np.random.default_rng(seed + 1)
            probed = []
            for group in PARAM_GROUPS:
                size = scenario.params[group].size
                probed += [(group, int(i))
                           for i in coord_rng.choice(size, size=min(3, size), replace=False)]
            for name, values in _probe_losses(scenario, probed, 1e-5).items():
                print(seed, name, " ".join(v.hex() for v in values))


def pooled_hex():
    """The pooled forward paths and the mask geometry, which bench shows only through ranks.

    Without noise the maps' flat-pixel counts differ, so k-means runs once per count.
    """
    from dataclasses import replace

    import numpy as np

    from geoalign.retrieval import (ARM_FILTER_CONFIG, ARMS, EMBEDDING_DIM, ToyEncoder,
                                    _arm_parts, depth_side, embed)
    from geoalign.scale_fusion import FusionParams, depth_feature_stack
    from geoalign.scenes import facade_heavy_spec, render_oblique, render_ortho
    from geoalign.structure_filter import (DepthMap, FilterConfig, MaskGeometry, align_depth,
                                           structure_mask)

    encoder = ToyEncoder.seeded(seed=0)
    fusion = FusionParams.smoothing(EMBEDDING_DIM, seed=0)
    parts = [_arm_parts(arm) for arm in ARMS]
    for seed in range(8):
        for view, render in (("ortho", render_ortho), ("oblique", render_oblique)):
            d = render(facade_heavy_spec(seed))[0]
            arrays = {"stack16": depth_feature_stack(d, 16, 16),
                      "stack8": depth_feature_stack(d, 8, 8),
                      "align8": align_depth(d, 8, 8).values,
                      "mask16": structure_mask(d, 16, 16, cfg=ARM_FILTER_CONFIG).values}
            arms = embed(depth_side(DepthMap(d.values[None]), parts, fusion), encoder, parts,
                         fusion, 0)
            arrays.update((f"embed_{arm}", e.data) for arm, e in zip(ARMS, arms))
            for name, a in arrays.items():
                print(seed, view, name, a.shape, sha256(a.tobytes()).hexdigest())
    stack = DepthMap(np.stack([render(replace(facade_heavy_spec(seed), noise_sigma=0.0))[0].values
                               for seed in range(12) for render in (render_ortho, render_oblique)]))
    for label, cfg in (("default", FilterConfig()), ("arm", ARM_FILTER_CONFIG),
                       ("k5q50", FilterConfig(clusters=5, edge_quantile=0.5))):
        geometry = MaskGeometry.from_depth(stack, cfg)
        for name in ("reference", "consistency"):
            a = getattr(geometry, name)
            print("noise-free", label, name, a.shape, sha256(a.tobytes()).hexdigest())


def conv_hex():
    """conv2d's output and taped gradients at the workloads' shapes, both buffer layouts.

    The commands tape a convolution only where channels do not outnumber
    columns. The last case is a raster narrower than its padding.
    """
    import numpy as np

    from geoalign.autodiff import Kernel2D, Tape, Tensor, conv2d, mul, sum_all

    cases = [((1, 64, 16, 16), (64, 3, 3), 1), ((1, 64, 16, 16), (64, 3, 3), 2),
             ((1, 64, 16, 16), (64, 3, 3), 4), ((1, 3, 16, 16), (3, 3, 3), 1),
             ((3, 4, 8, 8), (4, 3, 3), 1), ((72, 4, 8, 8), (72, 4, 3, 3), 4),
             ((1, 2, 128, 128), (2, 3, 3), 2), ((2, 9, 3, 2), (9, 5, 5), 3)]
    for seed, (shape, stencil_shape, dilation) in enumerate(cases):
        rng = np.random.default_rng(seed)
        if shape[1] == 2:
            x = np.broadcast_to(rng.normal(size=(shape[0], 1) + shape[2:]), shape)
        else:
            x = rng.normal(size=shape)
        tape = Tape()
        xt, kt = tape.leaf(x), tape.leaf(rng.normal(size=stencil_shape))
        out = conv2d(xt, Kernel2D(kt, dilation=dilation))
        tape.backward(sum_all(mul(out, Tensor(rng.normal(size=shape)))))
        for name, a in (("out", out.data), ("grad_x", xt.grad), ("grad_k", kt.grad)):
            print(shape, stencil_shape, dilation, name, sha256(a.tobytes()).hexdigest())


CITY = ("ground 40.0\nslope -0.03 0.025\nraster 64 64\nnoise 0.02\nseed 2\n"
        "box 6 6 20 20 32.0\nbox 36 10 18 14 25.0\nbox 10 38 16 18 30.0\n")


def write_inputs():
    """Write the specs and rasters that the entries read into the working directory."""
    from geoalign.scenes import facade_heavy_spec

    s = facade_heavy_spec(0, raster=(128, 128))
    facade_boxes = "".join(f"box {b.x} {b.y} {b.w} {b.h} {b.height!r}\n" for b in s.boxes)
    grid = "ground 40.0\nslope -0.03 0.025\nraster 96 96\n" + "".join(
        f"box {2 * j} {2 * i} 1 1 {10 + (i + j) % 7}.0\n" for i in range(48) for j in range(48))
    inputs = {
        "city.spec": CITY,  # the README spec
        "level.spec": CITY.replace("slope -0.03 0.025", "slope 0 0"),
        # A 3x3 depth raster with 5 flat pixels at --tau-q 0.5, and a constant 8x8 one.
        "tiny.geod": b"GEOD 1 3 3\n" + struct.pack("<9d", 40.0, 41.5, 43.0, 40.25, 42.0, 44.5,
                                                   40.75, 43.25, 46.0),
        "constant.geod": b"GEOD 1 8 8\n" + struct.pack("<64d", *[40.0] * 64),
        "facade128.spec": f"ground {s.ground_depth!r}\nslope {s.oblique_slope[0]!r} "
                          f"{s.oblique_slope[1]!r}\nraster 128 128\nnoise {s.noise_sigma!r}\n"
                          f"seed {s.rng_seed}\n{facade_boxes}",
        "overlap.spec": "ground 40.0\nbox 0 0 4 4 5.0\nbox 10 10 4 4 5.0\nbox 11 11 2 2 5.0\n"
                        "box 1 1 2 2 5.0\n",
        "small.spec": "ground 40.0\nraster 2 64\n",
        "grid.spec": grid,  # a valid 96x96 spec with a 48x48 grid of 1x1 boxes
        "overlap_late.spec": grid + "box 94 94 1 1 5.0\n",  # one more box on its last box
    }
    for name, data in inputs.items():
        Path(name).write_bytes(data if isinstance(data, bytes) else data.encode())


# (file that gets stdout, `geoalign` arguments or a battery[, "fails"]), in run order.
# Each entry follows the reason it is here.
COMMANDS = [
    # The README spec in the ortho view.
    ("synth_ortho.txt", "synth city.spec out --view ortho"),
    # The README spec in the oblique view.
    ("synth_oblique.txt", "synth city.spec out --view oblique"),
    # The oblique view at slope 0 0, which is the ortho render.
    ("synth_level_oblique.txt", "synth level.spec level --view oblique"),
    # mask at default flags.
    ("mask_default.txt", "mask out/oblique.depth.geod out/default"),
    # mask at one non-default set of flags.
    ("mask_flags.txt", "mask out/oblique.depth.geod out/flags --k 5 --seed 3 --dilation 1 --tau-q 0.5"),
    # --k 1, where the k-means assignment loop never runs.
    ("mask_k1.txt", "mask out/oblique.depth.geod out/k1 --k 1"),
    # --tau-q 0, where every pixel is an edge.
    ("mask_tq0.txt", "mask out/oblique.depth.geod out/tq0 --tau-q 0"),
    # --k 9 on 5 flat pixels, fewer than the clusters, so the dominant normal is their mean.
    ("mask_few_flat.txt", "mask tiny.geod out/few_flat --dilation 1 --tau-q 0.5 --k 9"),
    # Equal normals, which send k-means++ to its lowest unused index.
    ("mask_constant.txt", "mask constant.geod out/constant"),
    # The oblique render of a 128x128 facade-heavy spec ...
    ("synth_native.txt", "synth facade128.spec native --view oblique"),
    # ... as `geoalign mask` meets it at native size, at default flags ...
    ("mask_native.txt", "mask native/oblique.depth.geod out/native"),
    # ... and at --k 300, whose labels need 16 bits.
    ("mask_native_k300.txt", "mask native/oblique.depth.geod out/native_k300 --k 300"),
    # eval of the default mask against the scene's labels.
    ("eval.csv", "eval out/default.mask.geod out/oblique.labels.geol"),
    # bench with all arms; it writes its CSV itself.
    (os.devnull, "bench --scenes 20 --seed 3 --out bench.csv"),
    # --ablation mgsf, where `embed` builds only some arms.
    (os.devnull, "bench --scenes 20 --seed 3 --ablation mgsf --out bench_mgsf.csv"),
    # The default gradient checks, errors to three digits.
    ("gradcheck.txt", "gradcheck --seed 0"),
    # A spec with overlapping boxes.
    ("synth_overlap.txt", "synth overlap.spec err", "fails"),
    # A raster too small.
    ("synth_small.txt", "synth small.spec err", "fails"),
    # A saturated gate.
    ("mask_alpha40.txt", "mask out/oblique.depth.geod err/m --alpha 40", "fails"),
    # A stencil past the raster.
    ("mask_dilation40.txt", "mask out/oblique.depth.geod err/m --dilation 40", "fails"),
    # A depth raster scored as a mask.
    ("eval_depth_as_mask.txt", "eval out/oblique.depth.geod out/oblique.labels.geol", "fails"),
    # An --eps too small.
    ("gradcheck_eps_tiny.txt", "gradcheck --eps 1e-300", "fails"),
    # An --eps whose probes leave an embedding off unit length.
    ("gradcheck_eps_huge.txt", "gradcheck --eps 1e300", "fails"),
    # An --eps whose probes overflow.
    ("gradcheck_eps_overflow.txt", "gradcheck --eps 1e308", "fails"),
    # A --tol that every check fails.
    ("gradcheck_fail.txt", "gradcheck --tol 1e-12", "fails"),
    # One bench scene.
    ("bench_one_scene.txt", "bench --scenes 1", "fails"),
    # 2,304 boxes, whose overlap scan must pass, in the ortho view ...
    ("synth_grid_ortho.txt", "synth grid.spec grid --view ortho"),
    # ... and in the oblique view.
    ("synth_grid_oblique.txt", "synth grid.spec grid --view oblique"),
    # The same grid plus one box on its last box, which must fail naming that pair.
    ("synth_overlap_late.txt", "synth overlap_late.spec err", "fails"),
    # gradcheck's errors bit for bit, for the default battery and base seeds 0-63.
    ("gradcheck_hex.txt", gradcheck_hex),
    # The order in which bad step sizes are blamed, over 33 steps from 1e-330 to 3.7e306.
    ("gradcheck_eps.txt", gradcheck_eps),
    # Every probe loss at step 1e-5, for scenarios from seeds 0-7.
    ("probe_hex.txt", probe_hex),
    # The pooled forward paths, which bench's CSV shows only through ranks.
    ("pooled_hex.txt", pooled_hex),
    # conv2d at the workloads' shapes, both buffer layouts.
    ("conv_hex.txt", conv_hex),
]


def run(command) -> tuple[str, int, str]:
    """Run one entry's command here; return its stdout, exit code and stderr."""
    from geoalign.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(command.split()) if isinstance(command, str) else command() or 0
        except SystemExit as exc:  # argparse's exit, as a child process's would be
            code = exc.code
    return stdout.getvalue(), code, stderr.getvalue()


def main(tree: str, out_dir: str) -> None:
    src = Path(tree).resolve() / "src"
    sys.path.insert(0, str(src))
    import geoalign

    if Path(geoalign.__file__).resolve() != (src / "geoalign" / "__init__.py").resolve():
        sys.exit(f"geoalign imports from {geoalign.__file__}, not from {src}")
    os.makedirs(out_dir)
    os.chdir(out_dir)
    write_inputs()
    for out, command, *fails in COMMANDS:
        stdout, code, stderr = run(command)
        if (code != 0) != bool(fails):
            sys.exit(f"{out}: exit {code}, expected {'non-' if fails else ''}zero\n{stderr}".rstrip())
        sys.stderr.write("" if fails else stderr)
        Path(out).write_text(stdout + (f"exit {code}\n{stderr}" if fails else ""), encoding="utf-8")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python scripts/commands.py TREE OUT_DIR")
    main(*sys.argv[1:])
