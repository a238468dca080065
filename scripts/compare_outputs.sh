#!/usr/bin/env bash
# Run one list of geoalign commands against two source trees and fail unless
# every output byte matches.
#
#   scripts/compare_outputs.sh BASE_TREE HEAD_TREE [WORK_DIR]
#
# Each tree is a checkout of this repository; its package is imported from
# <tree>/src. The commands cover the default outputs of every subcommand:
# synth (README spec, both views, and the oblique view of the same spec at
# slope 0 0, which is the ortho render), mask (default flags, one non-default
# set, --k 1, where the k-means assignment loop never runs, --tau-q 0, where
# every pixel is an edge, --k 9 on a 3x3 raster whose 5 flat pixels are
# fewer than the clusters, so the dominant normal is their mean, a
# constant 8x8 raster, whose equal normals send k-means++ to its lowest
# unused index, and the oblique render of a 128x128 facade-heavy spec, as
# `geoalign mask` meets it at native size, at default flags and at --k 300,
# whose labels need 16 bits), eval, bench (all arms, and --ablation mgsf, where `embed`
# builds only some arms) and gradcheck. Because `gradcheck` prints
# its errors to three digits only, gradcheck_hex.txt also lists `group loss
# max_rel_err.hex() n_evals` for the default battery and for base seeds 0-63
# at one scenario each, so the errors must match bit for bit, and
# gradcheck_eps.txt lists, for 33 step sizes from 1e-330 to 3.7e306 (the
# k-th at base seed k % 5, two scenarios), every error's hex or the error
# text, so the order in which bad steps are blamed must match too. bench's CSV
# shows the pooled forward paths only through ranks, so pooled_hex.txt lists
# the SHA-256 of depth_feature_stack at 16x16 and 8x8, align_depth at 8x8,
# the arms' 16x16 structure_mask and embed's four arm embeddings, for scene
# seeds 0-7 in both views, and of MaskGeometry.from_depth's reference and
# consistency for one 64x64 stack of noise-free renders (scene seeds 0-11,
# both views) at the default FilterConfig, the arms' and clusters=5 with
# edge_quantile=0.5: without noise the maps' flat-pixel counts differ, so
# k-means runs once per count. Failing commands (a spec with overlapping boxes, a
# raster too small, a saturated gate, a stencil past the raster, a depth
# raster scored as a mask, an --eps too small, one whose probes leave an
# embedding off unit length, one whose probes overflow, a --tol that every
# check fails, one bench scene)
# write their stdout, stderr and exit code, so a changed error message fails
# too; out-of-memory cases are left out, as their text depends on the
# platform. A valid 96x96 spec with a 48x48 grid of 1x1
# boxes is rendered in both views, and the same grid plus one box on its last
# box must fail naming that pair. Outputs land in
# WORK_DIR/base and WORK_DIR/head (default: a new temporary directory), which
# end in `diff -r`.
set -euo pipefail

if [ "$#" -lt 2 ] || [ "$#" -gt 3 ]; then
  echo "usage: $0 BASE_TREE HEAD_TREE [WORK_DIR]" >&2
  exit 2
fi
base_tree=$(cd "$1" && pwd)
head_tree=$(cd "$2" && pwd)
work=${3:-$(mktemp -d)}
mkdir -p "$work"
work=$(cd "$work" && pwd)

run_commands() {
  local tree=$1 out=$2
  rm -rf "$out"
  mkdir -p "$out"
  (
    cd "$out"
    export PYTHONPATH="$tree/src"
    echo "$(basename "$out"): $(python -c 'import geoalign; print(geoalign.__file__)')"
    # fail NAME ARGS...: `geoalign ARGS...` must fail; NAME.txt gets its
    # stdout, then its exit code and stderr.
    fail() {
      local name=$1 code=0
      shift
      python -m geoalign "$@" > "$name.txt" 2> "$name.stderr" || code=$?
      [ "$code" -ne 0 ] || { echo "$name: expected a non-zero exit" >&2; exit 1; }
      { echo "exit $code"; cat "$name.stderr"; } >> "$name.txt"
      rm "$name.stderr"
    }
    printf '%s\n' 'ground 40.0' 'slope -0.03 0.025' 'raster 64 64' 'noise 0.02' 'seed 2' \
      'box 6 6 20 20 32.0' 'box 36 10 18 14 25.0' 'box 10 38 16 18 30.0' > city.spec
    python -m geoalign synth city.spec out --view ortho > synth_ortho.txt
    python -m geoalign synth city.spec out --view oblique > synth_oblique.txt
    sed 's/^slope .*/slope 0 0/' city.spec > level.spec
    python -m geoalign synth level.spec level --view oblique > synth_level_oblique.txt
    python -m geoalign mask out/oblique.depth.geod out/default > mask_default.txt
    python -m geoalign mask out/oblique.depth.geod out/flags \
      --k 5 --seed 3 --dilation 1 --tau-q 0.5 > mask_flags.txt
    python -m geoalign mask out/oblique.depth.geod out/k1 --k 1 > mask_k1.txt
    python -m geoalign mask out/oblique.depth.geod out/tq0 --tau-q 0 > mask_tq0.txt
    python -c 'import struct, sys
sys.stdout.buffer.write(b"GEOD 1 3 3\n" + struct.pack("<9d", 40.0, 41.5, 43.0, 40.25, 42.0,
                                                      44.5, 40.75, 43.25, 46.0))' > tiny.geod
    python -m geoalign mask tiny.geod out/few_flat --dilation 1 --tau-q 0.5 --k 9 > mask_few_flat.txt
    python -c 'import struct, sys
sys.stdout.buffer.write(b"GEOD 1 8 8\n" + struct.pack("<64d", *[40.0] * 64))' > constant.geod
    python -m geoalign mask constant.geod out/constant > mask_constant.txt
    python -c 'from geoalign.scenes import facade_heavy_spec
s = facade_heavy_spec(0, raster=(128, 128))
print(f"ground {s.ground_depth!r}\nslope {s.oblique_slope[0]!r} {s.oblique_slope[1]!r}")
print(f"raster 128 128\nnoise {s.noise_sigma!r}\nseed {s.rng_seed}")
for b in s.boxes:
    print(f"box {b.x} {b.y} {b.w} {b.h} {b.height!r}")' > facade128.spec
    python -m geoalign synth facade128.spec native --view oblique > synth_native.txt
    python -m geoalign mask native/oblique.depth.geod out/native > mask_native.txt
    python -m geoalign mask native/oblique.depth.geod out/native_k300 --k 300 > mask_native_k300.txt
    python -m geoalign eval out/default.mask.geod out/oblique.labels.geol > eval.csv
    python -m geoalign bench --scenes 20 --seed 3 --out bench.csv > /dev/null
    python -m geoalign bench --scenes 20 --seed 3 --ablation mgsf --out bench_mgsf.csv > /dev/null
    python -m geoalign gradcheck --seed 0 > gradcheck.txt
    printf '%s\n' 'ground 40.0' 'box 0 0 4 4 5.0' 'box 10 10 4 4 5.0' 'box 11 11 2 2 5.0' \
      'box 1 1 2 2 5.0' > overlap.spec
    printf '%s\n' 'ground 40.0' 'raster 2 64' > small.spec
    fail synth_overlap synth overlap.spec err
    fail synth_small synth small.spec err
    fail mask_alpha40 mask out/oblique.depth.geod err/m --alpha 40
    fail mask_dilation40 mask out/oblique.depth.geod err/m --dilation 40
    fail eval_depth_as_mask eval out/oblique.depth.geod out/oblique.labels.geol
    fail gradcheck_eps_tiny gradcheck --eps 1e-300
    fail gradcheck_eps_huge gradcheck --eps 1e300
    fail gradcheck_eps_overflow gradcheck --eps 1e308
    fail gradcheck_fail gradcheck --tol 1e-12
    fail bench_one_scene bench --scenes 1
    python -c 'print("ground 40.0\nslope -0.03 0.025\nraster 96 96")
for i in range(48):
    for j in range(48):
        print(f"box {2 * j} {2 * i} 1 1 {10 + (i + j) % 7}.0")' > grid.spec
    python -m geoalign synth grid.spec grid --view ortho > synth_grid_ortho.txt
    python -m geoalign synth grid.spec grid --view oblique > synth_grid_oblique.txt
    { cat grid.spec; echo 'box 94 94 1 1 5.0'; } > overlap_late.spec
    fail synth_overlap_late synth overlap_late.spec err
    python - > gradcheck_hex.txt <<'PY'
from geoalign.checks import run_gradient_checks

batteries = [("default", run_gradient_checks())]
batteries += [(f"seed{s}", run_gradient_checks(base_seed=s, n_seeds=1)) for s in range(64)]
for label, rows in batteries:
    for r in rows:
        print(label, r.group, r.loss, r.max_rel_err.hex(), r.n_evals)
PY
    python - > gradcheck_eps.txt <<'PY'
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
PY
    python - > pooled_hex.txt <<'PY'
from dataclasses import replace
from hashlib import sha256

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
PY
  )
}

run_commands "$base_tree" "$work/base"
run_commands "$head_tree" "$work/head"
diff -r "$work/base" "$work/head"
echo "outputs match: $(find "$work/head" -type f | wc -l) files in $work"
