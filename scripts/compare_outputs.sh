#!/usr/bin/env bash
# Run one list of geoalign commands against two source trees and fail unless
# every output byte matches.
#
#   scripts/compare_outputs.sh BASE_TREE HEAD_TREE [WORK_DIR]
#
# Each tree is a checkout of this repository; its package is imported from
# <tree>/src. The commands cover the default outputs of every subcommand:
# synth (README spec, both views), mask (default flags, one non-default set,
# --k 1, where the k-means assignment loop never runs, and --tau-q 0, where
# every pixel is an edge), eval, bench (all arms, and --ablation mgsf, where
# `embed` builds only some arms) and gradcheck. Because `gradcheck` prints
# its errors to three digits only, gradcheck_hex.txt also lists `group loss
# max_rel_err.hex() n_evals` for the default battery and for base seeds 0-63
# at one scenario each, so the errors must match bit for bit. bench's CSV
# shows the pooled forward paths only through ranks, so pooled_hex.txt lists
# the SHA-256 of depth_feature_stack at 16x16 and 8x8, align_depth at 8x8,
# the arms' 16x16 structure_mask and embed's four arm embeddings, for scene
# seeds 0-7 in both views. Failing commands (a spec with overlapping boxes, a
# raster too small, a saturated gate, a stencil past the raster, a depth
# raster scored as a mask, an --eps too small, one whose probes leave an
# embedding off unit length, one whose probes overflow, one bench scene)
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
    python -m geoalign mask out/oblique.depth.geod out/default > mask_default.txt
    python -m geoalign mask out/oblique.depth.geod out/flags \
      --k 5 --seed 3 --dilation 1 --tau-q 0.5 > mask_flags.txt
    python -m geoalign mask out/oblique.depth.geod out/k1 --k 1 > mask_k1.txt
    python -m geoalign mask out/oblique.depth.geod out/tq0 --tau-q 0 > mask_tq0.txt
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
    python - > pooled_hex.txt <<'PY'
from hashlib import sha256

from geoalign.retrieval import (ARM_FILTER_CONFIG, ARMS, EMBEDDING_DIM, ToyEncoder,
                                _arm_parts, embed)
from geoalign.scale_fusion import FusionParams, depth_feature_stack
from geoalign.scenes import facade_heavy_spec, render_oblique, render_ortho
from geoalign.structure_filter import align_depth, structure_mask

encoder = ToyEncoder.seeded(seed=0)
fusion = FusionParams.smoothing(EMBEDDING_DIM, seed=0)
for seed in range(8):
    for view, render in (("ortho", render_ortho), ("oblique", render_oblique)):
        d = render(facade_heavy_spec(seed))[0]
        arrays = {"stack16": depth_feature_stack(d, 16, 16),
                  "stack8": depth_feature_stack(d, 8, 8),
                  "align8": align_depth(d, 8, 8).values,
                  "mask16": structure_mask(d, 16, 16, cfg=ARM_FILTER_CONFIG).values}
        arms = embed(d, encoder, [_arm_parts(arm) for arm in ARMS], fusion)
        arrays.update((f"embed_{arm}", e.data) for arm, e in zip(ARMS, arms))
        for name, a in arrays.items():
            print(seed, view, name, a.shape, sha256(a.tobytes()).hexdigest())
PY
  )
}

run_commands "$base_tree" "$work/base"
run_commands "$head_tree" "$work/head"
diff -r "$work/base" "$work/head"
echo "outputs match: $(find "$work/head" -type f | wc -l) files in $work"
