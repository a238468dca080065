"""Command-line surface: scene synthesis, masks, evaluation, checks, bench.

Every command is deterministic given its flags — all randomness is seeded —
and every file write is atomic (temp file then rename), so re-running a
command with identical arguments reproduces its outputs byte for byte.

Exit codes: 0 on success; 1 for usage, file-format or validation errors and
for inputs too large for the available memory; 2 when a check fails
(gradient error above tolerance, mask not evaluable).
Commands run under the floating-point policy (``autodiff.float_policy``), so
an overflow ends in an ``error:`` line, never in a NumPy warning.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .autodiff import NOT_FINITE, float_policy
from .checks import run_gradient_checks
from .formats import (
    atomic_write_bytes,
    atomic_write_text,
    parse_scene_spec,
    read_f64_raster,
    read_u8_raster,
    write_f64_raster,
    write_mask_pgm,
    write_u8_raster,
)
from .retrieval import ARMS, run_experiment
from .scenes import (LabelMap, NotEvaluableError, SceneSpec, class_mask_means, mask_quality,
                     render_oblique, render_ortho)
from .structure_filter import DepthMap, FilterConfig, GateParams, MaskGeometry

_EPILOG = f"""\
file formats:
  depth/mask raster:  header "GEOD 1 <H> <W>\\n" then H*W little-endian
                      64-bit floats, row-major
  label raster:       header "GEOL 1 <H> <W>\\n" then H*W bytes
                      (0=GROUND 1=ROOF 2=FACADE 3=EDGE)
  mask preview:       binary PGM (P5, maxval 255), mask values rounded
                      from [0, 1]

scene spec (line-oriented text, '#' comments allowed):
  ground <depth>          required
  slope <sx> <sy>         optional, default {SceneSpec.oblique_slope[0]:g} {SceneSpec.oblique_slope[1]:g}
  raster <H> <W>          optional, default {SceneSpec.raster[0]:g} {SceneSpec.raster[1]:g}
  noise <sigma>           optional, default {SceneSpec.noise_sigma:g}
  seed <int>              optional, default {SceneSpec.rng_seed:g}
  edge-band <width>       optional, default {SceneSpec.edge_band:g}
  box <x> <y> <w> <h> <height>   one line per box
"""


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors reported on exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _float_csv(value: float) -> str:
    return repr(float(value))


def _emit_csv(text: str, out_path: str | None) -> None:
    sys.stdout.write(text)
    if out_path is not None:
        atomic_write_text(out_path, text)


def cmd_synth(args) -> int:
    with open(args.spec_file, "rb") as handle:
        raw = handle.read()
    spec = parse_scene_spec(raw.decode("utf-8"))
    render = render_oblique if args.view == "oblique" else render_ortho
    depth_path = os.path.join(args.out_dir, f"{args.view}.depth.geod")
    label_path = os.path.join(args.out_dir, f"{args.view}.labels.geol")
    spec_path = os.path.join(args.out_dir, "scene.spec")
    try:  # rendering and encoding both hold whole rasters
        depth, labels = render(spec)
        os.makedirs(args.out_dir, exist_ok=True)
        write_f64_raster(depth_path, depth.values)
        write_u8_raster(label_path, labels.labels)
    except MemoryError as exc:
        raise MemoryError(f"raster {spec.raster}: out of memory ({exc})") from None
    atomic_write_bytes(spec_path, raw)
    print(f"wrote {depth_path}")
    print(f"wrote {label_path}")
    print(f"wrote {spec_path}")
    return 0


def cmd_mask(args) -> int:
    config = FilterConfig(
        gradient_dilation=args.dilation,
        edge_quantile=args.tau_q,
        clusters=args.k,
        cluster_seed=args.seed,
    )
    raster = read_f64_raster(args.depth_file)
    try:
        # The raster is already at its own resolution, so there is nothing to pool.
        geometry = MaskGeometry.from_depth(DepthMap(raster), config)
    except (ValueError, FloatingPointError) as exc:
        raise ValueError(f"{args.depth_file}: {exc}") from None
    try:
        values = geometry.mask(GateParams(gain=args.alpha, bias=args.beta)).values
    except (ValueError, FloatingPointError) as exc:
        # An overflow in gain * c + bias would make the gate's tensor data infinite.
        reason = exc if isinstance(exc, ValueError) else NOT_FINITE
        raise ValueError(f"--alpha {args.alpha} and --beta {args.beta} "
                         f"saturate the mask gate ({reason})") from None
    write_f64_raster(f"{args.out_prefix}.mask.geod", values)
    write_mask_pgm(f"{args.out_prefix}.mask.pgm", values)
    header = "n_dom_x,n_dom_y,n_dom_z,tau_grad,n_edges,n_flat,mask_mean,mask_min,mask_max"
    row = ",".join(
        [_float_csv(n) for n in geometry.reference] +
        [_float_csv(geometry.partition.threshold), str(geometry.partition.n_edges),
         str(geometry.partition.n_flat), _float_csv(values.mean()),
         _float_csv(values.min()), _float_csv(values.max())]
    )
    atomic_write_text(f"{args.out_prefix}.stats.csv", f"{header}\n{row}\n")
    print(f"wrote {args.out_prefix}.mask.geod")
    print(f"wrote {args.out_prefix}.mask.pgm")
    print(f"wrote {args.out_prefix}.stats.csv")
    return 0


def cmd_eval(args) -> int:
    mask = read_f64_raster(args.mask_file)
    valid = (mask >= 0.0) & (mask <= 1.0)
    if not valid.all():
        raise ValueError(f"mask {args.mask_file} must hold finite values in [0, 1], "
                         f"got {float(mask[~valid][0])}")
    labels = LabelMap(read_u8_raster(args.label_file))
    accuracy = mask_quality(mask, labels)
    means = class_mask_means(mask, labels)
    header = "balanced_accuracy,mean_ground,mean_roof,mean_facade,mean_edge"
    row = ",".join(
        [_float_csv(accuracy)] +
        [_float_csv(means[name]) for name in ("ground", "roof", "facade", "edge")]
    )
    _emit_csv(f"{header}\n{row}\n", args.out)
    return 0


def cmd_gradcheck(args) -> int:
    try:
        rows = run_gradient_checks(base_seed=args.seed, eps=args.eps)
    except ValueError as exc:
        raise ValueError(f"--eps: {exc}") from None
    print(f"{'group':<14}{'loss':<10}{'max_rel_err':>14}  status")
    offenders = []
    for row in rows:
        status = "ok" if row.max_rel_err < args.tol else "FAIL"
        print(f"{row.group:<14}{row.loss:<10}{row.max_rel_err:>14.3e}  {status}")
        if status == "FAIL":
            offenders.append(row)
    if offenders:
        for row in offenders:
            print(
                f"error: {row.group}/{row.loss} gradient mismatch "
                f"{row.max_rel_err:.3e} >= {args.tol:.1e}",
                file=sys.stderr,
            )
        return 2
    return 0


def cmd_bench(args) -> int:
    if args.scenes < 2:
        raise ValueError(f"need at least 2 scenes, got {args.scenes}")
    if args.scenes * 8 > sys.maxsize:  # the int64 seed array; sys.maxsize is NumPy's intp max
        raise ValueError(f"--scenes too large: {args.scenes} is past NumPy's array size limit")
    arms = ARMS if args.ablation == "all" else (args.ablation,)
    try:
        reports = run_experiment(n_scenes=args.scenes, seed=args.seed, arms=arms)
    except MemoryError as exc:
        raise MemoryError(f"--scenes {args.scenes}: out of memory ({exc})") from None
    lines = ["arm,n_queries,recall_at_1,recall_at_5,mean_ap"]
    for arm in arms:
        report = reports[arm]
        lines.append(
            ",".join([report.arm, str(report.n_queries),
                      _float_csv(report.recall_at_1),
                      _float_csv(report.recall_at_5),
                      _float_csv(report.mean_ap)])
        )
    _emit_csv("\n".join(lines) + "\n", args.out)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="geoalign",
        description=__doc__.split("\n\n")[0],
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    synth = sub.add_parser(
        "synth", help="render a scene spec to depth and label rasters",
        epilog=_EPILOG, formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    synth.add_argument("spec_file", metavar="spec-file",
                       help="line-oriented scene description")
    synth.add_argument("out_dir", metavar="out-dir", help="output directory")
    synth.add_argument("--view", choices=("ortho", "oblique"), default="ortho",
                       help="camera geometry (default: ortho)")
    synth.set_defaults(func=cmd_synth)

    mask = sub.add_parser(
        "mask", help="compute the geometric attention mask for a depth raster",
    )
    mask.add_argument("depth_file", metavar="depth-file", help="GEOD raster")
    mask.add_argument("out_prefix", metavar="out-prefix",
                      help="writes <prefix>.mask.geod/.mask.pgm/.stats.csv")
    mask.add_argument("--alpha", type=float, default=GateParams.gain,
                      help="gate gain on normal consistency (default: %(default)s)")
    mask.add_argument("--beta", type=float, default=GateParams.bias,
                      help="gate bias (default: %(default)s)")
    mask.add_argument("--dilation", type=int, default=FilterConfig.gradient_dilation,
                      help="gradient stencil dilation (default: %(default)s)")
    mask.add_argument("--tau-q", type=float, default=FilterConfig.edge_quantile,
                      help="edge quantile on gradient magnitude (default: %(default)s)")
    mask.add_argument("--k", type=int, default=FilterConfig.clusters,
                      help="clusters for the dominant normal (default: %(default)s)")
    mask.add_argument("--seed", type=int, default=FilterConfig.cluster_seed,
                      help="clustering seed (default: %(default)s)")
    mask.set_defaults(func=cmd_mask)

    evaluate = sub.add_parser(
        "eval", help="score a mask against surface labels",
    )
    evaluate.add_argument("mask_file", metavar="mask-file", help="GEOD raster")
    evaluate.add_argument("label_file", metavar="label-file", help="GEOL raster")
    evaluate.add_argument("--out", default=None, help="also write the CSV here")
    evaluate.set_defaults(func=cmd_eval)

    gradcheck = sub.add_parser(
        "gradcheck", help="finite-difference validation of all parameter groups",
    )
    gradcheck.add_argument("--seed", type=int, default=0,
                           help="base seed for the scenario battery (default: 0)")
    gradcheck.add_argument("--eps", type=float, default=1e-5,
                           help="central-difference step (default: 1e-5)")
    gradcheck.add_argument("--tol", type=float, default=1e-4,
                           help="max acceptable relative error (default: 1e-4)")
    gradcheck.set_defaults(func=cmd_gradcheck)

    bench = sub.add_parser(
        "bench", help="cross-view retrieval ablation over synthetic scenes",
    )
    bench.add_argument("--scenes", type=int, default=50,
                       help="number of scenes (>= 2, default: 50)")
    bench.add_argument("--seed", type=int, default=0,
                       help="experiment seed (default: 0)")
    bench.add_argument("--ablation", choices=ARMS + ("all",), default="all",
                       help="restrict to one arm (default: all)")
    bench.add_argument("--out", default=None, help="also write the CSV here")
    bench.set_defaults(func=cmd_bench)

    return parser


# Values a flag's type admits but no command can use: flag -> (rule, test).
_FLAG_RULES = {
    "alpha": ("finite", math.isfinite),
    "beta": ("finite", math.isfinite),
    "eps": ("positive and finite", lambda v: 0.0 < v < math.inf),
    "tol": ("positive and finite", lambda v: 0.0 < v < math.inf),
    "seed": ("non-negative", lambda v: v >= 0),
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name, (rule, ok) in _FLAG_RULES.items():
            value = getattr(args, name, None)
            if value is not None and not ok(value):
                raise ValueError(f"--{name} must be {rule}, got {value}")
        with float_policy():
            return args.func(args)
    except NotEvaluableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, FloatingPointError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
