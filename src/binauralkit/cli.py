"""Command-line surface: preprocess, render, metrics, features, cfm-train,
cfm-sample and validate subcommands.

Exit codes: 0 success, 1 per-clip failures under --strict, validation
problems, an input or output that cannot be read or written, or flow
training or sampling that diverges (each reported on one stderr line,
`binauralkit <command>: error: <message>`), 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import flow
from .ambisonic import ring_layout
from .audio import atomic_write
from .heatmap import extract_features, load_heatmap_sequence, save_features_csv
from .pipeline import (
    PreprocessConfig,
    batch_metrics,
    batch_render,
    load_manifest,
    preprocess,
    save_manifest,
    validate_manifest,
    write_aggregate_csv,
    write_metrics_json,
)
from .render import RenderConfig


def _checked(convert, ok, requirement):
    """argparse type: convert the text, then reject a value failing `ok` as a
    usage error that names the flag."""

    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse names the type on a bad literal
    return parse


_COUNT = _checked(int, lambda v: v >= 1, ">= 1")
_FINITE = _checked(float, math.isfinite, "finite")
_NON_NEGATIVE = _checked(float, lambda v: math.isfinite(v) and v >= 0, "finite and >= 0")
_POSITIVE = _checked(float, lambda v: math.isfinite(v) and v > 0, "finite and > 0")
_FRACTION = _checked(float, lambda v: 0.0 <= v <= 1.0, "finite and in [0, 1]")
_SPEAKERS = _checked(int, lambda v: v >= 2, ">= 2")
_SEED = _checked(int, lambda v: v >= 0, ">= 0")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="binauralkit",
        description="Mono-to-binaural rendering, spatial metrics and toy flow matching.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("preprocess", help="filter a manifest by duration and silence")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="filtered manifest JSON")
    p.add_argument("--report", help="preprocess report JSON")
    p.add_argument("--min-seconds", type=_NON_NEGATIVE, default=10.0)
    p.add_argument("--silence-threshold-db", type=_FINITE, default=-50.0)
    p.add_argument("--max-silence-fraction", type=_FRACTION, default=0.8)

    p = sub.add_parser("render", help="batch-render manifest clips to stereo WAVs")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--fov-deg", type=_FINITE, default=90.0)
    p.add_argument("--order", type=int, choices=(0, 1, 2), default=1)
    p.add_argument("--speakers", type=_SPEAKERS, default=8)
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--encoding", choices=["float32", "pcm16"], default="float32")
    p.add_argument("--strict", action="store_true")

    p = sub.add_parser("metrics", help="spatial metric reports for stereo WAVs")
    p.add_argument("input", help="directory of stereo WAVs or a manifest JSON")
    p.add_argument("--json", dest="json_out", help="per-clip report JSON")
    p.add_argument("--csv", dest="csv_out", help="aggregate CSV")
    p.add_argument("--strict", action="store_true")

    p = sub.add_parser("features", help="extract spatial features from a heatmap file")
    p.add_argument("--hmap", required=True)
    p.add_argument("--out", required=True, help="feature CSV")
    p.add_argument("--frame-rate", type=_POSITIVE, default=31.25)

    p = sub.add_parser("cfm-train", help="train the toy dual-channel flow matcher")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--trace", help="loss trace CSV")
    p.add_argument("--steps", type=_COUNT, default=2000)
    p.add_argument("--lr", type=_NON_NEGATIVE, default=1e-3)
    p.add_argument("--batch-size", type=_COUNT, default=128)
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--hidden", type=_COUNT, default=64)
    p.add_argument("--latent-dim", type=_COUNT, default=1)
    p.add_argument("--target", type=_FINITE, default=3.0,
                   help="constant target value for the synthetic task")
    p.add_argument("--samples", type=_COUNT, default=1024)
    p.add_argument("--shared-weights", action="store_true")

    p = sub.add_parser("cfm-sample", help="Euler-sample from a trained checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--steps", type=_COUNT, default=32)
    p.add_argument("--draws", type=_COUNT, default=1000)
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--out", help="CSV of drawn samples")

    p = sub.add_parser("validate", help="check that manifest paths resolve")
    p.add_argument("--manifest", required=True)

    return parser


def _cmd_preprocess(args):
    manifest = load_manifest(args.manifest)
    cfg = PreprocessConfig(
        min_seconds=args.min_seconds,
        silence_threshold_dbfs=args.silence_threshold_db,
        max_silence_fraction=args.max_silence_fraction,
    )
    kept, report = preprocess(manifest, cfg)
    save_manifest(args.out, kept)
    if args.report:
        with atomic_write(args.report) as fh:
            fh.write(report.to_json() + "\n")
    print(
        f"kept {report.kept}, rejected_short {report.rejected_short}, "
        f"rejected_silent {report.rejected_silent}, "
        f"rejected_unreadable {report.rejected_unreadable}"
    )
    return 0


def _cmd_render(args):
    manifest = load_manifest(args.manifest)
    cfg = RenderConfig(
        order=args.order,
        layout=ring_layout(args.speakers),
        normalize_output=args.normalize,
    )
    log = batch_render(
        manifest, cfg, args.out, fov=math.radians(args.fov_deg), encoding=args.encoding
    )
    failures = [item for item in log if item["status"] != "ok"]
    for item in log:
        if item["status"] == "ok":
            print(f"{item['id']}: {item['output']}")
        else:
            print(f"{item['id']}: FAILED ({item['error']})", file=sys.stderr)
    return 1 if failures and args.strict else 0


def _cmd_metrics(args):
    source = args.input
    if source.endswith(".json"):
        source = load_manifest(source)
    per_clip, aggregate, failures = batch_metrics(source)
    if args.json_out:
        write_metrics_json(args.json_out, per_clip, failures)
    if args.csv_out:
        write_aggregate_csv(args.csv_out, aggregate)
    for name, (mean, count) in aggregate.items():
        print(f"{name}: mean {mean:.6g} over {count} clips")
    for clip_id, error in failures.items():
        print(f"{clip_id}: FAILED ({error})", file=sys.stderr)
    return 1 if failures and args.strict else 0


def _cmd_features(args):
    seq = load_heatmap_sequence(args.hmap, args.frame_rate)
    features = extract_features(seq)
    save_features_csv(args.out, features)
    print(f"wrote {len(features)} feature rows to {args.out}")
    return 0


def _cmd_cfm_train(args):
    cfg = flow.TrainConfig(
        learning_rate=args.lr,
        batch_size=args.batch_size,
        steps=args.steps,
        rng_seed=args.seed,
        hidden_width=args.hidden,
        shared_weights=args.shared_weights,
    )
    dataset = flow.constant_target_dataset(
        args.samples, args.latent_dim, args.target, args.seed
    )
    net_l, net_r = flow.make_nets(args.latent_dim, 0, cfg)
    trace = flow.train(net_l, net_r, dataset, cfg)
    nets = [net_l] if net_l is net_r else [net_l, net_r]
    flow.save_checkpoint(args.checkpoint, nets)
    if args.trace:
        flow.save_loss_trace(args.trace, trace)
    print(f"final loss {trace[-1]:.6g} after {args.steps} steps")
    return 0


def _cmd_cfm_sample(args):
    nets = flow.load_checkpoint(args.checkpoint)
    net = nets[0]
    cond = np.ones(net.cond_dim) if net.cond_dim else None
    x0 = np.random.default_rng(args.seed).standard_normal((args.draws, net.latent_dim))
    draws = flow.sample_euler(net, x0, cond, args.steps)
    if args.out:
        with atomic_write(args.out, newline="") as fh:
            fh.write("draw," + ",".join(f"x{i}" for i in range(net.latent_dim)) + "\n")
            for i, row in enumerate(draws):
                fh.write(f"{i}," + ",".join(f"{v:.12g}" for v in row) + "\n")
    print(f"mean {np.mean(draws, axis=0)}")
    return 0


def _cmd_validate(args):
    manifest = load_manifest(args.manifest)
    problems = validate_manifest(manifest)
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    print(f"manifest ok: {len(manifest)} entries")
    return 0


_COMMANDS = {
    "preprocess": _cmd_preprocess,
    "render": _cmd_render,
    "metrics": _cmd_metrics,
    "features": _cmd_features,
    "cfm-train": _cmd_cfm_train,
    "cfm-sample": _cmd_cfm_sample,
    "validate": _cmd_validate,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError, flow.FlowDivergence) as exc:
        print(f"binauralkit {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
