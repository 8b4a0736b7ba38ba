"""Command-line entry point.

Subcommands:

* ``synth``    generate a synthetic corpus into a data directory
* ``train``    fit a model on a data directory, write a checkpoint
* ``eval``     score a checkpoint on a data directory (recall + consistency)
* ``analyze``  score an external predictions file against annotations only

A data directory holds ``annotations.json``, ``embeddings.txt`` and a
``features/`` subdirectory with one ``<video_id>.crmf`` file per video.

Exit codes: 0 success, 2 configuration or data problem, 3 training
diverged, 4 checkpoint incompatible with the data, 5 predictions that do
not match the annotations.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, fields

from .config import default_run_config, load_run_config
from .data import (SPLITS, DataConfig, atomic_write, filter_split, load_corpus,
                   load_embeddings, open_text, read_annotations, read_timestamps)
from .errors import ConfigError, DataError, MomentlocError, require
from .evaluation import _fmt, analyze_predictions, evaluate, report_to_json, report_to_table
from .segments import Segment
from .synthetic import emit_corpus, generate_corpus
from .training import load_checkpoint, save_checkpoint, train


def _run_config(args):
    if args.config is None:
        return default_run_config()
    return load_run_config(args.config)


def _load_data_dir(data_dir, config: DataConfig):
    annotations = os.path.join(data_dir, "annotations.json")
    embeddings = os.path.join(data_dir, "embeddings.txt")
    features = os.path.join(data_dir, "features")
    for path in (annotations, embeddings):
        if not os.path.exists(path):
            raise DataError(f"{path} does not exist")
    table = load_embeddings(embeddings)
    result = load_corpus(annotations, features, table, config)
    for _, reason in result.skipped:
        print(f"skipping {reason}", file=sys.stderr)
    if not result.records:
        raise DataError(f"no usable videos in {data_dir}")
    return result.records, table


def cmd_synth(args) -> int:
    run = _run_config(args)
    corpus = generate_corpus(run.synth_config())
    os.makedirs(args.out_dir, exist_ok=True)
    manifest = emit_corpus(corpus, args.out_dir)
    print(f"wrote {manifest['num_videos']} videos to {args.out_dir}")
    print(f"digest {manifest['digest']}")
    return 0


def cmd_train(args) -> int:
    run = _run_config(args)
    data_config = run.data_config()
    records, _ = _load_data_dir(args.data_dir, data_config)
    train_records = filter_split(records, "train")
    if not train_records:
        raise DataError("no records in the train split")
    train_config = run.train_config(loss=args.loss, seed=args.seed)
    ckpt = train(train_records, train_config, asdict(data_config))
    save_checkpoint(ckpt, args.out)
    metrics_path = args.metrics if args.metrics else args.out + ".metrics.csv"
    with atomic_write(metrics_path, encoding="utf-8") as fh:
        fh.write(ckpt.metrics_csv)
    last = ckpt.metrics_csv.strip().splitlines()[-1]
    print(f"trained {ckpt.epoch} epoch(s) on {len(train_records)} videos")
    print(f"final epoch,loss,bce,tmp,smt: {last}")
    print(f"checkpoint {args.out}")
    print(f"metrics {metrics_path}")
    return 0


def _parse_thresholds(raw: str) -> tuple:
    try:
        values = tuple(float(p) for p in raw.split(",") if p.strip())
    except ValueError:
        raise ConfigError(f"cannot parse thresholds {raw!r}") from None
    require(values and all(0 <= v < 1 for v in values), "--thresholds", "lie in [0, 1)", raw)
    return values


def cmd_eval(args) -> int:
    thresholds = _parse_thresholds(args.thresholds)
    require(0 <= args.tau_eval < 1, "--tau-eval", "lie in [0, 1)", args.tau_eval)
    ckpt = load_checkpoint(args.checkpoint)
    data_config = DataConfig(**{f.name: ckpt.config.get(f.name, f.default)
                                for f in fields(DataConfig)})
    records, _ = _load_data_dir(args.data_dir, data_config)
    split = None if args.split == "all" else args.split
    report = evaluate(records, ckpt, thresholds, split, args.tau_eval)
    print(report_to_table(report))
    out_path = args.out if args.out else args.checkpoint + ".eval.json"
    with atomic_write(out_path, encoding="utf-8") as fh:
        fh.write(report_to_json(report))
    print(f"report {out_path}")
    return 0


def read_predictions(path) -> dict:
    """Parse a predictions TSV: video_id, position, start_s, end_s. A
    (video_id, position) listed twice raises DataError naming both lines."""
    preds, line_of = {}, {}
    try:
        with open_text(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read predictions: {exc}") from None
    for n, line in enumerate(lines, start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise DataError(f"{path}:{n}: expected 4 tab-separated fields")
        vid, pos_raw, start_raw, end_raw = parts
        try:
            key, segment = (vid, int(pos_raw)), Segment(float(start_raw), float(end_raw))
        except ValueError as exc:
            raise DataError(f"{path}:{n}: {exc}") from None
        if key in line_of:
            raise DataError(f"{path}:{n}: video {vid!r} position {key[1]} "
                            f"is predicted on line {line_of[key]} already")
        preds[key], line_of[key] = segment, n
    if not preds:
        raise DataError(f"{path}: no predictions found")
    return preds


def cmd_analyze(args) -> int:
    require(0 <= args.tau_eval < 1, "--tau-eval", "lie in [0, 1)", args.tau_eval)
    preds = read_predictions(args.predictions)
    gt_map = {vid: read_timestamps(vid, entry)
              for vid, entry in read_annotations(args.annotations).items()}
    result = analyze_predictions(preds, gt_map, args.tau_eval)
    print(f"temporal consistency  {_fmt(result['temporal_consistency'])}")
    print(f"semantic consistency  {_fmt(result['semantic_consistency'])}")
    print(f"pairs scored {result['pairs_scored']} (skipped {result['pairs_skipped']})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momentloc",
        description="sentence-to-moment localisation: corpus tools, training, evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("out_dir", help="directory to write the corpus into")
    p.add_argument("--config", default=None, help="INI run configuration")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model on a data directory")
    p.add_argument("data_dir")
    p.add_argument("out", help="checkpoint output path")
    p.add_argument("--config", default=None, help="INI run configuration")
    p.add_argument("--loss", default=None,
                   help="loss components, e.g. 'bce' or 'bce,tmp,smt' (overrides config)")
    p.add_argument("--seed", type=int, default=None, help="override the training seed")
    p.add_argument("--metrics", default=None, help="metrics CSV path (default OUT.metrics.csv)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on a data directory")
    p.add_argument("checkpoint")
    p.add_argument("data_dir")
    p.add_argument("--thresholds", default="0.1,0.3,0.5", help="comma-separated IoU thresholds")
    p.add_argument("--split", default="all", choices=("all",) + SPLITS)
    p.add_argument("--tau-eval", type=float, default=0.5, dest="tau_eval")
    p.add_argument("--out", default=None, help="JSON report path (default CHECKPOINT.eval.json)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze", help="audit an external predictions file")
    p.add_argument("predictions", help="TSV: video_id, position, start_s, end_s")
    p.add_argument("annotations", help="annotations JSON file")
    p.add_argument("--tau-eval", type=float, default=0.5, dest="tau_eval")
    p.set_defaults(func=cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (MomentlocError, OSError) as exc:
        for item in getattr(exc, "unmatched", ()):
            print(f"unmatched prediction {item}", file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)


if __name__ == "__main__":
    sys.exit(main())
