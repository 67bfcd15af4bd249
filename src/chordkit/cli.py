"""Command-line entry point.

Subcommands: train, predict, smooth, eval, report, synth, augment,
check-align. Every run writes a JSON manifest next to its outputs with the
exact configuration needed to reproduce it. Structured outputs go to
--out; logs go to stderr. Exit codes: 0 success, 1 runtime failure,
2 argument errors.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, annotate, decode, features, metrics, model, synthgen
from .errors import ChordkitError, ZeroDefinedTime
from .metrics import MetricKind
from .vocab import VOCABULARIES, get_vocabulary, id_label

# train's flag destinations -> the TrainConfig fields they set and take defaults from
TRAIN_FIELDS = {"epochs": "epochs", "batch_size": "batch_size", "patch_seconds": "patch_seconds",
                "learning_rate": "learning_rate", "alpha": "weight_alpha",
                "gamma": "structured_gamma", "shift_prob": "shift_probability"}


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _out_dir(args: argparse.Namespace) -> Path:
    """The --out directory, created with its parents if missing."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _write_json(path: Path, data) -> None:
    """JSON with a 2-space indent, sorted keys and a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _write_csv(path: Path, header: list, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *rows])


def _write_manifest(out_dir: Path, args: argparse.Namespace,
                    inputs: list[str], outputs: list[str], **recorded) -> None:
    """run_manifest.json; ``recorded`` overrides the config values of args."""
    config = {**vars(args), **recorded}
    _write_json(out_dir / "run_manifest.json", {
        "toolkit_version": __version__,
        "command": args.command,
        "config": {k: v for k, v in sorted(config.items()) if k != "func"},
        "inputs": sorted(inputs),
        "outputs": sorted(outputs),
    })


def _dataset_pairs(data_dir: Path):
    pairs = []
    for tsv in sorted(data_dir.glob("*.tsv")):
        cqtf = tsv.with_suffix(".cqtf")
        if cqtf.exists():
            pairs.append((cqtf, tsv))
    return pairs


def _load_pairs(pairs):
    out = []
    for cqtf, tsv in pairs:
        feat = features.load_features(cqtf)
        ann = annotate.load_annotation(tsv, duration=feat.n_frames * feat.hop)
        out.append((feat, ann))
    return out


def _split(pairs, seed: int):
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(pairs))
    n_train = int(0.6 * len(pairs))
    n_val = int(0.2 * len(pairs))
    train = [pairs[i] for i in order[:n_train]]
    val = [pairs[i] for i in order[n_train:n_train + n_val]]
    test = [pairs[i] for i in order[n_train + n_val:]]
    return train, val, test


def _write_labels(ids, hop: float, intervals, vocab, out: Path) -> None:
    """The label file of posteriorgram rows: frame rows (no ``intervals``)
    merge into runs of equal ids; pooled rows keep one labelled interval each."""
    path = (metrics.path_from_frames(ids, hop) if intervals is None
            else metrics.TimedPath(np.column_stack((intervals, ids))))
    segments = tuple((start, end, id_label(cid, vocab)) for start, end, cid in path.intervals)
    annotate.save_annotation(annotate.Annotation(segments, path.duration), out)


# --- subcommands ---

def cmd_synth(args) -> int:
    if args.n < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    # every input is checked before --out is made; each song lasts cfg.duration
    cfg = synthgen.ProgressionConfig(duration=args.duration)
    grid = annotate.grid_for(cfg.duration, hop=args.hop)
    render = features.RenderParams(noise_db=args.noise)
    out_dir = _out_dir(args)
    songs, outputs = [], []
    for i in range(args.n):
        seed = args.seed * 1_000_003 + i
        ann, bpm, _ = synthgen.generate_song(cfg, seed)
        feat = features.render_synthetic_cqt(ann, grid, replace(render, seed=seed + 1))
        stem = f"song_{i:04d}"
        annotate.save_annotation(ann, out_dir / f"{stem}.tsv")
        features.save_features(feat, out_dir / f"{stem}.cqtf")
        songs.append({"name": stem, "seed": seed, "bpm": round(bpm, 6)})
        outputs += [f"{stem}.tsv", f"{stem}.cqtf"]
    _write_json(out_dir / "dataset.json",
                {"songs": songs, "noise_db": args.noise, "hop": args.hop})
    _write_manifest(out_dir, args, [], outputs + ["dataset.json"])
    _log(f"wrote {args.n} synthetic songs to {out_dir}")
    return 0


def cmd_train(args) -> int:
    cfg = model.TrainConfig(seed=args.seed,
                            **{name: getattr(args, dest) for dest, name in TRAIN_FIELDS.items()})
    # omitted sizes take model.train's defaults
    sizes = {k: v for k, v in (("hidden_units", args.hidden_units), ("context", args.context))
             if v is not None}
    if sizes and args.arch != "hidden":
        raise ChordkitError(f"--hidden-units and --context apply to --arch hidden only, "
                            f"not {args.arch}")
    vocab = get_vocabulary(args.vocab)
    pairs = _dataset_pairs(Path(args.data))
    if not pairs:
        raise ChordkitError(f"no (tsv, cqtf) pairs found in {args.data}")
    train_pairs, val_pairs, _ = _split(pairs, args.seed)
    train_set = _load_pairs(train_pairs)
    val_set = _load_pairs(val_pairs)
    params, history = model.train(train_set, val_set, cfg, vocab,
                                  arch=args.arch, **sizes)
    out_dir = _out_dir(args)
    model.save_checkpoint(params, out_dir / "model.npz")
    with open(out_dir / "history.jsonl", "w", encoding="utf-8") as fh:
        for record in history:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    _write_manifest(out_dir, args,
                    [str(p) for p, _ in pairs], ["model.npz", "history.jsonl"],
                    hidden_units=params.hidden_units, context=params.context)
    _log(f"trained {args.arch} model on {len(train_set)} songs -> {out_dir / 'model.npz'}")
    return 0


def cmd_predict(args) -> int:
    # no division means the default one with a beat file, frame-wise without;
    # a beat flag the chosen mode does not read is an error
    division = args.beat_division or (features.DEFAULT_BEAT_DIVISION if args.beat_file else None)
    if division == "perfect":
        if args.beat_file or not args.ann:
            raise ChordkitError("--beat-division perfect requires --ann and no --beat-file")
    elif args.ann:
        raise ChordkitError("--ann applies to --beat-division perfect only")
    elif division is not None and not args.beat_file:
        raise ChordkitError(f"--beat-division {division} requires --beat-file")
    vocab = get_vocabulary(args.vocab)
    params = model.load_checkpoint(args.model)
    model.check_vocabulary("model", params.n_classes, params.vocab_hash, vocab)
    feat = features.load_features(args.features)
    duration = feat.n_frames * feat.hop
    intervals = None
    if division is not None:
        if division == "perfect":
            ann = annotate.load_annotation(args.ann, duration=duration)
            beats = features.perfect_intervals(ann)
        else:
            beats = features.beat_intervals(features.load_beats(args.beat_file), division,
                                            duration=duration)
        feat = features.beat_pool(feat, beats)
        intervals = beats.intervals
    post, _, _ = model.forward(params, feat)
    ids = np.argmax(post, axis=1)
    out_dir = _out_dir(args)
    _write_labels(ids, feat.hop, intervals, vocab, out_dir / "labels.tsv")
    model.save_posteriors(out_dir / "posteriors.npz", post, params.vocab_hash,
                          feat.hop, intervals)
    _write_manifest(out_dir, args, [args.model, args.features],
                    ["labels.tsv", "posteriors.npz"], beat_division=division)
    _log(f"wrote predictions to {out_dir}")
    return 0


def cmd_smooth(args) -> int:
    vocab = get_vocabulary(args.vocab)
    post, hop, intervals = model.load_posteriors(args.post, vocab)
    cfg = decode.DecoderConfig(beta=args.beta, n_classes=post.shape[1],
                               mode="max_marginal" if args.max_marginal else "viterbi")
    ids = decode.viterbi_smooth(post, cfg)
    out_dir = _out_dir(args)
    _write_labels(ids, hop, intervals, vocab, out_dir / "labels.tsv")
    _write_manifest(out_dir, args, [args.post], ["labels.tsv"])
    _log(f"smoothed {post.shape[0]} rows (beta={args.beta}) -> {out_dir}")
    return 0


def _scored_pair(ref_ann, est_ann, vocab):
    """(reference, estimate) paths, the estimate adjusted to the reference's span."""
    ref = metrics.path_from_annotation(ref_ann, vocab)
    return ref, metrics.adjust_estimate(ref, metrics.path_from_annotation(est_ann, vocab), vocab)


def cmd_eval(args) -> int:
    vocab = get_vocabulary(args.vocab)
    pair = _scored_pair(annotate.load_annotation(args.ref), annotate.load_annotation(args.est),
                        vocab)
    score = metrics.wcsr(MetricKind(args.metric), [pair], vocab)
    print(f"{score:.1f}")
    return 0


def _score(kind: MetricKind, songs, vocab):
    """WCSR over ``songs`` rounded to 4 places, or None where the comparator
    is undefined on all of them: an empty CSV cell, ``null`` in JSON."""
    try:
        return round(metrics.wcsr(kind, songs, vocab), 4)
    except ZeroDefinedTime:
        return None


def cmd_report(args) -> int:
    vocab = get_vocabulary(args.vocab)
    ref_dir, est_dir = Path(args.ref_dir), Path(args.est_dir)
    names = sorted(p.name for p in ref_dir.glob("*.tsv") if (est_dir / p.name).exists())
    if not names:
        raise ChordkitError("no matching annotation files between ref and est dirs")
    songs, frame_pairs, per_song = [], [], []
    for name in names:
        ref_ann = annotate.load_annotation(ref_dir / name)
        est_ann = annotate.load_annotation(est_dir / name)
        ref_path, est_path = _scored_pair(ref_ann, est_ann, vocab)
        songs.append((ref_path, est_path))
        # frames past the estimate's end read as N
        grid = annotate.grid_for(ref_ann.duration, hop=args.hop)
        ref_ids = annotate.frame_labels(ref_ann, grid, vocab)
        est_ids = annotate.frame_labels(est_ann, grid, vocab)
        frame_pairs.append((ref_ids, est_ids))
        row = {"song": name}
        for kind in MetricKind:
            row[kind.value] = _score(kind, [(ref_path, est_path)], vocab)
        row["transitions_est"] = decode.count_transitions(est_ids)
        row["transitions_ref"] = decode.count_transitions(ref_ids)
        per_song.append(row)

    # every score is computed before any file is written
    mean_scores = {kind.value: _score(kind, songs, vocab) for kind in MetricKind}
    acc_class, median_class, table = metrics.class_wise_scores(MetricKind.ACC, songs, vocab)
    confusions = {axis: metrics.confusion_matrix(axis, frame_pairs, vocab, row_normalize=True)
                  for axis in ("quality", "root")}
    lengths = Counter(length for ref_ids, est_ids in frame_pairs
                      for _, length, _ in decode.incorrect_regions(est_ids, ref_ids))

    out_dir = _out_dir(args)
    _write_csv(out_dir / "per_song.csv", list(per_song[0]),
               [row.values() for row in per_song])
    _write_json(out_dir / "report.json", {
        "songs": len(songs),
        "wcsr": mean_scores,
        "acc_class": round(acc_class, 4),
        "median_class": round(median_class, 4),
        "per_class": {str(c): round(v, 4) for c, v in table.items()},
    })
    for axis, cm in confusions.items():
        labels = metrics.quality_axis(vocab) if axis == "quality" else metrics.root_axis()
        _write_csv(out_dir / f"confusion_{axis}.csv", [""] + labels,
                   ([label] + [f"{v:.6f}" for v in row] for label, row in zip(labels, cm)))
    _write_csv(out_dir / "incorrect_region_lengths.csv", ["length", "count"],
               sorted(lengths.items()))

    _write_manifest(out_dir, args, names,
                    ["per_song.csv", "report.json", "confusion_quality.csv",
                     "confusion_root.csv", "incorrect_region_lengths.csv"])
    _log(f"report over {len(songs)} songs -> {out_dir}")
    return 0


def cmd_augment(args) -> int:
    feat = features.load_features(args.features)
    ann = annotate.load_annotation(args.ann)
    shifted = features.pitch_shift_cqt(feat, args.shift)
    transposed = annotate.transpose_annotation(ann, args.shift)
    out_dir = _out_dir(args)
    stem = Path(args.features).stem + f"_shift{args.shift:+d}"
    annotate.save_annotation(transposed, out_dir / f"{stem}.tsv")
    features.save_features(shifted, out_dir / f"{stem}.cqtf")
    _write_manifest(out_dir, args, [args.features, args.ann],
                    [f"{stem}.cqtf", f"{stem}.tsv"])
    _log(f"shifted by {args.shift} semitones -> {out_dir / stem}.*")
    return 0


def cmd_check_align(args) -> int:
    [(feat, ann)] = _load_pairs([(args.features, args.ann)])
    lag = annotate.alignment_lag(feat, ann, window_frames=args.window)
    print(lag)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chordkit",
                                     description="chord recognition toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def flag(*names, **kwargs):
        """A parent parser holding one flag that several subcommands read."""
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(*names, **kwargs)
        return parent

    vocab = flag("--vocab", type=int, default=170, choices=tuple(VOCABULARIES))
    seed = flag("--seed", type=int, default=0)
    hop = flag("--hop", type=float, default=annotate.DEFAULT_HOP)
    out = flag("--out", required=True)

    p = sub.add_parser("synth", parents=[seed, hop, out], help="generate a synthetic dataset")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--duration", type=float, default=synthgen.ProgressionConfig.duration)
    p.add_argument("--noise", type=float, default=features.RenderParams.noise_db,
                   help="noise sigma in dB")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", parents=[vocab, seed, out], help="train a frame-wise classifier")
    p.add_argument("--data", required=True)
    p.add_argument("--arch", default=model.DEFAULT_ARCH, choices=model.ARCHITECTURES)
    p.add_argument("--hidden-units", type=int, help="hidden layer width, --arch hidden only")
    p.add_argument("--context", type=int,
                   help="frames of context on each side, --arch hidden only")
    for dest, name in TRAIN_FIELDS.items():
        default = getattr(model.TrainConfig, name)
        p.add_argument("--" + dest.replace("_", "-"), type=type(default), default=default)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", parents=[vocab, out], help="predict frame- or beat-wise labels")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--beat-file", help="beat times, one per line, for beat-wise labels")
    p.add_argument("--beat-division", choices=(*features.BEAT_DIVISIONS, "perfect"),
                   help=f"beats per pooled interval, needs --beat-file (default "
                        f"{features.DEFAULT_BEAT_DIVISION}); perfect pools the --ann segments")
    p.add_argument("--ann", help="annotation file, --beat-division perfect only")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("smooth", parents=[vocab, out], help="HMM-smooth a saved posteriorgram")
    p.add_argument("--post", required=True)
    p.add_argument("--beta", type=float, default=0.15)
    p.add_argument("--max-marginal", action="store_true")
    p.set_defaults(func=cmd_smooth)

    p = sub.add_parser("eval", parents=[vocab], help="WCSR between two annotation files")
    p.add_argument("--ref", required=True)
    p.add_argument("--est", required=True)
    p.add_argument("--metric", default="acc",
                   choices=[k.value for k in MetricKind])
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", parents=[vocab, hop, out],
                       help="full evaluation report over a directory")
    p.add_argument("--ref-dir", required=True)
    p.add_argument("--est-dir", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("augment", parents=[out], help="pitch-shift a feature/annotation pair")
    p.add_argument("--features", required=True)
    p.add_argument("--ann", required=True)
    p.add_argument("--shift", type=int, required=True)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("check-align", help="feature/annotation alignment lag")
    p.add_argument("--features", required=True)
    p.add_argument("--ann", required=True)
    p.add_argument("--window", type=int, default=annotate.ALIGN_WINDOW_FRAMES)
    p.set_defaults(func=cmd_check_align)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = getattr(args, "out", None)
    missing = [] if out is None else [p for p in (Path(out), *Path(out).parents) if not p.exists()]
    try:
        return args.func(args)
    except (ChordkitError, OSError, ValueError) as exc:
        # a failed run leaves no --out it made, nor its parents; rmdir, deepest
        # first, refuses a directory that holds anything
        for path in missing:
            with contextlib.suppress(OSError):
                path.rmdir()
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
