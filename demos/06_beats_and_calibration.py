"""Beat-synchronous pooling and class-prior calibration.

Pools frame features into beat intervals at several divisions, labels each
interval by maximum overlap, and shows how quality-level calibration ratios
correct a model trained under a shifted class distribution.
"""

import numpy as np

from chordkit.annotate import grid_for, interval_labels
from chordkit.features import (beat_intervals, beat_pool, perfect_intervals,
                               render_synthetic_cqt)
from chordkit.metrics import MetricKind, TimedPath, path_from_annotation, wcsr
from chordkit.synthgen import (ProgressionConfig, apply_calibration,
                               calibration_ratios)
from chordkit.synthgen import generate_song
from chordkit.vocab import get_vocabulary


def main():
    vocab = get_vocabulary(170)
    cfg = ProgressionConfig(duration=20.0)
    ann, bpm, _ = generate_song(cfg, seed=5)
    feat = render_synthetic_cqt(ann, grid_for(20.0))
    beats = list(np.arange(0.0, 20.0, 60.0 / bpm))

    print(f"Song at {bpm:.1f} BPM, {feat.n_frames} frames")
    print("\nPooling at different beat divisions:")
    for division in ("0.25", "0.5", "1", "2"):
        intervals = beat_intervals(beats, division, duration=20.0)
        pooled = beat_pool(feat, intervals)
        ids = interval_labels(ann, intervals.intervals, vocab)
        print(f"  division {division:4s}: {pooled.n_frames:3d} pooled rows, "
              f"{len(set(ids.tolist()))} distinct chords")

    # intervals taken straight from the annotation boundaries recover the
    # reference exactly under max-overlap assignment
    perfect = perfect_intervals(ann)
    ids = interval_labels(ann, perfect.intervals, vocab)
    est = TimedPath(intervals=tuple(
        (s, e, int(c)) for (s, e), c in zip(perfect.intervals, ids)))
    score = wcsr(MetricKind.ACC, [(path_from_annotation(ann, vocab), est)], vocab)
    print(f"\nPerfect intervals + max-overlap labels: accuracy {score:.1f}%")

    # calibration: the training data favoured min7 over maj7 per root 60/40,
    # the deployment domain is the reverse at 5/95
    train_dist = np.zeros(vocab.size)
    target_dist = np.zeros(vocab.size)
    for r in range(12):
        train_dist[vocab.chord_id(r, "min7")] = 0.6 / 12
        train_dist[vocab.chord_id(r, "maj7")] = 0.4 / 12
        target_dist[vocab.chord_id(r, "min7")] = 0.05 / 12
        target_dist[vocab.chord_id(r, "maj7")] = 0.95 / 12
    table = calibration_ratios(train_dist, target_dist, vocab)
    print(f"\nCalibration ratios: min7 {table.ratio('min7'):.3f}, "
          f"maj7 {table.ratio('maj7'):.3f} (others ~1)")

    # a frozen model that reproduces the training posterior on an ambiguous
    # input prefers min7 everywhere; calibration flips it
    logits = np.full((1, vocab.size), -20.0)
    logits[0, vocab.chord_id(0, "min7")] = np.log(0.6)
    logits[0, vocab.chord_id(0, "maj7")] = np.log(0.4)
    before = int(np.argmax(logits[0]))
    after = int(np.argmax(apply_calibration(logits, table, vocab)[0]))
    from chordkit.vocab import id_label
    print(f"Ambiguous input: argmax before={id_label(before, vocab)}, "
          f"after={id_label(after, vocab)}")


if __name__ == "__main__":
    main()
