"""Synthetic songs and CQT-style features.

Generates functional-harmony progressions, renders them to synthetic CQT
feature matrices, saves everything in the on-disk formats, and shows
pitch-shift augmentation of a (features, labels) pair.
"""

from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np

from chordkit.annotate import (grid_for, load_annotation, save_annotation,
                               transpose_annotation)
from chordkit.features import (RenderParams, load_features, pitch_shift_cqt,
                               render_synthetic_cqt, save_features)
from chordkit.harte import format_chord
from chordkit.synthgen import ProgressionConfig, generate_song


def main():
    with TemporaryDirectory(prefix="chordkit_demo_") as tmp:
        show(Path(tmp))


def show(out: Path):
    cfg = ProgressionConfig(duration=30.0)

    print("Three generated progressions:")
    for seed in range(3):
        ann, bpm, chords = generate_song(cfg, seed)
        names = " ".join(format_chord(c) for c in chords)
        print(f"  seed {seed}: bpm={bpm:6.1f}  {names}")

    ann, bpm, _ = generate_song(cfg, seed=0)
    grid = grid_for(ann.duration)
    feat = render_synthetic_cqt(ann, grid, RenderParams(noise_db=5.0, seed=1))
    print(f"\nRendered features: {feat.n_frames} frames x {feat.n_bins} bins, "
          f"{feat.bins_per_octave} bins/octave, floor {feat.floor_db} dB")

    save_annotation(ann, out / "song.tsv")
    save_features(feat, out / "song.cqtf")
    reloaded = load_features(out / "song.cqtf")
    assert np.array_equal(reloaded.data, feat.data)
    print(f"Round-tripped through {out / 'song.cqtf'} "
          f"({(out / 'song.cqtf').stat().st_size} bytes, bit-exact)")

    # pitch-shift augmentation: shift the spectrogram and transpose the labels
    shifted_feat = pitch_shift_cqt(feat, 2)
    shifted_ann = transpose_annotation(ann, 2)
    print("\nAugmentation by +2 semitones:")
    print(f"  first chord: {format_chord(ann.segments[0][2])} -> "
          f"{format_chord(shifted_ann.segments[0][2])}")
    moved = np.mean(np.argmax(shifted_feat.data, axis=1)
                    - np.argmax(feat.data, axis=1))
    print(f"  mean argmax bin moved by {moved:.1f} "
          f"(= 2 semitones x 3 bins/semitone)")

    loaded = load_annotation(out / "song.tsv")
    print(f"\nAnnotation round-trip: {len(loaded.segments)} segments, "
          f"duration {loaded.duration:.1f} s")


if __name__ == "__main__":
    main()
