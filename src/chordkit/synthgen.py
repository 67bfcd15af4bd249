"""Functional-harmony progression generation and quality-level calibration.

A progression picks a mode and tonic, fixes one quality per functional
degree, then walks a rule graph (tonic to predominants, predominants to
dominant, dominant cadences home). Timing assumes one chord per bar at a
BPM drawn from a clipped normal distribution, looping the progression to
fill the requested duration.

Calibration computes per-quality ratios between a target and a training
class distribution, averaged over roots so the correction is
root-invariant, and applies the log ratio to chord logits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .annotate import TIME_EPS, TIME_STEP, Annotation
from .errors import MissingQuality
from .harte import ChordKind, ChordLabel
from .vocab import Vocabulary, check_ids

RATIO_EPS = 1e-6

# Scale-degree root offsets (semitones above the tonic). The rule graph is
# shared by both modes; mode changes only the degree quality distributions.
DEGREE_OFFSETS = {"I": 0, "ii": 2, "iii": 4, "IV": 5, "V": 7, "vi": 9}

# Progression length in chords, tempo distribution and bar layout.
MIN_LENGTH, MAX_LENGTH = 4, 10
BPM_MEAN, BPM_SD, BPM_CLIP = 117.0, 27.0, (60.0, 220.0)
BEATS_PER_BAR = 4
BARS_PER_CHORD = 1

RULE_GRAPH = {
    "I": (("ii", 0.3), ("IV", 0.3), ("vi", 0.3), ("iii", 0.1)),
    "ii": (("V", 1.0),),
    "IV": (("V", 1.0),),
    "V": (("I", 0.8), ("vi", 0.2)),
    "vi": (("ii", 0.6), ("iii", 0.4)),
    "iii": (("vi", 1.0),),
}

# Quality distributions per degree. Probabilities are committed here so
# generation is deterministic under a seed. Qualities are chosen so that no
# two generated chord classes share a pitch-class set (e.g. a sixth chord
# equals the relative seventh chord); only the inherently symmetric aug and
# dim7 qualities remain ambiguous in rendered features.
DEGREE_QUALITIES = {
    "major": {
        "I": (("maj", 0.5), ("maj7", 0.5)),
        "ii": (("min7", 0.6), ("min", 0.4)),
        "iii": (("min7", 0.5), ("min", 0.5)),
        "IV": (("maj7", 0.5), ("maj", 0.5)),
        "V": (("7", 0.5), ("maj", 0.2), ("sus4", 0.15), ("aug", 0.1), ("dim7", 0.05)),
        "vi": (("min7", 0.6), ("min", 0.4)),
    },
    "minor": {
        "I": (("min", 0.5), ("min7", 0.3), ("minmaj7", 0.2)),
        "ii": (("hdim7", 0.5), ("min7", 0.5)),
        "iii": (("maj", 0.5), ("maj7", 0.5)),
        "IV": (("min7", 0.5), ("min", 0.3), ("minmaj7", 0.2)),
        "V": (("7", 0.5), ("maj", 0.2), ("sus4", 0.15), ("aug", 0.1), ("dim7", 0.05)),
        "vi": (("maj", 0.6), ("maj7", 0.4)),
    },
}


@dataclass(frozen=True)
class ProgressionConfig:
    duration: float = 30.0

    def __post_init__(self):
        if not (math.isfinite(self.duration) and self.duration >= TIME_STEP):
            raise ValueError(f"duration {self.duration} is not a finite number >= "
                             f"{TIME_STEP}, a label file's time step")


def _choose(rng: np.random.Generator, options) -> str:
    names = [name for name, _ in options]
    probs = np.array([p for _, p in options], dtype=np.float64)
    probs /= probs.sum()
    return names[int(rng.choice(len(names), p=probs))]


def sample_progression(cfg: ProgressionConfig, rng: np.random.Generator) -> list[ChordLabel]:
    """Sample a chord progression starting at the tonic."""
    mode = "major" if rng.random() < 0.5 else "minor"
    tonic = int(rng.integers(0, 12))
    quality_table = DEGREE_QUALITIES[mode]
    degree_quality = {deg: _choose(rng, dist) for deg, dist in quality_table.items()}

    length = int(rng.integers(MIN_LENGTH, MAX_LENGTH + 1))
    degree = "I"
    chords = []
    for _ in range(length):
        chords.append(ChordLabel(
            kind=ChordKind.CHORD,
            root=(tonic + DEGREE_OFFSETS[degree]) % 12,
            quality=degree_quality[degree],
        ))
        degree = _choose(rng, RULE_GRAPH[degree])
    return chords


def realize_timing(chords: list[ChordLabel], cfg: ProgressionConfig,
                   rng: np.random.Generator) -> tuple[Annotation, float]:
    """Lay chords out one bar each at a sampled BPM, looping to fill
    cfg.duration seconds."""
    if not chords:
        raise ValueError("empty chord list")
    bpm = float(np.clip(rng.normal(BPM_MEAN, BPM_SD), *BPM_CLIP))
    bar = BARS_PER_CHORD * BEATS_PER_BAR * 60.0 / bpm
    segments = []
    t, i = 0.0, 0
    while t < cfg.duration - TIME_EPS:
        end = t + bar
        # a tail shorter than a label file's time step joins the chord before it
        if end > cfg.duration - TIME_STEP:
            end = cfg.duration
        segments.append((t, end, chords[i % len(chords)]))
        t = end
        i += 1
    return Annotation(segments=tuple(segments), duration=cfg.duration), bpm


@dataclass(frozen=True)
class CalibrationTable:
    """Per-quality multiplicative posterior correction factors."""

    ratios: dict = field(default_factory=dict)

    def ratio(self, quality: str) -> float:
        if quality not in self.ratios:
            raise MissingQuality(f"no calibration ratio for quality {quality!r}")
        return self.ratios[quality]


def calibration_ratios(train_dist: np.ndarray, target_dist: np.ndarray,
                       vocab: Vocabulary) -> CalibrationTable:
    """Quality-level target/train probability ratios, averaged over roots."""
    train_dist = np.asarray(train_dist, dtype=np.float64)
    target_dist = np.asarray(target_dist, dtype=np.float64)
    # [quality, root] ids: each quality's root-C id transposed to every root
    ids = vocab.tables.shifted[:, vocab.tables.root == 0].T
    per_root = (target_dist[ids] + RATIO_EPS) / (train_dist[ids] + RATIO_EPS)
    return CalibrationTable(ratios=dict(zip(vocab.qualities, per_root.mean(axis=1).tolist())))


def apply_calibration(logits: np.ndarray, table: CalibrationTable,
                      vocab: Vocabulary) -> np.ndarray:
    """Add log ratios to chord-class logits; N and X are left unchanged."""
    out = np.array(logits, dtype=np.float64, copy=True)
    log_ratio = np.log([table.ratio(quality) for quality in vocab.qualities])
    out[:, :vocab.n_id] += log_ratio[vocab.tables.quality[:vocab.n_id]]
    return out


def id_distribution(ids_per_song, vocab: Vocabulary) -> np.ndarray:
    """Empirical class distribution over per-song frame id arrays."""
    ids = np.concatenate([np.empty(0, dtype=np.int64), *map(np.asarray, ids_per_song)])
    counts = np.bincount(check_ids(ids, vocab), minlength=vocab.size).astype(np.float64)
    total = counts.sum()
    return counts / total if total > 0 else counts


def generate_song(cfg: ProgressionConfig, seed: int) -> tuple[Annotation, float, list[ChordLabel]]:
    """Deterministic progression + timing for one seed."""
    rng = np.random.default_rng(seed)
    chords = sample_progression(cfg, rng)
    ann, bpm = realize_timing(chords, cfg, rng)
    return ann, bpm, chords
