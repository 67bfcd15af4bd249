"""Feature matrices: file I/O, a synthetic CQT renderer, pitch shifting and
beat-synchronous pooling.

The on-disk "CQTF" format is little-endian binary: magic ``CQTF``,
u32 version (=1), u32 n_bins, u64 n_frames, f64 hop_seconds,
u32 bins_per_octave, f32 floor_db, then n_frames * n_bins f32 values
stored frame-major. Round-trips are bit-exact.

The synthetic renderer has one layout, set by module constants: 216 bins
at 36 per octave from C1, inactive bins at the -80 dB floor, and chord bins
at 0 dB less 6 dB per octave. Only its noise level and seed are settable
(:class:`RenderParams`). Files on disk may hold any bin layout.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, replace

import numpy as np

from . import harte
from .annotate import (TIME_EPS, Annotation, FrameGrid, is_time_axis, parse_time, read_lines,
                       segment_index, time_axis_fault)
from .errors import (BadBinConfig, BadHeader, BadMagic, EmptyBeatList, MalformedLine,
                     NonFiniteFeatures, TruncatedPayload, VersionMismatch)

MAGIC = b"CQTF"
VERSION = 1
_HEADER = struct.Struct("<4sIIQdIf")

DEFAULT_BINS_PER_OCTAVE = 36
DEFAULT_N_BINS = 216
DEFAULT_FLOOR_DB = -80.0
# the synthetic renderer's level at a chord's lowest octave, and its drop per octave
RENDER_PEAK_DB = 0.0
RENDER_ROLLOFF_DB = 6.0
BEAT_DIVISIONS = ("0.25", "0.5", "1", "2")  # beats per pooled interval
DEFAULT_BEAT_DIVISION = "1"


@dataclass(frozen=True)
class FeatureMatrix:
    """Per-frame feature vectors in dB (n_frames x n_bins)."""

    data: np.ndarray
    hop: float
    bins_per_octave: int = DEFAULT_BINS_PER_OCTAVE
    floor_db: float = DEFAULT_FLOOR_DB

    @property
    def n_frames(self) -> int:
        return self.data.shape[0]

    @property
    def n_bins(self) -> int:
        return self.data.shape[1]

    def grid(self) -> FrameGrid:
        return FrameGrid(hop=self.hop, n_frames=self.n_frames)


def save_features(feat: FeatureMatrix, path) -> None:
    data = np.ascontiguousarray(feat.data, dtype="<f4")
    header = _HEADER.pack(MAGIC, VERSION, feat.n_bins, feat.n_frames,
                          feat.hop, feat.bins_per_octave, feat.floor_db)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.tobytes())


def load_features(path) -> FeatureMatrix:
    """Read a CQTF file; every malformed file raises a ChordkitError.

    The header must describe at least one bin, a positive finite hop, a
    finite floor and a positive multiple of 12 bins per octave; the file
    must hold the payload the header claims, and every value is finite.
    """
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise TruncatedPayload(f"file shorter than header: {path}")
        magic, version, n_bins, n_frames, hop, bpo, floor_db = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise BadMagic(f"bad magic {magic!r} in {path}")
        if version != VERSION:
            raise VersionMismatch(f"version {version}, expected {VERSION}")
        if n_bins == 0:
            raise BadHeader(f"no bins in {path}")
        if not (math.isfinite(hop) and hop > 0):
            raise BadHeader(f"hop {hop} is not a positive number in {path}")
        if not math.isfinite(floor_db):
            raise BadHeader(f"floor_db {floor_db} is not finite in {path}")
        _check_bins_per_octave(bpo)
        size = n_frames * n_bins * 4
        # the file size bounds the read, so a forged n_frames cannot ask for
        # more memory than the file holds
        if os.fstat(fh.fileno()).st_size - _HEADER.size < size:
            raise TruncatedPayload(f"payload shorter than header promises: {path}")
        data = np.empty((n_frames, n_bins), dtype="<f4")
        if fh.readinto(data) < size:
            raise TruncatedPayload(f"payload shorter than header promises: {path}")
    data = data.astype(np.float32, copy=False)  # native order: no copy on little-endian hosts
    if not np.isfinite(data).all():
        raise NonFiniteFeatures(f"non-finite feature values in {path}")
    return FeatureMatrix(data=data, hop=hop, bins_per_octave=bpo, floor_db=floor_db)


def _check_bins_per_octave(bins_per_octave: int) -> int:
    """Bins per semitone; BadBinConfig unless bins_per_octave is a positive multiple of 12."""
    if bins_per_octave <= 0 or bins_per_octave % 12 != 0:
        raise BadBinConfig(f"bins_per_octave {bins_per_octave} is not a positive multiple of 12")
    return bins_per_octave // 12


def bin_pitch_classes(n_bins: int, bins_per_octave: int) -> np.ndarray:
    """Pitch class of each CQT bin, with bin 0 at C1 (pitch class 0)."""
    semitones = np.arange(n_bins) // _check_bins_per_octave(bins_per_octave)
    return (semitones % 12).astype(np.int64)


@dataclass(frozen=True)
class RenderParams:
    """Noise controls for the synthetic CQT renderer (test oracle)."""

    noise_db: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.noise_db) and self.noise_db >= 0):
            raise ValueError(f"noise_db {self.noise_db} is not a finite number >= 0")


def render_synthetic_cqt(ann: Annotation, grid: FrameGrid,
                         params: RenderParams = RenderParams()) -> FeatureMatrix:
    """Render an idealized CQT from an annotation.

    Bins whose pitch class belongs to the active chord's pitch-class set are
    set to RENDER_PEAK_DB minus RENDER_ROLLOFF_DB per octave above the pitch
    class's lowest bin; all other bins (and N/X frames) sit at the floor.
    The bin layout and floor are the DEFAULT_ constants.
    """
    pcs = bin_pitch_classes(DEFAULT_N_BINS, DEFAULT_BINS_PER_OCTAVE)
    octaves = np.arange(DEFAULT_N_BINS) // DEFAULT_BINS_PER_OCTAVE
    peak = (RENDER_PEAK_DB - RENDER_ROLLOFF_DB * octaves).astype(np.float32)

    # pitch-class membership per segment, then an empty row for frames outside
    # every segment (index -1); N and X segments have no members
    members = np.zeros((len(ann.segments) + 1, 12), dtype=bool)
    for seg, (_, _, label) in enumerate(ann.segments):
        if label.is_chord():
            members[seg, list(harte.pitch_class_set(label))] = True
    rows = np.where(members[:, pcs], peak, np.float32(DEFAULT_FLOOR_DB))
    data = rows[segment_index(ann, grid.centers())]

    if params.noise_db > 0:
        rng = np.random.default_rng(params.seed)
        data = data + rng.normal(0.0, params.noise_db, size=data.shape).astype(np.float32)
        data = np.maximum(data, DEFAULT_FLOOR_DB)

    return FeatureMatrix(data=data, hop=grid.hop)


def pitch_shift_cqt(feat: FeatureMatrix, k: int) -> FeatureMatrix:
    """Shift all bins by k semitones; vacated bins are filled with floor_db."""
    if abs(k) > 11:
        raise ValueError(f"|k| must be <= 11, got {k}")
    shift = k * _check_bins_per_octave(feat.bins_per_octave)
    out = np.full_like(feat.data, feat.floor_db)
    # bins lo..hi-1 take bins lo-shift..hi-shift-1; none when |shift| >= n_bins
    lo = max(shift, 0)
    hi = max(lo, min(feat.n_bins, feat.n_bins + shift))
    out[:, lo:hi] = feat.data[:, lo - shift:hi - shift]
    return replace(feat, data=out)


@dataclass(frozen=True)
class BeatIntervals:
    """Contiguous, increasing (start, end) intervals derived from beats."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.intervals:
            raise EmptyBeatList("no beat intervals")
        if (bad := time_axis_fault(self.intervals)) is not None:
            raise EmptyBeatList(f"interval {bad} {self.intervals[bad]} is off a time axis")


def load_beats(path) -> list[float]:
    """Beat times, one finite float >= 0 per line, strictly increasing."""
    times = []
    for line_no, line in enumerate(read_lines(path), start=1):
        if line.strip():
            times.append(parse_time(line.strip(), line_no))
            if times[-1] < 0:
                raise MalformedLine(line_no, f"beat time {times[-1]} is negative")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise EmptyBeatList("beat times not strictly increasing")
    return times


def beat_intervals(beats: list[float], division: str = DEFAULT_BEAT_DIVISION,
                   duration: float | None = None) -> BeatIntervals:
    """Build pooled intervals from beat times.

    division "0.25"/"0.5" subdivide each beat interval into 4/2 parts,
    "1" keeps beat intervals, "2" merges pairs of beat intervals. Music
    before the first beat is covered by a prepended interval. With a
    duration, beats after it are dropped and a trailing interval is appended
    when it extends past the last beat, so the last interval ends there.
    """
    if not beats:
        raise EmptyBeatList("no beats")
    if division not in BEAT_DIVISIONS:
        raise ValueError(f"unknown beat division {division!r}")
    edges = [b for b in beats if duration is None or b <= duration + TIME_EPS]
    if not edges or edges[0] > 0:
        edges = [0.0] + edges
    if duration is not None and duration > edges[-1] + TIME_EPS:
        edges.append(duration)

    base = list(zip(edges, edges[1:]))
    if division == "1":
        out = base
    elif division == "2":
        out = [(base[i][0], base[min(i + 1, len(base) - 1)][1]) for i in range(0, len(base), 2)]
    else:
        parts = 4 if division == "0.25" else 2
        out = []
        for start, end in base:
            step = (end - start) / parts
            out.extend((start + j * step, start + (j + 1) * step) for j in range(parts))
    return BeatIntervals(intervals=tuple(out))


def perfect_intervals(ann: Annotation) -> BeatIntervals:
    """Intervals taken directly from annotation segment boundaries."""
    return BeatIntervals(intervals=tuple((start, end) for start, end, _ in ann.segments))


def beat_pool(feat: FeatureMatrix, beats: BeatIntervals) -> FeatureMatrix:
    """Average frame rows whose centers fall inside each interval.

    Empty intervals inherit the nearest preceding pooled row (or the first
    non-empty row when there is no preceding one).
    """
    centers = feat.grid().centers()
    # frames lo..hi-1 have their centers in [start, end)
    lo, hi = np.searchsorted(centers, np.array(beats.intervals, dtype=np.float64)).T
    count = hi - lo
    if not count.any():
        raise EmptyBeatList("no interval contains a frame center")
    means = np.empty((len(count), feat.n_bins), dtype=np.float32)
    filled = count > 0
    for i in np.flatnonzero(filled):
        means[i] = feat.data[lo[i]:hi[i]].mean(axis=0)
    # an empty interval takes the last filled row before it, else the first
    source = np.maximum.accumulate(np.where(filled, np.arange(len(count)), np.argmax(filled)))
    return replace(feat, data=means[source])
