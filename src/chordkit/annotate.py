"""Annotations, frame grids, label/frame alignment and integrity checks.

Annotation files are lab-style TSV: ``start<TAB>end<TAB>harte_label`` per
line, sorted by start time. Gaps between labelled segments are filled with
no-chord segments so that annotations tile [0, duration).

Each time-axis rule is written once, here:
- an Annotation, beat intervals and posteriorgram rows tile a time axis, each
  start within ``TIME_EPS`` of the last end (:func:`time_axis_fault`); a label
  file joins a gap up to ``TIME_STEP`` and an overlap up to ``TIME_EPS``;
- a song of d seconds spans ``ceil(d / hop)`` frames (:func:`grid_for`);
- time t lies in the segment whose half-open [start, end) holds it
  (:func:`segment_index`), and a frame lies where its centre does;
- so a chord changes at the first frame whose centre lies in the new
  segment, in :func:`frame_labels` and :func:`alignment_lag` alike.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from . import harte
from .errors import DegenerateSignal, MalformedChord, MalformedLine, NonMonotoneTimes
from .harte import ChordLabel
from .metrics import intersect, path_from_annotation
from .vocab import Vocabulary, map_label

DEFAULT_SR = 44100
DEFAULT_HOP_SAMPLES = 4096
DEFAULT_HOP = DEFAULT_HOP_SAMPLES / DEFAULT_SR
TIME_EPS = 1e-9  # seconds within which two times count as one
TIME_DECIMALS = 6  # decimals of the times in a label file
TIME_STEP = 10.0 ** -TIME_DECIMALS  # a label file's time resolution, in seconds
ALIGN_WINDOW_FRAMES = 50  # lags tried on each side by alignment_lag


@dataclass(frozen=True)
class Annotation:
    """Chord segments for one song that tile a time axis (:func:`time_axis_fault`)."""

    segments: tuple[tuple[float, float, ChordLabel], ...]
    duration: float

    def __post_init__(self):
        if (bad := time_axis_fault(self.segments)) is not None:
            raise NonMonotoneTimes(f"bad segment times {self.segments[bad][:2]} at segment {bad}")
        if self.segments and self.duration < self.segments[-1][1] - TIME_EPS:
            raise NonMonotoneTimes("duration shorter than last segment end")


def time_axis_fault(intervals) -> int | None:
    """Index of the first row (start, end, ...) off a time axis, or None: on one, times
    are finite, the first start >= 0, each end after its start and within TIME_EPS of the next."""
    prev_end = None
    for i, row in enumerate(intervals):
        start, end = row[0], row[1]
        # NaN fails every comparison, and a prev_end is finite
        if not (start < end < math.inf
                and (start >= 0 if prev_end is None else abs(start - prev_end) <= TIME_EPS)):
            return i
        prev_end = end
    return None


def is_time_axis(intervals) -> bool:
    return time_axis_fault(intervals) is None


@dataclass(frozen=True)
class FrameGrid:
    """Uniform frame grid: frame i covers [i*hop, (i+1)*hop)."""

    hop: float
    n_frames: int

    def centers(self) -> np.ndarray:
        return (np.arange(self.n_frames) + 0.5) * self.hop


def grid_for(duration: float, hop: float = DEFAULT_HOP) -> FrameGrid:
    """The fewest frames of ``hop`` seconds that cover ``duration``."""
    if not (math.isfinite(hop) and hop > 0):
        raise ValueError(f"hop {hop} is not a positive number")
    if not (math.isfinite(duration) and duration >= 0):
        raise ValueError(f"duration {duration} is not a finite number >= 0")
    return FrameGrid(hop=hop, n_frames=math.ceil(duration / hop))


def n_frames_for(duration: float) -> int:
    """Frame count of :func:`grid_for` at the default hop."""
    return grid_for(duration).n_frames


def fill_gaps(segments, duration=None) -> Annotation:
    """Insert no-chord segments so the annotation tiles [0, duration); a gap or
    a stated duration within one TIME_STEP of the previous end is that end."""
    segments = sorted(segments, key=lambda s: s[0])
    filled = []
    cursor = 0.0
    for start, end, label in segments:
        if start - cursor > TIME_STEP:
            filled.append((cursor, start, harte.NO_CHORD))
        elif start > cursor:
            start = cursor
        filled.append((start, end, label))
        cursor = end
    if duration is None or abs(duration - cursor) <= TIME_STEP:
        duration = cursor
    elif duration > cursor:
        filled.append((cursor, duration, harte.NO_CHORD))
    else:
        raise NonMonotoneTimes(f"duration {duration} shorter than last segment end {cursor}")
    return Annotation(segments=tuple(filled), duration=float(duration))


def read_lines(path) -> list[str]:
    """Lines of a UTF-8 text file, line endings translated as in text mode;
    bytes that are not UTF-8 raise MalformedLine with their line number."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return io.StringIO(raw.decode("utf-8"), newline=None).readlines()
    except UnicodeDecodeError as exc:
        raise MalformedLine(raw.count(b"\n", 0, exc.start) + 1, "not UTF-8 text") from None


def parse_time(text: str, line_no: int) -> float:
    """A finite time in seconds read from one field of a text line."""
    try:
        t = float(text)
        if not math.isfinite(t):
            raise ValueError(f"time {text!r} is not finite")
    except ValueError as exc:
        raise MalformedLine(line_no, str(exc)) from None
    return t


def load_annotation(path, duration=None) -> Annotation:
    """Read a lab-style TSV annotation file."""
    segments, prev_end = [], 0.0
    for line_no, line in enumerate(read_lines(path), start=1):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise MalformedLine(line_no, f"expected 3 tab-separated fields, got {len(parts)}")
        start, end = parse_time(parts[0], line_no), parse_time(parts[1], line_no)
        if start < 0:
            raise NonMonotoneTimes(f"line {line_no}: start {start} is negative")
        if 0 < prev_end - start <= TIME_EPS:
            start = prev_end
        # only a segment shorter than TIME_STEP can be empty at TIME_DECIMALS decimals
        if end - start < TIME_STEP and round(end, TIME_DECIMALS) <= round(start, TIME_DECIMALS):
            raise NonMonotoneTimes(f"line {line_no}: end {end} <= start {start} "
                                   f"at {TIME_DECIMALS} decimals")
        try:
            label = harte.parse_chord(parts[2].strip())
        except MalformedChord as exc:
            raise MalformedLine(line_no, str(exc)) from None
        segments.append((start, end, label))
        prev_end = end
    return fill_gaps(segments, duration=duration)


def save_annotation(ann: Annotation, path) -> None:
    """Write a label file with TIME_DECIMALS decimals per time.

    Every time is formatted first: a segment whose written times
    :func:`load_annotation` would refuse (an end not after its start, or an
    overlap) raises NonMonotoneTimes before the file is opened."""
    lines, prev_end = [], 0.0
    for start, end, label in ann.segments:
        start_text, end_text = f"{start:.{TIME_DECIMALS}f}", f"{end:.{TIME_DECIMALS}f}"
        if float(end_text) <= float(start_text) or float(start_text) < prev_end - TIME_EPS:
            raise NonMonotoneTimes(f"segment ({start}, {end}) would be written as "
                                   f"({start_text}, {end_text}), which does not load")
        prev_end = float(end_text)
        lines.append(f"{start_text}\t{end_text}\t{harte.format_chord(label)}\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def transpose_annotation(ann: Annotation, k: int) -> Annotation:
    segments = tuple(
        (start, end, harte.transpose_label(label, k)) for start, end, label in ann.segments
    )
    return Annotation(segments=segments, duration=ann.duration)


def segment_index(ann: Annotation, times) -> np.ndarray:
    """Index of the segment whose half-open [start, end) holds each time;
    -1 where no segment does."""
    times = np.asarray(times, dtype=np.float64)
    starts, ends = np.array([(s, e) for s, e, _ in ann.segments], dtype=np.float64).reshape(-1, 2).T
    # the last segment starting at or before t holds t if it has not ended;
    # before the first start, index -1 reads an end of -inf
    last = np.searchsorted(starts, times, side="right") - 1
    return np.where(times < np.append(ends, -np.inf)[last], last, -1)


def frame_labels(ann: Annotation, grid: FrameGrid, vocab: Vocabulary) -> np.ndarray:
    """ChordId per frame, decided by the segment containing the frame center."""
    # one id per segment, then N for frames outside every segment (index -1)
    seg_ids = np.array([map_label(lbl, vocab) for _, _, lbl in ann.segments] + [vocab.n_id],
                       dtype=np.int64)
    return seg_ids[segment_index(ann, grid.centers())]


def interval_labels(ann: Annotation, intervals, vocab: Vocabulary) -> np.ndarray:
    """Max-overlap ChordId per (start, end) interval, intervals in time order;
    time no segment covers counts as N, and ties go to the lowest id."""
    bounds = np.asarray(intervals, dtype=np.float64).reshape(-1, 2)
    dur, row, cid = intersect((bounds[:, 0], bounds[:, 1], np.arange(len(bounds))),
                              path_from_annotation(ann, vocab).columns)
    cell = row * vocab.size + cid
    # astype: bincount gives ints when no piece is covered
    overlap = np.bincount(cell, dur, len(bounds) * vocab.size).reshape(-1, vocab.size).astype(float)
    # covered time adds each interval's class totals in order of first
    # appearance, the order that fixes its rounding and so the N threshold and ties
    first = np.sort(np.unique(cell, return_index=True)[1])
    covered = np.bincount(row[first], overlap[row[first], cid[first]], minlength=len(bounds))
    uncovered = (bounds[:, 1] - bounds[:, 0]) - covered
    overlap[:, vocab.n_id] += np.where(uncovered > TIME_EPS, uncovered, 0.0)
    return np.argmax(overlap, axis=1)


def feature_derivative_signal(data: np.ndarray) -> np.ndarray:
    """Per-frame derivative magnitude: sum over bins of |first difference|."""
    deriv = np.zeros(data.shape[0], dtype=np.float64)
    if data.shape[0] > 1:
        deriv[1:] = np.abs(np.diff(data, axis=0)).sum(axis=1)
    return deriv


def _standardize(signal: np.ndarray) -> np.ndarray:
    std = signal.std() if signal.size else 0.0
    if std == 0:
        raise DegenerateSignal("signal is empty or has zero variance")
    return (signal - signal.mean()) / std


def alignment_lag(feat, ann: Annotation, window_frames: int = ALIGN_WINDOW_FRAMES) -> int:
    """Lag (in frames) maximizing the cross-correlation between the
    standardized feature-derivative magnitude and chord-change vector.

    ``feat`` has ``data`` (frames x bins) and ``hop``, as a FeatureMatrix
    does. A chord change is marked at the first frame whose center lies in the
    new segment, the frame where :func:`frame_labels` switches. Every lag's
    dot product is divided by the frame count, not by its overlap, so a
    long lag with a short overlap does not outscore the true one. Positive
    lag means the features change after the annotations. Ties are broken
    toward the smallest absolute lag. Only lags shorter than the song are
    tried, whatever ``window_frames`` allows.
    """
    if window_frames <= 0:
        raise ValueError("window_frames must be positive")
    deriv = _standardize(feature_derivative_signal(feat.data))
    segment = segment_index(ann, FrameGrid(hop=feat.hop, n_frames=len(deriv)).centers())
    changes = _standardize((np.diff(segment, prepend=segment[:1]) != 0).astype(np.float64))

    n = len(deriv)
    window_frames = min(window_frames, n - 1)
    best_lag, best_score = 0, -np.inf
    lags = sorted(range(-window_frames, window_frames + 1), key=lambda l: (abs(l), l))
    for lag in lags:
        # corr(lag) = sum_i deriv[i] * changes[i - lag] over the overlap
        a = deriv[max(lag, 0):n + min(lag, 0)]
        b = changes[max(-lag, 0):n - max(lag, 0)]
        score = float(np.dot(a, b)) / n
        if score > best_score:
            best_score, best_lag = score, lag
    return best_lag
